//! Deterministic overload behavior with no WAL in the way: rule 2 sheds
//! with the retryable code and the accounting balances, a slow call
//! stalls its own worker's connections and nobody else's, and a dying
//! connection never takes the server (or the database's integrity) with
//! it. The bounds on replies *parked on a flush* — rule 3, and rule 2's
//! other half — are exercised in `durable_ack.rs`, where there is a WAL
//! to stall.

use feral_db::AuditMode;
use feral_net::planner::{certified_plan, seeded_database, PlannedService, T_DEPOSIT};
use feral_net::wire;
use feral_net::{Server, ServerConfig};
use feral_server::{Request, Response, Service};
use parking_lot::{Condvar, Mutex};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Session id of the request [`GateService`] holds back.
const SLOW: u64 = u64::MAX;

/// A service that answers at once — except the [`SLOW`] session's
/// requests, which block until the gate opens: a stand-in for one slow
/// database call.
struct GateService {
    open: Mutex<bool>,
    cv: Condvar,
    calls: AtomicU64,
}

impl GateService {
    fn new() -> Arc<GateService> {
        Arc::new(GateService {
            open: Mutex::new(false),
            cv: Condvar::new(),
            calls: AtomicU64::new(0),
        })
    }

    fn release(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }
}

impl Service for GateService {
    fn call(&self, request: Request) -> Response {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if request.session == SLOW {
            let mut open = self.open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
        }
        Response::Ok
    }
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn frame(id: u64, session: u64) -> Vec<u8> {
    let request = Request::builder("Widget").session(session).create();
    wire::encode_request(id, &request).unwrap()
}

fn send(stream: &mut TcpStream, id: u64) {
    stream.write_all(&frame(id, id)).unwrap();
}

/// Read exactly `n` responses off the stream.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u64, Response)> {
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut out = Vec::new();
    while out.len() < n {
        if let Some(payload) = wire::take_frame(&mut inbuf).expect("well-formed frame") {
            out.push(wire::decode_response(&payload).expect("decodable response"));
            continue;
        }
        let got = stream.read(&mut chunk).expect("read");
        assert!(got > 0, "server closed early: {}/{} replies", out.len(), n);
        inbuf.extend_from_slice(&chunk[..got]);
    }
    out
}

fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Rule 2: a connection is owed at most `inflight` replies it has not
/// been sent. Twelve requests pipelined in one write reach the worker in
/// one read; four run, and the rest are answered `Overloaded` — the
/// retryable code — without running. The replies written, the connection
/// is admitted again.
#[test]
fn a_burst_past_the_inflight_bound_is_shed_then_the_connection_recovers() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            executors: 1,
            inflight: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut conn = connect(&server);
    const SENT: usize = 12;
    let burst: Vec<u8> = (0..SENT as u64).flat_map(|id| frame(id, id)).collect();
    conn.write_all(&burst).unwrap();
    let responses = read_responses(&mut conn, SENT);
    for (id, r) in &responses {
        if *id < 4 {
            assert!(matches!(r, Response::Ok), "request {id}: {r:?}");
        } else {
            assert!(matches!(r, Response::Overloaded) && r.retryable());
        }
    }
    assert_eq!(service.calls.load(Ordering::SeqCst), 4, "a shed never runs");
    let m = server.metrics();
    assert_eq!(m.served.load(Ordering::Relaxed), SENT as u64);
    assert_eq!(m.shed_inflight.load(Ordering::Relaxed), (SENT - 4) as u64);
    assert_eq!(m.shed_queue.load(Ordering::Relaxed), 0);

    // recovery: the same connection serves normally once drained
    for id in 100..104u64 {
        send(&mut conn, id);
    }
    let responses = read_responses(&mut conn, 4);
    assert!(responses.iter().all(|(_, r)| matches!(r, Response::Ok)));
    server.shutdown();
}

/// What the rules do not bound: a slow `Service::call` runs on the worker
/// that read it, so it holds up that worker's connections — its own, and
/// the one that shares the worker — exactly as a slow request holds up a
/// Unicorn worker. The other worker's connection is served throughout.
#[test]
fn a_slow_call_delays_only_its_own_workers_connections() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            executors: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // connections go to the workers round-robin: 0, 1, 0
    let mut slow = connect(&server);
    let mut other = connect(&server);
    let mut sharing = connect(&server);
    assert!(eventually(|| {
        server.metrics().accepted.load(Ordering::Relaxed) == 3
    }));

    slow.write_all(&frame(1, SLOW)).unwrap();
    assert!(eventually(|| service.calls.load(Ordering::SeqCst) == 1));
    for id in 0..100u64 {
        send(&mut other, id);
        let responses = read_responses(&mut other, 1);
        assert!(matches!(responses[0], (got, Response::Ok) if got == id));
    }
    send(&mut sharing, 7);
    sharing
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut byte = [0u8; 1];
    let stalled = sharing
        .read(&mut byte)
        .expect_err("its worker is in the slow call");
    assert!(matches!(
        stalled.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ));
    assert_eq!(
        service.calls.load(Ordering::SeqCst),
        101,
        "request 7 has not run"
    );

    service.release();
    sharing
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(matches!(read_responses(&mut slow, 1)[0], (1, Response::Ok)));
    assert!(matches!(
        read_responses(&mut sharing, 1)[0],
        (7, Response::Ok)
    ));
    assert_eq!(server.metrics().total_shed(), 0);
    server.shutdown();
}

/// A connection that dies while its request runs: the request completes
/// (the database may commit), the reply goes to a socket nobody reads,
/// the worker reaps the connection — torn frame and all — and the server
/// keeps serving. (A reply *parked on a flush* when its connection dies
/// is counted in `dropped_replies`; see `durable_ack.rs`.)
#[test]
fn a_connection_dropped_mid_request_is_reaped_and_the_server_keeps_serving() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    {
        let mut doomed = connect(&server);
        doomed.write_all(&frame(1, SLOW)).unwrap();
        assert!(eventually(|| service.calls.load(Ordering::SeqCst) == 1));
        send(&mut doomed, 2);
        // a torn frame: a length prefix promising more than we send
        doomed.write_all(&[64, 0, 0, 0, 0xAA, 0xBB]).unwrap();
    }
    service.release();

    // the one worker is free again, and serves a fresh connection
    let mut fresh = connect(&server);
    send(&mut fresh, 7);
    let responses = read_responses(&mut fresh, 1);
    assert!(matches!(responses[0], (7, Response::Ok)));
    assert_eq!(service.calls.load(Ordering::SeqCst), 3, "request 2 ran too");
    let m = server.metrics();
    assert_eq!(
        m.protocol_errors.load(Ordering::Relaxed),
        0,
        "torn, not malformed"
    );
    assert_eq!(m.dropped_replies.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn overload_sheds_never_corrupt_integrity() {
    // a deliberately tiny in-flight bound over the real planner service:
    // heavy pipelining forces sheds, yet every shed is pre-execution, so
    // the post-run integrity audit must stay clean
    let db = seeded_database(AuditMode::Full);
    let service = Arc::new(PlannedService::new(db, certified_plan()));
    let server = Server::start(
        service.clone(),
        ServerConfig {
            executors: 2,
            inflight: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut conn = connect(&server);
    const SENT: usize = 400;
    const BURST: usize = 16;
    // deposits at a few hot accounts, sixteen to a write — twice what the
    // connection may be owed — while this thread reads the replies
    let mut writer = conn.try_clone().unwrap();
    let responses = std::thread::scope(|s| {
        s.spawn(move || {
            for burst in (0..SENT).step_by(BURST) {
                let frames: Vec<u8> = (burst..burst + BURST)
                    .flat_map(|n| {
                        let request = Request::template(T_DEPOSIT, (n % 48) as u64);
                        wire::encode_request(n as u64, &request).unwrap()
                    })
                    .collect();
                writer.write_all(&frames).unwrap();
            }
        });
        read_responses(&mut conn, SENT)
    });
    let shed = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Overloaded))
        .count();
    let ok = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Ok))
        .count();
    assert_eq!(ok + shed, SENT);
    assert!(shed > 0, "a burst of {BURST} past `inflight` 8 sheds");
    server.shutdown();

    // acked deposits all landed; shed deposits never ran
    assert_eq!(service.acked_deposits(), ok as u64);
    let anomalies = service.integrity_audit();
    assert_eq!(anomalies.total(), 0, "{}", anomalies.describe());
    // the runtime auditor watched the whole run and saw no cycles
    let snap = service.db().audit_snapshot().expect("audit snapshot");
    assert_eq!(snap.cycles, 0);
}
