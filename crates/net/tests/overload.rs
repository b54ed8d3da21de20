//! Deterministic overload behavior: every backpressure layer sheds with
//! the retryable error code, reply accounting balances, and a dying
//! connection never takes the server (or the database's integrity)
//! with it.

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

/// A service that blocks every call until the gate opens — a stand-in
/// for a slow database, letting tests fill each backpressure layer
/// deterministically before any request completes.
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
    fn call(&self, _request: Request) -> Response {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock();
        while !*open {
            self.cv.wait(&mut open);
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

fn send(stream: &mut TcpStream, id: u64) {
    let request = Request::builder("Widget").session(id).create();
    let frame = wire::encode_request(id, &request).unwrap();
    stream.write_all(&frame).unwrap();
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

#[test]
fn queue_full_sheds_with_retryable_code_and_full_accounting() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            event_loops: 1,
            executors: 1,
            queue: 2,
            inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut conn = connect(&server);
    const SENT: usize = 20;
    for id in 0..SENT as u64 {
        send(&mut conn, id);
    }
    // let the event loop ingest everything while the executor is gated:
    // 1 request blocks in the executor, 2 wait in the queue (+1 may
    // still be queued if the executor hasn't popped yet), the rest shed
    std::thread::sleep(Duration::from_millis(200));
    service.release();

    let responses = read_responses(&mut conn, SENT);
    let shed = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Overloaded))
        .count();
    let ok = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Ok))
        .count();
    assert_eq!(ok + shed, SENT, "every request answered exactly once");
    assert!(
        (SENT - 4..=SENT - 2).contains(&shed),
        "queue(2) + executor(1) admit 2-4 of {SENT}, shed {shed}"
    );
    // the shed code is the retryable one
    for (_, r) in &responses {
        if matches!(r, Response::Overloaded) {
            assert!(r.retryable());
        }
    }
    let m = server.metrics();
    assert_eq!(m.served.load(Ordering::Relaxed), SENT as u64);
    assert_eq!(m.shed_queue.load(Ordering::Relaxed), shed as u64);
    assert_eq!(m.shed_inflight.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn slow_worker_trips_the_per_connection_inflight_bound_then_recovers() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            event_loops: 1,
            executors: 1,
            queue: 1024,
            inflight: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut conn = connect(&server);
    const SENT: usize = 12;
    for id in 0..SENT as u64 {
        send(&mut conn, id);
    }
    std::thread::sleep(Duration::from_millis(200));
    // the executor is gated, so per-connection in-flight never drains:
    // exactly `inflight` requests are admitted, the rest shed
    service.release();
    let responses = read_responses(&mut conn, SENT);
    let shed = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Overloaded))
        .count();
    assert_eq!(shed, SENT - 4);
    let m = server.metrics();
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

#[test]
fn mid_request_connection_drop_counts_dropped_replies_and_keeps_serving() {
    let service = GateService::new();
    let server = Server::start(
        service.clone(),
        ServerConfig {
            event_loops: 1,
            executors: 2,
            queue: 1024,
            inflight: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    {
        let mut doomed = connect(&server);
        send(&mut doomed, 1);
        send(&mut doomed, 2);
        // a torn frame: a length prefix promising more than we send
        doomed.write_all(&[64, 0, 0, 0, 0xAA, 0xBB]).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // both whole requests are now executing (2 executors); the
        // connection dies before either can reply
        assert_eq!(service.calls.load(Ordering::SeqCst), 2);
        drop(doomed);
    }
    std::thread::sleep(Duration::from_millis(100));
    service.release();

    // the dropped connection's replies are counted, not silently lost
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if server.metrics().dropped_replies.load(Ordering::Relaxed) == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dropped_replies stuck at {}",
            server.metrics().dropped_replies.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // and the server still serves fresh connections
    let mut fresh = connect(&server);
    send(&mut fresh, 7);
    let responses = read_responses(&mut fresh, 1);
    assert!(matches!(responses[0], (7, Response::Ok)));
    server.shutdown();
}

#[test]
fn overload_sheds_never_corrupt_integrity() {
    // a deliberately tiny dispatch queue over the real planner service:
    // heavy pipelining forces queue sheds, yet every shed is pre-
    // execution, so the post-run integrity audit must stay clean
    let db = seeded_database(AuditMode::Full);
    let service = Arc::new(PlannedService::new(db, certified_plan()));
    let server = Server::start(
        service.clone(),
        ServerConfig {
            event_loops: 1,
            executors: 2,
            queue: 4,
            inflight: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut conn = connect(&server);
    const SENT: usize = 400;
    let mut sent = 0usize;
    let mut responses = Vec::new();
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    conn.set_nonblocking(true).unwrap();
    // fire deposits at one hot account as fast as the socket accepts,
    // draining replies opportunistically so neither side deadlocks
    while sent < SENT || responses.len() < SENT {
        if sent < SENT {
            let request = Request::template(T_DEPOSIT, (sent % 48) as u64);
            let frame = wire::encode_request(sent as u64, &request).unwrap();
            match conn.write_all(&frame) {
                Ok(()) => sent += 1,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("send failed: {e}"),
            }
        }
        while let Some(payload) = wire::take_frame(&mut inbuf).expect("well-formed frame") {
            responses.push(wire::decode_response(&payload).expect("decodable"));
        }
        match conn.read(&mut chunk) {
            Ok(0) => panic!("server closed"),
            Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    let shed = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Overloaded))
        .count();
    let ok = responses
        .iter()
        .filter(|(_, r)| matches!(r, Response::Ok))
        .count();
    assert_eq!(ok + shed, SENT);
    server.shutdown();

    // acked deposits all landed; shed deposits never ran
    assert_eq!(service.acked_deposits(), ok as u64);
    let anomalies = service.integrity_audit();
    assert_eq!(anomalies.total(), 0, "{}", anomalies.describe());
    // the runtime auditor watched the whole run and saw no cycles
    let snap = service.db().audit_snapshot().expect("audit snapshot");
    assert_eq!(snap.cycles, 0);
}
