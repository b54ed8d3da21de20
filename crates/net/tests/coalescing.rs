//! One wake, one futex and one socket write per batch — and no wake-up
//! lost for it.
//!
//! The event loop polls with a 100 ms timeout, so a lost wake-up is not a
//! hang but a silent 100 ms stall that no functional test notices. The
//! stress tests here time every request and fail on the first one slower
//! than [`STALL`] (unless the whole process was paused meanwhile — see
//! [`Pauses`]). They were checked by mutation, each against several
//! runs of this file:
//!
//! * the loop draining the waker *after* clearing `wake_pending`: all
//!   four `no_wakeup_is_lost_*` tests fail within two seconds;
//! * the loop clearing `wake_pending` after it has taken *and processed*
//!   the inbox: `no_wakeup_is_lost_before_silence` fails in 3 runs of 3;
//! * the same clear moved to just after the take — a window of one unlock
//!   and one store, two or three nanoseconds: it fails in 3 runs of 12.
//!   That order is ruled out by the argument in `server.rs`, not by this
//!   file;
//! * the queue reading its sleeper count outside the critical section
//!   that pushes: the one-executor half of
//!   `no_wakeup_is_lost_before_silence` strands a request in 3 runs of 3.
//!
//! The tests with other requests in flight cannot see any of these — the
//! next hand-off rescues a stranded one a round trip later — which is why
//! the sensitive test sends staggered pairs into silence. The budget test
//! pins the other half of the contract: a batch of replies costs a
//! handful of system calls, whatever its size.

use feral_db::{ColumnDef, Config, DataType, Database, Datum, TableSchema};
use feral_net::wire;
use feral_net::{Server, ServerConfig, ServerMetrics};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Request, Response, Service};
use parking_lot::{Condvar, Mutex};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request slower than this was stalled, not served: half the poll
/// timeout a lost wake-up waits for, two orders of magnitude above an
/// honest round trip.
const STALL: Duration = Duration::from_millis(50);

/// The stress tests time requests; run one at a time so they do not
/// starve each other of the two cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Intervals in which the whole process stood still (a stolen virtual
/// CPU, a starved box): a thread that waits for nobody's wake-up sleeps
/// 1 ms at a time and records every sleep that took over 20 ms. A slow
/// request that overlaps one was paused like everything else, not
/// stalled by the server — a lost wake-up stops one event loop while
/// this thread keeps its beat.
#[derive(Default)]
struct Pauses {
    seen: Mutex<Vec<(Instant, Instant)>>,
    stop: AtomicBool,
}

impl Pauses {
    fn watch(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            let before = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            let after = Instant::now();
            if after - before > Duration::from_millis(20) {
                self.seen.lock().push((before, after));
            }
        }
    }

    /// Whether the process was seen standing still between `from` and `to`.
    fn overlap(&self, from: Instant, to: Instant) -> bool {
        // let the watcher, paused too, note what it saw
        std::thread::sleep(Duration::from_millis(5));
        self.seen.lock().iter().any(|(a, b)| *a <= to && from <= *b)
    }
}

/// Stops the watcher when the driver returns — or unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spin for a pseudo-random `0..below` of time drawn from `seed`.
fn jitter(seed: u64, below: Duration) {
    let nanos = below.as_nanos() as u64;
    let spin = Duration::from_nanos((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) % nanos);
    let start = Instant::now();
    while start.elapsed() < spin {
        std::hint::spin_loop();
    }
}

struct Echo;

impl Service for Echo {
    fn call(&self, _request: Request) -> Response {
        Response::Ok
    }
}

/// The longest a staggered pair is written apart: the span of the
/// loop's wake-up turn and of an executor's way back to sleep.
const APART: Duration = Duration::from_micros(16);

fn serve(service: Arc<dyn Service>, executors: usize) -> Server {
    let config = ServerConfig {
        event_loops: 1,
        executors,
        ..ServerConfig::default()
    };
    Server::start(service, config).unwrap()
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn load(m: &ServerMetrics, counter: impl Fn(&ServerMetrics) -> &AtomicU64) -> u64 {
    counter(m).load(Ordering::Relaxed)
}

/// How a client paces itself.
#[derive(Clone, Copy)]
enum Pace {
    /// Keep this many requests in flight: a reply frees a slot at once.
    Window(u64),
    /// Two requests written a jittered moment apart, then silence until
    /// both are answered. The second reaches the dispatch queue while the
    /// executor that took the first is on its way back to sleep, and the
    /// second's completion reaches the inbox while the loop is in the
    /// turn the first one woke it for — and the connection then waits, so
    /// a wake-up lost at either place has no later traffic to be rescued
    /// by.
    StaggeredPairs,
}

/// Drive `total` requests over `stream` at `pace`; `request(seq)` builds
/// them, `expect` checks each reply, and none may take [`STALL`] from its
/// write to its decode.
fn drive(
    stream: &mut TcpStream,
    pace: Pace,
    total: u64,
    request: impl Fn(u64) -> Request,
    expect: impl Fn(&Response) -> bool,
) {
    let pauses = Pauses::default();
    std::thread::scope(|s| {
        s.spawn(|| pauses.watch());
        let _stop = StopOnDrop(&pauses.stop);
        drive_watched(stream, pace, total, request, expect, &pauses);
    });
}

fn drive_watched(
    stream: &mut TcpStream,
    pace: Pace,
    total: u64,
    request: impl Fn(u64) -> Request,
    expect: impl Fn(&Response) -> bool,
    pauses: &Pauses,
) {
    let mut sent_at = vec![Instant::now(); total as usize];
    let (mut sent, mut done) = (0u64, 0u64);
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut out = Vec::new();
    while done < total {
        let (burst, apart) = match pace {
            Pace::Window(depth) => (depth - (sent - done), false),
            Pace::StaggeredPairs => (2 * u64::from(sent == done), true),
        };
        out.clear();
        for nth in 0..burst.min(total - sent) {
            if apart && nth > 0 {
                stream.write_all(&out).unwrap();
                out.clear();
                jitter(sent, APART);
            }
            sent_at[sent as usize] = Instant::now();
            out.extend_from_slice(&wire::encode_request(sent, &request(sent)).unwrap());
            sent += 1;
        }
        stream.write_all(&out).unwrap();
        let got = stream.read(&mut chunk).unwrap_or_else(|e| {
            panic!(
                "{} requests stranded after {done} replies: {e}",
                sent - done
            )
        });
        assert!(got > 0, "server closed after {done}/{total} replies");
        inbuf.extend_from_slice(&chunk[..got]);
        let now = Instant::now();
        while let Some(payload) = wire::take_frame(&mut inbuf).expect("well-formed frame") {
            let (id, response) = wire::decode_response(&payload).expect("decodable response");
            assert!(expect(&response), "request {id} answered {response:?}");
            let took = now - sent_at[id as usize];
            assert!(
                took < STALL || pauses.overlap(sent_at[id as usize], now),
                "request {id} took {took:?}"
            );
            done += 1;
        }
    }
}

fn get(seq: u64) -> Request {
    Request::builder("Widget").session(seq).get(seq as i64)
}

fn is_ok(response: &Response) -> bool {
    matches!(response, Response::Ok)
}

/// One loop, four executors, two connections with `depth` in flight and
/// `per_conn` requests each: the most traffic the hand-offs see.
fn two_connections(depth: u64, per_conn: u64) -> Server {
    let server = serve(Arc::new(Echo), 4);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let mut conn = connect(&server);
            s.spawn(move || drive(&mut conn, Pace::Window(depth), per_conn, get, is_ok));
        }
    });
    let m = server.metrics();
    assert_eq!(load(m, |m| &m.served), 2 * per_conn);
    assert_eq!(m.total_shed() + load(m, |m| &m.dropped_replies), 0);
    server
}

#[test]
fn no_wakeup_is_lost_one_request_at_a_time() {
    let _alone = ONE_AT_A_TIME.lock();
    two_connections(1, 100_000).shutdown();
}

#[test]
fn no_wakeup_is_lost_sixteen_in_flight() {
    let _alone = ONE_AT_A_TIME.lock();
    let server = two_connections(16, 100_000);
    // sixteen in flight is where coalescing pays: well under one system
    // call of each kind per request
    let m = server.metrics();
    let served = load(m, |m| &m.served);
    for (name, calls) in [
        ("reply_writes", load(m, |m| &m.reply_writes)),
        ("wakes", load(m, |m| &m.wakes)),
        ("socket_reads", load(m, |m| &m.socket_reads)),
    ] {
        assert!(calls * 2 < served, "{name} = {calls} for {served} replies");
    }
    server.shutdown();
}

/// The tests above cannot see a lost wake-up: with other requests in
/// flight, the next hand-off rescues the stranded one a round trip later.
/// These two leave it nothing to hide behind ([`Pace::StaggeredPairs`]),
/// with four executors for the loop's inbox and with ONE for the
/// dispatch queue — a push that skips its `notify` because it misjudged
/// the only executor awake strands the request until the client gives up.
#[test]
fn no_wakeup_is_lost_before_silence() {
    let _alone = ONE_AT_A_TIME.lock();
    for executors in [4, 1] {
        let server = serve(Arc::new(Echo), executors);
        let mut conn = connect(&server);
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        drive(&mut conn, Pace::StaggeredPairs, 50_000, get, is_ok);
        server.shutdown();
    }
}

/// Replies that arrive from a thread that is no executor: with a WAL, a
/// committing request's reply leaves from the flush completion, and here
/// a fifth committer — not a server thread at all — takes its turns
/// leading the flush and so sends other requests' replies.
#[test]
fn no_wakeup_is_lost_when_the_flush_leader_replies() {
    let _alone = ONE_AT_A_TIME.lock();
    let dir = std::env::temp_dir().join(format!("feral-coalescing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("leader.wal");
    let _ = std::fs::remove_file(&path);
    let db = Database::open(Config {
        wal_path: Some(path),
        ..Config::default()
    })
    .unwrap();
    db.create_table(TableSchema::new(
        "scratch",
        vec![ColumnDef::new("n", DataType::Int)],
    ))
    .unwrap();
    let app = App::new(db.clone());
    app.define(ModelDef::build("User").string("email").finish())
        .unwrap();
    let server = serve(Arc::new(PooledService::new(app, 4)), 4);

    let stop = AtomicBool::new(false);
    let before = db.stats().snapshot();
    const PER_CONN: u64 = 20_000;
    let outside = std::thread::scope(|s| {
        let outsider = s.spawn(|| {
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut tx = db.txn().begin();
                tx.insert_pairs("scratch", &[("n", Datum::Int(commits as i64))])
                    .unwrap();
                tx.commit().unwrap();
                commits += 1;
            }
            commits
        });
        let runs: Vec<_> = (0..2u64)
            .map(|c| {
                let mut conn = connect(&server);
                s.spawn(move || {
                    let post = |seq: u64| {
                        Request::builder("User")
                            .session(seq)
                            .attr("email", Datum::text(format!("c{c}-{seq}@example.com")))
                            .create()
                    };
                    let created = |r: &Response| matches!(r, Response::Created(_));
                    drive(&mut conn, Pace::Window(16), PER_CONN, post, created);
                    drive(
                        &mut conn,
                        Pace::StaggeredPairs,
                        PER_CONN / 10,
                        post,
                        created,
                    );
                })
            })
            .collect();
        // stop the outsider whether or not a connection failed
        let runs: Vec<_> = runs.into_iter().map(|r| r.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let outside = outsider.join().unwrap();
        runs.into_iter().for_each(|r| r.unwrap());
        outside
    });
    let d = db.stats().snapshot().diff(&before);
    let requests = 2 * (PER_CONN + PER_CONN / 10);
    assert_eq!(d.commits, requests + outside);
    assert!(
        outside > 0 && d.wal_flushes < d.commits,
        "{outside} outside commits, {} flushes for {} commits: no flush was shared",
        d.wal_flushes,
        d.commits
    );
    assert_eq!(load(server.metrics(), |m| &m.served), requests);
    server.shutdown();
    assert_eq!(db.count_rows("users").unwrap() as u64, requests);
}

/// A service that blocks every call until the gate opens.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    calls: AtomicU64,
}

impl Service for Gate {
    fn call(&self, _request: Request) -> Response {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock();
        while !*open {
            self.cv.wait(&mut open);
        }
        Response::Ok
    }
}

/// The budget as a contract: 64 pipelined `GET`s — the per-connection
/// cap — wait behind a gate, four in the executors and sixty in the
/// queue; released together, their replies come back in a handful of
/// loop turns, each paid with one waker byte and one socket write. The
/// parent paid 64 of each.
#[test]
fn a_released_batch_costs_a_handful_of_wakes_and_writes() {
    let _alone = ONE_AT_A_TIME.lock();
    const SENT: u64 = 64;
    let gate = Arc::new(Gate {
        open: Mutex::new(false),
        cv: Condvar::new(),
        calls: AtomicU64::new(0),
    });
    let server = serve(gate.clone(), 4);
    let mut conn = connect(&server);
    let mut out = Vec::new();
    for id in 0..SENT {
        let get = Request::builder("Widget").session(id).get(id as i64);
        out.extend_from_slice(&wire::encode_request(id, &get).unwrap());
    }
    conn.write_all(&out).unwrap();
    // every executor holds a request; the other sixty are queued
    let deadline = Instant::now() + Duration::from_secs(10);
    while gate.calls.load(Ordering::SeqCst) < 4 {
        assert!(
            Instant::now() < deadline,
            "executors never reached the gate"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let m = server.metrics();
    // one write of 64 frames is one read (two if it straddled a segment),
    // and a read's requests are queued before an executor can take one
    assert!(load(m, |m| &m.socket_reads) <= 4);
    assert_eq!(load(m, |m| &m.served), 0);
    let wakes_before = load(m, |m| &m.wakes);

    *gate.open.lock() = true;
    gate.cv.notify_all();
    let mut answered = 0;
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 4096];
    while answered < SENT {
        let got = conn.read(&mut chunk).expect("read");
        assert!(got > 0, "server closed early");
        inbuf.extend_from_slice(&chunk[..got]);
        while let Some(payload) = wire::take_frame(&mut inbuf).unwrap() {
            assert!(matches!(
                wire::decode_response(&payload).unwrap().1,
                Response::Ok
            ));
            answered += 1;
        }
    }
    assert_eq!(load(m, |m| &m.served), SENT);
    let (wakes, writes) = (
        load(m, |m| &m.wakes) - wakes_before,
        load(m, |m| &m.reply_writes),
    );
    assert!(wakes <= 8, "{wakes} wakes for {SENT} replies");
    assert!(writes <= 8, "{writes} reply writes for {SENT} replies");
    assert_eq!(m.total_shed(), 0);
    server.shutdown();
}
