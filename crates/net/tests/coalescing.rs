//! The one cross-thread path left in the server — a flush completion
//! posting a parked reply to the worker that owns its connection — costs
//! one wake and one socket write per batch, and loses no wake-up for it.
//!
//! A worker polls with a 100 ms timeout, so a lost wake-up is not a hang
//! but a silent 100 ms stall that no functional test notices. The stress
//! tests here time every request and fail on the first one slower than
//! [`STALL`] (unless the whole process was paused meanwhile — see
//! [`Pauses`]). Every request is a signup against a WAL-backed database,
//! so every reply leaves from a flush completion — on the server's
//! flusher thread, or on an outside committer's when that one leads.
//! They were checked by mutation, each against several runs of this
//! file:
//!
//! * the worker draining the waker *after* clearing `wake_pending`: the
//!   three `no_wakeup_is_lost_*` tests that keep more than one request in
//!   flight on a connection fail within seconds;
//! * the worker clearing `wake_pending` after it has taken *and
//!   processed* the inbox: `no_wakeup_is_lost_before_silence` fails in 3
//!   runs of 3;
//! * the same clear moved to just after the take — a window of one unlock
//!   and one store, two or three nanoseconds: it fails in 3 runs of 12.
//!   That order is ruled out by the argument in `server.rs`, not by this
//!   file.
//!
//! The tests with other requests in flight cannot see these — the next
//! completion rescues a stranded one a round trip later — which is why
//! the sensitive test sends staggered pairs into silence. What a reply
//! that waits for *no* flush costs — no wake at all — is pinned in
//! `inline_cost.rs`.

use feral_db::{ColumnDef, Config, DataType, Database, Datum, TableSchema};
use feral_net::wire;
use feral_net::{Server, ServerConfig, ServerMetrics};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Request, Response};
use parking_lot::Mutex;
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
/// stalled by the server — a lost wake-up stops one worker while this
/// thread keeps its beat.
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

/// The longest a staggered pair is written apart: the span of the
/// worker's wake-up turn.
const APART: Duration = Duration::from_micros(16);

/// A signup service over a fresh WAL-backed (unsynced: a flush is a
/// `write`, microseconds) database, behind a server of two workers.
fn serve(name: &str) -> (Database, Server) {
    let dir = std::env::temp_dir().join(format!("feral-coalescing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.wal"));
    let _ = std::fs::remove_file(&path);
    let db = Database::open(Config {
        wal_path: Some(path),
        ..Config::default()
    })
    .unwrap();
    let app = App::new(db.clone());
    app.define(ModelDef::build("User").string("email").finish())
        .unwrap();
    let config = ServerConfig {
        executors: 2,
        ..ServerConfig::default()
    };
    let service = Arc::new(PooledService::new(app, config.executors));
    (db, Server::start(service, config).unwrap())
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
    /// both are answered. The second commits while the first one's flush
    /// is in flight and is covered by the next, so its completion reaches
    /// the inbox while the worker is in the turn the first one woke it
    /// for — and the connection then waits, so a wake-up lost there has
    /// no later traffic to be rescued by.
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

/// Connection `c`'s `seq`th signup.
fn post(c: u64) -> impl Fn(u64) -> Request {
    move |seq| {
        Request::builder("User")
            .session(seq)
            .attr("email", Datum::text(format!("c{c}-{seq}@example.com")))
            .create()
    }
}

fn created(response: &Response) -> bool {
    matches!(response, Response::Created(_))
}

/// Two connections — one per worker — with `depth` signups in flight and
/// `per_conn` each: the most traffic the completion path sees.
fn two_connections(name: &str, depth: u64, per_conn: u64) -> Server {
    let (db, server) = serve(name);
    std::thread::scope(|s| {
        for c in 0..2 {
            let mut conn = connect(&server);
            s.spawn(move || drive(&mut conn, Pace::Window(depth), per_conn, post(c), created));
        }
    });
    let m = server.metrics();
    assert_eq!(load(m, |m| &m.served), 2 * per_conn);
    assert_eq!(m.total_shed() + load(m, |m| &m.dropped_replies), 0);
    assert_eq!(db.count_rows("users").unwrap() as u64, 2 * per_conn);
    server
}

#[test]
fn no_wakeup_is_lost_one_request_at_a_time() {
    let _alone = ONE_AT_A_TIME.lock();
    two_connections("one", 1, 20_000).shutdown();
}

#[test]
fn no_wakeup_is_lost_sixteen_in_flight() {
    let _alone = ONE_AT_A_TIME.lock();
    let server = two_connections("sixteen", 16, 40_000);
    // sixteen in flight is where coalescing pays: a flush completes many
    // replies, which cost their worker one wake and one write — well
    // under one system call of each kind per request
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
/// flight, the next completion rescues the stranded one a round trip
/// later. This one leaves it nothing to hide behind
/// ([`Pace::StaggeredPairs`]).
#[test]
fn no_wakeup_is_lost_before_silence() {
    let _alone = ONE_AT_A_TIME.lock();
    let (_db, server) = serve("silence");
    let mut conn = connect(&server);
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    drive(&mut conn, Pace::StaggeredPairs, 50_000, post(0), created);
    server.shutdown();
}

/// Replies that arrive from a thread that is no server thread at all: a
/// committer outside the server takes its turns leading the flush — a
/// synchronous commit leads when it finds none in flight — and so
/// completes, and sends, other requests' replies.
#[test]
fn no_wakeup_is_lost_when_an_outside_leader_replies() {
    let _alone = ONE_AT_A_TIME.lock();
    let (db, server) = serve("outsider");
    db.create_table(TableSchema::new(
        "scratch",
        vec![ColumnDef::new("n", DataType::Int)],
    ))
    .unwrap();

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
                    drive(&mut conn, Pace::Window(16), PER_CONN, post(c), created);
                    drive(
                        &mut conn,
                        Pace::StaggeredPairs,
                        PER_CONN / 10,
                        |seq| post(c)(PER_CONN + seq),
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
