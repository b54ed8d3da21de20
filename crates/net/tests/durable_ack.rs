//! Ack ⇒ durable, at the wire. The server runs `Service::call` inside
//! `feral_db::defer_durable` and sends a committing request's reply from
//! the flush completion, so an executor never sleeps through an fsync.
//! These tests hold the WAL writer (`Database::with_wal_stalled`) behind
//! an in-process leader to park replies deterministically: one executor
//! fills a batch, a reply read is a row recovered, a dead connection's
//! parked replies are counted, and a failed flush answers `Error`.

use feral_db::{ColumnDef, Config, DataType, Database, Datum, TableSchema};
use feral_net::wire;
use feral_net::{Server, ServerConfig};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feral-durable-ack-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.wal"));
    let _ = std::fs::remove_file(&path);
    path
}

fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A synced-WAL database behind the ORM-backed service and a server with
/// ONE executor.
fn stack(path: &Path) -> (Database, Server) {
    let db = Database::open(Config {
        wal_path: Some(path.to_path_buf()),
        wal_sync: true,
        ..Config::default()
    })
    .unwrap();
    let app = App::new(db.clone());
    let user = ModelDef::build("User")
        .string("email")
        .validates_presence_of("email")
        .validates_uniqueness_of("email")
        .finish();
    app.define(user).unwrap();
    let server = Server::start(
        Arc::new(PooledService::new(app, 1)),
        ServerConfig {
            event_loops: 1,
            executors: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (db, server)
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn post(stream: &mut TcpStream, id: u64) {
    let request = Request::builder("User")
        .session(id)
        .attr("email", Datum::text(format!("u{id}@example.com")))
        .create();
    stream
        .write_all(&wire::encode_request(id, &request).unwrap())
        .unwrap();
}

/// Reads replies one at a time, so a caller can look at the log between
/// two of them.
struct Replies<'a> {
    stream: &'a mut TcpStream,
    inbuf: Vec<u8>,
}

impl Replies<'_> {
    fn next(&mut self) -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(payload) = wire::take_frame(&mut self.inbuf).expect("well-formed frame") {
                return wire::decode_response(&payload).expect("decodable response");
            }
            let got = self.stream.read(&mut chunk).expect("read");
            assert!(got > 0, "server closed early");
            self.inbuf.extend_from_slice(&chunk[..got]);
        }
    }
}

fn replies(stream: &mut TcpStream) -> Replies<'_> {
    Replies {
        stream,
        inbuf: Vec::new(),
    }
}

/// Whether a database recovered from a copy of the log, taken right now,
/// has user `id`.
fn recovered_from_a_copy(path: &Path, id: i64) -> bool {
    let copy = path.with_extension("copy");
    std::fs::copy(path, &copy).unwrap();
    let db = Database::open(Config {
        wal_path: Some(copy),
        ..Config::default()
    })
    .unwrap();
    let mut tx = db.txn().begin();
    tx.get_by_id("users", id).unwrap().is_some()
}

/// Run `f` with the WAL writer stalled *and a flush leader parked on it*
/// (an in-process DDL append), so commits made meanwhile join that
/// leader's next batch instead of leading a flush of their own.
fn with_a_leader_stalled<R>(db: &Database, f: impl FnOnce() -> R) -> R {
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            let leader = db.clone();
            s.spawn(move || {
                let scratch = TableSchema::new("scratch", vec![ColumnDef::new("n", DataType::Int)]);
                // fails when the test armed the torn-write failpoint
                let _ = leader.create_table(scratch);
            });
            assert!(eventually(|| db.wal_flush_in_flight()));
            f()
        })
    })
}

fn appends(db: &Database) -> u64 {
    db.stats().snapshot().wal_appends
}

/// One executor, 32 pipelined signups, one flush: the executor hands each
/// reply to its commit and goes on to the next request, so the batch is
/// bounded by what is in flight, not by the executor count. And every
/// `Created(id)` that reaches the client is already recoverable.
#[test]
fn one_executor_fills_a_batch_and_every_ack_is_durable() {
    const SENT: u64 = 32;
    let path = wal_path("batch");
    let (db, server) = stack(&path);
    let mut conn = connect(&server);
    let before = db.stats().snapshot();
    with_a_leader_stalled(&db, || {
        for id in 0..SENT {
            post(&mut conn, id);
        }
        // all 32 committed — behind one executor — while nothing is flushed
        assert!(eventually(|| appends(&db) - before.wal_appends == SENT + 1));
        let d = db.stats().snapshot().diff(&before);
        assert_eq!((d.wal_flushes, d.commits), (0, 0));
        assert_eq!(server.metrics().served.load(Ordering::Relaxed), 0);
    });
    let mut replies = replies(&mut conn);
    let mut ids = Vec::new();
    for _ in 0..SENT {
        let (_, response) = replies.next();
        let Response::Created(id) = response else {
            panic!("signup answered {response:?}")
        };
        assert!(recovered_from_a_copy(&path, id), "acked id {id} is durable");
        ids.push(id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, SENT);
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.wal_appends, d.commits), (SENT + 1, SENT));
    assert_eq!(
        (d.wal_flushes, d.group_commit_batches),
        (2, 2),
        "the leader's own record, then all 32 signups in one batch"
    );
    server.shutdown();
}

/// A connection that dies while its commits are parked: the replies are
/// counted in `dropped_replies` (the dubious-ack window, observable), the
/// rows are durable all the same, and the server keeps serving.
#[test]
fn a_connection_closed_under_parked_commits_counts_dropped_replies() {
    const SENT: u64 = 8;
    let path = wal_path("dropped");
    let (db, server) = stack(&path);
    let before = appends(&db);
    with_a_leader_stalled(&db, || {
        let mut doomed = connect(&server);
        for id in 0..SENT {
            post(&mut doomed, id);
        }
        assert!(eventually(|| appends(&db) - before == SENT + 1));
        // an undecodable frame: the loop drops the connection itself,
        // before any of the parked replies can come back
        doomed.write_all(&[1, 0, 0, 0, 0xFF]).unwrap();
        assert!(eventually(|| {
            server.metrics().protocol_errors.load(Ordering::Relaxed) == 1
        }));
    });
    assert!(
        eventually(|| server.metrics().dropped_replies.load(Ordering::Relaxed) == SENT),
        "dropped_replies stuck at {}",
        server.metrics().dropped_replies.load(Ordering::Relaxed)
    );
    assert_eq!(db.count_rows("users").unwrap() as u64, SENT);
    for id in 1..=SENT as i64 {
        assert!(recovered_from_a_copy(&path, id));
    }
    let mut fresh = connect(&server);
    post(&mut fresh, 100);
    let (id, response) = replies(&mut fresh).next();
    assert!(matches!((id, &response), (100, Response::Created(_))));
    server.shutdown();
}

/// A failed flush answers the requests parked on it with `Error` — not
/// `Overloaded`, not retryable: the commit may not be repeated blindly —
/// and the server still answers reads afterwards.
#[test]
fn a_failed_flush_answers_parked_requests_with_an_error() {
    const SENT: u64 = 4;
    let path = wal_path("poison");
    let (db, server) = stack(&path);
    let mut conn = connect(&server);
    post(&mut conn, 1000);
    let (_, Response::Created(survivor)) = replies(&mut conn).next() else {
        panic!("the first signup commits")
    };
    db.set_wal_fail_after(Some(5));
    let before = appends(&db);
    with_a_leader_stalled(&db, || {
        for id in 0..SENT {
            post(&mut conn, id);
        }
        assert!(eventually(|| appends(&db) - before == SENT + 1));
    });
    let mut replies = replies(&mut conn);
    for _ in 0..SENT {
        let (_, response) = replies.next();
        let Response::Error(e) = &response else {
            panic!("a parked signup answered {response:?}")
        };
        assert!(e.to_string().contains("poisoned"), "got: {e}");
        assert!(!response.retryable());
    }
    // nothing of the failed batch is visible; reads are still served
    assert_eq!(db.count_rows("users").unwrap(), 1);
    let get = Request::builder("User").get(survivor);
    replies
        .stream
        .write_all(&wire::encode_request(7, &get).unwrap())
        .unwrap();
    assert!(matches!(replies.next(), (7, Response::Found(_))));
    post(replies.stream, 2000);
    let (_, response) = replies.next();
    assert!(matches!(response, Response::Error(_)) && !response.retryable());
    let m = server.metrics();
    assert_eq!(m.dropped_replies.load(Ordering::Relaxed), 0);
    assert_eq!(m.total_shed(), 0);
    server.shutdown();
    assert!(recovered_from_a_copy(&path, survivor));
}
