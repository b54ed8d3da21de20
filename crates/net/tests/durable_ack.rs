//! Ack ⇒ durable, at the wire. A worker runs `Service::call` inside
//! `feral_db::defer_durable` and sends a committing request's reply from
//! the flush completion, so it never sleeps through an fsync — not even
//! as the flush leader: the lead a parked commit hands it goes to the
//! `feral-net-flush` thread at once. These tests hold the WAL writer
//! (`Database::with_wal_stalled`) to park replies deterministically: one
//! worker fills a batch, a reply read is a row recovered, reads are
//! answered while commits wait, a commit the same read waits on is
//! flushed meanwhile, the parked-reply bounds shed, a dead connection's
//! parked replies are counted, and a failed flush answers `Error`.
//!
//! Checked by mutation: a worker that keeps the leads of a read and
//! hands them over at its end fails
//! `a_commit_the_same_read_waits_on_is_flushed_meanwhile`; a worker that
//! leads the flush itself (drops the lead) fails
//! `reads_are_answered_while_commits_wait_for_the_flush`; a worker that
//! leaks the lead (`mem::forget`) fails both, and every other test here
//! that does not park behind an in-process leader.

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

/// A synced-WAL database behind the ORM-backed service (`User.email` is
/// validated unique ferally *and* by a unique index) and a server shaped
/// by `config`.
fn stack_with(path: &Path, config: ServerConfig) -> (Database, Server) {
    let db = Database::open(Config {
        wal_path: Some(path.to_path_buf()),
        wal_sync: true,
        lock_timeout: LOCK_TIMEOUT,
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
    app.add_index("User", &["email"], true).unwrap();
    let service = Arc::new(PooledService::new(app, config.executors));
    (db, Server::start(service, config).unwrap())
}

/// [`stack_with`] ONE worker.
fn stack(path: &Path) -> (Database, Server) {
    stack_with(
        path,
        ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        },
    )
}

/// What a request waits for a lock another holds before it gives up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(4);

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// The frame of a signup as `u<who>@example.com`.
fn signup(id: u64, who: u64) -> Vec<u8> {
    let request = Request::builder("User")
        .session(id)
        .attr("email", Datum::text(format!("u{who}@example.com")))
        .create();
    wire::encode_request(id, &request).unwrap()
}

fn post(stream: &mut TcpStream, id: u64) {
    stream.write_all(&signup(id, id)).unwrap();
}

fn get(stream: &mut TcpStream, id: u64, user: i64) {
    let request = Request::builder("User").session(id).get(user);
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

/// One worker, 32 pipelined signups, one flush: the worker hands each
/// reply to its commit and goes on to the next request, so the batch is
/// bounded by what is in flight, not by the worker count. And every
/// `Created(id)` that reaches the client is already recoverable.
#[test]
fn one_worker_fills_a_batch_and_every_ack_is_durable() {
    const SENT: u64 = 32;
    let path = wal_path("batch");
    let (db, server) = stack(&path);
    let mut conn = connect(&server);
    let before = db.stats().snapshot();
    with_a_leader_stalled(&db, || {
        for id in 0..SENT {
            post(&mut conn, id);
        }
        // all 32 committed — on one worker — while nothing is flushed
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

/// With the writer stalled and nobody else to lead, the first signup's
/// commit makes its worker the flush leader — and the worker declines:
/// the flusher thread is the one stuck on the writer. `GET`s on the same
/// connection and on another worker's are answered meanwhile, and the
/// signups' replies leave only when the flush completes.
#[test]
fn reads_are_answered_while_commits_wait_for_the_flush() {
    const SENT: u64 = 4;
    let path = wal_path("reads-meanwhile");
    let (db, server) = stack_with(
        &path,
        ServerConfig {
            executors: 2,
            ..ServerConfig::default()
        },
    );
    // connections go to the workers round-robin: one each
    let mut writer = connect(&server);
    let mut reader = connect(&server);
    for conn in [&mut writer, &mut reader] {
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    }
    post(&mut writer, 1000);
    let (_, Response::Created(known)) = replies(&mut writer).next() else {
        panic!("the first signup commits")
    };
    let before = appends(&db);
    db.with_wal_stalled(|| {
        for id in 0..SENT {
            post(&mut writer, id);
        }
        assert!(eventually(|| appends(&db) - before == SENT));
        assert!(db.wal_flush_in_flight(), "the flusher leads");
        get(&mut writer, 50, known);
        get(&mut reader, 51, known);
        // a worker asleep on the writer would leave this read to time out
        assert!(matches!(
            replies(&mut writer).next(),
            (50, Response::Found(_))
        ));
        assert!(matches!(
            replies(&mut reader).next(),
            (51, Response::Found(_))
        ));
        assert_eq!(server.metrics().served.load(Ordering::Relaxed), 3);
    });
    let mut replies = replies(&mut writer);
    for _ in 0..SENT {
        let (_, response) = replies.next();
        assert!(matches!(response, Response::Created(_)), "{response:?}");
    }
    server.shutdown();
}

/// Two signups under one e-mail, pipelined in one write: the second waits
/// on the unique-key lock the first one's commit holds until its flush
/// completes. The worker is the thread that parked that commit and was
/// handed the lead — had it kept the lead for the end of the read, it
/// would wait on itself until `lock_timeout`. Handed over at once, the
/// flush runs meanwhile: the first is created and the second refused,
/// both in the time of an fsync.
#[test]
fn a_commit_the_same_read_waits_on_is_flushed_meanwhile() {
    let path = wal_path("same-read");
    let (db, server) = stack(&path);
    let mut conn = connect(&server);
    let started = Instant::now();
    let mut both = signup(0, 7);
    both.extend_from_slice(&signup(1, 7));
    conn.write_all(&both).unwrap();
    let mut replies = replies(&mut conn);
    // the refusal has nothing to wait for and may overtake the ack
    let mut answers = [replies.next(), replies.next()];
    let took = started.elapsed();
    answers.sort_by_key(|(id, _)| *id);
    let [first, second] = answers;
    assert!(matches!(first, (0, Response::Created(_))), "{first:?}");
    // by the index, the feral probe having run before the first was
    // visible — or by the probe, if the flush won that race
    match &second {
        (1, Response::Error(e)) => assert!(e.to_string().contains("unique"), "got: {e}"),
        (1, Response::Invalid(_)) => {}
        other => panic!("the duplicate answered {other:?}"),
    }
    assert!(
        took < LOCK_TIMEOUT / 4,
        "a lock wait on the worker's own parked commit: {took:?}"
    );
    assert_eq!(db.stats().snapshot().lock_timeouts, 0);
    assert_eq!(db.count_rows("users").unwrap(), 1);
    server.shutdown();
}

/// Rules 2 and 3 count parked replies. With the writer stalled, a
/// connection is owed at most `inflight` of them and the server holds at
/// most `queue`: what is pipelined past the bound is answered
/// `Overloaded` at once — before the flush, without running — and counted
/// under the rule that refused it. Once the flush completes the parked
/// ones are answered `Created` and the next signup is admitted again.
#[test]
fn parked_replies_past_the_bounds_are_shed() {
    const SENT: u64 = 10;
    const BOUND: u64 = 4;
    for (rule, queue, inflight) in [
        ("queue", BOUND as usize, 64),
        ("inflight", 1024, BOUND as usize),
    ] {
        let path = wal_path(rule);
        let (db, server) = stack_with(
            &path,
            ServerConfig {
                executors: 1,
                queue,
                inflight,
                ..ServerConfig::default()
            },
        );
        let mut conn = connect(&server);
        let before = appends(&db);
        db.with_wal_stalled(|| {
            for id in 0..SENT {
                post(&mut conn, id);
            }
            let mut replies = replies(&mut conn);
            for _ in BOUND..SENT {
                let (id, response) = replies.next();
                assert!(id >= BOUND, "{rule}: request {id} was shed");
                assert!(matches!(response, Response::Overloaded) && response.retryable());
            }
            assert_eq!(
                appends(&db) - before,
                BOUND,
                "{rule}: a shed request never ran"
            );
        });
        let mut replies = replies(&mut conn);
        for _ in 0..BOUND {
            let (id, response) = replies.next();
            assert!(id < BOUND && matches!(response, Response::Created(_)));
        }
        post(replies.stream, 100);
        assert!(matches!(replies.next(), (100, Response::Created(_))));
        let m = server.metrics();
        let shed = (
            m.shed_queue.load(Ordering::Relaxed),
            m.shed_inflight.load(Ordering::Relaxed),
        );
        let want = if rule == "queue" {
            (SENT - BOUND, 0)
        } else {
            (0, SENT - BOUND)
        };
        assert_eq!(shed, want, "{rule}");
        assert_eq!(m.served.load(Ordering::Relaxed), SENT + 1);
        server.shutdown();
    }
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
        // an undecodable frame: the worker drops the connection itself,
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
