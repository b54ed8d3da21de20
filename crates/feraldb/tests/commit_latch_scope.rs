//! What the commit shard latches do not cover. A committer validates,
//! enqueues its WAL record and installs its versions under the latches
//! of the tables it wrote, then drops them and only afterwards waits for
//! the flush and publishes. These tests stall
//! the WAL writer (`Database::with_wal_stalled`) to hold commits in that
//! installed-but-unpublished state deterministically.
//!
//! The second half is about who pays that wait. Inside
//! `feral_db::defer_durable` a commit hands its tail (durable wait →
//! publish → lock release) to the flush instead of sleeping through it:
//! one thread can fill a whole batch, the leader never leaves a parked
//! tail behind, and code inside the scope still sees its own commits. A
//! parker that finds no flush in flight is the leader, and may decline:
//! the flush loop comes back as a `FlushLead`, to run on another thread
//! or to drop — which runs it too, so no tail can be orphaned by it.

use feral_db::{
    defer_durable, ColumnDef, Config, DataType, Database, Datum, DbResult, FlushLead,
    IsolationLevel, PendingCommit, Predicate, TableSchema, WalRecord, WalWrite,
};
use std::sync::{Arc, Mutex};

mod common;
use common::eventually;

fn wal_path(name: &str) -> std::path::PathBuf {
    common::wal_path("latch-scope", name)
}

fn open(path: &std::path::Path) -> Database {
    open_with(path, Config::default())
}

fn open_with(path: &std::path::Path, config: Config) -> Database {
    Database::open(Config {
        wal_path: Some(path.to_path_buf()),
        wal_sync: true,
        ..config
    })
    .unwrap()
}

fn items_table(db: &Database) {
    db.create_table(TableSchema::new(
        "items",
        vec![ColumnDef::new("n", DataType::Int)],
    ))
    .unwrap();
}

fn insert(db: &Database, n: i64) -> DbResult<()> {
    db.txn().run(|tx| {
        tx.insert_pairs("items", &[("n", Datum::Int(n))])
            .map(|_| ())
    })
}

/// Insert `n` with the durable wait deferred.
fn insert_deferred(db: &Database, n: i64) -> PendingCommit {
    let (inserted, pending) = defer_durable(|| insert(db, n));
    inserted.unwrap();
    pending.expect("a durable commit inside the scope is deferred")
}

/// The `n` of every insert in a copy of the log taken right now.
fn in_a_copy_of_the_log(path: &std::path::Path) -> Vec<i64> {
    static COPIES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = COPIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let copy = path.with_extension(format!("copy{k}"));
    std::fs::copy(path, &copy).unwrap();
    let logged = common::logged_values(&copy);
    let _ = std::fs::remove_file(&copy);
    logged
}

/// Acknowledge `pending` into `fired` — after checking, at the instant
/// the callback runs, that the row is visible and in a copy of the log.
/// A caller that lets the returned lead fall leads the flush on the spot.
fn ack_into(
    pending: PendingCommit,
    n: i64,
    db: &Database,
    path: &std::path::Path,
    fired: &Arc<Mutex<Vec<i64>>>,
) -> Option<FlushLead> {
    let (db, path, fired) = (db.clone(), path.to_path_buf(), fired.clone());
    pending.on_complete(move |durable| {
        durable.unwrap();
        let mut tx = db.txn().begin();
        assert_eq!(values(&mut tx, &Predicate::eq(1, n)), vec![n], "visible");
        assert!(in_a_copy_of_the_log(&path).contains(&n), "{n} is logged");
        fired.lock().unwrap().push(n);
    })
}

/// `n` of every row of `items` matching `pred`, in heap order.
fn values(tx: &mut feral_db::Transaction, pred: &Predicate) -> Vec<i64> {
    let rows = tx.scan("items", pred).unwrap();
    rows.iter().map(|(_, t)| t[1].as_int().unwrap()).collect()
}

/// Six threads commit into the SAME table while the writer is stalled:
/// all six must get their records into the buffer behind the stalled
/// flush, so at most two flushes (the leader's batch taken before it
/// parked, then everything queued behind it) cover six appends — and log
/// order = timestamp order = heap row-id order when the log is replayed.
///
/// On the parent of this change the test fails at the first assertion:
/// the leader held `items`' shard latch across its flush, the other five
/// queued on the latch instead of in the buffer, and every batch on one
/// table was pinned at size 1 (`wal_flushes == wal_appends`).
#[test]
fn committers_on_one_table_share_a_flush() {
    const N: u64 = 6;
    let path = wal_path("one-table");
    let db = open(&path);
    items_table(&db);
    let before = db.stats().snapshot();
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            for n in 0..N {
                let db = db.clone();
                s.spawn(move || {
                    db.txn()
                        .run(|tx| tx.insert_pairs("items", &[("n", Datum::Int(n as i64))]))
                        .unwrap();
                });
            }
            assert!(
                eventually(|| db.stats().snapshot().diff(&before).wal_appends == N),
                "all {N} committers on one table must enqueue while the flush is stalled"
            );
        });
    });
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.commits, d.wal_appends), (N, N));
    assert_eq!(d.group_commit_batches, d.wal_flushes);
    assert!(
        d.wal_flushes <= 2 && d.wal_flushes < d.wal_appends,
        "{N} appends behind one stalled flush took {} flushes",
        d.wal_flushes
    );
    let mean_batch = d.wal_appends / d.group_commit_batches;
    assert!(mean_batch >= 2, "some batch held at least two records");
    drop(db);

    let (records, _) = feral_db::wal::read_log(&path).unwrap();
    let inserts: Vec<(u64, u64, i64)> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit { commit_ts, writes } => match writes.as_slice() {
                [WalWrite::Insert { row, tuple, .. }] => {
                    Some((*commit_ts, *row, tuple[1].as_int().unwrap()))
                }
                other => panic!("single-insert commits only, got {other:?}"),
            },
            _ => None,
        })
        .collect();
    assert_eq!(inserts.len() as u64, N);
    for (i, pair) in inserts.windows(2).enumerate() {
        assert!(pair[0].0 < pair[1].0, "log order = timestamp order at {i}");
    }
    let rows: Vec<u64> = inserts.iter().map(|(_, row, _)| *row).collect();
    assert_eq!(rows, (0..N).collect::<Vec<_>>(), "log order = row-id order");
    // replay verifies each logged row id against the heap position it gets
    let db = open(&path);
    let mut tx = db.txn().begin();
    let logged: Vec<i64> = inserts.iter().map(|(_, _, n)| *n).collect();
    assert_eq!(values(&mut tx, &Predicate::True), logged);
}

/// Vacuum against installed-but-unpublished commits, with an old
/// snapshot pinned. Vacuum latches every shard, which excludes installs
/// but not commits that are waiting for their flush — so it runs
/// *while* three updates and a delete sit in the heap above the clock. Nothing the pinned snapshot (or a fresh one) needs
/// may be reclaimed, and no index posting may be swept early: the old
/// keys must stay reachable through the index until the old snapshot is
/// gone and the commits are published.
#[test]
fn vacuum_spares_what_unpublished_commits_supersede() {
    let path = wal_path("vacuum");
    let db = open(&path);
    items_table(&db);
    db.create_index("items", &["n"], false).unwrap();
    db.txn()
        .run(|tx| {
            for n in 0..4 {
                tx.insert_pairs("items", &[("n", Datum::Int(n))])?;
            }
            Ok(())
        })
        .unwrap();
    let mut pinned = db.txn().isolation(IsolationLevel::Snapshot).begin();
    assert_eq!(values(&mut pinned, &Predicate::True), vec![0, 1, 2, 3]);

    // rows 0..=2 move to key n+100, row 3 is deleted — four concurrent
    // transactions on one table, each on its own row
    let rewrite = |db: &Database, n: i64| {
        db.txn()
            .run(|tx| {
                let (rref, tuple) = tx.scan("items", &Predicate::eq(1, n))?.remove(0);
                if n == 3 {
                    return tx.delete("items", rref);
                }
                let mut next = tuple.to_vec();
                next[1] = Datum::Int(n + 100);
                tx.update("items", rref, next)
            })
            .unwrap();
    };
    let before = db.stats().snapshot();
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            for n in 0..4 {
                let db = db.clone();
                s.spawn(move || rewrite(&db, n));
            }
            assert!(eventually(|| db
                .stats()
                .snapshot()
                .diff(&before)
                .wal_appends
                == 4));
            // all four are installed, none is published
            let probes = db.stats().snapshot().index_probes;
            for _ in 0..3 {
                assert_eq!(db.vacuum(), 0, "nothing is reclaimable yet");
                let mut fresh = db.txn().begin();
                for view in [&mut pinned, &mut fresh] {
                    assert_eq!(values(view, &Predicate::True), vec![0, 1, 2, 3]);
                    for n in 0..4 {
                        // through the index: the old-key postings survive
                        assert_eq!(values(view, &Predicate::eq(1, n)), vec![n]);
                        assert!(values(view, &Predicate::eq(1, n + 100)).is_empty());
                    }
                }
            }
            assert!(
                db.stats().snapshot().index_probes > probes,
                "the equality scans above went through the index"
            );
        });
    });
    // published: a fresh snapshot moves on, the pinned one does not —
    // however often vacuum runs under it
    for _ in 0..3 {
        assert_eq!(
            db.vacuum(),
            0,
            "the pinned snapshot still needs every version"
        );
        assert_eq!(values(&mut pinned, &Predicate::True), vec![0, 1, 2, 3]);
        for n in 0..4 {
            assert_eq!(values(&mut pinned, &Predicate::eq(1, n)), vec![n]);
        }
        let mut fresh = db.txn().begin();
        assert_eq!(values(&mut fresh, &Predicate::True), vec![100, 101, 102]);
    }
    drop(pinned);
    assert_eq!(db.vacuum(), 3, "the three superseded versions go");
    let mut fresh = db.txn().begin();
    assert_eq!(values(&mut fresh, &Predicate::True), vec![100, 101, 102]);
    for n in 0..4 {
        assert!(values(&mut fresh, &Predicate::eq(1, n)).is_empty());
    }
}

/// The same property without the stall: vacuum loops against a stream
/// of durable updates on one table while a pinned snapshot re-reads it.
/// Whatever the interleaving of install, flush, publish and sweep, the
/// pinned view never changes and the final state has every update.
#[test]
fn vacuum_loop_against_inflight_commits_keeps_a_pinned_snapshot_stable() {
    const WRITERS: i64 = 3;
    const ROUNDS: i64 = 40;
    let path = wal_path("vacuum-loop");
    let db = open(&path);
    items_table(&db);
    db.create_index("items", &["n"], false).unwrap();
    db.txn()
        .run(|tx| {
            for w in 0..WRITERS {
                tx.insert_pairs("items", &[("n", Datum::Int(w * 1000))])?;
            }
            Ok(())
        })
        .unwrap();
    let mut pinned = db.txn().isolation(IsolationLevel::Snapshot).begin();
    let original: Vec<i64> = (0..WRITERS).map(|w| w * 1000).collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let vacuum = s.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                db.vacuum();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = db.clone();
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let from = w * 1000 + r;
                        db.txn()
                            .run(|tx| {
                                let (rref, tuple) =
                                    tx.scan("items", &Predicate::eq(1, from))?.remove(0);
                                let mut next = tuple.to_vec();
                                next[1] = Datum::Int(from + 1);
                                tx.update("items", rref, next)
                            })
                            .unwrap();
                    }
                })
            })
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            assert_eq!(values(&mut pinned, &Predicate::True), original);
            for &n in &original {
                assert_eq!(values(&mut pinned, &Predicate::eq(1, n)), vec![n]);
            }
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        vacuum.join().unwrap();
    });
    assert_eq!(values(&mut pinned, &Predicate::True), original);
    let mut fresh = db.txn().begin();
    let moved: Vec<i64> = original.iter().map(|n| n + ROUNDS).collect();
    assert_eq!(values(&mut fresh, &Predicate::True), moved);
}

/// ONE thread commits eight times into one table before anything is
/// flushed: the batch is no longer capped by the number of threads
/// parked in the durable wait. All eight land in one flush, and each is
/// acknowledged — in timestamp order — only once its row is visible and
/// its record is in the log.
#[test]
fn one_thread_fills_a_batch_with_deferred_commits() {
    const N: i64 = 8;
    let path = wal_path("deferred-batch");
    let db = open(&path);
    items_table(&db);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let before = db.stats().snapshot();
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            s.spawn(|| {
                let pending: Vec<PendingCommit> = (0..N).map(|n| insert_deferred(&db, n)).collect();
                // the first to register finds no flush in flight and leads
                // it — parked on the stalled writer with all eight taken
                for (n, pending) in (0..N).zip(pending) {
                    ack_into(pending, n, &db, &path, &fired);
                }
            });
            assert!(eventually(|| db.wal_flush_in_flight()));
            let d = db.stats().snapshot().diff(&before);
            assert_eq!((d.wal_appends, d.wal_flushes, d.commits), (N as u64, 0, 0));
            let mut tx = db.txn().begin();
            assert!(values(&mut tx, &Predicate::True).is_empty(), "not yet");
            assert!(fired.lock().unwrap().is_empty());
        });
    });
    let d = db.stats().snapshot().diff(&before);
    assert_eq!(
        (d.wal_appends, d.wal_flushes, d.group_commit_batches),
        (N as u64, 1, 1),
        "one thread, eight commits, one flush"
    );
    assert_eq!(d.commits, N as u64);
    assert_eq!(*fired.lock().unwrap(), (0..N).collect::<Vec<_>>());
}

/// No tail is orphaned. A synchronous committer leads the first flush;
/// behind it queue three deferred commits, a second synchronous one and
/// three more deferred, with `group_commit_max_batch` 4. The second
/// flush satisfies every sleeper — and the leader still may not leave:
/// the last three records belong to tails nobody else will ever flush.
/// Every record is logged and every callback fires once, with no further
/// commit arriving, each after its row is visible and its record is in
/// the log (`ack_into` checks both as it runs). Callbacks run on whichever
/// thread completes their tail (`PendingCommit::on_complete`), so the two
/// flushes' tails may complete interleaved: their order is not part of
/// the contract, and is not asserted.
#[test]
fn the_leader_drains_what_nobody_else_will_flush() {
    let path = wal_path("no-orphan");
    let db = open_with(
        &path,
        Config {
            group_commit_max_batch: 4,
            ..Config::default()
        },
    );
    items_table(&db);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let before = db.stats().snapshot();
    let appended = |n: u64| eventually(|| db.stats().snapshot().diff(&before).wal_appends == n);
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            s.spawn(|| insert(&db, 100).unwrap());
            // the leader has taken its batch of one and is on the writer
            assert!(eventually(|| db.wal_flush_in_flight()));
            for n in 0..3 {
                ack_into(insert_deferred(&db, n), n, &db, &path, &fired);
            }
            s.spawn(|| insert(&db, 101).unwrap());
            assert!(appended(5));
            for n in 3..6 {
                ack_into(insert_deferred(&db, n), n, &db, &path, &fired);
            }
            assert!(fired.lock().unwrap().is_empty());
            assert_eq!(db.stats().snapshot().diff(&before).wal_flushes, 0);
        });
    });
    // both synchronous committers are back; nothing else will commit
    assert!(eventually(|| fired.lock().unwrap().len() == 6));
    let mut fired = fired.lock().unwrap().clone();
    fired.sort_unstable();
    assert_eq!(fired, (0..6).collect::<Vec<_>>(), "each callback once");
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.wal_appends, d.commits), (8, 8));
    assert_eq!(d.wal_flushes, 3, "batches of 1, 4 and 3");
    assert!(!db.wal_flush_in_flight());
    let mut logged = in_a_copy_of_the_log(&path);
    logged.sort_unstable();
    assert_eq!(logged, vec![0, 1, 2, 3, 4, 5, 100, 101]);
}

/// A parker may decline the lead. The first deferred commit to find no
/// flush in flight gets the flush loop back as a `FlushLead`; while the
/// lead is held nothing is flushed and nobody else leads — later parkers
/// join it and are handed nothing — and merely *dropping* it flushes the
/// log and completes every parked tail, so a lead cannot be lost. (A
/// `Drop` that does not lead fails here, not by hanging: only deferred
/// commits wait on this lead.)
#[test]
fn a_declined_lead_that_is_dropped_still_flushes_every_parked_tail() {
    const N: i64 = 4;
    let path = wal_path("declined-lead");
    let db = open(&path);
    items_table(&db);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let before = db.stats().snapshot();
    let lead = ack_into(insert_deferred(&db, 0), 0, &db, &path, &fired)
        .expect("no flush in flight: the parker is handed the lead");
    assert!(db.wal_flush_in_flight(), "the claim is made at hand-over");
    for n in 1..N {
        let joined = ack_into(insert_deferred(&db, n), n, &db, &path, &fired);
        assert!(joined.is_none(), "one lead at a time");
    }
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.wal_appends, d.wal_flushes, d.commits), (N as u64, 0, 0));
    assert!(fired.lock().unwrap().is_empty());
    drop(lead);
    assert_eq!(*fired.lock().unwrap(), (0..N).collect::<Vec<_>>());
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.wal_flushes, d.commits), (1, N as u64));
    assert!(!db.wal_flush_in_flight());
    // the next parker leads again
    assert!(ack_into(insert_deferred(&db, N), N, &db, &path, &fired).is_some());
    assert_eq!(fired.lock().unwrap().len() as i64, N + 1);
}

/// No tail is left behind `flushing == false` when the leads are run by
/// a thread that parks nothing. Four threads park deferred commits as
/// fast as they can and pass every lead they are handed to one runner;
/// whenever the runner is between leads, a parker finds no flush in
/// flight and is handed the next. Once the parkers are done and the
/// runner has run what it was given, every callback has fired — with no
/// further commit to rescue a stranded tail — and no flush is in flight.
#[test]
fn no_tail_is_left_behind_when_leads_run_on_a_thread_that_parks_nothing() {
    const THREADS: i64 = 4;
    const EACH: i64 = 300;
    let path = wal_path("leads-elsewhere");
    let db = open_with(
        &path,
        Config {
            wal_sync: false,
            ..Config::default()
        },
    );
    items_table(&db);
    let fired = Arc::new(Mutex::new(Vec::new()));
    let (leads, handed) = std::sync::mpsc::channel::<FlushLead>();
    let ran = std::thread::scope(|s| {
        let runner = s.spawn(move || handed.into_iter().map(FlushLead::run).count());
        let parkers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (db, fired, leads) = (&db, fired.clone(), leads.clone());
                s.spawn(move || {
                    for n in t * EACH..(t + 1) * EACH {
                        let fired = fired.clone();
                        let lead = insert_deferred(db, n).on_complete(move |durable| {
                            durable.unwrap();
                            fired.lock().unwrap().push(n);
                        });
                        if let Some(lead) = lead {
                            leads.send(lead).unwrap();
                        }
                    }
                })
            })
            .collect();
        parkers.into_iter().for_each(|p| p.join().unwrap());
        drop(leads);
        runner.join().unwrap()
    });
    assert!(ran > 0, "some parker found no flush in flight");
    assert!(!db.wal_flush_in_flight());
    let mut fired = fired.lock().unwrap().clone();
    fired.sort_unstable();
    assert_eq!(fired, (0..THREADS * EACH).collect::<Vec<_>>());
    let d = db.stats().snapshot();
    assert_eq!(d.wal_flushes, d.group_commit_batches);
}

/// The active-snapshot registry is striped by the *beginning* thread, and
/// a deferred tail completes on whichever thread advances the clock over
/// it. A transaction begun on one thread and completed on another must
/// still leave its own stripe: otherwise its snapshot pins the vacuum
/// horizon for good. The update below supersedes one version; with no
/// registration left the horizon is the clock and vacuum reclaims it.
#[test]
fn a_tail_completed_on_another_thread_leaves_no_registration() {
    let path = wal_path("cross-thread-tail");
    let db = open(&path);
    items_table(&db);
    insert(&db, 1).unwrap();
    let threads = Arc::new(Mutex::new(None));
    std::thread::scope(|s| {
        db.with_wal_stalled(|| {
            // a synchronous committer leads the stalled flush ...
            s.spawn(|| insert(&db, 100).unwrap());
            assert!(eventually(|| db.wal_flush_in_flight()));
            // ... and owns the tail this thread begins, commits and parks
            s.spawn(|| {
                let began_on = std::thread::current().id();
                let (updated, pending) = defer_durable(|| {
                    db.txn().run(|tx| {
                        let rows = tx.scan("items", &Predicate::eq(1, 1i64))?;
                        tx.update("items", rows[0].0, vec![Datum::Null, Datum::Int(2)])
                    })
                });
                updated.unwrap();
                let threads = threads.clone();
                pending.unwrap().on_complete(move |durable| {
                    durable.unwrap();
                    *threads.lock().unwrap() = Some((began_on, std::thread::current().id()));
                });
            })
            .join()
            .unwrap();
            assert!(threads.lock().unwrap().is_none(), "parked, not completed");
        });
    });
    let (began_on, completed_on) = threads.lock().unwrap().expect("the tail was completed");
    assert_ne!(
        began_on, completed_on,
        "the flush leader completed the tail"
    );
    let mut tx = db.txn().begin();
    assert_eq!(values(&mut tx, &Predicate::True), vec![2, 100]);
    tx.commit().unwrap();
    assert_eq!(db.vacuum(), 1, "no snapshot is left to pin the old version");
}

/// Code inside the scope sees its own commits: beginning a second
/// transaction settles the pending one first, so it reads the first
/// one's row and takes the same row lock without waiting on itself.
#[test]
fn a_second_transaction_in_the_scope_settles_the_first() {
    let path = wal_path("scope-settles");
    let db = open_with(
        &path,
        Config {
            lock_timeout: std::time::Duration::from_millis(200),
            ..Config::default()
        },
    );
    items_table(&db);
    let before = db.stats().snapshot();
    let (seen, pending) = defer_durable(|| {
        insert(&db, 1).unwrap();
        assert_eq!(db.stats().snapshot().diff(&before).commits, 0, "parked");
        db.txn()
            .run(|tx| {
                let mut rows = tx.select_for_update("items", &Predicate::True)?;
                let (rref, tuple) = rows.remove(0);
                let mut next = tuple.to_vec();
                next[1] = Datum::Int(2);
                tx.update("items", rref, next)?;
                Ok(tuple[1].as_int().unwrap())
            })
            .unwrap()
    });
    assert_eq!(seen, 1, "the second transaction read the first one's row");
    let d = db.stats().snapshot().diff(&before);
    assert_eq!((d.commits, d.lock_timeouts), (1, 0));
    pending
        .expect("the update is the one left pending")
        .wait()
        .unwrap();
    assert_eq!(db.stats().snapshot().diff(&before).commits, 2);
    let mut tx = db.txn().begin();
    assert_eq!(values(&mut tx, &Predicate::True), vec![2]);
}

/// Under a `feral_hooks` scheduler commits are turn-atomic, so the scope
/// defers nothing: the commit is complete when `commit` returns.
#[test]
fn the_scope_is_inert_under_a_schedule_hook() {
    struct PassThrough;
    impl feral_hooks::ScheduleHook for PassThrough {
        fn yield_point(&self, _: usize, _: feral_hooks::Site) {}
        fn wait(&self, _: usize, _: feral_hooks::WaitKind) -> feral_hooks::WaitOutcome {
            feral_hooks::WaitOutcome::Proceed
        }
        fn progress(&self) {}
        fn worker_finished(&self, _: usize) {}
    }
    let path = wal_path("hooked");
    let db = open(&path);
    items_table(&db);
    let _worker = feral_hooks::Registration::new(Arc::new(PassThrough), 0).activate();
    let (inserted, pending) = defer_durable(|| insert(&db, 1));
    inserted.unwrap();
    assert!(pending.is_none());
    assert_eq!(db.stats().snapshot().commits, 1);
    assert_eq!(in_a_copy_of_the_log(&path), vec![1]);
}
