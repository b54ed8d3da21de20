//! Group-commit crash recovery: injected torn writes mid-batch, exact
//! complete-record-prefix replay (no torn or phantom commits), the
//! poisoned-log contract after a failed flush (the clock freezes at the
//! last durable commit), and "visible ⇒ durable" under concurrent
//! committers on one table.

use feral_db::{
    defer_durable, ColumnDef, Config, DataType, Database, Datum, DbError, DbResult, IsolationLevel,
    OnDelete, PendingCommit, Predicate, RowRef, TableSchema, Transaction,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::{eventually, logged_values};

fn wal_path(name: &str) -> std::path::PathBuf {
    common::wal_path("group-commit", name)
}

fn config(path: &std::path::Path) -> Config {
    Config {
        wal_path: Some(path.to_path_buf()),
        ..Config::default()
    }
}

fn items_schema() -> TableSchema {
    TableSchema::new("items", vec![ColumnDef::new("n", DataType::Int)])
}

fn insert_one(db: &Database, n: i64) -> Result<(), feral_db::DbError> {
    db.txn().run(|tx| {
        tx.insert_pairs("items", &[("n", Datum::Int(n))])?;
        Ok(())
    })
}

/// The `n` of every visible `items` row, in heap (row-id) order; empty
/// when the table does not exist — a cut before the DDL record recovers
/// a database without the table at all, the empty prefix.
fn visible_values(db: &Database) -> Vec<i64> {
    let mut tx = db.txn().begin();
    let Ok(rows) = tx.scan("items", &Predicate::True) else {
        return Vec::new();
    };
    rows.iter().map(|(_, t)| t[1].as_int().unwrap()).collect()
}

/// Recover `path` (replay verifies every logged insert row id) and read
/// `items` back in heap order.
fn recovered_in_heap_order(path: &std::path::Path) -> Vec<i64> {
    visible_values(&Database::open(config(path)).unwrap())
}

fn recovered_values(path: &std::path::Path) -> Vec<i64> {
    let mut vals = recovered_in_heap_order(path);
    vals.sort_unstable();
    vals
}

/// A torn write mid-record must recover exactly the acked prefix — no
/// torn commit, no phantom commit — at every isolation level.
#[test]
fn torn_tail_recovers_acked_prefix_at_every_isolation() {
    for (i, iso) in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ]
    .into_iter()
    .enumerate()
    {
        let path = wal_path(&format!("torn-{i}"));
        {
            let db = Database::open(Config {
                default_isolation: iso,
                ..config(&path)
            })
            .unwrap();
            db.create_table(items_schema()).unwrap();
            insert_one(&db, 1).unwrap();
            insert_one(&db, 2).unwrap();
            // the next record tears after 5 bytes (not even its length
            // header survives intact)
            db.set_wal_fail_after(Some(5));
            let err = insert_one(&db, 3).unwrap_err();
            assert!(
                err.to_string().contains("injected torn write"),
                "unexpected error under {iso}: {err}"
            );
        }
        assert_eq!(
            recovered_values(&path),
            vec![1, 2],
            "recovery under {iso} must replay exactly the acked commits"
        );
        // the recovered database accepts new commits
        let db = Database::open(config(&path)).unwrap();
        insert_one(&db, 4).unwrap();
        drop(db);
        assert_eq!(recovered_values(&path), vec![1, 2, 4]);
    }
}

/// The fault budget spans flushes: a record that fits commits fine, the
/// first record that exceeds the remaining budget tears.
#[test]
fn fail_budget_spans_multiple_flushes() {
    let path = wal_path("budget");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(items_schema()).unwrap();
        insert_one(&db, 1).unwrap();
        let after_one = std::fs::metadata(&path).unwrap().len();
        insert_one(&db, 2).unwrap();
        let frame = std::fs::metadata(&path).unwrap().len() - after_one;
        assert!(frame > 12, "a commit frame has a header and checksum");
        // room for exactly one more frame plus a few torn bytes
        db.set_wal_fail_after(Some(frame + 3));
        insert_one(&db, 3).unwrap();
        insert_one(&db, 4).unwrap_err();
    }
    assert_eq!(recovered_values(&path), vec![1, 2, 3]);
}

/// Column `col` of every row of `table` a fresh transaction sees.
fn column(db: &Database, table: &str, col: usize) -> Vec<i64> {
    let mut tx = db.txn().begin();
    let rows = tx.scan(table, &Predicate::True).unwrap();
    rows.iter().map(|(_, t)| t[col].as_int().unwrap()).collect()
}

/// The committed row of `items` whose `n` is `n`.
fn item(tx: &mut Transaction, n: i64) -> RowRef {
    tx.scan("items", &Predicate::eq(1, n)).unwrap().remove(0).0
}

/// A declined lead (`FlushLead`) run on a thread that parked nothing,
/// whose flush fails. The leader is answerable for every tail parked
/// behind its claim whoever parked it: each callback hears the poison
/// error exactly once — from the runner's thread — a synchronous
/// committer asleep behind the claim wakes with it too, no flush is left
/// in flight, and nothing of the failed batch is visible or recovered.
#[test]
fn a_lead_run_elsewhere_completes_every_tail_once_when_the_flush_fails() {
    const PARKED: i64 = 3;
    let path = wal_path("lead-elsewhere-fails");
    let db = Database::open(config(&path)).unwrap();
    db.create_table(items_schema()).unwrap();
    insert_one(&db, 1).unwrap();
    type Acks = Mutex<Vec<(i64, std::thread::ThreadId, DbResult<()>)>>;
    let acks: Arc<Acks> = Arc::default();
    db.set_wal_fail_after(Some(5));
    let before = db.stats().snapshot();
    let mut lead = None;
    for n in 10..10 + PARKED {
        let (committed, pending) = defer_durable(|| insert_one(&db, n));
        committed.unwrap();
        let acks = acks.clone();
        let handed = pending.expect("deferred").on_complete(move |durable| {
            let on = std::thread::current().id();
            acks.lock().unwrap().push((n, on, durable));
        });
        assert_eq!(handed.is_some(), n == 10, "the first parker, and only it");
        lead = lead.or(handed);
    }
    let (runner, sleeper) = std::thread::scope(|s| {
        let sleeper = s.spawn(|| insert_one(&db, 20));
        assert!(eventually(|| {
            db.stats().snapshot().diff(&before).wal_appends == PARKED as u64 + 1
        }));
        assert!(acks.lock().unwrap().is_empty() && db.wal_flush_in_flight());
        let lead = lead.take().unwrap();
        let runner = s
            .spawn(move || {
                lead.run();
                std::thread::current().id()
            })
            .join()
            .unwrap();
        (runner, sleeper.join().unwrap())
    });
    let err = sleeper.unwrap_err().to_string();
    assert!(
        err.contains("torn write") || err.contains("poisoned"),
        "{err}"
    );
    assert!(!db.wal_flush_in_flight());
    let acks = acks.lock().unwrap();
    let heard: Vec<i64> = acks.iter().map(|(n, ..)| *n).collect();
    assert_eq!(heard, (10..10 + PARKED).collect::<Vec<_>>(), "once each");
    for (n, on, durable) in acks.iter() {
        assert_eq!(*on, runner, "{n} was completed by the thread that led");
        let err = durable.clone().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "{n} got: {err}");
    }
    assert_eq!(db.stats().snapshot().diff(&before).commits, 0);
    assert_eq!(visible_values(&db), vec![1]);
    let err = insert_one(&db, 99).unwrap_err().to_string();
    assert!(err.contains("poisoned"), "got: {err}");
    drop(db);
    assert_eq!(recovered_values(&path), vec![1]);
}

/// A failed flush poisons the log and freezes the clock, here with
/// several committers on ONE table parked on the flush that fails. They
/// install their versions and drop the table's latch before the flush,
/// so when it fails those versions are already at the head of their row
/// chains: the clock must stay below them, and every read that looks
/// past a snapshot — `select_for_update`'s post-lock re-read, the write
/// paths' first-updater re-read, unique and foreign-key checks — must
/// stop at the clock too. With the writer stalled, nine committers
/// enqueue (inserts, an update, a delete, a parent insert, a parent
/// delete, a child insert; one leads, the rest follow or ride in its
/// batch — the outcome is the same) and the first write tears
/// mid-record. Then: every one gets the error and no reader at any
/// isolation level ever sees their writes, directly or through a
/// constraint verdict; later commits fail fast; reads keep working;
/// recovery yields the pre-poison prefix.
///
/// Beside them, commits whose durable wait was deferred
/// (`defer_durable`) are parked on the same flush — two inserts, an
/// update, a parent delete — and one more is stamped but registered only
/// after the failure. Nobody sleeps for those, so the failed flush itself
/// must settle them: each callback gets the poison error exactly once,
/// none fires `Ok`, and their locks are released (a later writer of the
/// same rows reaches "poisoned" at once, not a lock timeout).
#[test]
fn failed_flush_poisons_the_log() {
    type Committer = Box<dyn FnOnce(&Database) -> DbResult<()> + Send>;
    let path = wal_path("poison");
    let db = Database::open(config(&path)).unwrap();
    db.create_table(items_schema()).unwrap();
    db.create_index("items", &["n"], true).unwrap();
    db.create_table(TableSchema::new("parents", vec![]))
        .unwrap();
    db.create_table(TableSchema::new(
        "kids",
        vec![ColumnDef::new("parent_id", DataType::Int)],
    ))
    .unwrap();
    db.add_foreign_key("kids", "parent_id", "parents", OnDelete::Restrict)
        .unwrap();
    for n in 1..=3 {
        insert_one(&db, n).unwrap();
    }
    db.txn()
        .run(|tx| {
            tx.insert_pairs("parents", &[("id", Datum::Int(1))])?;
            tx.insert_pairs("parents", &[("id", Datum::Int(2))])?;
            tx.insert_pairs("parents", &[("id", Datum::Int(3))])?;
            Ok(())
        })
        .unwrap();
    // an old snapshot pinned across the failure
    let mut pinned = db.txn().isolation(IsolationLevel::Snapshot).begin();
    assert_eq!(pinned.count("items", &Predicate::True).unwrap(), 3);

    let mut parked: Vec<Committer> = (10..14)
        .map(|n| Box::new(move |db: &Database| insert_one(db, n)) as Committer)
        .collect();
    parked.push(Box::new(|db| {
        db.txn().run(|tx| {
            let row = item(tx, 2);
            tx.update("items", row, vec![Datum::Null, Datum::Int(20)])
        })
    }));
    parked.push(Box::new(|db| {
        db.txn().run(|tx| {
            let row = item(tx, 3);
            tx.delete("items", row)
        })
    }));
    parked.push(Box::new(|db| {
        db.txn().run(|tx| {
            tx.insert_pairs("parents", &[("id", Datum::Int(7))])
                .map(|_| ())
        })
    }));
    parked.push(Box::new(|db| {
        db.txn().run(|tx| {
            let (row, _) = tx.get_by_id("parents", 2)?.unwrap();
            tx.delete("parents", row)
        })
    }));
    parked.push(Box::new(|db| {
        db.txn().run(|tx| {
            tx.insert_pairs("kids", &[("parent_id", Datum::Int(1))])
                .map(|_| ())
        })
    }));
    let parked_count = parked.len() as u64;

    let deferred: Vec<(&str, Committer)> = vec![
        ("insert 30", Box::new(|db| insert_one(db, 30))),
        ("insert 31", Box::new(|db| insert_one(db, 31))),
        (
            "update 1 -> 21",
            Box::new(|db| {
                db.txn().run(|tx| {
                    let row = item(tx, 1);
                    tx.update("items", row, vec![Datum::Null, Datum::Int(21)])
                })
            }),
        ),
        (
            "delete parent 3",
            Box::new(|db| {
                db.txn().run(|tx| {
                    let (row, _) = tx.get_by_id("parents", 3)?.unwrap();
                    tx.delete("parents", row)
                })
            }),
        ),
    ];
    let deferred_count = deferred.len() as u64 + 1;
    type Acks = Mutex<Vec<(&'static str, DbResult<()>)>>;
    let acks: Arc<Acks> = Arc::default();
    let ack_into = |pending: PendingCommit, what: &'static str| {
        let acks = acks.clone();
        pending.on_complete(move |durable| acks.lock().unwrap().push((what, durable)));
    };

    db.set_wal_fail_after(Some(5));
    let before = db.stats().snapshot();
    let appended = |n: u64| eventually(|| db.stats().snapshot().diff(&before).wal_appends == n);
    let (errors, late): (Vec<String>, PendingCommit) = std::thread::scope(|s| {
        let (handles, late) = db.with_wal_stalled(|| {
            let handles: Vec<_> = parked
                .into_iter()
                .map(|commit| {
                    let db = db.clone();
                    s.spawn(move || commit(&db))
                })
                .collect();
            assert!(
                appended(parked_count),
                "committers must enqueue behind a stalled flush on their own table"
            );
            // one of them leads the flush; the deferred commits below join
            // it without a thread of their own
            assert!(eventually(|| db.wal_flush_in_flight()));
            for (what, commit) in deferred {
                let (committed, pending) = defer_durable(|| commit(&db));
                committed.unwrap();
                ack_into(pending.expect("deferred"), what);
            }
            let (committed, late) = defer_durable(|| insert_one(&db, 32));
            committed.unwrap();
            assert!(appended(parked_count + deferred_count));
            assert!(acks.lock().unwrap().is_empty());
            // installed, not durable, not published: invisible right now
            assert_eq!(visible_values(&db), vec![1, 2, 3]);
            (handles, late.expect("deferred"))
        });
        let errors = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap_err().to_string())
            .collect();
        (errors, late)
    });
    // the failed flush settled every parked tail before its leader returned
    assert_eq!(acks.lock().unwrap().len() as u64, deferred_count - 1);
    // registered after the poison: settled on the spot
    ack_into(late, "insert 32");
    let mut acked: Vec<&str> = Vec::new();
    for (what, durable) in acks.lock().unwrap().iter() {
        let err = durable.clone().expect_err(what).to_string();
        assert!(err.contains("poisoned"), "{what} got: {err}");
        acked.push(what);
    }
    acked.sort_unstable();
    assert_eq!(
        acked,
        [
            "delete parent 3",
            "insert 30",
            "insert 31",
            "insert 32",
            "update 1 -> 21"
        ],
        "every deferred commit hears of the failure exactly once"
    );
    for err in &errors {
        assert!(
            err.contains("torn write") || err.contains("poisoned"),
            "every parked committer must see the failed flush, got: {err}"
        );
    }
    assert_eq!(db.stats().snapshot().diff(&before).commits, 0);
    // later commits fail fast
    let err = insert_one(&db, 99).unwrap_err().to_string();
    assert!(err.contains("poisoned"), "got: {err}");
    // reads keep working at the frozen clock, at every isolation level,
    // and never observe a write of the failed flush
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ] {
        let begin = || db.txn().isolation(iso).begin();
        let values = |rows: Vec<(RowRef, std::sync::Arc<feral_db::Tuple>)>| -> Vec<i64> {
            rows.iter().map(|(_, t)| t[1].as_int().unwrap()).collect()
        };
        let mut tx = begin();
        let scanned = values(tx.scan("items", &Predicate::True).unwrap());
        assert_eq!(scanned, vec![1, 2, 3], "scan under {iso}");
        for n in [10, 11, 12, 13, 20, 21, 30, 31, 32] {
            assert_eq!(tx.count("items", &Predicate::eq(1, n)).unwrap(), 0);
        }
        // the post-lock re-read returns the old images: the update to 20
        // and the delete of 3 were reported failed
        let locked = values(tx.select_for_update("items", &Predicate::True).unwrap());
        assert_eq!(locked, vec![1, 2, 3], "select_for_update under {iso}");
        drop(tx);

        // write paths re-read the old images too: no phantom value, no
        // conflict with a commit that never happened
        let mut tx = begin();
        let row = item(&mut tx, 2);
        tx.update_with("items", row, |t| {
            assert_eq!(t[1], Datum::Int(2), "update_with under {iso}");
            t.clone()
        })
        .unwrap();
        let row = item(&mut tx, 3);
        tx.delete("items", row).unwrap();
        // row 1 was locked by a deferred update: the failed flush let go
        let asked = Instant::now();
        let row = item(&mut tx, 1);
        tx.delete("items", row).unwrap();
        assert!(asked.elapsed() < Duration::from_secs(1), "no lock wait");
        let err = tx.commit().unwrap_err().to_string();
        assert!(err.contains("poisoned"), "under {iso} got: {err}");

        // unique verdicts: 2 and 3 are still taken (their update and
        // delete failed), 20 and 10 are free (so were those inserts)
        let insert = |table: &str, col: &str, v: i64| {
            let mut tx = begin();
            tx.insert_pairs(table, &[(col, Datum::Int(v))]).map(|_| ())
        };
        for taken in [1, 2, 3] {
            let verdict = insert("items", "n", taken);
            assert!(
                matches!(verdict, Err(DbError::UniqueViolation { .. })),
                "n={taken} under {iso}: {verdict:?}"
            );
        }
        for free in [20, 10, 21, 30, 32] {
            insert("items", "n", free).unwrap();
        }
        // foreign-key verdicts: parent 7 was never inserted, parents 2
        // and 3 never deleted, and no child row pins parent 1
        let verdict = insert("kids", "parent_id", 7);
        assert!(
            matches!(verdict, Err(DbError::ForeignKeyViolation { .. })),
            "parent 7 under {iso}: {verdict:?}"
        );
        insert("kids", "parent_id", 2).unwrap();
        insert("kids", "parent_id", 3).unwrap();
        let mut tx = begin();
        let (row, _) = tx.get_by_id("parents", 1).unwrap().unwrap();
        tx.delete("parents", row).unwrap();
    }
    assert_eq!(db.count_rows("items").unwrap(), 3);
    assert_eq!(pinned.count("items", &Predicate::True).unwrap(), 3);
    // vacuum at the frozen clock changes nothing a reader can see
    drop(pinned);
    db.vacuum();
    assert_eq!(visible_values(&db), vec![1, 2, 3]);
    drop(db);
    let db = Database::open(config(&path)).unwrap();
    assert_eq!(visible_values(&db), vec![1, 2, 3]);
    assert_eq!(column(&db, "parents", 0), vec![1, 2, 3]);
    assert_eq!(column(&db, "kids", 0), Vec::<i64>::new());
}

/// Physical truncation sweep: chopping the log at every byte boundary
/// recovers a clean commit prefix — never a partial transaction.
#[test]
fn truncation_at_any_byte_recovers_a_prefix() {
    let path = wal_path("sweep");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(items_schema()).unwrap();
        for n in 1..=4 {
            insert_one(&db, n).unwrap();
        }
    }
    let full = std::fs::read(&path).unwrap();
    let copy = wal_path("sweep-copy");
    let mut seen_lens = std::collections::BTreeSet::new();
    // step through tail offsets covering every record boundary region
    for cut in (0..=full.len()).rev().step_by(7).chain([full.len()]) {
        std::fs::write(&copy, &full[..cut]).unwrap();
        let vals = recovered_values(&copy);
        // whatever survives is a prefix 1..=k
        let k = vals.len() as i64;
        assert!(k <= 4);
        assert_eq!(vals, (1..=k).collect::<Vec<_>>(), "cut at {cut} bytes");
        seen_lens.insert(k);
    }
    assert!(
        seen_lens.contains(&4) && seen_lens.contains(&0),
        "sweep covered both the full log and the empty log: {seen_lens:?}"
    );
}

/// Spawn `threads` committers, each inserting `per_thread` distinct
/// values into the one `items` table through a synced WAL.
fn commit_concurrently(db: &Database, threads: i64, per_thread: i64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    insert_one(&db, t * 1000 + i).unwrap();
                }
            });
        }
    });
}

/// The truncation sweep again, over a log written by concurrent
/// committers on ONE table (multi-record batches, row ids assigned under
/// the table's latch but flushed outside it). Every cut must replay —
/// redo's row-id verification never trips — to exactly the log-order
/// prefix, in heap order: log order = row-id order.
#[test]
fn truncation_of_a_concurrent_one_table_log_recovers_a_prefix() {
    let path = wal_path("sweep-concurrent");
    {
        let db = Database::open(Config {
            wal_sync: true,
            ..config(&path)
        })
        .unwrap();
        db.create_table(items_schema()).unwrap();
        commit_concurrently(&db, 4, 12);
    }
    let order = logged_values(&path);
    assert_eq!(order.len(), 48);
    let full = std::fs::read(&path).unwrap();
    let copy = wal_path("sweep-concurrent-copy");
    let mut seen_lens = std::collections::BTreeSet::new();
    for cut in (0..=full.len()).rev().step_by(7).chain([full.len()]) {
        std::fs::write(&copy, &full[..cut]).unwrap();
        let vals = recovered_in_heap_order(&copy);
        assert_eq!(vals, order[..vals.len()], "cut at {cut} bytes");
        seen_lens.insert(vals.len());
    }
    assert_eq!(
        seen_lens.len(),
        order.len() + 1,
        "a 7-byte step lands inside every record: every prefix length recovered"
    );
}

/// Visible ⇒ durable. Versions are installed before their record is
/// flushed, so the only thing keeping an undurable row out of a reader's
/// sight is the publish order. A reader polls `items` while three
/// threads commit into it through a synced WAL; whenever new rows become
/// visible it copies the log as it is at that instant and recovers the
/// copy, which must contain every row the reader saw.
#[test]
fn a_visible_row_is_already_in_the_log() {
    const THREADS: i64 = 3;
    const PER_THREAD: i64 = 25;
    let path = wal_path("visible-durable");
    let copy = wal_path("visible-durable-copy");
    let db = Database::open(Config {
        wal_sync: true,
        ..config(&path)
    })
    .unwrap();
    db.create_table(items_schema()).unwrap();
    let done = AtomicBool::new(false);
    let checks = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut seen, mut checks) = (0, 0);
            loop {
                let finished = done.load(Ordering::SeqCst);
                let visible = visible_values(&db);
                if visible.len() > seen {
                    seen = visible.len();
                    checks += 1;
                    std::fs::copy(&path, &copy).unwrap();
                    let recovered = recovered_in_heap_order(&copy);
                    assert!(
                        recovered.len() >= visible.len()
                            && recovered[..visible.len()] == visible[..],
                        "visible rows {visible:?} missing from the log copy {recovered:?}"
                    );
                }
                if finished {
                    return checks;
                }
            }
        });
        commit_concurrently(&db, THREADS, PER_THREAD);
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    assert!(
        checks >= 2,
        "the reader raced the committers ({checks} checks)"
    );
    assert_eq!(visible_values(&db).len() as i64, THREADS * PER_THREAD);
}

/// With lingering group commit and commits on distinct shards, leader
/// flushes cover several commit records each. Runs several barrier-
/// synchronized rounds and asserts on the aggregate: the very first
/// leader may flush solo (the concurrency hint starts at 1), but once
/// any batch forms, later leaders linger and the rounds batch.
#[test]
fn group_commit_batches_concurrent_commits() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 10;
    let path = wal_path("batching");
    let db = Database::open(Config {
        commit_shards: 8,
        group_commit_max_batch: THREADS,
        group_commit_max_wait: Duration::from_millis(500),
        // a synced WAL gives each flush a real fsync window, so
        // barrier-released followers reliably enqueue while the leader
        // is in the kernel — the configuration group commit exists for
        wal_sync: true,
        ..config(&path)
    })
    .unwrap();
    // four tables on four distinct commit shards, so concurrent commits
    // only serialize at the group buffer
    for t in 0..THREADS {
        db.create_table(TableSchema::new(
            format!("t{t}"),
            vec![ColumnDef::new("n", DataType::Int)],
        ))
        .unwrap();
    }
    let before = db.stats().snapshot();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            let barrier = &barrier;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let mut tx = db.txn().begin();
                    tx.insert_pairs(&format!("t{t}"), &[("n", Datum::Int(r as i64))])
                        .unwrap();
                    // release each round's four commits together so the
                    // lingering leader has followers to collect
                    barrier.wait();
                    tx.commit().unwrap();
                }
            });
        }
    });
    let total = (THREADS * ROUNDS) as u64;
    let d = db.stats().snapshot().diff(&before);
    assert_eq!(d.commits, total);
    assert_eq!(d.wal_appends, total);
    assert_eq!(d.group_commit_batches, d.wal_flushes);
    assert!(
        d.wal_flushes < total,
        "{total} commits in {ROUNDS} concurrent rounds must share batches, \
         got {} flushes",
        d.wal_flushes
    );
    // every commit recovered
    drop(db);
    let db = Database::open(config(&path)).unwrap();
    let mut tx = db.txn().begin();
    for t in 0..THREADS {
        assert_eq!(
            tx.count(&format!("t{t}"), &Predicate::True).unwrap(),
            ROUNDS
        );
    }
}
