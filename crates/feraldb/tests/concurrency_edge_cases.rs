//! Engine edge cases under concurrency: deadlock resolution via lock
//! timeouts, statistics accounting, vacuum under concurrent readers, and
//! index maintenance across interleaved commits.

use feral_db::{
    ColumnDef, Config, DataType, Database, Datum, DbError, IsolationLevel, Predicate, TableSchema,
};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn kv_db(timeout_ms: u64) -> Database {
    let db = Database::new(Config {
        default_isolation: IsolationLevel::ReadCommitted,
        lock_timeout: Duration::from_millis(timeout_ms),
        ..Config::default()
    });
    db.create_table(TableSchema::new(
        "kv",
        vec![
            ColumnDef::new("k", DataType::Text),
            ColumnDef::new("v", DataType::Int),
        ],
    ))
    .unwrap();
    db
}

fn seed(db: &Database, n: i64) -> Vec<i64> {
    let mut tx = db.txn().begin();
    let mut ids = Vec::new();
    for i in 0..n {
        let r = tx
            .insert_pairs(
                "kv",
                &[("k", Datum::text(format!("k{i}"))), ("v", Datum::Int(0))],
            )
            .unwrap();
        ids.push(
            tx.read_ref(db.table_id("kv").unwrap(), r).unwrap()[0]
                .as_int()
                .unwrap(),
        );
    }
    tx.commit().unwrap();
    ids
}

#[test]
fn deadlock_is_broken_by_lock_timeout() {
    // T1 locks row A then wants B; T2 locks B then wants A. One of them
    // must abort with LockTimeout; the other can then finish.
    let db = kv_db(150);
    let ids = seed(&db, 2);
    let (a, b) = (ids[0], ids[1]);
    let barrier = Arc::new(Barrier::new(2));
    // T2 asks a third of a timeout later, so the two waits do not expire
    // together: T1 is the victim and T2 inherits its lock.
    let mk = |first: i64, second: i64, db: Database, barrier: Arc<Barrier>| {
        thread::spawn(move || -> Result<(), DbError> {
            let mut tx = db.txn().begin();
            let rows = tx.select_for_update("kv", &Predicate::eq(0, first))?;
            assert_eq!(rows.len(), 1);
            barrier.wait(); // both hold their first lock
            if first > second {
                thread::sleep(std::time::Duration::from_millis(50));
            }
            let rows = tx.select_for_update("kv", &Predicate::eq(0, second))?;
            assert_eq!(rows.len(), 1);
            tx.commit()
        })
    };
    let h1 = mk(a, b, db.clone(), barrier.clone());
    let h2 = mk(b, a, db.clone(), barrier);
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    let timeouts = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(DbError::LockTimeout { .. })))
        .count();
    assert!(timeouts >= 1, "expected a deadlock victim: {r1:?} / {r2:?}");
    assert!(
        r1.is_ok() || r2.is_ok(),
        "at least one transaction should have completed"
    );
    assert!(db.stats().snapshot().lock_timeouts >= 1);
}

#[test]
fn stats_counters_track_operations() {
    let db = kv_db(500);
    let before = db.stats().snapshot();
    let ids = seed(&db, 3);
    let mut tx = db.txn().begin();
    let rows = tx.scan("kv", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 3);
    let (rref, t) = tx.get_by_id("kv", ids[0]).unwrap().unwrap();
    let mut n = t.to_vec();
    n[2] = Datum::Int(9);
    tx.update("kv", rref, n).unwrap();
    let (rref, _) = tx.get_by_id("kv", ids[1]).unwrap().unwrap();
    tx.delete("kv", rref).unwrap();
    tx.commit().unwrap();
    let after = db.stats().snapshot().diff(&before);
    assert_eq!(after.inserts, 3);
    assert_eq!(after.updates, 1);
    assert_eq!(after.deletes, 1);
    assert_eq!(after.commits, 2);
    assert!(after.scans >= 3);
    // index probes happened for the id lookups (pkey index)
    assert!(after.index_probes >= 2);
}

#[test]
fn rolled_back_writes_never_reach_stats_commits() {
    let db = kv_db(500);
    let before = db.stats().snapshot();
    let mut tx = db.txn().begin();
    tx.insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
        .unwrap();
    tx.rollback();
    let after = db.stats().snapshot().diff(&before);
    assert_eq!(after.commits, 0);
    assert_eq!(after.aborts, 1);
    assert_eq!(db.count_rows("kv").unwrap(), 0);
}

#[test]
fn vacuum_is_safe_under_concurrent_readers_and_writers() {
    let db = kv_db(500);
    let ids = seed(&db, 4);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    // writers churn versions
    for &id in &ids {
        let db = db.clone();
        let stop = stop.clone();
        handles.push(thread::spawn(move || {
            let mut v = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut tx = db.txn().begin();
                if let Some((rref, t)) = tx.get_by_id("kv", id).unwrap() {
                    let mut n = t.to_vec();
                    v += 1;
                    n[2] = Datum::Int(v);
                    let _ = tx.update("kv", rref, n);
                    let _ = tx.commit();
                }
            }
        }));
    }
    // readers verify a stable row count while vacuum runs
    for _ in 0..2 {
        let db = db.clone();
        let stop = stop.clone();
        handles.push(thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut tx = db.txn().isolation(IsolationLevel::Snapshot).begin();
                let rows = tx.scan("kv", &Predicate::True).unwrap();
                assert_eq!(rows.len(), 4, "snapshot scan saw a torn state");
                tx.commit().unwrap();
            }
        }));
    }
    let mut reclaimed_total = 0usize;
    for _ in 0..20 {
        reclaimed_total += db.vacuum();
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        reclaimed_total > 0,
        "vacuum should reclaim superseded versions"
    );
    assert_eq!(db.count_rows("kv").unwrap(), 4);
}

#[test]
fn index_stays_consistent_across_interleaved_key_updates() {
    let db = kv_db(500);
    db.create_index("kv", &["k"], false).unwrap();
    let ids = seed(&db, 8);
    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for w in 0..4 {
        let db = db.clone();
        let ids = ids.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            for round in 0..25 {
                let id = ids[(w * 2 + round) % ids.len()];
                let mut tx = db.txn().begin();
                let result = (|| {
                    if let Some((rref, t)) = tx.get_by_id("kv", id)? {
                        let mut n = t.to_vec();
                        n[1] = Datum::text(format!("k{id}-{w}-{round}"));
                        tx.update("kv", rref, n)?;
                    }
                    Ok::<(), DbError>(())
                })();
                match result.and_then(|_| tx.commit()) {
                    Ok(()) | Err(DbError::WriteConflict) => {}
                    Err(DbError::LockTimeout { .. }) => {}
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // every row is findable through the index by its current key
    let mut tx = db.txn().begin();
    let all = tx.scan("kv", &Predicate::True).unwrap();
    assert_eq!(all.len(), 8);
    for (_, t) in all {
        let key = t[1].as_text().unwrap().to_string();
        let via_index = tx.scan("kv", &Predicate::eq(1, key.as_str())).unwrap();
        assert!(
            via_index.iter().any(|(_, u)| u[0] == t[0]),
            "row {} unreachable via index key {key}",
            t[0]
        );
    }
}

/// Serializable validation after 500 commits: it reads versions, not a
/// commit history, so a reader begun after them commits, and one that a
/// later insert overtook aborts.
#[test]
fn serializable_validation_after_many_commits() {
    let db = kv_db(500);
    seed(&db, 1);
    // run many committed writers with no long-lived snapshots
    for i in 0..500 {
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "kv",
            &[("k", Datum::text(format!("x{i}"))), ("v", Datum::Int(i))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    // a serializable txn still validates correctly afterwards
    let mut tx = db.txn().isolation(IsolationLevel::Serializable).begin();
    let n = tx.scan("kv", &Predicate::True).unwrap().len();
    assert_eq!(n, 501);
    tx.insert_pairs("kv", &[("k", Datum::text("final")), ("v", Datum::Int(-1))])
        .unwrap();
    tx.commit().unwrap();
    // a full-scan reader overtaken by an insert does not commit
    let mut tx = db.txn().isolation(IsolationLevel::Serializable).begin();
    assert_eq!(tx.scan("kv", &Predicate::True).unwrap().len(), 502);
    db.txn()
        .run(|tx| tx.insert_pairs("kv", &[("k", Datum::text("late")), ("v", Datum::Int(0))]))
        .unwrap();
    tx.insert_pairs("kv", &[("k", Datum::text("doomed")), ("v", Datum::Int(0))])
        .unwrap();
    assert!(matches!(
        tx.commit(),
        Err(DbError::SerializationFailure { .. })
    ));
}
