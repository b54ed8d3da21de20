//! Isolation-semantics tests: these encode the exact behaviours the paper's
//! analysis relies on (statement vs transaction snapshots, write conflicts,
//! serializable validation, and the PostgreSQL SSI bug compatibility mode).

use feral_db::{
    ColumnDef, Config, DataType, Database, Datum, DbError, IsolationLevel, Predicate, TableSchema,
};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn db_with(iso: IsolationLevel) -> Database {
    let db = Database::new(Config {
        default_isolation: iso,
        lock_timeout: Duration::from_millis(500),
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

fn put(db: &Database, k: &str, v: i64) -> i64 {
    let mut tx = db.txn().begin();
    let r = tx
        .insert_pairs("kv", &[("k", Datum::text(k)), ("v", Datum::Int(v))])
        .unwrap();
    let id = tx.read_ref(db.table_id("kv").unwrap(), r).unwrap()[0]
        .as_int()
        .unwrap();
    tx.commit().unwrap();
    id
}

fn get_v(db: &Database, iso: IsolationLevel, k: &str) -> Vec<i64> {
    let mut tx = db.txn().isolation(iso).begin();
    let rows = tx.scan("kv", &Predicate::eq(1, k)).unwrap();
    rows.iter().map(|(_, t)| t[2].as_int().unwrap()).collect()
}

#[test]
fn no_dirty_reads_at_any_level() {
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ] {
        let db = db_with(iso);
        let mut writer = db.txn().isolation(iso).begin();
        writer
            .insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
            .unwrap();
        // uncommitted write invisible to others
        assert!(get_v(&db, iso, "x").is_empty(), "dirty read at {iso}");
        writer.rollback();
        assert!(get_v(&db, iso, "x").is_empty());
    }
}

#[test]
fn read_committed_sees_new_commits_between_statements() {
    let db = db_with(IsolationLevel::ReadCommitted);
    let mut reader = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    assert!(reader.scan("kv", &Predicate::True).unwrap().is_empty());
    put(&db, "x", 1);
    // same transaction, new statement: RC sees the new commit
    assert_eq!(reader.scan("kv", &Predicate::True).unwrap().len(), 1);
    reader.commit().unwrap();
}

#[test]
fn repeatable_read_and_si_hold_their_snapshot() {
    for iso in [
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ] {
        let db = db_with(iso);
        put(&db, "pre", 0);
        let mut reader = db.txn().isolation(iso).begin();
        assert_eq!(reader.scan("kv", &Predicate::True).unwrap().len(), 1);
        put(&db, "x", 1);
        assert_eq!(
            reader.scan("kv", &Predicate::True).unwrap().len(),
            1,
            "snapshot broke at {iso}"
        );
        reader.commit().unwrap();
    }
}

#[test]
fn own_writes_visible_within_transaction() {
    let db = db_with(IsolationLevel::Snapshot);
    let mut tx = db.txn().begin();
    let r = tx
        .insert_pairs("kv", &[("k", Datum::text("me")), ("v", Datum::Int(7))])
        .unwrap();
    let rows = tx.scan("kv", &Predicate::eq(1, "me")).unwrap();
    assert_eq!(rows.len(), 1);
    // update own insert, then re-read
    let mut t = rows[0].1.to_vec();
    t[2] = Datum::Int(8);
    tx.update("kv", r, t).unwrap();
    let rows = tx.scan("kv", &Predicate::eq(1, "me")).unwrap();
    assert_eq!(rows[0].1[2], Datum::Int(8));
    // delete own insert: gone
    tx.delete("kv", r).unwrap();
    assert!(tx.scan("kv", &Predicate::eq(1, "me")).unwrap().is_empty());
    tx.commit().unwrap();
    assert_eq!(db.count_rows("kv").unwrap(), 0);
}

#[test]
fn si_first_updater_wins_aborts_second_writer() {
    let db = db_with(IsolationLevel::Snapshot);
    let id = put(&db, "x", 0);
    let mut t1 = db.txn().isolation(IsolationLevel::Snapshot).begin();
    let mut t2 = db.txn().isolation(IsolationLevel::Snapshot).begin();
    let (r1, tup1) = t1.get_by_id("kv", id).unwrap().unwrap();
    let mut new1 = tup1.to_vec();
    new1[2] = Datum::Int(1);
    t1.update("kv", r1, new1).unwrap();
    t1.commit().unwrap();
    // t2's snapshot predates t1's commit; its update must abort
    let (r2, tup2) = t2.get_by_id("kv", id).unwrap().unwrap();
    let mut new2 = tup2.to_vec();
    new2[2] = Datum::Int(2);
    let err = t2.update("kv", r2, new2).unwrap_err();
    assert_eq!(err, DbError::WriteConflict);
}

#[test]
fn read_committed_allows_lost_update_via_read_modify_write() {
    // The classic Lost Update the paper mentions for Spree's inventory:
    // two RC transactions read the same balance and both write back.
    let db = db_with(IsolationLevel::ReadCommitted);
    let id = put(&db, "stock", 10);
    let mut t1 = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    let mut t2 = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
    let (_, tup1) = t1.get_by_id("kv", id).unwrap().unwrap();
    let (_, tup2) = t2.get_by_id("kv", id).unwrap().unwrap();
    let v1 = tup1[2].as_int().unwrap();
    let v2 = tup2[2].as_int().unwrap();
    // t1 decrements and commits first
    let (r1, _) = t1.get_by_id("kv", id).unwrap().unwrap();
    let mut n1 = tup1.to_vec();
    n1[2] = Datum::Int(v1 - 1);
    t1.update("kv", r1, n1).unwrap();
    t1.commit().unwrap();
    // t2 also decrements from its stale read — RC permits it
    let (r2, _) = t2.get_by_id("kv", id).unwrap().unwrap();
    let mut n2 = tup2.to_vec();
    n2[2] = Datum::Int(v2 - 1);
    t2.update("kv", r2, n2).unwrap();
    t2.commit().unwrap();
    // one decrement was lost: 10 - 2 should be 8 but we observe 9
    assert_eq!(get_v(&db, IsolationLevel::ReadCommitted, "stock"), vec![9]);
}

#[test]
fn select_for_update_prevents_lost_update() {
    let db = db_with(IsolationLevel::ReadCommitted);
    let id = put(&db, "stock", 10);
    let db2 = db.clone();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let db = db2.clone();
        let b = barrier.clone();
        handles.push(thread::spawn(move || {
            b.wait();
            let mut tx = db.txn().isolation(IsolationLevel::ReadCommitted).begin();
            let rows = tx.select_for_update("kv", &Predicate::eq(0, id)).unwrap();
            let (r, t) = &rows[0];
            let mut n = t.to_vec();
            n[2] = Datum::Int(t[2].as_int().unwrap() - 1);
            tx.update("kv", *r, n).unwrap();
            tx.commit().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(get_v(&db, IsolationLevel::ReadCommitted, "stock"), vec![8]);
}

/// The live lock-rmw race: two threads, released together, each run 200
/// scan-then-update increments of one balance, yielding between the
/// read and the write so preemption can land in the stale-read window.
/// At the two levels the sdg matrix calls safe for this pair, every
/// acknowledged increment is in the final balance.
#[test]
fn safe_levels_lose_no_update_in_a_live_rmw_race() {
    const ROUNDS: usize = 200;
    for iso in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
        let db = db_with(iso);
        put(&db, "acct", 0);
        let acked = std::sync::atomic::AtomicU64::new(0);
        let start = std::sync::Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                let (db, acked, start) = (&db, &acked, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let result = db.txn().isolation(iso).retries(64).run(|tx| {
                            let rows = tx.scan("kv", &Predicate::eq(1, "acct"))?;
                            let (rref, tuple) = (rows[0].0, rows[0].1.to_vec());
                            let read = tuple[2].as_int().unwrap_or(0);
                            thread::yield_now();
                            let mut next = tuple;
                            next[2] = Datum::Int(read + 1);
                            tx.update("kv", rref, next)
                        });
                        if result.is_ok() {
                            acked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let acked = acked.into_inner() as i64;
        assert!(acked > 0, "{iso}: no increment committed");
        assert_eq!(
            get_v(&db, iso, "acct"),
            vec![acked],
            "{iso}: acknowledged increments lost"
        );
    }
}

#[test]
fn serializable_aborts_racing_uniqueness_probes() {
    // Two transactions each run the Rails uniqueness probe
    // (SELECT WHERE k='dup' LIMIT 1) and insert on absence. Under
    // Serializable exactly one must commit.
    let db = db_with(IsolationLevel::Serializable);
    let run = |db: Database| {
        let mut tx = db.txn().isolation(IsolationLevel::Serializable).begin();
        let existing = tx.scan("kv", &Predicate::eq(1, "dup")).unwrap();
        if !existing.is_empty() {
            tx.rollback();
            return Ok(false);
        }
        tx.insert_pairs("kv", &[("k", Datum::text("dup")), ("v", Datum::Int(1))])?;
        tx.commit()?;
        Ok::<bool, DbError>(true)
    };
    // interleave manually: both probe before either commits
    let mut t1 = db.txn().isolation(IsolationLevel::Serializable).begin();
    let mut t2 = db.txn().isolation(IsolationLevel::Serializable).begin();
    assert!(t1.scan("kv", &Predicate::eq(1, "dup")).unwrap().is_empty());
    assert!(t2.scan("kv", &Predicate::eq(1, "dup")).unwrap().is_empty());
    t1.insert_pairs("kv", &[("k", Datum::text("dup")), ("v", Datum::Int(1))])
        .unwrap();
    t2.insert_pairs("kv", &[("k", Datum::text("dup")), ("v", Datum::Int(2))])
        .unwrap();
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(matches!(err, DbError::SerializationFailure { .. }));
    assert_eq!(db.count_rows("kv").unwrap(), 1);
    // and a retry takes the non-insert path
    assert!(!run(db.clone()).unwrap());
}

/// `kv` holding `a = 1` and `b = 2`, with or without an index on `k`,
/// and an empty `log` table a reader writes so its commit is validated.
fn validation_db(indexed: bool) -> Database {
    let db = db_with(IsolationLevel::Serializable);
    if indexed {
        db.create_index("kv", &["k"], false).unwrap();
    }
    db.create_table(TableSchema::new(
        "log",
        vec![ColumnDef::new("n", DataType::Int)],
    ))
    .unwrap();
    put(&db, "a", 1);
    put(&db, "b", 2);
    db
}

/// Commit `write` on `kv` in a transaction of its own.
fn commit_kv(db: &Database, write: impl Fn(&mut feral_db::Transaction) -> Result<(), DbError>) {
    db.txn().run(|tx| write(tx)).unwrap();
}

/// Commit a row `k = v`.
fn insert_kv(db: &Database, k: &str, v: i64) {
    commit_kv(db, |tx| {
        tx.insert_pairs("kv", &[("k", Datum::text(k)), ("v", Datum::Int(v))])
            .map(|_| ())
    });
}

/// Commit a re-key (or re-value) of the row whose `k` is `from`.
fn rewrite(db: &Database, from: &str, k: &str, v: i64) {
    commit_kv(db, |tx| {
        let (row, t) = tx.scan("kv", &Predicate::eq(1, from))?.remove(0);
        tx.update("kv", row, vec![t[0].clone(), Datum::text(k), Datum::Int(v)])
    });
}

/// Serializable validation against each kind of conflicting commit, with
/// an index serving the reader's equality predicate and without one: the
/// reader reads, other transactions commit, and the reader's commit fails
/// with the conflict named — or, for writes its read does not depend on,
/// commits.
#[test]
fn serializable_validation_sees_every_conflict_kind_with_and_without_an_index() {
    // the reader's predicate, the writes, the conflict its commit names
    type Case = (&'static str, Predicate, fn(&Database), Option<&'static str>);
    let cases: [Case; 9] = [
        (
            "a read row overwritten",
            Predicate::eq(1, "a"),
            |db| rewrite(db, "a", "a", 10),
            Some("row"),
        ),
        (
            "a read row deleted",
            Predicate::eq(1, "a"),
            |db| {
                commit_kv(db, |tx| {
                    let (row, _) = tx.scan("kv", &Predicate::eq(1, "a"))?.remove(0);
                    tx.delete("kv", row)
                })
            },
            Some("row"),
        ),
        (
            "an insert into the predicate",
            Predicate::eq(1, "c"),
            |db| insert_kv(db, "c", 3),
            Some("predicate"),
        ),
        (
            "an update moving a row into the predicate",
            Predicate::eq(1, "c"),
            |db| rewrite(db, "b", "c", 2),
            Some("predicate"),
        ),
        (
            "an update moving a row out of the predicate",
            Predicate::eq(1, "a"),
            |db| rewrite(db, "a", "z", 1),
            Some("row"),
        ),
        (
            // no row of the read moves: only the version that left the
            // key (found through its old posting, with an index) conflicts
            "a row inserted into the predicate, then moved out of it",
            Predicate::eq(1, "c"),
            |db| {
                insert_kv(db, "c", 3);
                rewrite(db, "c", "d", 3);
            },
            Some("predicate"),
        ),
        (
            "a full-scan read under an insert",
            Predicate::True,
            |db| insert_kv(db, "c", 3),
            Some("full-scan"),
        ),
        (
            "a write outside the predicate",
            Predicate::eq(1, "a"),
            |db| rewrite(db, "b", "b", 20),
            None,
        ),
        (
            "a write that leaves the predicate unmatched",
            Predicate::eq(1, "c"),
            |db| rewrite(db, "b", "d", 2),
            None,
        ),
    ];
    for indexed in [false, true] {
        for (name, pred, write, conflict) in &cases {
            let db = validation_db(indexed);
            let mut reader = db.txn().begin();
            reader.scan("kv", pred).unwrap();
            reader.insert_pairs("log", &[("n", Datum::Int(1))]).unwrap();
            write(&db);
            let outcome = reader.commit();
            let case = format!("{name} (indexed: {indexed})");
            match (conflict, outcome) {
                (None, Ok(())) => {}
                (Some(kind), Err(DbError::SerializationFailure { detail })) => {
                    assert!(detail.contains(kind), "{case}: {detail}");
                }
                (want, got) => panic!("{case}: want a {want:?} conflict, got {got:?}"),
            }
        }
    }
}

/// A serializable reader whose snapshot is older than 2 × 64 + 1 commits
/// on another table — past the point where a bounded commit history
/// would have been pruned — still aborts on a conflicting write that
/// committed after it began.
#[test]
fn a_conflict_behind_many_unrelated_commits_still_aborts_the_reader() {
    let db = validation_db(true);
    let mut reader = db.txn().begin();
    assert_eq!(reader.scan("kv", &Predicate::eq(1, "a")).unwrap().len(), 1);
    rewrite(&db, "a", "a", 10);
    for n in 0..2 * 64 + 1 {
        db.txn()
            .run(|tx| tx.insert_pairs("log", &[("n", Datum::Int(n))]).map(|_| ()))
            .unwrap();
    }
    reader
        .insert_pairs("log", &[("n", Datum::Int(-1))])
        .unwrap();
    assert!(matches!(
        reader.commit(),
        Err(DbError::SerializationFailure { .. })
    ));
}

#[test]
fn pg_ssi_bug_mode_admits_duplicates_under_serializable() {
    // Paper footnote 8 / bug #11732: with the compatibility mode on,
    // non-index predicate reads are not validated, so the same race
    // commits both inserts.
    let db = Database::new(Config {
        default_isolation: IsolationLevel::Serializable,
        pg_ssi_bug: true,
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
    let mut t1 = db.txn().begin();
    let mut t2 = db.txn().begin();
    assert!(t1.scan("kv", &Predicate::eq(1, "dup")).unwrap().is_empty());
    assert!(t2.scan("kv", &Predicate::eq(1, "dup")).unwrap().is_empty());
    t1.insert_pairs("kv", &[("k", Datum::text("dup")), ("v", Datum::Int(1))])
        .unwrap();
    t2.insert_pairs("kv", &[("k", Datum::text("dup")), ("v", Datum::Int(2))])
        .unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap(); // the bug: this should have failed
    assert_eq!(db.count_rows("kv").unwrap(), 2);
}

#[test]
fn serializable_read_only_transactions_never_abort() {
    let db = db_with(IsolationLevel::Serializable);
    put(&db, "a", 1);
    let mut reader = db.txn().isolation(IsolationLevel::Serializable).begin();
    reader.scan("kv", &Predicate::True).unwrap();
    put(&db, "b", 2);
    reader.scan("kv", &Predicate::True).unwrap();
    reader.commit().unwrap();
}

#[test]
fn concurrent_distinct_key_inserts_all_commit_under_serializable() {
    let db = db_with(IsolationLevel::Serializable);
    let mut handles = Vec::new();
    for i in 0..8 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            let mut tx = db.txn().isolation(IsolationLevel::Serializable).begin();
            let key = format!("k{i}");
            // probe own key only — distinct predicates don't conflict
            let rows = tx.scan("kv", &Predicate::eq(1, key.as_str())).unwrap();
            assert!(rows.is_empty());
            tx.insert_pairs("kv", &[("k", Datum::text(&key)), ("v", Datum::Int(i))])
                .unwrap();
            tx.commit()
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // distinct keys: all succeed or at worst a couple retryable aborts, but
    // with equality fingerprints none should conflict
    assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
    assert_eq!(db.count_rows("kv").unwrap(), 8);
}

#[test]
fn rollback_discards_everything() {
    let db = db_with(IsolationLevel::ReadCommitted);
    let id = put(&db, "x", 1);
    let mut tx = db.txn().begin();
    let (r, t) = tx.get_by_id("kv", id).unwrap().unwrap();
    let mut n = t.to_vec();
    n[2] = Datum::Int(99);
    tx.update("kv", r, n).unwrap();
    tx.insert_pairs("kv", &[("k", Datum::text("y")), ("v", Datum::Int(2))])
        .unwrap();
    tx.rollback();
    assert_eq!(get_v(&db, IsolationLevel::ReadCommitted, "x"), vec![1]);
    assert!(get_v(&db, IsolationLevel::ReadCommitted, "y").is_empty());
}

#[test]
fn dropping_open_transaction_rolls_back_and_releases_locks() {
    let db = db_with(IsolationLevel::ReadCommitted);
    let id = put(&db, "x", 1);
    {
        let mut tx = db.txn().begin();
        let rows = tx.select_for_update("kv", &Predicate::eq(0, id)).unwrap();
        assert_eq!(rows.len(), 1);
        // dropped without commit
    }
    // lock must be free now
    let mut tx = db.txn().begin();
    let rows = tx.select_for_update("kv", &Predicate::eq(0, id)).unwrap();
    assert_eq!(rows.len(), 1);
    tx.commit().unwrap();
}

#[test]
fn write_skew_allowed_under_si_but_not_serializable() {
    // Classic write skew: invariant v(a) + v(b) >= 1; each txn reads both
    // and zeroes one.
    for (iso, expect_skew) in [
        (IsolationLevel::Snapshot, true),
        (IsolationLevel::Serializable, false),
    ] {
        let db = db_with(iso);
        let ida = put(&db, "a", 1);
        let idb = put(&db, "b", 1);
        let mut t1 = db.txn().isolation(iso).begin();
        let mut t2 = db.txn().isolation(iso).begin();
        // both read both rows
        let sum1: i64 = t1
            .scan("kv", &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, t)| t[2].as_int().unwrap())
            .sum();
        let sum2: i64 = t2
            .scan("kv", &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, t)| t[2].as_int().unwrap())
            .sum();
        assert_eq!(sum1, 2);
        assert_eq!(sum2, 2);
        // t1 zeroes a; t2 zeroes b
        let (ra, ta) = t1.get_by_id("kv", ida).unwrap().unwrap();
        let mut na = ta.to_vec();
        na[2] = Datum::Int(0);
        t1.update("kv", ra, na).unwrap();
        let (rb, tb) = t2.get_by_id("kv", idb).unwrap().unwrap();
        let mut nb = tb.to_vec();
        nb[2] = Datum::Int(0);
        t2.update("kv", rb, nb).unwrap();
        let r1 = t1.commit();
        let r2 = t2.commit();
        let mut check = db.txn().begin();
        let total: i64 = check
            .scan("kv", &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, t)| t[2].as_int().unwrap())
            .sum();
        check.commit().unwrap();
        if expect_skew {
            assert!(r1.is_ok() && r2.is_ok());
            assert_eq!(total, 0, "write skew should violate the invariant under SI");
        } else {
            assert!(r1.is_ok());
            assert!(r2.is_err(), "serializable must abort one of the writers");
            assert_eq!(total, 1);
        }
    }
}

#[test]
fn vacuum_preserves_latest_state() {
    let db = db_with(IsolationLevel::ReadCommitted);
    let id = put(&db, "x", 0);
    for v in 1..20 {
        let mut tx = db.txn().begin();
        let (r, t) = tx.get_by_id("kv", id).unwrap().unwrap();
        let mut n = t.to_vec();
        n[2] = Datum::Int(v);
        tx.update("kv", r, n).unwrap();
        tx.commit().unwrap();
    }
    let reclaimed = db.vacuum();
    assert!(reclaimed > 0);
    assert_eq!(get_v(&db, IsolationLevel::ReadCommitted, "x"), vec![19]);
}
