//! In-database constraint tests: unique indexes and foreign keys must be
//! race-free — they are the "database counterparts" the paper shows
//! eliminate feral anomalies entirely (§5.2, §5.4).

use feral_db::{
    CmpOp, ColumnDef, Config, DataType, Database, Datum, DbError, IsolationLevel, OnDelete,
    Predicate, TableSchema,
};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

fn fresh_db() -> Database {
    Database::new(Config {
        default_isolation: IsolationLevel::ReadCommitted,
        lock_timeout: Duration::from_secs(2),
        ..Config::default()
    })
}

fn users_departments(db: &Database, fk: Option<OnDelete>) {
    db.create_table(TableSchema::new(
        "departments",
        vec![ColumnDef::new("name", DataType::Text)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "users",
        vec![
            ColumnDef::new("department_id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
        ],
    ))
    .unwrap();
    if let Some(mode) = fk {
        db.add_foreign_key("users", "department_id", "departments", mode)
            .unwrap();
    }
}

fn insert_department(db: &Database, id: i64) {
    let mut tx = db.txn().begin();
    tx.insert(
        "departments",
        vec![Datum::Int(id), Datum::text(format!("d{id}"))],
    )
    .unwrap();
    tx.commit().unwrap();
}

#[test]
fn unique_index_rejects_duplicates_sequentially() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let err = tx
        .insert_pairs("t", &[("k", Datum::text("a"))])
        .unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }));
    tx.rollback();
    // a different key is fine
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("b"))]).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 2);
}

#[test]
fn unique_index_admits_multiple_nulls() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    for _ in 0..3 {
        let mut tx = db.txn().begin();
        tx.insert_pairs("t", &[("k", Datum::Null)]).unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(db.count_rows("t").unwrap(), 3);
}

#[test]
fn unique_index_checks_within_own_transaction() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    let err = tx
        .insert_pairs("t", &[("k", Datum::text("a"))])
        .unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }));
}

#[test]
fn unique_index_allows_reuse_after_delete_in_same_transaction() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let rows = tx.scan("t", &Predicate::eq(1, "a")).unwrap();
    tx.delete("t", rows[0].0).unwrap();
    tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 1);
}

#[test]
fn unique_update_can_change_key_and_back() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    let mut tx = db.txn().begin();
    let r = tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    tx.commit().unwrap();
    let _ = r;
    // rename a -> b
    let mut tx = db.txn().begin();
    let rows = tx.scan("t", &Predicate::eq(1, "a")).unwrap();
    let (rref, t) = (rows[0].0, rows[0].1.to_vec());
    let mut n = t.clone();
    n[1] = Datum::text("b");
    tx.update("t", rref, n).unwrap();
    tx.commit().unwrap();
    // now "a" is reusable
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a"))]).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 2);
    // but "b" is taken
    let mut tx = db.txn().begin();
    assert!(matches!(
        tx.insert_pairs("t", &[("k", Datum::text("b"))]),
        Err(DbError::UniqueViolation { .. })
    ));
}

#[test]
fn unique_index_is_race_free_under_heavy_concurrency() {
    // 16 threads × 50 rounds, all inserting the same key per round.
    // Exactly one insert per round may survive — the in-database guarantee
    // that eliminates the paper's Figure 2 anomalies.
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("t", &["k"], true).unwrap();
    let threads = 16;
    let rounds = 50;
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = db.clone();
        let barrier = barrier.clone();
        // never panic between barrier waits: a panicking thread would leave
        // the others parked on the barrier forever, so unexpected errors
        // are collected and asserted after join instead
        handles.push(thread::spawn(move || -> Vec<String> {
            let mut unexpected = Vec::new();
            for round in 0..rounds {
                barrier.wait();
                let mut tx = db.txn().begin();
                let key = format!("key-{round}");
                match tx.insert_pairs("t", &[("k", Datum::text(&key))]) {
                    Ok(_) => {
                        if let Err(e) = tx.commit() {
                            unexpected.push(format!("commit: {e}"));
                        }
                    }
                    Err(DbError::UniqueViolation { .. }) => tx.rollback(),
                    // lock-wait timeout is legitimate deadlock resolution
                    // under this much contention; the losing insert aborts
                    Err(e) if e.is_retryable() => tx.rollback(),
                    Err(e) => {
                        unexpected.push(format!("insert: {e}"));
                        tx.rollback();
                    }
                }
            }
            unexpected
        }));
    }
    for h in handles {
        let unexpected = h.join().unwrap();
        assert!(unexpected.is_empty(), "unexpected errors: {unexpected:?}");
    }
    assert_eq!(db.count_rows("t").unwrap(), rounds);
    // every key appears exactly once
    let mut tx = db.txn().begin();
    for round in 0..rounds {
        let key = format!("key-{round}");
        assert_eq!(
            tx.scan("t", &Predicate::eq(1, key.as_str())).unwrap().len(),
            1,
            "key {key} duplicated"
        );
    }
}

#[test]
fn fk_insert_requires_parent() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Restrict));
    let mut tx = db.txn().begin();
    let err = tx
        .insert_pairs(
            "users",
            &[("department_id", Datum::Int(1)), ("name", Datum::text("u"))],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    tx.rollback();
    insert_department(&db, 1);
    let mut tx = db.txn().begin();
    tx.insert_pairs(
        "users",
        &[("department_id", Datum::Int(1)), ("name", Datum::text("u"))],
    )
    .unwrap();
    tx.commit().unwrap();
}

#[test]
fn fk_null_reference_is_allowed() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Restrict));
    let mut tx = db.txn().begin();
    tx.insert_pairs(
        "users",
        &[("department_id", Datum::Null), ("name", Datum::text("u"))],
    )
    .unwrap();
    tx.commit().unwrap();
}

#[test]
fn fk_parent_and_child_in_same_transaction() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Restrict));
    let mut tx = db.txn().begin();
    tx.insert("departments", vec![Datum::Int(5), Datum::text("d5")])
        .unwrap();
    tx.insert_pairs(
        "users",
        &[("department_id", Datum::Int(5)), ("name", Datum::text("u"))],
    )
    .unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("users").unwrap(), 1);
}

#[test]
fn fk_restrict_blocks_parent_delete() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Restrict));
    insert_department(&db, 1);
    let mut tx = db.txn().begin();
    tx.insert_pairs(
        "users",
        &[("department_id", Datum::Int(1)), ("name", Datum::text("u"))],
    )
    .unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let rows = tx.scan("departments", &Predicate::eq(0, 1i64)).unwrap();
    let err = tx.delete("departments", rows[0].0).unwrap_err();
    assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
}

#[test]
fn fk_cascade_deletes_children() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Cascade));
    insert_department(&db, 1);
    for i in 0..5 {
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[
                ("department_id", Datum::Int(1)),
                ("name", Datum::text(format!("u{i}"))),
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let mut tx = db.txn().begin();
    let rows = tx.scan("departments", &Predicate::eq(0, 1i64)).unwrap();
    tx.delete("departments", rows[0].0).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("users").unwrap(), 0);
    assert_eq!(db.count_rows("departments").unwrap(), 0);
}

/// CASCADE, SET NULL and RESTRICT find a parent's children through an
/// index on the referencing column when there is one and by walking the
/// child table when there is not — and find the same rows either way:
/// children committed before, moved in, moved out (their old posting
/// stays until vacuum), deleted, and inserted by the deleting transaction.
#[test]
fn fk_actions_reach_the_same_children_with_and_without_a_child_index() {
    let children_after = |mode: OnDelete, indexed: bool| {
        let db = fresh_db();
        users_departments(&db, Some(mode));
        if indexed {
            db.create_index("users", &["department_id"], false).unwrap();
        }
        insert_department(&db, 1);
        insert_department(&db, 2);
        db.txn()
            .run(|tx| {
                for (dept, name) in [
                    (1, "stays"),
                    (1, "leaves"),
                    (2, "joins"),
                    (1, "dies"),
                    (2, "other"),
                ] {
                    tx.insert_pairs(
                        "users",
                        &[
                            ("department_id", Datum::Int(dept)),
                            ("name", Datum::text(name)),
                        ],
                    )?;
                }
                Ok(())
            })
            .unwrap();
        db.txn()
            .run(|tx| {
                for (name, to) in [("leaves", Some(2)), ("joins", Some(1)), ("dies", None)] {
                    let (rref, image) = tx.scan("users", &Predicate::eq(2, name))?.remove(0);
                    match to {
                        Some(dept) => {
                            let mut moved = image.to_vec();
                            moved[1] = Datum::Int(dept);
                            tx.update("users", rref, moved)?;
                        }
                        None => tx.delete("users", rref)?,
                    }
                }
                Ok(())
            })
            .unwrap();
        let before = db.stats().snapshot();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[
                ("department_id", Datum::Int(1)),
                ("name", Datum::text("own")),
            ],
        )
        .unwrap();
        let dept = tx.scan("departments", &Predicate::eq(0, 1i64)).unwrap();
        let outcome = tx.delete("departments", dept[0].0);
        let mut left: Vec<(String, Option<i64>)> = tx
            .scan("users", &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, t)| (t[2].as_text().unwrap().to_string(), t[1].as_int()))
            .collect();
        left.sort();
        let deletes = db.stats().snapshot().diff(&before).deletes;
        (outcome.map_err(|e| e.to_string()), left, deletes)
    };
    for mode in [OnDelete::Cascade, OnDelete::SetNull, OnDelete::Restrict] {
        let walked = children_after(mode, false);
        assert_eq!(children_after(mode, true), walked, "{mode:?}");
        let names: Vec<&str> = walked.1.iter().map(|(n, _)| n.as_str()).collect();
        match mode {
            // stays, joins and the own insert went with the department
            OnDelete::Cascade => {
                assert_eq!(names, ["leaves", "other"]);
                assert_eq!(walked.2, 4);
            }
            OnDelete::SetNull => {
                let orphaned: Vec<_> = walked.1.iter().filter(|(_, d)| d.is_none()).collect();
                assert_eq!(orphaned.len(), 3, "{:?}", walked.1);
            }
            OnDelete::Restrict => assert!(walked.0.unwrap_err().contains("3 dependent")),
        }
    }
}

#[test]
fn fk_set_null_orphans_become_null_references() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::SetNull));
    insert_department(&db, 1);
    let mut tx = db.txn().begin();
    tx.insert_pairs(
        "users",
        &[("department_id", Datum::Int(1)), ("name", Datum::text("u"))],
    )
    .unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let rows = tx.scan("departments", &Predicate::eq(0, 1i64)).unwrap();
    tx.delete("departments", rows[0].0).unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let users = tx.scan("users", &Predicate::True).unwrap();
    assert_eq!(users.len(), 1);
    assert!(users[0].1[1].is_null());
}

#[test]
fn fk_is_race_free_under_concurrent_insert_and_cascade_delete() {
    // The Figure 4 setup, but with the in-database FK: one thread deletes
    // the department (cascading) while others insert users into it.
    // Afterwards there must be zero orphans.
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Cascade));
    let rounds = 30;
    let inserters = 8;
    for d in 1..=rounds {
        insert_department(&db, d);
    }
    let barrier = Arc::new(Barrier::new(inserters + 1));
    let mut handles = Vec::new();
    for w in 0..inserters {
        let db = db.clone();
        let barrier = barrier.clone();
        // as above: collect unexpected errors rather than panicking while
        // other threads are parked on the shared barrier
        handles.push(thread::spawn(move || -> Vec<String> {
            let mut unexpected = Vec::new();
            for d in 1..=rounds {
                barrier.wait();
                let mut tx = db.txn().begin();
                match tx.insert_pairs(
                    "users",
                    &[
                        ("department_id", Datum::Int(d)),
                        ("name", Datum::text(format!("u{w}"))),
                    ],
                ) {
                    Ok(_) => {
                        let _ = tx.commit();
                    }
                    Err(DbError::ForeignKeyViolation { .. }) => tx.rollback(),
                    Err(e) if e.is_retryable() => tx.rollback(),
                    Err(e) => {
                        unexpected.push(format!("insert: {e}"));
                        tx.rollback();
                    }
                }
            }
            unexpected
        }));
    }
    {
        let db = db.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || -> Vec<String> {
            let mut unexpected = Vec::new();
            for d in 1..=rounds {
                barrier.wait();
                loop {
                    let mut tx = db.txn().begin();
                    let rows = tx.scan("departments", &Predicate::eq(0, d)).unwrap();
                    if rows.is_empty() {
                        tx.rollback();
                        break;
                    }
                    match tx.delete("departments", rows[0].0) {
                        Ok(()) => match tx.commit() {
                            Ok(()) => break,
                            Err(e) if e.is_retryable() => continue,
                            Err(e) => {
                                unexpected.push(format!("commit: {e}"));
                                break;
                            }
                        },
                        Err(e) if e.is_retryable() => {
                            tx.rollback();
                            continue;
                        }
                        Err(e) => {
                            unexpected.push(format!("delete: {e}"));
                            tx.rollback();
                            break;
                        }
                    }
                }
            }
            unexpected
        }));
    }
    for h in handles {
        let unexpected = h.join().unwrap();
        assert!(unexpected.is_empty(), "unexpected errors: {unexpected:?}");
    }
    // zero orphans: every surviving user's department exists
    let mut tx = db.txn().begin();
    let users = tx.scan("users", &Predicate::True).unwrap();
    for (_, u) in &users {
        let d = u[1].as_int().unwrap();
        let parents = tx.scan("departments", &Predicate::eq(0, d)).unwrap();
        assert_eq!(parents.len(), 1, "orphaned user referencing dept {d}");
    }
    // all departments were deleted
    assert_eq!(db.count_rows("departments").unwrap(), 0);
    // therefore no users survive either (cascade caught them)
    assert_eq!(db.count_rows("users").unwrap(), 0);
}

/// A foreign key is refused over a committed child row that names no
/// parent, as a unique index is over duplicates, and the table stays
/// without one: the orphan can still be written, and deleting a
/// department cascades to nobody. Once the orphan is repaired, the same
/// key is accepted and enforced.
#[test]
fn a_foreign_key_over_an_orphan_is_refused() {
    let db = fresh_db();
    users_departments(&db, None);
    insert_department(&db, 1);
    let user = |dept: i64, name: &str| {
        db.txn().run(|tx| {
            tx.insert_pairs(
                "users",
                &[
                    ("department_id", Datum::Int(dept)),
                    ("name", Datum::text(name)),
                ],
            )
        })
    };
    user(1, "kept").unwrap();
    user(99, "orphan").unwrap();
    let add = || db.add_foreign_key("users", "department_id", "departments", OnDelete::Cascade);
    match add() {
        Err(DbError::ForeignKeyViolation { constraint, detail }) => {
            assert_eq!(constraint, "fk_users_department_id");
            assert!(detail.contains("99"), "{detail}");
        }
        other => panic!("a key over an orphan must be refused, got {other:?}"),
    }
    assert_eq!(db.foreign_key_count(), 0);
    user(98, "another orphan").unwrap();
    // repair both orphans: the key is accepted, and holds from then on
    db.txn()
        .run(|tx| {
            for (row, t) in tx.scan("users", &Predicate::eq(1, 99i64))? {
                tx.update(
                    "users",
                    row,
                    vec![t[0].clone(), Datum::Int(1), t[2].clone()],
                )?;
            }
            tx.delete_where("users", &Predicate::eq(1, 98i64))
                .map(|_| ())
        })
        .unwrap();
    add().unwrap();
    assert!(matches!(
        user(99, "late orphan"),
        Err(DbError::ForeignKeyViolation { .. })
    ));
}

#[test]
fn index_backfill_on_existing_data_and_unique_failure() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    for k in ["a", "b", "a"] {
        let mut tx = db.txn().begin();
        tx.insert_pairs("t", &[("k", Datum::text(k))]).unwrap();
        tx.commit().unwrap();
    }
    // unique index creation fails on the duplicate
    assert!(matches!(
        db.create_index("t", &["k"], true),
        Err(DbError::UniqueViolation { .. })
    ));
    // non-unique index is fine and serves scans
    db.create_index_named("t_k_nonuniq", db.table_id("t").unwrap(), &["k"], false)
        .unwrap();
    let mut tx = db.txn().begin();
    assert_eq!(tx.scan("t", &Predicate::eq(1, "a")).unwrap().len(), 2);
}

/// An index built while a Snapshot reader is open serves that reader the
/// rows a walk of the table gives it: the backfill posts every version's
/// key, not only the newest live one. Here the reader's snapshot holds
/// `k = 'a'` in one row a later commit re-keys to `'b'` and in another a
/// later commit deletes.
#[test]
fn an_index_built_under_an_open_snapshot_serves_it_what_a_walk_does() {
    let db = fresh_db();
    db.create_table(TableSchema::new(
        "kv",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    for _ in 0..2 {
        db.txn()
            .run(|tx| tx.insert_pairs("kv", &[("k", Datum::text("a"))]))
            .unwrap();
    }
    let rows = db.txn().begin().scan("kv", &Predicate::True).unwrap();
    let (rekeyed, deleted) = (rows[0].0, rows[1].0);
    let mut reader = db.txn().isolation(IsolationLevel::Snapshot).begin();
    let a = Predicate::eq(1, "a");
    let before = reader.scan("kv", &a).unwrap().len();
    db.txn()
        .run(|tx| {
            tx.update("kv", rekeyed, vec![Datum::Null, Datum::text("b")])?;
            tx.delete("kv", deleted)
        })
        .unwrap();
    let walked = reader.scan("kv", &a).unwrap().len();
    db.create_index("kv", &["k"], false).unwrap();
    let probes = db.stats().snapshot().index_probes;
    let probed = reader.scan("kv", &a).unwrap().len();
    assert_eq!(
        db.stats().snapshot().index_probes,
        probes + 1,
        "the scan went through the new index"
    );
    assert_eq!(
        (before, walked, probed),
        (2, 2, 2),
        "rows with k = 'a' at the reader's snapshot: before, walked, probed"
    );
    // a reader that begins now sees neither through the index
    let mut fresh = db.txn().isolation(IsolationLevel::Snapshot).begin();
    assert!(fresh.scan("kv", &a).unwrap().is_empty());
    assert_eq!(fresh.scan("kv", &Predicate::eq(1, "b")).unwrap().len(), 1);
}

/// A table `t(v)` whose rows take these ids, in this order; `None` draws
/// the next id from the table's sequence.
fn table_with_ids(db: &Database, ids: &[Option<i64>]) {
    db.create_table(TableSchema::new(
        "t",
        vec![ColumnDef::new("v", DataType::Text)],
    ))
    .unwrap();
    for (n, id) in ids.iter().enumerate() {
        let id = id.map_or(Datum::Null, Datum::Int);
        db.txn()
            .run(|tx| tx.insert("t", vec![id.clone(), Datum::text(format!("v{n}"))]))
            .unwrap();
    }
}

fn delete_id(db: &Database, id: i64) {
    db.txn()
        .run(|tx| {
            let (row, _) = tx.get_by_id("t", id)?.expect("the row exists");
            tx.delete("t", row)
        })
        .unwrap();
}

fn ids_where(db: &Database, pred: &Predicate) -> Vec<i64> {
    let rows = db.txn().run(|tx| tx.scan("t", pred)).unwrap();
    rows.iter()
        .map(|(_, row)| row[0].as_int().unwrap())
        .collect()
}

fn id_cmp(op: CmpOp, id: i64) -> Predicate {
    Predicate::Cmp {
        col: 0,
        op,
        value: Datum::Int(id),
    }
}

/// A deleted id's posting outlives the delete until vacuum; it must not
/// block an explicit insert of that id, and vacuum keeps the new row's.
#[test]
fn an_id_reinserted_after_its_delete_is_found_before_and_after_vacuum() {
    let db = fresh_db();
    table_with_ids(&db, &[None; 10]);
    delete_id(&db, 7);
    db.txn()
        .run(|tx| tx.insert("t", vec![Datum::Int(7), Datum::text("new")]))
        .unwrap();
    let found = |db: &Database| {
        let rows = db
            .txn()
            .run(|tx| tx.scan("t", &Predicate::eq(0, 7i64)))
            .unwrap();
        rows.into_iter()
            .map(|(_, row)| row[1].clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(found(&db), [Datum::text("new")]);
    db.vacuum();
    assert_eq!(found(&db), [Datum::text("new")]);
    let got = db.txn().run(|tx| tx.get_by_id("t", 7)).unwrap();
    assert_eq!(got.map(|(_, row)| row[1].clone()), Some(Datum::text("new")));
    let again = db
        .txn()
        .run(|tx| tx.insert("t", vec![Datum::Int(7), Datum::text("again")]));
    assert!(matches!(again, Err(DbError::UniqueViolation { .. })));
}

/// A foreign key finds its parent by the parent's primary key, whether
/// the parent's id sits in the dense run or spilled past it.
#[test]
fn fk_finds_a_parent_whose_id_spilled_and_rejects_a_missing_one() {
    let db = fresh_db();
    users_departments(&db, Some(OnDelete::Restrict));
    let far = feral_db::index::DENSE_SLACK as i64 + 100;
    for id in [1, far, -5, i64::MAX] {
        insert_department(&db, id);
    }
    let child = |dept: i64| {
        db.txn().run(|tx| {
            tx.insert(
                "users",
                vec![Datum::Null, Datum::Int(dept), Datum::text("u")],
            )
        })
    };
    for dept in [1, far, -5, i64::MAX] {
        child(dept).unwrap_or_else(|e| panic!("parent {dept}: {e}"));
    }
    for dept in [2, far + 1, 0, i64::MAX - 1] {
        assert!(
            matches!(child(dept), Err(DbError::ForeignKeyViolation { .. })),
            "parent {dept} does not exist"
        );
    }
}

/// A range scan on `id` returns rows in row order, whichever side of the
/// dense run their ids were posted on: ids from the sequence, explicit
/// ids past the growth slack and at or below zero, and an id re-inserted
/// after its delete (two postings until vacuum).
#[test]
fn a_primary_key_range_scan_across_spilled_ids_returns_rows_in_row_order() {
    let db = fresh_db();
    let far = feral_db::index::DENSE_SLACK as i64 + 50;
    let ids = [
        None,
        None,
        None,
        None,
        None,
        Some(far),
        Some(0),
        Some(-5),
        None,
        Some(i64::MAX),
    ];
    table_with_ids(&db, &ids);
    delete_id(&db, 3);
    db.txn()
        .run(|tx| tx.insert("t", vec![Datum::Int(3), Datum::text("again")]))
        .unwrap();
    for vacuumed in [false, true] {
        if vacuumed {
            db.vacuum();
        }
        assert_eq!(
            ids_where(&db, &id_cmp(CmpOp::Ge, 2)),
            [2, 4, 5, far, 6, i64::MAX, 3]
        );
        assert_eq!(
            ids_where(&db, &id_cmp(CmpOp::Gt, 5).and(id_cmp(CmpOp::Le, far))),
            [far, 6]
        );
        assert_eq!(
            ids_where(&db, &id_cmp(CmpOp::Ge, 3).and(id_cmp(CmpOp::Lt, far))),
            [4, 5, 6, 3]
        );
        assert_eq!(ids_where(&db, &id_cmp(CmpOp::Le, 1)), [1, 0, -5]);
        assert_eq!(ids_where(&db, &id_cmp(CmpOp::Gt, far)), [i64::MAX]);
        // crossed bounds hold no id (this used to panic in the index)
        let crossed = id_cmp(CmpOp::Ge, 5).and(id_cmp(CmpOp::Lt, 2));
        assert_eq!(ids_where(&db, &crossed), Vec::<i64>::new());
    }
}
