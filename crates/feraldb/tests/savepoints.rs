//! Savepoint semantics: partial rollback of buffered writes.

use feral_db::{ColumnDef, DataType, Database, Datum, Predicate, TableSchema};

fn db() -> Database {
    let db = Database::in_memory();
    db.create_table(TableSchema::new(
        "t",
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
        .insert_pairs("t", &[("k", Datum::text(k)), ("v", Datum::Int(v))])
        .unwrap();
    let id = tx.read_ref(db.table_id("t").unwrap(), r).unwrap()[0]
        .as_int()
        .unwrap();
    tx.commit().unwrap();
    id
}

#[test]
fn rollback_to_discards_post_savepoint_inserts() {
    let db = db();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("keep")), ("v", Datum::Int(1))])
        .unwrap();
    let sp = tx.savepoint();
    tx.insert_pairs("t", &[("k", Datum::text("drop")), ("v", Datum::Int(2))])
        .unwrap();
    assert_eq!(tx.scan("t", &Predicate::True).unwrap().len(), 2);
    tx.rollback_to(sp).unwrap();
    let rows = tx.scan("t", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[1], Datum::text("keep"));
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 1);
}

#[test]
fn rollback_to_rewinds_merged_updates_of_pre_savepoint_rows() {
    let db = db();
    let id = put(&db, "x", 1);
    let mut tx = db.txn().begin();
    // pre-savepoint update: v = 10
    let (r, t) = tx.get_by_id("t", id).unwrap().unwrap();
    let mut n = t.to_vec();
    n[2] = Datum::Int(10);
    tx.update("t", r, n).unwrap();
    let sp = tx.savepoint();
    // post-savepoint update of the SAME row: v = 20 (merges in place)
    let (r, t) = tx.get_by_id("t", id).unwrap().unwrap();
    let mut n = t.to_vec();
    assert_eq!(n[2], Datum::Int(20 - 10)); // sees 10 via own-write overlay
    n[2] = Datum::Int(20);
    tx.update("t", r, n).unwrap();
    tx.rollback_to(sp).unwrap();
    // the pre-savepoint value must be restored, not the post one
    let (_, t) = tx.get_by_id("t", id).unwrap().unwrap();
    assert_eq!(t[2], Datum::Int(10));
    tx.commit().unwrap();
    let mut check = db.txn().begin();
    let (_, t) = check.get_by_id("t", id).unwrap().unwrap();
    assert_eq!(t[2], Datum::Int(10));
}

#[test]
fn rollback_to_restores_deletes() {
    let db = db();
    let id = put(&db, "x", 1);
    let mut tx = db.txn().begin();
    let sp = tx.savepoint();
    let (r, _) = tx.get_by_id("t", id).unwrap().unwrap();
    tx.delete("t", r).unwrap();
    assert!(tx.get_by_id("t", id).unwrap().is_none());
    tx.rollback_to(sp).unwrap();
    assert!(tx.get_by_id("t", id).unwrap().is_some());
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 1);
}

#[test]
fn nested_savepoints() {
    let db = db();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a")), ("v", Datum::Int(1))])
        .unwrap();
    let sp1 = tx.savepoint();
    tx.insert_pairs("t", &[("k", Datum::text("b")), ("v", Datum::Int(2))])
        .unwrap();
    let sp2 = tx.savepoint();
    tx.insert_pairs("t", &[("k", Datum::text("c")), ("v", Datum::Int(3))])
        .unwrap();
    tx.rollback_to(sp2).unwrap();
    assert_eq!(tx.scan("t", &Predicate::True).unwrap().len(), 2);
    tx.rollback_to(sp1).unwrap();
    assert_eq!(tx.scan("t", &Predicate::True).unwrap().len(), 1);
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 1);
}

#[test]
fn savepoint_interacts_with_unique_constraints() {
    let db = db();
    db.create_index("t", &["k"], true).unwrap();
    let mut tx = db.txn().begin();
    tx.insert_pairs("t", &[("k", Datum::text("a")), ("v", Datum::Int(1))])
        .unwrap();
    let sp = tx.savepoint();
    // duplicate within the transaction: rejected
    assert!(tx
        .insert_pairs("t", &[("k", Datum::text("a")), ("v", Datum::Int(2))])
        .is_err());
    tx.rollback_to(sp).unwrap();
    // a different key works after the partial rollback
    tx.insert_pairs("t", &[("k", Datum::text("b")), ("v", Datum::Int(2))])
        .unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 2);
}

#[test]
fn savepoint_insert_refs_invalidated_after_rollback() {
    let db = db();
    let mut tx = db.txn().begin();
    let sp = tx.savepoint();
    let r = tx
        .insert_pairs("t", &[("k", Datum::text("gone")), ("v", Datum::Int(1))])
        .unwrap();
    tx.rollback_to(sp).unwrap();
    // the reference no longer resolves
    assert!(tx.read_ref(db.table_id("t").unwrap(), r).is_none());
}

/// The pending unique keys are part of the savepoint: a key taken after it
/// is free again once rolled back, and a key freed after it (its holder
/// deleted, or moved to another key) is taken again.
#[test]
fn rollback_to_restores_which_unique_keys_are_pending() {
    let db = db();
    db.create_index("t", &["k"], true).unwrap();
    let row = |k: &str| [("k", Datum::text(k)), ("v", Datum::Int(0))];
    let mut tx = db.txn().begin();
    let a = tx.insert_pairs("t", &row("a")).unwrap();
    let b = tx.insert_pairs("t", &row("b")).unwrap();
    let sp = tx.savepoint();
    tx.insert_pairs("t", &row("c")).unwrap();
    tx.delete("t", a).unwrap();
    tx.insert_pairs("t", &row("a")).unwrap();
    let mut moved = tx.read_ref(db.table_id("t").unwrap(), b).unwrap().to_vec();
    moved[1] = Datum::text("d");
    tx.update("t", b, moved).unwrap();
    tx.insert_pairs("t", &row("b")).unwrap();
    assert!(tx.insert_pairs("t", &row("c")).is_err());
    tx.rollback_to(sp).unwrap();
    // "c" and "d" are free again; "a" and "b" are back with their holders
    assert!(tx.insert_pairs("t", &row("a")).is_err());
    assert!(tx.insert_pairs("t", &row("b")).is_err());
    tx.insert_pairs("t", &row("c")).unwrap();
    tx.insert_pairs("t", &row("d")).unwrap();
    let mut keys: Vec<String> = tx
        .scan("t", &Predicate::True)
        .unwrap()
        .iter()
        .map(|(_, t)| t[1].as_text().unwrap().to_string())
        .collect();
    keys.sort();
    assert_eq!(keys, ["a", "b", "c", "d"]);
    tx.commit().unwrap();
    assert_eq!(db.count_rows("t").unwrap(), 4);
}
