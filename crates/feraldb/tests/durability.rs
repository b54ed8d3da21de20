//! Durability tests: WAL-backed databases survive restart with schema,
//! data, indexes, constraints, id sequences, and version history intact.

use feral_db::{
    ColumnDef, Config, DataType, Database, Datum, DbError, OnDelete, Predicate, TableSchema,
};
use std::path::PathBuf;

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("feral-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}.wal"));
    let _ = std::fs::remove_file(&p);
    p
}

fn config(path: &std::path::Path) -> Config {
    Config {
        wal_path: Some(path.to_path_buf()),
        ..Config::default()
    }
}

fn users_schema() -> TableSchema {
    TableSchema::new(
        "users",
        vec![
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Int),
        ],
    )
}

#[test]
fn data_survives_reopen() {
    let path = wal_path("basic");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("peter")), ("score", Datum::Int(7))],
        )
        .unwrap();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("alan")), ("score", Datum::Int(9))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let db = Database::open(config(&path)).unwrap();
    let mut tx = db.txn().begin();
    let rows = tx.scan("users", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 2);
    let peter = tx.scan("users", &Predicate::eq(1, "peter")).unwrap();
    assert_eq!(peter[0].1[2], Datum::Int(7));
}

#[test]
fn updates_deletes_and_id_sequence_survive() {
    let path = wal_path("mutations");
    let peter_id;
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        let mut tx = db.txn().begin();
        let p = tx
            .insert_pairs(
                "users",
                &[("name", Datum::text("peter")), ("score", Datum::Int(1))],
            )
            .unwrap();
        peter_id = tx.read_ref(db.table_id("users").unwrap(), p).unwrap()[0]
            .as_int()
            .unwrap();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("doomed")), ("score", Datum::Int(0))],
        )
        .unwrap();
        tx.commit().unwrap();
        // update peter, delete doomed
        let mut tx = db.txn().begin();
        let (r, t) = tx.get_by_id("users", peter_id).unwrap().unwrap();
        let mut n = t.to_vec();
        n[2] = Datum::Int(100);
        tx.update("users", r, n).unwrap();
        let rows = tx.scan("users", &Predicate::eq(1, "doomed")).unwrap();
        tx.delete("users", rows[0].0).unwrap();
        tx.commit().unwrap();
    }
    let db = Database::open(config(&path)).unwrap();
    let mut tx = db.txn().begin();
    let all = tx.scan("users", &Predicate::True).unwrap();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].1[2], Datum::Int(100));
    // id sequence resumes past recovered ids
    let r = tx
        .insert_pairs(
            "users",
            &[("name", Datum::text("new")), ("score", Datum::Int(0))],
        )
        .unwrap();
    let new_id = tx.read_ref(db.table_id("users").unwrap(), r).unwrap()[0]
        .as_int()
        .unwrap();
    assert!(
        new_id > peter_id,
        "id sequence must not reuse recovered ids"
    );
    tx.commit().unwrap();
}

#[test]
fn constraints_survive_reopen() {
    let path = wal_path("constraints");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        db.create_table(TableSchema::new(
            "posts",
            vec![ColumnDef::new("user_id", DataType::Int)],
        ))
        .unwrap();
        db.create_index("users", &["name"], true).unwrap();
        db.add_foreign_key("posts", "user_id", "users", OnDelete::Cascade)
            .unwrap();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("peter")), ("score", Datum::Int(0))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let db = Database::open(config(&path)).unwrap();
    // unique index recovered and enforced
    let mut tx = db.txn().begin();
    let err = tx
        .insert_pairs(
            "users",
            &[("name", Datum::text("peter")), ("score", Datum::Int(1))],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }));
    tx.rollback();
    // FK recovered and enforced
    let mut tx = db.txn().begin();
    let err = tx
        .insert_pairs("posts", &[("user_id", Datum::Int(999))])
        .unwrap_err();
    assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
    tx.rollback();
    // cascade works after recovery
    let mut tx = db.txn().begin();
    let users = tx.scan("users", &Predicate::eq(1, "peter")).unwrap();
    let uid = users[0].1[0].as_int().unwrap();
    tx.insert_pairs("posts", &[("user_id", Datum::Int(uid))])
        .unwrap();
    tx.commit().unwrap();
    let mut tx = db.txn().begin();
    let users = tx.scan("users", &Predicate::eq(1, "peter")).unwrap();
    tx.delete("users", users[0].0).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.count_rows("posts").unwrap(), 0);
}

#[test]
fn rolled_back_transactions_never_reach_the_log() {
    let path = wal_path("rollback");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("ghost")), ("score", Datum::Int(0))],
        )
        .unwrap();
        tx.rollback();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "users",
            &[("name", Datum::text("real")), ("score", Datum::Int(1))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let db = Database::open(config(&path)).unwrap();
    let mut tx = db.txn().begin();
    let rows = tx.scan("users", &Predicate::True).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[1], Datum::text("real"));
}

#[test]
fn torn_tail_loses_only_the_last_commit() {
    let path = wal_path("torn");
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        for i in 0..5 {
            let mut tx = db.txn().begin();
            tx.insert_pairs(
                "users",
                &[
                    ("name", Datum::text(format!("u{i}"))),
                    ("score", Datum::Int(i)),
                ],
            )
            .unwrap();
            tx.commit().unwrap();
        }
    }
    // simulate a crash mid-append of the final record
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let db = Database::open(config(&path)).unwrap();
    assert_eq!(db.count_rows("users").unwrap(), 4);
    // and the database keeps working (new appends land after the tail)
    let mut tx = db.txn().begin();
    tx.insert_pairs(
        "users",
        &[
            ("name", Datum::text("post-crash")),
            ("score", Datum::Int(9)),
        ],
    )
    .unwrap();
    tx.commit().unwrap();
    drop(db);
    let db = Database::open(config(&path)).unwrap();
    assert_eq!(db.count_rows("users").unwrap(), 5);
}

#[test]
fn multi_version_history_collapses_to_latest_on_recovery() {
    let path = wal_path("versions");
    let id;
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        let mut tx = db.txn().begin();
        let r = tx
            .insert_pairs(
                "users",
                &[("name", Datum::text("x")), ("score", Datum::Int(0))],
            )
            .unwrap();
        id = tx.read_ref(db.table_id("users").unwrap(), r).unwrap()[0]
            .as_int()
            .unwrap();
        tx.commit().unwrap();
        for v in 1..10 {
            let mut tx = db.txn().begin();
            let (r, t) = tx.get_by_id("users", id).unwrap().unwrap();
            let mut n = t.to_vec();
            n[2] = Datum::Int(v);
            tx.update("users", r, n).unwrap();
            tx.commit().unwrap();
        }
    }
    let db = Database::open(config(&path)).unwrap();
    let mut tx = db.txn().begin();
    let (_, t) = tx.get_by_id("users", id).unwrap().unwrap();
    assert_eq!(t[2], Datum::Int(9));
}

/// A log whose highest id is `i64::MAX` reopens — replay computes the
/// next id with checked arithmetic — and the exhausted sequence refuses
/// the next insert that leaves `id` NULL instead of wrapping to
/// `i64::MIN`. Explicit ids still go in, and still after a second reopen.
#[test]
fn an_exhausted_id_sequence_survives_recovery_and_never_wraps() {
    let path = wal_path("exhausted-sequence");
    let named = |name: &str| [("name", Datum::text(name)), ("score", Datum::Int(1))];
    {
        let db = Database::open(config(&path)).unwrap();
        db.create_table(users_schema()).unwrap();
        db.txn()
            .run(|tx| {
                tx.insert_pairs("users", &named("first"))?;
                tx.insert(
                    "users",
                    vec![Datum::Int(i64::MAX), Datum::text("last"), Datum::Int(1)],
                )
            })
            .unwrap();
    }
    for reopen in 0..2 {
        let db = Database::open(config(&path)).unwrap();
        let exhausted = db.txn().run(|tx| tx.insert_pairs("users", &named("next")));
        assert_eq!(
            exhausted,
            Err(DbError::SequenceExhausted("users".into())),
            "reopen {reopen}"
        );
        db.txn()
            .run(|tx| {
                tx.insert(
                    "users",
                    vec![Datum::Int(-reopen), Datum::text("explicit"), Datum::Int(1)],
                )
            })
            .unwrap();
        let mut tx = db.txn().begin();
        let ids: Vec<i64> = tx
            .scan("users", &Predicate::True)
            .unwrap()
            .iter()
            .map(|(_, t)| t[0].as_int().unwrap())
            .collect();
        let mut want = vec![1, i64::MAX];
        want.extend((0..=reopen).map(|r| -r));
        assert_eq!(ids, want);
    }
}
