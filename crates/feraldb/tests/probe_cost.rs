//! What an equality probe on a unique index allocates: its result vector
//! and nothing else. The probe key is built on the stack, a key's single
//! posting sits in the index node (in its dense slot, for the primary key)
//! and the newest row version in its heap slot, so a hit costs one
//! allocation and a miss none — an id missing inside the primary key's
//! dense run or past its end as much as an e-mail.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use feral_db::{ColumnDef, DataType, Database, Datum, Predicate, TableSchema};

#[test]
fn an_equality_probe_on_a_unique_index_allocates_only_its_result() {
    let db = Database::in_memory();
    db.create_table(TableSchema::new(
        "users",
        vec![ColumnDef::new("email", DataType::Text)],
    ))
    .unwrap();
    db.create_index("users", &["email"], true).unwrap();
    let email = |i: i64| Datum::text(format!("u{i:07}@example.com"));
    db.txn()
        .run(|tx| {
            for i in 0..64 {
                tx.insert_pairs("users", &[("email", email(i))])?;
            }
            // ids 65..=99 stay vacant inside the dense run
            tx.insert("users", vec![Datum::Int(100), email(100)])?;
            Ok(())
        })
        .unwrap();
    let by_email = Predicate::eq(1, email(17));
    let by_id = Predicate::eq(0, 18i64);
    let missing = Predicate::eq(1, email(64));
    let vacant_id = Predicate::eq(0, 80i64);
    let id_past_the_run = Predicate::eq(0, 1i64 << 40);
    let mut tx = db.txn().begin();
    // the first statement fills this thread's stats stripe
    tx.scan("users", &by_email).unwrap();
    for (probe, rows) in [
        (&by_email, 1),
        (&by_id, 1),
        (&missing, 0),
        (&vacant_id, 0),
        (&id_past_the_run, 0),
    ] {
        let mut found = Vec::new();
        let allocations = allocations_of(|| found = tx.scan("users", probe).unwrap());
        assert_eq!(found.len(), rows, "{probe:?}");
        assert_eq!(
            allocations, rows as u64,
            "{probe:?}: the result vector only"
        );
    }
    assert_eq!(db.stats().snapshot().index_probes, 6);
}
