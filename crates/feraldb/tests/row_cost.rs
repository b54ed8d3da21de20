//! What one stored row costs: the blocks and bytes a `users` row of the
//! benchmark's shape keeps live once committed — its image, its heap slot
//! and its entries in the primary-key and e-mail indexes. The image is
//! one allocation (datums and reference count together) and holds the
//! e-mail and the name in place; the primary key posts the row in an
//! 8-byte slot of its dense `id → row` vector. So a row costs that
//! allocation, its boxed bio, its heap slot, its primary-key slot and its
//! share of the e-mail index's nodes: 2.14 blocks and 378 bytes. With the
//! primary key in a B-tree of 48-byte entries, whose leaves ascending ids
//! leave 55 % full, it cost 2.31 blocks and 463 bytes; before that, 5.31
//! blocks and 653 bytes with an `Arc<Vec>` image of 32-byte datums, every
//! string boxed, 72-byte index entries and a 48-byte heap slot. The
//! bounds are the measured counts with a little room, so a datum, a key
//! or a slot that grows back, a string that leaves its place, or ids that
//! fall out of the dense vector, trips them.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::live_of;
use feral_db::{ColumnDef, DataType, Database, Datum, TableSchema};

/// Rows stored, each by a transaction of its own (an accepted signup).
/// With the one stored before counting they fill the heap's slot vector
/// and the primary key's dense vector to their capacity, so no half-used
/// growth is charged to them.
const ROWS: u64 = 16_383;

/// The benchmark's bio (95 bytes).
const BIO: &str = "Feral concurrency control: application-level validations \
                   standing in for database constraints.";

fn users() -> Database {
    let db = Database::in_memory();
    db.create_table(TableSchema::new(
        "users",
        vec![
            ColumnDef::new("email", DataType::Text),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("bio", DataType::Text),
            ColumnDef::new("created_at", DataType::Timestamp),
            ColumnDef::new("updated_at", DataType::Timestamp),
        ],
    ))
    .unwrap();
    db.create_index("users", &["email"], false).unwrap();
    db
}

/// The benchmark's user attributes for e-mail key `key`: a 20-byte
/// e-mail and a name of about 11 bytes.
fn user(key: u64) -> [(&'static str, Datum); 5] {
    let stamp = Datum::Timestamp(1_420_070_400_000_000);
    [
        ("email", Datum::text(format!("u{key:07}@example.com"))),
        ("name", Datum::text(format!("user {key}"))),
        ("bio", Datum::text(BIO)),
        ("created_at", stamp.clone()),
        ("updated_at", stamp),
    ]
}

#[test]
fn a_stored_user_row_costs_one_image_its_bio_and_its_index_entries() {
    let db = users();
    let insert = |key: u64| {
        db.txn()
            .run(|tx| tx.insert_pairs("users", &user(key)))
            .unwrap();
    };
    // the first commit fills this thread's stats stripe and the pipeline
    insert(0);
    let (blocks, bytes) = live_of(|| {
        // e-mails spread over the key space as the benchmark's preload
        // spreads them, so the e-mail index is not filled in order
        for row in 1..=ROWS {
            insert(row * 7919 % 1_000_000);
        }
    });
    assert_eq!(db.count_rows("users").unwrap() as u64, ROWS + 1);
    let per_row = blocks as f64 / ROWS as f64;
    let bytes_per_row = bytes as f64 / ROWS as f64;
    assert!(per_row <= 2.2, "{per_row} live allocations per stored row");
    assert!(
        bytes_per_row <= 385.0,
        "{bytes_per_row} live bytes per stored row"
    );
}
