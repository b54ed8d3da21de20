//! Property-based tests for the storage engine.

use feral_db::{
    ColumnDef, DataType, Database, Datum, DbError, IsolationLevel, Predicate, TableSchema,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Int),
        any::<f64>().prop_map(Datum::Float),
        "[a-z]{0,12}".prop_map(Datum::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(|b| Datum::Bytes(b.into())),
        any::<i64>().prop_map(Datum::Timestamp),
    ]
}

proptest! {
    /// The order-preserving key encoding must agree with `Datum`'s total
    /// order for same-type datums (the property indexes rely on).
    #[test]
    fn key_encoding_is_order_preserving(a in arb_datum(), b in arb_datum()) {
        let same_family = match (&a, &b) {
            (Datum::Int(_) | Datum::Float(_), Datum::Int(_) | Datum::Float(_)) => false,
            _ => std::mem::discriminant(&a) == std::mem::discriminant(&b),
        };
        if same_family {
            let mut ka = vec![];
            let mut kb = vec![];
            a.encode_key(&mut ka);
            b.encode_key(&mut kb);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }
    }

    /// Hash must be consistent with equality (Datum implements both via the
    /// key encoding).
    #[test]
    fn datum_hash_consistent_with_eq(a in arb_datum(), b in arb_datum()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |d: &Datum| {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        };
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }
}

/// A serial op sequence applied both to the engine and to a naive model
/// must agree on final table contents.
#[derive(Debug, Clone)]
enum Op {
    Insert(String, i64),
    UpdateWhere(String, i64),
    DeleteWhere(String),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = "[a-d]";
    prop_oneof![
        (key, any::<i8>()).prop_map(|(k, v)| Op::Insert(k, v as i64)),
        (key, any::<i8>()).prop_map(|(k, v)| Op::UpdateWhere(k, v as i64)),
        key.prop_map(Op::DeleteWhere),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engine_matches_naive_model_serially(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let db = Database::in_memory();
        db.create_table(TableSchema::new("t", vec![
            ColumnDef::new("k", DataType::Text),
            ColumnDef::new("v", DataType::Int),
        ])).unwrap();
        // model: id -> (k, v)
        let mut model: HashMap<i64, (String, i64)> = HashMap::new();
        let mut next_id = 1i64;
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let mut tx = db.txn().begin();
                    tx.insert_pairs("t", &[("k", Datum::text(k.clone())), ("v", Datum::Int(*v))]).unwrap();
                    tx.commit().unwrap();
                    model.insert(next_id, (k.clone(), *v));
                    next_id += 1;
                }
                Op::UpdateWhere(k, v) => {
                    let mut tx = db.txn().begin();
                    let rows = tx.scan("t", &Predicate::eq(1, k.as_str())).unwrap();
                    for (rref, t) in rows {
                        let mut n = t.to_vec();
                        n[2] = Datum::Int(*v);
                        tx.update("t", rref, n).unwrap();
                    }
                    tx.commit().unwrap();
                    for (_, (mk, mv)) in model.iter_mut() {
                        if mk == k { *mv = *v; }
                    }
                }
                Op::DeleteWhere(k) => {
                    let mut tx = db.txn().begin();
                    tx.delete_where("t", &Predicate::eq(1, k.as_str())).unwrap();
                    tx.commit().unwrap();
                    model.retain(|_, (mk, _)| mk != k);
                }
            }
        }
        // compare
        let mut tx = db.txn().begin();
        let rows = tx.scan("t", &Predicate::True).unwrap();
        prop_assert_eq!(rows.len(), model.len());
        for (_, t) in rows {
            let id = t[0].as_int().unwrap();
            let (mk, mv) = model.get(&id).expect("row not in model");
            prop_assert_eq!(t[1].as_text().unwrap(), mk.as_str());
            prop_assert_eq!(t[2].as_int().unwrap(), *mv);
        }
    }

    /// Repeatable Read: a scan result never changes within a transaction,
    /// regardless of interleaved commits.
    #[test]
    fn repeatable_read_scans_are_stable(
        pre in proptest::collection::vec("[a-c]", 0..6),
        post in proptest::collection::vec("[a-c]", 1..6),
    ) {
        let db = Database::in_memory();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("k", DataType::Text)])).unwrap();
        for k in &pre {
            let mut tx = db.txn().begin();
            tx.insert_pairs("t", &[("k", Datum::text(k.clone()))]).unwrap();
            tx.commit().unwrap();
        }
        let mut reader = db.txn().isolation(IsolationLevel::RepeatableRead).begin();
        let first = reader.scan("t", &Predicate::True).unwrap().len();
        for k in &post {
            let mut tx = db.txn().begin();
            tx.insert_pairs("t", &[("k", Datum::text(k.clone()))]).unwrap();
            tx.commit().unwrap();
        }
        let second = reader.scan("t", &Predicate::True).unwrap().len();
        prop_assert_eq!(first, second);
        prop_assert_eq!(first, pre.len());
        reader.commit().unwrap();
        let mut fresh = db.txn().begin();
        prop_assert_eq!(fresh.scan("t", &Predicate::True).unwrap().len(), pre.len() + post.len());
    }

    /// A unique index admits exactly one row per key no matter the insert
    /// order or interleaving of commits/rollbacks.
    #[test]
    fn unique_index_admits_one_row_per_key(keys in proptest::collection::vec("[a-c]", 1..24)) {
        let db = Database::in_memory();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("k", DataType::Text)])).unwrap();
        db.create_index("t", &["k"], true).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for k in &keys {
            let mut tx = db.txn().begin();
            match tx.insert_pairs("t", &[("k", Datum::text(k.clone()))]) {
                Ok(_) => {
                    tx.commit().unwrap();
                    prop_assert!(distinct.insert(k.clone()), "duplicate admitted for {}", k);
                }
                Err(DbError::UniqueViolation { .. }) => {
                    tx.rollback();
                    prop_assert!(distinct.contains(k), "spurious violation for {}", k);
                }
                Err(e) => prop_assert!(false, "unexpected error {}", e),
            }
        }
        prop_assert_eq!(db.count_rows("t").unwrap(), distinct.len());
    }

    /// Index range scans agree with full scans for range predicates.
    #[test]
    fn index_range_scan_equals_full_scan(
        values in proptest::collection::vec(-20i64..20, 0..40),
        lo in -25i64..25,
        width in 0i64..20,
    ) {
        use feral_db::CmpOp;
        let hi = lo + width;
        let indexed = Database::in_memory();
        let plain = Database::in_memory();
        for db in [&indexed, &plain] {
            db.create_table(TableSchema::new("t", vec![ColumnDef::new("v", DataType::Int)])).unwrap();
        }
        indexed.create_index("t", &["v"], false).unwrap();
        for v in &values {
            for db in [&indexed, &plain] {
                let mut tx = db.txn().begin();
                tx.insert_pairs("t", &[("v", Datum::Int(*v))]).unwrap();
                tx.commit().unwrap();
            }
        }
        let pred = Predicate::Cmp { col: 1, op: CmpOp::Ge, value: Datum::Int(lo) }
            .and(Predicate::Cmp { col: 1, op: CmpOp::Lt, value: Datum::Int(hi) });
        let mut ti = indexed.txn().begin();
        let mut tp = plain.txn().begin();
        let a = ti.scan("t", &pred).unwrap().len();
        let b = tp.scan("t", &pred).unwrap().len();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, values.iter().filter(|v| **v >= lo && **v < hi).count());
    }

    /// Index-probed scans agree with full scans for equality predicates.
    #[test]
    fn index_probe_equals_full_scan(keys in proptest::collection::vec("[a-e]", 0..30), probe in "[a-e]") {
        let indexed = Database::in_memory();
        let plain = Database::in_memory();
        for db in [&indexed, &plain] {
            db.create_table(TableSchema::new("t", vec![ColumnDef::new("k", DataType::Text)])).unwrap();
        }
        indexed.create_index("t", &["k"], false).unwrap();
        for k in &keys {
            for db in [&indexed, &plain] {
                let mut tx = db.txn().begin();
                tx.insert_pairs("t", &[("k", Datum::text(k.clone()))]).unwrap();
                tx.commit().unwrap();
            }
        }
        let pred = Predicate::eq(1, probe.as_str());
        let mut ti = indexed.txn().begin();
        let mut tp = plain.txn().begin();
        let a = ti.scan("t", &pred).unwrap().len();
        let b = tp.scan("t", &pred).unwrap().len();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, keys.iter().filter(|k| **k == probe).count());
    }
}
