//! Criterion benchmarks of isolation-level cost: the same contended
//! read-modify-write workload at each isolation level, quantifying the
//! "serializability's performance overheads" trade-off the paper's §7
//! weighs against correctness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use feral_db::{
    ColumnDef, Config, DataType, Database, Datum, IsolationLevel, Predicate, TableSchema,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn contended_db(iso: IsolationLevel) -> Database {
    let db = Database::new(Config {
        default_isolation: iso,
        ..Config::default()
    });
    db.create_table(TableSchema::new(
        "counters",
        vec![ColumnDef::new("v", DataType::Int)],
    ))
    .unwrap();
    let mut tx = db.txn().begin();
    for _ in 0..8 {
        tx.insert_pairs("counters", &[("v", Datum::Int(0))])
            .unwrap();
    }
    tx.commit().unwrap();
    db
}

/// One read-modify-write against a random-ish counter; retried on
/// concurrency aborts (as an application would).
fn rmw(db: &Database, id: i64) {
    loop {
        let mut tx = db.txn().begin();
        let result = (|| {
            let rows = tx.scan("counters", &Predicate::eq(0, id))?;
            let (rref, t) = rows.into_iter().next().expect("counter exists");
            let mut n = t.to_vec();
            n[1] = Datum::Int(t[1].as_int().unwrap() + 1);
            tx.update("counters", rref, n)
        })();
        match result.and_then(|_| tx.commit()) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
}

fn bench_isolation_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation/contended_rmw");
    group.sample_size(20);
    for iso in [
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ] {
        group.bench_with_input(
            BenchmarkId::new("level", iso.to_string()),
            &iso,
            |b, &iso| {
                let db = contended_db(iso);
                // two background threads hammer other counters to create
                // concurrent commit traffic
                let stop = Arc::new(AtomicBool::new(false));
                let mut handles = Vec::new();
                for t in 0..2i64 {
                    let db = db.clone();
                    let stop = stop.clone();
                    handles.push(thread::spawn(move || {
                        let mut k = 0i64;
                        while !stop.load(Ordering::Relaxed) {
                            rmw(&db, 2 + ((k + t) % 6));
                            k += 1;
                        }
                    }));
                }
                let mut i = 0i64;
                b.iter(|| {
                    rmw(&db, 1 + (i % 2));
                    i += 1;
                });
                stop.store(true, Ordering::Relaxed);
                for h in handles {
                    h.join().unwrap();
                }
            },
        );
    }
    group.finish();
}

fn bench_uncontended_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation/uncontended_insert");
    for iso in [IsolationLevel::ReadCommitted, IsolationLevel::Serializable] {
        group.bench_with_input(
            BenchmarkId::new("level", iso.to_string()),
            &iso,
            |b, &iso| {
                let db = contended_db(iso);
                b.iter(|| {
                    let mut tx = db.txn().begin();
                    tx.insert_pairs("counters", &[("v", Datum::Int(7))])
                        .unwrap();
                    tx.commit().unwrap();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_isolation_levels, bench_uncontended_commit);
criterion_main!(benches);
