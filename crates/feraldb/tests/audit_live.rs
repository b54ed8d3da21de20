//! Live-engine audit tests: the runtime dependency-graph observer
//! wired into the commit pipeline must certify real executions —
//! detecting the paper's probe-then-insert race and classic write skew
//! as they happen, staying silent on serializable executions, and
//! mirroring its counters into [`feral_db::Stats`] — and what sampled
//! auditing costs the committing thread, counted in allocations.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use feral_db::{
    AuditMode, ColumnDef, Config, DataType, Database, Datum, IsolationLevel, IsolationPlan,
    Predicate, TableSchema,
};

mod common;

fn audited_db(iso: IsolationLevel, mode: AuditMode) -> Database {
    audited_db_with(iso, mode, None)
}

fn audited_db_with(
    iso: IsolationLevel,
    mode: AuditMode,
    wal_path: Option<std::path::PathBuf>,
) -> Database {
    let db = Database::new(Config {
        default_isolation: iso,
        audit_mode: mode,
        wal_path,
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

/// Interleaved probe-then-insert on two disjoint keys: each
/// transaction's predicate read races the other's insert — write skew.
/// Snapshot isolation admits it; the auditor must catch it live.
fn run_write_skew(
    db: &Database,
    iso: IsolationLevel,
) -> (Result<(), feral_db::DbError>, Result<(), feral_db::DbError>) {
    let mut t1 = db.txn().isolation(iso).label("probe-insert:kv.a").begin();
    let mut t2 = db.txn().isolation(iso).label("probe-insert:kv.b").begin();
    assert!(t1.scan("kv", &Predicate::eq(1, "a")).unwrap().is_empty());
    assert!(t2.scan("kv", &Predicate::eq(1, "b")).unwrap().is_empty());
    t1.insert_pairs("kv", &[("k", Datum::text("b")), ("v", Datum::Int(1))])
        .unwrap();
    t2.insert_pairs("kv", &[("k", Datum::text("a")), ("v", Datum::Int(2))])
        .unwrap();
    (t1.commit(), t2.commit())
}

#[test]
fn snapshot_isolation_write_skew_is_detected_live() {
    let db = audited_db(IsolationLevel::Snapshot, AuditMode::Full);
    let (r1, r2) = run_write_skew(&db, IsolationLevel::Snapshot);
    r1.unwrap();
    r2.unwrap();
    let snap = db.audit_snapshot().expect("auditing is on");
    assert_eq!(snap.cycles, 1, "SI admitted the skew; auditor must see it");
    let v = &snap.verdicts[0];
    assert_eq!(v.txns.len(), 2);
    assert!(v.templates.iter().any(|t| t.starts_with("probe-insert:kv")));
    assert!(v.cells.iter().all(|c| c.ends_with("@snapshot")));
    // Engine stats mirror the auditor's counters.
    let stats = db.stats().snapshot();
    assert_eq!(stats.audit_cycles, 1);
    assert!(stats.audit_edges >= 2);
    assert_eq!(stats.audit_drops, 0);
    // The snapshot round-trips through its reader.
    assert_eq!(
        feral_db::AuditSnapshot::from_json(&snap.to_json()).unwrap(),
        snap
    );
}

/// The footprint is delivered from the commit tail, on whichever thread
/// completes it. The same skew committed through `defer_durable` — the
/// first commit settled when the second is deferred, the second from its
/// flush completion — gets the same verdict and the same edge count as
/// two synchronous commits on a log-bound database.
#[test]
fn deferred_commits_leave_the_same_audit_trail() {
    let audit = |name: &str, deferred: bool| {
        let path = common::wal_path("audit-live", name);
        let db = audited_db_with(IsolationLevel::Snapshot, AuditMode::Full, Some(path));
        if deferred {
            let ((r1, r2), pending) =
                feral_db::defer_durable(|| run_write_skew(&db, IsolationLevel::Snapshot));
            r1.and(r2).unwrap();
            assert_eq!(db.stats().snapshot().commits, 1, "the second is parked");
            let (tx, rx) = std::sync::mpsc::channel();
            pending
                .expect("a logged commit in the scope is deferred")
                .on_complete(move |durable| tx.send(durable).unwrap());
            rx.recv().unwrap().unwrap();
        } else {
            let (r1, r2) = run_write_skew(&db, IsolationLevel::Snapshot);
            r1.and(r2).unwrap();
        }
        let snap = db.audit_snapshot().expect("auditing is on");
        let stats = db.stats().snapshot();
        assert_eq!((stats.commits, stats.aborts), (2, 0));
        let verdicts: Vec<_> = snap
            .verdicts
            .iter()
            .map(|v| (v.templates.clone(), v.cells.clone()))
            .collect();
        (snap.cycles, snap.edges, stats.audit_edges, verdicts)
    };
    let synchronous = audit("sync", false);
    assert_eq!(synchronous.0, 1, "SI admitted the skew");
    assert_eq!(audit("deferred", true), synchronous);
}

#[test]
fn serializable_blocks_the_skew_and_audits_clean() {
    let db = audited_db(IsolationLevel::Serializable, AuditMode::Full);
    let (r1, r2) = run_write_skew(&db, IsolationLevel::Serializable);
    assert!(
        r1.is_err() || r2.is_err(),
        "serializable must abort one side"
    );
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.cycles, 0, "no anomaly survives serializable");
    assert_eq!(db.stats().snapshot().audit_cycles, 0);
}

#[test]
fn audit_off_has_no_observer() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Off);
    assert!(db.audit_snapshot().is_none());
    assert!(db.audit_mode().is_off());
    let mut tx = db.txn().begin();
    tx.insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
        .unwrap();
    tx.commit().unwrap();
    assert_eq!(db.stats().snapshot().audit_edges, 0);
}

#[test]
fn sampled_mode_still_counts_every_commit() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Sampled(4));
    for i in 0..16i64 {
        let mut tx = db.txn().label("bulk-insert:kv").begin();
        tx.insert_pairs(
            "kv",
            &[("k", Datum::text(format!("k{i}"))), ("v", Datum::Int(i))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.mode, "sampled/4");
    assert_eq!(
        snap.footprints, 16,
        "write footprints are never sampled out"
    );
    let cell = snap
        .cells
        .iter()
        .find(|c| c.template == "bulk-insert:kv")
        .expect("plan cell attributed");
    assert_eq!(cell.commits, 16);
    assert_eq!(cell.isolation, "read committed");
}

#[test]
fn unplanned_templates_bump_the_failsafe_counter() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Full);
    let mut plan = IsolationPlan::new(IsolationLevel::Serializable);
    plan.assign("known-template", IsolationLevel::ReadCommitted);
    assert!(plan.assigned("known-template"));
    assert!(!plan.assigned("unknown-template"));

    db.txn()
        .planned(&plan, "known-template")
        .run(|_| Ok(()))
        .unwrap();
    assert_eq!(db.stats().snapshot().plan_failsafe_escalations, 0);

    let tx = db.txn().planned(&plan, "unknown-template");
    let t = tx.begin();
    assert_eq!(t.isolation(), IsolationLevel::Serializable, "fail-safe");
    drop(t);
    assert_eq!(db.stats().snapshot().plan_failsafe_escalations, 1);
}

#[test]
fn aborted_transactions_leave_no_footprint() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Full);
    let mut tx = db.txn().label("doomed").begin();
    tx.insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
        .unwrap();
    tx.rollback();
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.footprints, 0);
    assert!(snap.cells.iter().all(|c| c.template != "doomed"));
}

/// Allocations the committing thread makes per probe-then-insert
/// transaction at `mode`, over `TXNS` transactions after a warm-up. The
/// auditor drains inline (`audit_background: false`), so the graph work
/// lands on this thread whatever the core count, and `TXNS` is a
/// multiple of 16, so a `Sampled(16)` run audits exactly one in 16. The
/// warm-up is long enough that every lock-table stripe has allocated
/// its map, so no stripe's first use falls inside the window.
fn audit_allocations_per_txn(mode: AuditMode) -> f64 {
    const WARM: usize = 256;
    const TXNS: usize = 64;
    let db = Database::new(Config {
        default_isolation: IsolationLevel::ReadCommitted,
        audit_mode: mode,
        audit_background: false,
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
    let probe_insert = |i: usize| {
        let key = format!("k{i}");
        db.txn()
            .label("probe-insert:kv.k")
            .run(|tx| {
                if tx.scan("kv", &Predicate::eq(1, key.as_str()))?.is_empty() {
                    tx.insert_pairs(
                        "kv",
                        &[("k", Datum::text(key.as_str())), ("v", Datum::Int(1))],
                    )?;
                }
                Ok(())
            })
            .unwrap();
    };
    (0..WARM).for_each(probe_insert);
    let allocations = allocations_of(|| (WARM..WARM + TXNS).for_each(probe_insert));
    allocations as f64 / TXNS as f64
}

/// Sampled auditing's cost, as a count that does not drift: what
/// `Sampled(16)` adds per transaction over auditor-off is at most an
/// eighth of what `Full` adds (measured: off 9.03, sampled +0.64, full
/// +10.13; an unaudited commit builds no write summary, an audited one
/// does). A sampler that admits every transaction, or a
/// per-transaction cost that sampling no longer sheds, reads as `Full`.
#[test]
fn sampled_auditing_costs_a_committer_at_most_an_eighth_of_full() {
    let off = audit_allocations_per_txn(AuditMode::Off);
    let sampled = audit_allocations_per_txn(AuditMode::Sampled(16)) - off;
    let full = audit_allocations_per_txn(AuditMode::Full) - off;
    println!("off {off}, sampled +{sampled}, full +{full} allocations per transaction");
    assert!(full > 0.0, "full auditing allocated nothing: off {off}");
    assert!(
        sampled <= full / 8.0,
        "Sampled(16) adds {sampled} allocations per transaction, more than an eighth \
         of Full's {full} (auditor-off {off})"
    );
}

/// The allocations each of the first 16 probe-then-insert transactions of
/// a fresh database makes, auditor off. Each insert locks a new key, and
/// the first key a lock-table stripe sees allocates the stripe's map.
fn first_transactions_allocations() -> Vec<u64> {
    let db = Database::new(Config {
        default_isolation: IsolationLevel::Serializable,
        ..Config::default()
    });
    db.create_table(TableSchema::new(
        "kv",
        vec![ColumnDef::new("k", DataType::Text)],
    ))
    .unwrap();
    db.create_index("kv", &["k"], true).unwrap();
    (0..16)
        .map(|i| {
            let key = format!("k{i}");
            allocations_of(|| {
                db.txn()
                    .run(|tx| {
                        if tx.scan("kv", &Predicate::eq(1, key.as_str()))?.is_empty() {
                            tx.insert_pairs("kv", &[("k", Datum::text(key.as_str()))])?;
                        }
                        Ok(())
                    })
                    .unwrap()
            })
        })
        .collect()
}

/// A fresh database's allocations repeat exactly, transaction by
/// transaction: the lock table picks a key's stripe with a fixed-key
/// hash, so the same keys touch the same stripes — and allocate their
/// maps at the same transactions — in every database and every run. (The
/// first database a thread runs also fills the thread's own state, so it
/// is run and left uncompared.)
#[test]
fn two_fresh_databases_allocate_alike_transaction_by_transaction() {
    first_transactions_allocations();
    let first = first_transactions_allocations();
    assert_eq!(first, first_transactions_allocations());
}
