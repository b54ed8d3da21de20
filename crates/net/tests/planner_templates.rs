//! The planner workload's five templates against `seeded_database`: every
//! probe a template issues is index-backed (a template that falls back to
//! a table walk trips `index_probes == scans`), and what a template
//! transaction allocates is pinned the way `request_cost.rs` pins the ORM.
//!
//! Allocations per template transaction, single caller, after warm-up
//! (before the write-path diet → now): signup 30.2 → 28.4 (it now keeps
//! an e-mail index, which costs it four), hire 30.2 → 23.2, disband
//! 33.2 → 26.4, deposit 22.3 → 10.3, comment 24.2 → 17.2. Each bound
//! sits two above what the diet reaches, so three `BTreeSet`s, a cloned
//! lock key or an encoded-to-compare index key coming back trips it.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use feral_db::{AuditMode, Database, DbError, IsolationPlan};
use feral_net::planner::{
    certified_plan, comment_at, deposit_at, disband_at, hire_at, seeded_database, signup_at,
    WorkloadState, TEMPLATES, T_COMMENT, T_DEPOSIT, T_DISBAND, T_HIRE, T_SIGNUP,
};

/// Run `template` once with operand `n` (folded onto the template's domain).
fn run(
    template: &str,
    db: &Database,
    plan: &IsolationPlan,
    state: &WorkloadState,
    n: usize,
) -> Result<(), DbError> {
    match template {
        T_SIGNUP => signup_at(db, plan, 1_000 + n as i64),
        T_HIRE => hire_at(db, plan, state, n % 8),
        T_DISBAND => disband_at(db, plan, state, n % 8),
        T_DEPOSIT => deposit_at(db, plan, state, (n % 8) as i64),
        T_COMMENT => comment_at(db, plan, (n % 8) as i64),
        other => panic!("unknown template {other}"),
    }
}

#[test]
fn every_template_probe_is_index_backed() {
    let plan = certified_plan();
    for template in TEMPLATES {
        let db = seeded_database(AuditMode::Off);
        let state = WorkloadState::new();
        if template == T_DISBAND {
            // give the cascade something to delete
            for _ in 0..3 {
                hire_at(&db, &plan, &state, 0).unwrap();
            }
        }
        let before = db.stats().snapshot();
        run(template, &db, &plan, &state, 0).unwrap();
        let spent = db.stats().snapshot().diff(&before);
        assert!(
            spent.scans > 0 && spent.commits == 1,
            "{template}: {spent:?}"
        );
        assert_eq!(
            spent.index_probes, spent.scans,
            "{template} walked a table: {spent:?}"
        );
        if template == T_DISBAND {
            assert_eq!(spent.deletes, 4, "three users and their department");
            assert_eq!(db.count_rows("users").unwrap(), 0);
        }
    }
}

#[test]
fn a_template_transaction_allocates_within_its_budget() {
    let plan = certified_plan();
    let budgets = [
        (T_SIGNUP, 30.5),
        (T_HIRE, 25.5),
        (T_DISBAND, 28.5),
        (T_DEPOSIT, 12.5),
        (T_COMMENT, 19.5),
    ];
    for (template, budget) in budgets {
        let db = seeded_database(AuditMode::Off);
        let state = WorkloadState::new();
        // warm-up: thread stripes, the first growth of every table
        for n in 0..16 {
            run(template, &db, &plan, &state, n).unwrap();
        }
        const CALLS: usize = 64;
        let allocations = allocations_of(|| {
            for n in 16..16 + CALLS {
                run(template, &db, &plan, &state, n).unwrap();
            }
        });
        let per_txn = allocations as f64 / CALLS as f64;
        assert!(
            per_txn <= budget,
            "{template}: {per_txn} allocations per transaction (budget {budget})"
        );
    }
}
