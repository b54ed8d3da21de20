//! The planner workload's five templates against `seeded_database`: every
//! probe a template issues is index-backed (a template that falls back to
//! a table walk trips `index_probes == scans`), and what a template
//! transaction allocates is pinned the way `request_cost.rs` pins the ORM.
//!
//! Allocations per template transaction, single caller, after warm-up
//! (before index keys, single postings and the newest row version moved
//! into the index and heap slots → with them → with one-allocation row
//! images that keep short strings in place → with no write summary built
//! unless the auditor samples the commit): signup 28.4 → 16.4 → 12.4 →
//! 10.2, hire 23.2 → 15.2 → 13.2 → 11.1, disband 26.4 → 15.4 → 15.4 →
//! 13.2, deposit 10.3 → 8.3 → 8.3 → 6.3, comment 17.2 → 10.2 → 10.2 →
//! 8.1 (before the write-path diet: 30.2, 30.2, 33.2, 22.3, 24.2). Each
//! bound sits two above what is reached, so three `BTreeSet`s, a cloned
//! lock key, an index key that allocates, a row image that splits again
//! or a write summary built for every commit coming back trips it.
//!
//! Building the served plan is pinned the same way: `certified_plan()`
//! reads a const table, so it allocates the plan's map node and one key
//! per template (6; 42,305 when it re-ran isolation inference), and the
//! bound of 8 trips if inference comes back onto the serving path.

#[path = "../../core/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use feral_db::{AuditMode, DbError, IsolationLevel, IsolationPlan};
use feral_net::planner::{
    certified_plan, seeded_database, PlannedService, TEMPLATES, T_COMMENT, T_DEPOSIT, T_DISBAND,
    T_HIRE, T_SIGNUP,
};

/// A service over a fresh [`seeded_database`] under `plan`.
fn service(plan: &IsolationPlan) -> PlannedService {
    PlannedService::new(seeded_database(AuditMode::Off), plan.clone())
}

/// Run `template` once with operand `n` (folded onto the template's domain).
fn run(template: &str, svc: &PlannedService, n: usize) -> Result<(), DbError> {
    match template {
        T_SIGNUP => svc.signup_at(1_000 + n as i64),
        T_HIRE => svc.hire_at(n % 8),
        T_DISBAND => svc.disband_at(n % 8),
        T_DEPOSIT => svc.deposit_at((n % 8) as i64),
        T_COMMENT => svc.comment_at((n % 8) as i64),
        other => panic!("unknown template {other}"),
    }
}

#[test]
fn every_template_probe_is_index_backed() {
    let plan = certified_plan();
    for template in TEMPLATES {
        let svc = service(&plan);
        let db = svc.db();
        if template == T_DISBAND {
            // give the cascade something to delete
            for _ in 0..3 {
                svc.hire_at(0).unwrap();
            }
        }
        let before = db.stats().snapshot();
        run(template, &svc, 0).unwrap();
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
fn building_the_served_plan_runs_no_inference() {
    let allocations = allocations_of(|| drop(certified_plan()));
    assert!(
        allocations <= 8,
        "certified_plan() made {allocations} allocations (budget 8)"
    );
}

/// Allocations per `template` transaction under `plan`, single caller,
/// over 64 calls after a 16-call warm-up (thread stripes, the first
/// growth of every table).
fn allocations_per_txn(template: &str, plan: &IsolationPlan) -> f64 {
    const CALLS: usize = 64;
    let svc = service(plan);
    for n in 0..16 {
        run(template, &svc, n).unwrap();
    }
    let allocations = allocations_of(|| {
        for n in 16..16 + CALLS {
            run(template, &svc, n).unwrap();
        }
    });
    allocations as f64 / CALLS as f64
}

#[test]
fn a_template_transaction_allocates_within_its_budget() {
    let plan = certified_plan();
    let budgets = [
        (T_SIGNUP, 12.5),
        (T_HIRE, 13.5),
        (T_DISBAND, 15.5),
        (T_DEPOSIT, 8.5),
        (T_COMMENT, 10.5),
    ];
    for (template, budget) in budgets {
        let per_txn = allocations_per_txn(template, &plan);
        assert!(
            per_txn <= budget,
            "{template}: {per_txn} allocations per transaction (budget {budget})"
        );
    }
}

/// What the certified plan buys, as a count that does not drift: no
/// template allocates more under the plan than under all-serializable,
/// and the two it weakens allocate less — deposit at Snapshot and
/// comment at Read Committed keep no read footprint for validation.
/// A plan that falls back to all-serializable reads as equal.
#[test]
fn the_certified_plan_allocates_no_more_than_all_serializable() {
    let planned = certified_plan();
    let serializable = IsolationPlan::new(IsolationLevel::Serializable);
    for template in TEMPLATES {
        let under_plan = allocations_per_txn(template, &planned);
        let under_ser = allocations_per_txn(template, &serializable);
        println!("{template}: {under_plan} planned, {under_ser} all-serializable");
        assert!(
            under_plan <= under_ser,
            "{template}: {under_plan} allocations per transaction under the plan, \
             {under_ser} under all-serializable"
        );
        if template == T_DEPOSIT || template == T_COMMENT {
            assert!(
                under_plan < under_ser,
                "{template}: the plan weakens it, yet it allocates {under_plan} per \
                 transaction, as many as all-serializable's {under_ser}"
            );
        }
    }
}
