//! # feral-plan
//!
//! Static weakest-safe-isolation inference, certified per template.
//!
//! The paper's finding is that applications enforce integrity ferally
//! because serializable everything is too slow, and the database's weak
//! defaults are silently unsafe. This crate computes the middle ground
//! mechanically, per application, from the same IR the linter uses:
//!
//! 1. **extract** — every ORM-derived transaction template (uniqueness
//!    probe-insert, association check-insert, cascade destroy,
//!    `lock_version` RMW) via [`feral_lint::templates`], so the planner
//!    and FERAL009 can never disagree about what a template is;
//! 2. **infer** — templates already safe at read committed take a
//!    static fast path (database constraint, insert-only I-confluence
//!    via `feral_iconfluence`, or no conflicting template); the rest run
//!    a fixed-point escalation over `feral_sdg::decide_mixed`, repaired
//!    by the unordered `rw` reader of each found cycle and greedily
//!    demoted back to a per-slot minimum ([`infer`]);
//! 3. **certify** — every cell carries a machine-checkable certificate:
//!    a complete partial-order-reduced feral-sim sweep at the assigned
//!    levels (silent oracle), and, for escalated cells, a replaying
//!    anomaly witness at the next-weaker configuration ([`certify`]);
//! 4. **enforce** — [`AppPlan::isolation_plan`] converts into
//!    `feral_db::IsolationPlan`, which `TxnOptions::planned` consults at
//!    `db.txn()` time; unknown templates default to serializable, so
//!    the plan only ever weakens what it has certified.
//!
//! The `feral-plan` CLI prints plans (`infer`), validates certificates
//! (`certify [--validate golden]`), and diffs two plan artifacts
//! (`diff`).

#![warn(missing_docs)]

pub mod certify;
pub mod infer;
pub mod report;

pub use certify::{certify_cell, certify_plan, describe_cell, CellCert};
pub use infer::{
    build_plan, demote, escalate, infer_pair_levels, plan_app, rank, AppPlan, Assignment, Basis,
    CellGate, CellTable, Plan, PlanCell,
};
pub use report::{render_dot, render_json, render_text};
