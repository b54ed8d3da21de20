//! # feral-sdg
//!
//! Static dependency-graph anomaly prediction for feral concurrency
//! control (paper §4–§5), cross-validated three ways.
//!
//! The ORM's feral mechanisms — uniqueness probe-then-insert,
//! association check-then-insert, cascading destroy, unguarded
//! `lock_version` read-modify-write — are distilled into **transaction
//! templates** ([`template`]): the ordered row and predicate accesses
//! the engine actually sees. For a pair of concurrently running
//! templates, [`graph`] enumerates every conflicting access overlap and
//! admits Adya-style dependency edges (`wr`, `rw`) per
//! `feral_db::IsolationLevel::admits_concurrent`; write/write overlaps
//! act as first-updater-wins abort gates rather than cycle edges.
//! [`cycles`] searches for a *realizable* critical cycle — simple,
//! never interpreting one overlap twice, containing at least one `rw`
//! antidependency — and [`matrix`] turns pair × isolation into a
//! SAFE/UNSAFE verdict matrix.
//!
//! Every verdict is falsifiable, and the crate checks all of them:
//!
//! * **UNSAFE** cells generate a `feral-sim` witness schedule that
//!   replays to the concrete anomaly ([`matrix::validate_cell`]);
//! * **SAFE** cells survive an exhaustive schedule sweep of the same
//!   scenario;
//! * each matrix row is diffed against the invariant-confluence
//!   derivation of its Table 1 analog
//!   ([`matrix::iconfluence_agreement`]).
//!
//! The `feral-sdg` binary surfaces the matrix as text, JSON
//! (`BENCH_sdg.json`), and Graphviz dot; `feral-lint` reuses the
//! verdicts for its FERAL006–FERAL008 isolation-advice rules.

#![warn(missing_docs)]

pub mod cycles;
pub mod graph;
pub mod matrix;
pub mod report;
pub mod template;

pub use cycles::{edge_ordered, find_cycle, find_cycle_constrained, render_cycle};
pub use graph::{build_graph, build_graph_mixed, DepGraph, Edge, RwOverlap, WwOverlap};
pub use matrix::{
    build_matrix, decide, decide_mixed, iconfluence_agreement, validate_cell, Cell, CellEvidence,
    PairKind, SafeReason, Verdict, LEVELS,
};
pub use report::{render_dot, render_graph_text, render_json, render_matrix_text};
pub use template::{Access, Step, TxnTemplate};
