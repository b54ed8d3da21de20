//! # feral-sim
//!
//! Deterministic schedule-exploring concurrency harness for the feral
//! stack. Replaces "spawn N OS threads and hope the race happens" with an
//! explicit interleaving scheduler over the yield points instrumented via
//! [`feral_hooks`]: transaction begin/scan/write/commit, lock waits, the
//! ORM's validate→write gap, and appserver dispatch/handle.
//!
//! Three modes:
//!
//! * **Seeded random search** ([`explore_random`]): sample one schedule
//!   per seed; a firing oracle reports the seed, which replays the run
//!   byte-identically ([`run_with_seed`]).
//! * **Systematic exploration** ([`explore_systematic`]): exhaustive DFS
//!   over every schedule branch point — small scenarios (2–3
//!   transactions) are fully covered, which is what the safety-matrix
//!   regression tests assert.
//! * **Replay / minimization** ([`run_with_choices`]): drive the schedule
//!   from an explicit choice list (e.g. a prefix of a failing run).
//!
//! Callers outside this crate do not drive the explorers themselves:
//! [`ScenarioSpec::find_witness`](scenarios::ScenarioSpec::find_witness)
//! runs the one witness policy (a directed DPOR sweep, then a replay
//! check) and returns a [`Witness`];
//! [`ScenarioSpec::sweep`](scenarios::ScenarioSpec::sweep) returns the
//! [`SweepEvidence`] of a complete, silent DPOR sweep.
//!
//! The [`oracles`] module holds the paper's anomaly detectors (duplicate
//! uniqueness keys, orphaned association rows, lost counter updates),
//! shared with the `crates/bench` figure binaries.
//!
//! ## Determinism contract
//!
//! A scenario must not branch on wall-clock time, unseeded randomness, or
//! OS-level blocking primitives (use channels/locks from the instrumented
//! stack, whose waits are [`feral_hooks::wait`] points). Under that
//! contract a schedule is fully determined by its branch-choice list, and
//! `RunResult::branches` is its replayable fingerprint.

#![warn(missing_docs)]

mod dpor;
mod explore;
pub mod oracles;
pub mod report;
pub mod scenarios;
mod scheduler;
mod witness;

pub use dpor::{explore_dpor, DirectionHint, DporConfig, DporExploration};
pub use explore::{
    explore_random, explore_systematic, run_with_choices, run_with_seed, RandomExploration,
    SystematicExploration, Trial, Violation,
};
pub use scheduler::{
    run_schedule, Chooser, RandomChooser, RunResult, ScriptChooser, SearchStats, SimScheduler,
    TraceStep, DEFAULT_MAX_STEPS,
};
pub use witness::{SweepEvidence, Witness};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Two workers each yield twice (via a feral-db scan); the schedule
    /// interleaves them deterministically per seed.
    fn order_trial(log: Arc<std::sync::Mutex<Vec<usize>>>) -> Trial {
        let db = feral_db::Database::in_memory();
        db.create_table(feral_db::TableSchema::new(
            "t",
            vec![feral_db::ColumnDef::new("k", feral_db::DataType::Int)],
        ))
        .unwrap();
        let workers: Vec<Box<dyn FnOnce() + Send>> = (0..2)
            .map(|w| {
                let db = db.clone();
                let log = log.clone();
                Box::new(move || {
                    let mut tx = db.txn().begin();
                    let _ = tx.scan("t", &feral_db::Predicate::True);
                    log.lock().unwrap().push(w);
                    let _ = tx.scan("t", &feral_db::Predicate::True);
                    log.lock().unwrap().push(w);
                    tx.rollback();
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        Trial {
            workers,
            check: Box::new(|| Ok(())),
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let log1 = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (r1, _) = run_with_seed(order_trial(log1.clone()), 42);
        let log2 = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (r2, _) = run_with_seed(order_trial(log2.clone()), 42);
        assert_eq!(r1.branches, r2.branches);
        assert_eq!(r1.trace_text(), r2.trace_text());
        assert_eq!(*log1.lock().unwrap(), *log2.lock().unwrap());
    }

    #[test]
    fn different_seeds_reach_different_schedules() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16 {
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let _ = run_with_seed(order_trial(log.clone()), seed);
            seen.insert(log.lock().unwrap().clone());
        }
        assert!(
            seen.len() > 1,
            "all 16 seeds produced the same interleaving"
        );
    }

    #[test]
    fn replay_by_choices_matches_seed_run() {
        let log1 = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (r1, _) = run_with_seed(order_trial(log1.clone()), 7);
        let log2 = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (r2, _) = run_with_choices(order_trial(log2.clone()), &r1.choices());
        assert_eq!(r1.trace_text(), r2.trace_text());
        assert_eq!(*log1.lock().unwrap(), *log2.lock().unwrap());
    }

    #[test]
    fn systematic_mode_covers_all_interleavings_of_two_yielding_workers() {
        // every distinct observable order of the two workers' log pushes
        // must be visited by the exhaustive enumeration
        let orders = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let outcome = explore_systematic(
            || {
                let log = Arc::new(std::sync::Mutex::new(Vec::new()));
                let mut t = order_trial(log.clone());
                let orders = orders.clone();
                t.check = Box::new(move || {
                    orders.lock().unwrap().insert(log.lock().unwrap().clone());
                    Ok(())
                });
                t
            },
            10_000,
        );
        assert!(outcome.complete, "enumeration did not finish");
        assert!(outcome.violation.is_none());
        // 4 interleavings of (0,0) and (1,1) preserving per-worker order:
        // C(4,2) = 6 observable orders
        assert_eq!(orders.lock().unwrap().len(), 6, "missed interleavings");
        assert!(outcome.runs >= 6);
    }

    #[test]
    fn explore_random_reports_replayable_violation() {
        let outcome = explore_random(
            || {
                let counter = Arc::new(AtomicUsize::new(0));
                let c2 = counter.clone();
                Trial {
                    workers: vec![Box::new(move || {
                        c2.fetch_add(1, Ordering::SeqCst);
                    })],
                    check: Box::new(move || {
                        if counter.load(Ordering::SeqCst) == 1 {
                            Err("worker ran (expected: oracle fires)".into())
                        } else {
                            Ok(())
                        }
                    }),
                }
            },
            0..4,
        );
        let v = outcome.violation.expect("oracle must fire on first run");
        assert_eq!(outcome.runs, 1);
        assert_eq!(v.seed, Some(0));
        assert!(v.replay_hint().contains("seed 0"));
    }

    #[test]
    fn deadlock_is_resolved_by_victim_timeout() {
        // classic ABBA: w0 locks a then b, w1 locks b then a
        let db = feral_db::Database::in_memory();
        db.create_table(feral_db::TableSchema::new(
            "t",
            vec![feral_db::ColumnDef::new("k", feral_db::DataType::Int)],
        ))
        .unwrap();
        let mut tx = db.txn().begin();
        tx.insert_pairs(
            "t",
            &[
                ("id", feral_db::Datum::Int(1)),
                ("k", feral_db::Datum::Int(0)),
            ],
        )
        .unwrap();
        tx.insert_pairs(
            "t",
            &[
                ("id", feral_db::Datum::Int(2)),
                ("k", feral_db::Datum::Int(0)),
            ],
        )
        .unwrap();
        tx.commit().unwrap();
        let timeouts = Arc::new(AtomicUsize::new(0));
        let mk_worker = |first: i64, second: i64| {
            let db = db.clone();
            let timeouts = timeouts.clone();
            Box::new(move || {
                let mut tx = db.txn().begin();
                let a = tx.select_for_update("t", &feral_db::Predicate::eq(0, first));
                let b = tx.select_for_update("t", &feral_db::Predicate::eq(0, second));
                if a.is_err() || b.is_err() {
                    timeouts.fetch_add(1, Ordering::SeqCst);
                    tx.rollback();
                } else {
                    tx.commit().unwrap();
                }
            }) as Box<dyn FnOnce() + Send>
        };
        // systematically search for the deadlocking interleaving
        let outcome = explore_systematic(
            || Trial {
                workers: vec![mk_worker(1, 2), mk_worker(2, 1)],
                check: Box::new(|| Ok(())),
            },
            5_000,
        );
        assert!(outcome.complete);
        // at least one schedule must have hit the ABBA deadlock and been
        // resolved by a victim timeout rather than hanging
        assert!(
            timeouts.load(Ordering::SeqCst) > 0,
            "no schedule produced the ABBA deadlock"
        );
    }
}
