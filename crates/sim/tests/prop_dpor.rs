//! Property tests of the DPOR reduction's accounting (satellite to the
//! differential suite in `dpor_equivalence.rs`): across randomly drawn
//! small scenarios — kind × isolation × guard × worker count — the
//! reduction must
//!
//! 1. agree with exhaustive DFS on whether the cell is anomalous,
//! 2. on clean safe cells, account for *every* DFS schedule exactly:
//!    `schedules_explored − redundant_runs + schedules_pruned` equals
//!    the full enumeration's run count (each pruned schedule is a
//!    member of exactly one explored Mazurkiewicz class), and
//! 3. on anomalous cells, surface a witness whose choice vector
//!    replays to the identical trace and oracle message — pruning
//!    never trades away replayability.

use feral_db::IsolationLevel;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{explore_dpor, explore_systematic, run_with_choices};
use proptest::prelude::*;

/// Full-enumeration budget. Cells that outgrow it (larger worker
/// counts) flip to the "DPOR finishes where DFS cannot" branch below —
/// which is itself part of the property.
const DFS_MAX_RUNS: usize = 30_000;
const DPOR_MAX_RUNS: usize = 200_000;

const KINDS: [ScenarioKind; 4] = [
    ScenarioKind::Uniqueness,
    ScenarioKind::Orphans,
    ScenarioKind::LostUpdate,
    ScenarioKind::SiblingInserts,
];

const LEVELS: [IsolationLevel; 4] = [
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Snapshot,
    IsolationLevel::Serializable,
];

fn drawn_spec(kind: usize, level: usize, db_guard: bool, workers: usize) -> ScenarioSpec {
    ScenarioSpec {
        kind: KINDS[kind],
        levels: SessionLevels::Uniform(LEVELS[level]),
        guard: if db_guard {
            Guard::Database
        } else {
            Guard::Feral
        },
        workers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dpor_accounts_for_every_dfs_schedule(
        kind in 0usize..4,
        level in 0usize..4,
        db_guard in any::<bool>(),
        workers in 1usize..3,
    ) {
        let spec = drawn_spec(kind, level, db_guard, workers);
        let label = spec.label();
        let dfs = explore_systematic(|| spec.build(), DFS_MAX_RUNS);
        let config = spec.dpor_config(DPOR_MAX_RUNS);
        let dpor = explore_dpor(|| spec.build(), &config);

        // 1. verdict agreement wherever DFS reached a verdict: a found
        // violation, or a completed silent sweep
        if dfs.violation.is_some() || dfs.complete {
            prop_assert_eq!(
                dfs.violation.as_ref().map(|v| &v.message),
                dpor.violation.as_ref().map(|v| &v.message),
                "{}: DFS and DPOR disagree", label
            );
        }

        match &dpor.violation {
            Some(v) => {
                // 3. the reduced search's witness replays identically
                let (replay, verdict) = run_with_choices(spec.build(), &v.choices);
                prop_assert_eq!(
                    replay.trace_text(),
                    v.run.trace_text(),
                    "{}: witness replay diverged", label
                );
                prop_assert_eq!(
                    verdict.expect_err("witness must fire"),
                    v.message.clone(),
                    "{}: witness replayed a different anomaly", label
                );
            }
            None => {
                // the reduction must cover cells the full enumeration
                // covers — and also the ones it can't
                prop_assert!(
                    dpor.complete,
                    "{}: DPOR incomplete after {} runs", label, dpor.runs
                );
                if dfs.complete {
                    prop_assert!(
                        dpor.runs <= dfs.runs,
                        "{}: reduction executed more schedules ({}) than DFS ({})",
                        label, dpor.runs, dfs.runs
                    );
                    // 2. exact accounting on clean cells: explored
                    // classes plus their pruned members tile the full
                    // DFS space
                    if dpor.stats.pruned_exact {
                        let covered = (dpor.stats.schedules_explored as u64)
                            - (dpor.stats.redundant_runs as u64)
                            + dpor.stats.schedules_pruned;
                        prop_assert_eq!(
                            covered,
                            dfs.runs as u64,
                            "{}: explored − redundant + pruned must tile the DFS space", label
                        );
                    }
                }
            }
        }
    }
}
