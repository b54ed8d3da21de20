//! The soundness gate for DPOR: on every scenario family × guard at all
//! four isolation levels, `explore_dpor` must agree with the exhaustive
//! DFS (`explore_systematic`) on whether a violating schedule exists —
//! and find it with strictly fewer executed schedules wherever the DFS
//! enumerates the full safe space. Surviving violation schedules must
//! replay bit-identically through `run_with_choices`.

use feral_db::IsolationLevel;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{explore_dpor, explore_systematic, run_with_choices};

const MAX_RUNS: usize = 200_000;

const LEVELS: [IsolationLevel; 4] = [
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Snapshot,
    IsolationLevel::Serializable,
];

fn specs_for(kind: ScenarioKind, guard: Guard, workers: usize) -> Vec<ScenarioSpec> {
    LEVELS
        .iter()
        .map(|&isolation| ScenarioSpec {
            kind,
            levels: SessionLevels::Uniform(isolation),
            guard,
            workers,
        })
        .collect()
}

fn check_cell(spec: &ScenarioSpec, directed: bool) {
    let label = spec.label();
    let dfs = explore_systematic(|| spec.build(), MAX_RUNS);
    let mut config = spec.dpor_config(MAX_RUNS);
    if directed {
        config = config.directed(spec.direction_hint());
    }
    let dpor = explore_dpor(|| spec.build(), &config);

    assert_eq!(
        dfs.violation.is_some(),
        dpor.violation.is_some(),
        "{label}: verdict disagreement — dfs {:?} vs dpor {:?} \
         (dfs {} runs, dpor {} runs)",
        dfs.violation.as_ref().map(|v| &v.message),
        dpor.violation.as_ref().map(|v| &v.message),
        dfs.runs,
        dpor.runs,
    );

    match &dpor.violation {
        Some(v) => {
            // the schedule DPOR found must replay to the same firing run
            let (replay, verdict) = run_with_choices(spec.build(), &v.choices);
            assert_eq!(
                replay.trace_text(),
                v.run.trace_text(),
                "{label}: dpor witness replay diverged"
            );
            assert_eq!(
                verdict.expect_err("replayed schedule must fire the oracle"),
                v.message,
                "{label}: dpor witness replayed to a different anomaly"
            );
            assert_eq!(
                v.strategy,
                if directed { "directed-dpor" } else { "dpor" },
                "{label}: violation must name the strategy that found it"
            );
            // the dfs witness must also survive the new plumbing
            let dv = dfs.violation.as_ref().unwrap();
            let (dreplay, dverdict) = run_with_choices(spec.build(), &dv.choices);
            assert_eq!(dreplay.trace_text(), dv.run.trace_text());
            assert_eq!(dverdict.expect_err("dfs replay fires"), dv.message);
        }
        None => {
            assert!(
                dpor.complete,
                "{label}: safe cell but DPOR exploration incomplete after {} runs",
                dpor.runs
            );
            assert!(
                dfs.complete,
                "{label}: safe cell but DFS enumeration incomplete"
            );
            // the reduction must actually reduce: strictly fewer
            // executed schedules than the exhaustive enumeration, with
            // the difference accounted for by the pruning counters
            assert!(
                dpor.runs < dfs.runs,
                "{label}: DPOR explored {} schedules, DFS {} — no reduction",
                dpor.runs,
                dfs.runs
            );
            assert!(
                dpor.stats.schedules_pruned > 0,
                "{label}: fewer runs but zero schedules_pruned"
            );
            if dpor.stats.pruned_exact {
                assert_eq!(
                    dpor.stats.schedules_explored as u64 - dpor.stats.redundant_runs as u64
                        + dpor.stats.schedules_pruned,
                    dfs.runs as u64,
                    "{label}: explored − redundant + pruned must equal the DFS schedule count"
                );
            }
        }
    }
}

// One test per scenario family so failures localize and the suite
// parallelizes across the test harness's threads.

#[test]
fn uniqueness_feral_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::Uniqueness, Guard::Feral, 2) {
        check_cell(&spec, false);
    }
}

#[test]
fn uniqueness_db_guard_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::Uniqueness, Guard::Database, 2) {
        check_cell(&spec, false);
    }
}

#[test]
fn orphans_feral_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::Orphans, Guard::Feral, 1) {
        check_cell(&spec, false);
    }
}

#[test]
fn orphans_db_guard_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::Orphans, Guard::Database, 1) {
        check_cell(&spec, false);
    }
}

#[test]
fn lost_update_feral_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::LostUpdate, Guard::Feral, 2) {
        check_cell(&spec, false);
    }
}

#[test]
fn lost_update_db_guard_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::LostUpdate, Guard::Database, 2) {
        check_cell(&spec, false);
    }
}

#[test]
fn sibling_inserts_feral_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::SiblingInserts, Guard::Feral, 2) {
        check_cell(&spec, false);
    }
}

#[test]
fn sibling_inserts_db_guard_matches_dfs_at_all_levels() {
    for spec in specs_for(ScenarioKind::SiblingInserts, Guard::Database, 2) {
        check_cell(&spec, false);
    }
}

/// The directed strategy is a reordering of the same search: identical
/// verdicts on every cell of one representative family per verdict
/// class, and a witness no later than plain DPOR's on the unsafe cells.
#[test]
fn directed_mode_agrees_on_uniqueness_and_sibling_cells() {
    for spec in specs_for(ScenarioKind::Uniqueness, Guard::Feral, 2) {
        check_cell(&spec, true);
    }
    for spec in specs_for(ScenarioKind::SiblingInserts, Guard::Feral, 2) {
        check_cell(&spec, true);
    }
}
