//! Regression pins for replay compatibility: witness hints emitted by
//! earlier releases — choice vectors printed in test logs, documented in
//! EXPERIMENTS.md, and embedded in checked-in artifacts — must keep
//! replaying the same anomaly, byte-for-byte. The scheduler's branch
//! numbering, the scenarios' worker layout, and the engine's step
//! ordering are all load-bearing for these strings; a change to any of
//! them that shifts a pinned schedule is a compatibility break, not a
//! refactor.

use feral_db::IsolationLevel;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{explore_systematic, run_with_choices, run_with_seed};

fn spec(kind: ScenarioKind, isolation: IsolationLevel, workers: usize) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        levels: SessionLevels::Uniform(isolation),
        guard: Guard::Feral,
        workers,
    }
}

fn assert_pinned_choices(spec: ScenarioSpec, choices: &[usize], message: &str) {
    let (_, verdict) = run_with_choices(spec.build(), choices);
    assert_eq!(
        verdict.expect_err("pinned schedule must still fire the oracle"),
        message,
        "{}: pinned replay hint {:?} now reports a different anomaly",
        spec.label(),
        choices
    );
}

/// The choice vector documented in EXPERIMENTS.md's sdg walkthrough
/// (snapshot-isolation duplicate keys, `choices [0,0,0,0,0,1,1,0]`).
#[test]
fn documented_snapshot_duplicate_hint_still_replays() {
    assert_pinned_choices(
        spec(ScenarioKind::Uniqueness, IsolationLevel::Snapshot, 2),
        &[0, 0, 0, 0, 0, 1, 1, 0],
        "duplicate uniqueness keys: [(Text(\"dup\"), 2)]",
    );
}

/// The first witness the exhaustive DFS sweep has always printed for
/// the read-committed uniqueness cell.
#[test]
fn read_committed_duplicate_hint_still_replays() {
    assert_pinned_choices(
        spec(ScenarioKind::Uniqueness, IsolationLevel::ReadCommitted, 2),
        &[0, 0, 0, 0, 0, 1, 1, 1, 0],
        "duplicate uniqueness keys: [(Text(\"dup\"), 2)]",
    );
}

/// The orphaned-rows witness for the read-committed cascade cell.
#[test]
fn read_committed_orphan_hint_still_replays() {
    assert_pinned_choices(
        spec(ScenarioKind::Orphans, IsolationLevel::ReadCommitted, 1),
        &[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
        "orphaned user rows (ids): [Int(1)]",
    );
}

/// Seed-based hints pin the seeded RNG's choice stream, not just one
/// choice vector: seed 0 has always lost an update on the unguarded
/// read-committed lock-rmw scenario.
#[test]
fn seed_zero_lost_update_hint_still_replays() {
    let spec = spec(ScenarioKind::LostUpdate, IsolationLevel::ReadCommitted, 2);
    let (_, verdict) = run_with_seed(spec.build(), 0);
    assert_eq!(
        verdict.expect_err("seed 0 must still fire the oracle"),
        "lost updates: 1 of 2 acknowledged increments missing",
    );
}

/// DFS search order is part of the pinned surface: the *first* witness
/// systematic enumeration reports is what older logs and artifacts
/// recorded, so it must stay put too.
#[test]
fn dfs_first_witness_is_stable() {
    let spec = spec(ScenarioKind::Uniqueness, IsolationLevel::ReadCommitted, 2);
    let outcome = explore_systematic(|| spec.build(), 200_000);
    let v = outcome.violation.expect("cell is anomalous");
    assert_eq!(v.choices, vec![0, 0, 0, 0, 0, 1, 1, 1, 0]);
    assert_eq!(v.strategy, "dfs");
    assert_eq!(
        v.replay_hint(),
        "replay with choices [0, 0, 0, 0, 0, 1, 1, 1, 0] [found by dfs]"
    );
}
