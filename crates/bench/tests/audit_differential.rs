//! Differential gate: the *online* DSG auditor must agree with the
//! *offline* verdict stack on every safety-matrix cell.
//!
//! Three independent analyses of the same template pair × isolation
//! level must coincide:
//!
//! 1. feral-sdg's static verdict (`decide`) — is a realizable critical
//!    cycle predicted?
//! 2. the DPOR sweep's dynamic verdict — does any schedule fire the
//!    integrity oracle?
//! 3. the runtime auditor's verdict — does the live dependency graph of
//!    an executed schedule contain a critical cycle?
//!
//! The sweep runs every schedule over an audited database and folds the
//! auditor into the trial oracle: a schedule where the integrity oracle
//! fires but the auditor saw no cycle is an ESCAPE (the observer missed
//! a live anomaly) and fails the gate outright; a cycle on a schedule
//! with intact integrity in a SAFE cell is a false positive and fails
//! too. Agreement here is the paper's §5 claim made operational: feral
//! anomalies *are* serializability violations, so a sound runtime
//! certifier flags exactly the executions that damage invariants.

use feral_db::AuditMode;
use feral_sdg::{decide, PairKind, LEVELS};
use feral_sim::scenarios::ScenarioSpec;
use feral_sim::{explore_dpor, run_with_seed, DporConfig, Trial};

const MAX_RUNS: usize = 200_000;

/// Build the cell's scenario over a fully-audited database and fold the
/// auditor's cycle verdict into the trial check.
fn audited_trial(spec: &ScenarioSpec) -> Trial {
    let (app, trial) = spec.build_audited(AuditMode::Full);
    let db = app.db().clone();
    let oracle = trial.check;
    Trial {
        workers: trial.workers,
        check: Box::new(move || {
            let integrity = oracle();
            let cycles = db.audit_snapshot().map_or(0, |s| s.cycles);
            match (integrity, cycles > 0) {
                (Err(msg), true) => Err(format!("agree: {msg}")),
                (Err(msg), false) => Err(format!("ESCAPED the auditor: {msg}")),
                (Ok(()), true) => {
                    Err("audit-only: cycle on a schedule with intact integrity".into())
                }
                (Ok(()), false) => Ok(()),
            }
        }),
    }
}

fn differential(pair: PairKind) {
    for level in LEVELS {
        let cell = decide(pair, level);
        let spec = cell.scenario;
        let what = format!("{}/{}", pair.name(), level);
        let mut config = DporConfig::new(MAX_RUNS, level);
        if cell.verdict.is_unsafe() {
            config = config.directed(spec.direction_hint());
        }
        let outcome = explore_dpor(|| audited_trial(&spec), &config);
        match (&outcome.violation, cell.verdict.is_unsafe()) {
            (Some(v), true) => assert!(
                v.message.starts_with("agree: "),
                "{what}: auditor and oracle disagree on the witness schedule — {} ({})",
                v.message,
                v.replay_hint()
            ),
            (None, true) => panic!(
                "{what}: sdg and the auditor both predicted UNSAFE, but no schedule \
                 fired in {} runs",
                outcome.runs
            ),
            (Some(v), false) => panic!(
                "{what}: predicted SAFE but a schedule fired: {} ({})",
                v.message,
                v.replay_hint()
            ),
            (None, false) => assert!(
                outcome.complete,
                "{what}: SAFE sweep incomplete after {} runs — agreement not established",
                outcome.runs
            ),
        }
    }
}

#[test]
fn auditor_agrees_with_dpor_on_uniqueness_cells() {
    differential(PairKind::Uniqueness);
}

#[test]
fn auditor_agrees_with_dpor_on_orphan_cells() {
    differential(PairKind::Orphans);
}

#[test]
fn auditor_agrees_with_dpor_on_lock_rmw_cells() {
    differential(PairKind::LockRmw);
}

#[test]
fn auditor_agrees_with_dpor_on_sibling_insert_cells() {
    differential(PairKind::SiblingInserts);
}

/// Sim-driven determinism: the same seeded schedule over two fresh
/// audited databases must produce byte-identical audit reports — edge
/// set, cycle count, verdicts, and per-cell attribution all included.
#[test]
fn same_seed_same_audit_report() {
    let spec = decide(
        PairKind::Uniqueness,
        feral_db::IsolationLevel::ReadCommitted,
    )
    .scenario;
    for seed in [3u64, 17, 1031] {
        let reports: Vec<String> = (0..2)
            .map(|_| {
                let (app, trial) = spec.build_audited(AuditMode::Full);
                let db = app.db().clone();
                let (_, _verdict) = run_with_seed(trial, seed);
                db.audit_snapshot().expect("auditing on").to_json()
            })
            .collect();
        assert_eq!(
            reports[0], reports[1],
            "seed {seed}: audit report not reproducible"
        );
    }
}
