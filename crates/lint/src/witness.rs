//! Witness generation: for every unsafe finding, search the feral-sim
//! schedule space of its anomaly's canonical scenario ([`spec_for`])
//! with [`ScenarioSpec::find_witness`] for a concrete interleaving on
//! which the predicted anomaly fires and replays, and attach the
//! [`Witness`](feral_sim::Witness) — whose choices replay it
//! bit-identically under `feral-sim replay`.
//!
//! The search is per anomaly *kind*, not per finding — every
//! duplicate-admitting finding maps onto the same canonical §5.2
//! scenario, so one search serves the whole corpus run.

use crate::rules::Anomaly;
use feral_db::IsolationLevel;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};

/// The canonical scenario witnessing an anomaly kind: weakest realistic
/// isolation (read committed), feral guard only — the configuration the
/// paper measures in §5.
pub fn spec_for(anomaly: Anomaly) -> ScenarioSpec {
    match anomaly {
        Anomaly::DuplicateAdmitting => ScenarioSpec {
            kind: ScenarioKind::Uniqueness,
            levels: SessionLevels::Uniform(IsolationLevel::ReadCommitted),
            guard: Guard::Feral,
            workers: 2,
        },
        Anomaly::OrphanAdmitting => ScenarioSpec {
            kind: ScenarioKind::Orphans,
            levels: SessionLevels::Uniform(IsolationLevel::ReadCommitted),
            guard: Guard::Feral,
            workers: 1,
        },
        Anomaly::LostUpdateAdmitting => ScenarioSpec {
            kind: ScenarioKind::LostUpdate,
            levels: SessionLevels::Uniform(IsolationLevel::ReadCommitted),
            guard: Guard::Feral,
            workers: 2,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_anomaly_kinds_yield_replayable_witnesses() {
        for anomaly in [
            Anomaly::DuplicateAdmitting,
            Anomaly::OrphanAdmitting,
            Anomaly::LostUpdateAdmitting,
        ] {
            let w = spec_for(anomaly)
                .find_witness(50_000)
                .expect("witness search must fire");
            assert!(w.schedules_searched >= 1);
            assert!(w
                .replay_command()
                .starts_with("feral-sim replay --scenario "));
            assert!(w.replays(), "witness must replay deterministically: {w:?}");
            // replaying twice gives the same verdict — determinism, not luck
            assert!(w.replays());
        }
    }
}
