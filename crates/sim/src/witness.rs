//! Witness search: the one policy every anomaly prediction in the
//! workspace is backed by. A static prediction (feral-sdg's verdict,
//! feral-plan's escalation, feral-lint's finding, table1's racing pair)
//! names a scenario; [`ScenarioSpec::find_witness`] searches its
//! schedules for one on which the oracle fires and proves that schedule
//! replays, and [`ScenarioSpec::sweep`] proves a predicted-safe scenario
//! silent on every schedule.

use crate::explore::{run_with_choices, Violation};
use crate::report::json_escape;
use crate::scenarios::ScenarioSpec;
use crate::{explore_dpor, DporExploration};

/// A replayable anomaly schedule: the scenario, the schedule, and how
/// it was found.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The scenario configuration the schedule ran under.
    pub spec: ScenarioSpec,
    /// Search strategy that surfaced the schedule (`directed-dpor`).
    pub strategy: &'static str,
    /// Branch choices of the schedule: what replays it.
    pub choices: Vec<usize>,
    /// What the anomaly oracle reported.
    pub message: String,
    /// Schedules searched before the oracle fired.
    pub schedules_searched: usize,
}

impl Witness {
    /// The witness of `violation`, found on `spec` after
    /// `schedules_searched` schedules.
    pub(crate) fn of(
        spec: &ScenarioSpec,
        violation: &Violation,
        schedules_searched: usize,
    ) -> Witness {
        Witness {
            spec: *spec,
            strategy: violation.strategy,
            choices: violation.choices.clone(),
            message: violation.message.clone(),
            schedules_searched,
        }
    }

    /// The `feral-sim replay …` command line reproducing the schedule.
    pub fn replay_command(&self) -> String {
        self.spec.replay_command(None, &self.choices)
    }

    /// Re-run the schedule on a fresh trial and report whether the
    /// oracle fires again.
    pub fn replays(&self) -> bool {
        let (_, verdict) = run_with_choices(self.spec.build(), &self.choices);
        verdict.is_err()
    }

    /// `{"strategy","seed","choices","message","schedules_searched","replay"}`;
    /// `seed` is always `null`: a witness replays by its choices.
    pub fn to_json(&self) -> String {
        let choices: Vec<String> = self.choices.iter().map(usize::to_string).collect();
        format!(
            "{{\"strategy\":\"{}\",\"seed\":null,\"choices\":[{}],\"message\":\"{}\",\
             \"schedules_searched\":{},\"replay\":\"{}\"}}",
            self.strategy,
            choices.join(","),
            json_escape(&self.message),
            self.schedules_searched,
            json_escape(&self.replay_command())
        )
    }
}

/// Evidence that a scenario is safe: a complete partial-order-reduced
/// sweep on which the oracle stayed silent.
#[derive(Debug, Clone)]
pub struct SweepEvidence {
    /// Schedules executed by the sweep.
    pub runs: usize,
    /// Schedules proven Mazurkiewicz-equivalent and skipped.
    pub schedules_pruned: u64,
    /// Whether `schedules_pruned` is exact (else a lower bound).
    pub pruned_exact: bool,
    /// Backtrack candidates skipped by sleep sets.
    pub sleep_set_blocked: usize,
}

impl SweepEvidence {
    /// `{"runs","complete":true,"schedules_pruned","pruned_exact","sleep_set_blocked"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"runs\":{},\"complete\":true,\"schedules_pruned\":{},\"pruned_exact\":{},\
             \"sleep_set_blocked\":{}}}",
            self.runs, self.schedules_pruned, self.pruned_exact, self.sleep_set_blocked
        )
    }
}

impl ScenarioSpec {
    /// Search for a schedule on which the oracle fires: a sleep-set DPOR
    /// sweep directed toward the scenario's critical tables, of at most
    /// `max_runs` schedules. The schedule found must fire again on replay
    /// before it is returned. A sweep that completes silent has covered
    /// every schedule class, so no other search could find one; a sweep
    /// cut by the budget says so.
    pub fn find_witness(&self, max_runs: usize) -> Result<Witness, String> {
        let config = self.dpor_config(max_runs).directed(self.direction_hint());
        let DporExploration {
            runs,
            complete,
            violation,
            ..
        } = explore_dpor(|| self.build(), &config);
        let Some(v) = violation else {
            return Err(if complete {
                format!("no witness: the sweep completed after {runs} schedules, all silent")
            } else {
                format!(
                    "no witness in {runs} schedules: the sweep is incomplete — raise --max-runs"
                )
            });
        };
        let witness = Witness::of(self, &v, runs);
        if !witness.replays() {
            return Err(format!("witness did not replay ({})", witness.message));
        }
        Ok(witness)
    }

    /// Sweep every schedule class under DPOR (at most `max_runs`
    /// schedules) and require the oracle silent on all of them.
    pub fn sweep(&self, max_runs: usize) -> Result<SweepEvidence, String> {
        let DporExploration {
            runs,
            complete,
            violation,
            stats,
        } = explore_dpor(|| self.build(), &self.dpor_config(max_runs));
        if let Some(v) = violation {
            return Err(format!(
                "oracle fired: {} ({})",
                v.message,
                self.replay_command(v.seed, &v.choices)
            ));
        }
        if !complete {
            return Err(format!(
                "sweep incomplete after {runs} schedules — raise --max-runs"
            ));
        }
        Ok(SweepEvidence {
            runs,
            schedules_pruned: stats.schedules_pruned,
            pruned_exact: stats.pruned_exact,
            sleep_set_blocked: stats.sleep_set_blocked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Guard, ScenarioKind, SessionLevels};
    use feral_db::IsolationLevel;

    fn uniqueness(isolation: IsolationLevel) -> ScenarioSpec {
        ScenarioSpec {
            kind: ScenarioKind::Uniqueness,
            levels: SessionLevels::Uniform(isolation),
            guard: Guard::Feral,
            workers: 2,
        }
    }

    /// A SAFE cell: the directed sweep completes silent, and the search
    /// says so rather than asking for a bigger budget.
    #[test]
    fn a_safe_cell_reports_the_complete_sweep() {
        let err = uniqueness(IsolationLevel::Serializable)
            .find_witness(50_000)
            .expect_err("serializable uniqueness admits no duplicate");
        assert!(err.contains("the sweep completed"), "{err}");
        assert!(!err.contains("--max-runs"), "{err}");
    }

    /// An UNSAFE cell whose budget ends before the sweep reaches a firing
    /// schedule: the search reports the cut sweep and names the flag that
    /// lifts it. No other search answers in its place.
    #[test]
    fn a_cut_sweep_names_its_budget() {
        let spec = uniqueness(IsolationLevel::ReadCommitted);
        let err = spec
            .find_witness(1)
            .expect_err("one schedule does not reach the race");
        assert!(err.contains("incomplete"), "{err}");
        assert!(err.contains("raise --max-runs"), "{err}");
        let w = spec.find_witness(50_000).expect("a larger budget finds it");
        assert_eq!(w.strategy, "directed-dpor");
    }
}
