//! Witness search: the one policy every anomaly prediction in the
//! workspace is backed by. A static prediction (feral-sdg's verdict,
//! feral-plan's escalation, feral-lint's finding, table1's racing pair)
//! names a scenario; [`ScenarioSpec::find_witness`] searches its
//! schedules for one on which the oracle fires and proves that schedule
//! replays, and [`ScenarioSpec::sweep`] proves a predicted-safe scenario
//! silent on every schedule.

use crate::explore::{explore_random, run_with_choices, run_with_seed, Violation};
use crate::report::json_escape;
use crate::scenarios::ScenarioSpec;
use crate::{explore_dpor, DporExploration};

/// A replayable anomaly schedule: the scenario, the schedule, and how
/// it was found.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The scenario configuration the schedule ran under.
    pub spec: ScenarioSpec,
    /// Search strategy that surfaced the schedule (`directed-dpor`,
    /// `dpor`, `dfs`, or `random`).
    pub strategy: &'static str,
    /// Seed of the schedule, when random search found it.
    pub seed: Option<u64>,
    /// Branch choices of the schedule (always replayable).
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
            seed: violation.seed,
            choices: violation.choices.clone(),
            message: violation.message.clone(),
            schedules_searched,
        }
    }

    /// The `feral-sim replay …` command line reproducing the schedule.
    pub fn replay_command(&self) -> String {
        self.spec.replay_command(self.seed, &self.choices)
    }

    /// Re-run the schedule on a fresh trial and report whether the
    /// oracle fires again.
    pub fn replays(&self) -> bool {
        let trial = self.spec.build();
        let (_, verdict) = match self.seed {
            Some(seed) => run_with_seed(trial, seed),
            None => run_with_choices(trial, &self.choices),
        };
        verdict.is_err()
    }

    /// `{"strategy","seed","choices","message","schedules_searched","replay"}`.
    pub fn to_json(&self) -> String {
        let choices: Vec<String> = self.choices.iter().map(usize::to_string).collect();
        format!(
            "{{\"strategy\":\"{}\",\"seed\":{},\"choices\":[{}],\"message\":\"{}\",\
             \"schedules_searched\":{},\"replay\":\"{}\"}}",
            self.strategy,
            self.seed.map_or("null".to_string(), |s| s.to_string()),
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
    /// Search for a schedule on which the oracle fires: DPOR directed
    /// toward the scenario's critical tables (at most `max_runs`
    /// schedules), then seeded random search over `0..seeds`. The
    /// schedule found must fire again on replay before it is returned.
    pub fn find_witness(&self, seeds: u64, max_runs: usize) -> Result<Witness, String> {
        let config = self.dpor_config(max_runs).directed(self.direction_hint());
        let directed = explore_dpor(|| self.build(), &config);
        let witness = match &directed.violation {
            Some(v) => Witness::of(self, v, directed.runs),
            None => {
                let random = explore_random(|| self.build(), 0..seeds);
                let searched = directed.runs + random.runs;
                let Some(v) = random.violation else {
                    return Err(format!("no witness in {searched} schedules"));
                };
                Witness::of(self, &v, searched)
            }
        };
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
