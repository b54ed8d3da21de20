//! Machine-readable JSON for `feral-sim` exploration outcomes.
//!
//! Hand-rolled, deterministic field order (same convention as the sdg
//! and lint report modules): byte-identical output for identical
//! explorations, so reports can be golden-tested and diffed in CI.

use crate::scenarios::ScenarioSpec;
use crate::scheduler::SearchStats;
use crate::{DporExploration, SystematicExploration, Witness};

/// One exploration outcome, ready to serialize.
#[derive(Debug)]
pub struct ExplorationReport {
    /// Scenario label (`scenario/isolation/guard`).
    pub scenario: String,
    /// Search strategy (`dfs`, `dpor`, `directed-dpor`, `random`).
    pub strategy: &'static str,
    /// Schedules executed.
    pub runs: usize,
    /// Whether the (reduced) schedule space was fully covered.
    pub complete: bool,
    /// Exploration/pruning counters. For non-reducing strategies the
    /// counters are the trivial ones (`explored == runs`, nothing
    /// pruned).
    pub stats: SearchStats,
    /// The firing schedule, if one was found.
    pub violation: Option<Witness>,
}

impl ExplorationReport {
    /// Report for a DPOR (or directed-DPOR) exploration.
    pub fn from_dpor(
        spec: &ScenarioSpec,
        strategy: &'static str,
        outcome: &DporExploration,
    ) -> ExplorationReport {
        ExplorationReport {
            scenario: spec.label(),
            strategy,
            runs: outcome.runs,
            complete: outcome.complete,
            stats: outcome.stats.clone(),
            violation: outcome
                .violation
                .as_ref()
                .map(|v| Witness::of(spec, v, outcome.runs)),
        }
    }

    /// Report for a plain exhaustive-DFS exploration.
    pub fn from_systematic(
        spec: &ScenarioSpec,
        outcome: &SystematicExploration,
    ) -> ExplorationReport {
        ExplorationReport {
            scenario: spec.label(),
            strategy: "dfs",
            runs: outcome.runs,
            complete: outcome.complete,
            stats: SearchStats {
                schedules_explored: outcome.runs,
                ..SearchStats::default()
            },
            violation: outcome
                .violation
                .as_ref()
                .map(|v| Witness::of(spec, v, outcome.runs)),
        }
    }

    /// Serialize (stable field order, no trailing newline).
    pub fn to_json(&self) -> String {
        let violation = match &self.violation {
            None => "null".to_string(),
            Some(w) => {
                let choices: Vec<String> = w.choices.iter().map(|c| c.to_string()).collect();
                format!(
                    "{{\"message\":\"{}\",\"seed\":null,\"choices\":[{}],\"replay\":\"{}\"}}",
                    json_escape(&w.message),
                    choices.join(","),
                    json_escape(&w.replay_command())
                )
            }
        };
        format!(
            "{{\"tool\":\"feral-sim\",\"scenario\":\"{}\",\"strategy\":\"{}\",\"runs\":{},\"complete\":{},\"schedules_explored\":{},\"schedules_pruned\":{},\"pruned_exact\":{},\"sleep_set_blocked\":{},\"redundant_runs\":{},\"violation\":{}}}",
            json_escape(&self.scenario),
            self.strategy,
            self.runs,
            self.complete,
            self.stats.schedules_explored,
            self.stats.schedules_pruned,
            self.stats.pruned_exact,
            self.stats.sleep_set_blocked,
            self.stats.redundant_runs,
            violation
        )
    }
}

pub(crate) use feral_cli::report::json_escape;
