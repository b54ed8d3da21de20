//! Schedule search: seeded-random sampling with replay, and systematic
//! (exhaustive) enumeration of all schedule branch points.

use crate::scheduler::{
    run_schedule, Chooser, RandomChooser, RunResult, ScriptChooser, DEFAULT_MAX_STEPS,
};

/// One runnable instance of a scenario: worker closures over freshly
/// built shared state, plus an oracle checked after the run.
///
/// Explorers call the factory once per schedule, so `check` sees only the
/// effects of that single run. `check` returns `Err(description)` when
/// the oracle *fires* — explorers stop at the first firing schedule and
/// report how to replay it. (Whether a firing oracle is a test failure
/// or a successful anomaly reproduction is the caller's business.)
pub struct Trial {
    /// Logical workers, scheduled at instrumented yield points.
    pub workers: Vec<Box<dyn FnOnce() + Send>>,
    /// Post-run oracle over the scenario's shared state.
    pub check: Box<dyn FnOnce() -> Result<(), String>>,
}

/// A schedule on which a trial's oracle fired, with everything needed to
/// reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Seed that produced the schedule (random mode).
    pub seed: Option<u64>,
    /// Branch choices of the schedule — replayable via
    /// [`run_with_choices`] in any mode, including after minimization.
    pub choices: Vec<usize>,
    /// What the oracle reported.
    pub message: String,
    /// Search strategy that found the schedule (`"random"`, `"dfs"`,
    /// `"dpor"`, `"directed-dpor"`) — provenance for run-report
    /// records and witness artifacts.
    pub strategy: &'static str,
    /// The full schedule record.
    pub run: RunResult,
}

impl Violation {
    /// One-line replay instructions for test output. The leading
    /// `replay with …` clause is stable (older artifacts pin it); the
    /// strategy suffix says which searcher found the schedule.
    pub fn replay_hint(&self) -> String {
        match self.seed {
            Some(s) => format!(
                "replay with seed {s} (choices {:?}) [found by {}]",
                self.choices, self.strategy
            ),
            None => format!(
                "replay with choices {:?} [found by {}]",
                self.choices, self.strategy
            ),
        }
    }
}

/// Run one schedule under an arbitrary chooser — the seeded, scripted,
/// and reduction-guided runners below are all thin wrappers over this.
pub(crate) fn run_with_chooser(
    trial: Trial,
    chooser: Box<dyn Chooser>,
) -> (RunResult, Result<(), String>) {
    let result = run_schedule(trial.workers, chooser, DEFAULT_MAX_STEPS);
    let verdict = (trial.check)();
    (result, verdict)
}

/// Run one schedule chosen by `seed`. Re-running with the same seed (and
/// a deterministic scenario) reproduces the identical trace and verdict.
pub fn run_with_seed(trial: Trial, seed: u64) -> (RunResult, Result<(), String>) {
    run_with_chooser(trial, Box::new(RandomChooser::new(seed)))
}

/// Run one schedule following `choices` at branch points (first
/// candidate beyond the script) — replay and minimization.
pub fn run_with_choices(trial: Trial, choices: &[usize]) -> (RunResult, Result<(), String>) {
    run_with_chooser(trial, Box::new(ScriptChooser::new(choices.to_vec())))
}

/// Outcome of [`explore_random`].
#[derive(Debug)]
pub struct RandomExploration {
    /// Schedules executed.
    pub runs: usize,
    /// First schedule on which the oracle fired, if any.
    pub violation: Option<Violation>,
}

/// Sample one schedule per seed until the oracle fires or seeds run out.
pub fn explore_random(
    mut factory: impl FnMut() -> Trial,
    seeds: impl IntoIterator<Item = u64>,
) -> RandomExploration {
    let mut runs = 0;
    for seed in seeds {
        let (run, verdict) = run_with_seed(factory(), seed);
        runs += 1;
        if let Err(message) = verdict {
            return RandomExploration {
                runs,
                violation: Some(Violation {
                    seed: Some(seed),
                    choices: run.choices(),
                    message,
                    strategy: "random",
                    run,
                }),
            };
        }
    }
    RandomExploration {
        runs,
        violation: None,
    }
}

/// Outcome of [`explore_systematic`].
#[derive(Debug)]
pub struct SystematicExploration {
    /// Schedules executed.
    pub runs: usize,
    /// Whether every schedule was covered (false when `max_runs` stopped
    /// the enumeration early or a run hit the step cap).
    pub complete: bool,
    /// First schedule on which the oracle fired, if any.
    pub violation: Option<Violation>,
}

/// Exhaustively enumerate schedules, depth-first over branch points.
///
/// Stateless-model-checking style: each run follows a choice prefix and
/// defaults to candidate 0 afterwards; every untried alternative at every
/// branch at or beyond the prefix becomes a new prefix to run. For the
/// 2–3 transaction scenarios in the safety-matrix tests the full tree is
/// a few hundred to a few thousand schedules.
pub fn explore_systematic(
    mut factory: impl FnMut() -> Trial,
    max_runs: usize,
) -> SystematicExploration {
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut runs = 0;
    let mut complete = true;
    while let Some(prefix) = stack.pop() {
        if runs >= max_runs {
            complete = false;
            break;
        }
        let prefix_len = prefix.len();
        let (run, verdict) = run_with_choices(factory(), &prefix);
        runs += 1;
        if run.truncated {
            complete = false;
        }
        if let Err(message) = verdict {
            return SystematicExploration {
                runs,
                complete: false,
                violation: Some(Violation {
                    seed: None,
                    choices: run.choices(),
                    message,
                    strategy: "dfs",
                    run,
                }),
            };
        }
        // branch the tree: untried alternatives at each decision at or
        // beyond the prefix (decisions inside the prefix are already
        // covered by sibling prefixes)
        for i in prefix_len..run.branches.len() {
            let (chosen, arity) = run.branches[i];
            let mut base: Vec<usize> = run.branches[..i].iter().map(|(c, _)| *c).collect();
            for alt in 0..arity {
                if alt != chosen {
                    base.push(alt);
                    stack.push(base.clone());
                    base.pop();
                }
            }
        }
    }
    SystematicExploration {
        runs,
        complete,
        violation: None,
    }
}
