//! The deterministic cooperative scheduler.
//!
//! Exactly one logical worker runs between yield points. Every other
//! worker is parked on a condition variable waiting for the scheduler to
//! hand it the *turn*. When the running worker reaches a yield point (or
//! a wait, or finishes), the next worker is chosen by a [`Chooser`] —
//! seeded-random or scripted — and that choice is the *only* source of
//! nondeterminism in a simulated run. Replaying the same choices replays
//! the same execution byte for byte, provided the scenario itself is
//! deterministic (no wall-clock control flow, no unseeded RNG, no OS
//! blocking).
//!
//! ## Waiting and deadlock
//!
//! A worker that parks via [`feral_hooks::wait`] (lock unavailable,
//! channel empty) records the current *progress generation*. It becomes
//! schedulable again once [`feral_hooks::progress`] advances the
//! generation (someone released a lock / sent a message). If no worker is
//! runnable and every parked worker is a stale waiter, the schedule has
//! deadlocked: the waiter with the lowest id is granted
//! [`WaitOutcome::TimedOut`], which instrumented code translates into its
//! bounded-wait error (e.g. [`feral_db::DbError::LockTimeout`]). The
//! victim choice is fixed — not a branch point — so systematic
//! exploration does not fork on deadlock resolution.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use feral_hooks::{Access, Registration, ScheduleHook, Site, WaitKind, WaitOutcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Upper bound on scheduling steps per run, guarding against runaway
/// schedules; hitting it marks the run [`RunResult::truncated`].
pub const DEFAULT_MAX_STEPS: usize = 200_000;

/// Picks which candidate worker runs next at a branch point
/// (`arity >= 2`; forced moves never consult the chooser).
pub trait Chooser: Send {
    /// Return an index in `0..arity`.
    fn choose(&mut self, arity: usize) -> usize;

    /// Context-aware variant the scheduler actually calls: `candidates`
    /// are the schedulable worker ids (ascending) and `trace` is every
    /// step granted so far — the last step's access footprint is
    /// complete by the time the next decision is made. The default
    /// ignores the context and delegates to [`choose`](Self::choose);
    /// reduction-guided choosers (the DPOR sleep-aware tail) override
    /// it to steer unscripted suffixes away from already-covered
    /// subtrees.
    fn choose_step(&mut self, candidates: &[usize], trace: &[TraceStep]) -> usize {
        let _ = trace;
        self.choose(candidates.len())
    }
}

/// Seeded-random schedule choice (the search mode).
pub struct RandomChooser {
    rng: StdRng,
}

impl RandomChooser {
    /// Chooser for `seed`; the same seed yields the same schedule.
    pub fn new(seed: u64) -> Self {
        RandomChooser {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, arity: usize) -> usize {
        self.rng.random_range(0..arity)
    }
}

/// Scripted schedule choice (replay / systematic exploration): follows
/// `prefix`, then always picks candidate 0.
pub struct ScriptChooser {
    prefix: Vec<usize>,
    pos: usize,
}

impl ScriptChooser {
    /// Chooser replaying `prefix` then defaulting to the first candidate.
    pub fn new(prefix: Vec<usize>) -> Self {
        ScriptChooser { prefix, pos: 0 }
    }
}

impl Chooser for ScriptChooser {
    fn choose(&mut self, arity: usize) -> usize {
        let c = if self.pos < self.prefix.len() {
            self.prefix[self.pos]
        } else {
            0
        };
        self.pos += 1;
        // a stale prefix (from an edited scenario) clamps rather than panics
        c.min(arity - 1)
    }
}

/// One scheduling decision, as recorded in the run trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Worker granted the turn.
    pub worker: usize,
    /// Why the worker was parked (`Site::name` / `WaitKind::name`).
    pub label: &'static str,
    /// Workers that were schedulable at this step, ascending.
    pub candidates: Vec<usize>,
    /// Index into `candidates` that was granted.
    pub chosen: usize,
    /// Whether this grant was a deadlock-victim `TimedOut`.
    pub deadlock: bool,
    /// Shared-resource touches reported by instrumented code while this
    /// grant's segment ran (between this decision and the next). The
    /// footprint partial-order-reduction computes happens-before from.
    pub accesses: Vec<Access>,
}

/// Exploration counters attached to runs found by a reducing search
/// (see `feral_sim::explore_dpor`): how much of the schedule space was
/// executed versus proven equivalent and skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchStats {
    /// Schedules actually executed.
    pub schedules_explored: usize,
    /// Schedules proven Mazurkiewicz-equivalent to an executed one and
    /// skipped (sum over explored classes of `class size − 1`).
    pub schedules_pruned: u64,
    /// Whether `schedules_pruned` is an exact count. False when a run
    /// waited, deadlocked, was truncated, or a class was too large to
    /// count — the pruned figure is then a lower bound.
    pub pruned_exact: bool,
    /// Backtrack candidates skipped because their next step was already
    /// covered by an earlier sibling subtree (sleep sets).
    pub sleep_set_blocked: usize,
    /// Executed runs whose equivalence class had already been explored.
    /// The sleep-aware tail keeps these rare (it only re-enters a
    /// covered class when every schedulable worker is asleep).
    pub redundant_runs: usize,
}

impl Default for SearchStats {
    fn default() -> Self {
        SearchStats {
            schedules_explored: 0,
            schedules_pruned: 0,
            pruned_exact: true,
            sleep_set_blocked: 0,
            redundant_runs: 0,
        }
    }
}

/// Everything observable about one simulated run's schedule.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every grant, in order.
    pub trace: Vec<TraceStep>,
    /// `(choice, arity)` at each branch point (arity >= 2), in order.
    /// The choice column replayed through [`ScriptChooser`] reproduces
    /// this exact run.
    pub branches: Vec<(usize, usize)>,
    /// Deadlock-victim grants issued.
    pub deadlocks: usize,
    /// Whether the step cap was hit (run degenerated to free-running
    /// threads; treat its observations as unreliable).
    pub truncated: bool,
    /// Counters of the search that produced this run, when it came from
    /// a reducing explorer (`None` for plain runs).
    pub search: Option<SearchStats>,
}

impl RunResult {
    /// The branch choices alone — the replay script for
    /// [`ScriptChooser`].
    pub fn choices(&self) -> Vec<usize> {
        self.branches.iter().map(|(c, _)| *c).collect()
    }

    /// Human-readable schedule trace.
    pub fn trace_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, s) in self.trace.iter().enumerate() {
            let cands: Vec<String> = s.candidates.iter().map(|w| format!("w{w}")).collect();
            let _ = writeln!(
                out,
                "step {i:>4}: w{} @ {:<18} [{}]{}",
                s.worker,
                s.label,
                cands.join(" "),
                if s.deadlock {
                    "  << deadlock victim"
                } else {
                    ""
                },
            );
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a yield point or wait; `waiting` holds the progress
    /// generation observed at park time for waits, `None` for yields.
    Parked { waiting: Option<u64> },
    /// Holds (or is about to take) the turn.
    Running,
    /// Thread exited.
    Finished,
}

struct Slot {
    status: Status,
    label: &'static str,
    grant: Option<WaitOutcome>,
}

struct State {
    slots: Vec<Slot>,
    turn: Option<usize>,
    gen: u64,
    chooser: Box<dyn Chooser>,
    max_steps: usize,
    /// Set once every worker has finished (or the step cap was hit):
    /// parks return immediately and waits time out, so the threads of a
    /// truncated run unwind cleanly.
    free_run: bool,
    result: RunResult,
}

impl State {
    fn schedule_next(&mut self, cv: &Condvar) {
        if self.free_run {
            self.turn = None;
            cv.notify_all();
            return;
        }
        if self.result.trace.len() >= self.max_steps {
            self.result.truncated = true;
            self.free_run = true;
            self.turn = None;
            cv.notify_all();
            return;
        }
        let mut candidates = Vec::new();
        let mut stale_waiters = Vec::new();
        for (w, slot) in self.slots.iter().enumerate() {
            match slot.status {
                Status::Parked { waiting: None } => candidates.push(w),
                Status::Parked { waiting: Some(g) } => {
                    if g < self.gen {
                        candidates.push(w);
                    } else {
                        stale_waiters.push(w);
                    }
                }
                Status::Running | Status::Finished => {}
            }
        }
        if candidates.is_empty() {
            if !stale_waiters.is_empty() {
                // deadlock: fixed victim (lowest id), not a branch point
                let victim = stale_waiters[0];
                self.slots[victim].grant = Some(WaitOutcome::TimedOut);
                self.turn = Some(victim);
                self.result.deadlocks += 1;
                self.result.trace.push(TraceStep {
                    worker: victim,
                    label: self.slots[victim].label,
                    candidates: stale_waiters,
                    chosen: 0,
                    deadlock: true,
                    accesses: Vec::new(),
                });
            } else {
                // every worker has finished — nothing to grant
                self.turn = None;
            }
            cv.notify_all();
            return;
        }
        let chosen = if candidates.len() == 1 {
            0
        } else {
            let c = self.chooser.choose_step(&candidates, &self.result.trace);
            self.result.branches.push((c, candidates.len()));
            c
        };
        let w = candidates[chosen];
        self.slots[w].grant = Some(WaitOutcome::Proceed);
        self.turn = Some(w);
        self.result.trace.push(TraceStep {
            worker: w,
            label: self.slots[w].label,
            candidates,
            chosen,
            deadlock: false,
            accesses: Vec::new(),
        });
        cv.notify_all();
    }

    fn maybe_enter_free_run(&mut self, cv: &Condvar) {
        let all_done = self.slots.iter().all(|s| s.status == Status::Finished);
        if all_done {
            self.free_run = true;
            self.turn = None;
            cv.notify_all();
        }
    }
}

/// The scheduler; install via [`feral_hooks::Registration`] and drive
/// with [`run_schedule`] (or the explorers).
pub struct SimScheduler {
    mu: Mutex<State>,
    cv: Condvar,
}

impl SimScheduler {
    /// New scheduler with no workers yet.
    pub fn new(chooser: Box<dyn Chooser>, max_steps: usize) -> Self {
        SimScheduler {
            mu: Mutex::new(State {
                slots: Vec::new(),
                turn: None,
                gen: 0,
                chooser,
                max_steps,
                free_run: false,
                result: RunResult::default(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.mu.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a scenario worker; returns its id. Call for
    /// every worker *before* kicking the schedule.
    pub fn register_worker(&self) -> usize {
        let mut st = self.lock();
        st.slots.push(Slot {
            status: Status::Parked { waiting: None },
            label: Site::WorkerStart.name(),
            grant: None,
        });
        st.slots.len() - 1
    }

    /// Hand the first turn out. Idempotent.
    pub fn kick(&self) {
        let mut st = self.lock();
        if st.turn.is_none() {
            st.schedule_next(&self.cv);
        }
    }

    /// Block the harness thread until every worker finished.
    pub fn wait_done(&self) {
        let mut st = self.lock();
        while !st.free_run {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Extract the run's schedule record (call after [`Self::wait_done`]).
    pub fn take_result(&self) -> RunResult {
        let mut st = self.lock();
        std::mem::take(&mut st.result)
    }

    fn park(&self, worker: usize, label: &'static str, is_wait: bool) -> WaitOutcome {
        let mut st = self.lock();
        if st.free_run {
            return WaitOutcome::TimedOut;
        }
        let waiting = if is_wait { Some(st.gen) } else { None };
        st.slots[worker].status = Status::Parked { waiting };
        st.slots[worker].label = label;
        if st.turn == Some(worker) && st.slots[worker].grant.is_some() {
            // the turn was granted before this thread physically parked
            // (possible right after registration): consume the pending
            // grant below instead of scheduling again, so the schedule
            // does not depend on thread startup timing
        } else if st.turn == Some(worker) || st.turn.is_none() {
            st.schedule_next(&self.cv);
        }
        loop {
            if st.free_run {
                // simulation over (or truncated): unwind as a timeout
                st.slots[worker].status = Status::Running;
                return WaitOutcome::TimedOut;
            }
            if st.turn == Some(worker) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.slots[worker].status = Status::Running;
        st.slots[worker]
            .grant
            .take()
            .unwrap_or(WaitOutcome::Proceed)
    }
}

impl ScheduleHook for SimScheduler {
    fn yield_point(&self, worker: usize, site: Site) {
        let _ = self.park(worker, site.name(), false);
    }

    fn wait(&self, worker: usize, kind: WaitKind) -> WaitOutcome {
        self.park(worker, kind.name(), true)
    }

    fn progress(&self) {
        let mut st = self.lock();
        st.gen += 1;
    }

    fn note_access(&self, worker: usize, access: Access) {
        let mut st = self.lock();
        // in free-run mode threads execute concurrently, so an access can
        // no longer be attributed to a single trace step — drop it (the
        // run is over or truncated; explorers ignore such tails anyway)
        if st.free_run {
            return;
        }
        // the access belongs to the segment of the most recent grant; the
        // grantee is the only worker running, so a mismatched worker id
        // would mean unscheduled execution — attribute only when it lines
        // up
        if let Some(step) = st.result.trace.last_mut() {
            if step.worker == worker {
                step.accesses.push(access);
            }
        }
    }

    fn worker_finished(&self, worker: usize) {
        let mut st = self.lock();
        st.slots[worker].status = Status::Finished;
        if st.turn == Some(worker) {
            st.schedule_next(&self.cv);
        }
        st.maybe_enter_free_run(&self.cv);
    }
}

/// Run `workers` under a deterministic schedule driven by `chooser`.
/// Panics in a worker propagate after the schedule trace is attached.
pub fn run_schedule(
    workers: Vec<Box<dyn FnOnce() + Send>>,
    chooser: Box<dyn Chooser>,
    max_steps: usize,
) -> RunResult {
    if workers.is_empty() {
        return RunResult::default();
    }
    let sched = Arc::new(SimScheduler::new(chooser, max_steps));
    let regs: Vec<Registration> = workers
        .iter()
        .map(|_| {
            let id = sched.register_worker();
            Registration::new(sched.clone() as Arc<dyn ScheduleHook>, id)
        })
        .collect();
    let handles: Vec<_> = workers
        .into_iter()
        .zip(regs)
        .map(|(f, reg)| {
            std::thread::spawn(move || {
                let _active = reg.activate();
                f();
            })
        })
        .collect();
    sched.kick();
    sched.wait_done();
    let mut panic_msg = None;
    for h in handles {
        if let Err(p) = h.join() {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            panic_msg.get_or_insert(msg);
        }
    }
    let result = sched.take_result();
    if let Some(msg) = panic_msg {
        panic!(
            "simulated worker panicked: {msg}\nschedule trace:\n{}",
            result.trace_text()
        );
    }
    result
}
