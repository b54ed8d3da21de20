//! Dynamic partial-order reduction (DPOR) over the deterministic
//! scheduler, in the stateless-model-checking style of Flanagan &
//! Godefroid, with sleep sets and an optional sdg-directed search bias.
//!
//! ## How it relates to [`explore_systematic`]
//!
//! `explore_systematic` forks on *every* untried alternative at every
//! branch point — the full schedule tree. `explore_dpor` re-executes
//! choice prefixes the same way, but only forks where the executed trace
//! exhibits a *race*: two steps of different workers, dependent under
//! the active isolation level's commutativity relation, with no
//! intervening happens-before path. Schedules that merely permute
//! independent steps are Mazurkiewicz-equivalent — same per-worker
//! observations, same oracle verdict — and are pruned.
//!
//! ## The independence relation
//!
//! Each trace step carries the [`Access`] footprint its code segment
//! reported via `feral_hooks::note_access` (table reads/writes, lock
//! acquires/releases, clock ticks). Two steps are dependent when their
//! footprints conflict on a shared resource, where conflict is
//! isolation-aware: a snapshot-fixed read commutes with a concurrent
//! install exactly when the level redirects write-read conflicts to the
//! snapshot (`IsolationLevel::admits_concurrent`), writes never commute
//! with writes (order is observable at every level the stack models),
//! and clock ticks commute with each other but not with clock reads.
//! Steps at sites whose effects are not access-instrumented (appserver
//! dispatch/handle, channel waits, OS-block boundaries) are treated as
//! globally dependent — sound, at the cost of no reduction across them.
//!
//! ## Equivalence accounting
//!
//! Every executed schedule is canonicalized to its Mazurkiewicz class
//! key (the lexicographically minimal linear extension of its
//! happens-before poset); the class's size — the number of full-DFS
//! schedules it stands for — is counted exactly by dynamic programming
//! over per-worker progress vectors when the run is clean (no waits, no
//! deadlocks, no truncation), which is what makes
//! `schedules_explored − redundant_runs + schedules_pruned` equal the
//! exhaustive-DFS schedule count on clean scenarios (property-tested).
//!
//! [`explore_systematic`]: crate::explore_systematic
//! [`Access`]: feral_hooks::Access

use std::collections::{HashMap, HashSet, VecDeque};

use feral_db::{ConflictKind, IsolationLevel};
use feral_hooks::{fnv64, Access, AccessMode};

use crate::explore::{run_with_chooser, Trial, Violation};
use crate::scheduler::{Chooser, SearchStats, TraceStep};

/// Step labels whose effects are fully described by their access
/// footprint. Anything else (appserver dispatch/handle, channel waits,
/// OS-block boundaries, labels added later) is conservatively treated as
/// dependent with every other step.
const LOCAL_LABELS: &[&str] = &[
    "start",
    "begin",
    "scan",
    "select_for_update",
    "write",
    "commit",
    "validate-write-gap",
    "lock-wait",
];

/// Bias for the directed strategy: backtrack points whose racing steps
/// touch one of these tables are explored first. Derived from a
/// feral-sdg realizable-cycle report (the tables on the predicted
/// dependency cycle) or from a scenario's own table set.
#[derive(Debug, Clone, Default)]
pub struct DirectionHint {
    /// Table names on the predicted critical cycle.
    pub tables: Vec<String>,
}

impl DirectionHint {
    /// Hint biased toward `tables`.
    pub fn for_tables<S: Into<String>>(tables: impl IntoIterator<Item = S>) -> Self {
        DirectionHint {
            tables: tables.into_iter().map(Into::into).collect(),
        }
    }

    fn hashes(&self) -> HashSet<u64> {
        self.tables.iter().map(|t| fnv64(t.as_bytes())).collect()
    }
}

/// Configuration for [`explore_dpor`].
#[derive(Debug, Clone)]
pub struct DporConfig {
    /// Stop (incomplete) after this many executed schedules.
    pub max_runs: usize,
    /// Isolation level the scenario's transactions run at, consulted for
    /// the commutativity relation. When a scenario mixes levels, pass
    /// [`IsolationLevel::ReadCommitted`] — it admits every conflict
    /// concurrently, which only adds dependence edges (sound).
    pub isolation: IsolationLevel,
    /// Directed-search bias; `None` explores in plain DFS order.
    pub hint: Option<DirectionHint>,
}

impl DporConfig {
    /// Plain DPOR at `isolation` with the given run budget.
    pub fn new(max_runs: usize, isolation: IsolationLevel) -> Self {
        DporConfig {
            max_runs,
            isolation,
            hint: None,
        }
    }

    /// Add a directed-search bias.
    pub fn directed(mut self, hint: DirectionHint) -> Self {
        self.hint = Some(hint);
        self
    }

    /// The strategy name recorded in violations found by this config.
    pub fn strategy(&self) -> &'static str {
        if self.hint.is_some() {
            "directed-dpor"
        } else {
            "dpor"
        }
    }
}

/// Outcome of [`explore_dpor`].
#[derive(Debug)]
pub struct DporExploration {
    /// Schedules executed (same meaning as
    /// [`SystematicExploration::runs`](crate::SystematicExploration)).
    pub runs: usize,
    /// Whether the reduced schedule space was covered (false when
    /// `max_runs` stopped the search early, a run hit the step cap, or a
    /// violation stopped it).
    pub complete: bool,
    /// First schedule on which the oracle fired, if any.
    pub violation: Option<Violation>,
    /// Exploration/pruning counters.
    pub stats: SearchStats,
}

// ---------------------------------------------------------------------
// Independence relation
// ---------------------------------------------------------------------

fn modes_conflict(a: AccessMode, b: AccessMode, iso: IsolationLevel) -> bool {
    use AccessMode::*;
    match (a, b) {
        // lock-table traffic: shared/shared commutes, anything else not
        (LockShared, LockShared) => false,
        (LockShared | LockExcl, _) | (_, LockShared | LockExcl) => true,
        // plain reads commute with each other
        (Read | SnapshotRead, Read | SnapshotRead) => false,
        // clock ticks commute with each other but not with observers
        (Incr, Incr) => false,
        // a snapshot-fixed read observes a concurrent install only where
        // the level admits the write-read conflict concurrently (Read
        // Committed — which emits `Read`, never `SnapshotRead`; the
        // predicate keeps mixed-isolation workloads conservative)
        (SnapshotRead, Write | Incr) | (Write | Incr, SnapshotRead) => {
            iso.admits_concurrent(ConflictKind::WriteRead)
        }
        // committed-latest reads see or miss a write depending on order
        (Read, Write | Incr) | (Write | Incr, Read) => true,
        // write/write order is observable at every level: last-writer-
        // wins picks a winner, first-updater-wins picks a victim
        (Write, Write | Incr) | (Incr, Write) => true,
    }
}

/// Per-step dependence footprint.
#[derive(Debug, Clone)]
struct Footprint {
    /// Step at a non-instrumented site: dependent with everything.
    global: bool,
    accesses: Vec<Access>,
}

impl Footprint {
    fn of(step: &TraceStep) -> Footprint {
        Footprint {
            global: !LOCAL_LABELS.contains(&step.label),
            accesses: step.accesses.clone(),
        }
    }

    fn conflicts(&self, other: &Footprint, iso: IsolationLevel) -> bool {
        if self.global || other.global {
            return true;
        }
        self.accesses.iter().any(|x| {
            other.accesses.iter().any(|y| {
                x.space == y.space && x.what == y.what && modes_conflict(x.mode, y.mode, iso)
            })
        })
    }

    fn hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(1 + self.accesses.len() * 18);
        bytes.push(u8::from(self.global));
        for a in &self.accesses {
            bytes.extend_from_slice(a.space.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&a.what.to_le_bytes());
            bytes.push(a.mode as u8);
        }
        fnv64(&bytes)
    }

    fn touches_table(&self, tables: &HashSet<u64>) -> bool {
        self.accesses
            .iter()
            .any(|a| a.space == "table" && tables.contains(&a.what))
    }
}

// ---------------------------------------------------------------------
// The sleep-aware schedule chooser
// ---------------------------------------------------------------------

/// Scripted prefix, then a *sleep-aware* tail: beyond the prefix, pick
/// the first candidate whose next step is not already covered by an
/// earlier sibling subtree. A blind candidate-0 tail (plain
/// [`ScriptChooser`](crate::scheduler::ScriptChooser)) re-executes
/// covered Mazurkiewicz classes so often that larger scenarios never
/// converge — at 4 workers the uniqueness scenario burns >98% of a
/// 200k-run budget on redundant schedules. Steering the tail around
/// sleeping workers makes executed runs track distinct classes instead.
///
/// The sleeper set starts as the driver's sleep set at the deepest
/// scripted branch (`inherited ∪ done` of that node) and is maintained
/// exactly like the driver's own walk: an executed step wakes every
/// sleeper whose pending step conflicts with it, and removes a sleeper
/// that ran anyway (only possible when every candidate slept).
struct SleepTailChooser {
    prefix: Vec<usize>,
    pos: usize,
    /// Trace index of the step produced by the last scripted choice;
    /// earlier steps are already reflected in the initial sleeper set.
    start: usize,
    /// Steps of `trace` digested into the sleeper set so far.
    processed: usize,
    sleepers: Vec<(usize, Footprint)>,
    iso: IsolationLevel,
}

impl SleepTailChooser {
    fn new(
        prefix: Vec<usize>,
        start: usize,
        sleepers: Vec<(usize, Footprint)>,
        iso: IsolationLevel,
    ) -> Self {
        SleepTailChooser {
            prefix,
            pos: 0,
            start,
            processed: 0,
            sleepers,
            iso,
        }
    }
}

impl Chooser for SleepTailChooser {
    fn choose(&mut self, arity: usize) -> usize {
        // context-free fallback (never hit via the scheduler, which
        // calls `choose_step`): behave like a plain script replay
        let c = if self.pos < self.prefix.len() {
            self.prefix[self.pos]
        } else {
            0
        };
        self.pos += 1;
        c.min(arity - 1)
    }

    fn choose_step(&mut self, candidates: &[usize], trace: &[TraceStep]) -> usize {
        // digest segments completed since the last decision
        while self.processed < trace.len() {
            let idx = self.processed;
            self.processed += 1;
            if idx < self.start {
                continue;
            }
            let step = &trace[idx];
            let f = Footprint::of(step);
            if let Some(pos) = self.sleepers.iter().position(|(w, _)| *w == step.worker) {
                self.sleepers.swap_remove(pos);
            }
            self.sleepers.retain(|(_, sf)| !sf.conflicts(&f, self.iso));
        }
        if self.pos < self.prefix.len() {
            let c = self.prefix[self.pos];
            self.pos += 1;
            // a stale prefix (from an edited scenario) clamps, as in
            // `ScriptChooser`
            return c.min(candidates.len() - 1);
        }
        self.pos += 1;
        candidates
            .iter()
            .position(|w| !self.sleepers.iter().any(|(s, _)| s == w))
            // every candidate asleep: the whole subtree is covered, and
            // the run will dedup as redundant whatever we pick
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Happens-before over one executed trace
// ---------------------------------------------------------------------

/// The trace, annotated: per-step footprints, dense worker numbering,
/// and a vector clock per step (`clock[i][w]` = number of worker `w`'s
/// steps happens-before-or-equal step `i`).
struct Analysis {
    footprints: Vec<Footprint>,
    /// Dense worker index per step.
    widx: Vec<usize>,
    /// Per-worker step counts.
    counts: Vec<usize>,
    clocks: Vec<Vec<usize>>,
}

impl Analysis {
    fn of(trace: &[TraceStep], iso: IsolationLevel) -> Analysis {
        let footprints: Vec<Footprint> = trace.iter().map(Footprint::of).collect();
        let mut worker_ids: Vec<usize> = Vec::new();
        let widx: Vec<usize> = trace
            .iter()
            .map(|s| match worker_ids.iter().position(|&w| w == s.worker) {
                Some(i) => i,
                None => {
                    worker_ids.push(s.worker);
                    worker_ids.len() - 1
                }
            })
            .collect();
        let nworkers = worker_ids.len();
        let mut counts = vec![0usize; nworkers];
        let mut last_of_worker: Vec<Option<usize>> = vec![None; nworkers];
        let mut clocks: Vec<Vec<usize>> = Vec::with_capacity(trace.len());
        for i in 0..trace.len() {
            let w = widx[i];
            let mut c = match last_of_worker[w] {
                Some(j) => clocks[j].clone(),
                None => vec![0; nworkers],
            };
            for j in (0..i).rev() {
                // skip if j is already fully inside c's past
                if c[widx[j]] >= clocks[j][widx[j]] {
                    continue;
                }
                if footprints[j].conflicts(&footprints[i], iso) {
                    for (a, b) in c.iter_mut().zip(&clocks[j]) {
                        *a = (*a).max(*b);
                    }
                }
            }
            c[w] += 1;
            counts[w] += 1;
            last_of_worker[w] = Some(i);
            clocks.push(c);
        }
        Analysis {
            footprints,
            widx,
            counts,
            clocks,
        }
    }

    /// Whether step `j` happens-before step `i` (`j < i`).
    fn hb(&self, j: usize, i: usize) -> bool {
        self.clocks[i][self.widx[j]] >= self.clocks[j][self.widx[j]]
    }

    /// Races to try reversing: pairs `(i, j)`, `i < j`, of dependent
    /// steps of different workers with no intervening happens-before
    /// path — the "immediate" races of trace-based DPOR.
    fn races(&self, iso: IsolationLevel) -> Vec<(usize, usize)> {
        let n = self.footprints.len();
        let mut out = Vec::new();
        for j in 0..n {
            // for each other worker, only the *last* dependent step
            // before j can be in an immediate race with it
            let mut last_dep: HashMap<usize, usize> = HashMap::new();
            for i in 0..j {
                if self.widx[i] != self.widx[j]
                    && self.footprints[i].conflicts(&self.footprints[j], iso)
                {
                    last_dep.insert(self.widx[i], i);
                }
            }
            'cand: for &i in last_dep.values() {
                for k in i + 1..j {
                    if self.hb(i, k) && self.hb(k, j) {
                        continue 'cand; // ordered through an intermediary
                    }
                }
                out.push((i, j));
            }
        }
        out.sort_unstable();
        out
    }
}

// ---------------------------------------------------------------------
// Mazurkiewicz class canonicalization and counting
// ---------------------------------------------------------------------

/// Upper bound on DP states when counting a class's linear extensions.
const CLASS_DP_CAP: usize = 1 << 20;

/// Canonical key of the run's equivalence class: the lexicographically
/// minimal linear extension of its happens-before poset, with events
/// identified by `(worker, per-worker seq, footprint hash)` so distinct
/// behaviors never collide.
fn class_key(a: &Analysis) -> Vec<(usize, usize, u64)> {
    let nworkers = a.counts.len();
    // trace indices per worker, in program order
    let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); nworkers];
    for (i, &w) in a.widx.iter().enumerate() {
        per_worker[w].push(i);
    }
    let mut consumed = vec![0usize; nworkers];
    let mut key = Vec::with_capacity(a.widx.len());
    for _ in 0..a.widx.len() {
        let w = (0..nworkers)
            .find(|&w| {
                consumed[w] < a.counts[w] && {
                    let t = per_worker[w][consumed[w]];
                    (0..nworkers).all(|v| v == w || a.clocks[t][v] <= consumed[v])
                }
            })
            .expect("a partial order always has an available minimal event");
        let t = per_worker[w][consumed[w]];
        key.push((w, consumed[w] + 1, a.footprints[t].hash()));
        consumed[w] += 1;
    }
    key
}

/// Number of linear extensions of the run's happens-before poset — the
/// number of full-DFS schedules this class stands for. `None` when the
/// DP would exceed [`CLASS_DP_CAP`] states.
fn class_size(a: &Analysis) -> Option<u64> {
    let nworkers = a.counts.len();
    if a.counts.iter().any(|&c| c > u16::MAX as usize) {
        return None;
    }
    let mut states: usize = 1;
    for &c in &a.counts {
        states = states.saturating_mul(c + 1);
        if states > CLASS_DP_CAP {
            return None;
        }
    }
    let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); nworkers];
    for (i, &w) in a.widx.iter().enumerate() {
        per_worker[w].push(i);
    }
    fn go(
        consumed: &mut Vec<u16>,
        remaining: usize,
        a: &Analysis,
        per_worker: &[Vec<usize>],
        memo: &mut HashMap<Vec<u16>, u64>,
    ) -> u64 {
        if remaining == 0 {
            return 1;
        }
        if let Some(&v) = memo.get(consumed) {
            return v;
        }
        let mut total: u64 = 0;
        for w in 0..a.counts.len() {
            let c = consumed[w] as usize;
            if c >= a.counts[w] {
                continue;
            }
            let t = per_worker[w][c];
            let ready =
                (0..a.counts.len()).all(|v| v == w || a.clocks[t][v] <= consumed[v] as usize);
            if ready {
                consumed[w] += 1;
                total = total.saturating_add(go(consumed, remaining - 1, a, per_worker, memo));
                consumed[w] -= 1;
            }
        }
        memo.insert(consumed.clone(), total);
        total
    }
    let mut memo = HashMap::new();
    let mut consumed = vec![0u16; nworkers];
    let total = go(&mut consumed, a.widx.len(), a, &per_worker, &mut memo);
    Some(total)
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

/// One branch point on the current exploration path.
struct Node {
    /// Trace index of the decision in every run through this prefix.
    trace_idx: usize,
    /// Schedulable workers at the decision (ascending worker ids).
    candidates: Vec<usize>,
    /// Workers already explored here, in order, with the footprint of
    /// the step each took.
    done: Vec<(usize, Footprint)>,
    /// Backtrack set: workers still to explore (hinted ones in front).
    pending: VecDeque<usize>,
    /// Sleep set on arrival: workers whose next step is already covered
    /// by an earlier sibling subtree, with that step's footprint.
    inherited: Vec<(usize, Footprint)>,
}

impl Node {
    fn scheduled(&self, w: usize) -> bool {
        self.done.iter().any(|(d, _)| *d == w) || self.pending.contains(&w)
    }
}

/// Explore the trial's schedule space with dynamic partial-order
/// reduction (plus sleep sets, plus the optional directed bias). Stops
/// at the first schedule whose oracle fires, like
/// [`explore_systematic`](crate::explore_systematic).
pub fn explore_dpor(mut factory: impl FnMut() -> Trial, config: &DporConfig) -> DporExploration {
    let iso = config.isolation;
    let hint_tables = config.hint.as_ref().map(DirectionHint::hashes);
    let mut path: Vec<Node> = Vec::new();
    let mut prefix: Vec<usize> = Vec::new();
    // sleep state handed to the next run's tail chooser: the driver's
    // sleep set at the deepest scripted branch, and the trace index from
    // which the chooser maintains it
    let mut tail_start: usize = 0;
    let mut tail_sleep: Vec<(usize, Footprint)> = Vec::new();
    let mut stats = SearchStats::default();
    let mut seen_classes: HashSet<Vec<(usize, usize, u64)>> = HashSet::new();
    let mut distinct_classes: usize = 0;
    let mut runs = 0usize;
    let mut complete = true;

    loop {
        if runs >= config.max_runs {
            complete = false;
            break;
        }
        let chooser = SleepTailChooser::new(prefix.clone(), tail_start, tail_sleep.clone(), iso);
        let (run, verdict) = run_with_chooser(factory(), Box::new(chooser));
        runs += 1;
        if run.truncated {
            complete = false;
            stats.pruned_exact = false;
        }
        if let Err(message) = verdict {
            stats.schedules_explored = runs;
            stats.redundant_runs = runs.saturating_sub(distinct_classes + 1);
            let mut run = run;
            run.search = Some(stats.clone());
            return DporExploration {
                runs,
                complete: false,
                violation: Some(Violation {
                    seed: None,
                    choices: run.choices(),
                    message,
                    strategy: config.strategy(),
                    run,
                }),
                stats,
            };
        }

        let analysis = Analysis::of(&run.trace, iso);
        let branch_steps: Vec<usize> = run
            .trace
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.deadlock && s.candidates.len() >= 2)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(path
            .iter()
            .zip(&branch_steps)
            .all(|(n, &t)| n.trace_idx == t));

        // a wait, deadlock, or truncation means some linear extensions
        // of this run's poset are not schedulable 1:1, so class sizes no
        // longer equal schedule counts exactly
        let clean = !run.truncated
            && run.deadlocks == 0
            && run.trace.iter().all(|s| !s.label.ends_with("-wait"));
        if !clean {
            stats.pruned_exact = false;
        }

        // --- sleep-set walk: extend the path, compute inherited sleep
        // sets for new nodes, detect redundant execution ---------------
        {
            let mut active: Vec<(usize, Footprint)> = Vec::new();
            let mut depth = 0usize;
            for (t, step) in run.trace.iter().enumerate() {
                if depth < branch_steps.len() && branch_steps[depth] == t {
                    if depth >= path.len() {
                        path.push(Node {
                            trace_idx: t,
                            candidates: step.candidates.clone(),
                            done: Vec::new(),
                            pending: VecDeque::new(),
                            inherited: active.clone(),
                        });
                    }
                    let node = &mut path[depth];
                    // record this run's choice as explored at this node
                    if node.done.last().map(|(w, _)| *w) != Some(step.worker) {
                        node.done
                            .push((step.worker, analysis.footprints[t].clone()));
                    }
                    // sleepers below = (inherited ∪ earlier siblings)
                    // that commute with the chosen step
                    active = node
                        .inherited
                        .iter()
                        .chain(&node.done[..node.done.len() - 1])
                        .cloned()
                        .collect();
                    depth += 1;
                }
                let f = &analysis.footprints[t];
                if let Some(pos) = active.iter().position(|(w, _)| *w == step.worker) {
                    // executed a sleeping transition (the sleep-aware
                    // tail only does this when every candidate slept):
                    // the schedule duplicates an already-counted class —
                    // caught by the class-key dedup below
                    active.swap_remove(pos);
                }
                active.retain(|(_, sf)| !sf.conflicts(f, iso));
            }
        }

        // --- Mazurkiewicz accounting ----------------------------------
        if clean {
            if seen_classes.insert(class_key(&analysis)) {
                distinct_classes += 1;
                match class_size(&analysis) {
                    Some(size) => {
                        stats.schedules_pruned = stats
                            .schedules_pruned
                            .saturating_add(size.saturating_sub(1));
                    }
                    None => stats.pruned_exact = false,
                }
            }
        } else {
            distinct_classes += 1;
        }

        // --- race reversal: fill backtrack sets -----------------------
        for (i, j) in analysis.races(iso) {
            let Some(depth) = branch_steps.iter().position(|&t| t == i) else {
                // forced move (arity 1): nothing else was schedulable
                // there; Flanagan–Godefroid adds all enabled, a no-op
                continue;
            };
            let mut targets: HashSet<usize> = HashSet::new();
            targets.insert(run.trace[j].worker);
            for k in i + 1..j {
                if analysis.hb(k, j) {
                    targets.insert(run.trace[k].worker);
                }
            }
            let node = &mut path[depth];
            let eligible: Vec<usize> = node
                .candidates
                .iter()
                .copied()
                .filter(|w| targets.contains(w))
                .collect();
            let to_add = if eligible.is_empty() {
                // the alternative is not directly schedulable here: fall
                // back to the sound persistent-set choice (everything)
                node.candidates.clone()
            } else {
                eligible
            };
            let hot = hint_tables.as_ref().is_some_and(|tables| {
                analysis.footprints[i].touches_table(tables)
                    || analysis.footprints[j].touches_table(tables)
            });
            for w in to_add {
                if !node.scheduled(w) {
                    if hot {
                        node.pending.push_front(w);
                    } else {
                        node.pending.push_back(w);
                    }
                }
            }
        }

        // --- DFS: deepest node with an unexplored, non-sleeping
        // backtrack choice becomes the next prefix ---------------------
        let mut next: Option<(usize, usize)> = None;
        'search: for depth in (0..path.len()).rev() {
            while let Some(w) = path[depth].pending.pop_front() {
                if path[depth].inherited.iter().any(|(s, _)| *s == w) {
                    // covered by an earlier sibling subtree
                    stats.sleep_set_blocked += 1;
                    continue;
                }
                next = Some((depth, w));
                break 'search;
            }
        }
        match next {
            Some((depth, w)) => {
                path.truncate(depth + 1);
                prefix.clear();
                for node in &path[..depth] {
                    let (chosen, _) = node.done.last().expect("explored node has a chosen child");
                    let idx = node
                        .candidates
                        .iter()
                        .position(|c| c == chosen)
                        .expect("chosen child is a candidate");
                    prefix.push(idx);
                }
                let idx = path[depth]
                    .candidates
                    .iter()
                    .position(|c| *c == w)
                    .expect("backtrack choice is a candidate");
                prefix.push(idx);
                // the next run's unscripted tail starts asleep on
                // everything already covered at this node
                let node = &path[depth];
                tail_start = node.trace_idx;
                tail_sleep = node.inherited.iter().chain(&node.done).cloned().collect();
            }
            None => break,
        }
    }

    stats.schedules_explored = runs;
    stats.redundant_runs = runs.saturating_sub(distinct_classes);
    DporExploration {
        runs,
        complete,
        violation: None,
        stats,
    }
}
