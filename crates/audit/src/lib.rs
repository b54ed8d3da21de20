#![warn(missing_docs)]
//! feral-audit: runtime dependency-serialization-graph observer.
//!
//! The static half of this stack (feral-sdg, feral-plan, the DPOR
//! sweeps) certifies transaction *templates* offline; nothing checks
//! whether a **live** execution under the planner's demoted isolation
//! levels actually stayed serializable. Following Nagar &
//! Jagannathan's *Automated Detection of Serializability Violations
//! under Weak Consistency*, this crate reconstructs the Adya
//! dependency-serialization graph from committed transactions at
//! runtime and reports anomaly cycles as they happen.
//!
//! Pipeline: the engine captures each transaction's read/write
//! footprint at commit into a bounded, sharded buffer
//! ([`Auditor::observe_commit`]); an incremental cycle detector
//! ([`graph`]) maintains wr/ww/rw edges over a sliding watermark
//! window with completed-transaction GC, so memory stays proportional
//! to the active window. A `sampled`/`full` [`AuditMode`] knob trades
//! read-set capture cost for rw/wr completeness, and drop counters
//! account for buffer saturation. Verdicts name the racing
//! transaction pair, the offending template keys, and the isolation
//! plan cell that admitted the schedule; the whole surface exports as
//! JSON and Prometheus text ([`report`]).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub mod graph;
pub mod report;

pub use graph::{AnomalyVerdict, CellCounters, CycleEdge, EdgeKind, MAX_VERDICTS};
pub use report::{validate_audit, validate_audit_json, AuditSnapshot, CellAudit};

/// How much the runtime auditor captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// No auditor at all: zero capture cost.
    Off,
    /// Statistical spot-check: one transaction in `n` is audited
    /// end-to-end (full read/write footprint, graph node, cycle
    /// search); the rest deliver an empty commit marker, so per-cell
    /// commit accounting and the plan-drift watchdog stay exact while
    /// the dependency graph — and its cost — shrinks to the sampled
    /// slice. Detected cycles are a lower bound: a cycle is only
    /// visible when every member landed in the slice. `Sampled(1)`
    /// behaves like [`AuditMode::Full`].
    Sampled(u32),
    /// Full read and write capture: the graph sees every dependency
    /// the engine admitted.
    Full,
}

impl AuditMode {
    /// Whether the auditor is disabled.
    pub fn is_off(self) -> bool {
        matches!(self, AuditMode::Off)
    }

    /// Stable name (`off` / `sampled/N` / `full`).
    pub fn name(self) -> String {
        match self {
            AuditMode::Off => "off".into(),
            AuditMode::Sampled(n) => format!("sampled/{n}"),
            AuditMode::Full => "full".into(),
        }
    }

    /// Parse [`AuditMode::name`] output back into a mode.
    pub fn parse(s: &str) -> Option<AuditMode> {
        match s {
            "off" => Some(AuditMode::Off),
            "full" => Some(AuditMode::Full),
            other => other
                .strip_prefix("sampled/")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .map(AuditMode::Sampled),
        }
    }
}

/// What a read statement targeted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadTarget {
    /// A specific committed row.
    Row(u64),
    /// An equality predicate: column-value pair hashes (see
    /// [`column_value_hash`]); an empty list means the whole table was
    /// scanned.
    Pred(Vec<u64>),
}

/// One read performed by a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// Table identifier.
    pub table: u64,
    /// Row or predicate target.
    pub target: ReadTarget,
    /// Timestamp the statement read at (per-statement under Read
    /// Committed, the transaction snapshot under snapshot levels).
    pub read_ts: u64,
}

/// One write installed by a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// Table identifier.
    pub table: u64,
    /// Heap row the version chain lives on.
    pub row: u64,
    /// Column-value hashes of the overwritten image (`None` for an
    /// insert).
    pub old: Option<Vec<u64>>,
    /// Column-value hashes of the installed image (`None` for a
    /// delete).
    pub new: Option<Vec<u64>>,
}

/// A committed transaction's footprint, delivered to the auditor at
/// commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnFootprint {
    /// Transaction id.
    pub txn: u64,
    /// Snapshot/begin timestamp.
    pub begin_ts: u64,
    /// Commit timestamp (for read-only transactions: the clock at
    /// commit).
    pub commit_ts: u64,
    /// Isolation level name the transaction ran at.
    pub isolation: &'static str,
    /// Plan template key (trace label), when the transaction was
    /// opened through `TxnOptions::planned`/`label`.
    pub template: Option<&'static str>,
    /// Captured reads (empty when sampled out).
    pub reads: Vec<ReadRecord>,
    /// Captured writes (empty when sampled out).
    pub writes: Vec<WriteRecord>,
    /// True when [`AuditMode::Sampled`] left this transaction outside
    /// the audited slice: the footprint is a bare commit marker that
    /// feeds per-cell accounting but never joins the graph.
    pub sampled_out: bool,
}

/// Outcome of delivering one footprint (or draining the buffer):
/// the caller mirrors these into its own stats counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Dependency edges added to the graph.
    pub edges_added: u64,
    /// Anomaly cycles detected.
    pub cycles_found: u64,
    /// Footprints dropped because the buffer was saturated.
    pub dropped: u64,
}

/// Hash a `(column, encoded value)` pair into the footprint
/// vocabulary both predicate reads and write images use; equality of
/// hashes is how the graph decides a write could have matched a
/// predicate. FNV-1a over the column index (little-endian) and the
/// engine's order-preserving key encoding.
pub fn column_value_hash(column: usize, encoded_value: &[u8]) -> u64 {
    // FNV-1a over `column.to_le_bytes() ++ encoded_value`, streamed with
    // no concatenated buffer — this runs per column per captured image
    // on the commit path.
    let column = feral_hooks::fnv64(&(column as u64).to_le_bytes());
    feral_hooks::fnv64_extend(column, encoded_value)
}

/// Default per-shard footprint buffer capacity.
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// Number of buffer shards.
const BUFFER_SHARDS: usize = 8;

/// Tick interval of the background drainer thread (see
/// [`Auditor::start_background`]). Detection latency in background
/// mode is bounded by one tick; a coarse tick keeps the drainer's
/// wakeups (and their context switches) negligible even on small
/// machines.
const DRAINER_TICK: std::time::Duration = std::time::Duration::from_millis(2);

/// Slots in the lock-free commit-marker table (see
/// [`Auditor::observe_commit_marker`]). Sized for an order of
/// magnitude more (template, isolation) cells than any workload in
/// this repo declares.
const MARKER_SLOTS: usize = 32;

/// The runtime auditor: a sharded footprint buffer in front of the
/// incremental dependency graph.
///
/// `observe_commit` pushes the footprint under a shard lock — that is
/// the whole per-commit cost. Graph maintenance (ingest, cycle
/// detection, watermark GC) is amortized: once a shard's backlog
/// reaches the drain batch size, the committer that crossed the
/// threshold drains every shard into the graph if the graph mutex is
/// free (`try_lock`) — committers never queue behind graph
/// maintenance, and the serial ingest work runs once per batch rather
/// than once per commit. [`Auditor::start_background`] moves even that
/// batch work onto a dedicated drainer thread for concurrent
/// deployments. Detection latency is bounded by one batch of commits
/// (one drainer tick in background mode); [`Auditor::drain`] and
/// [`Auditor::snapshot`] force the buffered tail through. The drain
/// sorts each batch by commit timestamp, so with inline draining the
/// edge set and verdicts are independent of thread interleaving —
/// under feral-sim the same seed yields the same report.
pub struct Auditor {
    mode: AuditMode,
    shard_capacity: usize,
    /// Shard backlog that triggers an opportunistic drain.
    drain_batch: usize,
    /// When true (the default), committers drain the buffer themselves
    /// once a batch builds up — fully deterministic, used under
    /// simulation. [`Auditor::start_background`] switches draining to a
    /// dedicated thread so commit threads never pay graph maintenance.
    inline_drain: AtomicBool,
    shards: Vec<Mutex<Vec<TxnFootprint>>>,
    graph: Mutex<graph::Graph>,
    /// Active transactions: txn → begin_ts (watermark source).
    active: Mutex<HashMap<u64, u64>>,
    dropped: AtomicU64,
    /// Commit markers from outside the sampled slice: per-cell commit
    /// counters in a lock-free linear-probe table. Markers never touch
    /// the footprint buffer or the graph — the common case is a few
    /// slot loads and one relaxed fetch-add. Distinct cells claim
    /// slots first-come-first-served; a full table falls back to the
    /// overflow map (never reached by realistic template counts).
    marker_keys: [std::sync::OnceLock<(&'static str, &'static str)>; MARKER_SLOTS],
    marker_counts: [AtomicU64; MARKER_SLOTS],
    marker_overflow: Mutex<std::collections::BTreeMap<(&'static str, &'static str), u64>>,
}

impl Auditor {
    /// Auditor with the default buffer capacity. Panics on
    /// [`AuditMode::Off`] — an off auditor should not exist at all.
    pub fn new(mode: AuditMode) -> Auditor {
        Auditor::with_capacity(mode, DEFAULT_SHARD_CAPACITY)
    }

    /// Auditor with an explicit per-shard footprint capacity.
    pub fn with_capacity(mode: AuditMode, shard_capacity: usize) -> Auditor {
        assert!(!mode.is_off(), "AuditMode::Off has no auditor");
        let shard_capacity = shard_capacity.max(1);
        Auditor {
            mode,
            shard_capacity,
            // amortize graph maintenance over ~1/32 of a shard, but
            // never defer past 128 commits; tiny test capacities drain
            // on every commit
            drain_batch: shard_capacity.div_ceil(32).min(128),
            inline_drain: AtomicBool::new(true),
            shards: (0..BUFFER_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            graph: Mutex::new(graph::Graph::new()),
            active: Mutex::new(HashMap::new()),
            dropped: AtomicU64::new(0),
            marker_keys: [const { std::sync::OnceLock::new() }; MARKER_SLOTS],
            marker_counts: [const { AtomicU64::new(0) }; MARKER_SLOTS],
            marker_overflow: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Move graph maintenance off the commit path onto a dedicated
    /// drainer thread that ticks every `DRAINER_TICK`. Commit threads
    /// then pay only the shard-buffer push; the thread exits on its own
    /// once the last `Arc` to the auditor drops.
    ///
    /// Batch boundaries (and therefore exact edge counts near the GC
    /// watermark) become timing-dependent in this mode — cycle
    /// detection is unaffected. Deterministic runs (feral-sim) should
    /// stay with the default inline draining.
    pub fn start_background(this: &Arc<Auditor>) {
        if !this.inline_drain.swap(false, Ordering::SeqCst) {
            return; // already running
        }
        let weak = Arc::downgrade(this);
        let spawned = std::thread::Builder::new()
            .name("feral-audit-drain".into())
            .spawn(move || loop {
                std::thread::sleep(DRAINER_TICK);
                let Some(auditor) = weak.upgrade() else { break };
                auditor.drain();
            })
            .is_ok();
        if !spawned {
            // No thread available: fall back to inline draining rather
            // than letting the buffer saturate.
            this.inline_drain.store(true, Ordering::SeqCst);
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> AuditMode {
        self.mode
    }

    /// Whether this transaction is in the audited slice (always under
    /// [`AuditMode::Full`], one in `n` under [`AuditMode::Sampled`]).
    /// Footprint capture and graph membership follow this answer;
    /// transactions outside the slice only deliver a commit marker.
    pub fn samples(&self, txn: u64) -> bool {
        match self.mode {
            AuditMode::Off => false,
            AuditMode::Full => true,
            AuditMode::Sampled(n) => txn.is_multiple_of(n as u64),
        }
    }

    /// A transaction began: joins the watermark window. Transactions
    /// outside the sampled slice never gain a graph node, so they
    /// don't pin the watermark either.
    pub fn observe_begin(&self, txn: u64, begin_ts: u64) {
        if self.samples(txn) {
            self.active.lock().insert(txn, begin_ts);
        }
    }

    /// A transaction aborted: leaves the window without a footprint.
    pub fn observe_abort(&self, txn: u64) {
        self.active.lock().remove(&txn);
    }

    /// A transaction committed: deliver its footprint. Buffered under
    /// a shard lock; the graph is advanced opportunistically.
    ///
    /// The transaction's begin-timestamp pin on the watermark is NOT
    /// released here — a buffered footprint must keep holding the
    /// watermark down until it is actually ingested, or a concurrent
    /// drain could reclaim nodes its backward edges still reference.
    /// [`Auditor::drain`] releases the pin after ingest.
    pub fn observe_commit(&self, fp: TxnFootprint) -> CommitOutcome {
        // Commit markers from outside the sampled slice never enter
        // the buffer or the graph: their whole cost is two counter
        // bumps, so per-cell commit accounting stays exact while the
        // unsampled fast path stays flat.
        if fp.sampled_out {
            self.observe_commit_marker(fp.template, fp.isolation);
            return CommitOutcome::default();
        }
        let mut outcome = CommitOutcome::default();
        let backlog = {
            let mut shard = self.shards[(fp.txn % BUFFER_SHARDS as u64) as usize].lock();
            if shard.len() >= self.shard_capacity {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                outcome.dropped += 1;
                self.active.lock().remove(&fp.txn);
                shard.len()
            } else {
                shard.push(fp);
                shard.len()
            }
        };
        // Inline mode: drain only once a batch has built up (or the
        // shard is saturated) — the common-case commit pays a shard
        // push and nothing else. Background mode: the drainer thread
        // owns all graph maintenance.
        if (backlog >= self.drain_batch || backlog >= self.shard_capacity)
            && self.inline_drain.load(Ordering::Relaxed)
        {
            if let Some(mut g) = self.graph.try_lock() {
                let (e, c) = self.drain_into(&mut g);
                outcome.edges_added += e;
                outcome.cycles_found += c;
            }
        }
        outcome
    }

    /// A transaction outside the sampled slice committed. Equivalent
    /// to delivering a footprint with `sampled_out: true`, minus the
    /// footprint: two counter bumps keep per-cell commit accounting
    /// exact without touching the buffer or the graph.
    pub fn observe_commit_marker(&self, template: Option<&'static str>, isolation: &'static str) {
        let key = (template.unwrap_or("?"), isolation);
        // Start the probe at a pointer-derived hash so distinct cells
        // land on distinct slots and the common case is a single
        // compare. Slot assignment varies across processes (ASLR);
        // snapshotting folds the table into a BTree, so reports stay
        // deterministic regardless.
        let start = (key.0.as_ptr() as usize ^ (key.1.as_ptr() as usize >> 3)) / 16;
        for i in 0..MARKER_SLOTS {
            let slot = (start + i) % MARKER_SLOTS;
            // On an already-claimed slot this is a plain acquire load;
            // two racing claims of one cell converge on the same slot
            // because the loser observes the winner's key.
            if *self.marker_keys[slot].get_or_init(|| key) == key {
                self.marker_counts[slot].fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        *self.marker_overflow.lock().entry(key).or_default() += 1;
    }

    /// Force-process everything buffered (blocking on the graph lock).
    /// Called by snapshotting so reports never miss buffered tails.
    pub fn drain(&self) -> CommitOutcome {
        let mut g = self.graph.lock();
        let (edges_added, cycles_found) = self.drain_into(&mut g);
        CommitOutcome {
            edges_added,
            cycles_found,
            dropped: 0,
        }
    }

    fn drain_into(&self, g: &mut graph::Graph) -> (u64, u64) {
        let mut batch: Vec<TxnFootprint> = Vec::new();
        for shard in &self.shards {
            batch.append(&mut shard.lock());
        }
        if batch.is_empty() {
            return (0, 0);
        }
        // Commit-ts order (txn id as tie-break for read-only commits
        // sharing a clock value) keeps ingest deterministic regardless
        // of which shard a footprint landed in.
        batch.sort_by_key(|fp| (fp.commit_ts, fp.txn));
        let ids: Vec<u64> = batch.iter().map(|fp| fp.txn).collect();
        let mut edges = 0;
        let mut cycles = 0;
        for fp in batch {
            let (e, c) = g.ingest(fp);
            edges += e;
            cycles += u64::from(c);
        }
        // Ingested footprints release their begin-ts watermark pin
        // only now; then advance the watermark to the oldest still
        // pinned begin (or the newest processed commit when idle) —
        // nothing below it can gain a backward edge any more.
        let watermark = {
            let mut active = self.active.lock();
            for id in &ids {
                active.remove(id);
            }
            active.values().copied().min().unwrap_or(g.high_ts)
        };
        g.gc(watermark);
        (edges, cycles)
    }

    /// Point-in-time export of the whole audit surface (drains the
    /// buffer first).
    pub fn snapshot(&self) -> AuditSnapshot {
        self.drain();
        let g = self.graph.lock();
        // Per-cell commit counts merge the ingested slice with the
        // marker counters; both keys are 'static, and folding the slot
        // table into a BTree keeps cell order deterministic no matter
        // which thread claimed which slot.
        let mut marker_cells: std::collections::BTreeMap<(&'static str, &'static str), u64> =
            self.marker_overflow.lock().clone();
        for (key, count) in self.marker_keys.iter().zip(&self.marker_counts) {
            if let Some(key) = key.get() {
                let n = count.load(Ordering::Relaxed);
                if n > 0 {
                    *marker_cells.entry(*key).or_default() += n;
                }
            }
        }
        let marker_total: u64 = marker_cells.values().sum();
        let mut keys: std::collections::BTreeSet<(&'static str, &'static str)> =
            g.per_cell().keys().copied().collect();
        keys.extend(marker_cells.keys().copied());
        let cells = keys
            .into_iter()
            .map(|key| {
                let c = g.per_cell().get(&key);
                CellAudit {
                    template: key.0.to_string(),
                    isolation: key.1.to_string(),
                    commits: c.map_or(0, |c| c.commits)
                        + marker_cells.get(&key).copied().unwrap_or(0),
                    anomalies: c.map_or(0, |c| c.anomalies),
                }
            })
            .collect();
        AuditSnapshot {
            mode: self.mode.name(),
            footprints: g.footprints + marker_total,
            edges: g.edges_total,
            cycles: g.cycles_total,
            drops: self.dropped.load(Ordering::Relaxed),
            gc_reclaims: g.gc_reclaims,
            window_depth: g.window_depth(),
            window_peak: g.window_peak,
            watermark: g.watermark,
            cells,
            verdicts: g.verdicts().to_vec(),
        }
    }
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("mode", &self.mode.name())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}
