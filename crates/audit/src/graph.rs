//! The incremental dependency-serialization graph.
//!
//! Nodes are committed transactions; edges are Adya dependencies
//! derived from read/write footprints:
//!
//! - **wr** (read dependency): the reader observed a version the
//!   writer installed (`writer.commit_ts <= reader.read_ts`).
//! - **ww** (write dependency): both wrote the same `(table, row)`,
//!   ordered by commit timestamp.
//! - **rw** (anti-dependency): the reader observed a version *older*
//!   than the writer's install (`reader.read_ts < writer.commit_ts`),
//!   by row overlap or by predicate match against a write image.
//!
//! In this engine wr and ww edges always point forward in commit-ts
//! order, so **every cycle contains at least one backward rw edge** —
//! which makes every detected cycle a critical (anomaly) cycle and is
//! also what makes the watermark GC sound (see `Graph::gc`).

use crate::{ReadTarget, TxnFootprint, WriteRecord};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Read dependency: the target read the source's write.
    WriteRead,
    /// Write dependency: the target overwrote the source's write.
    WriteWrite,
    /// Anti-dependency: the target overwrote what the source read.
    ReadWrite,
}

impl EdgeKind {
    /// Short name (`wr` / `ww` / `rw`).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::WriteRead => "wr",
            EdgeKind::WriteWrite => "ww",
            EdgeKind::ReadWrite => "rw",
        }
    }

    fn code(self) -> u8 {
        match self {
            EdgeKind::WriteRead => 0,
            EdgeKind::WriteWrite => 1,
            EdgeKind::ReadWrite => 2,
        }
    }
}

/// One directed edge of a detected cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEdge {
    /// Source transaction id.
    pub from: u64,
    /// Target transaction id.
    pub to: u64,
    /// Dependency kind.
    pub kind: EdgeKind,
}

/// An anomaly verdict: a critical cycle the online auditor observed in
/// a live execution, with enough attribution to name the racing pair,
/// the offending templates, and the plan cells that admitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyVerdict {
    /// The cycle's edges in path order (the last edge closes the loop).
    pub cycle: Vec<CycleEdge>,
    /// Transaction ids on the cycle, in path order.
    pub txns: Vec<u64>,
    /// The racing pair: endpoints of the first rw (anti-dependency)
    /// edge `(reader, writer)` — the dependency that makes the cycle
    /// critical.
    pub racing: (u64, u64),
    /// Template keys of the cycle members (deduplicated, path order;
    /// `"?"` for unlabelled transactions).
    pub templates: Vec<String>,
    /// Plan cells (`template@isolation`) of the cycle members
    /// (deduplicated, path order) — the cells that admitted this
    /// schedule.
    pub cells: Vec<String>,
    /// Commit timestamp of the transaction whose arrival closed the
    /// cycle (the detection point).
    pub detected_at: u64,
}

/// Per plan-cell watchdog counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounters {
    /// Committed transactions attributed to this cell.
    pub commits: u64,
    /// Anomaly cycles with at least one member in this cell.
    pub anomalies: u64,
}

/// Cap on retained anomaly verdicts (counters keep growing past it).
pub const MAX_VERDICTS: usize = 64;

struct Node {
    commit_ts: u64,
    template: Option<&'static str>,
    isolation: &'static str,
    /// Outgoing edges in deterministic insertion order.
    out: Vec<(u64, EdgeKind)>,
}

#[derive(Default)]
struct RowUse {
    /// Committed writers of this `(table, row)`.
    writers: Vec<u64>,
    /// Committed readers: `(txn, read_ts)` pairs.
    readers: Vec<(u64, u64)>,
}

#[derive(Default)]
struct TableUse {
    /// Committed transactions that predicate-read this table:
    /// `(txn, read_ts, index into that txn's stashed reads)`.
    pred_readers: Vec<(u64, u64, usize)>,
    /// Committed transactions that wrote this table.
    writers: Vec<u64>,
}

/// The live dependency graph over a sliding watermark window.
pub(crate) struct Graph {
    nodes: HashMap<u64, Node>,
    /// `(commit_ts, txn)` ordering index for watermark GC.
    order: BTreeSet<(u64, u64)>,
    by_row: HashMap<(u64, u64), RowUse>,
    by_table: HashMap<u64, TableUse>,
    edge_set: HashSet<(u64, u64, u8)>,
    /// Retained footprints (reads for predicate lookup, writes for
    /// image matching) of live nodes; GC'd with the node.
    stash: HashMap<u64, (Vec<crate::ReadRecord>, Vec<WriteRecord>)>,
    verdicts: Vec<AnomalyVerdict>,
    per_cell: BTreeMap<(&'static str, &'static str), CellCounters>,
    pub(crate) footprints: u64,
    pub(crate) edges_total: u64,
    pub(crate) cycles_total: u64,
    pub(crate) gc_reclaims: u64,
    pub(crate) window_peak: u64,
    pub(crate) watermark: u64,
    /// Highest commit_ts processed — the graph's notion of "now".
    pub(crate) high_ts: u64,
}

impl Graph {
    pub(crate) fn new() -> Graph {
        Graph {
            nodes: HashMap::new(),
            order: BTreeSet::new(),
            by_row: HashMap::new(),
            by_table: HashMap::new(),
            edge_set: HashSet::new(),
            stash: HashMap::new(),
            verdicts: Vec::new(),
            per_cell: BTreeMap::new(),
            footprints: 0,
            edges_total: 0,
            cycles_total: 0,
            gc_reclaims: 0,
            window_peak: 0,
            watermark: 0,
            high_ts: 0,
        }
    }

    pub(crate) fn window_depth(&self) -> u64 {
        self.nodes.len() as u64
    }

    pub(crate) fn verdicts(&self) -> &[AnomalyVerdict] {
        &self.verdicts
    }

    pub(crate) fn per_cell(&self) -> &BTreeMap<(&'static str, &'static str), CellCounters> {
        &self.per_cell
    }

    fn add_edge(&mut self, from: u64, to: u64, kind: EdgeKind) -> u64 {
        if from == to || !self.nodes.contains_key(&from) || !self.nodes.contains_key(&to) {
            // A missing endpoint was already reclaimed: by the
            // watermark invariant no cycle can pass through it.
            return 0;
        }
        if !self.edge_set.insert((from, to, kind.code())) {
            return 0;
        }
        self.nodes
            .get_mut(&from)
            .expect("checked above")
            .out
            .push((to, kind));
        self.edges_total += 1;
        1
    }

    /// Whether predicate `pairs` (column-value hashes; empty = whole
    /// table) can match a write image's column-value hash set.
    fn pred_matches(pairs: &[u64], image: Option<&Vec<u64>>) -> bool {
        match image {
            None => false,
            Some(hashes) => pairs.iter().all(|p| hashes.contains(p)),
        }
    }

    /// Whether write `w` intersects predicate `pairs` on either image.
    fn write_hits_pred(pairs: &[u64], w: &WriteRecord) -> bool {
        Self::pred_matches(pairs, w.old.as_ref()) || Self::pred_matches(pairs, w.new.as_ref())
    }

    fn commit_ts_of(&self, txn: u64) -> Option<u64> {
        self.nodes.get(&txn).map(|n| n.commit_ts)
    }

    fn pred_of(&self, txn: u64, idx: usize) -> Option<&Vec<u64>> {
        self.stash.get(&txn).and_then(|(reads, _)| {
            reads.get(idx).and_then(|r| match &r.target {
                ReadTarget::Pred(pairs) => Some(pairs),
                ReadTarget::Row(_) => None,
            })
        })
    }

    fn writes_of(&self, txn: u64) -> Option<&Vec<WriteRecord>> {
        self.stash.get(&txn).map(|(_, w)| w)
    }

    /// Ingest one committed transaction: derive its edges against the
    /// window, then search for a cycle through it. Returns
    /// `(edges_added, cycle_found)`.
    ///
    /// Derivation runs in two passes: an immutable scan of the access
    /// indexes collects candidate edges (so the index lists are never
    /// cloned), then the candidates are applied through [`Self::add_edge`]
    /// (which dedups). The footprint's own accesses are registered in
    /// between, so a transaction never derives edges against itself.
    pub(crate) fn ingest(&mut self, fp: TxnFootprint) -> (u64, bool) {
        let txn = fp.txn;
        self.footprints += 1;
        self.high_ts = self.high_ts.max(fp.commit_ts);
        self.per_cell
            .entry((fp.template.unwrap_or("?"), fp.isolation))
            .or_default()
            .commits += 1;
        // Commit markers never reach the graph — the auditor counts
        // them before they touch the buffer.
        debug_assert!(!fp.sampled_out);

        self.nodes.insert(
            txn,
            Node {
                commit_ts: fp.commit_ts,
                template: fp.template,
                isolation: fp.isolation,
                out: Vec::new(),
            },
        );
        self.order.insert((fp.commit_ts, txn));
        self.window_peak = self.window_peak.max(self.nodes.len() as u64);

        let mut candidates: Vec<(u64, u64, EdgeKind)> = Vec::new();

        // --- writes: ww against other writers, wr/rw against row
        // readers, predicate wr/rw against predicate readers.
        for w in &fp.writes {
            if let Some(u) = self.by_row.get(&(w.table, w.row)) {
                for &other in &u.writers {
                    match self.commit_ts_of(other) {
                        Some(ts) if ts <= fp.commit_ts => {
                            candidates.push((other, txn, EdgeKind::WriteWrite));
                        }
                        Some(_) => {
                            candidates.push((txn, other, EdgeKind::WriteWrite));
                        }
                        None => {}
                    }
                }
                for &(reader, read_ts) in &u.readers {
                    if read_ts >= fp.commit_ts {
                        candidates.push((txn, reader, EdgeKind::WriteRead));
                    } else {
                        candidates.push((reader, txn, EdgeKind::ReadWrite));
                    }
                }
            }
            if let Some(u) = self.by_table.get(&w.table) {
                for &(reader, read_ts, ri) in &u.pred_readers {
                    let hit = self
                        .pred_of(reader, ri)
                        .map(|pairs| Self::write_hits_pred(pairs, w))
                        .unwrap_or(false);
                    if hit {
                        if read_ts >= fp.commit_ts {
                            candidates.push((txn, reader, EdgeKind::WriteRead));
                        } else {
                            candidates.push((reader, txn, EdgeKind::ReadWrite));
                        }
                    }
                }
            }
        }

        // --- reads: wr from the latest visible writer, rw toward
        // writers that installed past this read.
        for r in &fp.reads {
            match &r.target {
                ReadTarget::Row(row) => {
                    let Some(u) = self.by_row.get(&(r.table, *row)) else {
                        continue;
                    };
                    let mut latest: Option<(u64, u64)> = None; // (commit_ts, txn)
                    for &writer in &u.writers {
                        let Some(ts) = self.commit_ts_of(writer) else {
                            continue;
                        };
                        if writer == txn {
                            continue;
                        }
                        if ts <= r.read_ts {
                            if latest.is_none_or(|(best, _)| ts > best) {
                                latest = Some((ts, writer));
                            }
                        } else {
                            candidates.push((txn, writer, EdgeKind::ReadWrite));
                        }
                    }
                    if let Some((_, writer)) = latest {
                        candidates.push((writer, txn, EdgeKind::WriteRead));
                    }
                }
                ReadTarget::Pred(pairs) => {
                    let Some(u) = self.by_table.get(&r.table) else {
                        continue;
                    };
                    for &writer in &u.writers {
                        if writer == txn {
                            continue;
                        }
                        let Some(w_commit) = self.commit_ts_of(writer) else {
                            continue;
                        };
                        let hits = self
                            .writes_of(writer)
                            .map(|ws| {
                                ws.iter()
                                    .any(|w| w.table == r.table && Self::write_hits_pred(pairs, w))
                            })
                            .unwrap_or(false);
                        if hits {
                            if w_commit <= r.read_ts {
                                candidates.push((writer, txn, EdgeKind::WriteRead));
                            } else {
                                candidates.push((txn, writer, EdgeKind::ReadWrite));
                            }
                        }
                    }
                }
            }
        }

        // Register this transaction's accesses in the indexes.
        for w in &fp.writes {
            let row = self.by_row.entry((w.table, w.row)).or_default();
            if row.writers.last() != Some(&txn) {
                row.writers.push(txn);
            }
            let table = self.by_table.entry(w.table).or_default();
            if table.writers.last() != Some(&txn) {
                table.writers.push(txn);
            }
        }
        for (ri, r) in fp.reads.iter().enumerate() {
            match &r.target {
                ReadTarget::Row(row) => self
                    .by_row
                    .entry((r.table, *row))
                    .or_default()
                    .readers
                    .push((txn, r.read_ts)),
                ReadTarget::Pred(_) => self
                    .by_table
                    .entry(r.table)
                    .or_default()
                    .pred_readers
                    .push((txn, r.read_ts, ri)),
            }
        }

        let mut added = 0u64;
        let mut out_added = 0u64;
        for (from, to, kind) in candidates {
            let n = self.add_edge(from, to, kind);
            added += n;
            if from == txn {
                out_added += n;
            }
        }
        self.stash.insert(txn, (fp.reads, fp.writes));

        // Every edge this ingest added touches `txn`, so a cycle closed
        // by it must pass through `txn` — and a cycle through `txn`
        // needs an edge *out* of it. No new out-edge, no new cycle:
        // skip the search entirely (the overwhelmingly common case in a
        // clean workload, where commits carry only forward edges).
        let cycle = out_added > 0 && self.find_cycle_through(txn, fp.commit_ts);
        (added, cycle)
    }

    /// Depth-first search for a cycle through `start`, following out
    /// edges in insertion order (deterministic given a deterministic
    /// ingest order). Records a verdict and returns true when found.
    fn find_cycle_through(&mut self, start: u64, detected_at: u64) -> bool {
        let mut stack: Vec<(u64, usize)> = vec![(start, 0)];
        let mut on_path: Vec<u64> = vec![start];
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(start);
        while let Some((node, next_idx)) = stack.last_mut() {
            let node = *node;
            let succ = self
                .nodes
                .get(&node)
                .and_then(|n| n.out.get(*next_idx).copied());
            *next_idx += 1;
            match succ {
                None => {
                    stack.pop();
                    on_path.pop();
                }
                Some((target, _)) if target == start => {
                    // Closed the loop: reconstruct edge kinds along the
                    // path.
                    let mut cycle = Vec::new();
                    for i in 0..on_path.len() {
                        let from = on_path[i];
                        let to = if i + 1 < on_path.len() {
                            on_path[i + 1]
                        } else {
                            start
                        };
                        let kind = self
                            .nodes
                            .get(&from)
                            .and_then(|n| n.out.iter().find(|(t, _)| *t == to))
                            .map(|(_, k)| *k)
                            .unwrap_or(EdgeKind::ReadWrite);
                        cycle.push(CycleEdge { from, to, kind });
                    }
                    self.record_verdict(cycle, detected_at);
                    return true;
                }
                Some((target, _)) => {
                    if self.nodes.contains_key(&target) && visited.insert(target) {
                        stack.push((target, 0));
                        on_path.push(target);
                    }
                }
            }
        }
        false
    }

    fn record_verdict(&mut self, cycle: Vec<CycleEdge>, detected_at: u64) {
        self.cycles_total += 1;
        let txns: Vec<u64> = cycle.iter().map(|e| e.from).collect();
        // The critical anti-dependency: its reader observed state from
        // before its writer's install.
        let racing = cycle
            .iter()
            .find(|e| e.kind == EdgeKind::ReadWrite)
            .map(|e| (e.from, e.to))
            .unwrap_or((cycle[0].from, cycle[0].to));
        let mut templates = Vec::new();
        let mut cells = Vec::new();
        let mut cell_keys: Vec<(&'static str, &'static str)> = Vec::new();
        for &t in &txns {
            if let Some(n) = self.nodes.get(&t) {
                let template = n.template.unwrap_or("?");
                let cell = format!("{}@{}", template, n.isolation);
                if !cells.contains(&cell) {
                    cells.push(cell);
                    cell_keys.push((template, n.isolation));
                }
                let template = template.to_string();
                if !templates.contains(&template) {
                    templates.push(template);
                }
            }
        }
        // One anomaly per cell per cycle, however many members share
        // the cell.
        for key in cell_keys {
            self.per_cell.entry(key).or_default().anomalies += 1;
        }
        feral_trace::record(
            feral_trace::EventKind::Anomaly,
            txns[0],
            txns.get(1).copied().unwrap_or(0),
            feral_trace::fnv64(templates.first().map(String::as_bytes).unwrap_or(b"?")),
        );
        if self.verdicts.len() < MAX_VERDICTS {
            self.verdicts.push(AnomalyVerdict {
                cycle,
                txns,
                racing,
                templates,
                cells,
                detected_at,
            });
        }
    }

    /// Watermark GC: reclaim completed nodes with
    /// `commit_ts < watermark` that are unreachable from the frontier.
    ///
    /// Soundness: a future transaction `T` has
    /// `read_ts >= begin_ts >= watermark` for every read, so every
    /// *new* edge out of `T` targets a node with
    /// `commit_ts > T.read_ts >= watermark` — the frontier. A cycle
    /// through `T` therefore leaves `T` into the frontier and must
    /// travel from there back to `T` along existing edges, so it can
    /// only touch a sub-watermark node that is **reachable from the
    /// frontier** (a long-lived reader above the watermark can hold a
    /// backward rw edge into the old region, which is why
    /// `commit_ts < watermark` alone is *not* a safe reclaim test —
    /// the crate's GC proptest finds that counterexample). Reclaiming
    /// exactly the unreachable old nodes can never lose a cycle: every
    /// cycle among completed nodes was already detected when its last
    /// member was ingested, and no future cycle can route through an
    /// unreachable node. Memory therefore stays proportional to the
    /// active window plus its backward-dependency closure.
    pub(crate) fn gc(&mut self, watermark: u64) {
        self.watermark = watermark;
        if self.order.first().is_none_or(|&(ts, _)| ts >= watermark) {
            return;
        }
        // Mark: flood out-edges from the frontier (commit_ts >=
        // watermark); everything touched can still sit on a future
        // cycle and must be retained.
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut queue: Vec<u64> = Vec::new();
        for &(_, txn) in self.order.range((watermark, 0)..) {
            if reachable.insert(txn) {
                queue.push(txn);
            }
        }
        while let Some(t) = queue.pop() {
            if let Some(n) = self.nodes.get(&t) {
                for &(to, _) in &n.out {
                    if reachable.insert(to) {
                        queue.push(to);
                    }
                }
            }
        }
        let doomed: Vec<(u64, u64)> = self
            .order
            .range(..(watermark, 0))
            .filter(|(_, txn)| !reachable.contains(txn))
            .copied()
            .collect();
        if doomed.is_empty() {
            return;
        }
        let mut gone: HashSet<u64> = HashSet::new();
        for (ts, txn) in doomed {
            self.order.remove(&(ts, txn));
            self.nodes.remove(&txn);
            self.stash.remove(&txn);
            gone.insert(txn);
            self.gc_reclaims += 1;
        }
        for n in self.nodes.values_mut() {
            n.out.retain(|(to, _)| !gone.contains(to));
        }
        self.edge_set
            .retain(|(from, to, _)| !gone.contains(from) && !gone.contains(to));
        self.by_row.retain(|_, u| {
            u.writers.retain(|t| !gone.contains(t));
            u.readers.retain(|(t, _)| !gone.contains(t));
            !u.writers.is_empty() || !u.readers.is_empty()
        });
        self.by_table.retain(|_, u| {
            u.writers.retain(|t| !gone.contains(t));
            u.pred_readers.retain(|(t, _, _)| !gone.contains(t));
            !u.writers.is_empty() || !u.pred_readers.is_empty()
        });
    }
}
