//! Versioned row storage (the MVCC heap).
//!
//! Each logical row is a *chain* of versions stamped with `[begin, end)`
//! commit-timestamp ranges. Readers resolve visibility against a snapshot
//! timestamp; writers append new versions at commit. Nothing is ever
//! modified in place except closing a version's `end` bound, which happens
//! under the table's commit latch and its segment's write latch, so
//! readers holding a segment's read latch observe internally consistent
//! chains.

use crate::value::{Datum, Row};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Position of a row chain within a table's heap.
pub type RowId = usize;

/// One immutable version of a row.
#[derive(Debug, Clone)]
pub struct RowVersion {
    /// Commit timestamp of the transaction that created this version.
    pub begin: u64,
    /// Commit timestamp of the transaction that superseded or deleted this
    /// version; `0` means the version is still current.
    pub end: u64,
    /// The row image.
    pub tuple: Row,
}

impl RowVersion {
    /// Whether this version is visible to a snapshot taken at `ts`.
    pub fn visible_at(&self, ts: u64) -> bool {
        self.begin <= ts && (self.end == 0 || self.end > ts)
    }

    /// Whether this version ended at or before `horizon`, so no snapshot
    /// at or after it can see the version.
    fn ended_by(&self, horizon: u64) -> bool {
        self.end != 0 && self.end <= horizon
    }
}

/// The version history of one logical row. The newest version sits in the
/// heap slot itself, so resolving a posting to it reads the slot and
/// nothing behind it; superseded versions follow in a vector that exists
/// only while there are any: a row never updated costs the slot alone.
struct RowChain {
    newest: RowVersion,
    /// Superseded versions, oldest first; `None` rather than empty. Boxed:
    /// one word in every slot, three only in the slots of updated rows.
    #[allow(clippy::box_collection)]
    older: Option<Box<Vec<RowVersion>>>,
}

// The slot is five words: the newest version (two stamps and the row's
// two-word pointer) and the pointer to the history.
const _: () = assert!(std::mem::size_of::<RowChain>() == 40);

impl RowChain {
    /// Superseded versions, oldest first.
    fn older(&self) -> &[RowVersion] {
        debug_assert!(
            self.older.as_ref().is_none_or(|older| !older.is_empty()),
            "an emptied history is dropped, not kept"
        );
        self.older.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Every version, newest first.
    fn newest_first(&self) -> impl Iterator<Item = &RowVersion> {
        std::iter::once(&self.newest).chain(self.older().iter().rev())
    }

    /// The version visible at snapshot `ts`, if any (a snapshot sees at
    /// most one, usually the newest).
    fn visible_at(&self, ts: u64) -> Option<&RowVersion> {
        self.newest_first().find(|v| v.visible_at(ts))
    }

    /// Whether the newest version is live (not deleted).
    fn live(&self) -> bool {
        self.newest.end == 0
    }

    /// Whether a version a commit after `ts` made or closed — a new or an
    /// old image of a write a snapshot at `ts` did not see — satisfies
    /// `filter`. Those are the newest versions: a chain's stamps only grow.
    fn written_after(&self, ts: u64, mut filter: impl FnMut(&[Datum]) -> bool) -> bool {
        let mut since = self
            .newest_first()
            .take_while(|v| v.begin > ts || v.end > ts);
        since.any(|v| filter(&v.tuple))
    }
}

/// Rows per heap segment. Unit tests run on four-row segments, so every
/// heap they build spans several.
pub const SEGMENT_ROWS: usize = if cfg!(test) { 4 } else { 1024 };

/// Directory slots: slot `k` holds `2^k` segments, so 48 slots hold
/// `2^48 - 1` segments, more rows than fit in memory.
const DIRECTORY_SLOTS: usize = 48;

/// One segment: [`SEGMENT_ROWS`] row chains under their own latch. The
/// latch is a leaf — nothing is taken while it is held, a second segment
/// latch included — so no heap operation ever holds two.
type Segment = RwLock<Vec<RowChain>>;

/// A table's heap: an append-only sequence of row chains in fixed-size
/// segments, each behind a read-write latch of its own. A reader finds
/// its row's segment through a directory of set-once slots and takes that
/// segment's latch alone; a commit takes one segment's write latch while
/// installing a version. Segment `s` holds rows
/// `s * SEGMENT_ROWS .. (s + 1) * SEGMENT_ROWS`, and the directory slot
/// `k` holds segments `2^k - 1 .. 2^(k+1) - 1`, allocated when the first
/// of them is needed, so a segment never moves.
///
/// `len`, the number of chains, is stored with `Release` under the tail
/// segment's write latch after each append: a reader that loads it with
/// `Acquire` finds every segment below it in the directory. An append
/// takes its position under the tail segment's latch, so no heap-wide
/// latch or mutex remains.
pub struct Heap {
    directory: [OnceLock<Box<[Segment]>>; DIRECTORY_SLOTS],
    len: AtomicUsize,
    /// The newest commit timestamp that installed a version here (0:
    /// none), raised under the table's commit latch, which a validator
    /// reading it holds too.
    written_at: AtomicU64,
}

impl Default for Heap {
    fn default() -> Self {
        Heap {
            directory: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            written_at: AtomicU64::new(0),
        }
    }
}

/// The directory slot of segment `s`, and its place in the slot.
fn slot_of(s: usize) -> (usize, usize) {
    let k = (s + 1).ilog2() as usize;
    (k, s + 1 - (1 << k))
}

impl Heap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Segment `s`, if it has been allocated.
    fn segment(&self, s: usize) -> Option<&Segment> {
        let (k, at) = slot_of(s);
        self.directory.get(k)?.get().map(|segments| &segments[at])
    }

    /// Segment `s`, allocating its directory slot if need be.
    fn segment_or_create(&self, s: usize) -> &Segment {
        let (k, at) = slot_of(s);
        let segments = self.directory[k]
            .get_or_init(|| (0..1usize << k).map(|_| RwLock::leaf(Vec::new())).collect());
        &segments[at]
    }

    /// The segments holding rows `0..len`, with the id of each one's
    /// first row, one at a time.
    fn segments(&self) -> impl Iterator<Item = (RowId, &Segment)> {
        let len = self.len.load(Ordering::Acquire);
        (0..len.div_ceil(SEGMENT_ROWS)).filter_map(|s| Some((s * SEGMENT_ROWS, self.segment(s)?)))
    }

    /// Run `f` on the chain of `row` under its segment's read latch.
    fn read_chain<R>(&self, row: RowId, f: impl FnOnce(&RowChain) -> Option<R>) -> Option<R> {
        let rows = self.segment(row / SEGMENT_ROWS)?.read();
        rows.get(row % SEGMENT_ROWS).and_then(f)
    }

    /// Run `f` on the chain of `row` under its segment's write latch.
    fn write_chain(&self, row: RowId, f: impl FnOnce(&mut RowChain) -> bool) -> bool {
        let Some(segment) = self.segment(row / SEGMENT_ROWS) else {
            return false;
        };
        segment.write().get_mut(row % SEGMENT_ROWS).is_some_and(f)
    }

    /// Number of row chains ever created (including dead ones).
    pub fn chain_count(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Install a brand-new row committed at `commit_ts`; returns its id.
    pub fn install_insert(&self, commit_ts: u64, tuple: Row) -> RowId {
        self.written_at.fetch_max(commit_ts, Ordering::Relaxed);
        let chain = RowChain {
            newest: RowVersion {
                begin: commit_ts,
                end: 0,
                tuple,
            },
            older: None,
        };
        loop {
            let s = self.len.load(Ordering::Acquire) / SEGMENT_ROWS;
            let mut rows = self.segment_or_create(s).write();
            // a full segment: another append took its last slot since
            // `len` was read, and `len` has moved on to the next one
            if rows.len() < SEGMENT_ROWS {
                let row = s * SEGMENT_ROWS + rows.len();
                rows.push(chain);
                self.len.store(row + 1, Ordering::Release);
                return row;
            }
        }
    }

    /// Close the current version of `row` (a delete) at `commit_ts`.
    /// Returns `false` if the row had no open version (already deleted).
    pub fn install_delete(&self, row: RowId, commit_ts: u64) -> bool {
        self.written_at.fetch_max(commit_ts, Ordering::Relaxed);
        self.write_chain(row, |chain| {
            let live = chain.live();
            if live {
                chain.newest.end = commit_ts;
            }
            live
        })
    }

    /// Supersede the current version of `row` with `tuple` at `commit_ts`.
    /// Returns `false` if the row had no open version.
    pub fn install_update(&self, row: RowId, commit_ts: u64, tuple: Row) -> bool {
        self.written_at.fetch_max(commit_ts, Ordering::Relaxed);
        self.write_chain(row, |chain| {
            if !chain.live() {
                return false;
            }
            chain.newest.end = commit_ts;
            let next = RowVersion {
                begin: commit_ts,
                end: 0,
                tuple,
            };
            let superseded = std::mem::replace(&mut chain.newest, next);
            chain.older.get_or_insert_default().push(superseded);
            true
        })
    }

    /// The tuple of `row` visible at snapshot `ts`.
    pub fn visible(&self, row: RowId, ts: u64) -> Option<Row> {
        self.read_chain(row, |c| c.visible_at(ts).map(|v| v.tuple.clone()))
    }

    /// The newest version of `row` published at `clock`, with its liveness
    /// at `clock` and its `begin` timestamp — what post-lock re-reads and
    /// in-database constraint checks look at. Versions above the clock are
    /// installed but not (yet, or after a failed flush ever) committed:
    /// their writer still holds the row and key locks unless its flush
    /// failed, so under a lock this is the latest committed image.
    pub fn latest(&self, row: RowId, clock: u64) -> Option<(Row, bool, u64)> {
        self.read_chain(row, |c| {
            let v = c.newest_first().find(|v| v.begin <= clock)?;
            Some((v.tuple.clone(), v.end == 0 || v.end > clock, v.begin))
        })
    }

    /// The newest installed tuple of `row`, published or not. Only WAL
    /// replay may use this: it runs before the clock is set.
    pub fn newest(&self, row: RowId) -> Option<Row> {
        self.read_chain(row, |c| Some(c.newest.tuple.clone()))
    }

    /// Whether a commit after `ts` installed a version here.
    pub fn written_since(&self, ts: u64) -> bool {
        self.written_at.load(Ordering::Relaxed) > ts
    }

    /// Whether a commit after `ts` wrote `row` with an old or a new image
    /// that satisfies `filter` (which runs under a leaf latch).
    pub fn row_written_since(
        &self,
        row: RowId,
        ts: u64,
        filter: impl Fn(&[Datum]) -> bool,
    ) -> bool {
        self.read_chain(row, |c| Some(c.written_after(ts, filter)))
            .unwrap_or(false)
    }

    /// Whether a commit after `ts` wrote any row with an old or a new
    /// image that satisfies `filter`: every chain is walked, if anything
    /// was installed after `ts`.
    pub fn any_written_since(&self, ts: u64, filter: impl Fn(&[Datum]) -> bool) -> bool {
        let rows_written = |(_, segment): (RowId, &Segment)| {
            segment.read().iter().any(|c| c.written_after(ts, &filter))
        };
        self.written_since(ts) && self.segments().any(rows_written)
    }

    /// Collect `(row_id, tuple)` for every row visible at `ts` that matches
    /// `filter`. The filter runs under a segment's read latch, so it must
    /// be cheap and take no lock; predicate evaluation qualifies.
    pub fn scan_visible<F>(&self, ts: u64, mut filter: F) -> Vec<(RowId, Row)>
    where
        F: FnMut(&[Datum]) -> bool,
    {
        let mut out = Vec::new();
        for (first, segment) in self.segments() {
            for (at, chain) in segment.read().iter().enumerate() {
                if let Some(v) = chain.visible_at(ts) {
                    if filter(&v.tuple) {
                        out.push((first + at, v.tuple.clone()));
                    }
                }
            }
        }
        out
    }

    /// Collect `(row_id, tuple)` for every row whose newest installed
    /// version — published or not — is live and matches `filter`. Only
    /// DDL reads this, under the table's commit latch: the duplicate check
    /// of a new unique index and the orphan check of a new foreign key;
    /// a transaction's constraint checks read `scan_visible` at the clock
    /// instead.
    pub fn scan_latest<F>(&self, mut filter: F) -> Vec<(RowId, Row)>
    where
        F: FnMut(&[Datum]) -> bool,
    {
        let mut out = Vec::new();
        for (first, segment) in self.segments() {
            for (at, chain) in segment.read().iter().enumerate() {
                if chain.live() && filter(&chain.newest.tuple) {
                    out.push((first + at, chain.newest.tuple.clone()));
                }
            }
        }
        out
    }

    /// Every version of every chain, deleted rows' too: what an index
    /// built over a live table posts, so a snapshot that predates the
    /// index reaches every row it sees through it.
    pub fn scan_versions(&self) -> Vec<(RowId, Row)> {
        let mut out = Vec::new();
        for (first, segment) in self.segments() {
            for (at, chain) in segment.read().iter().enumerate() {
                out.extend(chain.newest_first().map(|v| (first + at, v.tuple.clone())));
            }
        }
        out
    }

    /// Rows whose newest version is a delete no snapshot at or before
    /// `horizon` can still see — their index postings are garbage and may
    /// be swept.
    pub fn dead_rows(&self, horizon: u64) -> Vec<RowId> {
        let mut out = Vec::new();
        for (first, segment) in self.segments() {
            for (at, chain) in segment.read().iter().enumerate() {
                if chain.newest.ended_by(horizon) {
                    out.push(first + at);
                }
            }
        }
        out
    }

    /// Drop version history that no snapshot older than `horizon` can see.
    /// Returns the number of versions reclaimed. Chains themselves are kept
    /// (row ids are positional), so a fully dead chain shrinks to its
    /// newest version — and an emptied history is freed. One segment's
    /// write latch is held at a time.
    pub fn vacuum(&self, horizon: u64) -> usize {
        let mut reclaimed = 0;
        for (_, segment) in self.segments() {
            for chain in segment.write().iter_mut() {
                let Some(older) = chain.older.as_mut() else {
                    continue;
                };
                // everything up to the newest version that ended by the horizon
                let upto = if chain.newest.ended_by(horizon) {
                    older.len()
                } else {
                    older
                        .iter()
                        .rposition(|v| v.ended_by(horizon))
                        .map_or(0, |i| i + 1)
                };
                older.drain(..upto);
                if older.is_empty() {
                    chain.older = None;
                }
                reclaimed += upto;
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: i64) -> Row {
        Row::from([Datum::Int(v)])
    }

    #[test]
    fn insert_then_visibility_respects_snapshot() {
        let h = Heap::new();
        let r = h.install_insert(10, t(1));
        assert!(h.visible(r, 9).is_none());
        assert_eq!(h.visible(r, 10).unwrap()[0], Datum::Int(1));
        assert_eq!(h.visible(r, 100).unwrap()[0], Datum::Int(1));
    }

    #[test]
    fn update_creates_new_version_old_snapshot_sees_old() {
        let h = Heap::new();
        let r = h.install_insert(10, t(1));
        assert!(h.install_update(r, 20, t(2)));
        assert_eq!(h.visible(r, 15).unwrap()[0], Datum::Int(1));
        assert_eq!(h.visible(r, 20).unwrap()[0], Datum::Int(2));
        let (latest, live, begin) = h.latest(r, 20).unwrap();
        assert_eq!(latest[0], Datum::Int(2));
        assert!(live);
        assert_eq!(begin, 20);
        // a version above the clock is not the latest committed one
        let (latest, live, begin) = h.latest(r, 19).unwrap();
        assert_eq!(latest[0], Datum::Int(1));
        assert!(live, "the superseding version is unpublished at 19");
        assert_eq!(begin, 10);
        assert!(h.latest(r, 9).is_none());
        assert_eq!(h.newest(r).unwrap()[0], Datum::Int(2));
    }

    #[test]
    fn delete_hides_row_from_later_snapshots_only() {
        let h = Heap::new();
        let r = h.install_insert(10, t(1));
        assert!(h.install_delete(r, 30));
        assert!(h.visible(r, 29).is_some());
        assert!(h.visible(r, 30).is_none());
        let (_, live, _) = h.latest(r, 30).unwrap();
        assert!(!live);
        let (_, live, _) = h.latest(r, 29).unwrap();
        assert!(live, "the delete is unpublished at 29");
        // double delete is rejected
        assert!(!h.install_delete(r, 40));
        // update of a dead row is rejected
        assert!(!h.install_update(r, 40, t(9)));
    }

    #[test]
    fn scan_visible_vs_scan_latest() {
        let h = Heap::new();
        let a = h.install_insert(10, t(1));
        let _b = h.install_insert(20, t(2));
        h.install_delete(a, 25);
        // snapshot 15: only row a
        let snap15 = h.scan_visible(15, |_| true);
        assert_eq!(snap15.len(), 1);
        assert_eq!(snap15[0].0, a);
        // snapshot 30: only row b
        assert_eq!(h.scan_visible(30, |_| true).len(), 1);
        // latest: only b is live
        let latest = h.scan_latest(|_| true);
        assert_eq!(latest.len(), 1);
        assert_eq!(latest[0].1[0], Datum::Int(2));
    }

    #[test]
    fn scan_filters_apply() {
        let h = Heap::new();
        for i in 0..10 {
            h.install_insert(10, t(i));
        }
        let evens = h.scan_visible(10, |tp| tp[0].as_int().unwrap() % 2 == 0);
        assert_eq!(evens.len(), 5);
    }

    #[test]
    fn vacuum_reclaims_superseded_versions() {
        let h = Heap::new();
        let r = h.install_insert(10, t(1));
        h.install_update(r, 20, t(2));
        h.install_update(r, 30, t(3));
        // horizon 15: only the begin=10 version (end=20<=?) is not reclaimable
        assert_eq!(h.vacuum(15), 0);
        // horizon 25: the begin=10 version (end=20) is reclaimable
        assert_eq!(h.vacuum(25), 1);
        assert_eq!(h.visible(r, 100).unwrap()[0], Datum::Int(3));
        // horizon far future: one more version reclaimable, newest kept
        assert_eq!(h.vacuum(1000), 1);
        assert_eq!(h.visible(r, 100).unwrap()[0], Datum::Int(3));
    }

    /// Segment `s` lives in directory slot `⌊log2(s + 1)⌋`, and the slots
    /// tile the segments without a gap.
    #[test]
    fn the_directory_tiles_the_segments() {
        assert_eq!(
            (0..8).map(slot_of).collect::<Vec<_>>(),
            [
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 0)
            ]
        );
        let h = Heap::new();
        for i in 0..8 * SEGMENT_ROWS {
            assert_eq!(h.install_insert(1, t(i as i64)), i);
        }
        let slots = h.directory.iter().filter(|d| d.get().is_some()).count();
        assert_eq!(slots, 4, "segments 0..8 fill slots 0..=3");
        assert_eq!(h.chain_count(), 8 * SEGMENT_ROWS);
        assert_eq!(h.visible(8 * SEGMENT_ROWS, 1), None);
    }

    /// A full scan, the dead-row sweep and vacuum walk four segments one
    /// latch at a time: segment latches are leaves, so the lock validator
    /// of a debug build aborts this test if any of them takes a second.
    #[test]
    fn scans_and_vacuum_hold_one_segment_latch_at_a_time() {
        let h = Heap::new();
        let rows = 3 * SEGMENT_ROWS + 1;
        for i in 0..rows {
            h.install_insert(10, t(i as i64));
        }
        for row in 0..rows {
            assert!(h.install_update(row, 20, t(-(row as i64))));
        }
        assert!(h.install_delete(rows - 1, 30));
        assert_eq!(h.scan_visible(15, |_| true).len(), rows);
        let negated = h.scan_visible(25, |tp| tp[0].as_int().unwrap() <= 0);
        assert_eq!(negated.len(), rows);
        assert_eq!(h.scan_latest(|_| true).len(), rows - 1);
        assert_eq!(h.dead_rows(30), vec![rows - 1]);
        assert_eq!(h.vacuum(30), rows);
        assert_eq!(h.vacuum(30), 0);
        assert_eq!(
            h.visible(rows - 2, 30).unwrap()[0],
            Datum::Int(2 - rows as i64)
        );
    }

    /// Appends racing across segment boundaries take every position once.
    #[test]
    fn concurrent_appends_take_distinct_positions() {
        let h = Heap::new();
        let per_thread = 5 * SEGMENT_ROWS + 3;
        let mut ids: Vec<RowId> = std::thread::scope(|s| {
            let appenders: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..per_thread)
                            .map(|i| h.install_insert(1, t(i as i64)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            appenders
                .into_iter()
                .flat_map(|a| a.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        assert_eq!(ids, (0..4 * per_thread).collect::<Vec<_>>());
        assert_eq!(h.scan_latest(|_| true).len(), 4 * per_thread);
    }

    /// The chain as one version vector, oldest first — the layout the
    /// heap slot replaced — with its operations as they were.
    #[derive(Default)]
    struct Model {
        rows: Vec<Vec<RowVersion>>,
    }

    impl Model {
        fn insert(&mut self, ts: u64, tuple: Row) {
            self.rows.push(vec![RowVersion {
                begin: ts,
                end: 0,
                tuple,
            }]);
        }

        fn close(&mut self, row: RowId, ts: u64) -> bool {
            match self.rows.get_mut(row).and_then(|c| c.last_mut()) {
                Some(v) if v.end == 0 => {
                    v.end = ts;
                    true
                }
                _ => false,
            }
        }

        fn update(&mut self, row: RowId, ts: u64, tuple: Row) -> bool {
            let closed = self.close(row, ts);
            if closed {
                self.rows[row].push(RowVersion {
                    begin: ts,
                    end: 0,
                    tuple,
                });
            }
            closed
        }

        fn visible(&self, row: RowId, ts: u64) -> Option<Row> {
            let v = self
                .rows
                .get(row)?
                .iter()
                .rev()
                .find(|v| v.visible_at(ts))?;
            Some(v.tuple.clone())
        }

        fn latest(&self, row: RowId, clock: u64) -> Option<(Row, bool, u64)> {
            let v = self
                .rows
                .get(row)?
                .iter()
                .rev()
                .find(|v| v.begin <= clock)?;
            Some((v.tuple.clone(), v.end == 0 || v.end > clock, v.begin))
        }

        fn dead_rows(&self, horizon: u64) -> Vec<RowId> {
            let dead =
                |c: &Vec<RowVersion>| c.last().is_some_and(|v| v.end != 0 && v.end <= horizon);
            (0..self.rows.len())
                .filter(|&r| dead(&self.rows[r]))
                .collect()
        }

        fn vacuum(&mut self, horizon: u64) -> usize {
            let mut reclaimed = 0;
            for chain in &mut self.rows {
                if chain.len() <= 1 {
                    continue;
                }
                let keep_from = chain
                    .iter()
                    .rposition(|v| v.end != 0 && v.end <= horizon)
                    .map(|i| i + 1)
                    .unwrap_or(0)
                    .min(chain.len() - 1);
                chain.drain(..keep_from);
                reclaimed += keep_from;
            }
            reclaimed
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert,
        /// Update the `n`-th row (modulo the row count).
        Update(usize),
        Delete(usize),
        /// Vacuum this far behind the newest timestamp.
        Vacuum(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => Just(Op::Insert),
            4 => any::<usize>().prop_map(Op::Update),
            1 => any::<usize>().prop_map(Op::Delete),
            1 => (0u64..8).prop_map(Op::Vacuum),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Inserts, updates, deletes and vacuums on the heap and on the
        /// version vector it replaced agree on every read at every
        /// timestamp — including which rows a commit after it wrote —
        /// and on what vacuum reclaims, over as many as a dozen four-row
        /// segments.
        #[test]
        fn the_heap_chain_agrees_with_a_version_vector(
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let (heap, mut model) = (Heap::new(), Model::default());
            let mut ts = 0;
            for (i, op) in ops.into_iter().enumerate() {
                ts += 1 + i as u64 % 2;
                let rows = model.rows.len();
                match op {
                    Op::Insert => {
                        prop_assert_eq!(heap.install_insert(ts, t(i as i64)), rows);
                        model.insert(ts, t(i as i64));
                    }
                    Op::Update(n) if rows > 0 => {
                        prop_assert_eq!(
                            heap.install_update(n % rows, ts, t(i as i64)),
                            model.update(n % rows, ts, t(i as i64))
                        );
                    }
                    Op::Delete(n) if rows > 0 => {
                        prop_assert_eq!(heap.install_delete(n % rows, ts), model.close(n % rows, ts));
                    }
                    Op::Vacuum(behind) => {
                        let horizon = ts.saturating_sub(behind);
                        prop_assert_eq!(heap.vacuum(horizon), model.vacuum(horizon));
                    }
                    _ => {}
                }
                for at in 0..=ts + 1 {
                    let written = |row: RowId| model.rows[row].iter().any(|v| v.begin > at || v.end > at);
                    for row in 0..model.rows.len() {
                        prop_assert_eq!(heap.visible(row, at), model.visible(row, at), "row {} at {}", row, at);
                        prop_assert_eq!(heap.latest(row, at), model.latest(row, at), "row {} at {}", row, at);
                        prop_assert_eq!(heap.row_written_since(row, at, |_| true), written(row), "row {} at {}", row, at);
                    }
                    let any = (0..model.rows.len()).any(written);
                    prop_assert_eq!(heap.any_written_since(at, |_| true), any, "at {}", at);
                    prop_assert_eq!(heap.dead_rows(at), model.dead_rows(at));
                    let visible: Vec<RowId> = heap.scan_visible(at, |_| true).into_iter().map(|(r, _)| r).collect();
                    let want: Vec<RowId> = (0..model.rows.len()).filter(|&r| model.visible(r, at).is_some()).collect();
                    prop_assert_eq!(visible, want);
                }
                for row in 0..model.rows.len() {
                    let newest = model.rows[row].last().map(|v| v.tuple.clone());
                    prop_assert_eq!(heap.newest(row), newest);
                }
                let live: Vec<RowId> = heap.scan_latest(|_| true).into_iter().map(|(r, _)| r).collect();
                let want: Vec<RowId> = (0..model.rows.len())
                    .filter(|&r| model.rows[r].last().is_some_and(|v| v.end == 0))
                    .collect();
                prop_assert_eq!(live, want);
            }
        }
    }
}
