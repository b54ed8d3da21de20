//! Versioned row storage (the MVCC heap).
//!
//! Each logical row is a *chain* of versions stamped with `[begin, end)`
//! commit-timestamp ranges. Readers resolve visibility against a snapshot
//! timestamp; writers append new versions at commit. Nothing is ever
//! modified in place except closing a version's `end` bound, which happens
//! under the database's commit lock, so readers holding the heap's read
//! latch observe internally consistent chains.

use crate::value::Tuple;
use parking_lot::RwLock;
use std::sync::Arc;

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
    pub tuple: Arc<Tuple>,
}

impl RowVersion {
    /// Whether this version is visible to a snapshot taken at `ts`.
    pub fn visible_at(&self, ts: u64) -> bool {
        self.begin <= ts && (self.end == 0 || self.end > ts)
    }
}

/// The full version history of one logical row, oldest first.
#[derive(Debug, Default, Clone)]
pub struct RowChain {
    versions: Vec<RowVersion>,
}

impl RowChain {
    /// The version visible at snapshot `ts`, if any.
    pub fn visible_at(&self, ts: u64) -> Option<&RowVersion> {
        // newest versions are at the back; a snapshot sees at most one
        self.versions.iter().rev().find(|v| v.visible_at(ts))
    }

    /// The newest version regardless of visibility, with liveness.
    pub fn latest(&self) -> Option<&RowVersion> {
        self.versions.last()
    }

    /// Whether the newest version is live (not deleted).
    pub fn live(&self) -> bool {
        self.versions.last().is_some_and(|v| v.end == 0)
    }

    /// All versions (oldest first); used by vacuum and diagnostics.
    pub fn versions(&self) -> &[RowVersion] {
        &self.versions
    }
}

/// A table's heap: an append-only vector of row chains guarded by a
/// read-write latch. Scans take the read latch; commits take the write
/// latch briefly while installing versions.
#[derive(Default)]
pub struct Heap {
    rows: RwLock<Vec<RowChain>>,
}

impl Heap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of row chains ever created (including dead ones).
    pub fn chain_count(&self) -> usize {
        self.rows.read().len()
    }

    /// Install a brand-new row committed at `commit_ts`; returns its id.
    pub fn install_insert(&self, commit_ts: u64, tuple: Arc<Tuple>) -> RowId {
        let mut rows = self.rows.write();
        rows.push(RowChain {
            versions: vec![RowVersion {
                begin: commit_ts,
                end: 0,
                tuple,
            }],
        });
        rows.len() - 1
    }

    /// Close the current version of `row` (a delete) at `commit_ts`.
    /// Returns `false` if the row had no open version (already deleted).
    pub fn install_delete(&self, row: RowId, commit_ts: u64) -> bool {
        let mut rows = self.rows.write();
        match rows.get_mut(row).and_then(|c| c.versions.last_mut()) {
            Some(v) if v.end == 0 => {
                v.end = commit_ts;
                true
            }
            _ => false,
        }
    }

    /// Supersede the current version of `row` with `tuple` at `commit_ts`.
    /// Returns `false` if the row had no open version.
    pub fn install_update(&self, row: RowId, commit_ts: u64, tuple: Arc<Tuple>) -> bool {
        let mut rows = self.rows.write();
        let Some(chain) = rows.get_mut(row) else {
            return false;
        };
        match chain.versions.last_mut() {
            Some(v) if v.end == 0 => {
                v.end = commit_ts;
                chain.versions.push(RowVersion {
                    begin: commit_ts,
                    end: 0,
                    tuple,
                });
                true
            }
            _ => false,
        }
    }

    /// The tuple of `row` visible at snapshot `ts`.
    pub fn visible(&self, row: RowId, ts: u64) -> Option<Arc<Tuple>> {
        let rows = self.rows.read();
        rows.get(row)
            .and_then(|c| c.visible_at(ts))
            .map(|v| v.tuple.clone())
    }

    /// The newest version of `row` published at `clock`, with its liveness
    /// at `clock` and its `begin` timestamp — what post-lock re-reads and
    /// in-database constraint checks look at. Versions above the clock are
    /// installed but not (yet, or after a failed flush ever) committed:
    /// their writer still holds the row and key locks unless its flush
    /// failed, so under a lock this is the latest committed image.
    pub fn latest(&self, row: RowId, clock: u64) -> Option<(Arc<Tuple>, bool, u64)> {
        let rows = self.rows.read();
        let v = rows
            .get(row)?
            .versions
            .iter()
            .rev()
            .find(|v| v.begin <= clock)?;
        Some((v.tuple.clone(), v.end == 0 || v.end > clock, v.begin))
    }

    /// The newest installed tuple of `row`, published or not. Only WAL
    /// replay may use this: it runs before the clock is set.
    pub fn newest(&self, row: RowId) -> Option<Arc<Tuple>> {
        let rows = self.rows.read();
        rows.get(row)
            .and_then(|c| c.latest())
            .map(|v| v.tuple.clone())
    }

    /// Collect `(row_id, tuple)` for every row visible at `ts` that matches
    /// `filter`. The filter runs under the read latch, so it must be cheap;
    /// predicate evaluation qualifies.
    pub fn scan_visible<F>(&self, ts: u64, mut filter: F) -> Vec<(RowId, Arc<Tuple>)>
    where
        F: FnMut(&Tuple) -> bool,
    {
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (id, chain) in rows.iter().enumerate() {
            if let Some(v) = chain.visible_at(ts) {
                if filter(&v.tuple) {
                    out.push((id, v.tuple.clone()));
                }
            }
        }
        out
    }

    /// Collect `(row_id, tuple)` for every row whose newest installed
    /// version — published or not — is live and matches `filter`. Only
    /// index backfill may use this (a posting for a version still above
    /// the clock is harmless: readers resolve visibility in the heap);
    /// constraint checks read `scan_visible` at the clock instead.
    pub fn scan_latest<F>(&self, mut filter: F) -> Vec<(RowId, Arc<Tuple>)>
    where
        F: FnMut(&Tuple) -> bool,
    {
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (id, chain) in rows.iter().enumerate() {
            if chain.live() {
                if let Some(v) = chain.latest() {
                    if filter(&v.tuple) {
                        out.push((id, v.tuple.clone()));
                    }
                }
            }
        }
        out
    }

    /// Rows whose newest version is a delete no snapshot at or before
    /// `horizon` can still see — their index postings are garbage and may
    /// be swept.
    pub fn dead_rows(&self, horizon: u64) -> Vec<RowId> {
        let rows = self.rows.read();
        rows.iter()
            .enumerate()
            .filter(|(_, chain)| {
                chain
                    .versions
                    .last()
                    .is_some_and(|v| v.end != 0 && v.end <= horizon)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Drop version history that no snapshot older than `horizon` can see.
    /// Returns the number of versions reclaimed. Chains themselves are kept
    /// (row ids are positional), so a fully dead chain shrinks to its last
    /// version.
    pub fn vacuum(&self, horizon: u64) -> usize {
        let mut rows = self.rows.write();
        let mut reclaimed = 0;
        for chain in rows.iter_mut() {
            if chain.versions.len() <= 1 {
                continue;
            }
            let keep_from = chain
                .versions
                .iter()
                .rposition(|v| v.end != 0 && v.end <= horizon)
                .map(|i| i + 1)
                .unwrap_or(0);
            // never drop the newest version
            let keep_from = keep_from.min(chain.versions.len() - 1);
            if keep_from > 0 {
                chain.versions.drain(..keep_from);
                reclaimed += keep_from;
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    fn t(v: i64) -> Arc<Tuple> {
        Arc::new(vec![Datum::Int(v)])
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
}
