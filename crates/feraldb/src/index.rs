//! Secondary and unique index storage.
//!
//! Indexes map order-preserving encoded composite keys to sets of row ids.
//! Entries are maintained at commit time; because an entry may outlive the
//! version that produced it (updates/deletes leave stale postings until
//! vacuum), readers must re-verify the indexed columns against the visible
//! tuple — [`crate::Database`] does this centrally.

use crate::heap::RowId;
use crate::schema::{IndexDef, IndexId};
use crate::value::{encode_composite_key, Tuple};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// One index's data plus its catalog identity and definition.
///
/// Readers visit postings *under* the map's read latch and resolve each
/// row in the heap from there ([`IndexData::any_row`]), so the one nesting
/// of the two storage latches is index map → heap rows. Writers never nest
/// them: a commit installs the heap version, lets go, then posts.
// racer:order feraldb::IndexData::map < feraldb::Heap::rows
pub struct IndexData {
    /// Catalog id, fixed at `create_index` time — what key locks name.
    pub id: IndexId,
    /// Catalog definition (name, table, columns, uniqueness).
    pub def: IndexDef,
    map: RwLock<BTreeMap<Vec<u8>, BTreeSet<RowId>>>,
}

impl IndexData {
    /// Create an empty index `id` for `def`.
    pub fn new(id: IndexId, def: IndexDef) -> Self {
        IndexData {
            id,
            def,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Encode the key of `tuple` under this index's column list.
    pub fn key_of(&self, tuple: &Tuple) -> Vec<u8> {
        encode_composite_key(tuple, &self.def.cols)
    }

    /// Whether `a` and `b` carry the same key: column for column the same
    /// value of the same type, hence the same encoding — told without
    /// encoding either (an update that leaves a key alone is the common
    /// case).
    pub fn same_key(&self, a: &Tuple, b: &Tuple) -> bool {
        self.def.cols.iter().all(|&c| {
            std::mem::discriminant(&a[c]) == std::mem::discriminant(&b[c]) && a[c] == b[c]
        })
    }

    /// Whether any indexed column of `tuple` is NULL (unique indexes admit
    /// any number of NULL keys, as in SQL).
    pub fn key_has_null(&self, tuple: &Tuple) -> bool {
        self.def.cols.iter().any(|&c| tuple[c].is_null())
    }

    /// Add a posting.
    pub fn insert_entry(&self, key: Vec<u8>, row: RowId) {
        self.map.write().entry(key).or_default().insert(row);
    }

    /// Remove a posting (no-op if absent).
    pub fn remove_entry(&self, key: &[u8], row: RowId) {
        let mut map = self.map.write();
        if let Some(set) = map.get_mut(key) {
            set.remove(&row);
            if set.is_empty() {
                map.remove(key);
            }
        }
    }

    /// Whether `hit` accepts any row posted under exactly `key`. Postings
    /// are visited in row order under the read latch, stopping at the
    /// first acceptance; a `hit` that always declines visits them all.
    /// Nothing is copied out: an equality key almost always posts one row.
    pub fn any_row(&self, key: &[u8], hit: impl FnMut(RowId) -> bool) -> bool {
        self.map
            .read()
            .get(key)
            .is_some_and(|rows| rows.iter().copied().any(hit))
    }

    /// Row ids posted under keys in `[lo, hi)` (encoded bounds); either
    /// bound may be `None` for unbounded.
    pub fn rows_in_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Vec<RowId> {
        self.rows_in_bounds(
            lo.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec())),
            hi.map_or(Bound::Unbounded, |k| Bound::Excluded(k.to_vec())),
        )
    }

    /// Row ids posted under keys within explicit bounds.
    pub fn rows_in_bounds(&self, lo: Bound<Vec<u8>>, hi: Bound<Vec<u8>>) -> Vec<RowId> {
        let map = self.map.read();
        let mut out = Vec::new();
        for (_, set) in map.range((lo, hi)) {
            out.extend(set.iter().copied());
        }
        out
    }

    /// Drop every posting that points at one of `dead` rows — vacuum's
    /// index sweep, run once no active snapshot can reach any version of
    /// those rows. Sweeping by row (not by key) also clears postings left
    /// under superseded keys by key-changing updates.
    pub fn sweep_rows(&self, dead: &BTreeSet<RowId>) {
        if dead.is_empty() {
            return;
        }
        let mut map = self.map.write();
        map.retain(|_, set| {
            set.retain(|row| !dead.contains(row));
            !set.is_empty()
        });
    }

    /// Number of distinct keys (diagnostics).
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Total number of postings (diagnostics).
    pub fn posting_count(&self) -> usize {
        self.map.read().values().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{IndexId, TableId};
    use crate::value::Datum;

    fn idx(cols: Vec<usize>, unique: bool) -> IndexData {
        IndexData::new(
            IndexId(0),
            IndexDef {
                name: "index_t_on_k".into(),
                table: TableId(0),
                cols,
                unique,
            },
        )
    }

    fn rows_for(ix: &IndexData, key: &[u8]) -> Vec<RowId> {
        let mut rows = Vec::new();
        ix.any_row(key, |row| {
            rows.push(row);
            false
        });
        rows
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let ix = idx(vec![1], false);
        let t1: Tuple = vec![Datum::Int(1), Datum::text("k")];
        let k = ix.key_of(&t1);
        ix.insert_entry(k.clone(), 0);
        ix.insert_entry(k.clone(), 5);
        assert_eq!(rows_for(&ix, &k), vec![0, 5]);
        // the walk stops at the first accepted posting
        let mut visited = 0;
        assert!(ix.any_row(&k, |_| {
            visited += 1;
            true
        }));
        assert_eq!(visited, 1);
        ix.remove_entry(&k, 0);
        assert_eq!(rows_for(&ix, &k), vec![5]);
        ix.remove_entry(&k, 5);
        assert!(rows_for(&ix, &k).is_empty());
        assert!(!ix.any_row(&k, |_| true));
        assert_eq!(ix.key_count(), 0);
    }

    #[test]
    fn composite_keys_distinguish_column_values() {
        let ix = idx(vec![1, 2], true);
        let a: Tuple = vec![Datum::Int(1), Datum::text("x"), Datum::Int(1)];
        let b: Tuple = vec![Datum::Int(2), Datum::text("x"), Datum::Int(2)];
        assert_ne!(ix.key_of(&a), ix.key_of(&b));
        let c: Tuple = vec![Datum::Int(9), Datum::text("x"), Datum::Int(1)];
        assert_eq!(ix.key_of(&a), ix.key_of(&c));
    }

    #[test]
    fn same_key_is_encoding_equality() {
        let ix = idx(vec![1, 2], false);
        let a: Tuple = vec![Datum::Int(1), Datum::text("x"), Datum::Int(2)];
        let b: Tuple = vec![Datum::Int(9), Datum::text("x"), Datum::Int(2)];
        let c: Tuple = vec![Datum::Int(1), Datum::text("x"), Datum::Float(2.0)];
        assert!(ix.same_key(&a, &b));
        // equal as numbers, not as keys
        assert_eq!(a[2], c[2]);
        assert_ne!(ix.key_of(&a), ix.key_of(&c));
        assert!(!ix.same_key(&a, &c));
    }

    #[test]
    fn null_key_detection() {
        let ix = idx(vec![1], true);
        let withnull: Tuple = vec![Datum::Int(1), Datum::Null];
        let without: Tuple = vec![Datum::Int(1), Datum::text("k")];
        assert!(ix.key_has_null(&withnull));
        assert!(!ix.key_has_null(&without));
    }

    #[test]
    fn range_scan_orders_by_encoded_key() {
        let ix = idx(vec![1], false);
        for (row, v) in [(0, 10i64), (1, 20), (2, 30), (3, 40)] {
            let t: Tuple = vec![Datum::Int(row as i64), Datum::Int(v)];
            ix.insert_entry(ix.key_of(&t), row);
        }
        let enc = |v: i64| {
            let mut b = vec![];
            Datum::Int(v).encode_key(&mut b);
            b
        };
        // [20, 40) -> rows 1, 2
        let got = ix.rows_in_range(Some(&enc(20)), Some(&enc(40)));
        assert_eq!(got, vec![1, 2]);
        // unbounded
        assert_eq!(ix.rows_in_range(None, None).len(), 4);
        assert_eq!(ix.posting_count(), 4);
    }
}
