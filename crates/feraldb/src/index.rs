//! Secondary and unique index storage.
//!
//! Indexes map order-preserving encoded composite keys to the rows posted
//! under them. Entries are maintained at commit time; because an entry may
//! outlive the version that produced it (updates/deletes leave stale
//! postings until vacuum), readers must re-verify the indexed columns
//! against the visible tuple — [`crate::Database`] does this centrally.
//!
//! An equality probe descends the map comparing its key with one key per
//! step, then reads the postings of the key it lands on. Both live in the
//! map's nodes: an [`IndexKey`] holds its encoded bytes in place up to 23
//! bytes (an id encodes to 9, the workloads' e-mails to at most 23) and
//! carries its first eight bytes as a big-endian word that `Ord`
//! compares first, and a key's postings are one inline row until a second
//! row is posted under it.
//!
//! A primary key (`<table>_pkey`: unique, on column 0, the `Int` id) skips
//! the descent for the ids its table's sequence hands out. They are
//! unique by construction and dense, so a vector indexed by `id - 1` holds
//! the one row posted under each, and a probe reads a slot, as SQLite's
//! `INTEGER PRIMARY KEY` aliases the rowid. The ordered map stays behind
//! it as the spill for every key the vector does not hold: ids ≤ 0, ids
//! more than [`DENSE_SLACK`] past its end (so an id sent from outside
//! cannot make it allocate), and ids that gain a second posting before
//! vacuum. A run of more than `DENSE_SLACK` ids burned by failed inserts
//! with no commit between them leaves the ids after it in the spill too:
//! correct, at the map's cost. Every other index is the map alone.

use crate::heap::RowId;
use crate::schema::{IndexDef, IndexId};
use crate::value::{first_int_from, int_of_key, word_at, Datum, KeySink};
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;
use std::ops::Bound;

/// The longest key an [`IndexKey`] holds without a heap allocation.
const INLINE: usize = 23;

/// An encoded index key. It orders, compares and hashes exactly like its
/// bytes; a probe builds one on the stack.
#[derive(Clone)]
pub struct IndexKey {
    /// The first eight bytes, big-endian, zero-padded past the end: zero
    /// padding orders like the bytes, so unequal words decide the order.
    prefix: u64,
    bytes: KeyBytes,
}

#[derive(Clone)]
enum KeyBytes {
    /// Up to `INLINE` bytes; the rest of `buf` stays zero. `len_1` is the
    /// length plus one, so its zero is free to tell `Boxed` apart.
    Inline { len_1: NonZeroU8, buf: [u8; INLINE] },
    /// A longer key.
    Boxed(Box<[u8]>),
}

// A key is four words and its postings two: a map entry is six.
const _: () = assert!(std::mem::size_of::<IndexKey>() == 32);
const _: () = assert!(std::mem::size_of::<Postings>() == 16);

/// The `len_1` of an inline key of `len` bytes.
fn len_1(len: usize) -> NonZeroU8 {
    NonZeroU8::new(len as u8 + 1).expect("an inline length is at most 23")
}

impl IndexKey {
    /// The key encoding `datums` in order (see [`Datum::encode_key`]).
    pub fn encode<'a>(datums: impl IntoIterator<Item = &'a Datum>) -> IndexKey {
        let mut key = IndexKey::default();
        for datum in datums {
            datum.encode_key_into(&mut key);
        }
        key
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.bytes {
            KeyBytes::Inline { len_1, buf } => &buf[..len_1.get() as usize - 1],
            KeyBytes::Boxed(bytes) => bytes,
        }
    }
}

impl Default for IndexKey {
    /// The empty key.
    fn default() -> Self {
        IndexKey {
            prefix: 0,
            bytes: KeyBytes::Inline {
                len_1: len_1(0),
                buf: [0; INLINE],
            },
        }
    }
}

impl KeySink for IndexKey {
    fn put(&mut self, more: &[u8]) {
        let at = self.as_bytes().len();
        match &mut self.bytes {
            KeyBytes::Inline { len_1: len, buf } if at + more.len() <= INLINE => {
                buf[at..at + more.len()].copy_from_slice(more);
                *len = len_1(at + more.len());
            }
            _ => self.bytes = KeyBytes::Boxed([self.as_bytes(), more].concat().into()),
        }
        if at < 8 {
            self.prefix = word_at(self.as_bytes(), 0);
        }
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix.cmp(&other.prefix).then_with(|| {
            match (&self.bytes, &other.bytes) {
                // the zero-padded buffers word by word, then the length: of
                // two keys equal that far, the shorter prefixes the other
                (KeyBytes::Inline { len_1: a, buf: x }, KeyBytes::Inline { len_1: b, buf: y }) => {
                    (word_at(x, 8), word_at(x, 16), a).cmp(&(word_at(y, 8), word_at(y, 16), b))
                }
                _ => self.as_bytes().cmp(other.as_bytes()),
            }
        })
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_bytes(), f)
    }
}

/// The rows posted under one key: one inline row until a second is posted.
enum Postings {
    One(RowId),
    /// Two rows or more, boxed: a key rarely posts more than one row, and
    /// the box keeps every entry of the map at two words.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeSet<RowId>>),
}

impl Postings {
    fn insert(&mut self, row: RowId) {
        match self {
            Postings::One(only) if *only == row => {}
            Postings::One(only) => *self = Postings::Many(Box::new(BTreeSet::from([*only, row]))),
            Postings::Many(rows) => {
                rows.insert(row);
            }
        }
    }

    /// Remove `row`; whether any row is left.
    fn remove(&mut self, row: RowId) -> bool {
        match self {
            Postings::One(only) => *only != row,
            Postings::Many(rows) => {
                rows.remove(&row);
                self.settle()
            }
        }
    }

    /// Keep the rows `keep` accepts; whether any is left.
    fn retain(&mut self, mut keep: impl FnMut(RowId) -> bool) -> bool {
        match self {
            Postings::One(only) => keep(*only),
            Postings::Many(rows) => {
                rows.retain(|&row| keep(row));
                self.settle()
            }
        }
    }

    /// After a removal: a set down to one row goes back inline. Whether
    /// any row is left.
    fn settle(&mut self) -> bool {
        if let Postings::Many(rows) = self {
            match rows.first().copied() {
                None => return false,
                Some(only) if rows.len() == 1 => *self = Postings::One(only),
                Some(_) => {}
            }
        }
        true
    }

    /// Whether `hit` accepts any row, visiting them in row order and
    /// stopping at the first it accepts.
    fn any(&self, mut hit: impl FnMut(RowId) -> bool) -> bool {
        match self {
            Postings::One(only) => hit(*only),
            Postings::Many(rows) => rows.iter().any(|&row| hit(row)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(rows) => rows.len(),
        }
    }
}

/// How far past the end of the primary key's dense vector an id may land
/// and still grow it. Commits racing past one another's sequence draws,
/// and ids an aborted insert burned, land within it; an id sent from
/// outside (`i64::MAX`, say) lands past it and spills, so it cannot make
/// the vector allocate more than this many slots.
pub const DENSE_SLACK: usize = 1024;

/// A dense slot no row is posted in.
const VACANT: RowId = RowId::MAX;

/// Where an index keeps its postings: a primary key's dense vector and
/// the ordered map behind it (see the module docs). A key lives in one of
/// the two, never both; every other index leaves the vector empty.
#[derive(Default)]
struct Store {
    /// Slot `id - 1` holds the row posted under `id`, or `VACANT`. Ids
    /// ≤ 0, ids past the slack and ids with a second posting spill.
    dense: Vec<RowId>,
    /// Every key `dense` does not hold, in key order.
    spill: BTreeMap<IndexKey, Postings>,
}

impl Store {
    /// The row in dense `slot`, if it holds one.
    fn dense_row(&self, slot: Option<usize>) -> Option<RowId> {
        slot.and_then(|s| self.dense.get(s))
            .copied()
            .filter(|&row| row != VACANT)
    }

    /// How many dense slots hold a row.
    fn dense_keys(&self) -> usize {
        self.dense.iter().filter(|&&row| row != VACANT).count()
    }
}

/// The key of the id in dense `slot`.
fn slot_key(slot: usize) -> IndexKey {
    IndexKey::encode([&Datum::Int(slot as i64 + 1)])
}

/// The first dense slot whose id's key is at or past `bound` (strictly
/// past it if `past`).
fn first_slot_from(bound: &IndexKey, past: bool) -> usize {
    first_int_from(bound.as_bytes(), past).map_or(usize::MAX, |id| {
        usize::try_from(id.saturating_sub(1)).unwrap_or(0)
    })
}

/// Whether no key lies between `lo` and `hi`: they cross, or meet at a key
/// one of them excludes. (`BTreeMap::range` panics on such bounds.)
fn empty_range<K: Ord>(lo: Bound<&K>, hi: Bound<&K>) -> bool {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            a >= b
        }
        _ => false,
    }
}

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
    /// Whether this is a primary key (unique, on column 0, the `Int` id),
    /// whose ids go to the dense vector.
    primary_key: bool,
    map: RwLock<Store>,
}

impl IndexData {
    /// Create an empty index `id` for `def`.
    pub fn new(id: IndexId, def: IndexDef) -> Self {
        IndexData {
            id,
            primary_key: def.unique && def.cols == [0],
            def,
            map: RwLock::new(Store::default()),
        }
    }

    /// The key of `tuple` under this index's column list.
    pub fn key_of(&self, tuple: &[Datum]) -> IndexKey {
        IndexKey::encode(self.def.cols.iter().map(|&c| &tuple[c]))
    }

    /// Whether `a` and `b` carry the same key: column for column the same
    /// value of the same type, hence the same encoding — told without
    /// encoding either (an update that leaves a key alone is the common
    /// case).
    pub fn same_key(&self, a: &[Datum], b: &[Datum]) -> bool {
        self.def.cols.iter().all(|&c| {
            std::mem::discriminant(&a[c]) == std::mem::discriminant(&b[c]) && a[c] == b[c]
        })
    }

    /// Whether any indexed column of `tuple` is NULL (unique indexes admit
    /// any number of NULL keys, as in SQL).
    pub fn key_has_null(&self, tuple: &[Datum]) -> bool {
        self.def.cols.iter().any(|&c| tuple[c].is_null())
    }

    /// The dense slot of `key`: `id - 1` when this is a primary key and
    /// `key` an id ≥ 1. The slot may lie past the vector's end.
    fn slot_of(&self, key: &IndexKey) -> Option<usize> {
        let id = int_of_key(key.as_bytes()).filter(|_| self.primary_key)?;
        usize::try_from(id).ok()?.checked_sub(1)
    }

    /// Add a posting.
    pub fn insert_entry(&self, key: IndexKey, row: RowId) {
        let slot = self.slot_of(&key);
        let mut store = self.map.write();
        let Store { dense, spill } = &mut *store;
        match slot.filter(|&s| s < dense.len() + DENSE_SLACK) {
            // a second row under a dense id: the key moves to the spill,
            // where its postings are visited in row order
            Some(s) if dense.get(s).is_some_and(|&only| only != VACANT) => {
                let only = dense[s];
                if only != row {
                    dense[s] = VACANT;
                    spill.insert(key, Postings::Many(Box::new(BTreeSet::from([only, row]))));
                }
            }
            Some(s) if !spill.contains_key(&key) => {
                if s >= dense.len() {
                    dense.resize(s + 1, VACANT);
                }
                dense[s] = row;
            }
            _ => match spill.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(Postings::One(row));
                }
                Entry::Occupied(mut slot) => slot.get_mut().insert(row),
            },
        }
    }

    /// Remove a posting (no-op if absent).
    pub fn remove_entry(&self, key: &IndexKey, row: RowId) {
        let slot = self.slot_of(key);
        let mut store = self.map.write();
        if let Some(only) = slot.and_then(|s| store.dense.get_mut(s)) {
            if *only == row {
                *only = VACANT;
                return;
            }
        }
        if store
            .spill
            .get_mut(key)
            .is_some_and(|rows| !rows.remove(row))
        {
            store.spill.remove(key);
        }
    }

    /// Whether `hit` accepts any row posted under exactly `key`. Postings
    /// are visited in row order under the read latch, stopping at the
    /// first acceptance; a `hit` that always declines visits them all.
    /// Nothing is copied out: an equality key almost always posts one row.
    pub fn any_row(&self, key: &IndexKey, mut hit: impl FnMut(RowId) -> bool) -> bool {
        let store = self.map.read();
        match store.dense_row(self.slot_of(key)) {
            Some(row) => hit(row),
            None => store.spill.get(key).is_some_and(|rows| rows.any(hit)),
        }
    }

    /// Row ids posted under keys within explicit bounds, in key order.
    /// Bounds that cross (`id >= 10 AND id < 5`) hold no key.
    pub fn rows_in_bounds(&self, lo: Bound<IndexKey>, hi: Bound<IndexKey>) -> Vec<RowId> {
        if empty_range(lo.as_ref(), hi.as_ref()) {
            return Vec::new();
        }
        let store = self.map.read();
        let start = match &lo {
            Bound::Included(key) => first_slot_from(key, false),
            Bound::Excluded(key) => first_slot_from(key, true),
            Bound::Unbounded => 0,
        };
        let end = match &hi {
            Bound::Included(key) => first_slot_from(key, true),
            Bound::Excluded(key) => first_slot_from(key, false),
            Bound::Unbounded => usize::MAX,
        };
        let len = store.dense.len();
        let mut dense = (start.min(len)..end.min(len))
            .map(|slot| (store.dense[slot], slot))
            .filter(|&(row, _)| row != VACANT)
            .peekable();
        let mut out = Vec::new();
        for (key, rows) in store.spill.range((lo, hi)) {
            // the dense ids ordered before this spilled key come first
            while let Some((row, _)) = dense.next_if(|&(_, slot)| slot_key(slot) < *key) {
                out.push(row);
            }
            rows.any(|row| {
                out.push(row);
                false
            });
        }
        out.extend(dense.map(|(row, _)| row));
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
        let mut store = self.map.write();
        for only in store.dense.iter_mut().filter(|row| dead.contains(row)) {
            *only = VACANT;
        }
        store
            .spill
            .retain(|_, rows| rows.retain(|row| !dead.contains(&row)));
    }

    /// Number of distinct keys (diagnostics).
    pub fn key_count(&self) -> usize {
        let store = self.map.read();
        store.dense_keys() + store.spill.len()
    }

    /// Total number of postings (diagnostics).
    pub fn posting_count(&self) -> usize {
        let store = self.map.read();
        store.dense_keys() + store.spill.values().map(Postings::len).sum::<usize>()
    }

    /// Length of the primary key's dense vector: how many ids it can hold
    /// without growing.
    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.map.read().dense.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{IndexId, TableId};
    use crate::value::Tuple;
    use proptest::prelude::*;

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

    /// The key of already-encoded `bytes`.
    fn key_of_bytes(bytes: &[u8]) -> IndexKey {
        let mut key = IndexKey::default();
        key.put(bytes);
        key
    }

    fn rows_for(ix: &IndexData, key: &IndexKey) -> Vec<RowId> {
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
        let enc = |v: i64| IndexKey::encode([&Datum::Int(v)]);
        // [20, 40) -> rows 1, 2
        let got = ix.rows_in_bounds(Bound::Included(enc(20)), Bound::Excluded(enc(40)));
        assert_eq!(got, vec![1, 2]);
        // unbounded
        assert_eq!(
            ix.rows_in_bounds(Bound::Unbounded, Bound::Unbounded).len(),
            4
        );
        assert_eq!(ix.posting_count(), 4);
    }

    /// A key encoded datum by datum is the key of the bytes `encode_key`
    /// writes, inline or not: ids and the workloads' e-mails stay inline.
    #[test]
    fn an_encoded_key_is_the_key_of_its_bytes() {
        let datums = [
            vec![Datum::Int(42)],
            vec![Datum::text("u0000005@example.com")],
            vec![Datum::text("a\0b"), Datum::Int(-7), Datum::Null],
            vec![
                Datum::text("a much longer value than fits"),
                Datum::Bool(true),
            ],
        ];
        for tuple in datums {
            let mut bytes = Vec::new();
            for d in &tuple {
                d.encode_key(&mut bytes);
            }
            let key = IndexKey::encode(&tuple);
            assert_eq!(key.as_bytes(), bytes);
            assert_eq!(key, key_of_bytes(&bytes));
            assert_eq!(
                matches!(key.bytes, KeyBytes::Inline { .. }),
                bytes.len() <= INLINE
            );
        }
        assert_eq!(IndexKey::encode([&Datum::Int(1)]).as_bytes().len(), 9);
        let email = Datum::text("u0000005@example.com");
        assert_eq!(IndexKey::encode([&email]).as_bytes().len(), INLINE);
    }

    /// Keys of 0–40 bytes from a small alphabet over a few shared 8-byte
    /// prefixes, some ending in 0x00: they cross the inline bound, tie on
    /// the prefix word and differ only in padding-like zeros.
    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        const PREFIXES: [&[u8; 8]; 3] = [b"\x02\x80\0\0\0\0\0\x03", b"\x04user12@", &[0; 8]];
        const BYTES: [u8; 5] = [0x00, 0x01, 0x7F, 0xFF, b'a'];
        let byte = (0..BYTES.len()).prop_map(|i| BYTES[i]);
        (
            0..PREFIXES.len(),
            proptest::collection::vec(byte, 0..32),
            0usize..=40,
            any::<bool>(),
        )
            .prop_map(|(p, tail, len, nul)| {
                let mut key = [&PREFIXES[p][..], &tail].concat();
                key.truncate(len);
                if nul {
                    key.truncate(39);
                    key.push(0x00);
                }
                key
            })
    }

    /// One step against both the index and the old layout it replaced.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, RowId),
        Remove(usize, RowId),
        /// Walk a key's postings, stopping at the `n`-th (never if `None`).
        AnyRow(usize, Option<usize>),
        Range(Bound<usize>, Bound<usize>),
        Sweep(Vec<RowId>),
    }

    fn arb_bound() -> impl Strategy<Value = Bound<usize>> {
        prop_oneof![
            Just(Bound::Unbounded),
            (0usize..8).prop_map(Bound::Included),
            (0usize..8).prop_map(Bound::Excluded),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let (key, row) = (0usize..8, 0usize..6);
        prop_oneof![
            3 => (key.clone(), row.clone()).prop_map(|(k, r)| Op::Insert(k, r)),
            2 => (key.clone(), row.clone()).prop_map(|(k, r)| Op::Remove(k, r)),
            2 => (key, 0usize..4).prop_map(|(k, n)| Op::AnyRow(k, (n < 3).then_some(n))),
            1 => (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Op::Range(lo, hi)),
            1 => proptest::collection::vec(row, 0..3).prop_map(Op::Sweep),
        ]
    }

    /// A range `BTreeMap::range` accepts: bounds swapped when out of order,
    /// an empty exclusive range opened to an inclusive one.
    fn valid_range<'a>(
        lo: Bound<&'a Vec<u8>>,
        hi: Bound<&'a Vec<u8>>,
    ) -> (Bound<&'a Vec<u8>>, Bound<&'a Vec<u8>>) {
        let key = |b: Bound<&'a Vec<u8>>| match b {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        match (key(lo), key(hi)) {
            (Some(a), Some(b)) if a > b => (hi, lo),
            (Some(a), Some(b)) if a == b => (lo, Bound::Included(b)),
            _ => (lo, hi),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `IndexKey` orders, compares and hashes like its bytes, however
        /// it was built.
        #[test]
        fn an_index_key_orders_and_hashes_like_its_bytes(
            keys in proptest::collection::vec(arb_key(), 1..12),
            split in 0usize..41,
        ) {
            use std::hash::BuildHasher;
            let hasher = std::collections::hash_map::RandomState::new();
            let built: Vec<IndexKey> = keys.iter().map(|k| key_of_bytes(k)).collect();
            for (k, key) in keys.iter().zip(&built) {
                // put in two pieces: the spill can happen at either
                let mut pieces = IndexKey::default();
                pieces.put(&k[..split.min(k.len())]);
                pieces.put(&k[split.min(k.len())..]);
                prop_assert_eq!(pieces.as_bytes(), &k[..]);
                prop_assert_eq!(&pieces, key);
                prop_assert_eq!(hasher.hash_one(key), hasher.hash_one(&k[..]));
            }
            for (a, ka) in keys.iter().zip(&built) {
                for (b, kb) in keys.iter().zip(&built) {
                    prop_assert_eq!(ka.cmp(kb), a.cmp(b), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(ka == kb, a == b);
                }
            }
        }

        /// The same operations on an `IndexData` and on the layout it
        /// replaced agree at every step, on a secondary index and on a
        /// primary key, where the keys that encode no `Int` go through the
        /// spill.
        #[test]
        fn the_index_agrees_with_a_map_of_row_sets(
            keys in proptest::collection::vec(arb_key(), 8),
            ops in proptest::collection::vec(arb_op(), 0..64),
        ) {
            agrees_with_model(&idx(vec![0], false), &keys, &ops)?;
            agrees_with_model(&idx(vec![0], true), &keys, &ops)?;
        }

        /// A primary key agrees with the same map on ids at and below
        /// zero, in the dense range, around and past its growth slack, and
        /// at the ends of `i64`, mixed with a few keys no id encodes.
        #[test]
        fn a_primary_key_agrees_with_a_map_of_row_sets(
            keys in proptest::collection::vec(arb_pk_key(), 8),
            ops in proptest::collection::vec(arb_op(), 0..64),
        ) {
            let pk = idx(vec![0], true);
            agrees_with_model(&pk, &keys, &ops)?;
            // only ids within the slack grew it: `i64::MAX` never did
            prop_assert!(pk.dense_len() <= DENSE_SLACK + 52);
        }
    }

    /// A primary key's keys: mostly ids, a few of them repeated through
    /// the pool of eight the operations draw from.
    fn arb_pk_key() -> impl Strategy<Value = Vec<u8>> {
        let slack = DENSE_SLACK as i64;
        let id = prop_oneof![
            2 => -3i64..=0,
            6 => 1i64..=48,
            2 => (slack - 4)..=(slack + 52),
            1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)],
        ];
        prop_oneof![
            5 => id.prop_map(|id| IndexKey::encode([&Datum::Int(id)]).as_bytes().to_vec()),
            1 => arb_key(),
        ]
    }

    /// Run `ops` on `ix` over the key pool `keys` and on a map of row sets,
    /// checking after every step that the two agree.
    fn agrees_with_model(
        ix: &IndexData,
        keys: &[Vec<u8>],
        ops: &[Op],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut reference: BTreeMap<Vec<u8>, BTreeSet<RowId>> = BTreeMap::new();
        let key = |i: usize| key_of_bytes(&keys[i]);
        for op in ops.iter().cloned() {
            match op {
                Op::Insert(k, row) => {
                    ix.insert_entry(key(k), row);
                    reference.entry(keys[k].clone()).or_default().insert(row);
                }
                Op::Remove(k, row) => {
                    ix.remove_entry(&key(k), row);
                    if let Some(rows) = reference.get_mut(&keys[k]) {
                        rows.remove(&row);
                        if rows.is_empty() {
                            reference.remove(&keys[k]);
                        }
                    }
                }
                Op::AnyRow(k, stop) => {
                    let walk = |visited: &mut Vec<RowId>, row| {
                        visited.push(row);
                        Some(visited.len() - 1) == stop
                    };
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let hit = ix.any_row(&key(k), |row| walk(&mut got, row));
                    let expected = reference
                        .get(&keys[k])
                        .is_some_and(|rows| rows.iter().any(|&row| walk(&mut want, row)));
                    prop_assert_eq!(hit, expected);
                    prop_assert_eq!(got, want);
                }
                Op::Range(lo, hi) => {
                    let (lo, hi) = (lo.map(|i| &keys[i]), hi.map(|i| &keys[i]));
                    if empty_range(lo, hi) {
                        let none = ix.rows_in_bounds(
                            lo.map(|k| key_of_bytes(k)),
                            hi.map(|k| key_of_bytes(k)),
                        );
                        prop_assert!(none.is_empty(), "{:?}", none);
                    }
                    let (lo, hi) = valid_range(lo, hi);
                    let want: Vec<RowId> = reference
                        .range::<Vec<u8>, _>((lo, hi))
                        .flat_map(|(_, rows)| rows.iter().copied())
                        .collect();
                    let owned = |b: Bound<&Vec<u8>>| b.map(|k| key_of_bytes(k));
                    prop_assert_eq!(ix.rows_in_bounds(owned(lo), owned(hi)), want);
                }
                Op::Sweep(dead) => {
                    let dead: BTreeSet<RowId> = dead.into_iter().collect();
                    ix.sweep_rows(&dead);
                    reference.retain(|_, rows| {
                        rows.retain(|row| !dead.contains(row));
                        !rows.is_empty()
                    });
                }
            }
            prop_assert_eq!(ix.key_count(), reference.len());
            prop_assert_eq!(
                ix.posting_count(),
                reference.values().map(BTreeSet::len).sum::<usize>()
            );
            let all: Vec<RowId> = reference.values().flatten().copied().collect();
            prop_assert_eq!(ix.rows_in_bounds(Bound::Unbounded, Bound::Unbounded), all);
        }
        Ok(())
    }
}
