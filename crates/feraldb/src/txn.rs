//! Transactions: buffered writes, snapshot reads, isolation enforcement,
//! in-database constraint checking, and the commit pipeline.

use crate::commit::ShardGuards;
use crate::db::{Database, DbInner, IsolationLevel, TableEntry, TableHandle};
use crate::error::{DbError, DbResult};
use crate::footprint::{note_table_access, Footprint};
use crate::hash::WordHash;
use crate::heap::RowId;
use crate::index::{IndexData, IndexKey};
use crate::lock::{LockKey, LockMode, TxnId};
use crate::predicate::Predicate;
use crate::schema::{ForeignKey, IndexId, OnDelete, TableId};
use crate::stats::Stats;
use crate::tail::CommitTail;
use crate::value::{Datum, Row, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How a statement names its table: by name, looked up in the catalog
/// under its read latch, or by a [`TableHandle`] resolved earlier, which
/// takes no catalog latch while it is current (a stale one is looked up
/// by its name). Statements take `impl Into<TableRef>`, so a `&str`, a
/// `&String` or a `&TableHandle` is passed as it is.
#[derive(Debug, Clone, Copy)]
pub enum TableRef<'a> {
    /// A table name.
    Name(&'a str),
    /// A resolved table.
    Handle(&'a TableHandle),
}

impl TableRef<'_> {
    fn name(&self) -> &str {
        match self {
            TableRef::Name(name) => name,
            TableRef::Handle(handle) => handle.name(),
        }
    }
}

impl<'a> From<&'a str> for TableRef<'a> {
    fn from(name: &'a str) -> Self {
        TableRef::Name(name)
    }
}

impl<'a> From<&'a String> for TableRef<'a> {
    fn from(name: &'a String) -> Self {
        TableRef::Name(name)
    }
}

impl<'a> From<&'a TableHandle> for TableRef<'a> {
    fn from(handle: &'a TableHandle) -> Self {
        TableRef::Handle(handle)
    }
}

/// Why a transaction's handle is always there: only
/// [`Transaction::into_database`] takes it out, and it consumes the
/// transaction.
const LENT: &str = "a transaction holds its database handle until it is consumed";

/// Reference to a row as seen inside a transaction: either a committed heap
/// row or one of this transaction's own uncommitted inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowRef {
    /// A committed row chain.
    Committed(RowId),
    /// A row inserted by this transaction, not yet committed (named by
    /// its slot in the transaction's write buffer).
    Own(u64),
}

#[derive(Clone)]
enum PendingOp {
    Insert { tuple: Row },
    Update { row: RowId, base: Row, new: Row },
    Delete { row: RowId, base: Row },
}

#[derive(Clone)]
struct Pending {
    table: TableId,
    /// The table as the statement resolved it, carried to commit: the
    /// install loop and the WAL record need nothing else from the catalog.
    entry: Arc<TableEntry>,
    op: PendingOp,
    /// A deleted own insert (its slot stays, so slot numbers are stable).
    dead: bool,
}

/// A unique-index key as the pending-write set and the key lock name it.
type UniqueKey = (IndexId, IndexKey);

/// A transaction's buffered writes, and the keys that find one without
/// walking the rest: what a statement costs does not depend on how many
/// writes the transaction already holds. The maps hash with the engine's
/// seedless [`WordHash`]: they hold one transaction's own writes.
#[derive(Clone, Default)]
struct WriteBuffer {
    /// One slot per write, in statement order. [`RowRef::Own`] names an
    /// insert by its slot.
    writes: Vec<Pending>,
    /// Committed row → slot of its pending update or delete.
    by_row: HashMap<(TableId, RowId), usize, WordHash>,
    /// Table → slots of this transaction's inserts into it, in statement
    /// order: the overlay a read of the table adds.
    own_inserts: HashMap<TableId, Vec<usize>, WordHash>,
    /// Unique key → the slot whose image took it, recorded when the key's
    /// check passes and never cleaned: at most one live image holds a key
    /// and the last to pass the check is the one recorded, so a stale
    /// entry is told apart by re-reading its slot (`recorded_holder`).
    unique_keys: HashMap<UniqueKey, usize, WordHash>,
}

impl WriteBuffer {
    /// The pending update or delete of committed `row`, if any.
    fn write_of(&self, tid: TableId, row: RowId) -> Option<&PendingOp> {
        self.by_row.get(&(tid, row)).map(|&i| &self.writes[i].op)
    }

    /// The image of own insert `slot`, unless it was deleted again.
    fn own_insert(&self, slot: usize) -> Option<&Row> {
        match self.writes.get(slot)? {
            Pending {
                op: PendingOp::Insert { tuple },
                dead: false,
                ..
            } => Some(tuple),
            _ => None,
        }
    }

    /// The live pending image of `tid` that `unique_keys` records for
    /// `key`, and the row it belongs to. The caller still has to check
    /// that the image carries the key: entries are never cleaned.
    fn recorded_holder(&self, key: &UniqueKey, tid: TableId) -> Option<(RowRef, &Row)> {
        let &slot = self.unique_keys.get(key)?;
        let p = self
            .writes
            .get(slot)
            .filter(|p| !p.dead && p.table == tid)?;
        match &p.op {
            PendingOp::Insert { tuple } => Some((RowRef::Own(slot as u64), tuple)),
            PendingOp::Update { row, new, .. } => Some((RowRef::Committed(*row), new)),
            PendingOp::Delete { .. } => None,
        }
    }

    /// Buffer a write of committed `row`, replacing an earlier one.
    fn put_row_write(&mut self, pending: Pending, row: RowId) {
        match self.by_row.get(&(pending.table, row)) {
            Some(&i) => self.writes[i] = pending,
            None => {
                self.by_row.insert((pending.table, row), self.writes.len());
                self.writes.push(pending);
            }
        }
    }
}

/// One committed write, as the auditor is told of it: `(table name hash,
/// row, old image, new image)`.
pub(crate) type CommittedWrite = (u64, RowId, Option<Row>, Option<Row>);

/// A savepoint: a snapshot of the transaction's buffered write state
/// (see [`Transaction::savepoint`]). Row images are `Arc`-shared, so the
/// snapshot is cheap.
#[derive(Clone)]
pub struct Savepoint(WriteBuffer);

impl std::fmt::Debug for Savepoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Savepoint")
            .field("writes", &self.0.writes.len())
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Catalog lock acquisitions this thread's transactions have made.
    static CATALOG_TOUCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count a catalog lock acquisition (tests pin how many a statement makes).
#[inline]
fn catalog_touched() {
    #[cfg(test)]
    CATALOG_TOUCHES.with(|n| n.set(n.get() + 1));
}

/// An open transaction. Obtained from [`TxnOptions::begin`](crate::TxnOptions::begin). Dropping an
/// uncommitted transaction rolls it back.
pub struct Transaction {
    /// The handle the transaction was begun on: its own clone, or one lent
    /// by the caller and handed back by [`Transaction::into_database`].
    db: Option<Database>,
    id: TxnId,
    /// Stripe of the active-snapshot registry this transaction is
    /// registered on (see `CommitPipeline::register_active`).
    active_stripe: usize,
    isolation: IsolationLevel,
    snapshot: u64,
    /// `DbInner::catalog_epoch` at begin.
    catalog_epoch: u64,
    open: bool,
    buf: WriteBuffer,
    locks: Vec<LockKey>,
    /// What the transaction read, kept for Serializable validation and,
    /// when it samples the transaction, for the runtime auditor.
    footprint: Footprint,
    /// Trace label / plan template key, threaded into the audit
    /// footprint so anomaly verdicts can name the offending template.
    label: Option<&'static str>,
}

impl Transaction {
    pub(crate) fn new(
        db: Database,
        id: TxnId,
        active_stripe: usize,
        isolation: IsolationLevel,
        snapshot: u64,
        label: Option<&'static str>,
    ) -> Self {
        let audited = db.inner.auditor.as_ref().is_some_and(|a| a.samples(id));
        let catalog_epoch = db.inner.catalog_epoch.load(Ordering::SeqCst);
        Transaction {
            db: Some(db),
            id,
            active_stripe,
            isolation,
            snapshot,
            catalog_epoch,
            open: true,
            buf: WriteBuffer::default(),
            locks: Vec::new(),
            footprint: Footprint::new(isolation == IsolationLevel::Serializable, audited),
            label,
        }
    }

    fn db(&self) -> &Database {
        self.db.as_ref().expect(LENT)
    }

    fn inner(&self) -> &DbInner {
        &self.db().inner
    }

    /// Close the transaction — rolling it back if it is still open — and
    /// hand back the database handle it was begun on: the one lent to
    /// [`Database::into_txn`](crate::Database::into_txn), ready for the
    /// next transaction.
    pub fn into_database(mut self) -> Database {
        self.rollback();
        self.db.take().expect(LENT)
    }

    /// This transaction's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// The transaction id (diagnostics).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Whether the transaction is still open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    fn ensure_open(&self) -> DbResult<()> {
        if self.open {
            Ok(())
        } else {
            Err(DbError::TxnClosed)
        }
    }

    /// The snapshot a *statement* of this transaction reads at.
    fn read_ts(&self) -> u64 {
        if self.isolation.txn_level_snapshot() {
            self.snapshot
        } else {
            self.inner().clock.load(Ordering::SeqCst)
        }
    }

    /// The published clock, which bounds every "committed-latest" read.
    /// A version above it is installed but unacknowledged — in flight, or
    /// stranded by a failed flush — and must never be observed. Read it
    /// *after* taking the row or key lock: the previous holder released
    /// only after `publish`, so its version is at or below this value.
    fn committed_ts(&self) -> u64 {
        self.inner().clock.load(Ordering::SeqCst)
    }

    fn entry(&self, table: TableId) -> Arc<TableEntry> {
        catalog_touched();
        self.inner().catalog.read().table(table)
    }

    /// Run `f` on `table`'s id and entry, borrowed: a current handle's
    /// own, else the catalog's, under its read latch.
    fn with_table<R>(
        &self,
        table: TableRef<'_>,
        f: impl FnOnce(TableId, &Arc<TableEntry>) -> DbResult<R>,
    ) -> DbResult<R> {
        if let TableRef::Handle(handle) = table {
            if handle.is_current_in(self.inner()) {
                return f(handle.id, &handle.entry);
            }
        }
        catalog_touched();
        let cat = self.inner().catalog.read();
        let (id, entry) = cat.resolve(table.name())?;
        f(id, entry)
    }

    fn resolve(&self, table: TableRef<'_>) -> DbResult<(TableId, Arc<TableEntry>)> {
        self.with_table(table, |id, entry| Ok((id, entry.clone())))
    }

    /// The schema of `table` (catalog lookup; usable mid-transaction by
    /// query layers).
    pub fn schema<'t>(
        &self,
        table: impl Into<TableRef<'t>>,
    ) -> DbResult<crate::schema::TableSchema> {
        self.with_table(table.into(), |_, entry| Ok(entry.schema.clone()))
    }

    /// The semantic mode of a plain read under this isolation level: a
    /// read against the transaction-level snapshot commutes with
    /// concurrent installs (the snapshot already fixed what it sees),
    /// while a committed-latest read does not.
    fn read_mode(&self) -> feral_hooks::AccessMode {
        if self.isolation.txn_level_snapshot() {
            feral_hooks::AccessMode::SnapshotRead
        } else {
            feral_hooks::AccessMode::Read
        }
    }

    fn lock(&mut self, key: LockKey, mode: LockMode) -> DbResult<()> {
        match self.inner().locks.acquire(self.id, &key, mode) {
            Ok(()) => {
                self.locks.push(key);
                Ok(())
            }
            Err(e) => {
                if matches!(e, DbError::LockTimeout { .. }) {
                    Stats::bump(&self.inner().stats.local().lock_timeouts);
                }
                Err(e)
            }
        }
    }

    /// Overlay this transaction's own write of committed `row` (if any)
    /// on the image a read resolved for it: an update shows its new image
    /// when that still `matches`, a delete hides the row.
    fn overlay_committed(
        &self,
        tid: TableId,
        row: RowId,
        tuple: Row,
        matches: impl Fn(&[Datum]) -> bool,
        out: &mut Vec<(RowRef, Row)>,
    ) {
        match self.buf.write_of(tid, row) {
            Some(PendingOp::Update { new, .. }) => {
                if matches(new) {
                    out.push((RowRef::Committed(row), new.clone()));
                }
            }
            Some(_) => {}
            None => out.push((RowRef::Committed(row), tuple)),
        }
    }

    /// Add this transaction's own inserts into `tid` that `matches` —
    /// the inserts into that table only, not every buffered write.
    fn overlay_own_inserts(
        &self,
        tid: TableId,
        matches: impl Fn(&[Datum]) -> bool,
        out: &mut Vec<(RowRef, Row)>,
    ) {
        for &slot in self.buf.own_inserts.get(&tid).into_iter().flatten() {
            if let Some(tuple) = self.buf.own_insert(slot) {
                if matches(tuple) {
                    out.push((RowRef::Own(slot as u64), tuple.clone()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Scan `table` for rows matching `pred` (visible at this statement's
    /// snapshot, overlaid with the transaction's own writes).
    pub fn scan<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        pred: &Predicate,
    ) -> DbResult<Vec<(RowRef, Row)>> {
        feral_hooks::yield_point(feral_hooks::Site::TxnScan);
        self.ensure_open()?;
        let mut out: Vec<(RowRef, Row)> = Vec::new();
        // One resolution (none through a current handle, else one catalog
        // touch) finds the table and its covering index. An equality probe
        // runs right here, on the entry borrowed from the handle or under
        // the catalog guard: the key is encoded from the predicate, and
        // each posting is resolved in the heap as the index hands it out —
        // no handle is cloned and nothing but `out` is built. Only the
        // range and full-table paths take handles out and let the catalog
        // go (they can run long, and a queued DDL writer would stall
        // readers).
        let scanned = self.with_table(table.into(), |tid, entry| {
            feral_trace::record(
                feral_trace::EventKind::Site(feral_hooks::Site::TxnScan),
                self.id,
                entry.name_hash,
                0,
            );
            Stats::bump(&self.inner().stats.local().scans);
            let read_ts = self.read_ts();
            let covering = entry
                .indexes
                .iter()
                .find_map(|idx| Some((idx, idx.probe_key(|col| pred.equality_on(col))?)));
            let unprobed = match covering {
                Some((idx, key)) => {
                    idx.any_row(&key, |row| {
                        if let Some(t) = entry.heap.visible(row, read_ts) {
                            if pred.matches(&t) {
                                self.overlay_committed(tid, row, t, |t| pred.matches(t), &mut out);
                            }
                        }
                        false
                    });
                    Stats::bump(&self.inner().stats.local().index_probes);
                    None
                }
                None => Some(range_bounds(entry, pred)),
            };
            // the entry leaves the closure only if it is still needed
            let kept = (unprobed.is_some() || self.footprint.validated).then(|| entry.clone());
            Ok((tid, entry.name_hash, read_ts, kept, unprobed))
        })?;
        let (tid, name_hash, read_ts, kept, unprobed) = scanned;
        let used_index = unprobed.is_none();
        if let Some(range) = unprobed {
            let entry = kept.as_ref().expect("an unprobed scan keeps its table");
            let committed = match range {
                // an index *range* scan: a single-column index covers a
                // top-level range conjunct
                Some((idx, lo, hi)) => {
                    let mut rows = Vec::new();
                    for row in idx.rows_in_bounds(lo, hi) {
                        if let Some(t) = entry.heap.visible(row, read_ts) {
                            if pred.matches(&t) {
                                rows.push((row, t));
                            }
                        }
                    }
                    rows.sort_by_key(|(row, _)| *row);
                    rows.dedup_by_key(|(row, _)| *row);
                    Stats::bump(&self.inner().stats.local().index_probes);
                    rows
                }
                None => entry.heap.scan_visible(read_ts, |t| pred.matches(t)),
            };
            for (row, tuple) in committed {
                self.overlay_committed(tid, row, tuple, |t| pred.matches(t), &mut out);
            }
        }
        self.overlay_own_inserts(tid, |t| pred.matches(t), &mut out);

        // no hook runs between the scan and this report of it
        let mode = self.read_mode();
        self.footprint.open(tid, name_hash, kept, mode, read_ts);
        for (r, _) in &out {
            if let RowRef::Committed(row) = r {
                self.footprint.row(*row);
            }
        }
        let validated = used_index || !self.inner().config.pg_ssi_bug;
        self.footprint.pred(pred, validated);
        Ok(out)
    }

    /// Fetch a row by primary key.
    pub fn get_by_id<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        id: i64,
    ) -> DbResult<Option<(RowRef, Row)>> {
        let rows = self.scan(table, &Predicate::eq(0, id))?;
        Ok(rows.into_iter().next())
    }

    /// Count rows matching `pred`.
    pub fn count<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        pred: &Predicate,
    ) -> DbResult<usize> {
        Ok(self.scan(table, pred)?.len())
    }

    /// `SELECT ... FOR UPDATE`: scan at a *fresh* statement snapshot,
    /// X-lock each matching committed row, and return the latest committed
    /// images (re-read after the lock, as PostgreSQL does under Read
    /// Committed).
    pub fn select_for_update<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        pred: &Predicate,
    ) -> DbResult<Vec<(RowRef, Row)>> {
        feral_hooks::yield_point(feral_hooks::Site::TxnSelectForUpdate);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table.into())?;
        Stats::bump(&self.inner().stats.local().scans);
        let read_ts = self.inner().clock.load(Ordering::SeqCst);
        // always a committed-latest read (the post-lock re-read), even
        // under snapshot isolation
        let mode = feral_hooks::AccessMode::Read;
        let kept = self.footprint.validated.then(|| entry.clone());
        self.footprint
            .open(tid, entry.name_hash, kept, mode, read_ts);
        let candidates = entry.heap.scan_visible(read_ts, |t| pred.matches(t));
        let mut out = Vec::new();
        for (row, _) in candidates {
            self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
            // re-read after lock: the row may have been updated or deleted
            // by a transaction that committed while we waited
            let Some((latest, live, begin)) = entry.heap.latest(row, self.committed_ts()) else {
                continue;
            };
            if !live || !pred.matches(&latest) {
                continue;
            }
            if self.isolation.first_updater_wins() && begin > self.snapshot {
                self.abort();
                Stats::bump(&self.inner().stats.local().write_conflicts);
                return Err(DbError::WriteConflict);
            }
            self.footprint.row(row);
            self.overlay_committed(tid, row, latest, |t| pred.matches(t), &mut out);
        }
        // own inserts matching the predicate are implicitly "locked"
        self.overlay_own_inserts(tid, |t| pred.matches(t), &mut out);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Constraint helpers (in-database enforcement)
    // ------------------------------------------------------------------

    /// Effective check whether `key` is already taken in unique index
    /// `idx`, considering committed-latest state and this transaction's own
    /// pending writes, excluding `exclude`.
    fn unique_key_taken(
        &self,
        entry: &TableEntry,
        idx: &IndexData,
        key: &UniqueKey,
        exclude: RowRef,
    ) -> bool {
        // probes committed-latest state below, at any isolation level
        note_table_access(entry.name_hash, feral_hooks::AccessMode::Read);
        let tid = idx.def.table;
        let holds = |image: &[Datum]| !idx.key_has_null(image) && idx.key_of(image) == key.1;
        // a pending image that took the key since it last was committed state
        let recorded = self.buf.recorded_holder(key, tid);
        if recorded.is_some_and(|(rref, image)| rref != exclude && holds(image)) {
            return true;
        }
        // committed-latest state via the index; a row this transaction is
        // rewriting counts by its pending image
        let clock = self.committed_ts();
        idx.any_row(&key.1, |row| {
            if exclude == RowRef::Committed(row) {
                return false;
            }
            match self.buf.write_of(tid, row) {
                Some(PendingOp::Update { new, .. }) => holds(new),
                Some(_) => false,
                None => entry
                    .heap
                    .latest(row, clock)
                    .is_some_and(|(latest, live, _)| live && holds(&latest)),
            }
        })
    }

    /// Run in-database unique checks for writing `tuple` (as `target`) into
    /// `table`, locking each unique key to serialize with concurrent
    /// writers. `prev` is the prior image for updates (keys that did not
    /// change are skipped).
    fn check_unique_indexes(
        &mut self,
        tid: TableId,
        entry: &TableEntry,
        tuple: &[Datum],
        prev: Option<&[Datum]>,
        target: RowRef,
    ) -> DbResult<()> {
        // the slot `target`'s image lives (or will live) in
        let slot = match target {
            RowRef::Own(slot) => slot as usize,
            RowRef::Committed(row) => match self.buf.by_row.get(&(tid, row)) {
                Some(&slot) => slot,
                None => self.buf.writes.len(),
            },
        };
        for idx in &entry.indexes {
            if !idx.def.unique || idx.key_has_null(tuple) {
                continue;
            }
            if prev.is_some_and(|p| idx.same_key(p, tuple)) {
                continue; // key unchanged
            }
            let key: UniqueKey = (idx.id, idx.key_of(tuple));
            self.lock(LockKey::Key(key.0, key.1.clone()), LockMode::Exclusive)?;
            if self.unique_key_taken(entry, idx, &key, target) {
                Stats::bump(&self.inner().stats.local().unique_violations);
                return Err(DbError::UniqueViolation {
                    index: idx.def.name.clone(),
                    key: render_key(tuple, &idx.def.cols),
                });
            }
            self.buf.unique_keys.insert(key, slot);
        }
        Ok(())
    }

    /// Whether the parent row with primary key `parent_id` (`key` in the
    /// parent's primary-key index) effectively exists: committed-latest
    /// overlaid with own writes.
    fn parent_exists(
        &self,
        fk: &ForeignKey,
        parent: &TableEntry,
        parent_id: &Datum,
        key: &UniqueKey,
    ) -> bool {
        note_table_access(parent.name_hash, feral_hooks::AccessMode::Read);
        // an own pending insert into the parent took the key when it
        // passed its primary-key check
        let recorded = self.buf.recorded_holder(key, fk.parent_table);
        if recorded.is_some_and(|(rref, tuple)| {
            matches!(rref, RowRef::Own(_)) && tuple[0].sql_eq(parent_id) == Some(true)
        }) {
            return true;
        }
        let clock = self.committed_ts();
        // create_table registers the pkey index first
        parent.indexes[0].any_row(&key.1, |row| {
            if matches!(
                self.buf.write_of(fk.parent_table, row),
                Some(PendingOp::Delete { .. })
            ) {
                return false; // we are deleting it
            }
            parent
                .heap
                .latest(row, clock)
                .is_some_and(|(latest, live, _)| live && latest[0].sql_eq(parent_id) == Some(true))
        })
    }

    /// In-database FK child-side check for writing `tuple` into the table
    /// of `entry`: S-lock the referenced parent key (blocking concurrent
    /// parent deletes), then verify the parent exists.
    fn check_foreign_keys_child(&mut self, entry: &TableEntry, tuple: &[Datum]) -> DbResult<()> {
        for fk in &entry.fks_as_child {
            let parent_id = &tuple[fk.child_cols[0]];
            if parent_id.is_null() {
                continue; // MATCH SIMPLE: NULL references nothing
            }
            let parent = self.entry(fk.parent_table);
            let key: UniqueKey = (parent.indexes[0].id, IndexKey::encode([parent_id]));
            self.lock(LockKey::Key(key.0, key.1.clone()), LockMode::Shared)?;
            if !self.parent_exists(fk, &parent, parent_id, &key) {
                Stats::bump(&self.inner().stats.local().fk_violations);
                return Err(DbError::ForeignKeyViolation {
                    constraint: fk.name.clone(),
                    detail: format!("referenced parent {parent_id} does not exist"),
                });
            }
        }
        Ok(())
    }

    /// Effective children of `parent_id` under `fk` in `child` (the
    /// entry of `fk.child_table`): committed-latest rows overlaid with own
    /// writes. An index on the referencing column finds them by key;
    /// without one the child table is walked.
    fn children_of(
        &self,
        fk: &ForeignKey,
        child: &TableEntry,
        parent_id: &Datum,
    ) -> Vec<(RowRef, Row)> {
        note_table_access(child.name_hash, feral_hooks::AccessMode::Read);
        let col = fk.child_cols[0];
        let refers = |t: &[Datum]| t[col].sql_eq(parent_id) == Some(true);
        let clock = self.committed_ts();
        let mut out = Vec::new();
        match child.indexes.iter().find(|idx| idx.def.cols == [col]) {
            Some(idx) => {
                // postings outlive the versions that made them: re-verify
                idx.any_row(&IndexKey::encode([parent_id]), |row| {
                    if let Some(t) = child.heap.visible(row, clock).filter(|t| refers(t)) {
                        self.overlay_committed(fk.child_table, row, t, refers, &mut out);
                    }
                    false
                });
            }
            None => {
                for (row, t) in child.heap.scan_visible(clock, refers) {
                    self.overlay_committed(fk.child_table, row, t, refers, &mut out);
                }
            }
        }
        self.overlay_own_inserts(fk.child_table, refers, &mut out);
        out
    }

    /// Parent-side FK enforcement on delete: X-lock the parent key to block
    /// concurrent child inserts, then RESTRICT / CASCADE / SET NULL.
    fn check_foreign_keys_parent_delete(
        &mut self,
        entry: &TableEntry,
        tuple: &[Datum],
    ) -> DbResult<()> {
        for fk in &entry.fks_as_parent {
            let parent_id = &tuple[0];
            self.lock(
                LockKey::Key(entry.indexes[0].id, IndexKey::encode([parent_id])),
                LockMode::Exclusive,
            )?;
            let child = self.entry(fk.child_table);
            let children = self.children_of(fk, &child, parent_id);
            match fk.on_delete {
                OnDelete::Restrict => {
                    if !children.is_empty() {
                        Stats::bump(&self.inner().stats.local().fk_violations);
                        return Err(DbError::ForeignKeyViolation {
                            constraint: fk.name.clone(),
                            detail: format!("{} dependent row(s) in child table", children.len()),
                        });
                    }
                }
                OnDelete::Cascade => {
                    for (rref, _) in children {
                        self.delete_ref(fk.child_table, &child, rref)?;
                    }
                }
                OnDelete::SetNull => {
                    let col = fk.child_cols[0];
                    for (rref, child_tuple) in children {
                        let mut new = child_tuple.to_vec();
                        new[col] = Datum::Null;
                        self.update_ref(fk.child_table, &child, rref, new)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert a full tuple. A NULL `id` is auto-assigned from the table's
    /// sequence. Returns a reference usable for further reads/writes in
    /// this transaction.
    pub fn insert<'t>(&mut self, table: impl Into<TableRef<'t>>, tuple: Tuple) -> DbResult<RowRef> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table.into())?;
        self.insert_into(tid, entry, tuple)
    }

    /// Insert from `(column, value)` pairs, with defaults applied.
    pub fn insert_pairs<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        pairs: &[(&str, Datum)],
    ) -> DbResult<RowRef> {
        let (tid, entry) = self.resolve(table.into())?;
        let tuple = entry.schema.tuple_from_pairs(pairs)?;
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        self.insert_into(tid, entry, tuple)
    }

    /// The insert statement proper, on the table the caller resolved.
    fn insert_into(
        &mut self,
        tid: TableId,
        entry: Arc<TableEntry>,
        mut tuple: Tuple,
    ) -> DbResult<RowRef> {
        if tuple.first().map(Datum::is_null).unwrap_or(false) {
            tuple[0] = Datum::Int(entry.next_id()?);
        }
        entry.schema.check_tuple(&tuple)?;
        let slot = self.buf.writes.len();
        let target = RowRef::Own(slot as u64);
        self.check_unique_indexes(tid, &entry, &tuple, None, target)?;
        self.check_foreign_keys_child(&entry, &tuple)?;
        self.buf.writes.push(Pending {
            table: tid,
            entry,
            op: PendingOp::Insert {
                tuple: Row::from(tuple),
            },
            dead: false,
        });
        self.buf.own_inserts.entry(tid).or_default().push(slot);
        Stats::bump(&self.inner().stats.local().inserts);
        Ok(target)
    }

    /// Read a row owned by this transaction or committed, by reference.
    pub fn read_ref(&self, table: TableId, rref: RowRef) -> Option<Row> {
        match rref {
            RowRef::Own(slot) => self.buf.own_insert(slot as usize).cloned(),
            RowRef::Committed(row) => match self.buf.write_of(table, row) {
                Some(PendingOp::Update { new, .. }) => Some(new.clone()),
                Some(_) => None,
                None => self.entry(table).heap.visible(row, self.read_ts()),
            },
        }
    }

    /// Update the row at `rref` to `new_tuple` (the `id` column is forced
    /// to remain unchanged).
    pub fn update<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        rref: RowRef,
        new_tuple: Tuple,
    ) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table.into())?;
        self.update_ref(tid, &entry, rref, new_tuple)
    }

    /// Lock committed `row` for writing and re-read it: the latest
    /// committed image, or the conflict a first-updater-wins level owes a
    /// writer that lost the race.
    fn lock_for_write(&mut self, tid: TableId, entry: &TableEntry, row: RowId) -> DbResult<Row> {
        self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
        // post-lock committed-latest re-read (first-updater check)
        note_table_access(entry.name_hash, feral_hooks::AccessMode::Read);
        let (latest, live, begin) = entry
            .heap
            .latest(row, self.committed_ts())
            .ok_or(DbError::NoSuchRow)?;
        let lost_race = !live || (begin > self.snapshot && self.buf.write_of(tid, row).is_none());
        if lost_race && self.isolation.first_updater_wins() {
            Stats::bump(&self.inner().stats.local().write_conflicts);
            return Err(DbError::WriteConflict);
        }
        if !live {
            return Err(DbError::NoSuchRow);
        }
        Ok(latest)
    }

    fn update_ref(
        &mut self,
        tid: TableId,
        entry: &Arc<TableEntry>,
        rref: RowRef,
        mut new_tuple: Tuple,
    ) -> DbResult<()> {
        match rref {
            RowRef::Own(slot) => {
                let slot = slot as usize;
                let prev = self.buf.own_insert(slot).ok_or(DbError::NoSuchRow)?.clone();
                new_tuple[0] = prev[0].clone();
                entry.schema.check_tuple(&new_tuple)?;
                self.check_unique_indexes(tid, entry, &new_tuple, Some(&prev), rref)?;
                self.check_foreign_keys_child(entry, &new_tuple)?;
                self.buf.writes[slot].op = PendingOp::Insert {
                    tuple: Row::from(new_tuple),
                };
            }
            RowRef::Committed(row) => {
                let latest = self.lock_for_write(tid, entry, row)?;
                // base image: our own pending new image if we already wrote
                // this row, else the latest committed image
                let (base, effective_prev) = match self.buf.write_of(tid, row) {
                    Some(PendingOp::Update { base, new, .. }) => (base.clone(), new.clone()),
                    Some(_) => return Err(DbError::NoSuchRow),
                    None => (latest.clone(), latest),
                };
                new_tuple[0] = base[0].clone();
                entry.schema.check_tuple(&new_tuple)?;
                self.check_unique_indexes(tid, entry, &new_tuple, Some(&effective_prev), rref)?;
                self.check_foreign_keys_child(entry, &new_tuple)?;
                let pending = Pending {
                    table: tid,
                    entry: entry.clone(),
                    op: PendingOp::Update {
                        row,
                        base,
                        new: Row::from(new_tuple),
                    },
                    dead: false,
                };
                self.buf.put_row_write(pending, row);
            }
        }
        Stats::bump(&self.inner().stats.local().updates);
        Ok(())
    }

    /// Atomically transform the row at `rref` under its row lock: `f`
    /// receives the *current* image (latest committed, or this
    /// transaction's own pending image) — the engine-level analogue of
    /// SQL's `UPDATE t SET c = c + 1`, immune to lost updates.
    pub fn update_with<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        rref: RowRef,
        f: impl FnOnce(&[Datum]) -> Tuple,
    ) -> DbResult<()> {
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table.into())?;
        let current = match rref {
            RowRef::Own(slot) => self
                .buf
                .own_insert(slot as usize)
                .ok_or(DbError::NoSuchRow)?
                .clone(),
            RowRef::Committed(row) => {
                // take the lock first so the read is current
                self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
                let seen = match self.buf.write_of(tid, row) {
                    Some(PendingOp::Update { new, .. }) => Some(new.clone()),
                    Some(_) => None,
                    None => entry.heap.visible(row, self.read_ts()),
                };
                match seen {
                    Some(image) => image,
                    None => {
                        let (latest, live, _) = entry
                            .heap
                            .latest(row, self.committed_ts())
                            .ok_or(DbError::NoSuchRow)?;
                        if !live {
                            return Err(DbError::NoSuchRow);
                        }
                        latest
                    }
                }
            }
        };
        let new_tuple = f(&current);
        self.update_ref(tid, &entry, rref, new_tuple)
    }

    /// Delete the row at `rref`, enforcing any in-database foreign keys
    /// (RESTRICT / CASCADE / SET NULL).
    pub fn delete<'t>(&mut self, table: impl Into<TableRef<'t>>, rref: RowRef) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table.into())?;
        self.delete_ref(tid, &entry, rref)
    }

    fn delete_ref(&mut self, tid: TableId, entry: &Arc<TableEntry>, rref: RowRef) -> DbResult<()> {
        match rref {
            RowRef::Own(slot) => {
                let slot = slot as usize;
                let tuple = self.buf.own_insert(slot).ok_or(DbError::NoSuchRow)?.clone();
                self.check_foreign_keys_parent_delete(entry, &tuple)?;
                self.buf.writes[slot].dead = true;
            }
            RowRef::Committed(row) => {
                let latest = self.lock_for_write(tid, entry, row)?;
                let base = match self.buf.write_of(tid, row) {
                    Some(PendingOp::Update { base, .. }) => base.clone(),
                    Some(_) => return Err(DbError::NoSuchRow),
                    None => latest,
                };
                self.check_foreign_keys_parent_delete(entry, &base)?;
                let pending = Pending {
                    table: tid,
                    entry: entry.clone(),
                    op: PendingOp::Delete { row, base },
                    dead: false,
                };
                self.buf.put_row_write(pending, row);
            }
        }
        Stats::bump(&self.inner().stats.local().deletes);
        Ok(())
    }

    /// Delete all rows matching `pred`; returns the number deleted.
    pub fn delete_where<'t>(
        &mut self,
        table: impl Into<TableRef<'t>>,
        pred: &Predicate,
    ) -> DbResult<usize> {
        let table = table.into();
        let rows = self.scan(table, pred)?;
        let n = rows.len();
        for (rref, _) in rows {
            self.delete(table, rref)?;
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Commit / rollback
    // ------------------------------------------------------------------

    /// The buffered writes that will take effect.
    fn effects(&self) -> impl Iterator<Item = &Pending> {
        self.buf.writes.iter().filter(|p| !p.dead)
    }

    /// Serializable backward validation: abort if a transaction that
    /// committed after our snapshot wrote something we read.
    ///
    /// Runs under `_latched`, the shard latches of every table this
    /// transaction read, and asks each read of the versions themselves
    /// (`Read::overwritten_since`): no commit installs into those tables
    /// while the validator looks, and one that installs after it lets go
    /// is stamped after this commit.
    ///
    /// After a failed flush the failed batch's versions stay installed
    /// above every later snapshot; a conflict is then reported as the
    /// poisoned log it is, not as a retryable failure.
    fn validate_serializable(&self, _latched: &ShardGuards<'_>) -> DbResult<()> {
        let mut reads = self.footprint.validated_reads();
        let Some(detail) = reads.find_map(|read| read.overwritten_since(self.snapshot)) else {
            return Ok(());
        };
        self.inner().pipeline.check_unbroken()?;
        Stats::bump(&self.inner().stats.local().serialization_failures);
        Err(DbError::SerializationFailure { detail })
    }

    // ------------------------------------------------------------------
    // Savepoints
    // ------------------------------------------------------------------

    /// Establish a savepoint that [`Transaction::rollback_to`] can rewind
    /// the buffered write state to. Locks acquired after the savepoint are
    /// *retained* on partial rollback, and reads stay in the footprint —
    /// conservative simplifications relative to engines that release them
    /// (they can only reduce concurrency, never admit an anomaly).
    pub fn savepoint(&mut self) -> Savepoint {
        Savepoint(self.buf.clone())
    }

    /// Restore the buffered write state captured by `sp`, discarding every
    /// write (including merged updates of pre-savepoint rows) made since.
    pub fn rollback_to(&mut self, sp: Savepoint) -> DbResult<()> {
        self.ensure_open()?;
        self.buf = sp.0;
        Ok(())
    }

    /// Commit the transaction, applying buffered writes atomically.
    pub fn commit(&mut self) -> DbResult<()> {
        let span = feral_trace::start_phase(feral_trace::Phase::Commit);
        let result = self.commit_inner();
        span.finish(self.id);
        result
    }

    fn commit_inner(&mut self) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnCommit);
        self.ensure_open()?;
        if self.effects().next().is_none() {
            // Read-only transactions still deliver their footprint:
            // they can sit on anomaly cycles (the classic read-only
            // transaction anomaly under snapshot isolation). Their
            // "commit timestamp" is the clock at commit.
            let read_ts = self.inner().clock.load(Ordering::SeqCst);
            self.tail(read_ts, 0, Vec::new()).complete(self.db(), true);
            return Ok(());
        }
        let db = self.db.as_ref().expect(LENT);
        let pipeline = &db.inner.pipeline;
        // Shard set, one bit per shard: every table written, plus — under
        // Serializable — every table read, so no commit installs into a
        // table while validation reads its versions.
        let shard_bit = |table: TableId| 1u64 << pipeline.shard_of(table);
        let written = self.effects().fold(0, |mask, p| mask | shard_bit(p.table));
        let reads = self.footprint.validated_reads();
        let latched = reads.fold(written, |mask, r| mask | shard_bit(r.table));
        // Canonical (ascending) acquisition order — no latch deadlock.
        let held = pipeline.lock_shards(latched, &db.inner.stats);
        feral_trace::record(
            feral_trace::EventKind::Site(feral_hooks::Site::CommitShard),
            self.id,
            latched,
            latched.count_ones() as u64,
        );
        if db.inner.catalog_epoch.load(Ordering::SeqCst) != self.catalog_epoch {
            // a table gained an index since this transaction began: post
            // to the indexes it has now (see `create_index_named`)
            catalog_touched();
            let cat = db.inner.catalog.read();
            for p in &mut self.buf.writes {
                p.entry = cat.table(p.table);
            }
        }
        if feral_hooks::active() {
            // commit-segment footprint: the validator re-reads every
            // registered read table, the install loop publishes every
            // written table, and the timestamp publish ticks the clock
            let reads = self.footprint.validated_reads();
            let read: BTreeMap<_, _> = reads.map(|r| (r.table, r.name_hash)).collect();
            for name_hash in read.into_values() {
                note_table_access(name_hash, feral_hooks::AccessMode::Read);
            }
            let effects = self.effects();
            let written: BTreeMap<_, _> = effects.map(|p| (p.table, p.entry.name_hash)).collect();
            for name_hash in written.into_values() {
                note_table_access(name_hash, feral_hooks::AccessMode::Write);
            }
            feral_hooks::note_access(feral_hooks::Access {
                space: "clock",
                what: feral_hooks::fnv64(b"clock"),
                mode: feral_hooks::AccessMode::Incr,
            });
        }
        if self.isolation == IsolationLevel::Serializable {
            if let Err(e) = self.validate_serializable(&held) {
                drop(held);
                self.abort();
                return Err(e);
            }
        }
        // Redo logging: queue the commit record BEFORE installing; it is
        // flushed after the latches drop and before publication. Insert
        // row ids are precomputed: queueing and heap appends both happen
        // under the table's shard latch. The timestamp is allocated
        // inside the group buffer, so log order = timestamp order.
        let wal = db.inner.wal.as_ref();
        let mut wal_writes = Vec::new();
        if wal.is_some() {
            let mut next_row: HashMap<TableId, u64> = HashMap::new();
            for p in self.effects() {
                let table = p.entry.log_name.clone();
                match &p.op {
                    PendingOp::Insert { tuple } => {
                        let next = next_row
                            .entry(p.table)
                            .or_insert_with(|| p.entry.heap.chain_count() as u64);
                        wal_writes.push(crate::wal::WalWrite::Insert {
                            table,
                            row: *next,
                            tuple: tuple.to_vec(),
                        });
                        *next += 1;
                    }
                    PendingOp::Update { row, new, .. } => {
                        wal_writes.push(crate::wal::WalWrite::Update {
                            table,
                            row: *row as u64,
                            tuple: new.to_vec(),
                        });
                    }
                    PendingOp::Delete { row, .. } => {
                        wal_writes.push(crate::wal::WalWrite::Delete {
                            table,
                            row: *row as u64,
                        });
                    }
                }
            }
        }
        let stamped = pipeline.stamp_commit(&db.inner.stats, wal.is_some(), |ts| {
            crate::wal::WalRecord::Commit {
                commit_ts: ts,
                writes: wal_writes,
            }
        });
        let (commit_ts, wal_seq) = match stamped {
            Ok(stamp) => stamp,
            Err(e) => {
                drop(held);
                self.abort();
                return Err(e);
            }
        };
        // Installed at `commit_ts > clock`: invisible until `publish`. The
        // images are copied out only for the auditor.
        let audited = self.footprint.audited;
        let mut writes = Vec::new();
        for p in self.effects() {
            let entry = &p.entry;
            let (row, old, new) = match &p.op {
                PendingOp::Insert { tuple } => {
                    let row = entry.heap.install_insert(commit_ts, tuple.clone());
                    for idx in &entry.indexes {
                        idx.insert_entry(idx.key_of(tuple), row);
                    }
                    (row, None, Some(tuple))
                }
                PendingOp::Update { row, base, new } => {
                    entry.heap.install_update(*row, commit_ts, new.clone());
                    // the old-key posting stays: snapshots older than this
                    // commit still reach the prior version through it, and
                    // readers re-verify the indexed columns against the
                    // tuple they resolve (vacuum sweeps it once no
                    // snapshot can see the old version)
                    for idx in &entry.indexes {
                        if !idx.same_key(base, new) {
                            idx.insert_entry(idx.key_of(new), *row);
                        }
                    }
                    (*row, Some(base), Some(new))
                }
                PendingOp::Delete { row, base } => {
                    // postings survive the delete for the same reason: the
                    // row is dead committed-latest, but snapshots begun
                    // before this commit still index into its version chain
                    entry.heap.install_delete(*row, commit_ts);
                    (*row, Some(base), None)
                }
            };
            if audited {
                writes.push((entry.name_hash, row, old.cloned(), new.cloned()));
            }
        }
        // Everything the latches order is fixed: what is left — durable
        // wait, publish, audit, lock release — is the commit tail,
        // settled here with no latch held (one flush covers every
        // committer in flight, same table or not) or handed to the
        // `defer_durable` scope this thread is in. If the flush fails,
        // the versions stay installed above a clock that never reaches
        // them.
        drop(held);
        let tail = self.tail(commit_ts, wal_seq, writes);
        match crate::tail::defer(self.db(), tail) {
            None => Ok(()),
            Some(tail) => tail.settle(self.db()),
        }
    }

    /// Close the transaction and move what its commit still owes into a
    /// [`CommitTail`]; `Vec`s are moved, nothing is allocated. `writes`
    /// are the installed images of an audited commit.
    fn tail(&mut self, commit_ts: u64, wal_seq: u64, writes: Vec<CommittedWrite>) -> CommitTail {
        self.open = false;
        let footprint = std::mem::take(&mut self.footprint);
        CommitTail {
            txn: self.id,
            active_stripe: self.active_stripe,
            commit_ts,
            wal_seq,
            locks: std::mem::take(&mut self.locks),
            writes,
            isolation: self.isolation,
            snapshot: self.snapshot,
            label: self.label,
            footprint,
        }
    }

    /// Roll back the transaction, discarding buffered writes.
    pub fn rollback(&mut self) {
        if self.open {
            self.abort();
        }
    }

    /// Abort: the one way a transaction ends without a [`CommitTail`].
    fn abort(&mut self) {
        self.open = false;
        crate::tail::finish_txn(self.db(), self.id, self.active_stripe, &self.locks, false);
        self.locks.clear();
    }

    /// Record one application-level validation probe (the feral
    /// `SELECT … LIMIT 1`). Called by ORM uniqueness/presence checks so
    /// the paper's key operation shows up in [`Stats`] and the trace.
    pub fn note_validation_probe(&self, key_hash: u64, table_hash: u64) {
        Stats::bump(&self.inner().stats.local().validation_probes);
        feral_trace::record(
            feral_trace::EventKind::UniqueProbe,
            self.id,
            key_hash,
            table_hash,
        );
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.open {
            self.abort();
        }
    }
}

type RangeBounds = (Arc<IndexData>, Bound<IndexKey>, Bound<IndexKey>);

/// The first single-column index of `entry` that a top-level range
/// conjunct of `pred` bounds, with the encoded bounds.
fn range_bounds(entry: &TableEntry, pred: &Predicate) -> Option<RangeBounds> {
    let ranges = pred.range_fingerprint();
    if ranges.is_empty() {
        return None;
    }
    for idx in &entry.indexes {
        if idx.def.cols.len() != 1 {
            continue;
        }
        let col = idx.def.cols[0];
        let mut lo = Bound::Unbounded;
        let mut hi = Bound::Unbounded;
        for (rc, op, value) in &ranges {
            if *rc != col || value.is_null() {
                continue;
            }
            let enc = IndexKey::encode([value]);
            match op {
                crate::predicate::CmpOp::Gt => lo = Bound::Excluded(enc),
                crate::predicate::CmpOp::Ge => lo = Bound::Included(enc),
                crate::predicate::CmpOp::Lt => hi = Bound::Excluded(enc),
                crate::predicate::CmpOp::Le => hi = Bound::Included(enc),
                _ => {}
            }
        }
        if (&lo, &hi) != (&Bound::Unbounded, &Bound::Unbounded) {
            return Some((idx.clone(), lo, hi));
        }
    }
    None
}

fn render_key(tuple: &[Datum], cols: &[usize]) -> String {
    let vals: Vec<String> = cols.iter().map(|&c| tuple[c].to_string()).collect();
    format!("({})", vals.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Config;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;
    use std::collections::HashSet;
    use std::time::Duration;

    /// The key lock a unique insert takes names the index by the id the
    /// catalog gave it at `create_index` time — what the by-name lookup
    /// this replaced returned — so two writers of one key still meet on
    /// the same lock.
    #[test]
    fn a_unique_insert_locks_its_key_under_the_catalog_id_of_the_index() {
        let db = Database::new(Config {
            lock_timeout: Duration::from_millis(50),
            ..Config::default()
        });
        db.create_table(TableSchema::new(
            "users",
            vec![ColumnDef::new("email", DataType::Text)],
        ))
        .unwrap();
        let created = db.create_index("users", &["email"], true).unwrap();
        let by_name = db.inner.catalog.read().index_names["index_users_on_email"];
        assert_eq!(created, by_name);
        let users = db.table_id("users").unwrap();
        let entry = db.inner.catalog.read().table(users);
        let ids: Vec<_> = entry.indexes.iter().map(|idx| idx.id).collect();
        assert_eq!(
            ids,
            [db.inner.catalog.read().index_names["users_pkey"], by_name]
        );

        let email = [("email", Datum::text("a@example.com"))];
        let key = IndexKey::encode([&email[0].1]);
        let mut first = db.txn().begin();
        first.insert_pairs("users", &email).unwrap();
        assert!(first.locks.contains(&LockKey::Key(by_name, key)));
        // a second writer of the key waits on that lock while the first is open...
        let mut second = db.txn().begin();
        assert!(matches!(
            second.insert_pairs("users", &email),
            Err(DbError::LockTimeout { .. })
        ));
        second.rollback();
        // ...and is refused once the first has committed
        first.commit().unwrap();
        let mut third = db.txn().begin();
        assert!(matches!(
            third.insert_pairs("users", &email),
            Err(DbError::UniqueViolation { .. })
        ));
    }

    fn users_db() -> Database {
        let db = Database::in_memory();
        db.create_table(TableSchema::new(
            "users",
            vec![
                ColumnDef::new("email", DataType::Text),
                ColumnDef::new("dept", DataType::Int),
            ],
        ))
        .unwrap();
        db.create_index("users", &["email"], true).unwrap();
        db
    }

    fn catalog_touches_of(f: impl FnOnce()) -> u64 {
        let before = CATALOG_TOUCHES.with(|n| n.get());
        f();
        CATALOG_TOUCHES.with(|n| n.get()) - before
    }

    /// A write statement resolves its table once, and the commit that
    /// installs it needs nothing more from the catalog: the entry rides
    /// in the write buffer. (A second `resolve` in `insert_pairs`, or a
    /// per-write `entry()` at commit, trips this.)
    #[test]
    fn a_write_resolves_its_table_once_and_commit_never_touches_the_catalog() {
        let db = users_db();
        let user = |email: &str| [("email", Datum::text(email)), ("dept", Datum::Int(1))];
        let mut tx = db.txn().begin();
        let mut row = None;
        assert_eq!(
            catalog_touches_of(|| row = Some(tx.insert_pairs("users", &user("a")).unwrap())),
            1
        );
        assert_eq!(
            catalog_touches_of(|| {
                tx.insert("users", vec![Datum::Null, Datum::text("b"), Datum::Int(1)])
                    .unwrap();
            }),
            1
        );
        let image = tx.read_ref(TableId(0), row.unwrap()).unwrap();
        let mut renamed = image.to_vec();
        renamed[1] = Datum::text("c");
        assert_eq!(
            catalog_touches_of(|| tx.update("users", row.unwrap(), renamed).unwrap()),
            1
        );
        assert_eq!(catalog_touches_of(|| tx.commit().unwrap()), 0);
        // an index made while a transaction is open is the one exception:
        // its commit re-resolves, so the row it installs is posted there
        let mut tx = db.txn().begin();
        tx.insert_pairs("users", &user("d")).unwrap();
        db.create_index("users", &["dept"], false).unwrap();
        assert_eq!(catalog_touches_of(|| tx.commit().unwrap()), 1);
        let mut tx = db.txn().begin();
        let by_dept = tx.scan("users", &Predicate::eq(2, 1i64)).unwrap();
        assert_eq!(by_dept.len(), 3);
        assert_eq!(db.stats().snapshot().index_probes, 1);
    }

    /// A statement through a current [`TableHandle`] resolves nothing:
    /// a point read, the scan the feral probe runs and a write touch the
    /// catalog 0 times, where the same statements by name touch it once
    /// each. A handle that a catalog change made stale — or one resolved
    /// in another database — falls back to the name, and sees the change.
    #[test]
    fn a_statement_through_a_resolved_handle_touches_the_catalog_zero_times() {
        let db = users_db();
        let users = db.table("users").unwrap();
        db.txn()
            .run(|tx| {
                tx.insert_pairs(
                    &users,
                    &[("email", Datum::text("a")), ("dept", Datum::Int(1))],
                )
            })
            .unwrap();
        let mut tx = db.txn().begin();
        let by_id = Predicate::eq(0, 1i64);
        let by_email = Predicate::eq(1, "a");
        assert_eq!(
            catalog_touches_of(|| assert_eq!(tx.scan(&users, &by_id).unwrap().len(), 1)),
            0
        );
        assert_eq!(
            catalog_touches_of(|| assert_eq!(tx.scan(&users, &by_email).unwrap().len(), 1)),
            0
        );
        assert_eq!(
            catalog_touches_of(|| assert_eq!(tx.scan("users", &by_id).unwrap().len(), 1)),
            1
        );
        let row = [Datum::Null, Datum::text("b"), Datum::Int(1)];
        let insert = catalog_touches_of(|| {
            tx.insert(&users, row.to_vec()).unwrap();
        });
        assert_eq!(insert, 0);
        assert_eq!(catalog_touches_of(|| tx.commit().unwrap()), 0);
        // the handle predates this index: statements through it look the
        // table up again, and probe the index
        assert!(users.is_current(&db));
        db.create_index("users", &["dept"], false).unwrap();
        assert!(!users.is_current(&db));
        let probes = db.stats().snapshot().index_probes;
        let mut tx = db.txn().begin();
        let by_dept = Predicate::eq(2, 1i64);
        assert_eq!(
            catalog_touches_of(|| assert_eq!(tx.scan(&users, &by_dept).unwrap().len(), 2)),
            1
        );
        assert_eq!(db.stats().snapshot().index_probes, probes + 1);
        let fresh = db.table("users").unwrap();
        assert_eq!(
            catalog_touches_of(|| assert_eq!(tx.scan(&fresh, &by_dept).unwrap().len(), 2)),
            0
        );
        // a handle is current in the database that resolved it only
        let other = users_db();
        assert!(!fresh.is_current(&other));
        let mut tx = other.txn().begin();
        assert_eq!(
            catalog_touches_of(|| assert!(tx.scan(&fresh, &by_id).unwrap().is_empty())),
            1
        );
    }

    /// A transaction begun on a lent handle hands it back, closed, from a
    /// commit, a rollback, a failed statement (a unique violation), and a
    /// failed commit (a serialization failure); one dropped open takes
    /// the handle with it and is rolled back. No begin clones the handle.
    #[test]
    fn a_lent_handle_comes_back_from_every_way_a_transaction_ends() {
        let db = users_db();
        let count = || Arc::strong_count(&db.inner);
        let user = |email: &str| [("email", Datum::text(email)), ("dept", Datum::Int(1))];
        let mut lent = db.clone();
        let base = count();
        // commit
        let mut tx = lent.into_txn().begin();
        assert_eq!(count(), base, "a lent handle is not cloned");
        tx.insert_pairs("users", &user("a")).unwrap();
        tx.commit().unwrap();
        lent = tx.into_database();
        // rollback
        let mut tx = lent.into_txn().begin();
        tx.insert_pairs("users", &user("b")).unwrap();
        tx.rollback();
        lent = tx.into_database();
        // a failed statement, still open: handing back rolls it back
        let mut tx = lent.into_txn().begin();
        assert!(matches!(
            tx.insert_pairs("users", &user("a")),
            Err(DbError::UniqueViolation { .. })
        ));
        assert!(tx.is_open());
        lent = tx.into_database();
        // a failed commit
        let mut reader = lent
            .into_txn()
            .isolation(IsolationLevel::Serializable)
            .begin();
        assert_eq!(
            reader.scan("users", &Predicate::eq(1, "c")).unwrap().len(),
            0
        );
        db.txn()
            .run(|tx| tx.insert_pairs("users", &user("c")))
            .unwrap();
        reader.insert_pairs("users", &user("d")).unwrap();
        assert!(matches!(
            reader.commit(),
            Err(DbError::SerializationFailure { .. })
        ));
        assert!(!reader.is_open());
        lent = reader.into_database();
        assert_eq!(count(), base);
        // `run` lends what it is given and drops it when it returns
        let fails = lent
            .clone()
            .into_txn()
            .run(|tx| tx.insert_pairs("users", &user("a")));
        assert!(matches!(fails, Err(DbError::UniqueViolation { .. })));
        assert_eq!(count(), base);
        // dropped open: rolled back, its locks released, the handle gone
        let mut tx = lent.into_txn().begin();
        tx.insert_pairs("users", &user("e")).unwrap();
        drop(tx);
        assert_eq!(count(), base - 1);
        assert_eq!(db.inner.locks.cells(), 0);
        assert_eq!(db.count_rows("users").unwrap(), 2);
    }

    /// Transaction ids come from per-thread blocks, and stay unique
    /// across threads.
    #[test]
    fn transaction_ids_are_unique_across_threads() {
        let db = users_db();
        let ids: Vec<TxnId> = std::thread::scope(|s| {
            let begins: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..300).map(|_| db.txn().begin().id()).collect::<Vec<_>>()))
                .collect();
            begins.into_iter().flat_map(|b| b.join().unwrap()).collect()
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 600);
    }

    /// A thread's block of ids belongs to the database it was drawn from,
    /// by number: a database opened after another was dropped — at the
    /// same address, more often than not — does not inherit its block, so
    /// this thread's ids and another thread's do not collide. (Keyed by
    /// the address, the block carries over and the two threads' ids meet.)
    #[test]
    fn transaction_ids_are_unique_across_databases_opened_in_turn() {
        for _ in 0..20 {
            let db = Database::in_memory();
            let here: HashSet<TxnId> = (0..10).map(|_| db.txn().begin().id()).collect();
            let there: HashSet<TxnId> = std::thread::scope(|s| {
                s.spawn(|| (0..10).map(|_| db.txn().begin().id()).collect())
                    .join()
                    .unwrap()
            });
            assert!(here.is_disjoint(&there), "{here:?} and {there:?}");
        }
    }

    /// The linear walk over the write buffer that `unique_key_taken`'s
    /// keyed lookup replaced, kept as the oracle.
    fn unique_key_taken_by_walk(
        tx: &Transaction,
        entry: &TableEntry,
        idx: &IndexData,
        key: &IndexKey,
        exclude: RowRef,
    ) -> bool {
        let tid = idx.def.table;
        for (slot, p) in tx.buf.writes.iter().enumerate() {
            if p.table != tid || p.dead {
                continue;
            }
            let (rref, image) = match &p.op {
                PendingOp::Insert { tuple } => (RowRef::Own(slot as u64), tuple),
                PendingOp::Update { row, new, .. } => (RowRef::Committed(*row), new),
                PendingOp::Delete { .. } => continue,
            };
            if rref != exclude && !idx.key_has_null(image) && idx.key_of(image) == *key {
                return true;
            }
        }
        let clock = tx.committed_ts();
        idx.any_row(key, |row| {
            if exclude == RowRef::Committed(row) || tx.buf.by_row.contains_key(&(tid, row)) {
                return false;
            }
            entry
                .heap
                .latest(row, clock)
                .is_some_and(|(latest, live, _)| {
                    live && !idx.key_has_null(&latest) && idx.key_of(&latest) == *key
                })
        })
    }

    /// The own-insert overlay as the walk over every buffered write.
    fn own_inserts_by_walk(tx: &Transaction, tid: TableId) -> Vec<RowRef> {
        let live =
            tx.buf.writes.iter().enumerate().filter(|(_, p)| {
                p.table == tid && !p.dead && matches!(p.op, PendingOp::Insert { .. })
            });
        live.map(|(slot, _)| RowRef::Own(slot as u64)).collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8),
        /// Re-key the `n`-th row a scan returns.
        Rekey(u8, u8),
        Delete(u8),
        Savepoint,
        RollbackTo,
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let key = 0u8..6;
        prop_oneof![
            key.clone().prop_map(Op::Insert),
            key.clone().prop_map(Op::Insert),
            (any::<u8>(), key).prop_map(|(n, k)| Op::Rekey(n, k)),
            any::<u8>().prop_map(Op::Delete),
            Just(Op::Savepoint),
            Just(Op::RollbackTo),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        /// Inserts, key-changing updates, deletes and partial rollbacks in
        /// one transaction over a few committed rows: after every step the
        /// keyed pending-write set answers every unique-key question, and
        /// lists every own insert, exactly as the linear walk does — and
        /// what commits is unique.
        #[test]
        fn the_keyed_pending_set_agrees_with_the_linear_walk(
            ops in proptest::collection::vec(arb_op(), 0..40)
        ) {
            use proptest::prelude::*;
            let db = users_db();
            let email = |k: u8| Datum::text(format!("k{k}"));
            db.txn().run(|tx| {
                for k in 0..3 {
                    tx.insert_pairs("users", &[("email", email(k)), ("dept", Datum::Int(0))])?;
                }
                Ok(())
            }).unwrap();
            let (tid, entry) = (TableId(0), db.inner.catalog.read().table(TableId(0)));
            let idx = entry.indexes[1].clone();
            let mut tx = db.txn().begin();
            let mut savepoints = Vec::new();
            for op in ops {
                let rows = tx.scan("users", &Predicate::True).unwrap();
                let pick = |n: u8| (!rows.is_empty()).then(|| rows[n as usize % rows.len()].clone());
                match op {
                    Op::Insert(k) => {
                        let _ = tx.insert_pairs("users", &[("email", email(k)), ("dept", Datum::Int(1))]);
                    }
                    Op::Rekey(n, k) => if let Some((rref, image)) = pick(n) {
                        let mut next = image.to_vec();
                        next[1] = email(k);
                        let _ = tx.update("users", rref, next);
                    },
                    Op::Delete(n) => if let Some((rref, _)) = pick(n) {
                        tx.delete("users", rref).unwrap();
                    },
                    Op::Savepoint => savepoints.push(tx.savepoint()),
                    Op::RollbackTo => if let Some(sp) = savepoints.pop() {
                        tx.rollback_to(sp).unwrap();
                    },
                }
                let rows = tx.scan("users", &Predicate::True).unwrap();
                let excludes = rows.iter().map(|(r, _)| *r).chain([RowRef::Own(u64::MAX)]);
                for exclude in excludes {
                    for k in 0..6 {
                        let key: UniqueKey = (idx.id, idx.key_of(&[Datum::Null, email(k)]));
                        prop_assert_eq!(
                            tx.unique_key_taken(&entry, &idx, &key, exclude),
                            unique_key_taken_by_walk(&tx, &entry, &idx, &key.1, exclude),
                            "key k{} excluding {:?}", k, exclude
                        );
                    }
                }
                let mut own = Vec::new();
                tx.overlay_own_inserts(tid, |_| true, &mut own);
                let own: Vec<RowRef> = own.into_iter().map(|(r, _)| r).collect();
                prop_assert_eq!(own, own_inserts_by_walk(&tx, tid));
                // what a scan shows is unique in the unique column
                let mut emails: Vec<_> = rows.iter().map(|(_, t)| t[1].clone()).collect();
                emails.sort();
                prop_assert!(emails.windows(2).all(|w| w[0] != w[1]), "{:?}", emails);
            }
            let shown = tx.scan("users", &Predicate::True).unwrap().len();
            tx.commit().unwrap();
            prop_assert_eq!(db.count_rows("users").unwrap(), shown);
        }
    }
}
