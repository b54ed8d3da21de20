//! Transactions: buffered writes, snapshot reads, isolation enforcement,
//! in-database constraint checking, and the commit pipeline.

use crate::commit::ShardGuards;
use crate::db::{Database, IsolationLevel, TableEntry};
use crate::error::{DbError, DbResult};
use crate::heap::RowId;
use crate::index::IndexData;
use crate::lock::{LockKey, LockMode, TxnId};
use crate::predicate::Predicate;
use crate::schema::{ForeignKey, IndexId, OnDelete, TableId};
use crate::stats::Stats;
use crate::tail::CommitTail;
use crate::value::{Datum, Tuple};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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
    Insert {
        tuple: Arc<Tuple>,
    },
    Update {
        row: RowId,
        base: Arc<Tuple>,
        new: Arc<Tuple>,
    },
    Delete {
        row: RowId,
        base: Arc<Tuple>,
    },
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
type UniqueKey = (IndexId, Arc<[u8]>);

/// A transaction's buffered writes, and the keys that find one without
/// walking the rest: what a statement costs does not depend on how many
/// writes the transaction already holds.
#[derive(Clone, Default)]
struct WriteBuffer {
    /// One slot per write, in statement order. [`RowRef::Own`] names an
    /// insert by its slot.
    writes: Vec<Pending>,
    /// Committed row → slot of its pending update or delete.
    by_row: HashMap<(TableId, RowId), usize>,
    /// Table → slots of this transaction's inserts into it, in statement
    /// order: the overlay a read of the table adds.
    own_inserts: HashMap<TableId, Vec<usize>>,
    /// Unique key → the slot whose image took it, recorded when the key's
    /// check passes and never cleaned: at most one live image holds a key
    /// and the last to pass the check is the one recorded, so a stale
    /// entry is told apart by re-reading its slot (`recorded_holder`).
    unique_keys: HashMap<UniqueKey, usize>,
}

impl WriteBuffer {
    /// The pending update or delete of committed `row`, if any.
    fn write_of(&self, tid: TableId, row: RowId) -> Option<&PendingOp> {
        self.by_row.get(&(tid, row)).map(|&i| &self.writes[i].op)
    }

    /// The image of own insert `slot`, unless it was deleted again.
    fn own_insert(&self, slot: usize) -> Option<&Arc<Tuple>> {
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
    fn recorded_holder(&self, key: &UniqueKey, tid: TableId) -> Option<(RowRef, &Arc<Tuple>)> {
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

/// A predicate read registered for serializable validation.
#[derive(Debug, Clone)]
pub(crate) enum PredRead {
    /// The transaction scanned the whole table.
    WholeTable(TableId),
    /// The transaction read rows matching an equality conjunction.
    Eq {
        /// Scanned table.
        table: TableId,
        /// `(column, value)` equality pairs.
        pairs: Vec<(usize, Datum)>,
    },
}

/// One committed write: `(table, row, old image, new image)`.
pub(crate) type CommittedWrite = (TableId, RowId, Option<Arc<Tuple>>, Option<Arc<Tuple>>);

/// Write summary of a committed transaction, retained for backward
/// validation of serializable transactions.
pub(crate) struct CommittedTxn {
    pub(crate) commit_ts: u64,
    pub(crate) writes: Vec<CommittedWrite>,
}

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

/// An open transaction. Obtained from [`Database::begin`]. Dropping an
/// uncommitted transaction rolls it back.
pub struct Transaction {
    db: Database,
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
    read_rows: HashSet<(TableId, RowId)>,
    read_preds: Vec<PredRead>,
    /// Trace label / plan template key, threaded into the audit
    /// footprint so anomaly verdicts can name the offending template.
    label: Option<&'static str>,
    /// Read footprint captured for the runtime auditor — independent
    /// of `read_rows`/`read_preds` (those are Serializable-only
    /// validation state; the auditor watches *every* level).
    audit_reads: Vec<feral_audit::ReadRecord>,
    /// Whether the auditor samples this transaction's read set.
    audit_capture: bool,
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
        let audit_capture = db.inner.auditor.as_ref().is_some_and(|a| a.samples(id));
        let catalog_epoch = db.inner.catalog_epoch.load(Ordering::SeqCst);
        Transaction {
            db,
            id,
            active_stripe,
            isolation,
            snapshot,
            catalog_epoch,
            open: true,
            buf: WriteBuffer::default(),
            locks: Vec::new(),
            read_rows: HashSet::new(),
            read_preds: Vec::new(),
            label,
            audit_reads: Vec::new(),
            audit_capture,
        }
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
            self.db.inner.clock.load(Ordering::SeqCst)
        }
    }

    /// The published clock, which bounds every "committed-latest" read.
    /// A version above it is installed but unacknowledged — in flight, or
    /// stranded by a failed flush — and must never be observed. Read it
    /// *after* taking the row or key lock: the previous holder released
    /// only after `publish`, so its version is at or below this value.
    fn committed_ts(&self) -> u64 {
        self.db.inner.clock.load(Ordering::SeqCst)
    }

    fn entry(&self, table: TableId) -> Arc<TableEntry> {
        catalog_touched();
        self.db.inner.catalog.read().table(table)
    }

    fn resolve(&self, table: &str) -> DbResult<(TableId, Arc<TableEntry>)> {
        catalog_touched();
        let cat = self.db.inner.catalog.read();
        let (id, entry) = cat.resolve(table)?;
        Ok((id, entry.clone()))
    }

    /// The schema of `table` (catalog lookup; usable mid-transaction by
    /// query layers).
    pub fn schema(&self, table: &str) -> DbResult<crate::schema::TableSchema> {
        let (_, entry) = self.resolve(table)?;
        Ok(entry.schema.clone())
    }

    /// Report a semantically-tagged table touch to a schedule hook —
    /// the per-step footprint partial-order-reduction explorers compute
    /// happens-before from. Gated on `feral_hooks::active()` so the
    /// name hashing costs nothing in ordinary execution.
    fn note_table_access(&self, name: &str, mode: feral_hooks::AccessMode) {
        if feral_hooks::active() {
            feral_hooks::note_access(feral_hooks::Access {
                space: "table",
                what: feral_hooks::fnv64(name.as_bytes()),
                mode,
            });
        }
    }

    /// Whether the runtime auditor wants this statement's read
    /// recorded (auditor on, and this transaction not sampled out).
    fn audits_reads(&self) -> bool {
        self.audit_capture
    }

    /// Column-value hashes of an equality fingerprint.
    fn audit_pred_pairs(fingerprint: &[(usize, Datum)]) -> Vec<u64> {
        let mut buf = Vec::new();
        fingerprint
            .iter()
            .map(|(col, v)| {
                buf.clear();
                v.encode_key(&mut buf);
                feral_audit::column_value_hash(*col, &buf)
            })
            .collect()
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
        match self.db.inner.locks.acquire(self.id, &key, mode) {
            Ok(()) => {
                self.locks.push(key);
                Ok(())
            }
            Err(e) => {
                if matches!(e, DbError::LockTimeout { .. }) {
                    Stats::bump(&self.db.inner.stats.local().lock_timeouts);
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
        tuple: Arc<Tuple>,
        matches: impl Fn(&Tuple) -> bool,
        out: &mut Vec<(RowRef, Arc<Tuple>)>,
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
        matches: impl Fn(&Tuple) -> bool,
        out: &mut Vec<(RowRef, Arc<Tuple>)>,
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
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> DbResult<Vec<(RowRef, Arc<Tuple>)>> {
        feral_hooks::yield_point(feral_hooks::Site::TxnScan);
        feral_trace::record(
            feral_trace::EventKind::Site(feral_hooks::Site::TxnScan),
            self.id,
            feral_trace::fnv64(table.as_bytes()),
            0,
        );
        self.ensure_open()?;
        let mut out: Vec<(RowRef, Arc<Tuple>)> = Vec::new();
        // One catalog touch resolves name → table → covering index. An
        // equality probe runs right here, on handles borrowed under the
        // catalog guard: the key is encoded from the predicate, and each
        // posting is resolved in the heap as the index hands it out — no
        // handle is cloned and nothing but `out` is built. Only the range
        // and full-table paths take handles out and let the catalog go
        // (they can run long, and a queued DDL writer would stall readers).
        let (tid, read_ts, unprobed) = {
            catalog_touched();
            let cat = self.db.inner.catalog.read();
            let (tid, entry) = cat.resolve(table)?;
            self.note_table_access(table, self.read_mode());
            Stats::bump(&self.db.inner.stats.local().scans);
            let read_ts = self.read_ts();
            let covering = entry
                .indexes
                .iter()
                .find_map(|idx| equality_key(idx, pred).map(|key| (idx, key)));
            match covering {
                Some((idx, key)) => {
                    idx.any_row(&key, |row| {
                        if let Some(t) = entry.heap.visible(row, read_ts) {
                            if pred.matches(&t) {
                                self.overlay_committed(tid, row, t, |t| pred.matches(t), &mut out);
                            }
                        }
                        false
                    });
                    Stats::bump(&self.db.inner.stats.local().index_probes);
                    (tid, read_ts, None)
                }
                None => (
                    tid,
                    read_ts,
                    Some((entry.clone(), range_bounds(entry, pred))),
                ),
            }
        };
        let used_index = unprobed.is_none();
        if let Some((entry, range)) = unprobed {
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
                    Stats::bump(&self.db.inner.stats.local().index_probes);
                    rows
                }
                None => entry.heap.scan_visible(read_ts, |t| pred.matches(t)),
            };
            for (row, tuple) in committed {
                self.overlay_committed(tid, row, tuple, |t| pred.matches(t), &mut out);
            }
        }
        self.overlay_own_inserts(tid, |t| pred.matches(t), &mut out);

        // the owned fingerprint is only for those who keep it
        let fingerprint = if self.audits_reads() || self.isolation == IsolationLevel::Serializable {
            pred.equality_fingerprint()
        } else {
            Vec::new()
        };

        // capture the read footprint for the runtime auditor — every
        // isolation level, unlike the Serializable-only validation
        // registration below (a predicate read with no equality pairs
        // is a whole-table read)
        if self.audits_reads() {
            let table_hash = feral_trace::fnv64(table.as_bytes());
            for (r, _) in &out {
                if let RowRef::Committed(row) = r {
                    self.audit_reads.push(feral_audit::ReadRecord {
                        table: table_hash,
                        target: feral_audit::ReadTarget::Row(*row as u64),
                        read_ts,
                    });
                }
            }
            self.audit_reads.push(feral_audit::ReadRecord {
                table: table_hash,
                target: feral_audit::ReadTarget::Pred(Self::audit_pred_pairs(&fingerprint)),
                read_ts,
            });
        }

        // register reads for serializable validation
        if self.isolation == IsolationLevel::Serializable {
            for (r, _) in &out {
                if let RowRef::Committed(row) = r {
                    self.read_rows.insert((tid, *row));
                }
            }
            let tracked = used_index || !self.db.inner.config.pg_ssi_bug;
            if tracked {
                if fingerprint.is_empty() {
                    self.read_preds.push(PredRead::WholeTable(tid));
                } else {
                    self.read_preds.push(PredRead::Eq {
                        table: tid,
                        pairs: fingerprint,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Fetch a row by primary key.
    pub fn get_by_id(&mut self, table: &str, id: i64) -> DbResult<Option<(RowRef, Arc<Tuple>)>> {
        let rows = self.scan(table, &Predicate::eq(0, id))?;
        Ok(rows.into_iter().next())
    }

    /// Count rows matching `pred`.
    pub fn count(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
        Ok(self.scan(table, pred)?.len())
    }

    /// `SELECT ... FOR UPDATE`: scan at a *fresh* statement snapshot,
    /// X-lock each matching committed row, and return the latest committed
    /// images (re-read after the lock, as PostgreSQL does under Read
    /// Committed).
    pub fn select_for_update(
        &mut self,
        table: &str,
        pred: &Predicate,
    ) -> DbResult<Vec<(RowRef, Arc<Tuple>)>> {
        feral_hooks::yield_point(feral_hooks::Site::TxnSelectForUpdate);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
        // always a committed-latest read (the post-lock re-read), even
        // under snapshot isolation
        self.note_table_access(table, feral_hooks::AccessMode::Read);
        Stats::bump(&self.db.inner.stats.local().scans);
        let read_ts = self.db.inner.clock.load(Ordering::SeqCst);
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
                Stats::bump(&self.db.inner.stats.local().write_conflicts);
                return Err(DbError::WriteConflict);
            }
            if self.isolation == IsolationLevel::Serializable {
                self.read_rows.insert((tid, row));
            }
            if self.audits_reads() {
                // the post-lock re-read is a committed-latest read
                self.audit_reads.push(feral_audit::ReadRecord {
                    table: feral_trace::fnv64(table.as_bytes()),
                    target: feral_audit::ReadTarget::Row(row as u64),
                    read_ts,
                });
            }
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
        self.note_table_access(&entry.schema.name, feral_hooks::AccessMode::Read);
        let tid = idx.def.table;
        let holds = |image: &Tuple| !idx.key_has_null(image) && *idx.key_of(image) == *key.1;
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
        tuple: &Tuple,
        prev: Option<&Tuple>,
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
            let key: UniqueKey = (idx.id, idx.key_of(tuple).into());
            self.lock(LockKey::Key(key.0, key.1.clone()), LockMode::Exclusive)?;
            if self.unique_key_taken(entry, idx, &key, target) {
                Stats::bump(&self.db.inner.stats.local().unique_violations);
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
        self.note_table_access(&parent.schema.name, feral_hooks::AccessMode::Read);
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
    fn check_foreign_keys_child(&mut self, entry: &TableEntry, tuple: &Tuple) -> DbResult<()> {
        for fk in &entry.fks_as_child {
            let parent_id = &tuple[fk.child_cols[0]];
            if parent_id.is_null() {
                continue; // MATCH SIMPLE: NULL references nothing
            }
            let parent = self.entry(fk.parent_table);
            let mut key = Vec::new();
            parent_id.encode_key(&mut key);
            let key: UniqueKey = (parent.indexes[0].id, key.into());
            self.lock(LockKey::Key(key.0, key.1.clone()), LockMode::Shared)?;
            if !self.parent_exists(fk, &parent, parent_id, &key) {
                Stats::bump(&self.db.inner.stats.local().fk_violations);
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
    ) -> Vec<(RowRef, Arc<Tuple>)> {
        self.note_table_access(&child.schema.name, feral_hooks::AccessMode::Read);
        let col = fk.child_cols[0];
        let refers = |t: &Tuple| t[col].sql_eq(parent_id) == Some(true);
        let clock = self.committed_ts();
        let mut out = Vec::new();
        match child.indexes.iter().find(|idx| idx.def.cols == [col]) {
            Some(idx) => {
                let mut key = Vec::new();
                parent_id.encode_key(&mut key);
                // postings outlive the versions that made them: re-verify
                idx.any_row(&key, |row| {
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
        tuple: &Tuple,
    ) -> DbResult<()> {
        for fk in &entry.fks_as_parent {
            let parent_id = &tuple[0];
            let mut key = Vec::new();
            parent_id.encode_key(&mut key);
            self.lock(
                LockKey::Key(entry.indexes[0].id, key.into()),
                LockMode::Exclusive,
            )?;
            let child = self.entry(fk.child_table);
            let children = self.children_of(fk, &child, parent_id);
            match fk.on_delete {
                OnDelete::Restrict => {
                    if !children.is_empty() {
                        Stats::bump(&self.db.inner.stats.local().fk_violations);
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
                        let mut new = (*child_tuple).clone();
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
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> DbResult<RowRef> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
        self.insert_into(tid, entry, tuple)
    }

    /// Insert from `(column, value)` pairs, with defaults applied.
    pub fn insert_pairs(&mut self, table: &str, pairs: &[(&str, Datum)]) -> DbResult<RowRef> {
        let (tid, entry) = self.resolve(table)?;
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
            tuple[0] = Datum::Int(entry.id_seq.fetch_add(1, Ordering::SeqCst));
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
                tuple: Arc::new(tuple),
            },
            dead: false,
        });
        self.buf.own_inserts.entry(tid).or_default().push(slot);
        Stats::bump(&self.db.inner.stats.local().inserts);
        Ok(target)
    }

    /// Read a row owned by this transaction or committed, by reference.
    pub fn read_ref(&self, table: TableId, rref: RowRef) -> Option<Arc<Tuple>> {
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
    pub fn update(&mut self, table: &str, rref: RowRef, new_tuple: Tuple) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
        self.update_ref(tid, &entry, rref, new_tuple)
    }

    /// Lock committed `row` for writing and re-read it: the latest
    /// committed image, or the conflict a first-updater-wins level owes a
    /// writer that lost the race.
    fn lock_for_write(
        &mut self,
        tid: TableId,
        entry: &TableEntry,
        row: RowId,
    ) -> DbResult<Arc<Tuple>> {
        self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
        // post-lock committed-latest re-read (first-updater check)
        self.note_table_access(&entry.schema.name, feral_hooks::AccessMode::Read);
        let (latest, live, begin) = entry
            .heap
            .latest(row, self.committed_ts())
            .ok_or(DbError::NoSuchRow)?;
        let lost_race = !live || (begin > self.snapshot && self.buf.write_of(tid, row).is_none());
        if lost_race && self.isolation.first_updater_wins() {
            Stats::bump(&self.db.inner.stats.local().write_conflicts);
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
                    tuple: Arc::new(new_tuple),
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
                        new: Arc::new(new_tuple),
                    },
                    dead: false,
                };
                self.buf.put_row_write(pending, row);
            }
        }
        Stats::bump(&self.db.inner.stats.local().updates);
        Ok(())
    }

    /// Atomically transform the row at `rref` under its row lock: `f`
    /// receives the *current* image (latest committed, or this
    /// transaction's own pending image) — the engine-level analogue of
    /// SQL's `UPDATE t SET c = c + 1`, immune to lost updates.
    pub fn update_with(
        &mut self,
        table: &str,
        rref: RowRef,
        f: impl FnOnce(&Tuple) -> Tuple,
    ) -> DbResult<()> {
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
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
    pub fn delete(&mut self, table: &str, rref: RowRef) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
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
        Stats::bump(&self.db.inner.stats.local().deletes);
        Ok(())
    }

    /// Delete all rows matching `pred`; returns the number deleted.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> DbResult<usize> {
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

    /// Serializable backward validation: abort if any transaction that
    /// committed after our snapshot wrote something we read.
    ///
    /// Runs against the committed-history slices of the *held* shard
    /// latches. The shard set includes every table this transaction
    /// read, so every conflicting summary is in one of these slices
    /// (a spanning committer pushes its summary to each shard it
    /// wrote). Summaries may appear in several slices; re-checking a
    /// duplicate is harmless. Per-slice order is timestamp order, so
    /// the walk stops at the first summary at or below our snapshot.
    ///
    /// After a failed flush the failed batch's summaries stay in the
    /// histories above every later snapshot; a conflict is then reported
    /// as the poisoned log it is, not as a retryable failure.
    fn validate_serializable(&self, held: &ShardGuards<'_>) -> DbResult<()> {
        let Err(detail) = self.find_rw_conflict(held) else {
            return Ok(());
        };
        self.db.inner.pipeline.check_unbroken()?;
        Stats::bump(&self.db.inner.stats.local().serialization_failures);
        Err(DbError::SerializationFailure { detail })
    }

    fn find_rw_conflict(&self, held: &ShardGuards<'_>) -> Result<(), String> {
        let committed_since = held
            .histories()
            .flat_map(|h| h.iter().rev().take_while(|c| c.commit_ts > self.snapshot));
        for c in committed_since {
            for (t, r, ..) in &c.writes {
                if self.read_rows.contains(&(*t, *r)) {
                    return Err(format!("row {}.{} was concurrently written", t.0, r));
                }
            }
            for pred in &self.read_preds {
                match pred {
                    PredRead::WholeTable(t) => {
                        if c.writes.iter().any(|(it, ..)| it == t) {
                            return Err(format!(
                                "table {} was concurrently written under a full-scan read",
                                t.0
                            ));
                        }
                    }
                    PredRead::Eq { table, pairs } => {
                        let hit = |img: &Option<Arc<Tuple>>| {
                            img.as_ref().is_some_and(|t| {
                                pairs.iter().all(|(c, v)| {
                                    t.get(*c).is_some_and(|d| d.sql_eq(v) == Some(true))
                                })
                            })
                        };
                        if c.writes
                            .iter()
                            .any(|(it, _, old, new)| it == table && (hit(old) || hit(new)))
                        {
                            return Err(format!(
                                "predicate read on table {} was concurrently invalidated",
                                table.0
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Savepoints
    // ------------------------------------------------------------------

    /// Establish a savepoint that [`Transaction::rollback_to`] can rewind
    /// the buffered write state to. Locks acquired after the savepoint are
    /// *retained* on partial rollback, and reads stay in the serializable
    /// read set — conservative simplifications relative to engines that
    /// release them (they can only reduce concurrency, never admit an
    /// anomaly).
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
            let read_ts = self.db.inner.clock.load(Ordering::SeqCst);
            self.tail(read_ts, 0, None).complete(&self.db, true);
            return Ok(());
        }
        let db = &self.db;
        let pipeline = &db.inner.pipeline;
        // Shard set, one bit per shard: every table written, plus — under
        // Serializable — every table read, so validation runs against
        // exactly the histories its latches protect.
        let shard_bit = |table: TableId| 1u64 << pipeline.shard_of(table);
        let written = self.effects().fold(0, |mask, p| mask | shard_bit(p.table));
        let mut latched = written;
        if self.isolation == IsolationLevel::Serializable {
            latched = self
                .read_tables()
                .fold(latched, |mask, t| mask | shard_bit(t));
        }
        // Canonical (ascending) acquisition order — no latch deadlock.
        let mut held = pipeline.lock_shards(latched, &db.inner.stats);
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
            if self.isolation == IsolationLevel::Serializable {
                for tid in self.read_tables().collect::<BTreeSet<_>>() {
                    let name = self.entry(tid).schema.name.clone();
                    self.note_table_access(&name, feral_hooks::AccessMode::Read);
                }
            }
            let written: BTreeSet<TableId> = self.effects().map(|p| p.table).collect();
            for tid in written {
                let name = self.entry(tid).schema.name.clone();
                self.note_table_access(&name, feral_hooks::AccessMode::Write);
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
            for p in &self.buf.writes {
                if p.dead {
                    continue;
                }
                let table = p.entry.schema.name.clone();
                match &p.op {
                    PendingOp::Insert { tuple } => {
                        let next = next_row
                            .entry(p.table)
                            .or_insert_with(|| p.entry.heap.chain_count() as u64);
                        wal_writes.push(crate::wal::WalWrite::Insert {
                            table,
                            row: *next,
                            tuple: (**tuple).clone(),
                        });
                        *next += 1;
                    }
                    PendingOp::Update { row, new, .. } => {
                        wal_writes.push(crate::wal::WalWrite::Update {
                            table,
                            row: *row as u64,
                            tuple: (**new).clone(),
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
        // Installed at `commit_ts > clock`: invisible until `publish`. (This
        // loop and the one above walk the slots by field, not through
        // `effects()`: feral-racer types a loop variable from a field, and
        // these are the latch sections it is there to watch.)
        let mut writes = Vec::with_capacity(self.buf.writes.len());
        for p in &self.buf.writes {
            if p.dead {
                continue;
            }
            let entry = &p.entry;
            match &p.op {
                PendingOp::Insert { tuple } => {
                    let row = entry.heap.install_insert(commit_ts, tuple.clone());
                    for idx in &entry.indexes {
                        idx.insert_entry(idx.key_of(tuple), row);
                    }
                    writes.push((p.table, row, None, Some(tuple.clone())));
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
                    writes.push((p.table, *row, Some(base.clone()), Some(new.clone())));
                }
                PendingOp::Delete { row, base } => {
                    // postings survive the delete for the same reason: the
                    // row is dead committed-latest, but snapshots begun
                    // before this commit still index into its version chain
                    entry.heap.install_delete(*row, commit_ts);
                    writes.push((p.table, *row, Some(base.clone()), None));
                }
            }
        }
        // Every shard this transaction wrote gets the summary (and the
        // one that outgrew its retention is pruned, under this latch).
        let summary = Arc::new(CommittedTxn { commit_ts, writes });
        pipeline.push_history(
            &mut held,
            written,
            &summary,
            &db.inner.clock,
            db.inner.config.committed_history_floor,
        );
        // Everything the latches order is fixed: what is left — durable
        // wait, publish, audit, lock release — is the commit tail,
        // settled here with no latch held (one flush covers every
        // committer in flight, same table or not) or handed to the
        // `defer_durable` scope this thread is in. If the flush fails,
        // the versions stay installed above a clock that never reaches
        // them.
        drop(held);
        let tail = self.tail(commit_ts, wal_seq, Some(summary));
        match crate::tail::defer(&self.db, tail) {
            None => Ok(()),
            Some(tail) => tail.settle(&self.db),
        }
    }

    /// Every table a serializable transaction registered a read of
    /// (repeats included).
    fn read_tables(&self) -> impl Iterator<Item = TableId> + '_ {
        let by_row = self.read_rows.iter().map(|(t, _)| *t);
        let by_pred = self.read_preds.iter().map(|p| match p {
            PredRead::WholeTable(t) => *t,
            PredRead::Eq { table, .. } => *table,
        });
        by_row.chain(by_pred)
    }

    /// Close the transaction and move what its commit still owes into a
    /// [`CommitTail`]; `Vec`s are moved, nothing is allocated.
    fn tail(
        &mut self,
        commit_ts: u64,
        wal_seq: u64,
        summary: Option<Arc<CommittedTxn>>,
    ) -> CommitTail {
        self.open = false;
        CommitTail {
            txn: self.id,
            active_stripe: self.active_stripe,
            commit_ts,
            wal_seq,
            locks: std::mem::take(&mut self.locks),
            summary,
            isolation: self.isolation,
            snapshot: self.snapshot,
            label: self.label,
            audit_reads: std::mem::take(&mut self.audit_reads),
            audit_capture: self.audit_capture,
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
        crate::tail::finish_txn(&self.db, self.id, self.active_stripe, &self.locks, false);
        self.locks.clear();
    }

    /// Record one application-level validation probe (the feral
    /// `SELECT … LIMIT 1`). Called by ORM uniqueness/presence checks so
    /// the paper's key operation shows up in [`Stats`] and the trace.
    pub fn note_validation_probe(&self, key_hash: u64, table_hash: u64) {
        Stats::bump(&self.db.inner.stats.local().validation_probes);
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

/// The probe key of `idx` when top-level equality conjuncts of `pred` pin
/// every indexed column, encoded straight from the predicate's values.
fn equality_key(idx: &IndexData, pred: &Predicate) -> Option<Vec<u8>> {
    let mut key = Vec::with_capacity(16);
    for &col in &idx.def.cols {
        pred.equality_on(col)?.encode_key(&mut key);
    }
    Some(key)
}

type RangeBounds = (Arc<IndexData>, Bound<Vec<u8>>, Bound<Vec<u8>>);

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
            let mut enc = Vec::new();
            value.encode_key(&mut enc);
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

fn render_key(tuple: &Tuple, cols: &[usize]) -> String {
    let vals: Vec<String> = cols.iter().map(|&c| tuple[c].to_string()).collect();
    format!("({})", vals.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Config;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;
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
        let entry = db.inner.catalog.read().table(db.table_id("users").unwrap());
        let ids: Vec<_> = entry.indexes.iter().map(|idx| idx.id).collect();
        assert_eq!(
            ids,
            [db.inner.catalog.read().index_names["users_pkey"], by_name]
        );

        let email = [("email", Datum::text("a@example.com"))];
        let mut key = Vec::new();
        email[0].1.encode_key(&mut key);
        let mut first = db.txn().begin();
        first.insert_pairs("users", &email).unwrap();
        assert!(first.locks.contains(&LockKey::Key(by_name, key.into())));
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
        let mut renamed = (*image).clone();
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

    /// A commit computes the pruning horizon — every active-stripe lock —
    /// only when it pushes a history slice past twice the retention
    /// floor, not on every commit.
    #[test]
    fn a_commit_takes_no_stripe_lock_for_pruning_until_a_slice_doubles() {
        let floor = 8;
        let db = Database::new(Config {
            committed_history_floor: floor,
            ..Config::default()
        });
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("v", DataType::Int)],
        ))
        .unwrap();
        let scans = || db.inner.pipeline.horizon_scans.load(Ordering::Relaxed);
        let commit_one = |v: i64| {
            db.txn()
                .isolation(IsolationLevel::Serializable)
                .run(|tx| tx.insert_pairs("t", &[("v", Datum::Int(v))]).map(|_| ()))
                .unwrap()
        };
        for v in 0..2 * floor as i64 {
            commit_one(v);
        }
        assert_eq!(scans(), 0, "every slice is still within twice the floor");
        commit_one(-1);
        assert_eq!(scans(), 1, "the commit that outgrew the slice pruned it");
        for v in 0..floor as i64 {
            commit_one(v);
        }
        assert_eq!(scans(), 1, "and the next {floor} commits look at no stripe");
    }

    /// The linear walk over the write buffer that `unique_key_taken`'s
    /// keyed lookup replaced, kept as the oracle.
    fn unique_key_taken_by_walk(
        tx: &Transaction,
        entry: &TableEntry,
        idx: &IndexData,
        key: &[u8],
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
            if rref != exclude && !idx.key_has_null(image) && idx.key_of(image) == key {
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
                    live && !idx.key_has_null(&latest) && idx.key_of(&latest) == key
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
                        let mut next = (*image).clone();
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
                        let key: UniqueKey = (idx.id, idx.key_of(&vec![Datum::Null, email(k)]).into());
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
