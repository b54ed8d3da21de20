//! Transactions: buffered writes, snapshot reads, isolation enforcement,
//! in-database constraint checking, and the commit pipeline.

use crate::commit::ShardCore;
use crate::db::{Database, IsolationLevel, TableEntry};
use crate::error::{DbError, DbResult};
use crate::heap::RowId;
use crate::index::IndexData;
use crate::lock::{LockKey, LockMode, TxnId};
use crate::predicate::Predicate;
use crate::schema::{ForeignKey, OnDelete, TableId};
use crate::stats::Stats;
use crate::tail::CommitTail;
use crate::value::{encode_composite_key, Datum, Tuple};
use parking_lot::MutexGuard;
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
    /// A row inserted by this transaction, not yet committed.
    Own(u64),
}

#[derive(Debug, Clone)]
enum PendingOp {
    Insert {
        local: u64,
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

#[derive(Debug, Clone)]
struct Pending {
    table: TableId,
    op: PendingOp,
    dead: bool,
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

/// `(table, old image, new image)` triples describing a committed write.
pub(crate) type WriteImages = Vec<(TableId, Option<Arc<Tuple>>, Option<Arc<Tuple>>)>;

/// Write summary of a committed transaction, retained for backward
/// validation of serializable transactions.
pub(crate) struct CommittedTxn {
    pub(crate) commit_ts: u64,
    /// `(table, row)` pairs written.
    pub(crate) rows: Vec<(TableId, RowId)>,
    /// `(table, old image, new image)` per write.
    pub(crate) images: WriteImages,
}

/// A savepoint: a snapshot of the transaction's buffered write state
/// (see [`Transaction::savepoint`]). Row images are `Arc`-shared, so the
/// snapshot is cheap.
#[derive(Debug, Clone)]
pub struct Savepoint {
    writes: Vec<Pending>,
    write_by_row: HashMap<(TableId, RowId), usize>,
    own_inserts: HashMap<u64, usize>,
    next_local: u64,
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
    open: bool,
    writes: Vec<Pending>,
    write_by_row: HashMap<(TableId, RowId), usize>,
    own_inserts: HashMap<u64, usize>,
    next_local: u64,
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
        Transaction {
            db,
            id,
            active_stripe,
            isolation,
            snapshot,
            open: true,
            writes: Vec::new(),
            write_by_row: HashMap::new(),
            own_inserts: HashMap::new(),
            next_local: 0,
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
        self.db.inner.catalog.read().table(table)
    }

    fn resolve(&self, table: &str) -> DbResult<(TableId, Arc<TableEntry>)> {
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
    /// on the image a scan resolved for it: an update shows its new image
    /// when that still matches, a delete hides the row.
    fn overlay_committed(
        &self,
        tid: TableId,
        row: RowId,
        tuple: Arc<Tuple>,
        pred: &Predicate,
        out: &mut Vec<(RowRef, Arc<Tuple>)>,
    ) {
        match self.write_by_row.get(&(tid, row)).map(|&i| &self.writes[i]) {
            Some(p) if !p.dead => match &p.op {
                PendingOp::Update { new, .. } => {
                    if pred.matches(new) {
                        out.push((RowRef::Committed(row), new.clone()));
                    }
                }
                PendingOp::Delete { .. } => {}
                PendingOp::Insert { .. } => {}
            },
            _ => out.push((RowRef::Committed(row), tuple)),
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
                                self.overlay_committed(tid, row, t, pred, &mut out);
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
                self.overlay_committed(tid, row, tuple, pred, &mut out);
            }
        }
        for p in &self.writes {
            if p.table == tid && !p.dead {
                if let PendingOp::Insert { local, tuple } = &p.op {
                    if pred.matches(tuple) {
                        out.push((RowRef::Own(*local), tuple.clone()));
                    }
                }
            }
        }

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
            // apply own-write overlay
            match self.write_by_row.get(&(tid, row)).map(|&i| &self.writes[i]) {
                Some(p) if !p.dead => match &p.op {
                    PendingOp::Update { new, .. } if pred.matches(new) => {
                        out.push((RowRef::Committed(row), new.clone()))
                    }
                    PendingOp::Delete { .. } | PendingOp::Update { .. } => {}
                    PendingOp::Insert { .. } => {}
                },
                _ => out.push((RowRef::Committed(row), latest)),
            }
        }
        // own inserts matching the predicate are implicitly "locked"
        for p in &self.writes {
            if p.table == tid && !p.dead {
                if let PendingOp::Insert { local, tuple } = &p.op {
                    if pred.matches(tuple) {
                        out.push((RowRef::Own(*local), tuple.clone()));
                    }
                }
            }
        }
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
        key: &[u8],
        exclude: Option<RowRef>,
    ) -> bool {
        // probes committed-latest state below, at any isolation level
        self.note_table_access(&entry.schema.name, feral_hooks::AccessMode::Read);
        let tid = idx.def.table;
        // own pending writes
        for p in &self.writes {
            if p.table != tid || p.dead {
                continue;
            }
            match &p.op {
                PendingOp::Insert { local, tuple } => {
                    if exclude != Some(RowRef::Own(*local))
                        && !idx.key_has_null(tuple)
                        && idx.key_of(tuple) == key
                    {
                        return true;
                    }
                }
                PendingOp::Update { row, new, .. } => {
                    if exclude != Some(RowRef::Committed(*row))
                        && !idx.key_has_null(new)
                        && idx.key_of(new) == key
                    {
                        return true;
                    }
                }
                PendingOp::Delete { .. } => {}
            }
        }
        // committed-latest state via the index
        let clock = self.committed_ts();
        idx.any_row(key, |row| {
            if exclude == Some(RowRef::Committed(row)) {
                return false;
            }
            if let Some(&i) = self.write_by_row.get(&(tid, row)) {
                // row is being rewritten by us; its pending image was
                // already considered above
                if !self.writes[i].dead {
                    return false;
                }
            }
            entry
                .heap
                .latest(row, clock)
                .is_some_and(|(latest, live, _)| {
                    live && !idx.key_has_null(&latest) && idx.key_of(&latest) == key
                })
        })
    }

    /// Run in-database unique checks for writing `tuple` (as `target`) into
    /// `table`, locking each unique key to serialize with concurrent
    /// writers. `prev` is the prior image for updates (keys that did not
    /// change are skipped).
    fn check_unique_indexes(
        &mut self,
        entry: &TableEntry,
        tuple: &Tuple,
        prev: Option<&Tuple>,
        target: RowRef,
    ) -> DbResult<()> {
        for idx in &entry.indexes {
            if !idx.def.unique || idx.key_has_null(tuple) {
                continue;
            }
            let key = idx.key_of(tuple);
            if let Some(p) = prev {
                if !idx.key_has_null(p) && idx.key_of(p) == key {
                    continue; // key unchanged
                }
            }
            self.lock(LockKey::Key(idx.id, key.clone()), LockMode::Exclusive)?;
            if self.unique_key_taken(entry, idx, &key, Some(target)) {
                Stats::bump(&self.db.inner.stats.local().unique_violations);
                return Err(DbError::UniqueViolation {
                    index: idx.def.name.clone(),
                    key: render_key(tuple, &idx.def.cols),
                });
            }
        }
        Ok(())
    }

    /// Whether the parent row referenced by `fk` with key `parent_id`
    /// effectively exists (committed-latest overlaid with own writes).
    fn parent_exists(&self, fk: &ForeignKey, parent_entry: &TableEntry, parent_id: &Datum) -> bool {
        self.note_table_access(&parent_entry.schema.name, feral_hooks::AccessMode::Read);
        // own pending inserts into the parent
        for p in &self.writes {
            if p.table != fk.parent_table || p.dead {
                continue;
            }
            if let PendingOp::Insert { tuple, .. } = &p.op {
                if tuple[0].sql_eq(parent_id) == Some(true) {
                    return true;
                }
            }
        }
        // create_table registers the pkey index first
        let idx = &parent_entry.indexes[0];
        let mut key = Vec::new();
        parent_id.encode_key(&mut key);
        let clock = self.committed_ts();
        idx.any_row(&key, |row| {
            if let Some(&i) = self.write_by_row.get(&(fk.parent_table, row)) {
                if !self.writes[i].dead && matches!(self.writes[i].op, PendingOp::Delete { .. }) {
                    return false; // we are deleting it
                }
            }
            parent_entry
                .heap
                .latest(row, clock)
                .is_some_and(|(latest, live, _)| live && latest[0].sql_eq(parent_id) == Some(true))
        })
    }

    /// In-database FK child-side check for writing `tuple` into `table`:
    /// S-lock the referenced parent key (blocking concurrent parent
    /// deletes), then verify the parent exists.
    fn check_foreign_keys_child(&mut self, tid: TableId, tuple: &Tuple) -> DbResult<()> {
        let fks = self.db.inner.catalog.read().fks_of_child(tid);
        for fk in fks {
            let parent_id = &tuple[fk.child_cols[0]];
            if parent_id.is_null() {
                continue; // MATCH SIMPLE: NULL references nothing
            }
            let parent_entry = self.entry(fk.parent_table);
            let mut key = Vec::new();
            parent_id.encode_key(&mut key);
            self.lock(
                LockKey::Key(parent_entry.indexes[0].id, key),
                LockMode::Shared,
            )?;
            if !self.parent_exists(&fk, &parent_entry, parent_id) {
                Stats::bump(&self.db.inner.stats.local().fk_violations);
                return Err(DbError::ForeignKeyViolation {
                    constraint: fk.name.clone(),
                    detail: format!("referenced parent {parent_id} does not exist"),
                });
            }
        }
        Ok(())
    }

    /// Effective children of `parent_id` under `fk`: committed-latest rows
    /// overlaid with own writes.
    fn children_of(&self, fk: &ForeignKey, parent_id: &Datum) -> Vec<(RowRef, Arc<Tuple>)> {
        let child_entry = self.entry(fk.child_table);
        self.note_table_access(&child_entry.schema.name, feral_hooks::AccessMode::Read);
        let col = fk.child_cols[0];
        let mut out = Vec::new();
        let committed = child_entry.heap.scan_visible(self.committed_ts(), |t| {
            t[col].sql_eq(parent_id) == Some(true)
        });
        for (row, tuple) in committed {
            match self
                .write_by_row
                .get(&(fk.child_table, row))
                .map(|&i| &self.writes[i])
            {
                Some(p) if !p.dead => match &p.op {
                    PendingOp::Update { new, .. } => {
                        if new[col].sql_eq(parent_id) == Some(true) {
                            out.push((RowRef::Committed(row), new.clone()));
                        }
                    }
                    PendingOp::Delete { .. } => {}
                    PendingOp::Insert { .. } => {}
                },
                _ => out.push((RowRef::Committed(row), tuple)),
            }
        }
        for p in &self.writes {
            if p.table == fk.child_table && !p.dead {
                if let PendingOp::Insert { local, tuple } = &p.op {
                    if tuple[col].sql_eq(parent_id) == Some(true) {
                        out.push((RowRef::Own(*local), tuple.clone()));
                    }
                }
            }
        }
        out
    }

    /// Parent-side FK enforcement on delete: X-lock the parent key to block
    /// concurrent child inserts, then RESTRICT / CASCADE / SET NULL.
    fn check_foreign_keys_parent_delete(
        &mut self,
        tid: TableId,
        entry: &TableEntry,
        tuple: &Tuple,
    ) -> DbResult<()> {
        let fks = self.db.inner.catalog.read().fks_of_parent(tid);
        for fk in fks {
            let parent_id = tuple[0].clone();
            let mut key = Vec::new();
            parent_id.encode_key(&mut key);
            self.lock(LockKey::Key(entry.indexes[0].id, key), LockMode::Exclusive)?;
            let children = self.children_of(&fk, &parent_id);
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
                        self.delete_ref(fk.child_table, rref)?;
                    }
                }
                OnDelete::SetNull => {
                    let col = fk.child_cols[0];
                    for (rref, child_tuple) in children {
                        let mut new = (*child_tuple).clone();
                        new[col] = Datum::Null;
                        self.update_ref(fk.child_table, rref, new)?;
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
    pub fn insert(&mut self, table: &str, mut tuple: Tuple) -> DbResult<RowRef> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, entry) = self.resolve(table)?;
        if tuple.first().map(Datum::is_null).unwrap_or(false) {
            tuple[0] = Datum::Int(entry.id_seq.fetch_add(1, Ordering::SeqCst));
        }
        entry.schema.check_tuple(&tuple)?;
        let local = self.next_local;
        let target = RowRef::Own(local);
        self.check_unique_indexes(&entry, &tuple, None, target)?;
        self.check_foreign_keys_child(tid, &tuple)?;
        self.next_local += 1;
        let i = self.writes.len();
        self.writes.push(Pending {
            table: tid,
            op: PendingOp::Insert {
                local,
                tuple: Arc::new(tuple),
            },
            dead: false,
        });
        self.own_inserts.insert(local, i);
        Stats::bump(&self.db.inner.stats.local().inserts);
        Ok(target)
    }

    /// Insert from `(column, value)` pairs, with defaults applied.
    pub fn insert_pairs(&mut self, table: &str, pairs: &[(&str, Datum)]) -> DbResult<RowRef> {
        let (_, entry) = self.resolve(table)?;
        let tuple = entry.schema.tuple_from_pairs(pairs)?;
        self.insert(table, tuple)
    }

    /// Read a row owned by this transaction or committed, by reference.
    pub fn read_ref(&self, table: TableId, rref: RowRef) -> Option<Arc<Tuple>> {
        match rref {
            RowRef::Own(local) => {
                let &i = self.own_inserts.get(&local)?;
                let p = &self.writes[i];
                if p.dead {
                    return None;
                }
                match &p.op {
                    PendingOp::Insert { tuple, .. } => Some(tuple.clone()),
                    _ => None,
                }
            }
            RowRef::Committed(row) => {
                if let Some(&i) = self.write_by_row.get(&(table, row)) {
                    let p = &self.writes[i];
                    if !p.dead {
                        match &p.op {
                            PendingOp::Update { new, .. } => return Some(new.clone()),
                            PendingOp::Delete { .. } => return None,
                            PendingOp::Insert { .. } => {}
                        }
                    }
                }
                self.entry(table).heap.visible(row, self.read_ts())
            }
        }
    }

    /// Update the row at `rref` to `new_tuple` (the `id` column is forced
    /// to remain unchanged).
    pub fn update(&mut self, table: &str, rref: RowRef, new_tuple: Tuple) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, _) = self.resolve(table)?;
        self.update_ref(tid, rref, new_tuple)
    }

    fn update_ref(&mut self, tid: TableId, rref: RowRef, mut new_tuple: Tuple) -> DbResult<()> {
        let entry = self.entry(tid);
        match rref {
            RowRef::Own(local) => {
                let &i = self.own_inserts.get(&local).ok_or(DbError::NoSuchRow)?;
                let prev = match &self.writes[i].op {
                    PendingOp::Insert { tuple, .. } => tuple.clone(),
                    _ => return Err(DbError::Internal("own ref is not an insert".into())),
                };
                if self.writes[i].dead {
                    return Err(DbError::NoSuchRow);
                }
                new_tuple[0] = prev[0].clone();
                entry.schema.check_tuple(&new_tuple)?;
                self.check_unique_indexes(&entry, &new_tuple, Some(&prev), rref)?;
                self.check_foreign_keys_child(tid, &new_tuple)?;
                if let PendingOp::Insert { tuple, .. } = &mut self.writes[i].op {
                    *tuple = Arc::new(new_tuple);
                }
                Stats::bump(&self.db.inner.stats.local().updates);
                Ok(())
            }
            RowRef::Committed(row) => {
                self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
                // post-lock committed-latest re-read (first-updater check)
                self.note_table_access(&entry.schema.name, feral_hooks::AccessMode::Read);
                let (latest, live, begin) = entry
                    .heap
                    .latest(row, self.committed_ts())
                    .ok_or(DbError::NoSuchRow)?;
                if !live {
                    return if self.isolation.first_updater_wins() {
                        Stats::bump(&self.db.inner.stats.local().write_conflicts);
                        Err(DbError::WriteConflict)
                    } else {
                        Err(DbError::NoSuchRow)
                    };
                }
                if self.isolation.first_updater_wins()
                    && begin > self.snapshot
                    && !self.write_by_row.contains_key(&(tid, row))
                {
                    Stats::bump(&self.db.inner.stats.local().write_conflicts);
                    return Err(DbError::WriteConflict);
                }
                // base image: our own pending new image if we already wrote
                // this row, else the latest committed image
                let (base, effective_prev) =
                    match self.write_by_row.get(&(tid, row)).map(|&i| &self.writes[i]) {
                        Some(Pending {
                            op: PendingOp::Update { base, new, .. },
                            dead: false,
                            ..
                        }) => (base.clone(), new.clone()),
                        Some(Pending {
                            op: PendingOp::Delete { .. },
                            dead: false,
                            ..
                        }) => return Err(DbError::NoSuchRow),
                        _ => (latest.clone(), latest.clone()),
                    };
                new_tuple[0] = base[0].clone();
                entry.schema.check_tuple(&new_tuple)?;
                self.check_unique_indexes(&entry, &new_tuple, Some(&effective_prev), rref)?;
                self.check_foreign_keys_child(tid, &new_tuple)?;
                let pending = Pending {
                    table: tid,
                    op: PendingOp::Update {
                        row,
                        base,
                        new: Arc::new(new_tuple),
                    },
                    dead: false,
                };
                match self.write_by_row.get(&(tid, row)).copied() {
                    Some(i) => self.writes[i] = pending,
                    None => {
                        self.writes.push(pending);
                        self.write_by_row.insert((tid, row), self.writes.len() - 1);
                    }
                }
                Stats::bump(&self.db.inner.stats.local().updates);
                Ok(())
            }
        }
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
            RowRef::Own(_) => self.read_ref(tid, rref).ok_or(DbError::NoSuchRow)?,
            RowRef::Committed(row) => {
                // take the lock first so the read is current
                self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
                if let Some(img) = self.read_ref(tid, rref) {
                    img
                } else {
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
        };
        let new_tuple = f(&current);
        self.update_ref(tid, rref, new_tuple)
    }

    /// Delete the row at `rref`, enforcing any in-database foreign keys
    /// (RESTRICT / CASCADE / SET NULL).
    pub fn delete(&mut self, table: &str, rref: RowRef) -> DbResult<()> {
        feral_hooks::yield_point(feral_hooks::Site::TxnWrite);
        self.ensure_open()?;
        let (tid, _) = self.resolve(table)?;
        self.delete_ref(tid, rref)
    }

    fn delete_ref(&mut self, tid: TableId, rref: RowRef) -> DbResult<()> {
        let entry = self.entry(tid);
        match rref {
            RowRef::Own(local) => {
                let &i = self.own_inserts.get(&local).ok_or(DbError::NoSuchRow)?;
                let tuple = match &self.writes[i].op {
                    PendingOp::Insert { tuple, .. } => tuple.clone(),
                    _ => return Err(DbError::Internal("own ref is not an insert".into())),
                };
                self.check_foreign_keys_parent_delete(tid, &entry, &tuple)?;
                self.writes[i].dead = true;
                Stats::bump(&self.db.inner.stats.local().deletes);
                Ok(())
            }
            RowRef::Committed(row) => {
                self.lock(LockKey::Row(tid, row), LockMode::Exclusive)?;
                // post-lock committed-latest re-read (first-updater check)
                self.note_table_access(&entry.schema.name, feral_hooks::AccessMode::Read);
                let (latest, live, begin) = entry
                    .heap
                    .latest(row, self.committed_ts())
                    .ok_or(DbError::NoSuchRow)?;
                if !live {
                    return if self.isolation.first_updater_wins() {
                        Stats::bump(&self.db.inner.stats.local().write_conflicts);
                        Err(DbError::WriteConflict)
                    } else {
                        Err(DbError::NoSuchRow)
                    };
                }
                if self.isolation.first_updater_wins()
                    && begin > self.snapshot
                    && !self.write_by_row.contains_key(&(tid, row))
                {
                    Stats::bump(&self.db.inner.stats.local().write_conflicts);
                    return Err(DbError::WriteConflict);
                }
                let base = match self.write_by_row.get(&(tid, row)).map(|&i| &self.writes[i]) {
                    Some(Pending {
                        op: PendingOp::Update { base, .. },
                        dead: false,
                        ..
                    }) => base.clone(),
                    Some(Pending {
                        op: PendingOp::Delete { .. },
                        dead: false,
                        ..
                    }) => return Err(DbError::NoSuchRow),
                    _ => latest.clone(),
                };
                self.check_foreign_keys_parent_delete(tid, &entry, &base)?;
                let pending = Pending {
                    table: tid,
                    op: PendingOp::Delete { row, base },
                    dead: false,
                };
                match self.write_by_row.get(&(tid, row)).copied() {
                    Some(i) => self.writes[i] = pending,
                    None => {
                        self.writes.push(pending);
                        self.write_by_row.insert((tid, row), self.writes.len() - 1);
                    }
                }
                Stats::bump(&self.db.inner.stats.local().deletes);
                Ok(())
            }
        }
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

    fn has_effects(&self) -> bool {
        self.writes.iter().any(|p| !p.dead)
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
    fn validate_serializable(&self, guards: &[(usize, MutexGuard<'_, ShardCore>)]) -> DbResult<()> {
        let Err(detail) = self.find_rw_conflict(guards) else {
            return Ok(());
        };
        self.db.inner.pipeline.check_unbroken()?;
        Stats::bump(&self.db.inner.stats.local().serialization_failures);
        Err(DbError::SerializationFailure { detail })
    }

    fn find_rw_conflict(
        &self,
        guards: &[(usize, MutexGuard<'_, ShardCore>)],
    ) -> Result<(), String> {
        for (_, core) in guards {
            for c in core.history.iter().rev() {
                if c.commit_ts <= self.snapshot {
                    break;
                }
                for (t, r) in &c.rows {
                    if self.read_rows.contains(&(*t, *r)) {
                        return Err(format!("row {}.{} was concurrently written", t.0, r));
                    }
                }
                for pred in &self.read_preds {
                    match pred {
                        PredRead::WholeTable(t) => {
                            if c.images.iter().any(|(it, _, _)| it == t) {
                                return Err(format!(
                                    "table {} was concurrently written under a full-scan read",
                                    t.0
                                ));
                            }
                        }
                        PredRead::Eq { table, pairs } => {
                            for (it, old, new) in &c.images {
                                if it != table {
                                    continue;
                                }
                                let hit = |img: &Option<Arc<Tuple>>| {
                                    img.as_ref().is_some_and(|t| {
                                        pairs.iter().all(|(c, v)| {
                                            t.get(*c).is_some_and(|d| d.sql_eq(v) == Some(true))
                                        })
                                    })
                                };
                                if hit(old) || hit(new) {
                                    return Err(format!(
                                        "predicate read on table {} was concurrently invalidated",
                                        it.0
                                    ));
                                }
                            }
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
        Savepoint {
            writes: self.writes.clone(),
            write_by_row: self.write_by_row.clone(),
            own_inserts: self.own_inserts.clone(),
            next_local: self.next_local,
        }
    }

    /// Restore the buffered write state captured by `sp`, discarding every
    /// write (including merged updates of pre-savepoint rows) made since.
    pub fn rollback_to(&mut self, sp: Savepoint) -> DbResult<()> {
        self.ensure_open()?;
        self.writes = sp.writes;
        self.write_by_row = sp.write_by_row;
        self.own_inserts = sp.own_inserts;
        self.next_local = sp.next_local;
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
        if !self.has_effects() {
            // Read-only transactions still deliver their footprint:
            // they can sit on anomaly cycles (the classic read-only
            // transaction anomaly under snapshot isolation). Their
            // "commit timestamp" is the clock at commit.
            let read_ts = self.db.inner.clock.load(Ordering::SeqCst);
            self.tail(read_ts, 0, None, BTreeSet::new())
                .complete(&self.db, true);
            return Ok(());
        }
        let db = &self.db;
        let pipeline = &db.inner.pipeline;
        // Shard set: every table written, plus — under Serializable —
        // every table read, so validation runs against exactly the
        // histories its latches protect.
        let mut shard_ids: BTreeSet<usize> = self
            .writes
            .iter()
            .filter(|p| !p.dead)
            .map(|p| pipeline.shard_of(p.table))
            .collect();
        let write_shards = shard_ids.clone();
        let mut read_tables: BTreeSet<TableId> = BTreeSet::new();
        if self.isolation == IsolationLevel::Serializable {
            read_tables.extend(self.read_rows.iter().map(|(t, _)| *t));
            read_tables.extend(self.read_preds.iter().map(|p| match p {
                PredRead::WholeTable(t) => *t,
                PredRead::Eq { table, .. } => *table,
            }));
            shard_ids.extend(read_tables.iter().map(|t| pipeline.shard_of(*t)));
        }
        // Canonical (ascending) acquisition order — no latch deadlock.
        let mut guards = pipeline.lock_shards(&shard_ids, &db.inner.stats);
        feral_trace::record(
            feral_trace::EventKind::Site(feral_hooks::Site::CommitShard),
            self.id,
            shard_ids.iter().fold(0u64, |m, &i| m | (1u64 << (i % 64))),
            shard_ids.len() as u64,
        );
        if feral_hooks::active() {
            // commit-segment footprint: the validator re-reads every
            // registered read table, the install loop publishes every
            // written table, and the timestamp publish ticks the clock
            for &tid in &read_tables {
                let name = self.entry(tid).schema.name.clone();
                self.note_table_access(&name, feral_hooks::AccessMode::Read);
            }
            let written: BTreeSet<TableId> = self
                .writes
                .iter()
                .filter(|p| !p.dead)
                .map(|p| p.table)
                .collect();
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
            if let Err(e) = self.validate_serializable(&guards) {
                drop(guards);
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
            for p in &self.writes {
                if p.dead {
                    continue;
                }
                let entry = self.entry(p.table);
                let table = entry.schema.name.clone();
                match &p.op {
                    PendingOp::Insert { tuple, .. } => {
                        let next = next_row
                            .entry(p.table)
                            .or_insert_with(|| entry.heap.chain_count() as u64);
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
                drop(guards);
                self.abort();
                return Err(e);
            }
        };
        // Installed at `commit_ts > clock`: invisible until `publish`.
        let mut rows: Vec<(TableId, RowId)> = Vec::new();
        let mut images: WriteImages = Vec::new();
        for p in &self.writes {
            if p.dead {
                continue;
            }
            let entry = self.entry(p.table);
            let indexes = &entry.indexes;
            match &p.op {
                PendingOp::Insert { tuple, .. } => {
                    let row = entry.heap.install_insert(commit_ts, tuple.clone());
                    for idx in indexes {
                        idx.insert_entry(idx.key_of(tuple), row);
                    }
                    rows.push((p.table, row));
                    images.push((p.table, None, Some(tuple.clone())));
                }
                PendingOp::Update { row, base, new } => {
                    entry.heap.install_update(*row, commit_ts, new.clone());
                    // the old-key posting stays: snapshots older than this
                    // commit still reach the prior version through it, and
                    // readers re-verify the indexed columns against the
                    // tuple they resolve (vacuum sweeps it once no
                    // snapshot can see the old version)
                    for idx in indexes {
                        let old_key = idx.key_of(base);
                        let new_key = idx.key_of(new);
                        if old_key != new_key {
                            idx.insert_entry(new_key, *row);
                        }
                    }
                    rows.push((p.table, *row));
                    images.push((p.table, Some(base.clone()), Some(new.clone())));
                }
                PendingOp::Delete { row, base } => {
                    // postings survive the delete for the same reason: the
                    // row is dead committed-latest, but snapshots begun
                    // before this commit still index into its version chain
                    entry.heap.install_delete(*row, commit_ts);
                    rows.push((p.table, *row));
                    images.push((p.table, Some(base.clone()), None));
                }
            }
        }
        // Every shard this transaction wrote gets the summary, so a
        // serializable validator latching any of its read-table shards
        // sees it.
        let summary = Arc::new(CommittedTxn {
            commit_ts,
            rows,
            images,
        });
        for (i, core) in &mut guards {
            if write_shards.contains(i) {
                core.history.push_back(summary.clone());
            }
        }
        // Everything the latches order is fixed: what is left — durable
        // wait, publish, audit, prune, lock release — is the commit tail,
        // settled here with no latch held (one flush covers every
        // committer in flight, same table or not) or handed to the
        // `defer_durable` scope this thread is in. If the flush fails,
        // the versions stay installed above a clock that never reaches
        // them.
        drop(guards);
        let tail = self.tail(commit_ts, wal_seq, Some(summary), write_shards);
        match crate::tail::defer(&self.db, tail) {
            None => Ok(()),
            Some(tail) => tail.settle(&self.db),
        }
    }

    /// Close the transaction and move what its commit still owes into a
    /// [`CommitTail`]; `Vec`s are moved, nothing is allocated.
    fn tail(
        &mut self,
        commit_ts: u64,
        wal_seq: u64,
        summary: Option<Arc<CommittedTxn>>,
        write_shards: BTreeSet<usize>,
    ) -> CommitTail {
        self.open = false;
        CommitTail {
            txn: self.id,
            active_stripe: self.active_stripe,
            commit_ts,
            wal_seq,
            locks: std::mem::take(&mut self.locks),
            summary,
            write_shards,
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

/// Re-export for key rendering in diagnostics.
pub(crate) fn _encode(tuple: &Tuple, cols: &[usize]) -> Vec<u8> {
    encode_composite_key(tuple, cols)
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
}
