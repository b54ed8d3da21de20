//! The database object: catalog, clock, lock manager, commit pipeline.

use crate::commit::CommitPipeline;
use crate::error::{DbError, DbResult};
use crate::heap::Heap;
use crate::index::{IndexData, IndexKey};
use crate::lock::LockManager;
use crate::schema::{ForeignKey, IndexDef, IndexId, OnDelete, TableId, TableInfo, TableSchema};
use crate::stats::Stats;
use crate::txn::Transaction;
use crate::value::Row;
use crate::wal::{read_log, truncate_log, WalRecord, WalWrite, WalWriter};
use feral_audit::{AuditMode, Auditor};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Direct serialization-graph dependency kinds (Adya's wr/ww/rw),
/// used by [`IsolationLevel::admits_concurrent`] to describe which
/// conflicts two concurrent transactions can commit with under each
/// isolation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// wr: the reader observes the writer's committed value.
    WriteRead,
    /// ww: both transactions write the same item (last-writer-wins
    /// where admitted).
    WriteWrite,
    /// rw: the reader saw the version the writer later replaced — an
    /// antidependency.
    ReadWrite,
}

impl ConflictKind {
    /// Adya's two-letter spelling (`wr` / `ww` / `rw`).
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::WriteRead => "wr",
            ConflictKind::WriteWrite => "ww",
            ConflictKind::ReadWrite => "rw",
        }
    }
}

/// Transaction isolation level, matching the menu the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Statement-level snapshots; PostgreSQL's default.
    ReadCommitted,
    /// Transaction-level snapshot without first-updater aborts; a model of
    /// MySQL/InnoDB's default.
    RepeatableRead,
    /// Transaction-level snapshot with first-updater-wins write-conflict
    /// aborts; what Oracle (and PostgreSQL pre-9.1) call "serializable".
    Snapshot,
    /// Snapshot isolation plus backward read-set validation at commit —
    /// genuinely serializable (conservative OCC-style validation).
    Serializable,
}

impl IsolationLevel {
    /// Whether reads use one snapshot for the whole transaction.
    pub fn txn_level_snapshot(self) -> bool {
        !matches!(self, IsolationLevel::ReadCommitted)
    }

    /// Whether a write to a row version newer than the snapshot aborts.
    pub fn first_updater_wins(self) -> bool {
        matches!(
            self,
            IsolationLevel::Snapshot | IsolationLevel::Serializable
        )
    }

    /// Whether this level lets two **concurrent** transactions both
    /// commit with the given direct serialization-graph dependency
    /// between them. This is the engine's edge-admissibility table,
    /// consumed by the static dependency-graph analyzer (`feral-sdg`)
    /// and cross-validated against `feral-sim`'s exhaustive sweeps:
    ///
    /// | edge | RC | RR | SI | Serializable |
    /// |------|----|----|----|--------------|
    /// | wr (write→read)      | yes | no¹ | no¹ | no¹ |
    /// | ww (write→write)     | yes | yes | no² | no² |
    /// | rw (antidependency)  | yes | yes | yes | no³ |
    ///
    /// ¹ transaction-level snapshots hide concurrent commits; the read
    ///   is served by an older version, so the edge *redirects* to the
    ///   reverse rw antidependency instead of aborting anyone
    ///   ([`IsolationLevel::wr_redirects_to_rw`]).
    /// ² first-updater-wins: the second writer aborts
    ///   ([`IsolationLevel::first_updater_wins`]).
    /// ³ backward read-set validation at commit aborts the reader
    ///   ([`IsolationLevel::validates_read_sets`]).
    pub fn admits_concurrent(self, edge: ConflictKind) -> bool {
        match edge {
            ConflictKind::WriteRead => !self.txn_level_snapshot(),
            ConflictKind::WriteWrite => !self.first_updater_wins(),
            ConflictKind::ReadWrite => !self.validates_read_sets(),
        }
    }

    /// Whether commit-time backward read-set validation rejects
    /// transactions whose reads were overwritten by a concurrent commit
    /// (only Serializable).
    pub fn validates_read_sets(self) -> bool {
        matches!(self, IsolationLevel::Serializable)
    }

    /// Whether an inadmissible wr edge is *redirected* rather than
    /// fatal: under transaction-level snapshots the reader simply sees
    /// the version predating the concurrent write, which creates the
    /// reverse rw antidependency instead of aborting either side.
    /// Inadmissible ww and rw edges, by contrast, abort a transaction.
    pub fn wr_redirects_to_rw(self) -> bool {
        self.txn_level_snapshot()
    }

    /// Parse from the SQL-ish names used by config files and CLI flags.
    pub fn parse(s: &str) -> Option<IsolationLevel> {
        match s.to_ascii_lowercase().replace(['-', '_'], " ").as_str() {
            "read committed" | "rc" => Some(IsolationLevel::ReadCommitted),
            "repeatable read" | "rr" => Some(IsolationLevel::RepeatableRead),
            "snapshot" | "si" => Some(IsolationLevel::Snapshot),
            "serializable" | "ser" => Some(IsolationLevel::Serializable),
            _ => None,
        }
    }
}

impl IsolationLevel {
    /// Stable static name (what [`std::fmt::Display`] prints, and what
    /// the runtime auditor stamps on plan cells).
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read committed",
            IsolationLevel::RepeatableRead => "repeatable read",
            IsolationLevel::Snapshot => "snapshot",
            IsolationLevel::Serializable => "serializable",
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Isolation used by [`TxnOptions::begin`]. Defaults to Read Committed,
    /// PostgreSQL's default — the configuration the paper's experiments run
    /// under ("Rails does not configure the database isolation level").
    pub default_isolation: IsolationLevel,
    /// Lock-wait timeout; expiry aborts the waiter (deadlock resolution).
    pub lock_timeout: Duration,
    /// Reproduce PostgreSQL bug #11732 (paper footnote 8): under
    /// Serializable, predicate reads that are *not* served by an index are
    /// not tracked for validation, so uniqueness-probe transactions can
    /// still race and commit duplicates.
    pub pg_ssi_bug: bool,
    /// Bind a write-ahead log at this path: DDL and commits are appended
    /// (redo logging), and [`Database::open`] replays it on startup.
    /// `None` (the default) keeps the database purely in memory.
    pub wal_path: Option<std::path::PathBuf>,
    /// Number of commit shards: commit validation/installation is
    /// hash-partitioned by table across this many latches, so commits
    /// touching disjoint shards proceed in parallel. `1` reproduces the
    /// old single-latch commit path. A commit names its shard set in one
    /// `u64`, so values above 64 are clamped to 64 (and 0 to 1).
    pub commit_shards: usize,
    /// Group commit: most records one WAL flush covers. `1` flushes
    /// every record individually (the old per-commit behaviour).
    pub group_commit_max_batch: usize,
    /// Group commit: how long a flush leader lingers for followers to
    /// join its batch. `Duration::ZERO` (the default) never waits —
    /// batches then only form while a flush is already in flight.
    pub group_commit_max_wait: Duration,
    /// Call `sync_data` after every WAL flush. Durable against OS
    /// crashes, and the cost group commit exists to amortize.
    pub wal_sync: bool,
    /// Runtime execution auditing: `Off` (the default, zero cost)
    /// skips the observer entirely; `Sampled(n)` audits one
    /// transaction in `n` end-to-end and reduces the rest to commit
    /// markers (per-cell accounting stays exact, cycle coverage
    /// becomes a sampled lower bound); `Full` captures everything.
    /// See [`Database::audit_snapshot`].
    pub audit_mode: AuditMode,
    /// Run the auditor's graph maintenance on a dedicated background
    /// thread so commit threads only pay the footprint buffer push.
    /// Defaults to `true` when the machine has more than one core; on a
    /// single core the drainer thread can only time-slice against the
    /// committers, so its wakeups are pure context-switch overhead and
    /// the default flips to inline draining. Deterministic harnesses
    /// (feral-sim) set this to `false`: committers then drain the
    /// buffer themselves at batch boundaries, making audit reports a
    /// pure function of the schedule.
    pub audit_background: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            default_isolation: IsolationLevel::ReadCommitted,
            lock_timeout: Duration::from_secs(2),
            pg_ssi_bug: false,
            wal_path: None,
            commit_shards: 8,
            group_commit_max_batch: 64,
            group_commit_max_wait: Duration::ZERO,
            wal_sync: false,
            audit_mode: AuditMode::Off,
            audit_background: std::thread::available_parallelism().map_or(true, |p| p.get() > 1),
        }
    }
}

/// One table's runtime state.
pub(crate) struct TableEntry {
    pub(crate) schema: TableSchema,
    pub(crate) heap: Arc<Heap>,
    /// Auto-increment sequence for the `id` column, shared by every copy
    /// of the entry DDL makes.
    pub(crate) id_seq: Arc<AtomicI64>,
    /// Indexes declared on this table, the primary key's first. Held by
    /// handle, so walking a table's indexes needs the entry and nothing
    /// else from the catalog.
    pub(crate) indexes: Vec<Arc<IndexData>>,
    /// Foreign keys this table is the child of (checked on its inserts
    /// and updates).
    pub(crate) fks_as_child: Vec<Arc<ForeignKey>>,
    /// Foreign keys this table is the parent of (enforced on its deletes).
    pub(crate) fks_as_parent: Vec<Arc<ForeignKey>>,
}

/// Catalog: names → tables/indexes/constraints.
#[derive(Default)]
pub(crate) struct Catalog {
    pub(crate) tables: Vec<Arc<TableEntry>>,
    pub(crate) table_names: HashMap<String, TableId>,
    /// Index name → id. Ids are dense in creation order; the data hangs
    /// off the owning table's entry.
    pub(crate) index_names: HashMap<String, IndexId>,
}

impl Catalog {
    pub(crate) fn table(&self, id: TableId) -> Arc<TableEntry> {
        self.tables[id.0 as usize].clone()
    }

    /// Name → id and entry in one step, borrowed: what a statement needs
    /// from the catalog, without a handle clone per lookup.
    pub(crate) fn resolve(&self, name: &str) -> DbResult<(TableId, &Arc<TableEntry>)> {
        let id = *self
            .table_names
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.into()))?;
        Ok((id, &self.tables[id.0 as usize]))
    }

    /// Change `table`'s entry (DDL: a new index, a new constraint).
    /// Entries are shared by handle with statements in flight, so a
    /// shared one is replaced by an edited copy over the same heap.
    fn edit_table(&mut self, table: TableId, edit: impl FnOnce(&mut TableEntry)) {
        let slot = &mut self.tables[table.0 as usize];
        if Arc::get_mut(slot).is_none() {
            *slot = Arc::new(TableEntry {
                schema: slot.schema.clone(),
                heap: slot.heap.clone(),
                id_seq: slot.id_seq.clone(),
                indexes: slot.indexes.clone(),
                fks_as_child: slot.fks_as_child.clone(),
                fks_as_parent: slot.fks_as_parent.clone(),
            });
        }
        edit(Arc::get_mut(slot).expect("the entry was just made unique"));
    }
}

pub(crate) struct DbInner {
    pub(crate) config: Config,
    pub(crate) catalog: RwLock<Catalog>,
    /// Bumped whenever a table gains an index. A transaction carries the
    /// table entries its statements resolved to commit; one that began
    /// under an older epoch re-resolves them there, under its shard
    /// latches, so a row is never installed past a new index.
    pub(crate) catalog_epoch: AtomicU64,
    pub(crate) locks: LockManager,
    /// Logical clock: the newest published commit timestamp.
    pub(crate) clock: AtomicU64,
    /// The sharded commit pipeline: shard latches + history slices,
    /// active-transaction stripes, timestamp allocation, group-commit
    /// batching, and timestamp-ordered publication.
    pub(crate) pipeline: CommitPipeline,
    /// Transaction id allocator.
    pub(crate) txn_ids: AtomicU64,
    /// Write-ahead log writer, when durability is enabled.
    pub(crate) wal: Option<Mutex<WalWriter>>,
    /// True while replaying the log (suppresses re-logging).
    pub(crate) wal_suppressed: AtomicBool,
    pub(crate) stats: Stats,
    /// The runtime dependency-graph observer, when
    /// [`Config::audit_mode`] is not `Off`.
    pub(crate) auditor: Option<Arc<Auditor>>,
}

/// A shared-nothing-API, multi-reader in-memory relational database.
///
/// `Database` is a cheap cloneable handle (`Arc` inside); clones share all
/// state. Worker threads each hold a clone and open [`Transaction`]s.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// Create a database with the given configuration. When
    /// `config.wal_path` is set this delegates to [`Database::open`] and
    /// panics on recovery failure; prefer `open` for durable databases.
    pub fn new(config: Config) -> Self {
        if config.wal_path.is_some() {
            return Database::open(config).expect("WAL recovery failed");
        }
        Database::construct(config, None)
    }

    /// Open a database, replaying `config.wal_path` if set and binding the
    /// log for subsequent appends.
    pub fn open(config: Config) -> DbResult<Self> {
        let Some(path) = config.wal_path.clone() else {
            return Ok(Database::construct(config, None));
        };
        let (records, valid_len) = read_log(&path)?;
        truncate_log(&path, valid_len)?;
        let writer = WalWriter::open(&path)?;
        let db = Database::construct(config, Some(writer));
        db.inner.wal_suppressed.store(true, Ordering::SeqCst);
        let result = db.replay(records);
        db.inner.wal_suppressed.store(false, Ordering::SeqCst);
        result?;
        Ok(db)
    }

    fn construct(config: Config, wal: Option<WalWriter>) -> Self {
        let pipeline = CommitPipeline::new(
            config.commit_shards,
            config.group_commit_max_batch,
            config.group_commit_max_wait,
        );
        let wal = wal.map(|mut w| {
            w.set_sync(config.wal_sync);
            Mutex::new(w)
        });
        let auditor = (!config.audit_mode.is_off()).then(|| {
            let auditor = Arc::new(Auditor::new(config.audit_mode));
            if config.audit_background {
                Auditor::start_background(&auditor);
            }
            auditor
        });
        Database {
            inner: Arc::new(DbInner {
                locks: LockManager::new(config.lock_timeout),
                config,
                catalog: RwLock::new(Catalog::default()),
                catalog_epoch: AtomicU64::new(0),
                clock: AtomicU64::new(1),
                pipeline,
                txn_ids: AtomicU64::new(1),
                wal,
                wal_suppressed: AtomicBool::new(false),
                stats: Stats::default(),
                auditor,
            }),
        }
    }

    /// Append a record to the WAL, if one is bound and not suppressed.
    /// Routed through the group-commit buffer so DDL stays ordered
    /// before the commits that depend on it.
    pub(crate) fn wal_append(&self, record: &WalRecord) -> DbResult<()> {
        if self.inner.wal_suppressed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if let Some(wal) = &self.inner.wal {
            self.inner.pipeline.append_durable(
                wal,
                &self.inner.stats,
                &self.inner.clock,
                record,
            )?;
        }
        Ok(())
    }

    /// Arm (or disarm) the WAL torn-write failpoint: after `budget` more
    /// bytes the next write tears mid-record and errors, poisoning the
    /// log — the crash-recovery tests' injection port. No-op without a
    /// bound WAL.
    pub fn set_wal_fail_after(&self, budget: Option<u64>) {
        if let Some(wal) = &self.inner.wal {
            wal.lock().set_fail_after(budget);
        }
    }

    /// Run `f` with the WAL writer held, so every group-commit flush
    /// parks until `f` returns — the batching tests' port for piling
    /// committers into one flush deterministically. Arm
    /// [`Database::set_wal_fail_after`] *before* calling this (it takes
    /// the same lock). Without a bound WAL `f` just runs.
    #[doc(hidden)]
    pub fn with_wal_stalled<R>(&self, f: impl FnOnce() -> R) -> R {
        let _writer = self.inner.wal.as_ref().map(|w| w.lock());
        f()
    }

    /// Whether some thread is leading a group-commit flush right now —
    /// with [`Database::with_wal_stalled`], how the batching tests know a
    /// leader has taken its batch and is parked on the writer.
    #[doc(hidden)]
    pub fn wal_flush_in_flight(&self) -> bool {
        self.inner.pipeline.flush_in_flight()
    }

    /// Number of commit shards the pipeline runs with.
    pub fn commit_shards(&self) -> usize {
        self.inner.pipeline.shard_count()
    }

    /// Replay recovered records into fresh state.
    fn replay(&self, records: Vec<WalRecord>) -> DbResult<()> {
        use crate::value::Datum;
        let mut max_ts = 1u64;
        let mut max_ids: HashMap<TableId, i64> = HashMap::new();
        for record in records {
            match record {
                WalRecord::CreateTable { name, columns } => {
                    let cols = columns
                        .into_iter()
                        .map(|(n, ty, not_null)| {
                            let mut c = crate::schema::ColumnDef::new(n, ty);
                            if not_null {
                                c = c.not_null();
                            }
                            c
                        })
                        .collect();
                    self.create_table(TableSchema::new(name, cols))?;
                }
                WalRecord::CreateIndex {
                    name,
                    table,
                    columns,
                    unique,
                } => {
                    let tid = self.table_id(&table)?;
                    let refs: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                    self.create_index_named(&name, tid, &refs, unique)?;
                }
                WalRecord::AddForeignKey {
                    child,
                    column,
                    parent,
                    on_delete,
                } => {
                    let mode = match on_delete {
                        1 => OnDelete::Cascade,
                        2 => OnDelete::SetNull,
                        _ => OnDelete::Restrict,
                    };
                    self.add_foreign_key(&child, &column, &parent, mode)?;
                }
                WalRecord::Commit { commit_ts, writes } => {
                    max_ts = max_ts.max(commit_ts);
                    for w in writes {
                        self.replay_write(commit_ts, w, &mut max_ids)?;
                    }
                }
            }
        }
        self.inner.clock.store(max_ts, Ordering::SeqCst);
        self.inner.pipeline.set_ts_floor(max_ts);
        // restore id sequences past the highest recovered id
        let cat = self.inner.catalog.read();
        for (tid, max_id) in max_ids {
            cat.table(tid).id_seq.store(max_id + 1, Ordering::SeqCst);
        }
        drop(cat);
        // silence the unused-import warning path for Datum in no-commit logs
        let _ = std::mem::size_of::<Datum>();
        Ok(())
    }

    fn replay_write(
        &self,
        commit_ts: u64,
        w: WalWrite,
        max_ids: &mut HashMap<TableId, i64>,
    ) -> DbResult<()> {
        let cat = self.inner.catalog.read();
        match w {
            WalWrite::Insert { table, row, tuple } => {
                let (tid, entry) = cat.resolve(&table)?;
                if let Some(id) = tuple.first().and_then(|d| d.as_int()) {
                    let m = max_ids.entry(tid).or_insert(0);
                    *m = (*m).max(id);
                }
                let tuple = Row::from(tuple);
                let got = entry.heap.install_insert(commit_ts, tuple.clone());
                if got as u64 != row {
                    return Err(DbError::Internal(format!(
                        "replay row id mismatch for {table}: got {got}, logged {row}"
                    )));
                }
                for idx in &entry.indexes {
                    idx.insert_entry(idx.key_of(&tuple), got);
                }
            }
            WalWrite::Update { table, row, tuple } => {
                let (_, entry) = cat.resolve(&table)?;
                let old = entry.heap.newest(row as usize).ok_or(DbError::NoSuchRow)?;
                let tuple = Row::from(tuple);
                entry
                    .heap
                    .install_update(row as usize, commit_ts, tuple.clone());
                // same policy as the live commit path: old-key postings
                // stay until vacuum, readers re-verify
                for idx in &entry.indexes {
                    if !idx.same_key(&old, &tuple) {
                        idx.insert_entry(idx.key_of(&tuple), row as usize);
                    }
                }
            }
            WalWrite::Delete { table, row } => {
                let (_, entry) = cat.resolve(&table)?;
                entry.heap.newest(row as usize).ok_or(DbError::NoSuchRow)?;
                entry.heap.install_delete(row as usize, commit_ts);
            }
        }
        Ok(())
    }

    /// Create a database with default configuration (Read Committed).
    pub fn in_memory() -> Self {
        Database::new(Config::default())
    }

    /// Engine statistics.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// The configured default isolation level.
    pub fn default_isolation(&self) -> IsolationLevel {
        self.inner.config.default_isolation
    }

    /// Create a table. A unique primary-key index on `id` named
    /// `<table>_pkey` is created automatically.
    pub fn create_table(&self, schema: TableSchema) -> DbResult<TableId> {
        let mut cat = self.inner.catalog.write();
        if cat.table_names.contains_key(&schema.name) {
            return Err(DbError::TableExists(schema.name));
        }
        let id = TableId(cat.tables.len() as u32);
        let pkey_name = format!("{}_pkey", schema.name);
        let wal_record = WalRecord::CreateTable {
            name: schema.name.clone(),
            columns: schema
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.ty, c.not_null))
                .collect(),
        };
        cat.table_names.insert(schema.name.clone(), id);
        cat.tables.push(Arc::new(TableEntry {
            schema,
            heap: Arc::new(Heap::new()),
            id_seq: Arc::new(AtomicI64::new(1)),
            indexes: Vec::new(),
            fks_as_child: Vec::new(),
            fks_as_parent: Vec::new(),
        }));
        drop(cat);
        self.wal_append(&wal_record)?;
        // the pkey index is implied by CreateTable; suppress its own record
        let was = self.inner.wal_suppressed.swap(true, Ordering::SeqCst);
        let result = self.create_index_named(&pkey_name, id, &["id"], true);
        self.inner.wal_suppressed.store(was, Ordering::SeqCst);
        result?;
        Ok(id)
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        Ok(self.inner.catalog.read().resolve(name)?.0)
    }

    /// Catalog info for a table.
    pub fn table_info(&self, name: &str) -> DbResult<TableInfo> {
        let cat = self.inner.catalog.read();
        let (id, entry) = cat.resolve(name)?;
        Ok(TableInfo {
            id,
            schema: entry.schema.clone(),
        })
    }

    /// All table names, in creation order.
    pub fn table_names(&self) -> Vec<String> {
        let cat = self.inner.catalog.read();
        cat.tables.iter().map(|t| t.schema.name.clone()).collect()
    }

    /// Create an index on `table_name(cols...)`, optionally unique, with a
    /// Rails-style generated name `index_<table>_on_<c1>_and_<c2>`.
    pub fn create_index(&self, table_name: &str, cols: &[&str], unique: bool) -> DbResult<IndexId> {
        let name = format!("index_{}_on_{}", table_name, cols.join("_and_"));
        let table = self.table_id(table_name)?;
        self.create_index_named(&name, table, cols, unique)
    }

    /// Create an index with an explicit name.
    pub fn create_index_named(
        &self,
        name: &str,
        table: TableId,
        cols: &[&str],
        unique: bool,
    ) -> DbResult<IndexId> {
        // The table's commit latch is held from backfill to registration:
        // a commit installs either before (the backfill posts its rows) or
        // after (it sees the new epoch and posts them itself).
        let latch = self
            .inner
            .pipeline
            .lock_shards(1 << self.inner.pipeline.shard_of(table), &self.inner.stats);
        let mut cat = self.inner.catalog.write();
        if cat.index_names.contains_key(name) {
            return Err(DbError::IndexExists(name.into()));
        }
        let entry = cat.table(table);
        let col_ids = cols
            .iter()
            .map(|c| entry.schema.column_index(c))
            .collect::<DbResult<Vec<_>>>()?;
        let id = IndexId(cat.index_names.len() as u32);
        let data = Arc::new(IndexData::new(
            id,
            IndexDef {
                name: name.into(),
                table,
                cols: col_ids,
                unique,
            },
        ));
        // Backfill from the latest committed rows. If uniqueness is violated
        // by existing data, index creation fails (as ALTER TABLE would).
        let existing = entry.heap.scan_latest(|_| true);
        let mut seen: HashMap<IndexKey, usize> = HashMap::new();
        for (row, tuple) in &existing {
            let key = data.key_of(tuple);
            if unique && !data.key_has_null(tuple) {
                if let Some(_prev) = seen.insert(key.clone(), *row) {
                    return Err(DbError::UniqueViolation {
                        index: name.into(),
                        key: format!("{:?}", key),
                    });
                }
            }
            data.insert_entry(key, *row);
        }
        cat.index_names.insert(name.into(), id);
        let wal_record = WalRecord::CreateIndex {
            name: name.into(),
            table: entry.schema.name.clone(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
            unique,
        };
        cat.edit_table(table, |e| e.indexes.push(data));
        self.inner.catalog_epoch.fetch_add(1, Ordering::SeqCst);
        drop(cat);
        drop(latch);
        self.wal_append(&wal_record)?;
        Ok(id)
    }

    /// Declare an in-database foreign key: `child(child_col)` references
    /// `parent(id)`. The migration-style counterpart of a Rails
    /// `belongs_to` + `foreigner` gem annotation.
    pub fn add_foreign_key(
        &self,
        child_table: &str,
        child_col: &str,
        parent_table: &str,
        on_delete: OnDelete,
    ) -> DbResult<()> {
        let child = self.table_id(child_table)?;
        let parent = self.table_id(parent_table)?;
        let mut cat = self.inner.catalog.write();
        let child_entry = cat.table(child);
        let child_ci = child_entry.schema.column_index(child_col)?;
        let fk = Arc::new(ForeignKey {
            name: format!("fk_{}_{}", child_table, child_col),
            child_table: child,
            child_cols: vec![child_ci],
            parent_table: parent,
            parent_cols: vec![0],
            on_delete,
        });
        cat.edit_table(child, |e| e.fks_as_child.push(fk.clone()));
        cat.edit_table(parent, |e| e.fks_as_parent.push(fk));
        drop(cat);
        self.wal_append(&WalRecord::AddForeignKey {
            child: child_table.into(),
            column: child_col.into(),
            parent: parent_table.into(),
            on_delete: match on_delete {
                OnDelete::Restrict => 0,
                OnDelete::Cascade => 1,
                OnDelete::SetNull => 2,
            },
        })?;
        Ok(())
    }

    /// Whether any foreign keys are declared (diagnostics).
    pub fn foreign_key_count(&self) -> usize {
        let cat = self.inner.catalog.read();
        cat.tables.iter().map(|t| t.fks_as_child.len()).sum()
    }

    /// The one front door for opening transactions: an options builder
    /// carrying isolation, a retry-on-conflict policy, and a trace
    /// label.
    ///
    /// ```ignore
    /// let mut tx = db.txn().isolation(IsolationLevel::Snapshot).begin();
    /// db.txn().retries(3).run(|tx| tx.insert(...))?;
    /// ```
    pub fn txn(&self) -> TxnOptions<'_> {
        TxnOptions {
            db: self,
            isolation: self.inner.config.default_isolation,
            retries: 0,
            label: None,
        }
    }

    pub(crate) fn begin_internal(
        &self,
        isolation: IsolationLevel,
        label: Option<&'static str>,
    ) -> Transaction {
        // a commit this thread deferred must be published first: the new
        // transaction's snapshot and lock requests have to see it
        crate::tail::settle_scope();
        feral_hooks::yield_point(feral_hooks::Site::TxnBegin);
        let id = self.inner.txn_ids.fetch_add(1, Ordering::SeqCst);
        feral_trace::record(
            feral_trace::EventKind::Site(feral_hooks::Site::TxnBegin),
            id,
            isolation as u64,
            label.map_or(0, |l| feral_trace::fnv64(l.as_bytes())),
        );
        // The pipeline reads the clock and registers the snapshot under
        // this thread's active-stripe lock: vacuum computes its horizon
        // holding all stripe locks, so it can never observe an empty active
        // set *after* this transaction has taken its snapshot but *before*
        // it is registered (which would let vacuum reclaim versions this
        // snapshot still needs).
        let (snapshot, active_stripe) = self.inner.pipeline.register_active(id, &self.inner.clock);
        if let Some(auditor) = &self.inner.auditor {
            // The begin timestamp pins the auditor's GC watermark: no
            // dependency node this transaction could still reference is
            // reclaimed while it runs.
            auditor.observe_begin(id, snapshot);
        }
        // At snapshot-taking levels the begin observes the clock: its
        // order against commit publishes (clock `Incr`s) is meaningful.
        // Read Committed never consults this snapshot for visibility or
        // first-updater checks, so its begin commutes with commits.
        if isolation.txn_level_snapshot() && feral_hooks::active() {
            feral_hooks::note_access(feral_hooks::Access {
                space: "clock",
                what: feral_hooks::fnv64(b"clock"),
                mode: feral_hooks::AccessMode::Read,
            });
        }
        Transaction::new(self.clone(), id, active_stripe, isolation, snapshot, label)
    }

    /// Point-in-time export of the runtime audit surface (edge and
    /// cycle counters, per plan-cell commit/anomaly counts, retained
    /// anomaly verdicts). `None` when [`Config::audit_mode`] is `Off`.
    ///
    /// Also reconciles the engine's `audit_*` stats counters with the
    /// auditor's authoritative totals — with batched or background
    /// draining, commit-path deliveries can't see the edges their
    /// footprints eventually produce.
    pub fn audit_snapshot(&self) -> Option<feral_audit::AuditSnapshot> {
        let snap = self.inner.auditor.as_ref().map(|a| a.snapshot())?;
        let stats = &self.inner.stats;
        stats.audit_edges.store(snap.edges, Ordering::SeqCst);
        stats.audit_cycles.store(snap.cycles, Ordering::SeqCst);
        stats.audit_drops.store(snap.drops, Ordering::SeqCst);
        Some(snap)
    }

    /// The configured runtime audit mode.
    pub fn audit_mode(&self) -> AuditMode {
        self.inner.config.audit_mode
    }

    /// Count rows of `table_name` visible to a fresh snapshot.
    pub fn count_rows(&self, table_name: &str) -> DbResult<usize> {
        let id = self.table_id(table_name)?;
        let entry = self.inner.catalog.read().table(id);
        let ts = self.inner.clock.load(Ordering::SeqCst);
        Ok(entry.heap.scan_visible(ts, |_| true).len())
    }

    /// Reclaim version history unreachable by any active snapshot. Returns
    /// the number of versions reclaimed.
    ///
    /// Holds every commit-shard latch for the duration, so no version is
    /// installed mid-sweep. The clock may still advance (commits that
    /// installed earlier publish without a latch), which is harmless: the
    /// horizon is taken under the active-stripe locks, so it is `<=` the
    /// clock and `<=` every present or future snapshot, while an
    /// installed-but-unpublished commit stamped its versions `> clock` —
    /// neither they nor the versions and index postings they supersede
    /// are at or below the horizon.
    pub fn vacuum(&self) -> usize {
        let _latches = self.inner.pipeline.lock_all_shards();
        let horizon = self
            .inner
            .pipeline
            .oldest_active_snapshot(&self.inner.clock);
        let cat = self.inner.catalog.read();
        let mut reclaimed = 0;
        for entry in cat.tables.iter() {
            reclaimed += entry.heap.vacuum(horizon);
            // sweep index postings of rows now dead beyond the horizon
            // (commit installs never remove postings — see commit_inner)
            let dead: std::collections::BTreeSet<_> =
                entry.heap.dead_rows(horizon).into_iter().collect();
            for idx in &entry.indexes {
                idx.sweep_rows(&dead);
            }
        }
        reclaimed
    }
}

/// A certified isolation plan: per transaction-template name, the
/// weakest [`IsolationLevel`] a static analysis proved anomaly-free.
///
/// Produced by `feral-plan infer` and consumed through
/// [`TxnOptions::planned`], which looks a template up and runs the
/// transaction at its assigned level — so provably-safe templates flow
/// through the commit pipeline coordination-free while the unsafe
/// residue keeps its escalated level. Templates absent from the plan
/// fall back to `default` (pick [`IsolationLevel::Serializable`] there
/// to fail safe on unanalyzed code paths).
#[derive(Debug, Clone)]
pub struct IsolationPlan {
    default: IsolationLevel,
    assignments: std::collections::BTreeMap<String, IsolationLevel>,
}

impl IsolationPlan {
    /// Empty plan with `default` as the fallback for unknown templates.
    pub fn new(default: IsolationLevel) -> Self {
        IsolationPlan {
            default,
            assignments: std::collections::BTreeMap::new(),
        }
    }

    /// Record (or overwrite) the assigned level for `template`.
    pub fn assign(&mut self, template: impl Into<String>, level: IsolationLevel) {
        self.assignments.insert(template.into(), level);
    }

    /// The level `template` runs at: its assignment, else the default.
    pub fn level_for(&self, template: &str) -> IsolationLevel {
        self.assignments
            .get(template)
            .copied()
            .unwrap_or(self.default)
    }

    /// The fallback level for templates the plan doesn't cover.
    pub fn default_level(&self) -> IsolationLevel {
        self.default
    }

    /// Whether `template` has an explicit assignment (as opposed to
    /// falling back to the fail-safe default level).
    pub fn assigned(&self, template: &str) -> bool {
        self.assignments.contains_key(template)
    }

    /// Iterate assignments in template-name order.
    pub fn assignments(&self) -> impl Iterator<Item = (&str, IsolationLevel)> {
        self.assignments.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of explicit template assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the plan has no explicit assignments.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

/// Options for opening a transaction — the single front door (the old
/// `begin` / `begin_with` / `transaction` / `transaction_with` quartet
/// is gone). Built by [`Database::txn`].
#[must_use = "TxnOptions does nothing until .begin() or .run(..)"]
pub struct TxnOptions<'a> {
    db: &'a Database,
    isolation: IsolationLevel,
    retries: usize,
    label: Option<&'static str>,
}

impl TxnOptions<'_> {
    /// Isolation level for the transaction (defaults to
    /// [`Config::default_isolation`]).
    pub fn isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Retry [`TxnOptions::run`] up to `retries` extra times when the
    /// transaction aborts with a concurrency conflict (write conflict,
    /// serialization failure, or lock timeout). Ignored by
    /// [`TxnOptions::begin`].
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Attach a trace label: its FNV-1a hash is recorded in the `begin`
    /// trace event's `b` payload, so flight-recorder dumps can name the
    /// application operation a transaction belongs to.
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }

    /// Run the transaction at the level a certified [`IsolationPlan`]
    /// assigned to `template`, and label the trace with the template
    /// name. Equivalent to
    /// `.isolation(plan.level_for(template)).label(template)`.
    /// A template the plan does not cover escalates to the plan's
    /// fail-safe default and bumps
    /// [`Stats::plan_failsafe_escalations`] — the audit watchdog's
    /// signal that unanalyzed code paths are reaching the database.
    pub fn planned(self, plan: &IsolationPlan, template: &'static str) -> Self {
        if !plan.assigned(template) {
            Stats::bump(&self.db.inner.stats.plan_failsafe_escalations);
        }
        self.isolation(plan.level_for(template)).label(template)
    }

    /// Open the transaction.
    pub fn begin(self) -> Transaction {
        self.db.begin_internal(self.isolation, self.label)
    }

    /// Run `f` inside a transaction, committing on `Ok` and rolling back
    /// on `Err`; conflict aborts are retried per [`TxnOptions::retries`]
    /// (each retry re-runs `f` in a fresh transaction).
    pub fn run<T>(self, mut f: impl FnMut(&mut Transaction) -> DbResult<T>) -> DbResult<T> {
        let mut retries_left = self.retries;
        loop {
            let mut tx = self.db.begin_internal(self.isolation, self.label);
            let result = match f(&mut tx) {
                Ok(v) => tx.commit().map(|()| v),
                Err(e) => {
                    tx.rollback();
                    Err(e)
                }
            };
            match result {
                Err(e) if retries_left > 0 && e.is_retryable() => {
                    retries_left -= 1;
                    let inner = &self.db.inner;
                    inner.pipeline.yield_until_published(&inner.clock);
                }
                other => return other,
            }
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("clock", &self.inner.clock.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Datum};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(name, vec![ColumnDef::new("k", DataType::Text)])
    }

    #[test]
    fn create_table_registers_pkey_index() {
        let db = Database::in_memory();
        db.create_table(schema("users")).unwrap();
        let cat = db.inner.catalog.read();
        assert!(cat.index_names.contains_key("users_pkey"));
        let entry = cat.table(TableId(0));
        assert_eq!(entry.indexes.len(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::in_memory();
        db.create_table(schema("users")).unwrap();
        assert!(matches!(
            db.create_table(schema("users")),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn isolation_level_parsing() {
        assert_eq!(
            IsolationLevel::parse("read-committed"),
            Some(IsolationLevel::ReadCommitted)
        );
        assert_eq!(
            IsolationLevel::parse("Repeatable Read"),
            Some(IsolationLevel::RepeatableRead)
        );
        assert_eq!(IsolationLevel::parse("si"), Some(IsolationLevel::Snapshot));
        assert_eq!(
            IsolationLevel::parse("serializable"),
            Some(IsolationLevel::Serializable)
        );
        assert_eq!(IsolationLevel::parse("chaos"), None);
    }

    #[test]
    fn table_lookup_and_names() {
        let db = Database::in_memory();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        assert_eq!(db.table_id("b").unwrap(), TableId(1));
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert!(db.table_id("c").is_err());
    }

    #[test]
    fn index_name_collision_rejected() {
        let db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        db.create_index("t", &["k"], false).unwrap();
        assert!(matches!(
            db.create_index("t", &["k"], false),
            Err(DbError::IndexExists(_))
        ));
    }

    /// Ids the table's sequence hands out fill the primary key's dense
    /// run; explicit ids far past it, at or below zero, or re-posted
    /// before vacuum swept their dead row spill without growing it, and
    /// vacuum leaves one posting per live row.
    #[test]
    fn explicit_ids_spill_without_growing_the_dense_run() {
        use crate::index::DENSE_SLACK;
        let db = Database::in_memory();
        db.create_table(schema("users")).unwrap();
        let insert = |id: Datum| {
            db.txn()
                .run(|tx| tx.insert("users", vec![id.clone(), Datum::text("k")]))
        };
        for _ in 0..10 {
            insert(Datum::Null).unwrap();
        }
        let pkey = || db.inner.catalog.read().table(TableId(0)).indexes[0].clone();
        let dense = pkey().dense_len();
        assert!(dense >= 10);
        let past = (dense + DENSE_SLACK + 1) as i64;
        for id in [i64::MAX, 0, -5, past] {
            insert(Datum::Int(id)).unwrap();
            assert!(matches!(
                insert(Datum::Int(id)),
                Err(DbError::UniqueViolation { .. })
            ));
        }
        assert_eq!(pkey().dense_len(), dense);
        // a deleted id's posting stays until vacuum; its re-insert spills
        db.txn()
            .run(|tx| {
                let (row, _) = tx.get_by_id("users", 7)?.expect("id 7 exists");
                tx.delete("users", row)
            })
            .unwrap();
        insert(Datum::Int(7)).unwrap();
        assert_eq!((pkey().key_count(), pkey().posting_count()), (14, 15));
        db.vacuum();
        assert_eq!((pkey().key_count(), pkey().posting_count()), (14, 14));
        assert_eq!(pkey().dense_len(), dense);
    }
}
