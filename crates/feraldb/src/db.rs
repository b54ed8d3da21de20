//! The database object: catalog, clock, lock manager, commit pipeline.

use crate::commit::CommitPipeline;
use crate::error::{DbError, DbResult};
use crate::hash::WordHash;
use crate::heap::Heap;
use crate::index::{IndexData, IndexKey};
use crate::lock::LockManager;
use crate::schema::{ForeignKey, IndexDef, IndexId, OnDelete, TableId, TableInfo, TableSchema};
use crate::stats::Stats;
use crate::txn::Transaction;
use crate::value::{Datum, Row};
use crate::wal::{read_log, truncate_log, WalRecord, WalWrite, WalWriter};
use feral_audit::{AuditMode, Auditor};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
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
#[derive(Clone)]
pub(crate) struct TableEntry {
    pub(crate) schema: TableSchema,
    /// FNV-1a of the table's name, computed when the table is created:
    /// what a schedule hook's table access, the trace and the auditor
    /// name the table by.
    pub(crate) name_hash: u64,
    /// The table's name as a logged write names it: shared by every
    /// `WalWrite` of the table, not copied into each.
    pub(crate) log_name: Arc<str>,
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

/// The `id_seq` value that hands out the id after `last`: `i64::MIN` once
/// `last` is `i64::MAX`, which `next_id` reads as exhausted.
fn sequence_after(last: i64) -> i64 {
    last.checked_add(1).unwrap_or(i64::MIN)
}

impl TableEntry {
    /// The next id of the table's sequence. A sequence starts at 1 and
    /// hands out positive ids only: once it has handed out `i64::MAX`, or
    /// recovered it from the log, `fetch_add` leaves it negative, and
    /// every later request fails instead of wrapping around.
    pub(crate) fn next_id(&self) -> DbResult<i64> {
        let id = self.id_seq.fetch_add(1, Ordering::SeqCst);
        if id > 0 {
            Ok(id)
        } else {
            Err(DbError::SequenceExhausted(self.schema.name.clone()))
        }
    }
}

/// The first non-NULL value of column `col` among `child`'s installed
/// rows that is the id of no live installed row of `parent`.
fn first_orphan(child: &TableEntry, col: usize, parent: &TableEntry) -> Option<Datum> {
    let parents = parent.heap.scan_latest(|_| true);
    let ids: HashSet<IndexKey> = parents
        .iter()
        .map(|(_, t)| IndexKey::encode([&t[0]]))
        .collect();
    let references = child.heap.scan_latest(|t| !t[col].is_null());
    let mut values = references.into_iter().map(|(_, tuple)| tuple[col].clone());
    values.find(|id| !ids.contains(&IndexKey::encode([id])))
}

/// Catalog: names → tables/indexes/constraints. The name maps hash with
/// the engine's seedless [`WordHash`]: every statement that names its table
/// looks it up.
#[derive(Default)]
pub(crate) struct Catalog {
    pub(crate) tables: Vec<Arc<TableEntry>>,
    pub(crate) table_names: HashMap<String, TableId, WordHash>,
    /// Index name → id. Ids are dense in creation order; the data hangs
    /// off the owning table's entry.
    pub(crate) index_names: HashMap<String, IndexId, WordHash>,
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
            *slot = Arc::new(TableEntry::clone(slot));
        }
        edit(Arc::get_mut(slot).expect("the entry was just made unique"));
    }
}

pub(crate) struct DbInner {
    /// This database's number, unique in the process (never reused, unlike
    /// the address of a dropped database's state): what a thread's block
    /// of transaction ids and a [`TableHandle`] are keyed by.
    pub(crate) number: u64,
    pub(crate) config: Config,
    pub(crate) catalog: RwLock<Catalog>,
    /// Bumped, under the catalog's write latch and before the edit, by
    /// every change to a table entry: a new index, a new foreign key. A
    /// transaction carries the table entries its statements resolved to
    /// commit; one that began under an older epoch re-resolves them there,
    /// under its shard latches, so a row is never installed past a new
    /// index. A [`TableHandle`] resolved under an older epoch is stale.
    pub(crate) catalog_epoch: AtomicU64,
    pub(crate) locks: LockManager,
    /// Logical clock: the newest published commit timestamp.
    pub(crate) clock: AtomicU64,
    /// The sharded commit pipeline: shard latches, active-transaction
    /// stripes, timestamp allocation, group-commit batching, and
    /// timestamp-ordered publication.
    pub(crate) pipeline: CommitPipeline,
    /// Transaction id allocator: each thread draws a block of
    /// [`TXN_ID_BLOCK`] ids at a time (see `next_txn_id`).
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

/// Numbers handed to databases as they are constructed (0 is nobody's).
static DATABASES: AtomicU64 = AtomicU64::new(1);

/// Transaction ids a thread takes from `DbInner::txn_ids` at a time: a
/// begin writes a line of its own thread, not one every thread writes.
/// Ids stay unique per database; they are not ordered across threads, and
/// nothing reads an order into them (lock waits end by timeout, audit
/// sampling takes `id % n`, and the auditor's watermark and graph order
/// by begin and commit timestamps).
const TXN_ID_BLOCK: u64 = 64;

thread_local! {
    /// This thread's block of transaction ids: the number of the database
    /// it was drawn from, the next id and the end of the block.
    static TXN_ID_BLOCK_OF: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// The next transaction id of `inner` on this thread.
fn next_txn_id(inner: &DbInner) -> u64 {
    TXN_ID_BLOCK_OF.with(|block| {
        let (number, mut next, mut end) = block.get();
        if number != inner.number || next == end {
            next = inner.txn_ids.fetch_add(TXN_ID_BLOCK, Ordering::Relaxed);
            end = next + TXN_ID_BLOCK;
        }
        block.set((inner.number, next + 1, end));
        next
    })
}

/// A table resolved once, by [`Database::table`]: a statement that names
/// its table by a current handle takes no catalog latch and clones
/// nothing. A handle is current while no catalog change has touched any
/// table entry since it was resolved (`DbInner::catalog_epoch`), and only
/// in the database that resolved it. A statement given a stale handle
/// resolves the table by name, as if it had been given the name; the
/// holder re-resolves it with [`Database::table`].
#[derive(Clone)]
pub struct TableHandle {
    pub(crate) id: TableId,
    pub(crate) entry: Arc<TableEntry>,
    database: u64,
    epoch: u64,
}

impl TableHandle {
    /// The table's id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.entry.schema.name
    }

    /// Whether statements of `db`'s transactions use this handle as it
    /// is (see [`TableHandle`]).
    pub fn is_current(&self, db: &Database) -> bool {
        self.is_current_in(&db.inner)
    }

    pub(crate) fn is_current_in(&self, inner: &DbInner) -> bool {
        self.database == inner.number && self.epoch == inner.catalog_epoch.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle")
            .field("table", &self.name())
            .field("epoch", &self.epoch)
            .finish()
    }
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
            Mutex::leaf(w)
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
                number: DATABASES.fetch_add(1, Ordering::Relaxed),
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
    ///
    /// The writer is a leaf lock and `f` takes latches, so a helper
    /// thread holds it while `f` runs here.
    #[doc(hidden)]
    pub fn with_wal_stalled<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(wal) = &self.inner.wal else {
            return f();
        };
        let (held, stalled) = mpsc::channel();
        let (release, done) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _writer = wal.lock();
                let _ = held.send(());
                // until `release` is dropped: when `f` returns or panics
                let _ = done.recv();
            });
            let _ = stalled.recv();
            let _release = release;
            f()
        })
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
            cat.table(tid)
                .id_seq
                .store(sequence_after(max_id), Ordering::SeqCst);
        }
        drop(cat);
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
            name_hash: feral_hooks::fnv64(schema.name.as_bytes()),
            log_name: schema.name.as_str().into(),
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

    /// Resolve `name` to a [`TableHandle`], for statements that should
    /// take no catalog latch.
    pub fn table(&self, name: &str) -> DbResult<TableHandle> {
        let cat = self.inner.catalog.read();
        let (id, entry) = cat.resolve(name)?;
        Ok(TableHandle {
            id,
            entry: entry.clone(),
            database: self.inner.number,
            epoch: self.inner.catalog_epoch.load(Ordering::Acquire),
        })
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
        // A unique index over duplicate live rows fails (as ALTER TABLE
        // would). The backfill then posts the key of every version, not
        // only the newest live one: a snapshot older than the index still
        // reaches the rows it sees, and readers re-verify what a posting
        // resolves to, as they do the old-key postings an update leaves.
        if unique {
            let mut seen = HashSet::new();
            for (_, tuple) in entry.heap.scan_latest(|t| !data.key_has_null(t)) {
                if let Some(key) = seen.replace(data.key_of(&tuple)) {
                    return Err(DbError::UniqueViolation {
                        index: name.into(),
                        key: format!("{:?}", key),
                    });
                }
            }
        }
        for (row, tuple) in entry.heap.scan_versions() {
            data.insert_entry(data.key_of(&tuple), row);
        }
        cat.index_names.insert(name.into(), id);
        let wal_record = WalRecord::CreateIndex {
            name: name.into(),
            table: entry.schema.name.clone(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
            unique,
        };
        self.inner.catalog_epoch.fetch_add(1, Ordering::SeqCst);
        cat.edit_table(table, |e| e.indexes.push(data));
        drop(cat);
        drop(latch);
        self.wal_append(&wal_record)?;
        Ok(id)
    }

    /// Declare an in-database foreign key: `child(child_col)` references
    /// `parent(id)`. The migration-style counterpart of a Rails
    /// `belongs_to` + `foreigner` gem annotation. Like a unique index over
    /// duplicates, a key over committed child rows that name no parent is
    /// refused: both tables' commit latches are held from that check to
    /// registration, so no commit installs in between. (A transaction
    /// already open when the key lands is not re-checked at its commit.)
    pub fn add_foreign_key(
        &self,
        child_table: &str,
        child_col: &str,
        parent_table: &str,
        on_delete: OnDelete,
    ) -> DbResult<()> {
        let child = self.table_id(child_table)?;
        let parent = self.table_id(parent_table)?;
        let pipeline = &self.inner.pipeline;
        let tables = 1 << pipeline.shard_of(child) | 1 << pipeline.shard_of(parent);
        let latches = pipeline.lock_shards(tables, &self.inner.stats);
        let mut cat = self.inner.catalog.write();
        let child_entry = cat.table(child);
        let child_ci = child_entry.schema.column_index(child_col)?;
        let name = format!("fk_{}_{}", child_table, child_col);
        // a logged key was accepted when it was logged: replay applies it
        if !self.inner.wal_suppressed.load(Ordering::SeqCst) {
            let parent_entry = cat.table(parent);
            if let Some(orphan) = first_orphan(&child_entry, child_ci, &parent_entry) {
                return Err(DbError::ForeignKeyViolation {
                    constraint: name,
                    detail: format!("existing reference {orphan} names no parent"),
                });
            }
        }
        let fk = Arc::new(ForeignKey {
            name,
            child_table: child,
            child_cols: vec![child_ci],
            parent_table: parent,
            parent_cols: vec![0],
            on_delete,
        });
        self.inner.catalog_epoch.fetch_add(1, Ordering::SeqCst);
        cat.edit_table(child, |e| e.fks_as_child.push(fk.clone()));
        cat.edit_table(parent, |e| e.fks_as_parent.push(fk));
        drop(cat);
        drop(latches);
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
            db: Cow::Borrowed(self),
            isolation: self.inner.config.default_isolation,
            retries: 0,
            label: None,
        }
    }

    /// [`Database::txn`] on a handle the transaction takes as it is,
    /// instead of a clone of it: a caller that owns a handle lends it to
    /// each transaction and takes it back from the finished one with
    /// [`Transaction::into_database`], so a begin writes no reference
    /// count that every thread writes.
    pub fn into_txn(self) -> TxnOptions<'static> {
        TxnOptions {
            isolation: self.inner.config.default_isolation,
            db: Cow::Owned(self),
            retries: 0,
            label: None,
        }
    }

    fn begin_internal(self, isolation: IsolationLevel, label: Option<&'static str>) -> Transaction {
        // a commit this thread deferred must be published first: the new
        // transaction's snapshot and lock requests have to see it
        crate::tail::settle_scope();
        feral_hooks::yield_point(feral_hooks::Site::TxnBegin);
        let id = next_txn_id(&self.inner);
        if feral_trace::enabled() {
            feral_trace::record(
                feral_trace::EventKind::Site(feral_hooks::Site::TxnBegin),
                id,
                isolation as u64,
                label.map_or(0, |l| feral_trace::fnv64(l.as_bytes())),
            );
        }
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
        Transaction::new(self, id, active_stripe, isolation, snapshot, label)
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
        let _latches = self.inner.pipeline.lock_shards(u64::MAX, &self.inner.stats);
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
    db: Cow<'a, Database>,
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

    /// Open the transaction, on a clone of the handle [`Database::txn`]
    /// was called on, or on the one [`Database::into_txn`] was given.
    pub fn begin(self) -> Transaction {
        self.db
            .into_owned()
            .begin_internal(self.isolation, self.label)
    }

    /// Run `f` inside a transaction, committing on `Ok` and rolling back
    /// on `Err`; conflict aborts are retried per [`TxnOptions::retries`]
    /// (each retry re-runs `f` in a fresh transaction).
    pub fn run<T>(self, mut f: impl FnMut(&mut Transaction) -> DbResult<T>) -> DbResult<T> {
        let mut retries_left = self.retries;
        let mut db = self.db.into_owned();
        loop {
            let mut tx = db.begin_internal(self.isolation, self.label);
            let result = match f(&mut tx) {
                Ok(v) => tx.commit().map(|()| v),
                Err(e) => Err(e),
            };
            db = tx.into_database();
            match result {
                Err(e) if retries_left > 0 && e.is_retryable() => {
                    retries_left -= 1;
                    let inner = &db.inner;
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

    /// A live sequence hands out `i64::MAX` and then refuses every later
    /// request, however many, instead of wrapping to `i64::MIN`.
    #[test]
    fn a_sequence_hands_out_i64_max_and_then_nothing() {
        let db = Database::in_memory();
        db.create_table(schema("users")).unwrap();
        db.inner.catalog.read().tables[0]
            .id_seq
            .store(i64::MAX, Ordering::SeqCst);
        let insert = || {
            db.txn()
                .run(|tx| tx.insert("users", vec![Datum::Null, Datum::text("k")]))
        };
        insert().unwrap();
        for _ in 0..3 {
            assert_eq!(insert(), Err(DbError::SequenceExhausted("users".into())));
        }
        let mut tx = db.txn().begin();
        let (_, row) = tx.get_by_id("users", i64::MAX).unwrap().unwrap();
        assert_eq!(row[0], Datum::Int(i64::MAX));
        assert_eq!(db.count_rows("users").unwrap(), 1);
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
