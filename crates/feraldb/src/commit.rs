//! The sharded commit pipeline: per-shard commit latches, the group-commit
//! WAL batch buffer, and timestamp-ordered publication.
//!
//! The seed engine serialized every commit behind one global
//! `commit_mutex`. That mutex conflated four distinct roles:
//!
//! 1. **commit-timestamp allocation** and the atomicity of version
//!    installation against it,
//! 2. the **serializable validation window** (no concurrent commit may
//!    land between a transaction's read-set validation and its install),
//! 3. **WAL ordering** (log order had to match timestamp order), and
//! 4. deterministic **insert row-id assignment** (heap positions are
//!    recorded in the redo log and verified on replay).
//!
//! This module re-provides each role without global serialization:
//!
//! * Tables are hash-partitioned over `Config::commit_shards` **commit
//!   shards** (`shard_of`, at most [`MAX_SHARDS`]: a shard set is one
//!   `u64`). A committing transaction latches the shards
//!   of every table it wrote — plus, under Serializable, every table it
//!   read — in **ascending shard order** (canonical order ⇒ no
//!   latch-latch deadlock). Non-overlapping transactions proceed in
//!   parallel. Each shard owns the slice of committed-transaction write
//!   summaries for its tables, so serializable validation reads exactly
//!   the histories its latches protect (role 2), and same-table row-id
//!   assignment is serialized by the table's shard latch (role 4). The
//!   committer that pushes a slice past twice the retention floor prunes
//!   it, under the latch it already holds (`push_history`).
//! * Commit timestamps are allocated from `ts_alloc` only **after** a
//!   transaction holds its full latch set; on the WAL path the
//!   allocation happens inside the group-buffer mutex, so log order
//!   equals timestamp order (role 3). Deadlock-freedom: a transaction
//!   with an allocated timestamp never blocks on a latch again, so the
//!   lowest unpublished timestamp can always make progress.
//! * The latches cover only what they order: validate → queue the WAL
//!   record → install versions → push the history summary, then they
//!   **drop**. Installed versions carry `begin = ts > clock`, so no
//!   snapshot sees them yet. What the commit still owes — durable wait,
//!   publish, audit, lock release — is its *tail*
//!   ([`CommitTail`](crate::tail::CommitTail)), settled with no latch
//!   held. `publish` advances the clock strictly in timestamp order — so
//!   `clock = T` implies every commit `≤ T` is fully installed **and in
//!   the log**, the invariant every snapshot read relies on.
//! * The **group-commit buffer** batches framed WAL records. Whoever
//!   wants a record durable and finds no flush in flight becomes the
//!   *leader* (`lead`): it may linger up to `group_commit_max_wait` for
//!   its first batch to fill (bounded by `group_commit_max_batch`), then
//!   writes batch after batch, one flush (+ optional fsync) each. A
//!   synchronous committer sleeps in `wait_durable` until its sequence
//!   number is durable. A **deferred** commit (`feral_db::defer_durable`)
//!   sleeps nowhere: its tail is `park`ed in the buffer, and the leader
//!   hands every parked tail a flush covered to a non-blocking `publish`
//!   — the tail is completed, and its caller's callback run, by whoever
//!   advances the clock over its timestamp. So one fsync covers every
//!   commit in flight however few threads there are. A tail parked with
//!   no flush in flight makes its parker the leader, and the parker may
//!   **decline**: `park` claims `flushing` under the buffer mutex and
//!   returns the flush loop still to run as a
//!   [`FlushLead`](crate::FlushLead), which the caller runs on the
//!   thread it would rather have sleep in the fsync — or drops, which
//!   runs it on the spot.
//! * **No orphans**: a stamped record always has someone who will flush
//!   it — its own committer until it sleeps in `wait_durable` or parks its
//!   tail, the leader from then on. The leader leaves only under the
//!   buffer mutex and only when no parked tail remains (see `lead`); a
//!   lead not yet run is a leader all the same — `flushing` is set, so
//!   nobody else will lead, and the `FlushLead` cannot be discarded
//!   without running. Tails are completed with neither the buffer mutex
//!   nor the publish lock held; both stay terminal.
//! * A failed flush **poisons** the log (`broken`) and **freezes the
//!   clock** at the last durable timestamp: the file may end in torn
//!   bytes and recovery stops at the first tear, so acknowledging any
//!   record behind it would be a durability lie. Committers of the
//!   failed batch and of records queued behind it get the error and
//!   never publish (their versions stay above the clock, invisible);
//!   every parked tail is completed with the error, exactly once, by the
//!   leader whose flush failed (its locks are released, its callback
//!   told); a tail parked later is completed with it on the spot.
//!   Records already durable still publish; later appends fail fast.
//!
//! Under a `feral_hooks` scheduler commits are **turn-atomic**: the only
//! yield point on the commit path is `Site::TxnCommit` at entry, so sim
//! schedules never contend the latches or the group buffer and the
//! schedule space (and every recorded witness) is unchanged. The
//! pipeline still emits `Site::CommitShard` / `Site::WalFlush` trace
//! events, and its waits are hooks-aware (`WaitKind::Commit`) in case a
//! future revision makes commit interleavable.

use crate::error::{DbError, DbResult};
use crate::lock::TxnId;
use crate::schema::TableId;
use crate::stats::Stats;
use crate::tail::{FlushLead, ParkedTail};
use crate::txn::CommittedTxn;
use crate::wal::{frame_record, WalRecord, WalWriter};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One commit shard's latched state: the committed-history slice for the
/// tables that hash to this shard. A committing transaction pushes its
/// write summary into the history of **every** shard it wrote (duplicate
/// `Arc`s when a transaction spans shards), so a serializable validator
/// holding its read-table shards sees every summary it must check.
pub(crate) struct ShardCore {
    /// Write summaries of committed transactions touching this shard's
    /// tables, oldest at front. Per-shard push order equals timestamp
    /// order (timestamps are allocated under the full latch set).
    pub(crate) history: VecDeque<Arc<CommittedTxn>>,
}

/// Most commit shards a pipeline runs with: a shard set is one `u64`.
pub(crate) const MAX_SHARDS: usize = 64;

/// The shard latches one commit holds, by shard index.
pub(crate) struct ShardGuards<'a> {
    cores: [Option<MutexGuard<'a, ShardCore>>; MAX_SHARDS],
}

impl ShardGuards<'_> {
    /// The committed-history slices under the held latches.
    pub(crate) fn histories(&self) -> impl Iterator<Item = &VecDeque<Arc<CommittedTxn>>> {
        self.cores.iter().flatten().map(|core| &core.history)
    }
}

/// One thread stripe of the active-snapshot registry (txn id, snapshot
/// ts), padded so a thread's begin/finish writes a line no other thread's
/// does. A transaction registers on the stripe of the thread that begins
/// it and carries the stripe index to wherever it finishes — a deferred
/// commit's tail completes on the flusher's thread. A stripe holds the
/// handful of transactions its threads have open, so it is a plain list.
#[repr(align(128))]
struct ActiveStripe {
    txns: Mutex<Vec<(TxnId, u64)>>,
}

/// The group-commit buffer: framed records awaiting one leader flush.
struct GroupState {
    /// Framed records in enqueue (= sequence, = timestamp) order.
    buf: VecDeque<Vec<u8>>,
    /// Sequence number the next enqueued record will get (first = 1).
    next_seq: u64,
    /// Records with sequence `<= durable_seq` are flushed (and synced,
    /// when configured).
    durable_seq: u64,
    /// A leader flush is in flight.
    flushing: bool,
    /// Size of the most recent batch — the leader's concurrency hint:
    /// a solo steady state (last batch = 1) skips the fill linger, so
    /// group commit costs uncontended workloads nothing.
    last_take: usize,
    /// `Err` after a failed flush: the log tail may be torn, so every later
    /// append must fail (records behind a tear are unrecoverable).
    broken: DbResult<()>,
    /// Tails of deferred commits whose record is not durable yet, in
    /// sequence order. Non-empty only while `flushing`: the leader owns
    /// them until the flush that covers them (or poisons the log).
    parked: VecDeque<Box<ParkedTail>>,
}

/// Sharded commit state: shard latches + history slices, the active-txn
/// stripes, the timestamp allocator, the publish clock wait, and the
/// group-commit buffer.
///
/// The latch discipline below is declared for `feral-racer` and checked
/// on every tier-1 run: shard latches are outermost (taken ascending,
/// see [`CommitPipeline::lock_shards`]), and the group buffer and
/// publish lock are terminal — nothing else is ever acquired under
/// them. The flush loop upholds the group terminal by dropping its
/// guard around the WAL write and around the hand-off of parked tails;
/// `publish` collects the tails it advanced over and completes them
/// after dropping the publish lock. All of it runs with no shard latch
/// held (`racer/tests/live_tree.rs` pins the absent edges).
// racer:order feraldb::CommitPipeline::shards < feraldb::CommitPipeline::group
// racer:order feraldb::CommitPipeline::shards < feraldb::ActiveStripe::txns
// racer:terminal feraldb::CommitPipeline::group
// racer:terminal feraldb::CommitPipeline::publish_lock
// racer:terminal feraldb::DbInner::wal
pub(crate) struct CommitPipeline {
    shards: Vec<Mutex<ShardCore>>,
    /// Active-transaction snapshots, striped by the beginning thread so
    /// begin/finish on different threads touch different lines.
    active: Vec<ActiveStripe>,
    /// Highest allocated commit timestamp (the clock trails it until
    /// publication catches up).
    ts_alloc: AtomicU64,
    /// Timestamps installed and durable, parked until a predecessor
    /// publishes: `None` for a committer asleep on `publish_cv`, the tail
    /// itself for a deferred commit nobody is waiting on.
    publish_lock: Mutex<BTreeMap<u64, Option<Box<ParkedTail>>>>,
    publish_cv: Condvar,
    group: Mutex<GroupState>,
    /// Signaled when a batch flush completes (or the log breaks).
    flushed_cv: Condvar,
    /// Signaled when a record joins the batch (leader fill wait).
    fill_cv: Condvar,
    max_batch: usize,
    max_wait: Duration,
    /// Times the horizon was computed (every stripe lock taken).
    #[cfg(test)]
    pub(crate) horizon_scans: AtomicU64,
}

impl CommitPipeline {
    pub(crate) fn new(shards: usize, max_batch: usize, max_wait: Duration) -> CommitPipeline {
        let n = shards.clamp(1, MAX_SHARDS);
        CommitPipeline {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(ShardCore {
                        history: VecDeque::new(),
                    })
                })
                .collect(),
            active: (0..n)
                .map(|_| ActiveStripe {
                    txns: Mutex::new(Vec::new()),
                })
                .collect(),
            ts_alloc: AtomicU64::new(1),
            publish_lock: Mutex::new(BTreeMap::new()),
            publish_cv: Condvar::new(),
            group: Mutex::new(GroupState {
                buf: VecDeque::new(),
                next_seq: 1,
                durable_seq: 0,
                flushing: false,
                last_take: 1,
                broken: Ok(()),
                parked: VecDeque::new(),
            }),
            flushed_cv: Condvar::new(),
            fill_cv: Condvar::new(),
            max_batch: max_batch.max(1),
            max_wait,
            #[cfg(test)]
            horizon_scans: AtomicU64::new(0),
        }
    }

    /// Number of commit shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a table's commits are latched by.
    pub(crate) fn shard_of(&self, table: TableId) -> usize {
        table.0 as usize % self.shards.len()
    }

    /// Acquire the shard set `mask` (bit `i` = shard `i`) in canonical
    /// (ascending) order. Contended acquisitions are counted in
    /// `commit_shard_conflicts`.
    pub(crate) fn lock_shards(&self, mask: u64, stats: &Stats) -> ShardGuards<'_> {
        let mut held = ShardGuards {
            cores: [const { None }; MAX_SHARDS],
        };
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            held.cores[i] = Some(match shard.try_lock() {
                Some(g) => g,
                None => {
                    Stats::bump(&stats.local().commit_shard_conflicts);
                    shard.lock()
                }
            });
        }
        held
    }

    /// Push a commit's summary onto the history of every shard in
    /// `written` (all held in `held`), so a serializable validator
    /// latching any of its read-table shards sees it. A slice this pushes
    /// past twice `floor` is pruned back to `floor` (or to what an active
    /// snapshot can still conflict with) here, under the latch; only then
    /// is the horizon computed — it takes every active-stripe lock.
    pub(crate) fn push_history(
        &self,
        held: &mut ShardGuards<'_>,
        written: u64,
        summary: &Arc<CommittedTxn>,
        clock: &AtomicU64,
        floor: usize,
    ) {
        let mut horizon = None;
        for (i, core) in held.cores.iter_mut().enumerate() {
            let Some(core) = core.as_mut().filter(|_| written & (1 << i) != 0) else {
                continue;
            };
            core.history.push_back(summary.clone());
            if core.history.len() <= 2 * floor.max(1) {
                continue;
            }
            let horizon = *horizon.get_or_insert_with(|| self.oldest_active_snapshot(clock));
            while core.history.len() > floor
                && core.history.front().is_some_and(|c| c.commit_ts <= horizon)
            {
                core.history.pop_front();
            }
        }
    }

    /// Latch every shard (ascending). Freezes installs, not the clock:
    /// commits already installed may still publish. Vacuum uses this so
    /// no version lands mid-sweep.
    pub(crate) fn lock_all_shards(&self) -> Vec<MutexGuard<'_, ShardCore>> {
        self.shards.iter().map(|s| s.lock()).collect()
    }

    /// Fast-forward the allocator after WAL replay.
    pub(crate) fn set_ts_floor(&self, ts: u64) {
        self.ts_alloc.fetch_max(ts, Ordering::SeqCst);
    }

    // -- active-transaction stripes -------------------------------------

    /// Register a beginning transaction on the calling thread's stripe:
    /// read the clock and record the snapshot under the stripe lock, so a
    /// vacuum holding every stripe lock can never miss a registration
    /// that already took its snapshot. Returns the snapshot and the
    /// stripe, which the transaction hands back to `deregister_active`.
    pub(crate) fn register_active(&self, id: TxnId, clock: &AtomicU64) -> (u64, usize) {
        let stripe = crate::stats::thread_slot() % self.active.len();
        let mut txns = self.active[stripe].txns.lock();
        let snapshot = clock.load(Ordering::SeqCst);
        txns.push((id, snapshot));
        (snapshot, stripe)
    }

    /// Remove a finished transaction from the stripe it registered on.
    pub(crate) fn deregister_active(&self, stripe: usize, id: TxnId) {
        let mut txns = self.active[stripe].txns.lock();
        if let Some(at) = txns.iter().position(|(txn, _)| *txn == id) {
            txns.swap_remove(at);
        }
    }

    /// Oldest snapshot among active transactions, or the clock when none
    /// are active. Holds **all** stripe locks (ascending) while computing
    /// the minimum and reading the fallback clock, mirroring the seed's
    /// single-lock begin/vacuum coordination.
    pub(crate) fn oldest_active_snapshot(&self, clock: &AtomicU64) -> u64 {
        #[cfg(test)]
        self.horizon_scans.fetch_add(1, Ordering::Relaxed);
        let stripes: Vec<_> = self.active.iter().map(|s| s.txns.lock()).collect();
        stripes
            .iter()
            .flat_map(|s| s.iter().map(|(_, snapshot)| *snapshot))
            .min()
            .unwrap_or_else(|| clock.load(Ordering::SeqCst))
    }

    // -- group commit ----------------------------------------------------

    /// Allocate the next commit timestamp and — with a WAL bound (`log`)
    /// — queue the record `build` makes from it, inside the buffer mutex
    /// (log order = timestamp order). Callers hold their full latch set;
    /// they install at `ts`, drop the latches, then settle (or park) the tail.
    /// Errors (without allocating) when the log is poisoned.
    pub(crate) fn stamp_commit(
        &self,
        stats: &Stats,
        log: bool,
        build: impl FnOnce(u64) -> WalRecord,
    ) -> DbResult<(u64, u64)> {
        if !log {
            return Ok((self.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1, 0));
        }
        let mut g = self.group.lock();
        g.broken.clone()?;
        let ts = self.ts_alloc.fetch_add(1, Ordering::SeqCst) + 1;
        let framed = frame_record(&build(ts));
        g.buf.push_back(framed);
        let seq = g.next_seq;
        g.next_seq += 1;
        Stats::bump(&stats.local().wal_appends);
        self.fill_cv.notify_all();
        Ok((ts, seq))
    }

    /// `Err` once a flush has failed: what a validator that trips over
    /// the failed batch's history summaries reports, not a retryable conflict.
    pub(crate) fn check_unbroken(&self) -> DbResult<()> {
        self.group.lock().broken.clone()
    }

    /// Whether a leader is in the flush loop (its batch is already taken).
    pub(crate) fn flush_in_flight(&self) -> bool {
        self.group.lock().flushing
    }

    /// Enqueue a non-commit (DDL) record; no timestamp involved.
    fn enqueue_record(&self, stats: &Stats, record: &WalRecord) -> DbResult<u64> {
        let mut g = self.group.lock();
        g.broken.clone()?;
        g.buf.push_back(frame_record(record));
        let seq = g.next_seq;
        g.next_seq += 1;
        Stats::bump(&stats.local().wal_appends);
        self.fill_cv.notify_all();
        Ok(seq)
    }

    /// Sleep until record `my_seq` is durable, leading the flush whenever
    /// none is in flight. Durability is checked before poison: a record
    /// flushed ahead of a failed batch is acknowledged as usual. On `Err`
    /// the record is not in the log and the caller must not publish its
    /// timestamp.
    pub(crate) fn wait_durable(
        &self,
        writer: &Mutex<WalWriter>,
        stats: &Stats,
        clock: &AtomicU64,
        my_seq: u64,
    ) -> DbResult<()> {
        let mut g = self.group.lock();
        loop {
            if g.durable_seq >= my_seq {
                return Ok(());
            }
            g.broken.clone()?;
            if !g.flushing {
                g.flushing = true;
                drop(g);
                self.lead(writer, stats, clock, Some(my_seq));
                g = self.group.lock();
            } else if feral_hooks::active() {
                // turn-atomic commits make a concurrent flusher
                // impossible under a scheduler; stay live regardless
                drop(g);
                let _ = feral_hooks::wait(feral_hooks::WaitKind::Commit);
                g = self.group.lock();
            } else {
                // the leader is writing our batch (or an earlier one)
                self.flushed_cv.wait(&mut g);
            }
        }
    }

    /// Hand a deferred commit's tail to the flush: nobody sleeps for it.
    /// Already durable → published (and completed) at once; log poisoned →
    /// completed with the error at once; otherwise it joins `parked`, and
    /// the leader will complete it from the flush that covers it. With no
    /// flush in flight the caller *is* the leader: `flushing` is claimed
    /// here, under the group mutex, and the claim comes back as a
    /// [`FlushLead`] — the flush loop still to run, on this thread or on
    /// one the caller would rather have sleep in the fsync.
    pub(crate) fn park(&self, clock: &AtomicU64, parked: Box<ParkedTail>) -> Option<FlushLead> {
        let mut g = self.group.lock();
        if g.durable_seq >= parked.tail.wal_seq {
            drop(g);
            self.publish(clock, parked.tail.commit_ts, Some(parked));
            return None;
        }
        if let Err(e) = g.broken.clone() {
            drop(g);
            parked.complete(Err(e));
            return None;
        }
        let lead = (!g.flushing).then(|| FlushLead::claimed(parked.db.clone()));
        g.flushing = true;
        // registration order is not sequence order across threads
        let seq = parked.tail.wal_seq;
        let at = g.parked.partition_point(|p| p.tail.wal_seq < seq);
        g.parked.insert(at, parked);
        lead
    }

    /// The one flush loop. The caller — or the parker whose
    /// [`FlushLead`] this thread runs — found no flush in flight and the
    /// log unbroken, and claimed `flushing` under the group mutex; it
    /// stays set until this thread leaves, so there is one leader at a
    /// time. Each turn writes up to `max_batch` records with one flush
    /// (+ fsync) and, the group mutex released, hands every parked tail
    /// the flush covered to `publish`.
    ///
    /// The leader may leave only under the group mutex and only when
    /// nothing it is answerable for remains: a thread waiting on its
    /// `own` record leaves once that is durable and no parked tail is
    /// left (what remains in the buffer belongs to sleepers, who wake on
    /// `flushed_cv` and lead, or to deferred committers still on their
    /// way to `park`); a thread with nothing of its own to wait for
    /// flushes until the buffer is empty. Either way no parked tail is
    /// ever left behind `flushing == false` — the no-orphan invariant.
    /// A failed flush poisons the log and completes every parked tail
    /// with the error: none of them can become durable any more.
    pub(crate) fn lead(
        &self,
        writer: &Mutex<WalWriter>,
        stats: &Stats,
        clock: &AtomicU64,
        own: Option<u64>,
    ) {
        let mut g = self.group.lock();
        let concurrency_hint = g.last_take.max(g.buf.len());
        if self.max_wait > Duration::ZERO && !feral_hooks::active() && concurrency_hint > 1 {
            // Linger (first batch only) up to `max_wait` for the batch to
            // fill, exiting early the moment it reaches `max_batch`. The
            // previous batch size gates the linger (PostgreSQL's
            // commit_siblings idea): a solo steady state (last batch = 1)
            // skips it entirely, so group commit costs uncontended
            // workloads nothing, while any observed batching makes the
            // next leader wait and lets the batch grow back to the
            // offered concurrency.
            let deadline = Instant::now() + self.max_wait;
            while g.buf.len() < self.max_batch
                && !self.fill_cv.wait_until(&mut g, deadline).timed_out()
            {}
        }
        loop {
            let take = g.buf.len().min(self.max_batch);
            g.last_take = take.max(1);
            let mut bytes = Vec::new();
            for framed in g.buf.drain(..take) {
                bytes.extend_from_slice(&framed);
            }
            drop(g);
            let result = writer.lock().write_frames(&bytes);
            g = self.group.lock();
            if let Err(e) = result {
                let msg = format!("WAL poisoned by failed flush: {e}");
                g.broken = Err(DbError::Internal(msg));
                g.flushing = false;
                let failed: Vec<Box<ParkedTail>> = g.parked.drain(..).collect();
                let poison = g.broken.clone();
                self.flushed_cv.notify_all();
                drop(g);
                for tail in failed {
                    tail.complete(poison.clone());
                }
                return;
            }
            g.durable_seq += take as u64;
            Stats::bump(&stats.local().group_commit_batches);
            Stats::bump(&stats.local().wal_flushes);
            feral_trace::record(
                feral_trace::EventKind::Site(feral_hooks::Site::WalFlush),
                0,
                take as u64,
                bytes.len() as u64,
            );
            let covered = g
                .parked
                .partition_point(|p| p.tail.wal_seq <= g.durable_seq);
            let durable: Vec<Box<ParkedTail>> = g.parked.drain(..covered).collect();
            let done = g.buf.is_empty()
                || (own.is_some_and(|seq| g.durable_seq >= seq) && g.parked.is_empty());
            g.flushing = !done;
            self.flushed_cv.notify_all();
            drop(g);
            for parked in durable {
                self.publish(clock, parked.tail.commit_ts, Some(parked));
            }
            if done {
                return;
            }
            g = self.group.lock();
        }
    }

    /// Log a DDL record durably through the group buffer (keeps DDL
    /// ordered before the commits that depend on it).
    pub(crate) fn append_durable(
        &self,
        writer: &Mutex<WalWriter>,
        stats: &Stats,
        clock: &AtomicU64,
        record: &WalRecord,
    ) -> DbResult<()> {
        let seq = self.enqueue_record(stats, record)?;
        self.wait_durable(writer, stats, clock, seq)
    }

    // -- publication -----------------------------------------------------

    /// Before a conflict retry: give the core away until every commit
    /// stamped so far has published. The winner may be installed but not
    /// published — descheduled between dropping its latches and `publish`
    /// — and a retry begun before it publishes loses to it again, in
    /// microseconds: a whole retry budget burns inside one quantum.
    /// Bounded, because after a failed flush the clock never catches up.
    pub(crate) fn yield_until_published(&self, clock: &AtomicU64) {
        let stamped = self.ts_alloc.load(Ordering::SeqCst);
        for _ in 0..64 {
            if clock.load(Ordering::SeqCst) >= stamped {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Publish `ts`: the caller's versions are installed and its record is
    /// durable; a timestamp whose flush failed never gets here — that
    /// freezes the clock. Whoever finds the clock right below its own
    /// timestamp advances it over every contiguous successor parked in
    /// `ready`, wakes the sleepers among them and — with `publish_lock`
    /// released — completes the tails among them, in timestamp order.
    ///
    /// With `tail == None` (a synchronous committer) this returns once the
    /// clock has reached `ts`, sleeping if a predecessor is still out; the
    /// caller completes its own tail. With `Some(tail)` it never sleeps:
    /// the tail is completed here, or parked for whoever advances the
    /// clock over `ts`.
    pub(crate) fn publish(&self, clock: &AtomicU64, ts: u64, tail: Option<Box<ParkedTail>>) {
        let mut ready = self.publish_lock.lock();
        if clock.load(Ordering::SeqCst) + 1 == ts {
            let mut tails: Vec<Box<ParkedTail>> = tail.into_iter().collect();
            let mut upto = ts;
            while let Some(parked) = ready.remove(&(upto + 1)) {
                upto += 1;
                tails.extend(parked);
            }
            clock.store(upto, Ordering::SeqCst);
            if upto > ts {
                self.publish_cv.notify_all();
            }
            drop(ready);
            for tail in tails {
                tail.complete(Ok(()));
            }
            return;
        }
        let sleeps = tail.is_none();
        ready.insert(ts, tail);
        while sleeps && clock.load(Ordering::SeqCst) < ts {
            if feral_hooks::active() {
                // unreachable under turn-atomic commits; defensive
                drop(ready);
                let _ = feral_hooks::wait(feral_hooks::WaitKind::Commit);
                ready = self.publish_lock.lock();
            } else {
                self.publish_cv.wait(&mut ready);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(shards: usize) -> CommitPipeline {
        CommitPipeline::new(shards, 64, Duration::ZERO)
    }

    #[test]
    fn shard_assignment_is_table_id_mod_n() {
        let p = pipeline(4);
        assert_eq!(p.shard_of(TableId(0)), 0);
        assert_eq!(p.shard_of(TableId(5)), 1);
        assert_eq!(p.shard_of(TableId(7)), 3);
        assert_eq!(pipeline(1).shard_of(TableId(9)), 0);
    }

    #[test]
    fn shard_count_is_clamped_to_what_a_mask_can_name() {
        assert_eq!(pipeline(0).shard_count(), 1);
        assert_eq!(pipeline(64).shard_count(), 64);
        let p = pipeline(1000);
        assert_eq!(p.shard_count(), MAX_SHARDS);
        assert_eq!(p.shard_of(TableId(127)), 63);
        let held = p.lock_shards(u64::MAX, &Stats::default());
        assert_eq!(held.histories().count(), MAX_SHARDS);
    }

    /// A slice is pruned by the push that takes it past twice the floor,
    /// down to the floor or to what an active snapshot still needs — and
    /// the horizon is not looked at before that.
    #[test]
    fn history_is_pruned_under_the_latch_once_a_slice_doubles() {
        let p = pipeline(2);
        let stats = Stats::default();
        let clock = AtomicU64::new(100);
        let push = |ts: u64| {
            let summary = Arc::new(CommittedTxn {
                commit_ts: ts,
                writes: Vec::new(),
            });
            let mut held = p.lock_shards(0b11, &stats);
            p.push_history(&mut held, 0b01, &summary, &clock, 4);
        };
        let len = |shard: usize| p.shards[shard].lock().history.len();
        for ts in 1..=8 {
            push(ts);
        }
        assert_eq!((len(0), len(1)), (8, 0), "only the written shard grows");
        assert_eq!(p.horizon_scans.load(Ordering::Relaxed), 0);
        push(9);
        assert_eq!(len(0), 4, "no active snapshot: back to the floor");
        assert_eq!(p.horizon_scans.load(Ordering::Relaxed), 1);
        // a snapshot at 7 still needs every summary above it
        clock.store(7, Ordering::SeqCst);
        let (_, stripe) = p.register_active(1, &clock);
        for ts in 10..=14 {
            push(ts);
        }
        let kept: Vec<u64> = p.shards[0]
            .lock()
            .history
            .iter()
            .map(|c| c.commit_ts)
            .collect();
        assert_eq!(kept, (8..=14).collect::<Vec<_>>());
        p.deregister_active(stripe, 1);
    }

    #[test]
    fn lock_shards_counts_contention() {
        let p = pipeline(4);
        let stats = Stats::default();
        let held = p.shards[2].lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send(()).unwrap();
                let held = p.lock_shards(0b0110, &stats);
                assert_eq!(held.histories().count(), 2);
            });
            rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
        });
        assert_eq!(
            stats.snapshot().commit_shard_conflicts,
            1,
            "the held shard 2 must be counted as contended"
        );
    }

    #[test]
    fn publish_orders_timestamps() {
        let p = pipeline(2);
        let clock = AtomicU64::new(1);
        std::thread::scope(|s| {
            // 3, 4 and 6 must wait for 2 even though they get here first
            for ts in [3, 4, 6] {
                let (p, clock) = (&p, &clock);
                s.spawn(move || p.publish(clock, ts, None));
            }
            while p.publish_lock.lock().len() < 3 {
                std::thread::yield_now();
            }
            assert_eq!(clock.load(Ordering::SeqCst), 1);
            // 2 carries its contiguous successors with it, not the one
            // past the gap
            p.publish(&clock, 2, None);
            assert_eq!(clock.load(Ordering::SeqCst), 4);
            assert_eq!(p.publish_lock.lock().len(), 1);
            p.publish(&clock, 5, None);
        });
        assert_eq!(clock.load(Ordering::SeqCst), 6);
        assert!(p.publish_lock.lock().is_empty());
    }

    #[test]
    fn active_stripes_compute_oldest_snapshot() {
        let p = pipeline(4);
        let clock = AtomicU64::new(10);
        assert_eq!(p.oldest_active_snapshot(&clock), 10);
        let (s1, stripe1) = p.register_active(1, &clock);
        assert_eq!(s1, 10);
        clock.store(15, Ordering::SeqCst);
        // a second thread registers on its own stripe; the horizon spans both
        let (s2, stripe2) =
            std::thread::scope(|s| s.spawn(|| p.register_active(2, &clock)).join().unwrap());
        assert_eq!(s2, 15);
        assert_eq!(p.oldest_active_snapshot(&clock), 10);
        // a transaction may finish on a thread other than the one it began on
        p.deregister_active(stripe2, 2);
        assert_eq!(p.oldest_active_snapshot(&clock), 10);
        p.deregister_active(stripe1, 1);
        assert_eq!(p.oldest_active_snapshot(&clock), 15);
        assert!(p.active.iter().all(|s| s.txns.lock().is_empty()));
        assert_eq!(std::mem::align_of::<ActiveStripe>(), 128);
    }
}
