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
//!   parallel. A shard latch guards no data of its own: it orders the
//!   installs into its tables. So a serializable validator holding the
//!   latches of the tables it read asks their version chains whether a
//!   commit after its snapshot wrote what it read, and no install
//!   interleaves (role 2); same-table row-id assignment is serialized by
//!   the table's shard latch (role 4).
//! * Commit timestamps are allocated from `ts_alloc` only **after** a
//!   transaction holds its full latch set; on the WAL path the
//!   allocation happens inside the group-buffer mutex, so log order
//!   equals timestamp order (role 3). Deadlock-freedom: a transaction
//!   with an allocated timestamp never blocks on a latch again, so the
//!   lowest unpublished timestamp can always make progress.
//! * The latches cover only what they order: validate → queue the WAL
//!   record → install versions, then they **drop**. Installed versions
//!   carry `begin = ts > clock`, so no snapshot sees them yet. What the commit still owes — durable wait,
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
use crate::wal::{frame_record, WalRecord, WalWriter};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Most commit shards a pipeline runs with: a shard set is one `u64`.
pub(crate) const MAX_SHARDS: usize = 64;

/// The shard latches one commit holds, by shard index.
pub(crate) type ShardGuards<'a> = [Option<MutexGuard<'a, ()>>; MAX_SHARDS];

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

/// Sharded commit state: the shard latches, the active-txn stripes, the
/// timestamp allocator, the publish clock wait, and the group-commit
/// buffer.
///
/// The latch discipline, checked by the lock validator of debug builds
/// on every acquisition the tests make: shard latches are outermost
/// (taken ascending, see [`CommitPipeline::lock_shards`]), and the group
/// buffer and publish lock are leaves — nothing else is ever acquired
/// under them. The flush loop keeps the group a leaf by dropping its
/// guard around the WAL write and around the hand-off of parked tails;
/// `publish` collects the tails it advanced over and completes them
/// after dropping the publish lock. All of it runs with no shard latch
/// held (`tests/commit_latch_scope.rs`).
pub(crate) struct CommitPipeline {
    shards: Vec<Mutex<()>>,
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
}

impl CommitPipeline {
    pub(crate) fn new(shards: usize, max_batch: usize, max_wait: Duration) -> CommitPipeline {
        let n = shards.clamp(1, MAX_SHARDS);
        CommitPipeline {
            shards: (0..n).map(|_| Mutex::new(())).collect(),
            active: (0..n)
                .map(|_| ActiveStripe {
                    txns: Mutex::new(Vec::new()),
                })
                .collect(),
            ts_alloc: AtomicU64::new(1),
            publish_lock: Mutex::leaf(BTreeMap::new()),
            publish_cv: Condvar::new(),
            group: Mutex::leaf(GroupState {
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
        let mut held: ShardGuards = [const { None }; MAX_SHARDS];
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            held[i] = Some(match shard.try_lock() {
                Some(g) => g,
                None => {
                    Stats::bump(&stats.local().commit_shard_conflicts);
                    shard.lock()
                }
            });
        }
        held
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
    /// are active: vacuum's horizon. Holds **all** stripe locks
    /// (ascending) while computing the minimum and reading the fallback
    /// clock, mirroring the seed's single-lock begin/vacuum coordination.
    pub(crate) fn oldest_active_snapshot(&self, clock: &AtomicU64) -> u64 {
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
    /// the failed batch's versions reports, not a retryable conflict.
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
    pub(crate) fn yield_until_published(&self, clock: &AtomicU64) {
        yield_until(clock, self.ts_alloc.load(Ordering::SeqCst));
    }

    /// Publish `ts`: the caller's versions are installed and its record is
    /// durable; a timestamp whose flush failed never gets here — that
    /// freezes the clock. Whoever finds the clock right below its own
    /// timestamp advances it over every contiguous successor parked in
    /// `ready`, wakes the sleepers among them and — with `publish_lock`
    /// released — completes the tails among them, in timestamp order.
    ///
    /// With `tail == None` (a synchronous committer) this returns once the
    /// clock has reached `ts`, yielding and then sleeping if a predecessor
    /// is still out; the caller completes its own tail. With `Some(tail)` it never sleeps:
    /// the tail is completed here, or parked for whoever advances the
    /// clock over `ts`.
    pub(crate) fn publish(&self, clock: &AtomicU64, ts: u64, tail: Option<Box<ParkedTail>>) {
        if tail.is_none() {
            // A predecessor still installing is most often a few hundred
            // nanoseconds from its own publish: yield to it rather than
            // pay a futex sleep and wake. Whatever the yields bought, the
            // clock is read again under the lock below.
            yield_until(clock, ts - 1);
        }
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

/// Give the core away until `clock` reaches `ts`, at most 64 times:
/// bounded, because after a failed flush the clock never catches up.
/// Yield, not spin — the thread being waited for may need this core.
fn yield_until(clock: &AtomicU64, ts: u64) {
    for _ in 0..64 {
        if clock.load(Ordering::SeqCst) >= ts {
            return;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        assert_eq!(held.iter().flatten().count(), MAX_SHARDS);
    }

    /// A commit never computes vacuum's horizon, which takes every
    /// active-stripe lock: with every stripe but the committing thread's
    /// own held by another thread, 2 × 64 + 1 serializable commits of one
    /// table — past where a bounded commit history would be pruned —
    /// finish.
    #[test]
    fn a_commit_never_computes_the_horizon() {
        use crate::db::{Config, Database, IsolationLevel};
        use crate::predicate::Predicate;
        use crate::schema::{ColumnDef, TableSchema};
        use crate::value::{DataType, Datum};
        let db = Database::new(Config::default());
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("v", DataType::Int)],
        ))
        .unwrap();
        let p = &db.inner.pipeline;
        let own = crate::stats::thread_slot() % p.active.len();
        let (held_tx, held) = std::sync::mpsc::channel();
        let (done_tx, done) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let others = p.active.iter().enumerate().filter(|&(i, _)| i != own);
                let guards: Vec<_> = others.map(|(_, stripe)| stripe.txns.lock()).collect();
                held_tx.send(()).unwrap();
                // a commit that took every stripe lock would wait on these
                let finished = done.recv_timeout(Duration::from_secs(10)).is_ok();
                drop(guards);
                assert!(finished, "a commit waited on another thread's stripe");
            });
            held.recv().unwrap();
            for v in 0..2 * 64 + 1 {
                // a full-scan read, so every commit is validated
                let read_then_insert = |tx: &mut crate::Transaction| {
                    tx.scan("t", &Predicate::True)?;
                    tx.insert_pairs("t", &[("v", Datum::Int(v))])
                };
                let serializable = db.txn().isolation(IsolationLevel::Serializable);
                serializable.run(read_then_insert).unwrap();
            }
            done_tx.send(()).unwrap();
        });
        assert_eq!(db.count_rows("t").unwrap(), 129);
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
                assert_eq!(held.iter().flatten().count(), 2);
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

    /// Synchronous committers stamp and publish with random pauses in
    /// between, so a committer often finds a predecessor still out: it
    /// yields, reads the clock again, and parks only if it must. Every
    /// publish returns with the clock at its timestamp or past it,
    /// nothing stays parked, and the clock ends at the last timestamp.
    /// The threads are not scoped: a committer parked for good (a lost
    /// wake-up) fails the test at its deadline instead of hanging it.
    #[test]
    fn racing_synchronous_publishes_each_return_at_their_timestamp() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 2_000;
        let shared = Arc::new((pipeline(1), AtomicU64::new(1), Stats::default()));
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let (done_tx, done) = std::sync::mpsc::channel();
        for t in 0..THREADS {
            let (shared, start, done_tx) = (shared.clone(), start.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let (p, clock, stats) = &*shared;
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                start.wait();
                for _ in 0..ROUNDS {
                    let (ts, _) = p.stamp_commit(stats, false, |_| unreachable!()).unwrap();
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    match rng % 8 {
                        0 => std::thread::yield_now(),
                        1 => std::thread::sleep(Duration::from_micros(rng % 50)),
                        2..=4 => (0..rng % 1_000).for_each(|_| std::hint::spin_loop()),
                        _ => {}
                    }
                    p.publish(clock, ts, None);
                    let now = clock.load(Ordering::SeqCst);
                    if now < ts {
                        let _ =
                            done_tx.send(Err(format!("publish of {ts} returned at clock {now}")));
                        return;
                    }
                }
                let _ = done_tx.send(Ok(()));
            });
        }
        for _ in 0..THREADS {
            let finished = done.recv_timeout(Duration::from_secs(60));
            finished
                .expect("a committer never returned from publish")
                .unwrap();
        }
        let (p, clock, _) = &*shared;
        assert!(
            p.publish_lock.lock().is_empty(),
            "a timestamp stayed parked"
        );
        assert_eq!(clock.load(Ordering::SeqCst), 1 + THREADS * ROUNDS);
        assert_eq!(p.ts_alloc.load(Ordering::SeqCst), 1 + THREADS * ROUNDS);
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
