//! The commit tail: everything a commit still owes once its versions are
//! installed and the shard latches are gone — durable wait → `publish` →
//! audit footprint → lock release → `Stats`/trace — and
//! the scope that lets a caller take that debt over instead of sleeping
//! through an fsync.
//!
//! Log order, timestamp order, visible ⇒ durable and release-after-publish
//! are properties of the *record*, not of the thread that wrote it, so
//! the tail is one plain struct ([`CommitTail`]) with one `complete`. A
//! synchronous [`Transaction::commit`](crate::Transaction::commit) builds
//! it, waits, and completes it inline. Inside [`defer_durable`] the tail
//! is parked for the caller instead: `commit` returns `Ok` at hand-off,
//! and the [`PendingCommit`] the scope yields is given a callback that
//! the flush completion runs — on whichever thread advances the clock
//! over the commit — or is `wait`ed, which is the synchronous path again.
//! Giving the callback may make the caller the flush leader; that duty
//! comes back as a [`FlushLead`], to run where sleeping in an fsync hurts
//! nobody.
//!
//! The scope is ambient (thread-local) because the code between the
//! caller and the commit is opaque to it: a `Service::call` wrapped by
//! someone else's decorator, an ORM that hides the transaction.

use crate::db::{Database, IsolationLevel};
use crate::error::{DbError, DbResult};
use crate::footprint::Footprint;
use crate::lock::{LockKey, TxnId};
use crate::stats::Stats;
use crate::txn::CommittedWrite;
use std::cell::RefCell;
use std::sync::atomic::Ordering;

/// A stamped, installed, not yet acknowledged commit. `complete` must run
/// exactly once: it is what releases the transaction's locks. The tail
/// borrows the database it belongs to; only a parked one owns a handle.
pub(crate) struct CommitTail {
    pub(crate) txn: TxnId,
    /// Stripe of the active-snapshot registry the transaction registered
    /// on: the tail may complete on another thread than the one it began on.
    pub(crate) active_stripe: usize,
    /// The stamped timestamp (for a read-only commit: the clock it read).
    pub(crate) commit_ts: u64,
    /// Sequence number of the WAL record; 0 when nothing was logged.
    pub(crate) wal_seq: u64,
    pub(crate) locks: Vec<LockKey>,
    /// The installed images of a commit the auditor samples; empty
    /// otherwise.
    pub(crate) writes: Vec<CommittedWrite>,
    pub(crate) isolation: IsolationLevel,
    pub(crate) snapshot: u64,
    pub(crate) label: Option<&'static str>,
    /// What the transaction read, and whether the auditor samples it:
    /// the auditor's records are built from it on delivery.
    pub(crate) footprint: Footprint,
}

impl CommitTail {
    /// The synchronous tail: sleep until the record is durable, publish,
    /// complete inline.
    pub(crate) fn settle(self, db: &Database) -> DbResult<()> {
        let inner = &db.inner;
        let mut result = Ok(());
        if let Some(wal) = &inner.wal {
            result = inner
                .pipeline
                .wait_durable(wal, &inner.stats, &inner.clock, self.wal_seq);
        }
        if result.is_ok() {
            inner.pipeline.publish(&inner.clock, self.commit_ts, None);
        }
        self.complete(db, result.is_ok());
        result
    }

    /// Finish the commit on the calling thread. `durable`: the record is
    /// in the log and the clock has reached `commit_ts`. Otherwise the
    /// flush failed and the versions stay above a frozen clock. Called
    /// with no pipeline lock held — it takes lock-table and
    /// active-stripe locks.
    pub(crate) fn complete(self, db: &Database, durable: bool) {
        if durable {
            self.deliver_audit_footprint(db);
        }
        finish_txn(db, self.txn, self.active_stripe, &self.locks, durable);
    }

    /// Deliver the access footprint to the runtime auditor and mirror the
    /// outcome into engine stats. The records are built here, after the
    /// latches dropped, so image hashing never extends the critical
    /// section other committers queue on; tables are named by the hashes
    /// the footprint carries, so no catalog latch is taken either.
    /// Transactions outside the sampled slice deliver a bare marker.
    fn deliver_audit_footprint(&self, db: &Database) {
        let Some(auditor) = db.inner.auditor.as_ref() else {
            return;
        };
        if !self.footprint.audited {
            auditor.observe_commit_marker(self.label, self.isolation.name());
            return;
        }
        let (reads, writes) = self.footprint.audit_records(&self.writes);
        let outcome = auditor.observe_commit(feral_audit::TxnFootprint {
            txn: self.txn,
            begin_ts: self.snapshot,
            commit_ts: self.commit_ts,
            isolation: self.isolation.name(),
            template: self.label,
            reads,
            writes,
            sampled_out: false,
        });
        let stats = &db.inner.stats;
        let mirrored = [
            (&stats.audit_edges, outcome.edges_added),
            (&stats.audit_cycles, outcome.cycles_found),
            (&stats.audit_drops, outcome.dropped),
        ];
        for (counter, n) in mirrored.into_iter().filter(|&(_, n)| n > 0) {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The end of every transaction, committed or not: release its locks,
/// leave the active set, count and trace the outcome.
pub(crate) fn finish_txn(
    db: &Database,
    id: TxnId,
    active_stripe: usize,
    locks: &[LockKey],
    committed: bool,
) {
    db.inner.locks.release_all(id, locks);
    db.inner.pipeline.deregister_active(active_stripe, id);
    if committed {
        Stats::bump(&db.inner.stats.local().commits);
        feral_trace::record(
            feral_trace::EventKind::Site(feral_hooks::Site::TxnCommit),
            id,
            0,
            0,
        );
    } else {
        if let Some(auditor) = &db.inner.auditor {
            auditor.observe_abort(id);
        }
        Stats::bump(&db.inner.stats.local().aborts);
        feral_trace::record(feral_trace::EventKind::Abort, id, 0, 0);
    }
}

// -- the deferral scope -------------------------------------------------

/// A tail nobody sleeps for: parked in the group buffer (and then in the
/// publish map) until a flush covers it, completed by whoever gets there.
pub(crate) struct ParkedTail {
    pub(crate) db: Database,
    pub(crate) tail: CommitTail,
    /// What [`PendingCommit::on_complete`] was given; runs last.
    notify: Box<dyn FnOnce(DbResult<()>) + Send>,
}

impl ParkedTail {
    /// [`CommitTail::complete`], then tell the caller.
    pub(crate) fn complete(self, result: DbResult<()>) {
        self.tail.complete(&self.db, result.is_ok());
        (self.notify)(result);
    }
}

enum Pending {
    Parked(Database, CommitTail),
    /// Settled inside the scope (a later transaction had to see it) and
    /// the flush failed: the scope's caller still has to hear about it.
    Failed(DbError),
    Taken,
}

/// A commit whose durable wait was handed to the caller of
/// [`defer_durable`]: installed and logged, not yet acknowledged — its
/// writes are invisible and its locks held until it is settled. Give it
/// a callback with [`on_complete`](PendingCommit::on_complete) or
/// [`wait`](PendingCommit::wait) for it; dropping it waits. Publication
/// is in timestamp order, so do not commit *synchronously* on this thread
/// while holding one: that commit would wait for this one.
pub struct PendingCommit {
    state: Pending,
}

impl PendingCommit {
    fn take(&mut self) -> Pending {
        std::mem::replace(&mut self.state, Pending::Taken)
    }

    /// Run `f` once the commit is settled: `Ok` after its record is
    /// durable and its writes are visible, the poison error if the flush
    /// failed (nothing it wrote is or will be visible). `f` runs on
    /// whichever thread completes the flush — possibly this one, before
    /// `on_complete` returns — and must not block. No thread sleeps for
    /// the commit: it joins the flush in flight, or — when there is none
    /// — the caller becomes the leader and is handed the [`FlushLead`].
    /// Ignoring the return value leads the flush here and now.
    pub fn on_complete(
        mut self,
        f: impl FnOnce(DbResult<()>) + Send + 'static,
    ) -> Option<FlushLead> {
        match self.take() {
            Pending::Parked(db, tail) => {
                let inner = db.inner.clone();
                let parked = Box::new(ParkedTail {
                    db,
                    tail,
                    notify: Box::new(f),
                });
                inner.pipeline.park(&inner.clock, parked)
            }
            Pending::Failed(e) => {
                f(Err(e));
                None
            }
            Pending::Taken => unreachable!("a PendingCommit is consumed once"),
        }
    }

    /// Settle the commit on this thread, as a synchronous `commit` would.
    pub fn wait(mut self) -> DbResult<()> {
        match self.take() {
            Pending::Parked(db, tail) => tail.settle(&db),
            Pending::Failed(e) => Err(e),
            Pending::Taken => unreachable!("a PendingCommit is consumed once"),
        }
    }
}

impl Drop for PendingCommit {
    fn drop(&mut self) {
        if let Pending::Parked(db, tail) = self.take() {
            // the locks must go; nobody is left to hear the outcome
            let _ = tail.settle(&db);
        }
    }
}

/// The group-commit flush loop, owed: the commit that yielded it found no
/// flush in flight, so the flush-in-flight claim is already made in its
/// name and every commit parked from now on counts on this lead being
/// run. [`run`](FlushLead::run) it on the thread that may sleep in the
/// fsync; dropping it runs it too, so a lead cannot be lost — only
/// `mem::forget` would orphan the parked commits. At most one exists per
/// database at a time.
pub struct FlushLead {
    db: Database,
}

impl FlushLead {
    /// The caller has just set `flushing` under the group mutex.
    pub(crate) fn claimed(db: Database) -> FlushLead {
        FlushLead { db }
    }

    /// Lead the flush on this thread: write batch after batch and complete
    /// every parked commit each covers, until the log buffer is empty.
    /// (The loop lives in `Drop`: it runs exactly once either way.)
    pub fn run(self) {
        drop(self);
    }
}

impl Drop for FlushLead {
    fn drop(&mut self) {
        let inner = &self.db.inner;
        let wal = inner
            .wal
            .as_ref()
            .expect("only logged commits are deferred");
        inner.pipeline.lead(wal, &inner.stats, &inner.clock, None);
    }
}

thread_local! {
    /// `Some` while this thread is inside [`defer_durable`]; the inner
    /// option is the commit the scope currently holds.
    static SCOPE: RefCell<Option<Option<PendingCommit>>> = const { RefCell::new(None) };
}

/// Run `f` with durable commits deferred: a `commit` inside `f` returns
/// `Ok` once its versions are installed and its record is queued, and the
/// commit comes back as a [`PendingCommit`] for the caller to acknowledge
/// from the flush completion instead of sleeping through the fsync.
///
/// At most one commit is pending at a time: beginning another transaction
/// (or committing one) inside the scope first settles the pending one, so
/// code in `f` sees its own earlier commits exactly as it would without
/// the scope. Commits with no WAL bound, read-only commits and commits
/// under a `feral_hooks` scheduler complete inline (`None`), as does
/// everything in a nested scope.
pub fn defer_durable<R>(f: impl FnOnce() -> R) -> (R, Option<PendingCommit>) {
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            // take first: settling can run other commits' callbacks
            let held = SCOPE.with(|s| s.borrow_mut().take());
            drop(held);
        }
    }
    let nested = SCOPE.with(|s| {
        let mut scope = s.borrow_mut();
        let nested = scope.is_some();
        scope.get_or_insert(None);
        nested
    });
    if nested {
        return (f(), None);
    }
    let _close = Close;
    let value = f();
    let pending = SCOPE.with(|s| s.borrow_mut().take()).flatten();
    (value, pending)
}

/// Park `tail` in this thread's scope. Gives it back when there is no
/// scope to park it in (or nothing to defer): the caller settles it.
pub(crate) fn defer(db: &Database, tail: CommitTail) -> Option<CommitTail> {
    if tail.wal_seq == 0 || feral_hooks::active() {
        return Some(tail);
    }
    settle_scope();
    SCOPE.with(|s| match s.borrow_mut().as_mut() {
        Some(slot @ None) => {
            *slot = Some(PendingCommit {
                state: Pending::Parked(db.clone(), tail),
            });
            None
        }
        // no scope, or it already has a failure to report
        _ => Some(tail),
    })
}

/// Settle the commit this thread's scope holds, if any — before anything
/// that must see it published: a later transaction's snapshot, its lock
/// requests, a second deferral. A failure stays in the scope.
pub(crate) fn settle_scope() {
    let held = SCOPE.with(|s| match s.borrow_mut().as_mut() {
        Some(
            slot @ Some(PendingCommit {
                state: Pending::Parked(..),
            }),
        ) => slot.take(),
        _ => None,
    });
    let Some(pending) = held else { return };
    if let Err(e) = pending.wait() {
        SCOPE.with(|s| {
            if let Some(slot) = s.borrow_mut().as_mut() {
                *slot = Some(PendingCommit {
                    state: Pending::Failed(e),
                });
            }
        });
    }
}
