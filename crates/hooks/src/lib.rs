//! # feral-hooks
//!
//! Thread-local yield-point hooks that let a deterministic scheduler (the
//! `feral-sim` crate) take control of interleaving decisions inside the
//! feral stack without imposing any cost on ordinary execution.
//!
//! ## The hook contract
//!
//! Instrumented code calls three kinds of free functions:
//!
//! * [`yield_point(site)`](yield_point) — "a scheduling decision is
//!   meaningful here." Under a scheduler this parks the calling logical
//!   worker until it is granted the next turn; with no hook installed it
//!   is a no-op after one thread-local lookup.
//! * [`wait(kind)`](wait) — "this worker cannot proceed until another
//!   worker acts" (a lock is held by someone else).
//!   The scheduler hands the turn elsewhere and later re-grants it so the
//!   caller can re-check its condition, or returns
//!   [`WaitOutcome::TimedOut`] when the worker was chosen as a deadlock
//!   victim. Callers must translate `TimedOut` into whatever bounded-wait
//!   error their uninstrumented path produces (e.g. a lock timeout).
//! * [`progress()`](progress) — "shared state other workers may be
//!   waiting on just changed" (a lock was released, a message was sent, a
//!   transaction committed). Schedulers use this to know when parked
//!   waiters are worth re-granting and to distinguish livelock from
//!   deadlock.
//!
//! Threads participate only after a hook is installed in their
//! thread-local slot: the harness registers each simulated worker and
//! hands it a [`Registration`] to [activate](Registration::activate) on
//! its thread. Everything degrades to a no-op when no hook is installed,
//! which is the invariant that keeps production code paths and ordinary
//! `cargo test` behaviour untouched.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::Arc;

/// Instrumented decision points. The variant names appear verbatim in
/// printed schedule traces, so keep them short and descriptive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// A logical worker has started and is waiting for its first turn.
    WorkerStart,
    /// `Database::begin_with` — about to take a transaction snapshot.
    TxnBegin,
    /// `Transaction::scan` — a predicate read (the feral `SELECT` probe).
    TxnScan,
    /// `Transaction::select_for_update` — a locking read.
    TxnSelectForUpdate,
    /// `Transaction::insert`/`update`/`delete` — buffering a write (and
    /// running in-database constraint checks).
    TxnWrite,
    /// `Transaction::commit` — about to validate and install writes.
    TxnCommit,
    /// The ORM's validate-then-write gap inside `save` — the window the
    /// paper's feral-uniqueness anomalies race through.
    OrmValidateWriteGap,
    /// The commit pipeline acquired its shard-latch set (trace vocabulary;
    /// commit stays turn-atomic under a scheduler, so this is not a
    /// yield point today).
    CommitShard,
    /// The group-commit leader flushed a WAL batch (trace vocabulary).
    WalFlush,
}

impl Site {
    /// Short stable name used in schedule traces.
    pub fn name(self) -> &'static str {
        match self {
            Site::WorkerStart => "start",
            Site::TxnBegin => "begin",
            Site::TxnScan => "scan",
            Site::TxnSelectForUpdate => "select_for_update",
            Site::TxnWrite => "write",
            Site::TxnCommit => "commit",
            Site::OrmValidateWriteGap => "validate-write-gap",
            Site::CommitShard => "commit-shard",
            Site::WalFlush => "wal-flush",
        }
    }
}

/// What a parked worker is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitKind {
    /// A lock held by another transaction.
    Lock,
    /// The commit pipeline — an earlier commit timestamp must publish (or
    /// a WAL batch must flush) before this worker can proceed. Defensive:
    /// commits are turn-atomic under a scheduler, so this wait is never
    /// reached in simulation today.
    Commit,
}

impl WaitKind {
    /// Short stable name used in schedule traces.
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::Lock => "lock-wait",
            WaitKind::Commit => "commit-wait",
        }
    }
}

/// How an instrumented code segment touches a shared resource.
///
/// The mode is the *semantic* access class, not the physical one: a read
/// taken against a transaction-level snapshot is a [`SnapshotRead`]
/// (it commutes with concurrent installs — the snapshot already fixed
/// what it sees), while a read of committed-latest state is a [`Read`]
/// (reordering it around a committed write changes what it returns).
/// Partial-order-reduction explorers derive their independence relation
/// from these modes; see `feral-sim`'s `dpor` module.
///
/// [`SnapshotRead`]: AccessMode::SnapshotRead
/// [`Read`]: AccessMode::Read
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read of committed-latest state — conflicts with writes.
    Read,
    /// Read against an already-fixed snapshot — commutes with writes.
    SnapshotRead,
    /// A committed write becoming visible to other workers.
    Write,
    /// A commutative increment (e.g. a logical clock tick): two `Incr`s
    /// on the same resource commute with each other, but not with reads.
    Incr,
    /// Shared-lock acquire/release on the resource.
    LockShared,
    /// Exclusive-lock acquire/release on the resource.
    LockExcl,
}

impl AccessMode {
    /// Short stable name used in reports and debug traces.
    pub fn name(self) -> &'static str {
        match self {
            AccessMode::Read => "r",
            AccessMode::SnapshotRead => "sr",
            AccessMode::Write => "w",
            AccessMode::Incr => "incr",
            AccessMode::LockShared => "ls",
            AccessMode::LockExcl => "lx",
        }
    }
}

/// One shared-resource touch reported by instrumented code via
/// [`note_access`]. The scheduler attributes it to the trace step
/// currently executing, giving explorers a per-step footprint to compute
/// happens-before from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Resource namespace (`"table"`, `"index"`, `"lock"`, `"clock"`).
    pub space: &'static str,
    /// Resource identity within the namespace — [`fnv64`] of a stable
    /// name. Hash collisions merge two resources into one, which only
    /// ever *adds* dependence edges (sound for partial-order reduction).
    pub what: u64,
    /// Semantic access class.
    pub mode: AccessMode,
}

/// FNV-1a 64-bit hash of `bytes` — the stable resource-naming hash for
/// [`Access::what`], and the workspace's one FNV-1a (the tracing layer's
/// fingerprints, the WAL's record checksum, the auditor's column-value
/// hashes and the YCSB key scrambler are all this function).
/// Deterministic across runs and platforms.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue the FNV-1a hash `h` over `bytes`, so a hash of several pieces
/// needs no buffer: `fnv64_extend(fnv64(a), b)` is `fnv64` of `a` then `b`.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a [`wait`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Re-check the wait condition (it may or may not hold now).
    Proceed,
    /// The scheduler elected this worker as a deadlock victim (or the
    /// simulation is over); behave as if a bounded wait timed out.
    TimedOut,
}

/// A schedule-exploration hook. Implemented by `feral-sim`'s scheduler;
/// the methods mirror the free functions of this crate plus worker
/// lifecycle management.
pub trait ScheduleHook: Send + Sync {
    /// Park `worker` at `site` until granted the next turn.
    fn yield_point(&self, worker: usize, site: Site);
    /// Park `worker` as blocked on `kind`; resume with the grant outcome.
    fn wait(&self, worker: usize, kind: WaitKind) -> WaitOutcome;
    /// Note that shared state changed (wakes parked waiters for re-check).
    fn progress(&self);
    /// `worker`'s thread is exiting.
    fn worker_finished(&self, worker: usize);
    /// `worker` touched a shared resource during its current turn.
    /// Default no-op so hooks that don't track footprints need no code.
    fn note_access(&self, worker: usize, access: Access) {
        let _ = (worker, access);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<dyn ScheduleHook>, usize)>> =
        const { RefCell::new(None) };
}

/// A worker identity that can be carried into a newly spawned thread and
/// [activated](Registration::activate) there.
pub struct Registration {
    hook: Arc<dyn ScheduleHook>,
    worker: usize,
}

impl Registration {
    /// Pair a hook with a worker id (harness-side constructor).
    pub fn new(hook: Arc<dyn ScheduleHook>, worker: usize) -> Self {
        Registration { hook, worker }
    }

    /// The worker id.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Install this registration into the current thread and park until
    /// the scheduler grants the first turn. The returned guard
    /// deregisters the worker when dropped (normally or on panic).
    pub fn activate(self) -> ActiveWorker {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some((self.hook.clone(), self.worker));
        });
        self.hook.yield_point(self.worker, Site::WorkerStart);
        ActiveWorker {
            hook: self.hook,
            worker: self.worker,
        }
    }
}

/// RAII guard for an activated worker; notifies the scheduler of thread
/// exit on drop.
pub struct ActiveWorker {
    hook: Arc<dyn ScheduleHook>,
    worker: usize,
}

impl Drop for ActiveWorker {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = None;
        });
        self.hook.worker_finished(self.worker);
    }
}

fn with_current<T>(f: impl FnOnce(&Arc<dyn ScheduleHook>, usize) -> T) -> Option<T> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|(h, w)| f(h, *w))
    })
}

/// Whether a schedule hook is installed on this thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Yield at an instrumented decision point (no-op without a hook).
pub fn yield_point(site: Site) {
    // clone out of the TLS borrow so hook methods may reach code that
    // re-enters these functions without hitting a RefCell double-borrow
    if let Some((hook, worker)) = with_current(|h, w| (h.clone(), w)) {
        hook.yield_point(worker, site);
    }
}

/// Park as blocked on `kind`; see [`WaitOutcome`]. Without a hook this
/// returns [`WaitOutcome::Proceed`] — callers only reach it from
/// hook-aware code paths.
pub fn wait(kind: WaitKind) -> WaitOutcome {
    match with_current(|h, w| (h.clone(), w)) {
        Some((hook, worker)) => hook.wait(worker, kind),
        None => WaitOutcome::Proceed,
    }
}

/// Signal that shared state changed (no-op without a hook).
pub fn progress() {
    if let Some(hook) = with_current(|h, _| h.clone()) {
        hook.progress();
    }
}

/// Report a shared-resource touch to the scheduler (no-op without a
/// hook). Callers should gate any work spent *building* the [`Access`]
/// (name hashing, catalog lookups) behind [`active`] so production paths
/// stay zero-cost.
pub fn note_access(access: Access) {
    if let Some((hook, worker)) = with_current(|h, w| (h.clone(), w)) {
        hook.note_access(worker, access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hook_means_noop() {
        assert!(!active());
        yield_point(Site::TxnBegin);
        assert_eq!(wait(WaitKind::Lock), WaitOutcome::Proceed);
        progress();
        note_access(Access {
            space: "table",
            what: fnv64(b"accounts"),
            mode: AccessMode::Read,
        });
    }

    #[test]
    fn fnv64_is_stable_and_discriminating() {
        // pinned value: resource ids appear in replay artifacts, so the
        // hash must never change across releases
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"key_values"), fnv64(b"key_values"));
        assert_ne!(fnv64(b"key_values"), fnv64(b"accounts"));
        // the FNV-1a test vector, and a hash continued over a second piece
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv64_extend(fnv64(b"key_"), b"values"),
            fnv64(b"key_values")
        );
    }

    #[test]
    fn site_names_are_stable() {
        assert_eq!(Site::TxnCommit.name(), "commit");
        assert_eq!(Site::CommitShard.name(), "commit-shard");
        assert_eq!(Site::WalFlush.name(), "wal-flush");
        assert_eq!(WaitKind::Lock.name(), "lock-wait");
        assert_eq!(WaitKind::Commit.name(), "commit-wait");
    }
}
