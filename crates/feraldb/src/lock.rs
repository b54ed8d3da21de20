//! Lock manager: shared/exclusive locks on rows and index keys.
//!
//! In-database constraints (unique indexes, foreign keys) are what make the
//! database-backed counterparts of feral validations race-free, and they are
//! race-free precisely because their checks run under key locks held until
//! commit. Feral `SELECT`-probe validations take **no** locks below
//! Serializable — the asymmetry this module makes explicit.
//!
//! Deadlocks are resolved by bounded waiting: a transaction that cannot
//! acquire a lock within the configured timeout aborts with
//! [`DbError::LockTimeout`], mirroring lock-wait timeouts in MySQL and
//! statement timeouts commonly configured on PostgreSQL.
//!
//! The table is **striped** by key hash: a stripe is one mutex over a map
//! from key to holder state plus the condition variable its waiters share,
//! and a request touches exactly one. The uncontended path allocates
//! nothing — the holder of a free key sits inline in the map entry, whose
//! key shares the caller's bytes — and a release wakes nobody unless the
//! key has a waiter.

use crate::error::{DbError, DbResult};
use crate::schema::{IndexId, TableId};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a transaction for lock-ownership purposes.
pub type TxnId = u64;

/// What a lock protects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// A heap row, identified by table and row-chain position.
    Row(TableId, usize),
    /// An index key value (encoded composite key bytes, shared by the lock
    /// table, the holder's release list and its pending-write set). Locking
    /// an index key serializes constraint checks against writes of that key
    /// — the mechanism behind race-free unique and FK enforcement.
    Key(IndexId, Arc<[u8]>),
    /// A whole table (used by DDL).
    Table(TableId),
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockKey::Row(t, r) => write!(f, "row {}.{}", t.0, r),
            LockKey::Key(i, k) => write!(f, "key idx{}:{:02x?}", i.0, &k[..k.len().min(8)]),
            LockKey::Table(t) => write!(f, "table {}", t.0),
        }
    }
}

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: compatible with other shared holders.
    Shared,
    /// Exclusive: compatible with nothing (except re-entry by the holder).
    Exclusive,
}

/// Who holds one key. An entry lives in its stripe's table exactly while
/// the key is held or waited for, so a free key costs no memory.
#[derive(Default)]
struct LockState {
    /// One holder, stored inline; exclusive only while it is the sole
    /// holder. `None` only while every remaining interest is a waiter.
    owner: Option<(TxnId, LockMode)>,
    /// Every further holder — all of them, and then the owner too, shared.
    sharers: Vec<TxnId>,
    /// Transactions blocked on this key; an entry with waiters stays, so
    /// a waiter finds it again when it wakes.
    waiters: usize,
}

impl LockState {
    fn mode_of(&self, txn: TxnId) -> Option<LockMode> {
        match self.owner {
            Some((t, mode)) if t == txn => Some(mode),
            _ => self.sharers.contains(&txn).then_some(LockMode::Shared),
        }
    }

    /// Whether `txn` already holds the key at least as strongly as `want`.
    fn holds(&self, txn: TxnId, want: LockMode) -> bool {
        self.mode_of(txn)
            .is_some_and(|held| held == LockMode::Exclusive || want == LockMode::Shared)
    }

    fn compatible(&self, txn: TxnId, want: LockMode) -> bool {
        match want {
            LockMode::Shared => self
                .owner
                .is_none_or(|(t, mode)| t == txn || mode == LockMode::Shared),
            LockMode::Exclusive => {
                self.owner.is_none_or(|(t, _)| t == txn) && self.sharers.is_empty()
            }
        }
    }

    fn grant(&mut self, txn: TxnId, want: LockMode) {
        match &mut self.owner {
            None => self.owner = Some((txn, want)),
            Some((t, mode)) if *t == txn => {
                if want == LockMode::Exclusive {
                    *mode = LockMode::Exclusive;
                }
            }
            Some(_) => {
                if !self.sharers.contains(&txn) {
                    self.sharers.push(txn);
                }
            }
        }
    }

    fn remove(&mut self, txn: TxnId) {
        match self.owner {
            Some((t, _)) if t == txn => {
                self.owner = self.sharers.pop().map(|t| (t, LockMode::Shared));
            }
            _ => self.sharers.retain(|&t| t != txn),
        }
    }
}

/// Stripes of the lock table.
const STRIPES: usize = 16;

/// One stripe, padded to its own cache lines: the entries of the keys that
/// hash here and the condition variable their waiters share (each woken
/// waiter re-checks its own key).
#[repr(align(128))]
#[derive(Default)]
struct LockStripe {
    table: Mutex<HashMap<LockKey, LockState>>,
    cv: Condvar,
}

/// The lock manager. One instance per [`crate::Database`]. A request
/// locks the one stripe its key hashes to and nothing else under it.
// racer:terminal feraldb::LockStripe::table
pub struct LockManager {
    stripes: [LockStripe; STRIPES],
    hasher: RandomState,
    timeout: Duration,
}

/// Report a lock-table touch to a schedule hook (sim only — callers
/// gate on `feral_hooks::active()`). Lock acquire attempts, grants, and
/// releases on the same key are mutually dependent scheduling events:
/// reordering them changes who waits and who times out.
fn note_lock_access(key: &LockKey, mode: LockMode) {
    feral_hooks::note_access(feral_hooks::Access {
        space: "lock",
        what: feral_hooks::fnv64(key.to_string().as_bytes()),
        mode: match mode {
            LockMode::Shared => feral_hooks::AccessMode::LockShared,
            LockMode::Exclusive => feral_hooks::AccessMode::LockExcl,
        },
    });
}

impl LockManager {
    /// Create a lock manager with the given wait timeout.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            stripes: Default::default(),
            hasher: RandomState::new(),
            timeout,
        }
    }

    fn stripe_of(&self, key: &LockKey) -> &LockStripe {
        &self.stripes[self.hasher.hash_one(key) as usize % STRIPES]
    }

    /// Acquire `key` in `mode` on behalf of `txn`, blocking up to the
    /// configured timeout. Re-entrant; upgrades Shared→Exclusive when the
    /// holder is alone.
    pub fn acquire(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> DbResult<()> {
        let stripe = self.stripe_of(key);
        let mut table = stripe.table.lock();
        let mut state = table.entry(key.clone()).or_default();
        if state.holds(txn, mode) {
            return Ok(());
        }
        // Simulated execution has no wall-clock deadline: it hands the
        // turn back to the scheduler until the lock is free, and a
        // TimedOut grant means we were elected deadlock victim and must
        // abort exactly as a timed-out waiter would.
        let simulated = feral_hooks::active();
        if simulated {
            note_lock_access(key, mode);
        }
        let mut deadline = None;
        while !state.compatible(txn, mode) {
            state.waiters += 1;
            let timed_out = if simulated {
                drop(table);
                let outcome = feral_hooks::wait(feral_hooks::WaitKind::Lock);
                table = stripe.table.lock();
                // each wake-up re-checks the lock table in a new segment
                note_lock_access(key, mode);
                outcome == feral_hooks::WaitOutcome::TimedOut
            } else {
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.timeout);
                stripe.cv.wait_until(&mut table, deadline).timed_out()
            };
            state = table.get_mut(key).expect("an entry with waiters is kept");
            state.waiters -= 1;
            if timed_out && !state.compatible(txn, mode) {
                return Err(DbError::LockTimeout {
                    lock: key.to_string(),
                });
            }
        }
        state.grant(txn, mode);
        Ok(())
    }

    /// Try to acquire without blocking. Returns `false` if unavailable.
    pub fn try_acquire(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> bool {
        let mut table = self.stripe_of(key).table.lock();
        let state = table.entry(key.clone()).or_default();
        if state.holds(txn, mode) {
            return true;
        }
        if state.compatible(txn, mode) {
            state.grant(txn, mode);
            return true;
        }
        false
    }

    /// Release a single lock held by `txn`.
    pub fn release(&self, txn: TxnId, key: &LockKey) {
        let stripe = self.stripe_of(key);
        let mut table = stripe.table.lock();
        let Some(state) = table.get_mut(key) else {
            return;
        };
        state.remove(txn);
        if state.waiters > 0 {
            stripe.cv.notify_all();
        } else if state.owner.is_none() {
            // a free key costs nothing
            table.remove(key);
        }
        drop(table);
        if feral_hooks::active() {
            // releases conflict with acquires regardless of held strength
            note_lock_access(key, LockMode::Exclusive);
        }
        feral_hooks::progress();
    }

    /// Release every lock in `keys` held by `txn` (end of transaction).
    pub fn release_all(&self, txn: TxnId, keys: &[LockKey]) {
        for key in keys {
            self.release(txn, key);
        }
    }

    /// Number of keys currently held or waited for (diagnostics/tests).
    pub fn cells(&self) -> usize {
        self.stripes.iter().map(|s| s.table.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn key() -> LockKey {
        LockKey::Row(TableId(1), 7)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
        lm.release(1, &key());
        lm.release(2, &key());
        assert_eq!(lm.cells(), 0);
    }

    #[test]
    fn exclusive_blocks_shared_until_timeout() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        let err = lm.acquire(2, &key(), LockMode::Shared).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
        lm.release(1, &key());
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        // sole holder may upgrade
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        // and re-acquire at any strength
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        // others blocked
        assert!(!lm.try_acquire(2, &key(), LockMode::Shared));
    }

    #[test]
    fn upgrade_blocked_by_other_shared_holder() {
        let lm = LockManager::new(Duration::from_millis(20));
        lm.acquire(1, &key(), LockMode::Shared).unwrap();
        lm.acquire(2, &key(), LockMode::Shared).unwrap();
        let err = lm.acquire(1, &key(), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
    }

    #[test]
    fn waiter_wakes_on_release() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(1, &key(), LockMode::Exclusive).unwrap();
        let got = Arc::new(AtomicBool::new(false));
        let lm2 = lm.clone();
        let got2 = got.clone();
        let h = thread::spawn(move || {
            lm2.acquire(2, &key(), LockMode::Exclusive).unwrap();
            got2.store(true, Ordering::SeqCst);
            lm2.release(2, &key());
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!got.load(Ordering::SeqCst));
        lm.release(1, &key());
        h.join().unwrap();
        assert!(got.load(Ordering::SeqCst));
    }

    /// Mutual exclusion must survive the idle-cell cleanup: an acquirer
    /// that fetched a cell just before a release retired it must not be
    /// granted on the orphan while a later acquirer is granted on a fresh
    /// cell for the same key (and its own release, finding the fresh
    /// cell, would strand the orphan's waiters until they time out).
    /// Three threads do a non-atomic read-modify-write under the X lock;
    /// one double grant loses an increment.
    #[test]
    fn exclusive_holds_across_idle_cell_cleanup() {
        const THREADS: u64 = 3;
        const ROUNDS: u64 = 50_000;
        let lm = LockManager::new(Duration::from_secs(5));
        let counter = std::sync::atomic::AtomicU64::new(0);
        thread::scope(|s| {
            for t in 0..THREADS {
                let (lm, counter) = (&lm, &counter);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let txn = 1 + t + r * THREADS;
                        lm.acquire(txn, &key(), LockMode::Exclusive).unwrap();
                        let seen = counter.load(Ordering::SeqCst);
                        std::hint::spin_loop();
                        counter.store(seen + 1, Ordering::SeqCst);
                        lm.release(txn, &key());
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), THREADS * ROUNDS);
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let lm = LockManager::new(Duration::from_millis(20));
        let k1 = LockKey::Key(IndexId(0), vec![1, 2, 3].into());
        let k2 = LockKey::Key(IndexId(0), vec![1, 2, 4].into());
        lm.acquire(1, &k1, LockMode::Exclusive).unwrap();
        lm.acquire(2, &k2, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_all_clears_everything() {
        let lm = LockManager::new(Duration::from_millis(20));
        let keys = vec![
            LockKey::Row(TableId(0), 0),
            LockKey::Row(TableId(0), 1),
            LockKey::Key(IndexId(3), vec![9].into()),
        ];
        for k in &keys {
            lm.acquire(7, k, LockMode::Exclusive).unwrap();
        }
        lm.release_all(7, &keys);
        for k in &keys {
            assert!(lm.try_acquire(8, k, LockMode::Exclusive));
        }
    }
}
