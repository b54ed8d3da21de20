//! Engine statistics counters.
//!
//! The experiments report anomaly and abort counts, so the engine keeps a
//! counter for every interesting event. Counting must not be coordination:
//! a `GET` bumps `scans`, `index_probes` and `commits`, and with one cell
//! per counter every reader in the process would write the same cache line
//! three times per request. So the counters are **striped by thread**:
//! each thread bumps the cells of its own cache-line-padded
//! [`StatsStripe`] ([`Stats::local`]), and [`Stats::snapshot`] sums the
//! stripes. Every bump lands in exactly one cell, so a snapshot taken once
//! the bumping threads are quiescent is exact, and so is a
//! [`StatsSnapshot::diff`] of two such snapshots; under concurrent bumps a
//! snapshot is a consistent lower bound per counter, as it was before.
//!
//! The four counters after the stripes are plain cells: the `audit_*`
//! ones are `store`d from the auditor's authoritative totals
//! ([`crate::Database::audit_snapshot`]), which has no striped meaning,
//! and fail-safe escalations are rare by construction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of thread stripes. Threads are numbered as they first touch the
/// engine ([`thread_slot`]), so the first eight never share a stripe.
const STRIPES: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A small dense number for the calling thread, assigned the first time
/// it asks. Thread-striped structures (these counters, the
/// active-snapshot registry, a service's session pool) pick their stripe
/// as `thread_slot() % stripes`, so one thread keeps hitting lines no
/// other thread writes.
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| *slot)
}

/// Defines the counters once: the striped cells, the plain cells, the
/// snapshot struct, and the three views over it (`snapshot`, `diff`,
/// `fields`) that must list every counter in declaration order.
macro_rules! counters {
    (
        striped { $($(#[$sdoc:meta])* $s:ident,)* }
        plain { $($(#[$pdoc:meta])* $p:ident,)* }
    ) => {
        /// One thread stripe of the monotonic event counters, padded so
        /// no two stripes share a cache line (or an adjacent-line
        /// prefetch pair).
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct StatsStripe {
            $($(#[$sdoc])* pub $s: AtomicU64,)*
        }

        /// Monotonic event counters, updated with relaxed atomics: bump
        /// through [`Stats::local`], read through [`Stats::snapshot`].
        #[derive(Debug, Default)]
        pub struct Stats {
            stripes: [StatsStripe; STRIPES],
            $($(#[$pdoc])* pub $p: AtomicU64,)*
        }

        /// A point-in-time copy of [`Stats`], summed over the stripes.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$sdoc])* pub $s: u64,)*
            $($(#[$pdoc])* pub $p: u64,)*
        }

        impl Stats {
            /// Copy all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                let mut snap = StatsSnapshot {
                    $($p: self.$p.load(Ordering::Relaxed),)*
                    ..StatsSnapshot::default()
                };
                for stripe in &self.stripes {
                    $(snap.$s += stripe.$s.load(Ordering::Relaxed);)*
                }
                snap
            }
        }

        impl StatsSnapshot {
            /// Difference of two snapshots (`self - earlier`), saturating:
            /// the counters accumulated over a measurement window.
            pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($s: self.$s.saturating_sub(earlier.$s),)*
                    $($p: self.$p.saturating_sub(earlier.$p),)*
                }
            }

            /// All counters as `(name, value)` pairs, in declaration order —
            /// the exporter-friendly view (JSON / Prometheus reports iterate
            /// this instead of hard-coding field names).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($s), self.$s),)*
                    $((stringify!($p), self.$p),)*
                ]
            }
        }
    };
}

counters! {
    striped {
        /// Transactions committed.
        commits,
        /// Transactions rolled back (explicitly or via error).
        aborts,
        /// Lock waits that ended in timeout (deadlock resolution).
        lock_timeouts,
        /// First-updater-wins aborts under SI/Serializable.
        write_conflicts,
        /// Backward-validation aborts under Serializable.
        serialization_failures,
        /// Writes rejected by in-database unique constraints.
        unique_violations,
        /// Writes rejected by in-database foreign-key constraints.
        fk_violations,
        /// Row insert operations buffered.
        inserts,
        /// Row update operations buffered.
        updates,
        /// Row delete operations buffered.
        deletes,
        /// Scan statements executed.
        scans,
        /// Index-probe scans (vs full heap scans).
        index_probes,
        /// Application-level validation probes (the feral
        /// `SELECT … LIMIT 1` issued by ORM uniqueness/presence checks).
        validation_probes,
        /// WAL records appended.
        wal_appends,
        /// Commit-shard latches that were contended on acquisition (a
        /// committing transaction found another commit holding one of its
        /// shards and had to wait).
        commit_shard_conflicts,
        /// Group-commit batches flushed by a leader (each covers one or
        /// more WAL records).
        group_commit_batches,
        /// Physical WAL flush (+ optional fsync) operations. With group
        /// commit this grows once per batch while `wal_appends` grows
        /// once per record; the ratio is the batching factor.
        wal_flushes,
    }
    plain {
        /// Dependency edges (wr/ww/rw) added to the runtime audit graph.
        audit_edges,
        /// Critical cycles (anomaly verdicts) found by the runtime auditor.
        audit_cycles,
        /// Transaction footprints dropped because the audit buffer was
        /// saturated (the graph is conservative-incomplete past this point).
        audit_drops,
        /// Transactions started via [`crate::TxnOptions::planned`] whose
        /// template had no [`crate::IsolationPlan`] assignment and were
        /// fail-safe escalated to the plan's default level.
        plan_failsafe_escalations,
    }
}

impl Stats {
    /// Increment a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The calling thread's stripe: `Stats::bump(&stats.local().scans)`.
    #[inline]
    pub fn local(&self) -> &StatsStripe {
        &self.stripes[thread_slot() % STRIPES]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Stats::default();
        Stats::bump(&s.local().commits);
        Stats::bump(&s.local().commits);
        Stats::bump(&s.local().aborts);
        let a = s.snapshot();
        assert_eq!(a.commits, 2);
        assert_eq!(a.aborts, 1);
        Stats::bump(&s.local().commits);
        let b = s.snapshot();
        let d = b.diff(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn snapshot_sums_every_stripe() {
        let s = Stats::default();
        for (i, stripe) in s.stripes.iter().enumerate() {
            stripe.scans.fetch_add(i as u64 + 1, Ordering::Relaxed);
        }
        let total = (1..=STRIPES as u64).sum::<u64>();
        assert_eq!(s.snapshot().scans, total);
        assert_eq!(std::mem::align_of::<StatsStripe>(), 128);
        // a thread keeps its stripe
        assert!(std::ptr::eq(s.local(), s.local()));
    }

    #[test]
    fn concurrent_bumps_sum_exactly() {
        const THREADS: u64 = 8;
        const BUMPS: u64 = 10_000;
        let s = Stats::default();
        Stats::bump(&s.local().scans);
        let earlier = s.snapshot();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..BUMPS {
                        Stats::bump(&s.local().scans);
                        Stats::bump(&s.local().commits);
                    }
                });
            }
        });
        let now = s.snapshot();
        assert_eq!(now.scans, THREADS * BUMPS + 1);
        assert_eq!(now.commits, THREADS * BUMPS);
        let d = now.diff(&earlier);
        assert_eq!(
            (d.scans, d.commits, d.aborts),
            (THREADS * BUMPS, THREADS * BUMPS, 0)
        );
    }

    #[test]
    fn diff_covers_striped_and_plain_counters() {
        let s = Stats::default();
        Stats::bump(&s.local().validation_probes);
        Stats::bump(&s.local().validation_probes);
        Stats::bump(&s.local().wal_appends);
        Stats::bump(&s.audit_edges);
        Stats::bump(&s.audit_edges);
        Stats::bump(&s.audit_cycles);
        Stats::bump(&s.plan_failsafe_escalations);
        let a = s.snapshot();
        Stats::bump(&s.local().validation_probes);
        Stats::bump(&s.audit_edges);
        Stats::bump(&s.audit_drops);
        let d = s.snapshot().diff(&a);
        assert_eq!(d.validation_probes, 1);
        assert_eq!(d.wal_appends, 0);
        assert_eq!(d.audit_edges, 1);
        assert_eq!(d.audit_cycles, 0);
        assert_eq!(d.audit_drops, 1);
        assert_eq!(d.plan_failsafe_escalations, 0);
    }

    #[test]
    fn fields_enumerates_every_counter() {
        let snap = StatsSnapshot {
            commits: 1,
            aborts: 2,
            lock_timeouts: 3,
            write_conflicts: 4,
            serialization_failures: 5,
            unique_violations: 6,
            fk_violations: 7,
            inserts: 8,
            updates: 9,
            deletes: 10,
            scans: 11,
            index_probes: 12,
            validation_probes: 13,
            wal_appends: 14,
            commit_shard_conflicts: 15,
            group_commit_batches: 16,
            wal_flushes: 17,
            audit_edges: 18,
            audit_cycles: 19,
            audit_drops: 20,
            plan_failsafe_escalations: 21,
        };
        let fields = snap.fields();
        assert_eq!(fields.len(), 21);
        // Every value appears exactly once, in declaration order.
        assert_eq!(fields.iter().map(|(_, v)| v).sum::<u64>(), (1..=21).sum());
        assert_eq!(fields[0], ("commits", 1));
        assert_eq!(fields[12], ("validation_probes", 13));
        assert_eq!(fields[13], ("wal_appends", 14));
        assert_eq!(fields[14], ("commit_shard_conflicts", 15));
        assert_eq!(fields[15], ("group_commit_batches", 16));
        assert_eq!(fields[16], ("wal_flushes", 17));
        assert_eq!(fields[17], ("audit_edges", 18));
        assert_eq!(fields[18], ("audit_cycles", 19));
        assert_eq!(fields[19], ("audit_drops", 20));
        assert_eq!(fields[20], ("plan_failsafe_escalations", 21));
    }
}
