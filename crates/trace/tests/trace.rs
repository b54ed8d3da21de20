//! Integration tests for feral-trace: histogram merge/quantile
//! properties, ring-buffer wraparound under concurrent writers, and
//! the end-to-end record → flight-recorder path (the provenance
//! analysis over a recorded race is tested in `feral-bench`).
//!
//! These tests share the crate's global tracing state (ENABLED, the
//! sequence counter, thread rings), so everything that needs tracing
//! *on* runs inside one serialized test; the property tests only touch
//! local `Histogram` instances and are safe to run in parallel.

use feral_trace::hist::{bucket_bounds, bucket_index, HIST_BUCKETS, QUANTILE_SENTINEL};
use feral_trace::{fnv64, Event, EventKind, Histogram, HistogramSnapshot, Phase};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

proptest! {
    /// Every value lands in a bucket whose bounds contain it, and the
    /// bucket's relative width is at most 25 % of its lower bound.
    #[test]
    fn bucket_bounds_contain_the_value(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < HIST_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        if lo >= 16 {
            prop_assert!(hi - lo < lo / 2, "bucket [{lo}, {hi}] too wide");
        }
    }

    /// merge is commutative and count/sum-preserving.
    #[test]
    fn merge_is_commutative(
        xs in proptest::collection::vec(0u64..1_000_000, 0..64),
        ys in proptest::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let (ha, hb) = (Histogram::new(), Histogram::new());
        for &x in &xs { ha.record(x); }
        for &y in &ys { hb.record(y); }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let ab = sa.merge(&sb);
        let ba = sb.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count, (xs.len() + ys.len()) as u64);
        prop_assert_eq!(ab.sum, xs.iter().sum::<u64>() + ys.iter().sum::<u64>());
        prop_assert!(ab.well_formed());
    }

    /// Quantiles are monotone in q, never exceed max, and the reported
    /// value over-estimates the true order statistic by at most one
    /// sub-bucket (25 % relative error).
    #[test]
    fn quantiles_are_monotone_and_bounded(
        mut xs in proptest::collection::vec(0u64..10_000_000, 1..128),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &x in &xs { h.record(x); }
        let s = h.snapshot();
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        // A snapshot collapsed into one multi-value bucket is
        // degenerate: every quantile is the sentinel (still monotone).
        let sparse = s.sparse();
        if sparse.len() == 1 {
            let (lo, hi) = bucket_bounds(sparse[0].0);
            if lo < hi {
                prop_assert_eq!(s.quantile(lo_q), QUANTILE_SENTINEL);
                prop_assert_eq!(s.quantile(hi_q), QUANTILE_SENTINEL);
                return Ok(());
            }
        }
        prop_assert!(s.quantile(lo_q) <= s.quantile(hi_q));
        prop_assert!(s.quantile(1.0) <= s.max);

        xs.sort_unstable();
        let rank = ((hi_q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        let truth = xs[rank - 1];
        let reported = s.quantile(hi_q);
        prop_assert!(reported >= truth, "reported {reported} < true {truth}");
        prop_assert!(
            reported <= truth + truth / 2 + 1,
            "reported {reported} too far above true {truth}"
        );
    }

    /// diff(merge(a, b), b) restores a exactly (bucket-wise).
    #[test]
    fn diff_undoes_merge(
        xs in proptest::collection::vec(0u64..100_000, 0..64),
        ys in proptest::collection::vec(0u64..100_000, 0..64),
    ) {
        let (ha, hb) = (Histogram::new(), Histogram::new());
        for &x in &xs { ha.record(x); }
        for &y in &ys { hb.record(y); }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let restored = sa.merge(&sb).diff(&sb);
        prop_assert_eq!(restored.buckets, sa.buckets);
        prop_assert_eq!(restored.count, sa.count);
        prop_assert_eq!(restored.sum, sa.sum);
    }

    /// Sparse wire form round-trips exactly.
    #[test]
    fn sparse_form_roundtrips(xs in proptest::collection::vec(any::<u64>(), 0..64)) {
        let h = Histogram::new();
        for &x in &xs { h.record(x); }
        let s = h.snapshot();
        let rebuilt = HistogramSnapshot::from_sparse(&s.sparse(), s.count, s.sum, s.max);
        prop_assert_eq!(rebuilt.unwrap(), s);
    }
}

/// Everything that flips the global ENABLED switch lives in this one
/// test so no parallel test observes tracing half-on.
#[test]
fn live_tracing_end_to_end() {
    assert!(!feral_trace::enabled());
    feral_trace::set_enabled(true);
    feral_trace::reset();

    // --- concurrent writers, each well past wraparound ---
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = (feral_trace::ring::RING_SLOTS as u64) * 2 + 37;
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            // Hammer the flight recorder while writers are mid-stream:
            // merged_tail must never panic or return torn events.
            // At least once: on a busy two-core box the writers can be
            // done before this thread is first scheduled.
            let mut dumps = 0u64;
            loop {
                let tail = feral_trace::flight_recorder(256);
                for pair in tail.windows(2) {
                    assert!(pair[0].seq < pair[1].seq, "dump not seq-ordered");
                }
                dumps += 1;
                if stop.load(Ordering::Relaxed) {
                    break dumps;
                }
            }
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    feral_trace::record(
                        EventKind::WorkloadOp,
                        w as u64 + 1,
                        i,
                        fnv64(b"key_values"),
                    );
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let dumps = reader.join().unwrap();
    assert!(dumps > 0);

    // After the dust settles: each writer thread's ring retains exactly
    // RING_SLOTS events, and the merged tail honours the limit.
    let tail = feral_trace::flight_recorder(64);
    assert_eq!(tail.len(), 64);
    let full = feral_trace::flight_recorder(usize::MAX);
    assert!(full.len() >= feral_trace::ring::RING_SLOTS * WRITERS.min(2));
    // txn ids tag which writer produced each event; every writer's tail
    // must survive into the merged view.
    for w in 1..=WRITERS as u64 {
        assert!(
            full.iter().any(|e| e.txn == w),
            "writer {w} missing from merged dump"
        );
    }

    // --- reset() hides history from the flight recorder ---
    feral_trace::reset();
    assert!(feral_trace::flight_recorder(usize::MAX).is_empty());

    // --- phase spans feed the global histograms + emit events ---
    let span = feral_trace::start_phase(Phase::Validate);
    std::hint::black_box(17u64);
    let nanos = span.finish(99);
    assert!(nanos > 0);
    let snap = feral_trace::phase_histogram(Phase::Validate).snapshot();
    assert_eq!(snap.count, 1);
    assert!(snap.well_formed());
    let tail = feral_trace::flight_recorder(8);
    assert!(matches!(
        tail.last(),
        Some(Event {
            kind: EventKind::PhaseEnd,
            txn: 99,
            ..
        })
    ));

    // --- disabling makes every hook inert again ---
    feral_trace::set_enabled(false);
    feral_trace::reset();
    feral_trace::record(EventKind::Abort, 1, 0, 0);
    assert!(feral_trace::flight_recorder(usize::MAX).is_empty());
    assert_eq!(feral_trace::start_phase(Phase::Commit).finish(1), 0);
}
