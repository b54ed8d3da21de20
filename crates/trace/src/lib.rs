//! # feral-trace
//!
//! Low-overhead observability for the feral stack: structured
//! per-transaction event spans recorded into per-thread lock-free ring
//! buffers, log-scale latency histograms around request dispatch and
//! every save phase, and a global flight recorder that can dump the
//! last N events when an anomaly oracle fires. The JSON parser ([`json`])
//! and [`escape_label`] serve the reports built on top of it.
//!
//! Tracing is **off by default**. Every hook threaded through
//! `feraldb`, `feral-orm`, `feral-server`, and `feral-workloads` is a
//! branch-on-disabled no-op: one relaxed atomic load and a predictable
//! branch, so tier-1 timing and the figure binaries are
//! unaffected (see the determinism test in `feraldb`).
//!
//! ```
//! use feral_trace as trace;
//!
//! trace::set_enabled(true);
//! trace::record(trace::EventKind::UniqueProbe, 7, trace::fnv64(b"key-1"), 0);
//! let span = trace::start_phase(trace::Phase::Validate);
//! // ... do the validation ...
//! span.finish(7);
//! let tail = trace::flight_recorder(16);
//! assert!(!tail.is_empty());
//! trace::set_enabled(false);
//! ```

pub mod event;
pub mod hist;
pub mod json;
pub mod ring;

pub use event::{fnv64, Event, EventKind, Phase, PHASES};
pub use hist::{Histogram, HistogramSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Escape a Prometheus label value: backslash, double-quote, and
/// line-feed must be backslash-escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Master switch. Off by default; every hook below checks it first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Global event sequence (total order across threads).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Events with `seq` below this floor are invisible to the flight
/// recorder — [`reset`] moves it forward instead of clearing rings.
static FLOOR: AtomicU64 = AtomicU64::new(0);

/// Per-phase global latency histograms, indexed by [`Phase::code`].
static PHASE_HISTS: [Histogram; 5] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// Whether tracing is currently enabled (relaxed load — this is the
/// hot-path gate).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the tracing clock started (first call).
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Record one event on the calling thread's ring. No-op when tracing
/// is disabled.
#[inline]
pub fn record(kind: EventKind, txn: u64, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    record_always(kind, txn, a, b);
}

fn record_always(kind: EventKind, txn: u64, a: u64, b: u64) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_nanos = now_nanos();
    ring::with_ring(|ring| {
        ring.push(&Event {
            seq,
            ts_nanos,
            worker: ring.worker(),
            txn,
            kind,
            a,
            b,
        });
    });
}

/// Dump the last `limit` events (all threads merged, `seq`-ordered)
/// since the most recent [`reset`]. Safe to call while writers are
/// active — slots caught mid-write are skipped.
pub fn flight_recorder(limit: usize) -> Vec<Event> {
    ring::merged_tail(FLOOR.load(Ordering::Acquire), limit)
}

/// Start a new trace window: the flight recorder forgets prior events
/// and the global phase histograms are zeroed. (Rings are not cleared;
/// a sequence floor hides old events, so concurrent writers are never
/// raced.)
pub fn reset() {
    FLOOR.store(SEQ.load(Ordering::Relaxed), Ordering::Release);
    for h in &PHASE_HISTS {
        h.reset();
    }
}

/// The global latency histogram for one phase.
pub fn phase_histogram(phase: Phase) -> &'static Histogram {
    &PHASE_HISTS[phase.code() as usize]
}

/// Snapshot all five phase histograms, in [`PHASES`] order.
pub fn phase_snapshots() -> Vec<(Phase, HistogramSnapshot)> {
    PHASES
        .iter()
        .map(|&p| (p, phase_histogram(p).snapshot()))
        .collect()
}

/// An in-flight timed phase. Obtained from [`start_phase`]; call
/// [`PhaseSpan::finish`] when the phase completes. When tracing is
/// disabled the span is inert (no clock read, nothing recorded).
#[must_use = "a phase span measures nothing unless finished"]
pub struct PhaseSpan {
    phase: Phase,
    start: Option<Instant>,
}

impl PhaseSpan {
    /// End the phase: records the elapsed nanoseconds into the global
    /// phase histogram and emits a [`EventKind::PhaseEnd`] event tagged
    /// with `txn`. Returns the elapsed nanoseconds (0 when disabled).
    pub fn finish(self, txn: u64) -> u64 {
        let Some(start) = self.start else { return 0 };
        let nanos = start.elapsed().as_nanos() as u64;
        // Re-check: tracing may have been toggled off mid-span; the
        // histogram write is still fine, but stay consistent and drop it.
        if enabled() {
            phase_histogram(self.phase).record(nanos);
            record_always(EventKind::PhaseEnd, txn, self.phase.code(), nanos);
        }
        nanos
    }
}

/// Begin timing a phase. One branch + one clock read when enabled;
/// pure branch when disabled.
#[inline]
pub fn start_phase(phase: Phase) -> PhaseSpan {
    PhaseSpan {
        phase,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests here share the global ENABLED/SEQ state; the integration
    // suite (tests/trace.rs) covers concurrency. This module only
    // checks the disabled path stays inert.
    #[test]
    fn disabled_hooks_are_inert() {
        assert!(!enabled());
        let before = SEQ.load(Ordering::Relaxed);
        record(EventKind::Abort, 1, 2, 3);
        let span = start_phase(Phase::Commit);
        assert_eq!(span.finish(1), 0);
        assert_eq!(SEQ.load(Ordering::Relaxed), before);
        assert!(phase_histogram(Phase::Commit).snapshot().is_empty());
    }
}
