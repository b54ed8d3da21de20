//! Per-thread lock-free event rings and the global flight recorder.
//!
//! Each recording thread owns one [`Ring`]: a fixed-size array of
//! seqlock-protected slots written only by that thread. Readers (the
//! flight-recorder dump) never block writers; a slot caught mid-write
//! is simply skipped. All state is `AtomicU64`, so there is no
//! `unsafe` and no torn *word* — the version protocol only guards
//! against observing a mixed event (half old, half new).
//!
//! Protocol per slot, kept in `Slot::write` and `Slot::read`, the
//! only code that touches a slot's words:
//! - writer: bump `version` to odd, store the 7 payload words, bump
//!   `version` to even (release).
//! - reader: load `version` (acquire); if odd, skip. Load the words,
//!   re-load `version`; if it changed, skip.
//!
//! Rings register themselves in a global registry on first use so the
//! flight recorder can merge the tails of every thread's ring into one
//! globally ordered (by `seq`) view.

use crate::event::Event;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slots per thread ring. Power of two; the flight recorder keeps the
/// last `RING_SLOTS` events per recording thread.
pub const RING_SLOTS: usize = 1024;

struct Slot {
    version: AtomicU64,
    words: [AtomicU64; 7],
}

impl Slot {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            words: [Self::ZERO; 7],
        }
    }

    /// Store one event's words. Called only by the ring's owning thread,
    /// so the `version` load needs no ordering: no other thread stores it.
    fn write(&self, words: [u64; 7]) {
        let v = self.version.load(Ordering::Relaxed);
        // odd while the words are in flux: a reader that sees it skips
        self.version.store(v | 1, Ordering::Release);
        for (w, word) in self.words.iter().zip(words) {
            w.store(word, Ordering::Release);
        }
        // even again: releases the words to a reader that acquires it
        self.version
            .store((v | 1).wrapping_add(1), Ordering::Release);
    }

    /// The slot's words, or `None` if a write was in progress at any
    /// point of the read (odd `version`, or a `version` that moved).
    fn read(&self) -> Option<[u64; 7]> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return None; // mid-write
        }
        let mut words = [0u64; 7];
        for (dst, w) in words.iter_mut().zip(&self.words) {
            *dst = w.load(Ordering::Acquire);
        }
        let v2 = self.version.load(Ordering::Acquire);
        if v1 != v2 {
            return None; // overwritten while reading
        }
        Some(words)
    }
}

/// A single thread's event ring. Written by exactly one thread,
/// readable by any.
pub struct Ring {
    /// Trace worker id of the owning thread.
    worker: u64,
    /// Next logical write position (monotonic; slot = head % RING_SLOTS).
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(worker: u64) -> Ring {
        Ring {
            worker,
            head: AtomicU64::new(0),
            slots: (0..RING_SLOTS).map(|_| Slot::new()).collect(),
        }
    }

    /// Trace worker id of the owning thread.
    pub fn worker(&self) -> u64 {
        self.worker
    }

    /// Publish one event. Called only by the owning thread.
    pub fn push(&self, event: &Event) {
        // Relaxed: the owning thread is the only one that stores `head`
        let pos = self.head.load(Ordering::Relaxed);
        self.slots[(pos as usize) % RING_SLOTS].write(event.encode());
        // Release: a snapshot that acquires this `head` sees the slot
        // written just above
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Snapshot every readable slot, oldest first. Slots caught
    /// mid-write (or never written) are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let filled = (head as usize).min(RING_SLOTS);
        let mut out = Vec::with_capacity(filled);
        // Walk from the oldest retained logical position forward.
        let start = head - filled as u64;
        for pos in start..head {
            let slot = &self.slots[(pos as usize) % RING_SLOTS];
            if let Some(event) = slot.read().and_then(Event::decode) {
                out.push(event);
            }
        }
        out
    }
}

/// Global registry of all thread rings ever created. Rings are never
/// unregistered: a finished worker's tail stays dumpable, which is
/// exactly what a post-mortem flight recorder wants.
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Next trace worker id.
static NEXT_WORKER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static MY_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new(NEXT_WORKER.fetch_add(1, Ordering::Relaxed)));
        REGISTRY.lock().push(ring.clone());
        ring
    };
}

/// The calling thread's ring (created and registered on first use).
pub fn with_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    MY_RING.with(|ring| f(ring))
}

/// Merge the tails of every registered ring into one `seq`-ordered
/// view, keeping only events with `seq >= floor`, and truncate to the
/// last `limit` events.
pub fn merged_tail(floor: u64, limit: usize) -> Vec<Event> {
    let rings: Vec<Arc<Ring>> = REGISTRY.lock().clone();
    let mut events: Vec<Event> = rings
        .iter()
        .flat_map(|r| r.snapshot())
        .filter(|e| e.seq >= floor)
        .collect();
    events.sort_by_key(|e| e.seq);
    if events.len() > limit {
        events.drain(..events.len() - limit);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use feral_hooks::Site;
    use std::sync::atomic::AtomicBool;

    /// An event whose every word is derived from `seq`, so a slot read
    /// that mixes two writes decodes to an event `ev` would not build.
    fn ev(seq: u64) -> Event {
        Event {
            seq,
            ts_nanos: seq * 10,
            worker: seq.rotate_left(32),
            txn: seq,
            kind: EventKind::Site(if seq.is_multiple_of(2) {
                Site::TxnCommit
            } else {
                Site::TxnScan
            }),
            a: seq,
            b: !seq,
        }
    }

    #[test]
    fn ring_keeps_insertion_order() {
        let ring = Ring::new(99);
        for seq in 0..10 {
            ring.push(&ev(seq));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 10);
        assert_eq!(got.first().unwrap().seq, 0);
        assert_eq!(got.last().unwrap().seq, 9);
        assert_eq!(ring.worker(), 99);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let ring = Ring::new(0);
        let total = RING_SLOTS as u64 * 3 + 7;
        for seq in 0..total {
            ring.push(&ev(seq));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), RING_SLOTS);
        assert_eq!(got.first().unwrap().seq, total - RING_SLOTS as u64);
        assert_eq!(got.last().unwrap().seq, total - 1);
        // Still contiguous after wrapping.
        for pair in got.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
    }

    /// One thread pushes while another snapshots: every event a snapshot
    /// returns must be one the writer pushed whole, never half of one
    /// write and half of the next that reused its slot. The writer pushes
    /// until the reader is done, so every snapshot races live writes.
    #[test]
    fn racing_snapshots_never_see_a_mixed_event() {
        const PUSHES: u64 = 2_000_000;
        const SNAPSHOTS: u64 = 1_000;
        let ring = Arc::new(Ring::new(7));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, stop) = (ring.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut seq = 0;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(&ev(seq));
                    seq += 1;
                }
            })
        };
        let mut snapshots = 0;
        let mut mixed = None;
        while mixed.is_none()
            && (snapshots < SNAPSHOTS || ring.head.load(Ordering::Acquire) < PUSHES)
        {
            mixed = ring.snapshot().into_iter().find(|e| *e != ev(e.seq));
            snapshots += 1;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(mixed, None, "mixed event read from a slot");
    }
}
