//! A bounded MPMC dispatch queue with a non-blocking producer side.
//!
//! The event loops must never block — a loop stalled on a full queue
//! stops reading *every* connection it owns, converting overload into
//! head-of-line latency for well-behaved clients. So the producer side
//! never waits: a full queue is reported immediately
//! ([`PushError::Full`]) and the loop turns it into a load-shed reply.
//! A loop hands over every request it decoded from one socket read with
//! one [`BoundedQueue::try_push_many`] — one lock acquisition per read,
//! not per request. The consumer side ([`BoundedQueue::pop`]) blocks —
//! executors have nothing better to do — takes one item at a time (a
//! batch pop would strand requests behind an executor that goes on to
//! lead a group-commit flush), and drains remaining items after
//! [`BoundedQueue::close`], so accepted work still completes during
//! shutdown.
//!
//! ## A push wakes only a sleeper
//!
//! `Condvar::notify_one` is a `futex` system call whether or not anyone
//! waits, so the queue counts its sleeping consumers itself, under the
//! same mutex that guards the items: `pop` raises the count before it
//! waits and lowers it when it wakes, and a push notifies at most as
//! many consumers as it found asleep — none, and no system call, when
//! every executor is busy. No wake-up is lost: a consumer decides to
//! sleep and is counted without releasing the mutex in between, so a
//! push either ran before (the consumer saw its item) or runs after
//! (it sees the count). A consumer that was notified and has not run
//! yet is still counted, so a push may notify once more than needed;
//! that costs a system call, never an item.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push was refused. [`BoundedQueue::try_push`] carries the item
/// back; [`BoundedQueue::try_push_many`] leaves what it refused in the
/// caller's vector.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the work.
    Full(T),
    /// The queue was closed — the consumer side is gone.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    /// Consumers inside `cv.wait` (or notified and not yet running).
    sleepers: usize,
    /// `notify_*` calls made so far (diagnostics).
    notifies: u64,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
// racer:terminal net::BoundedQueue::state
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                sleepers: 0,
                notifies: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Wake one sleeping consumer per item of `pushed`, and nobody — no
    /// system call — when the lock-protected count says none sleeps.
    /// Consumes the guard: the notify itself runs after the unlock, so
    /// the woken consumer does not trip over the mutex.
    fn notify(&self, mut s: parking_lot::MutexGuard<'_, State<T>>, pushed: usize) {
        let wake = pushed.min(s.sleepers);
        if wake == 0 {
            return;
        }
        // everyone asleep is wanted: one call instead of `wake`
        let all = wake == s.sleepers;
        s.notifies += if all { 1 } else { wake as u64 };
        drop(s);
        if all {
            self.cv.notify_all();
        } else {
            (0..wake).for_each(|_| self.cv.notify_one());
        }
    }

    /// Enqueue without blocking. Refuses when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        self.notify(s, 1);
        Ok(())
    }

    /// Enqueue as many of `items` as fit, in order, under one lock
    /// acquisition and without blocking. The accepted prefix is drained
    /// from `items`; `Err(Full)` leaves the refused suffix there (shed
    /// it), `Err(Closed)` leaves all of it.
    pub fn try_push_many(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        if items.is_empty() {
            return Ok(());
        }
        let mut s = self.state.lock();
        if s.closed {
            return Err(PushError::Closed(()));
        }
        let take = items.len().min(self.cap.saturating_sub(s.items.len()));
        s.items.extend(items.drain(..take));
        self.notify(s, take);
        if items.is_empty() {
            Ok(())
        } else {
            Err(PushError::Full(()))
        }
    }

    /// Dequeue, blocking until an item arrives. Returns `None` only
    /// once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s.sleepers += 1;
            self.cv.wait(&mut s);
            s.sleepers -= 1;
        }
    }

    /// Close the queue: producers are refused from now on, consumers
    /// drain what is queued and then observe the close.
    pub fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        self.notify(s, usize::MAX);
    }

    /// `Condvar::notify_*` calls made so far: each is a system call, so
    /// this is what the queue has cost its producers in wake-ups.
    pub fn notifies(&self) -> u64 {
        self.state.lock().notifies
    }

    /// Queued item count (diagnostics).
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "never saw: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn capacity_is_enforced_and_reported() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn a_batch_is_accepted_up_to_capacity_and_the_rest_handed_back() {
        let q = BoundedQueue::new(4);
        let mut batch = vec![1, 2, 3];
        assert!(q.try_push_many(&mut batch).is_ok());
        assert!(batch.is_empty());
        // one slot left: the prefix goes in, the suffix stays, in order
        let mut batch = vec![4, 5, 6];
        assert!(matches!(
            q.try_push_many(&mut batch),
            Err(PushError::Full(()))
        ));
        assert_eq!(batch, [5, 6]);
        assert_eq!(q.len(), 4);
        // full: nothing is taken
        assert!(matches!(
            q.try_push_many(&mut batch),
            Err(PushError::Full(()))
        ));
        assert_eq!(batch, [5, 6]);
        // an empty batch is no push at all, even on a full queue
        assert!(q.try_push_many(&mut Vec::new()).is_ok());
        assert_eq!(
            (1..=4).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        q.close();
        assert!(matches!(
            q.try_push_many(&mut batch),
            Err(PushError::Closed(()))
        ));
        assert_eq!(batch, [5, 6], "a closed queue takes nothing");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_drains_then_disconnects() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(v)) => assert_eq!(v, 3),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    /// The whole point of counting sleepers: a push that finds every
    /// consumer busy (or none at all) makes no `notify` call — no futex
    /// system call — and a push that finds sleepers wakes no more of
    /// them than it brought items for.
    #[test]
    fn a_push_notifies_only_a_sleeper() {
        let q = Arc::new(BoundedQueue::<u32>::new(64));
        q.try_push(1).unwrap();
        q.try_push_many(&mut vec![2, 3, 4]).unwrap();
        assert_eq!(q.notifies(), 0, "nobody sleeps, nobody is notified");
        for _ in 0..4 {
            q.pop().unwrap();
        }

        let got = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let (q, got) = (q.clone(), got.clone());
                std::thread::spawn(move || {
                    while q.pop().is_some() {
                        got.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        until("three sleepers", || q.state.lock().sleepers == 3);
        assert_eq!(q.notifies(), 0);
        // one item, three sleepers: one notify_one
        q.try_push(5).unwrap();
        assert_eq!(q.notifies(), 1);
        until("the item taken and its taker asleep again", || {
            got.load(Ordering::SeqCst) == 1 && q.state.lock().sleepers == 3
        });
        // two items: two notify_one calls, the third consumer sleeps on
        q.try_push_many(&mut vec![6, 7]).unwrap();
        assert_eq!(q.notifies(), 3);
        until("both taken", || {
            got.load(Ordering::SeqCst) == 3 && q.state.lock().sleepers == 3
        });
        // as many items as sleepers, or more: one notify_all
        q.try_push_many(&mut vec![8, 9, 10, 11, 12]).unwrap();
        assert_eq!(q.notifies(), 4);
        until("all taken", || {
            got.load(Ordering::SeqCst) == 8 && q.state.lock().sleepers == 3
        });
        q.close();
        assert_eq!(q.notifies(), 5);
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(q.state.lock().sleepers, 0);
    }

    #[test]
    fn close_wakes_every_sleeper() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        until("four sleepers", || q.state.lock().sleepers == 4);
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    /// Four producers pushing batches of 1–7 against three consumers
    /// that sleep whenever the queue runs dry: every item pushed is
    /// popped exactly once — a wake-up skipped for a consumer that was
    /// in fact asleep would leave the run hanging on `join`.
    #[test]
    fn batch_producers_and_consumers_conserve_items() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(BoundedQueue::<u64>::new(8));
        let (sum, count) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let (q, sum, count) = (q.clone(), sum.clone(), count.clone());
                std::thread::spawn(move || {
                    while let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut next = p * PER_PRODUCER;
                    let end = next + PER_PRODUCER;
                    let mut batch = Vec::new();
                    while next < end || !batch.is_empty() {
                        let fill = (next % 7 + 1).min(end - next);
                        batch.extend(next..next + fill);
                        next += fill;
                        while let Err(refused) = q.try_push_many(&mut batch) {
                            assert!(matches!(refused, PushError::Full(())));
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
