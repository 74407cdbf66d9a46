//! A stable event queue.
//!
//! [`EventQueue`] orders events by timestamp; events with equal timestamps
//! are delivered in insertion order (FIFO). Stability matters for
//! reproducibility: rank programs frequently schedule several events at the
//! same instant (e.g. all ranks released by a barrier) and the methodology's
//! determinism tests require identical delivery order on every run.
//!
//! # Implementation
//!
//! Events live in a slab (a `Vec` arena with a free list), and a four-ary
//! min-heap orders compact `(timestamp, sequence, slot)` entries. Compared
//! to a `BinaryHeap` of boxed-up entries this removes the per-push
//! allocation entirely once the arena is warm — a simulation pushes and
//! pops millions of events over a nearly constant population, so after the
//! first few levels of growth every `schedule` reuses a freed slot. The
//! ordering key is stored *inline* in the heap entry (not looked up
//! through the slot index), so sifting never chases a pointer into the
//! arena; payloads, which can be large, never move during sifts. The
//! four-ary layout halves the tree depth, which trades slightly more
//! comparisons per sift-down for far fewer cache misses on the hot pop
//! path.

use crate::time::Time;

/// Heap arity. Four keeps parent/child arithmetic shift-based and the tree
/// shallow; benchmarks on the simulator's event mix favour it over binary.
const D: usize = 4;

/// One heap entry: the full ordering key plus the payload's slot. Keeping
/// the key here (instead of dereferencing `slot`) makes every sift
/// comparison a sequential read of the heap array itself.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: Time,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// A time-ordered queue of events with stable FIFO tie-breaking.
pub struct EventQueue<T> {
    /// Payload arena: `Some` while the event is pending, `None` for a
    /// vacant slot on the free list.
    slots: Vec<Option<T>>,
    /// Vacant slot indices available for reuse.
    free: Vec<u32>,
    /// Four-ary min-heap keyed by `(at, seq)`.
    heap: Vec<HeapEntry>,
    next_seq: u64,
    now: Time,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The timestamp of the most recently popped event (the current
    /// simulation time), or zero if nothing has been popped yet.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `item` for delivery at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// panics (in debug and release) rather than silently reordering time.
    ///
    /// Panic audit (campaign-worker reachability): the past-scheduling
    /// assert below fires only on a caller logic error — every scheduling
    /// site derives `at` from `now() + delay` with unsigned delays — and
    /// no op-program or configuration input can produce it, so it stays a
    /// panic (caught by the worker's panic isolation if a model bug ever
    /// introduces one) rather than a typed error on the hot path.
    pub fn schedule(&mut self, at: Time, item: T) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(item);
                idx
            }
            None => {
                // Panic audit: >4 billion *simultaneously pending* events
                // would need hundreds of GiB of host memory first; watchdog
                // budgets abort runaway simulations long before. Invariant,
                // not an input-reachable failure.
                let idx = u32::try_from(self.slots.len()).expect("event arena exceeds u32 slots");
                self.slots.push(Some(item));
                idx
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, advancing [`Self::now`].
    pub fn pop(&mut self) -> Option<(Time, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        // Panic audit: every heap entry owns a pending payload, so the
        // expect is unreachable unless the heap itself regresses — not
        // anything an op program or configuration can trigger.
        let item = self.slots[top.slot as usize]
            .take()
            .expect("heap entry has a payload");
        self.free.push(top.slot);
        self.now = top.at;
        Some((top.at, item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut pos: usize) {
        let moved = self.heap[pos];
        let key = moved.key();
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = moved;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let moved = self.heap[pos];
        let key = moved.key();
        loop {
            let first_child = pos * D + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let last_child = (first_child + D).min(self.heap.len());
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            self.heap[pos] = self.heap[best];
            pos = best;
        }
        self.heap[pos] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(3), "c");
        q.schedule(Time::from_secs(1), "a");
        q.schedule(Time::from_secs(2), "b");
        assert_eq!(q.pop(), Some((Time::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((Time::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((Time::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time::from_secs(2), 1);
        q.pop();
        assert_eq!(q.now(), Time::from_secs(2));
        // A relative delay is scheduled at `now() + delay`.
        q.schedule(q.now() + Time::from_secs(4), 2);
        assert_eq!(q.pop(), Some((Time::from_secs(6), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(10), ());
        q.pop();
        q.schedule(Time::from_secs(1), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::ZERO, ());
        q.schedule(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(1), 1u32);
        q.schedule(Time::from_secs(5), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(Time::from_secs(3), 3);
        q.schedule(Time::from_secs(4), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn slab_reuses_slots_across_pop_cycles() {
        // Steady-state churn: the arena must not grow past the peak
        // population, and ordering must survive heavy slot reuse.
        let mut q = EventQueue::new();
        for round in 0..200u64 {
            q.schedule(Time::from_nanos(round * 10 + 5), round);
            q.schedule(Time::from_nanos(round * 10 + 5), round + 1000);
            let (_, first) = q.pop().unwrap();
            let (_, second) = q.pop().unwrap();
            assert_eq!(first, round);
            assert_eq!(second, round + 1000);
        }
        assert!(q.slots.len() <= 4, "arena grew despite reuse");
    }

    #[test]
    fn randomized_order_matches_reference_sort() {
        // Deterministic pseudo-random mix of schedules and pops checked
        // against a sorted reference; popping mid-stream reuses slots
        // while the heap is still populated.
        let mut q = EventQueue::new();
        let mut pending: Vec<(Time, u64)> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(5) {
                // (at, i) order is (at, insertion) order: i only grows.
                pending.sort();
                let want = (!pending.is_empty()).then(|| pending.remove(0));
                assert_eq!(q.pop(), want);
            } else {
                let at = q.now() + Time::from_nanos(x % 64);
                q.schedule(at, i);
                pending.push((at, i));
            }
        }
        pending.sort();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, pending);
    }
}
