//! Deterministic event queue.
//!
//! [`EventQueue`] is a min-heap keyed by [`Cycle`] with a sequence-number
//! tie-break: events scheduled for the same cycle are delivered in the
//! order they were pushed. Determinism of the whole simulation hinges on
//! this property, so it is tested both directly and by property tests.
#![deny(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::Cycle;

struct Entry<T> {
    at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // cycle, the first-pushed) entry is the "largest".
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timestamped events with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use simkit::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(5), 'b');
/// q.push(Cycle(1), 'a');
/// assert_eq!(q.peek_time(), Some(Cycle(1)));
/// assert_eq!(q.pop(), Some((Cycle(1), 'a')));
/// assert_eq!(q.len(), 1);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Returns the delivery time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn len_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    proptest! {
        /// Popping must yield events in nondecreasing time order, and events
        /// pushed at equal times must come out in push order.
        #[test]
        fn prop_stable_time_order(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Cycle(t), i);
            }
            let mut prev: Option<(Cycle, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((pt, pidx)) = prev {
                    prop_assert!(t >= pt);
                    if t == pt {
                        prop_assert!(idx > pidx, "FIFO violated within cycle {t}");
                    }
                }
                prev = Some((t, idx));
            }
        }
    }
}
