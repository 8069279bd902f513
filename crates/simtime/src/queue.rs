//! The reference pending-event set of the discrete-event simulator.
//!
//! The engine runs on [`TimingWheel`](crate::TimingWheel). This module
//! keeps the original binary-heap implementation, [`BaselineEventQueue`],
//! as the wheel's oracle: the documented ordering contract (non-decreasing
//! time, FIFO among ties) is easy to read off a `BinaryHeap` over
//! `(time, seq)`, and because every key is unique (the sequence number
//! strictly increases), *any* correct priority queue yields the same pop
//! sequence — so the wheel must match it event for event.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The original binary-heap event queue, kept as the comparison oracle.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// *same* instant are popped in insertion order (FIFO). The property suite
/// checks [`TimingWheel`](crate::TimingWheel) against this implementation,
/// and `perfsuite` gates the wheel's speedup over it.
///
/// ```
/// use simtime::{BaselineEventQueue, SimTime};
///
/// let mut q = BaselineEventQueue::new();
/// q.schedule(SimTime::from_nanos(7), 'b');
/// q.schedule(SimTime::from_nanos(7), 'c');
/// q.schedule(SimTime::from_nanos(3), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct BaselineEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for BaselineEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BaselineEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BaselineEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BaselineEventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = BaselineEventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = BaselineEventQueue::new();
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = BaselineEventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_nanos(15), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }
}
