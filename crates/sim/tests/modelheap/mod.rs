//! The engine's first scheduler, retained as a *model*.
//!
//! This is the `BinaryHeap<Reverse<_>>` + tombstone-set event queue the
//! engine used before its queue became an ordered map that removes
//! cancelled events. It is kept, verbatim in behavior, for one purpose
//! only: the differential test (`scheduler_differential.rs`) replays
//! random schedules against both and requires byte-identical fire orders.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crdb_util::time::SimTime;

struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The old scheduler: a min-heap ordered by `(at, seq)` with lazy
/// cancellation via a tombstone set. Event ids are the schedule sequence
/// numbers, exactly as that engine assigned them.
pub struct ModelScheduler<T> {
    queue: BinaryHeap<Reverse<Scheduled<T>>>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
}

impl<T> Default for ModelScheduler<T> {
    fn default() -> Self {
        ModelScheduler::new()
    }
}

impl<T> ModelScheduler<T> {
    /// Creates an empty model scheduler.
    pub fn new() -> ModelScheduler<T> {
        ModelScheduler { queue: BinaryHeap::new(), cancelled: BTreeSet::new(), next_seq: 0 }
    }

    /// Schedules `value` at `at`; returns the event id (== seq).
    pub fn schedule(&mut self, at: SimTime, value: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, value }));
        seq
    }

    /// Marks an event cancelled (lazy: the entry stays queued until its
    /// pop, exactly like the old engine).
    pub fn cancel(&mut self, id: u64) {
        self.cancelled.insert(id);
    }

    /// Pops the earliest live event as `(at, seq, value)`, discarding
    /// tombstoned entries on the way.
    pub fn pop_min(&mut self) -> Option<(SimTime, u64, T)> {
        loop {
            let Reverse(s) = self.queue.pop()?;
            if self.cancelled.remove(&s.seq) {
                continue;
            }
            return Some((s.at, s.seq, s.value));
        }
    }
}
