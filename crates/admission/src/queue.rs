//! The tenant-fair work queue — a "hierarchy of heaps" (§5.1.2).
//!
//! The top level orders tenants by resource consumed over a recent
//! interval (exponentially decayed), least-consuming first, so a tenant
//! that has been starved rises to the front regardless of how much work it
//! has queued. Within a tenant, operations are ordered by priority (higher
//! first) and then transaction start time (older first) — preserving
//! transaction fairness under contention. Operations carry deadlines; one
//! that expires is not granted but handed back, so its caller can answer
//! it.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;

use crdb_util::stats::DecayingCounter;
use crdb_util::time::SimTime;
use crdb_util::TenantId;

/// Operation priority. KV-internal work (e.g. node liveness heartbeats)
/// runs high; normal SQL traffic runs normal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background/bulk work (imports, backfills).
    Low,
    /// Regular query traffic.
    Normal,
    /// System-critical work (liveness, lease extensions).
    High,
}

/// A queued operation with its scheduling metadata.
#[derive(Debug, Clone)]
pub struct WorkItem<T> {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Scheduling priority.
    pub priority: Priority,
    /// Start time of the enclosing transaction (older admits first).
    pub txn_start: SimTime,
    /// Drop the operation if not admitted by this time.
    pub deadline: SimTime,
    /// Caller payload (typically a completion callback or request handle).
    pub payload: T,
}

struct HeapEntry<T> {
    item: WorkItem<T>,
    seq: u64,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> HeapEntry<T> {
    /// Max-heap key: higher priority first, then older txn, then FIFO.
    fn cmp_key(&self) -> (Priority, std::cmp::Reverse<SimTime>, std::cmp::Reverse<u64>) {
        (self.item.priority, std::cmp::Reverse(self.item.txn_start), std::cmp::Reverse(self.seq))
    }
}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_key().cmp(&other.cmp_key())
    }
}

/// The two-level fair queue.
///
/// Bookkeeping is proportional to activity: a tenant that has consumed
/// keeps a fairness counter, but only a tenant with queued work has a
/// heap, and `dequeue` looks at nobody else.
pub struct WorkQueue<T> {
    /// Recent consumption per tenant. A tenant without an entry has
    /// consumed nothing, which orders the same as a counter at zero.
    consumed: BTreeMap<TenantId, DecayingCounter>,
    /// The heaps of tenants with queued work; none is ever empty.
    waiting: BTreeMap<TenantId, BinaryHeap<HeapEntry<T>>>,
    /// The buffer of a drained heap, handed to the next tenant that starts
    /// waiting: a lone tenant's enqueue / dequeue cycle reuses one
    /// allocation instead of making one per burst.
    spare: Vec<HeapEntry<T>>,
    half_life: Duration,
    next_seq: u64,
    queued: usize,
    /// Operations whose deadline passed before admission, oldest first,
    /// until [`WorkQueue::take_expired`] hands them back.
    expired: Vec<WorkItem<T>>,
    /// Operations expired because their deadline passed before admission.
    pub timed_out: u64,
}

impl<T> WorkQueue<T> {
    /// Creates a queue whose fairness signal decays with `half_life`.
    pub fn new(half_life: Duration) -> Self {
        WorkQueue {
            consumed: BTreeMap::new(),
            waiting: BTreeMap::new(),
            spare: Vec::new(),
            half_life,
            next_seq: 0,
            queued: 0,
            expired: Vec::new(),
            timed_out: 0,
        }
    }

    /// Enqueues an operation.
    pub fn enqueue(&mut self, item: WorkItem<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting
            .entry(item.tenant)
            .or_insert_with(|| BinaryHeap::from(std::mem::take(&mut self.spare)))
            .push(HeapEntry { item, seq });
        self.queued += 1;
    }

    /// Records that `tenant` consumed `amount` of the resource guarded by
    /// this queue (CPU-seconds for the CQ, bytes for the WQ).
    pub fn record_consumption(&mut self, now: SimTime, tenant: TenantId, amount: f64) {
        let half_life = self.half_life;
        self.consumed
            .entry(tenant)
            .or_insert_with(|| DecayingCounter::new(half_life))
            .add(now, amount);
    }

    /// Dequeues the next operation: from the least-consuming tenant with
    /// waiting work, its highest-priority / oldest-transaction operation.
    /// Expired operations are set aside along the way for
    /// [`WorkQueue::take_expired`] and counted in [`WorkQueue::timed_out`].
    pub fn dequeue(&mut self, now: SimTime) -> Option<WorkItem<T>> {
        loop {
            // Pick the least-consuming tenant among those with queued work,
            // the lowest id on a tie. Waiting tenants are few; a scan over
            // them is exact and avoids stale-heap bookkeeping as
            // consumptions decay.
            let mut best: Option<(f64, TenantId, &mut BinaryHeap<HeapEntry<T>>)> = None;
            for (&tenant, heap) in self.waiting.iter_mut() {
                let c = self.consumed.get_mut(&tenant).map_or(0.0, |c| c.get(now));
                match best {
                    Some((least, ..)) if c >= least => {}
                    _ => best = Some((c, tenant, heap)),
                }
            }
            let (_, tenant, heap) = best?;
            let popped = heap.pop();
            if heap.is_empty() {
                self.retire_heap(tenant);
            }
            let Some(entry) = popped else { continue };
            self.queued -= 1;
            if entry.item.deadline < now {
                self.timed_out += 1;
                self.expired.push(entry.item);
                continue;
            }
            return Some(entry.item);
        }
    }

    /// The operations [`WorkQueue::dequeue`] found expired since the last
    /// call, in the order it found them.
    pub fn take_expired(&mut self) -> Vec<WorkItem<T>> {
        std::mem::take(&mut self.expired)
    }

    /// Drops `tenant`'s drained heap, keeping its buffer as the spare if it
    /// is the larger of the two.
    fn retire_heap(&mut self, tenant: TenantId) {
        if let Some(heap) = self.waiting.remove(&tenant) {
            let buffer = heap.into_vec();
            if buffer.capacity() > self.spare.capacity() {
                self.spare = buffer;
            }
        }
    }

    /// Total queued operations across all tenants.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no operations are waiting.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Number of distinct tenants with queued work — which is also the
    /// number of per-tenant heaps the queue holds.
    pub fn waiting_tenants(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crdb_util::time::dur;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn item(
        tenant: u64,
        priority: Priority,
        txn_start: f64,
        payload: &'static str,
    ) -> WorkItem<&'static str> {
        WorkItem {
            tenant: TenantId(tenant),
            priority,
            txn_start: t(txn_start),
            deadline: SimTime::MAX,
            payload,
        }
    }

    #[test]
    fn least_consuming_tenant_goes_first() {
        let mut q = WorkQueue::new(dur::secs(10));
        q.enqueue(item(2, Priority::Normal, 0.0, "hungry"));
        q.enqueue(item(3, Priority::Normal, 0.0, "starved"));
        q.record_consumption(t(0.0), TenantId(2), 100.0);
        q.record_consumption(t(0.0), TenantId(3), 1.0);
        assert_eq!(q.dequeue(t(1.0)).unwrap().payload, "starved");
        assert_eq!(q.dequeue(t(1.0)).unwrap().payload, "hungry");
        assert!(q.dequeue(t(1.0)).is_none());
    }

    #[test]
    fn consumption_decays_so_starved_tenants_recover() {
        let mut q = WorkQueue::new(dur::secs(1));
        q.record_consumption(t(0.0), TenantId(2), 1000.0);
        q.record_consumption(t(0.0), TenantId(3), 10.0);
        q.enqueue(item(2, Priority::Normal, 0.0, "t2"));
        q.enqueue(item(3, Priority::Normal, 0.0, "t3"));
        // After many half-lives, t2's huge consumption has decayed below
        // the ordering threshold only relative to t3's — t3 still smaller.
        assert_eq!(q.dequeue(t(20.0)).unwrap().payload, "t3");
    }

    #[test]
    fn priority_then_txn_age_within_tenant() {
        let mut q = WorkQueue::new(dur::secs(10));
        q.enqueue(item(2, Priority::Normal, 5.0, "normal-new"));
        q.enqueue(item(2, Priority::Normal, 1.0, "normal-old"));
        q.enqueue(item(2, Priority::High, 9.0, "high"));
        q.enqueue(item(2, Priority::Low, 0.0, "low"));
        assert_eq!(q.dequeue(t(10.0)).unwrap().payload, "high");
        assert_eq!(q.dequeue(t(10.0)).unwrap().payload, "normal-old");
        assert_eq!(q.dequeue(t(10.0)).unwrap().payload, "normal-new");
        assert_eq!(q.dequeue(t(10.0)).unwrap().payload, "low");
    }

    #[test]
    fn fifo_among_equal_items() {
        let mut q = WorkQueue::new(dur::secs(10));
        q.enqueue(item(2, Priority::Normal, 1.0, "first"));
        q.enqueue(item(2, Priority::Normal, 1.0, "second"));
        assert_eq!(q.dequeue(t(2.0)).unwrap().payload, "first");
        assert_eq!(q.dequeue(t(2.0)).unwrap().payload, "second");
    }

    #[test]
    fn expired_items_are_dropped() {
        let mut q = WorkQueue::new(dur::secs(10));
        let mut expired = item(2, Priority::Normal, 0.0, "expired");
        expired.deadline = t(1.0);
        q.enqueue(expired);
        q.enqueue(item(2, Priority::Normal, 0.5, "live"));
        // The expired op has an older txn so would be dequeued first, but
        // its deadline has passed by t=2.
        assert_eq!(q.dequeue(t(2.0)).unwrap().payload, "live");
        assert_eq!(q.timed_out, 1);
        assert!(q.is_empty());
        let expired: Vec<_> = q.take_expired().into_iter().map(|i| i.payload).collect();
        assert_eq!(expired, ["expired"]);
        assert!(q.take_expired().is_empty(), "handed back once");
    }

    #[test]
    fn round_robin_between_equally_consuming_tenants() {
        let mut q = WorkQueue::new(dur::secs(10));
        for i in 0..3 {
            q.enqueue(item(2, Priority::Normal, i as f64, "a"));
            q.enqueue(item(3, Priority::Normal, i as f64, "b"));
        }
        let mut counts = BTreeMap::new();
        for _ in 0..4 {
            let it = q.dequeue(t(1.0)).unwrap();
            // Attribute consumption as work is handed out, as the real
            // controller does; this drives alternation.
            q.record_consumption(t(1.0), it.tenant, 1.0);
            *counts.entry(it.tenant).or_insert(0) += 1;
        }
        assert_eq!(counts[&TenantId(2)], 2);
        assert_eq!(counts[&TenantId(3)], 2);
    }

    #[test]
    fn len_and_waiting_tenants() {
        let mut q = WorkQueue::new(dur::secs(10));
        assert!(q.is_empty());
        q.enqueue(item(2, Priority::Normal, 0.0, "x"));
        q.enqueue(item(5, Priority::Normal, 0.0, "y"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.waiting_tenants(), 2);
        q.dequeue(t(0.0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.waiting_tenants(), 1);
    }
}
