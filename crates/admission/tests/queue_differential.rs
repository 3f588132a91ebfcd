//! `WorkQueue` against the all-tenant-scan queue it replaced.
//!
//! `ScanQueue` is the previous implementation, kept here as the reference
//! model: one entry per tenant ever seen, holding both its fairness
//! counter and its heap, every one of them visited on every dequeue. The
//! admission order decides which tenant's statement runs next in every
//! simulated run, so the two must hand out the same operations in the same
//! order — while the new one holds a heap only for tenants with queued
//! work.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;

use crdb_admission::{Priority, WorkItem, WorkQueue};
use crdb_util::stats::DecayingCounter;
use crdb_util::time::{dur, SimTime};
use crdb_util::TenantId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "../../util/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

struct HeapEntry {
    item: WorkItem<u64>,
    seq: u64,
}

impl HeapEntry {
    fn cmp_key(&self) -> (Priority, std::cmp::Reverse<SimTime>, std::cmp::Reverse<u64>) {
        (self.item.priority, std::cmp::Reverse(self.item.txn_start), std::cmp::Reverse(self.seq))
    }
}
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_key().cmp(&other.cmp_key())
    }
}

struct TenantQueue {
    heap: BinaryHeap<HeapEntry>,
    consumed: DecayingCounter,
}

struct ScanQueue {
    tenants: BTreeMap<TenantId, TenantQueue>,
    half_life: Duration,
    next_seq: u64,
    queued: usize,
    timed_out: u64,
}

impl ScanQueue {
    fn new(half_life: Duration) -> Self {
        ScanQueue { tenants: BTreeMap::new(), half_life, next_seq: 0, queued: 0, timed_out: 0 }
    }

    fn tenant_entry(&mut self, tenant: TenantId) -> &mut TenantQueue {
        let hl = self.half_life;
        self.tenants.entry(tenant).or_insert_with(|| TenantQueue {
            heap: BinaryHeap::new(),
            consumed: DecayingCounter::new(hl),
        })
    }

    fn enqueue(&mut self, item: WorkItem<u64>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tenant_entry(item.tenant).heap.push(HeapEntry { item, seq });
        self.queued += 1;
    }

    fn record_consumption(&mut self, now: SimTime, tenant: TenantId, amount: f64) {
        self.tenant_entry(tenant).consumed.add(now, amount);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<WorkItem<u64>> {
        loop {
            let tenant = {
                let mut best: Option<(f64, TenantId)> = None;
                for (&t, q) in self.tenants.iter_mut() {
                    if q.heap.is_empty() {
                        continue;
                    }
                    let c = q.consumed.get(now);
                    match best {
                        Some((bc, bt)) if (c, t.raw()) >= (bc, bt.raw()) => {}
                        _ => best = Some((c, t)),
                    }
                }
                best?.1
            };
            let q = self.tenants.get_mut(&tenant).expect("tenant exists");
            let entry = q.heap.pop().expect("non-empty");
            self.queued -= 1;
            if entry.item.deadline < now {
                self.timed_out += 1;
                continue;
            }
            return Some(entry.item);
        }
    }

    fn waiting_tenants(&self) -> usize {
        self.tenants.values().filter(|q| !q.heap.is_empty()).count()
    }
}

const TENANTS: u64 = 500;

fn item(tenant: u64, payload: u64) -> WorkItem<u64> {
    WorkItem {
        tenant: TenantId(tenant),
        priority: Priority::Normal,
        txn_start: SimTime::ZERO,
        deadline: SimTime::MAX,
        payload,
    }
}

/// Seeded enqueue / consume / dequeue / clock streams over 500 tenants.
/// Odd seeds crowd the traffic onto a few tenants (deep heaps, frequent
/// ties on consumption); even seeds spread it (many shallow heaps).
#[test]
fn same_dequeue_sequence_as_the_all_tenant_scan() {
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let half_life = [dur::ms(100), dur::secs(1), dur::secs(5)][rng.gen_range(0..3)];
        let (mut new, mut old) = (WorkQueue::new(half_life), ScanQueue::new(half_life));
        let busy = if seed % 2 == 1 { 5 } else { TENANTS };
        let mut now = SimTime::ZERO;
        let mut handed_out = 0u64;
        for op in 0..6_000u64 {
            let tenant = TenantId(2 + rng.gen_range(0..busy));
            match rng.gen_range(0..10) {
                0..=3 => {
                    let priority =
                        [Priority::Low, Priority::Normal, Priority::High][rng.gen_range(0..3)];
                    let txn_start = SimTime::from_secs_f64(rng.gen_range(0.0..=now.as_secs_f64()));
                    let deadline = match rng.gen_range(0..4) {
                        0 => now + dur::ms(rng.gen_range(0..400)),
                        _ => SimTime::MAX,
                    };
                    let w = WorkItem { tenant, priority, txn_start, deadline, payload: op };
                    new.enqueue(w.clone());
                    old.enqueue(w);
                }
                // Whole amounts tie often; fractions decay apart.
                4..=5 => {
                    let amount = if rng.gen_bool(0.5) { 1.0 } else { rng.gen_range(0.0..0.01) };
                    new.record_consumption(now, tenant, amount);
                    old.record_consumption(now, tenant, amount);
                }
                6..=8 => {
                    let (a, b) = (new.dequeue(now), old.dequeue(now));
                    assert_eq!(
                        a.as_ref().map(|w| (w.tenant, w.payload)),
                        b.as_ref().map(|w| (w.tenant, w.payload)),
                        "seed {seed} op {op}: dequeue #{handed_out}"
                    );
                    handed_out += u64::from(a.is_some());
                }
                _ => now += dur::ms(rng.gen_range(0..300)),
            }
            assert_eq!(new.len(), old.queued, "seed {seed} op {op}: len");
            assert_eq!(new.timed_out, old.timed_out, "seed {seed} op {op}: timed_out");
            assert_eq!(new.waiting_tenants(), old.waiting_tenants(), "seed {seed} op {op}");
        }
        // Drain: the tail of the order, and every deadline met or counted.
        now += dur::ms(200);
        loop {
            let (a, b) = (new.dequeue(now), old.dequeue(now));
            assert_eq!(a.as_ref().map(|w| w.payload), b.as_ref().map(|w| w.payload), "seed {seed}");
            if a.is_none() {
                break;
            }
            handed_out += 1;
        }
        assert_eq!(new.timed_out, old.timed_out, "seed {seed}: timed_out after drain");
        assert!(new.is_empty() && new.waiting_tenants() == 0);
        assert!(handed_out > 500, "seed {seed}: only {handed_out} operations compared");
    }
}

/// A tenant whose work has drained costs the queue nothing, and a lone
/// tenant's enqueue / dequeue cycle allocates nothing once warm.
#[test]
fn idle_tenants_hold_no_heap_and_the_hot_loop_does_not_allocate() {
    let now = SimTime::ZERO;
    let mut q: WorkQueue<u64> = WorkQueue::new(dur::secs(1));
    // Warm: the map's root node and the spare buffer exist from here on.
    q.enqueue(item(2, 0));
    assert!(q.dequeue(now).is_some());
    let (live, allocations) = (counting_alloc::live_bytes(), counting_alloc::allocations());

    for n in 0..1_000 {
        q.enqueue(item(2, n));
        assert!(q.dequeue(now).is_some());
    }
    assert_eq!(counting_alloc::allocations(), allocations, "single-tenant cycle allocated");

    // 500 tenants queue at once, then drain.
    for t in 0..TENANTS {
        q.enqueue(item(2 + t, t));
    }
    assert_eq!(q.waiting_tenants(), TENANTS as usize);
    assert!(counting_alloc::live_bytes() > live);
    while q.dequeue(now).is_some() {}
    assert_eq!(q.waiting_tenants(), 0);
    assert_eq!(counting_alloc::live_bytes(), live, "drained tenants left heap behind");

    // What a tenant does keep is its fairness counter: tens of bytes.
    for t in 0..TENANTS {
        q.record_consumption(now, TenantId(2 + t), 1.0);
    }
    let per_tenant = (counting_alloc::live_bytes() - live) / TENANTS as usize;
    assert!(per_tenant <= 96, "a fairness counter costs {per_tenant} B");
}
