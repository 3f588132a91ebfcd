//! The per-node admission controller facade.
//!
//! Each KV node owns one [`AdmissionController`]. Read operations queue in
//! the CPU queue (CQ) only; write operations queue in the write queue (WQ)
//! and then the CQ (§5.1.1: "Read operations only queue in the CQ and
//! write operations sequentially queue in the WQ and then the CQ").
//!
//! The controller is passive: the embedding node calls
//! [`AdmissionController::poll`] after arrivals, completions and timer
//! ticks, acts on the returned grants, and answers the operations
//! [`AdmissionController::take_expired`] hands back. `next_event_time`
//! reports when a deferred token grant falls due so the embedder can
//! schedule a wake-up.

use std::time::Duration;

use crdb_storage::StorageMetrics;
use crdb_util::time::SimTime;
use crdb_util::{Histogram, TenantId};

use crate::queue::{Priority, WorkItem, WorkQueue};
use crate::slots::SlotController;
use crate::write::WriteController;

/// Which resource an operation consumes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkClass {
    /// CPU only.
    Read,
    /// Write bandwidth, then CPU.
    Write,
}

/// Half-life of the tenant-fairness consumption signal.
const FAIRNESS_HALF_LIFE: Duration = Duration::from_secs(5);

/// CPU slots a controller starts with, before its first AIMD tick.
const INITIAL_SLOTS: usize = 16;

enum Pending<T> {
    Read(T),
    Write { bytes: f64, inner: T },
}

/// A grant returned by [`AdmissionController::poll`].
pub struct Grant<T> {
    /// The admitted operation's payload.
    pub payload: T,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The class it was admitted under.
    pub class: WorkClass,
    /// For writes, the logical bytes it declared.
    pub bytes: f64,
    /// How long the operation waited in admission queues.
    pub queued: Duration,
}

struct QueuedMeta {
    enqueued_at: SimTime,
}

/// The per-node admission controller.
pub struct AdmissionController<T> {
    /// Whether admission enforces; the "No Limits" baseline of Table 1
    /// disables it and every operation is granted on arrival.
    enabled: bool,
    cq: WorkQueue<(Pending<T>, QueuedMeta)>,
    wq: WorkQueue<(Pending<T>, QueuedMeta)>,
    /// A write stalled at the head of the WQ waiting for tokens. Holding it
    /// out of the heap preserves its position (token buckets are FIFO at
    /// the head).
    wq_head: Option<WorkItem<(Pending<T>, QueuedMeta)>>,
    slots: SlotController,
    write: WriteController,
    /// Wait-time distribution of admitted operations.
    pub wait_hist: Histogram,
    /// Total operations granted.
    pub granted: u64,
}

impl<T> AdmissionController<T> {
    /// Creates a controller, enforcing or not.
    pub fn new(enabled: bool) -> Self {
        AdmissionController {
            enabled,
            cq: WorkQueue::new(FAIRNESS_HALF_LIFE),
            wq: WorkQueue::new(FAIRNESS_HALF_LIFE),
            wq_head: None,
            slots: SlotController::new(INITIAL_SLOTS),
            write: WriteController::new(),
            wait_hist: Histogram::new(),
            granted: 0,
        }
    }

    /// Whether admission control is enforcing.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Submits a read operation.
    pub fn request_read(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        priority: Priority,
        txn_start: SimTime,
        deadline: SimTime,
        payload: T,
    ) {
        self.cq.enqueue(WorkItem {
            tenant,
            priority,
            txn_start,
            deadline,
            payload: (Pending::Read(payload), QueuedMeta { enqueued_at: now }),
        });
    }

    /// Submits a write operation declaring `bytes` logical write bytes.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one `WorkItem` plus its write bytes, passed the way `request_read` takes them"
    )]
    pub fn request_write(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        priority: Priority,
        txn_start: SimTime,
        deadline: SimTime,
        bytes: f64,
        payload: T,
    ) {
        self.wq.enqueue(WorkItem {
            tenant,
            priority,
            txn_start,
            deadline,
            payload: (Pending::Write { bytes, inner: payload }, QueuedMeta { enqueued_at: now }),
        });
    }

    /// Advances admission: moves token-funded writes from the WQ into the
    /// CQ, then grants CPU slots to CQ work. Returns the new grants.
    pub fn poll(&mut self, now: SimTime) -> Vec<Grant<T>> {
        let mut grants = Vec::new();

        // Stage 1: WQ -> CQ, gated on write tokens (skipped when disabled).
        loop {
            let item = match self.wq_head.take() {
                Some(item) => Some(item),
                None => self.wq.dequeue(now),
            };
            let item = match item {
                None => break,
                Some(i) => i,
            };
            let bytes = match &item.payload.0 {
                Pending::Write { bytes, .. } => *bytes,
                Pending::Read(_) => 0.0,
            };
            if self.enabled && self.write.try_admit(now, bytes).is_err() {
                self.wq_head = Some(item);
                break;
            }
            self.wq.record_consumption(now, item.tenant, bytes);
            self.cq.enqueue(item);
        }

        // Stage 2: CQ grants, gated on CPU slots.
        loop {
            if self.enabled && self.slots.available() == 0 {
                if !self.cq.is_empty() {
                    // Work is waiting on slots: signal saturation to AIMD.
                    self.slots.try_acquire();
                }
                break;
            }
            let item = match self.cq.dequeue(now) {
                None => break,
                Some(i) => i,
            };
            if self.enabled {
                let ok = self.slots.try_acquire();
                debug_assert!(ok);
            }
            let (pending, meta) = item.payload;
            let (payload, class, bytes) = match pending {
                Pending::Read(p) => (p, WorkClass::Read, 0.0),
                Pending::Write { bytes, inner } => (inner, WorkClass::Write, bytes),
            };
            let queued = now.duration_since(meta.enqueued_at);
            self.wait_hist.record_duration(queued);
            self.granted += 1;
            grants.push(Grant { payload, tenant: item.tenant, class, bytes, queued });
        }
        grants
    }

    /// Reports completion of a granted operation: releases its CPU slot and
    /// charges the tenant's fairness counters with actual usage. For
    /// writes, `actual_bytes` trains the physical-bytes model.
    pub fn complete(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        class: WorkClass,
        cpu_seconds: f64,
        requested_bytes: f64,
        actual_bytes: Option<f64>,
    ) {
        if self.enabled {
            self.slots.release();
        }
        self.cq.record_consumption(now, tenant, cpu_seconds);
        if class == WorkClass::Write {
            if let Some(actual) = actual_bytes {
                self.write.observe_actual(now, requested_bytes, actual);
            }
        }
    }

    /// AIMD feedback step for the CPU slot pool, [`SlotController::tick`]:
    /// call on the sampling interval with its average runnable-queue length.
    pub fn tick_slots(&mut self, avg_runnable: f64, vcpus: f64) -> bool {
        self.slots.tick(avg_runnable, vcpus)
    }

    /// Re-estimates write capacity; call every ~15 s with fresh storage
    /// metrics and the current L0 file count.
    pub fn estimate_write_capacity(
        &mut self,
        now: SimTime,
        metrics: StorageMetrics,
        l0_files: usize,
    ) {
        self.write.estimate_capacity(now, metrics, l0_files);
    }

    /// When the next deferred grant could fire (a stalled WQ head waiting
    /// for tokens), if any.
    pub fn next_event_time(&mut self, now: SimTime) -> Option<SimTime> {
        let head = self.wq_head.as_ref()?;
        let bytes = match &head.payload.0 {
            Pending::Write { bytes, .. } => *bytes,
            Pending::Read(_) => 0.0,
        };
        let wait = self.write.time_until_admit(now, bytes);
        Some(now + wait)
    }

    /// Queued operations across both queues (excluding the stalled head).
    pub fn queue_len(&self) -> usize {
        self.cq.len() + self.wq.len() + usize::from(self.wq_head.is_some())
    }

    /// Per-tenant heaps held across both queues: one for each tenant with
    /// work queued in it, none for a tenant whose work has drained.
    pub fn tenant_heaps(&self) -> usize {
        self.cq.waiting_tenants() + self.wq.waiting_tenants()
    }

    /// Operations expired on deadline across both queues.
    pub fn timed_out(&self) -> u64 {
        self.cq.timed_out + self.wq.timed_out
    }

    /// The payloads of the operations whose deadline passed while they
    /// were queued, found by `poll` since the last call. None of them was
    /// granted; each still needs its answer.
    pub fn take_expired(&mut self) -> Vec<T> {
        let mut expired = self.wq.take_expired();
        expired.append(&mut self.cq.take_expired());
        expired
            .into_iter()
            .map(|item| match item.payload.0 {
                Pending::Read(inner) | Pending::Write { inner, .. } => inner,
            })
            .collect()
    }

    /// Current CPU slot total (for observability).
    pub fn slot_total(&self) -> usize {
        self.slots.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::INITIAL_RATE;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn read_req<T>(c: &mut AdmissionController<T>, now: f64, tenant: u64, tag: T) {
        c.request_read(t(now), TenantId(tenant), Priority::Normal, t(now), SimTime::MAX, tag);
    }

    /// Takes all but `free` of the initial slots with reads of tenant 9
    /// that never complete.
    fn hold_slots(c: &mut AdmissionController<&'static str>, free: usize) {
        for _ in free..INITIAL_SLOTS {
            read_req(c, 0.0, 9, "held");
        }
        assert_eq!(c.poll(t(0.0)).len(), INITIAL_SLOTS - free);
    }

    #[test]
    fn reads_grant_up_to_slot_limit() {
        let mut c = AdmissionController::new(true);
        for tag in 0..=INITIAL_SLOTS {
            read_req(&mut c, 0.0, 2, tag);
        }
        let grants = c.poll(t(0.0));
        assert_eq!(grants.len(), INITIAL_SLOTS, "one grant per slot");
        assert_eq!(c.queue_len(), 1);
        c.complete(t(1.0), TenantId(2), WorkClass::Read, 0.1, 0.0, None);
        let grants = c.poll(t(1.0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].payload, INITIAL_SLOTS);
    }

    #[test]
    fn disabled_controller_grants_everything() {
        let mut c = AdmissionController::new(false);
        for _ in 0..2 * INITIAL_SLOTS {
            read_req(&mut c, 0.0, 2, "r");
        }
        c.request_write(t(0.0), TenantId(2), Priority::Normal, t(0.0), SimTime::MAX, 1e12, "w");
        let grants = c.poll(t(0.0));
        assert_eq!(grants.len(), 2 * INITIAL_SLOTS + 1, "no limits");
    }

    #[test]
    fn writes_wait_for_tokens_then_cpu() {
        let mut c = AdmissionController::new(true);
        let bytes = 0.8 * INITIAL_RATE;
        c.request_write(t(0.0), TenantId(2), Priority::Normal, t(0.0), SimTime::MAX, bytes, "w1");
        c.request_write(t(0.0), TenantId(2), Priority::Normal, t(0.1), SimTime::MAX, bytes, "w2");
        let grants = c.poll(t(0.0));
        assert_eq!(grants.len(), 1, "only one write funded by the burst");
        assert_eq!(grants[0].payload, "w1");
        let next = c.next_event_time(t(0.0)).expect("stalled head");
        assert!(next > t(0.0));
        // After tokens refill, the second write admits.
        let grants = c.poll(t(1.0));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].payload, "w2");
    }

    #[test]
    fn fairness_across_tenants_under_cpu_scarcity() {
        let mut c = AdmissionController::new(true);
        hold_slots(&mut c, 1);
        // Tenant 2 floods; tenant 3 sends one op.
        for _ in 0..10 {
            read_req(&mut c, 0.0, 2, "noisy");
        }
        read_req(&mut c, 0.0, 3, "victim");
        // Admit one at a time, completing with CPU charged to the grantee.
        let mut order = Vec::new();
        for step in 0..3 {
            let grants = c.poll(t(step as f64));
            assert_eq!(grants.len(), 1);
            let g = &grants[0];
            order.push((g.tenant, g.payload));
            c.complete(t(step as f64 + 0.5), g.tenant, WorkClass::Read, 1.0, 0.0, None);
        }
        // The victim must be served within the first few grants, not after
        // all 10 noisy ops.
        assert!(order.iter().any(|(t, _)| *t == TenantId(3)), "victim served early: {order:?}");
    }

    #[test]
    fn wait_histogram_records_queueing() {
        let mut c = AdmissionController::new(true);
        hold_slots(&mut c, 1);
        read_req(&mut c, 0.0, 2, "a");
        read_req(&mut c, 0.0, 2, "b");
        c.poll(t(0.0));
        c.complete(t(2.0), TenantId(2), WorkClass::Read, 0.1, 0.0, None);
        c.poll(t(2.0));
        assert_eq!(c.granted, INITIAL_SLOTS as u64 + 1);
        // Second op waited ~2s.
        assert!(c.wait_hist.quantile(1.0) >= 1_900_000_000);
    }

    #[test]
    fn deadline_expiry_counts() {
        let mut c = AdmissionController::new(true);
        hold_slots(&mut c, 1);
        read_req(&mut c, 0.0, 2, "first");
        // "dies" queues behind "first" and expires while waiting.
        c.request_read(t(0.0), TenantId(2), Priority::Normal, t(1.0), t(0.5), "dies");
        let g = c.poll(t(0.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].payload, "first");
        // Hold the only slot until past the deadline.
        c.complete(t(2.0), TenantId(2), WorkClass::Read, 0.1, 0.0, None);
        let g = c.poll(t(2.0));
        assert_eq!(g.len(), 0, "expired op must not be granted");
        assert_eq!(c.timed_out(), 1);
        assert_eq!(c.queue_len(), 0);
        assert_eq!(c.take_expired(), ["dies"], "handed back for an answer");
    }

    #[test]
    fn saturation_probe_grows_slots() {
        let mut c = AdmissionController::new(true);
        hold_slots(&mut c, 0);
        for _ in 0..5 {
            read_req(&mut c, 0.0, 2, "op");
        }
        c.poll(t(0.0));
        // Saturated; an AIMD tick with no runnable queue grows the pool.
        c.tick_slots(0.0, 8.0);
        assert!(c.slot_total() > INITIAL_SLOTS);
    }
}
