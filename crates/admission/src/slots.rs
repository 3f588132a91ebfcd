//! Dynamic CPU admission slots (§5.1.3).
//!
//! "We dynamically estimate a count of concurrent admitted operations that
//! will keep the CPU utilization high (90+%, so work-conserving), while
//! minimizing queueing of runnable threads in the CPU scheduler. This
//! dynamic estimation is done by high frequency sampling (1000Hz) of the
//! runnable queue lengths in the CPU scheduler, and using an additive
//! increase-decrease feedback loop."
//!
//! Under simulation the runnable queue is available as an exact
//! time-weighted average (see `crdb_sim::cpu`), which the embedder feeds to
//! [`SlotController::tick`] on each adjustment interval; the controller
//! applies additive decrease when runnable threads are queueing, and
//! otherwise additive increase when all slots were in use at some point in
//! the interval.

/// Runnable threads per vCPU above which the controller sheds concurrency.
const RUNNABLE_HIGH_PER_VCPU: f64 = 1.0;
/// Additive increase step.
const INC_STEP: usize = 1;
/// Additive decrease step.
const DEC_STEP: usize = 2;

/// Lower bound on total slots (always allow some concurrency).
const MIN_SLOTS: usize = 4;
/// Upper bound on total slots.
const MAX_SLOTS: usize = 1024;

/// The per-node CPU slot pool.
#[derive(Debug)]
pub struct SlotController {
    slots: usize,
    used: usize,
    /// Whether all slots were simultaneously in use at any point since the
    /// last tick — the saturation signal for additive increase.
    saturated_since_tick: bool,
}

impl SlotController {
    /// Creates a controller starting with `initial` slots, clamped to
    /// `MIN_SLOTS..=MAX_SLOTS`.
    pub fn new(initial: usize) -> Self {
        let slots = initial.clamp(MIN_SLOTS, MAX_SLOTS);
        SlotController { slots, used: 0, saturated_since_tick: false }
    }

    /// Current total slot count.
    pub fn total(&self) -> usize {
        self.slots
    }

    /// Currently held slots.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Free slots.
    pub fn available(&self) -> usize {
        self.slots.saturating_sub(self.used)
    }

    /// Attempts to acquire one slot.
    pub fn try_acquire(&mut self) -> bool {
        if self.used < self.slots {
            self.used += 1;
            if self.used >= self.slots {
                self.saturated_since_tick = true;
            }
            true
        } else {
            self.saturated_since_tick = true;
            false
        }
    }

    /// Releases a previously acquired slot.
    pub fn release(&mut self) {
        debug_assert!(self.used > 0, "release without acquire");
        self.used = self.used.saturating_sub(1);
    }

    /// One feedback-loop step. `avg_runnable` is the average runnable-queue
    /// length over the interval and `vcpus` the node's CPU count. Returns
    /// whether the pool is at rest (no queueing, no saturation, no slot held):
    /// then no tick changes anything until a slot is taken again.
    pub fn tick(&mut self, avg_runnable: f64, vcpus: f64) -> bool {
        let queueing = avg_runnable / vcpus.max(1.0) > RUNNABLE_HIGH_PER_VCPU;
        let at_rest = !queueing && !self.saturated_since_tick && self.used == 0;
        if queueing {
            // Threads are queueing in the OS scheduler: decrease.
            self.slots = self.slots.saturating_sub(DEC_STEP).max(MIN_SLOTS);
        } else if self.saturated_since_tick {
            // Slots are the bottleneck and the CPU keeps up: increase, one
            // step at a time, so the system stays work-conserving without
            // overshooting.
            self.slots = (self.slots + INC_STEP).min(MAX_SLOTS);
        }
        self.saturated_since_tick = false;
        at_rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Saturates every slot, ticks with no queueing, then releases what it
    /// took.
    fn saturated_tick(c: &mut SlotController) {
        while c.try_acquire() {}
        c.tick(0.0, 8.0);
        for _ in 0..c.used() {
            c.release();
        }
    }

    #[test]
    fn acquire_release_cycle() {
        let mut c = SlotController::new(8);
        assert_eq!(c.total(), 8);
        for _ in 0..8 {
            assert!(c.try_acquire());
        }
        assert!(!c.try_acquire(), "pool exhausted");
        assert_eq!(c.available(), 0);
        c.release();
        assert!(c.try_acquire());
    }

    #[test]
    fn decrease_when_runnable_queue_builds() {
        let mut c = SlotController::new(100);
        for _ in 0..10 {
            c.tick(64.0, 8.0); // 8 runnable per vCPU: overloaded
        }
        assert!(c.total() < 100, "slots shed: {}", c.total());
        assert!(c.total() >= MIN_SLOTS);
    }

    #[test]
    fn increase_when_saturated_with_headroom() {
        let mut c = SlotController::new(4);
        for _ in 0..20 {
            saturated_tick(&mut c); // no queueing
        }
        assert!(c.total() > 4, "slots grew: {}", c.total());
    }

    #[test]
    fn stable_when_not_saturated() {
        let mut c = SlotController::new(16);
        for _ in 0..10 {
            c.tick(0.0, 8.0); // idle, never saturated
        }
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn respects_bounds() {
        assert_eq!(SlotController::new(0).total(), MIN_SLOTS, "clamped to min at construction");
        let mut c = SlotController::new(MAX_SLOTS + 100);
        assert_eq!(c.total(), MAX_SLOTS, "clamped to max at construction");
        saturated_tick(&mut c);
        assert_eq!(c.total(), MAX_SLOTS, "never above max");
        for _ in 0..MAX_SLOTS {
            c.tick(100.0, 1.0);
        }
        assert_eq!(c.total(), MIN_SLOTS, "never below min");
        let mut c = SlotController::new(MAX_SLOTS - 1);
        for _ in 0..3 {
            saturated_tick(&mut c);
        }
        assert_eq!(c.total(), MAX_SLOTS, "growth stops at max");
    }

    #[test]
    fn converges_under_alternating_pressure() {
        // Alternate overload and underload; the slot count must stay inside
        // bounds and react in the right direction each time.
        let mut c = SlotController::new(32);
        let mut after_overload = 0;
        for round in 0..100 {
            if round % 2 == 0 {
                let before = c.total();
                c.tick(50.0, 4.0);
                assert!(c.total() <= before);
                after_overload = c.total();
            } else {
                while c.try_acquire() {}
                let before = c.total();
                c.tick(0.0, 4.0);
                assert!(c.total() >= before);
                for _ in 0..c.used() {
                    c.release();
                }
            }
        }
        assert!(after_overload >= MIN_SLOTS);
    }
}
