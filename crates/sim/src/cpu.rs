//! Processor-sharing CPU model.
//!
//! Each simulated node owns a [`CpuScheduler`] with a fixed number of
//! vCPUs. Work is submitted as *tasks* that need a known amount of CPU
//! time; while `n` tasks are active on `c` vCPUs, each progresses at rate
//! `min(1, c/n)` — the behaviour of a fair OS scheduler under load. A task
//! is either awaited ([`CpuScheduler::run`]: its completion is filled once
//! the work is done, which polls the awaiting task inline) or only charged
//! ([`CpuScheduler::charge`]: work nobody waits for still takes its share).
//!
//! The model exposes exactly the signals the paper's systems consume:
//!
//! - per-task actual CPU consumption, attributed to a tenant (the language
//!   runtime instrumentation of §5.1.4),
//! - the *runnable queue length* (`max(0, n - c)`), the quantity the 1000 Hz
//!   sampler feeds to the AIMD slot controller (§5.1.3), available here as
//!   an exact time-weighted integral rather than a sampled approximation,
//! - cumulative busy time, from which utilization metrics are derived for
//!   the autoscaler (§4.2.3) and the evaluation figures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_util::time::SimTime;
use crdb_util::TenantId;

use crate::engine::{EventId, Sim};
use crate::task::Completion;

const EPS: f64 = 1e-12;
/// Work below this many CPU-seconds is sub-resolution (the virtual clock
/// ticks in nanoseconds) and treated as complete.
const DONE_THRESHOLD: f64 = 2e-9;

struct Task {
    remaining: f64,
    tenant: TenantId,
    /// Filled once the task has had its CPU; `None` for a charge.
    on_complete: Option<Completion<()>>,
}

struct Inner {
    vcpus: f64,
    tasks: Vec<Task>,
    last: SimTime,
    completion: Option<EventId>,
    usage: BTreeMap<TenantId, f64>,
    busy_integral: f64,
    runnable_integral: f64,
    /// Scheduler-contention overhead factor: with `r` runnable threads per
    /// vCPU beyond capacity, productive work slows by `1 + k·r` (context
    /// switching, cache pressure, GC — the superlinear collapse real
    /// overloaded nodes exhibit). Zero by default.
    contention_overhead: f64,
    /// Filled each time a task enters the CPU while it holds none.
    on_busy: Option<Completion<()>>,
}

impl Inner {
    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        if dt <= 0.0 {
            self.last = now;
            return;
        }
        let n = self.tasks.len() as f64;
        if n > 0.0 {
            let rate = self.effective_rate(n);
            for t in &mut self.tasks {
                let used = (rate * dt).min(t.remaining);
                t.remaining -= used;
                *self.usage.entry(t.tenant).or_insert(0.0) += used;
            }
            self.busy_integral += n.min(self.vcpus) * dt;
            self.runnable_integral += (n - self.vcpus).max(0.0) * dt;
        }
        self.last = now;
    }

    fn next_completion_in(&self) -> Option<f64> {
        let n = self.tasks.len() as f64;
        if n == 0.0 {
            return None;
        }
        let rate = self.effective_rate(n);
        let min_remaining = self.tasks.iter().map(|t| t.remaining).fold(f64::MAX, f64::min);
        Some((min_remaining / rate).max(0.0))
    }

    /// Per-task productive rate for `n` active tasks: fair sharing plus
    /// the contention-overhead slowdown.
    fn effective_rate(&self, n: f64) -> f64 {
        let fair = (self.vcpus / n).min(1.0);
        let excess = ((n - self.vcpus) / self.vcpus).max(0.0);
        fair / (1.0 + self.contention_overhead * excess)
    }
}

/// A shared handle to one node's CPU.
#[derive(Clone)]
pub struct CpuScheduler {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl CpuScheduler {
    /// Creates a scheduler with `vcpus` virtual CPUs.
    pub fn new(sim: Sim, vcpus: f64) -> Self {
        assert!(vcpus > 0.0);
        let last = sim.now();
        CpuScheduler {
            sim,
            inner: Rc::new(RefCell::new(Inner {
                vcpus,
                tasks: Vec::new(),
                last,
                completion: None,
                usage: BTreeMap::new(),
                busy_integral: 0.0,
                runnable_integral: 0.0,
                contention_overhead: 0.0,
                on_busy: None,
            })),
        }
    }

    /// Sets the contention-overhead factor (see `Inner`); experiments that
    /// study overload collapse (Fig. 12) enable it.
    pub fn set_contention_overhead(&self, k: f64) {
        assert!(k >= 0.0);
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        inner.advance(now);
        inner.contention_overhead = k;
        drop(inner);
        self.reschedule();
    }

    /// The configured vCPU count.
    pub fn vcpus(&self) -> f64 {
        self.inner.borrow().vcpus
    }

    /// Runs `cpu_seconds` of work attributed to `tenant`: the completion
    /// resolves once the task has received its full CPU time. The work is
    /// queued at the call, and stays queued if the completion is dropped.
    #[must_use = "the work is queued anyway; `charge` is for work nobody awaits"]
    pub fn run(&self, tenant: TenantId, cpu_seconds: f64) -> Completion<()> {
        let done = Completion::default();
        self.enqueue(tenant, cpu_seconds, Some(done.clone()));
        done
    }

    /// Charges `cpu_seconds` of work attributed to `tenant` that nobody
    /// waits for: it competes for the CPU like any other task.
    pub fn charge(&self, tenant: TenantId, cpu_seconds: f64) {
        self.enqueue(tenant, cpu_seconds, None);
    }

    /// Fills `woken` each time a task enters the empty CPU. A fill nobody
    /// awaits is kept, so a task parked on it re-checks [`Self::is_idle`].
    pub fn fill_when_busy(&self, woken: Completion<()>) {
        self.inner.borrow_mut().on_busy = Some(woken);
    }

    fn enqueue(&self, tenant: TenantId, cpu_seconds: f64, on_complete: Option<Completion<()>>) {
        assert!(cpu_seconds >= 0.0, "negative cpu cost");
        let now = self.sim.now();
        let woken = {
            let mut inner = self.inner.borrow_mut();
            inner.advance(now);
            let was_idle = inner.tasks.is_empty();
            inner.tasks.push(Task { remaining: cpu_seconds.max(EPS), tenant, on_complete });
            inner.on_busy.as_ref().filter(|_| was_idle).cloned()
        };
        self.reschedule();
        if let Some(woken) = woken {
            woken.fill(());
        }
    }

    fn reschedule(&self) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        if let Some(ev) = inner.completion.take() {
            self.sim.cancel(ev);
        }
        if let Some(dt) = inner.next_completion_in() {
            let this = self.clone();
            // Round up to the clock resolution: a zero-delay completion
            // event would re-fire at the same instant without advancing
            // task accounting (dt=0), livelocking the simulation.
            let nanos = (dt * 1e9).ceil().max(1.0) as u64;
            let at = now + std::time::Duration::from_nanos(nanos);
            inner.completion = Some(self.sim.schedule_at(at, move || this.on_completion()));
        }
    }

    fn on_completion(&self) {
        let now = self.sim.now();
        let finished: Vec<Completion<()>> = {
            let mut inner = self.inner.borrow_mut();
            inner.completion = None;
            inner.advance(now);
            let mut done = Vec::new();
            let mut i = 0;
            while let Some(task) = inner.tasks.get(i) {
                if task.remaining <= DONE_THRESHOLD {
                    done.extend(inner.tasks.swap_remove(i).on_complete);
                } else {
                    i += 1;
                }
            }
            done
        };
        self.reschedule();
        // Wake the waiters with no borrow held: they may submit new tasks.
        // Tasks that finish together wake in the order found above.
        for done in finished {
            done.fill(());
        }
    }

    /// Whether the CPU holds no task.
    pub fn is_idle(&self) -> bool {
        self.inner.borrow().tasks.is_empty()
    }

    /// Instantaneous runnable-queue length: tasks beyond the vCPU count.
    pub fn runnable_len(&self) -> f64 {
        let inner = self.inner.borrow();
        (inner.tasks.len() as f64 - inner.vcpus).max(0.0)
    }

    /// Cumulative CPU-seconds of capacity used since construction. Each
    /// `cumulative_*` read advances the model, splitting every running
    /// task's float integration at now: skipping a read can move completion
    /// times by rounding, so a loop reading one parks only on an idle CPU.
    pub fn cumulative_busy(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        inner.busy_integral
    }

    /// Cumulative time-weighted integral of the runnable queue length.
    /// The AIMD controller differentiates this to get the average runnable
    /// length over its sampling interval. A read advances the model.
    pub fn cumulative_runnable(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        inner.runnable_integral
    }

    /// Cumulative CPU-seconds consumed by `tenant`; a read advances the model.
    pub fn cumulative_usage(&self, tenant: TenantId) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        inner.usage.get(&tenant).copied().unwrap_or(0.0)
    }

    /// Cumulative CPU-seconds consumed across all tenants; a read advances it.
    pub fn cumulative_usage_total(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance(now);
        // Summed in tenant order (the map's): float addition is
        // order-sensitive.
        inner.usage.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task;
    use crdb_util::time::dur;
    use std::cell::Cell;

    /// Spawns a task that awaits `work`; the cell records when it resumed.
    fn resumed_at(sim: &Sim, work: Completion<()>) -> Rc<Cell<Option<f64>>> {
        let at = Rc::new(Cell::new(None));
        task::spawn(sim, {
            let (sim, at) = (sim.clone(), Rc::clone(&at));
            async move {
                work.await;
                at.set(Some(sim.now().as_secs_f64()));
            }
        });
        at
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 4.0);
        let done = resumed_at(&sim, cpu.run(TenantId(2), 0.5));
        sim.run_to_completion();
        let at = done.get().expect("completed");
        assert!((at - 0.5).abs() < 1e-9, "{at}");
    }

    #[test]
    fn oversubscription_slows_tasks() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 1.0);
        let done: Vec<_> = (0..4).map(|_| resumed_at(&sim, cpu.run(TenantId(2), 1.0))).collect();
        let finished = || done.iter().filter(|d| d.get().is_some()).count();
        // 4 tasks of 1 cpu-second on 1 vCPU: each runs at 1/4 speed and all
        // finish together at t=4.
        sim.run_until(SimTime::from_secs_f64(3.9));
        assert_eq!(finished(), 0);
        sim.run_until(SimTime::from_secs_f64(4.1));
        assert_eq!(finished(), 4);
    }

    #[test]
    fn usage_attribution_per_tenant() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 2.0);
        cpu.charge(TenantId(2), 1.0);
        cpu.charge(TenantId(3), 2.0);
        sim.run_to_completion();
        assert!((cpu.cumulative_usage(TenantId(2)) - 1.0).abs() < 1e-9);
        assert!((cpu.cumulative_usage(TenantId(3)) - 2.0).abs() < 1e-9);
        assert!((cpu.cumulative_usage_total() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn runnable_queue_accounting() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 2.0);
        for _ in 0..6 {
            cpu.charge(TenantId(2), 1.0);
        }
        assert_eq!(cpu.runnable_len(), 4.0);
        // 6 tasks × 1s work on 2 vCPUs -> all complete at t=3; runnable
        // integral = 4 × 3 = 12.
        sim.run_to_completion();
        assert!((cpu.cumulative_runnable() - 12.0).abs() < 1e-6);
        assert_eq!(cpu.runnable_len(), 0.0);
    }

    #[test]
    fn staggered_arrivals() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 1.0);
        let t_first = resumed_at(&sim, cpu.run(TenantId(2), 1.0));
        let t_second = Rc::new(Cell::new(None));
        task::spawn(&sim, {
            let (sim, cpu, at) = (sim.clone(), cpu.clone(), Rc::clone(&t_second));
            async move {
                task::sleep(&sim, dur::ms(500)).await;
                cpu.run(TenantId(3), 0.25).await;
                at.set(Some(sim.now().as_secs_f64()));
            }
        });
        sim.run_to_completion();
        // Task1 runs alone 0..0.5 (0.5 done), shares 0.5.. at 1/2 rate.
        // Task2 (0.25 work at 1/2 rate) finishes at t=1.0; task1 then has
        // 0.25 left at full rate, finishing at 1.25.
        assert!((t_second.get().unwrap() - 1.0).abs() < 1e-9);
        assert!((t_first.get().unwrap() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn completion_callback_can_resubmit() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 1.0);
        let count = Rc::new(Cell::new(0));
        task::spawn(&sim, {
            let count = Rc::clone(&count);
            async move {
                for _ in 0..5 {
                    cpu.run(TenantId(2), 0.1).await;
                    count.set(count.get() + 1);
                }
            }
        });
        sim.run_to_completion();
        assert_eq!(count.get(), 5);
        assert!((sim.now().as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_instant_completions_wake_in_submission_order() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 2.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for label in ["first", "second"] {
            let (work, log) = (cpu.run(TenantId(2), 0.25), Rc::clone(&log));
            task::spawn(&sim, async move {
                work.await;
                log.borrow_mut().push(label);
            });
        }
        sim.run_to_completion();
        // Two finish in submission order; past two, the scan's swap-removal
        // moves the last task up, as it did when callbacks ran here.
        assert_eq!(*log.borrow(), ["first", "second"]);
        assert_eq!(sim.events_executed(), 1, "both woke inside the one completion event");
    }

    #[test]
    fn a_charge_accrues_usage_with_no_waiter() {
        let sim = Sim::new(1);
        let cpu = CpuScheduler::new(sim.clone(), 1.0);
        cpu.charge(TenantId(2), 0.5);
        let run = resumed_at(&sim, cpu.run(TenantId(3), 0.5));
        sim.run_to_completion();
        // Sharing the one vCPU with the charge, the awaited task ends at 1 s.
        assert!((run.get().expect("completed") - 1.0).abs() < 1e-9);
        assert!((cpu.cumulative_usage(TenantId(2)) - 0.5).abs() < 1e-9);
        assert_eq!(sim.live_tasks(), 0);
    }
}
