//! FIFO rate-limited resources.
//!
//! Models disk-like resources with a fixed service rate in units/second —
//! we use it for LSM flush and compaction bandwidth (§5.1.3), where the
//! observable bottleneck is "bytes per second that can be flushed from the
//! memtable" or "bytes per second of L0→lower-level compaction". A job is
//! awaited ([`RateResource::transfer`]) or only charged
//! ([`RateResource::charge`]); either way it holds its place in the queue.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::engine::{EventId, Sim};
use crate::task::Completion;

struct Job {
    units: f64,
    /// Filled once the job is served; `None` for a charge.
    on_complete: Option<Completion<()>>,
}

struct Inner {
    rate: f64,
    /// The head of the queue is the job in service.
    queue: VecDeque<Job>,
    completion: Option<EventId>,
    total_served: f64,
}

/// A shared handle to a FIFO resource serving `rate` units per second.
#[derive(Clone)]
pub struct RateResource {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl RateResource {
    /// Creates a resource with the given service rate (units/second).
    pub fn new(sim: Sim, rate: f64) -> Self {
        assert!(rate > 0.0);
        RateResource {
            sim,
            inner: Rc::new(RefCell::new(Inner {
                rate,
                queue: VecDeque::new(),
                completion: None,
                total_served: 0.0,
            })),
        }
    }

    /// Transfers `units` through the resource: the completion resolves once
    /// every job queued before it and then this one are served. The job is
    /// queued at the call, and stays queued if the completion is dropped.
    #[must_use = "the job is queued anyway; `charge` is for work nobody awaits"]
    pub fn transfer(&self, units: f64) -> Completion<()> {
        let done = Completion::default();
        self.enqueue(units, Some(done.clone()));
        done
    }

    /// Queues `units` of work that nobody waits for.
    pub fn charge(&self, units: f64) {
        self.enqueue(units, None);
    }

    fn enqueue(&self, units: f64, on_complete: Option<Completion<()>>) {
        assert!(units >= 0.0);
        self.inner.borrow_mut().queue.push_back(Job { units: units.max(1e-12), on_complete });
        self.arm();
    }

    /// Starts serving the head of the queue unless a job is in service.
    fn arm(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.completion.is_some() {
            return;
        }
        let Some(job) = inner.queue.front() else { return };
        let dt = Duration::from_secs_f64(job.units / inner.rate);
        let this = self.clone();
        inner.completion = Some(self.sim.schedule_after(dt, move || this.complete()));
    }

    fn complete(&self) {
        let done = {
            let mut inner = self.inner.borrow_mut();
            inner.completion = None;
            let Some(job) = inner.queue.pop_front() else { return };
            inner.total_served += job.units;
            job.on_complete
        };
        self.arm();
        if let Some(done) = done {
            done.fill(());
        }
    }

    /// Total units served since construction.
    pub fn total_served(&self) -> f64 {
        self.inner.borrow().total_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task;

    #[test]
    fn serves_fifo_at_rate() {
        let sim = Sim::new(1);
        let disk = RateResource::new(sim.clone(), 100.0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (units, label) in [(50.0, "a"), (100.0, "b")] {
            let (done, o, s) = (disk.transfer(units), Rc::clone(&order), sim.clone());
            task::spawn(&sim, async move {
                done.await;
                o.borrow_mut().push((label, s.now().as_secs_f64()));
            });
        }
        sim.run_to_completion();
        let order = order.borrow();
        assert_eq!(order[0].0, "a");
        assert!((order[0].1 - 0.5).abs() < 1e-9);
        assert_eq!(order[1].0, "b");
        assert!((order[1].1 - 1.5).abs() < 1e-9);
        assert_eq!(disk.total_served(), 150.0);
    }

    #[test]
    fn a_charge_holds_its_place_in_the_queue() {
        let sim = Sim::new(1);
        let disk = RateResource::new(sim.clone(), 100.0);
        disk.charge(100.0);
        let done = disk.transfer(50.0);
        let at = Rc::new(RefCell::new(None));
        task::spawn(&sim, {
            let (at, sim) = (Rc::clone(&at), sim.clone());
            async move {
                done.await;
                *at.borrow_mut() = Some(sim.now().as_secs_f64());
            }
        });
        sim.run_to_completion();
        let at = at.borrow().expect("served");
        assert!((at - 1.5).abs() < 1e-9, "{at}");
        assert_eq!(disk.total_served(), 150.0);
    }
}
