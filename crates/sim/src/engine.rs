//! The discrete-event engine.
//!
//! A [`Sim`] owns an ordered map of scheduled events keyed by
//! `(firing time, schedule sequence)`: closures, and the wakes of tasks
//! parked on a [`crate::task::sleep`]. It also owns a [`ManualClock`] shared (via the
//! [`Clock`] trait) with every component. Execution is single-threaded and
//! deterministic: ties in firing time are broken by schedule order, and
//! all randomness flows from one seeded RNG. Cancellation removes the
//! event from the map; nothing is tombstoned.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

use crdb_util::clock::ManualClock;
use crdb_util::time::SimTime;
use crdb_util::Clock;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Identifies a scheduled event so it can be cancelled: its key in the
/// queue, `(firing time, schedule sequence)`. Sequence numbers are never
/// reused, so a fired or cancelled id names nothing and cancelling it again
/// is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(SimTime, u64);

/// What an event does when it fires.
enum Event {
    /// Runs a scheduled closure.
    Call(Box<dyn FnOnce()>),
    /// Wakes the task parked on a sleep.
    Wake(Waker),
}

struct Core {
    queue: BTreeMap<EventId, Event>,
    next_seq: u64,
    executed: u64,
}

/// A handle to the simulation. Cheap to clone; every component that needs
/// to schedule work holds one.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    clock: Arc<ManualClock>,
    rng: Rc<RefCell<SmallRng>>,
    pub(crate) tasks: crate::task::Executor,
}

impl Sim {
    /// Creates a simulation with the given RNG seed. Identical seeds and
    /// identical schedules of calls produce identical runs.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Rc::new(RefCell::new(Core { queue: BTreeMap::new(), next_seq: 0, executed: 0 })),
            clock: ManualClock::new(),
            rng: Rc::new(RefCell::new(SmallRng::seed_from_u64(seed))),
            tasks: Default::default(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The shared clock, for components that only need to *read* time.
    pub fn clock(&self) -> Arc<ManualClock> {
        Arc::clone(&self.clock)
    }

    /// Runs `f` with the simulation's RNG. All randomness must flow through
    /// here to keep runs reproducible.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.rng.borrow_mut())
    }

    /// Schedules `callback` to run at absolute time `at` (clamped to now if
    /// in the past). Returns an id usable with [`Sim::cancel`].
    pub fn schedule_at(&self, at: SimTime, callback: impl FnOnce() + 'static) -> EventId {
        self.insert(at, Event::Call(Box::new(callback)))
    }

    fn insert(&self, at: SimTime, event: Event) -> EventId {
        let mut core = self.core.borrow_mut();
        let at = at.max(self.clock.now());
        let seq = core.next_seq;
        core.next_seq += 1;
        let id = EventId(at, seq);
        core.queue.insert(id, event);
        id
    }

    /// Schedules an event that wakes `waker`'s task after `delay`.
    pub(crate) fn schedule_wake(&self, delay: Duration, waker: Waker) -> EventId {
        self.insert(self.now() + delay, Event::Wake(waker))
    }

    /// Whether event `id` is still to fire; if it is a wake, it now wakes
    /// `waker`'s task (a future can move to another task between polls).
    pub(crate) fn rewake(&self, id: EventId, waker: &Waker) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(event) = core.queue.get_mut(&id) else { return false };
        if let Event::Wake(parked) = event {
            if !parked.will_wake(waker) {
                parked.clone_from(waker);
            }
        }
        true
    }

    /// Schedules `callback` to run after `delay`.
    pub fn schedule_after(&self, delay: Duration, callback: impl FnOnce() + 'static) -> EventId {
        self.schedule_at(self.now() + delay, callback)
    }

    /// Cancels a scheduled event. Cancelling an already-fired or unknown
    /// event is a no-op.
    pub fn cancel(&self, id: EventId) {
        self.core.borrow_mut().queue.remove(&id);
    }

    /// Schedules `callback` to run every `period`, starting one period from
    /// now, until the simulation ends. The callback may return `false` to
    /// stop the recurrence.
    pub fn schedule_periodic(
        &self,
        period: Duration,
        mut callback: impl FnMut() -> bool + 'static,
    ) {
        let sim = self.clone();
        self.schedule_after(period, move || {
            if callback() {
                sim.schedule_periodic(period, callback);
            }
        });
    }

    /// Executes the next event, advancing the clock to its firing time.
    /// Returns `false` when the queue is empty.
    pub fn step(&self) -> bool {
        let (at, event) = {
            let mut core = self.core.borrow_mut();
            match core.queue.pop_first() {
                None => return false,
                Some((EventId(at, _), event)) => {
                    core.executed += 1;
                    (at, event)
                }
            }
        };
        self.clock.advance_to(at);
        match event {
            Event::Call(callback) => callback(),
            Event::Wake(waker) => crate::task::wake(&self.tasks, waker),
        }
        true
    }

    /// The firing time of the next pending event.
    fn peek_next_at(&self) -> Option<SimTime> {
        self.core.borrow().queue.first_key_value().map(|(id, _)| id.0)
    }

    /// Runs events until virtual time would exceed `until`, leaving later
    /// events queued and the clock at `until`.
    pub fn run_until(&self, until: SimTime) {
        loop {
            match self.peek_next_at() {
                None => break,
                Some(next_at) if next_at > until => break,
                Some(_) => {
                    self.step();
                }
            }
        }
        if self.clock.now() < until {
            self.clock.advance_to(until);
        }
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&self, d: Duration) {
        let target = self.now() + d;
        self.run_until(target);
    }

    /// Drains the queue completely. Use with care: periodic events never
    /// let this return.
    pub fn run_to_completion(&self) {
        while self.step() {}
    }

    /// Number of events executed so far (for tests and diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.core.borrow().executed
    }

    /// Number of tasks spawned and not yet finished: each is parked on a
    /// wake, so one that nothing will wake again is a leak.
    pub fn live_tasks(&self) -> usize {
        self.tasks.borrow().live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (delay, label) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let log = Rc::clone(&log);
            sim.schedule_after(dur::ms(delay), move || log.borrow_mut().push(label));
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
        assert_eq!(sim.now(), SimTime::from_nanos(30_000_000));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for label in ["first", "second", "third"] {
            let log = Rc::clone(&log);
            sim.schedule_after(dur::ms(5), move || log.borrow_mut().push(label));
        }
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn cancel_suppresses_event() {
        let sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let id = sim.schedule_after(dur::ms(1), move || *f.borrow_mut() = true);
        sim.cancel(id);
        sim.run_to_completion();
        assert!(!*fired.borrow());
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let sim = Sim::new(1);
        let count = Rc::new(RefCell::new(0));
        for i in 1..=10u64 {
            let count = Rc::clone(&count);
            sim.schedule_after(dur::ms(i * 10), move || *count.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_secs_f64(0.05));
        assert_eq!(*count.borrow(), 5);
        assert_eq!(sim.now().as_secs_f64(), 0.05);
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new(1);
        let done = Rc::new(RefCell::new(SimTime::ZERO));
        {
            let sim2 = sim.clone();
            let done = Rc::clone(&done);
            sim.schedule_after(dur::ms(10), move || {
                let done = Rc::clone(&done);
                let sim3 = sim2.clone();
                sim2.schedule_after(dur::ms(15), move || {
                    *done.borrow_mut() = sim3.now();
                });
            });
        }
        sim.run_to_completion();
        assert_eq!(done.borrow().as_nanos(), 25_000_000);
    }

    #[test]
    fn periodic_runs_until_false() {
        let sim = Sim::new(1);
        let count = Rc::new(RefCell::new(0));
        let c = Rc::clone(&count);
        sim.schedule_periodic(dur::secs(1), move || {
            *c.borrow_mut() += 1;
            *c.borrow() < 3
        });
        sim.run_until(SimTime::from_secs_f64(100.0));
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn deterministic_rng() {
        let a = Sim::new(42);
        let b = Sim::new(42);
        let va: u64 = a.with_rng(rand::Rng::gen);
        let vb: u64 = b.with_rng(rand::Rng::gen);
        assert_eq!(va, vb);
    }
}
