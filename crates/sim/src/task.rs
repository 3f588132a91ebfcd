//! `async fn` on the simulator's clock. Each [`Sim`] owns its tasks:
//! boxed futures in a slab, whose [`Waker`] carries only the task's slot
//! and id. A wake polls the task inline, inside the event that woke it (a
//! wake during its own poll re-polls it once that poll returns), so an
//! `.await` resumes where its callback ran in `(at, seq)` order and polling
//! adds no event. No executor borrow is held across a poll: a callback
//! fired in one task's poll may spawn and drive another. A finished task's
//! slot, and its waker once nothing else holds it, serve the next task
//! spawned, so a spawn allocates only its future.
//!
//! The simulator's resources are awaited through [`Completion`]s: the CPU
//! ([`crate::cpu::CpuScheduler::run`]), the disk
//! ([`crate::resource::RateResource::transfer`]) and the network
//! ([`crate::topology::Topology::hop`], a [`sleep`]). A control loop is a
//! task too: `loop { sleep(..).await; … }`.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::engine::{EventId, Sim};

/// A boxed, single-threaded future.
pub type BoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// A task: its future (taken while it is polled), whether it was woken
/// since its poll began, and its waker.
type Slot = (Option<BoxFuture<()>>, bool, Arc<TaskWaker>);

/// Names a task: its slot, and its id, which no other task ever has.
type Key = (usize, u64);

#[derive(Default)]
pub(crate) struct Tasks {
    /// Live tasks by slot; `None` in a slot whose task finished.
    slots: Vec<Option<Slot>>,
    /// Slots whose task finished, for the next tasks.
    free: Vec<usize>,
    next_id: u64,
    /// Tasks detached during the polls in progress, innermost poll's last.
    detached: Vec<Key>,
    /// Finished tasks' wakers that no clone outlived, for the next tasks.
    spare: Vec<Arc<TaskWaker>>,
}

impl Tasks {
    /// The live task `key` names: none once it finished, even if its slot
    /// serves another task since.
    fn get_mut(&mut self, (slot, id): Key) -> Option<&mut Slot> {
        self.slots.get_mut(slot)?.as_mut().filter(|(_, _, waker)| waker.key.1 == id)
    }

    /// Takes task `key` out, freeing its slot.
    fn remove(&mut self, key: Key) -> Option<Slot> {
        self.get_mut(key)?;
        self.free.push(key.0);
        self.slots.get_mut(key.0)?.take()
    }

    /// Tasks spawned and not yet finished.
    pub(crate) fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

pub(crate) type Executor = Rc<RefCell<Tasks>>;

thread_local! {
    /// The executor whose task is being polled, which a wake polls.
    static POLLING: RefCell<Option<Executor>> = const { RefCell::new(None) };
}

/// Runs `f` with `ex` as the executor being polled.
fn within(ex: &Executor, f: impl FnOnce()) {
    let outer = POLLING.replace(Some(Rc::clone(ex)));
    f();
    POLLING.set(outer);
}

/// Wakes `waker`'s task of `ex` from an event: polls it inline.
pub(crate) fn wake(ex: &Executor, waker: Waker) {
    within(ex, || waker.wake());
}

pub(crate) struct TaskWaker {
    key: Key,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        let key = self.key;
        // Let go of it first: a task that finishes in this poll can then
        // hand its waker on.
        drop(self);
        if let Some(ex) = POLLING.with_borrow(Clone::clone) {
            poll(&ex, key);
        }
    }
}

fn insert(ex: &Executor, future: BoxFuture<()>) -> Key {
    let mut tasks = ex.borrow_mut();
    tasks.next_id += 1;
    let key = (tasks.free.pop().unwrap_or(tasks.slots.len()), tasks.next_id);
    let mut waker = tasks.spare.pop().unwrap_or_else(|| Arc::new(TaskWaker { key }));
    match Arc::get_mut(&mut waker) {
        Some(spare) => spare.key = key,
        None => waker = Arc::new(TaskWaker { key }),
    }
    let task = Some((Some(future), false, waker));
    match tasks.slots.get_mut(key.0) {
        Some(free) => *free = task,
        None => tasks.slots.push(task),
    }
    key
}

/// Spawns `future` as a task of `sim` and polls it at once.
pub fn spawn(sim: &Sim, future: impl Future<Output = ()> + 'static) {
    poll(&sim.tasks, insert(&sim.tasks, Box::pin(future)));
}

/// Polls task `key` (again while woken during its poll), then the tasks it
/// detached. A task being polled is marked woken instead.
fn poll(ex: &Executor, key: Key) {
    let mark = ex.borrow().detached.len();
    let taken = ex.borrow_mut().get_mut(key).and_then(|(future, woken, waker)| {
        *woken = future.is_none();
        Some((future.take()?, Waker::from(Arc::clone(waker))))
    });
    let Some((mut future, waker)) = taken else { return };
    within(ex, || {
        while future.as_mut().poll(&mut Context::from_waker(&waker)).is_pending() {
            let mut tasks = ex.borrow_mut();
            let Some((slot, woken, _)) = tasks.get_mut(key) else { return };
            if !std::mem::take(woken) {
                *slot = Some(future);
                return;
            }
        }
        let finished = ex.borrow_mut().remove(key);
        // Dropped outside the executor's borrow.
        drop((future, waker));
        if let Some((_, _, mut waker)) = finished {
            if Arc::get_mut(&mut waker).is_some() {
                ex.borrow_mut().spare.push(waker);
            }
        }
    });
    let detached: Vec<Key> = ex.borrow_mut().detached.drain(mark..).collect();
    detached.into_iter().for_each(|key| poll(ex, key));
}

struct Fill<T> {
    value: Option<T>,
    /// The awaiting task's waker, and the executor that polls it.
    waker: Option<(Waker, Weak<RefCell<Tasks>>)>,
}

/// A value one callback fills once and one task awaits; later fills are
/// dropped. Clones share the value.
pub struct Completion<T>(Rc<RefCell<Fill<T>>>);

impl<T> Default for Completion<T> {
    fn default() -> Self {
        Completion(Rc::new(RefCell::new(Fill { value: None, waker: None })))
    }
}

impl<T> Clone for Completion<T> {
    fn clone(&self) -> Self {
        Completion(Rc::clone(&self.0))
    }
}

impl<T: 'static> Completion<T> {
    /// Fills the completion unless it holds a value, and polls the awaiting
    /// task inline. A fill after `.await` took the value is never read.
    pub fn fill(&self, value: T) {
        let waker = {
            let mut fill = self.0.borrow_mut();
            if fill.value.is_some() {
                return;
            }
            fill.value = Some(value);
            fill.waker.take()
        };
        if let Some((waker, ex)) = waker.and_then(|(w, ex)| Some((w, ex.upgrade()?))) {
            within(&ex, || waker.wake());
        }
    }

    /// Schedules an event that fills the completion with `value` after
    /// `delay`. Dropping the returned timer cancels the event.
    pub fn fill_after(&self, sim: &Sim, delay: Duration, value: T) -> Timer {
        let this = self.clone();
        Timer(sim.clone(), sim.schedule_after(delay, move || this.fill(value)))
    }
}

impl<T> Future for Completion<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let fill = &mut *self.0.borrow_mut();
        if fill.value.is_none() {
            let ex = POLLING.with_borrow(|ex| ex.as_ref().map(Rc::downgrade));
            fill.waker = ex.map(|ex| (cx.waker().clone(), ex));
        }
        fill.value.take().map_or(Poll::Pending, Poll::Ready)
    }
}

/// A scheduled event that is cancelled when this is dropped.
#[must_use = "dropping a timer cancels its event"]
pub struct Timer(Sim, EventId);

impl Drop for Timer {
    fn drop(&mut self) {
        self.0.cancel(self.1);
    }
}

/// Resolves `delay` after its first poll: the event scheduled then wakes
/// the task, and the sleep is over once that event has fired. It holds
/// only the event's id, so it allocates nothing; dropping it cancels the
/// event.
pub fn sleep(sim: &Sim, delay: Duration) -> Sleep<'_> {
    Sleep { sim, delay, event: None }
}

/// A delay on the simulator's clock; see [`sleep`].
#[must_use = "a sleep does nothing unless awaited"]
pub struct Sleep<'a> {
    sim: &'a Sim,
    delay: Duration,
    /// The event that ends it, scheduled at its first poll.
    event: Option<EventId>,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match self.event {
            None => {
                self.event = Some(self.sim.schedule_wake(self.delay, cx.waker().clone()));
                Poll::Pending
            }
            Some(id) if self.sim.rewake(id, cx.waker()) => Poll::Pending,
            Some(_) => Poll::Ready(()),
        }
    }
}

impl Drop for Sleep<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.event {
            self.sim.cancel(id);
        }
    }
}

/// Runs `futures` concurrently in the awaiting task, polling them in order;
/// resolves to their outputs once all succeed, or at once to the first
/// error. Then each future still running becomes a task of its own, first
/// polled once the current poll returns, and runs to its end unobserved.
pub async fn try_join_all<T: 'static, E: 'static>(
    futures: impl IntoIterator<Item = BoxFuture<Result<T, E>>>,
) -> Result<Vec<T>, E> {
    let mut running: Vec<_> = futures.into_iter().map(|f| (Some(f), None)).collect();
    std::future::poll_fn(move |cx| {
        for at in 0..running.len() {
            let Some((slot, output)) = running.get_mut(at) else { continue };
            let Some(Poll::Ready(result)) = slot.as_mut().map(|f| f.as_mut().poll(cx)) else {
                continue;
            };
            *slot = None;
            match result {
                Ok(value) => *output = Some(value),
                Err(e) => {
                    let Some(ex) = POLLING.with_borrow(Clone::clone) else {
                        return Poll::Ready(Err(e));
                    };
                    for future in running.drain(..).filter_map(|(future, _)| future) {
                        let key = insert(&ex, Box::pin(async move { drop(future.await) }));
                        ex.borrow_mut().detached.push(key);
                    }
                    return Poll::Ready(Err(e));
                }
            }
        }
        match running.iter().all(|(future, _)| future.is_none()) {
            true => Poll::Ready(Ok(running.drain(..).filter_map(|(_, output)| output).collect())),
            false => Poll::Pending,
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;
    use std::cell::Cell;

    type Log = Rc<RefCell<Vec<&'static str>>>;

    fn note(log: &Log, entry: &'static str) {
        log.borrow_mut().push(entry);
    }

    #[test]
    fn a_fill_and_a_plain_callback_at_one_instant_run_in_schedule_order() {
        let sim = Sim::new(1);
        let log = Log::default();
        let done = Completion::default();
        spawn(&sim, {
            let (done, log) = (done.clone(), Rc::clone(&log));
            async move {
                done.await;
                note(&log, "task");
            }
        });
        let plain = |entry| {
            let log = Rc::clone(&log);
            move || note(&log, entry)
        };
        sim.schedule_after(dur::ms(5), plain("before"));
        let _fill = done.fill_after(&sim, dur::ms(5), ());
        sim.schedule_after(dur::ms(5), plain("after"));
        sim.run_to_completion();
        assert_eq!(*log.borrow(), ["before", "task", "after"]);
        assert_eq!(sim.events_executed(), 3, "the wake polled inline, in its event");
    }

    #[test]
    fn a_self_wake_re_polls_without_an_event() {
        let sim = Sim::new(1);
        let polls = Rc::new(Cell::new(0));
        spawn(&sim, {
            let polls = Rc::clone(&polls);
            std::future::poll_fn(move |cx| {
                polls.set(polls.get() + 1);
                if polls.get() == 1 {
                    cx.waker().wake_by_ref();
                    return Poll::Pending;
                }
                Poll::Ready(())
            })
        });
        assert_eq!(polls.get(), 2);
        assert!(!sim.step(), "nothing was scheduled");
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn dropping_a_sleep_cancels_its_event() {
        let sim = Sim::new(1);
        let woke = Rc::new(Cell::new(false));
        let mut nap = Box::pin(sleep(&sim, dur::ms(10)));
        let pending = nap.as_mut().poll(&mut Context::from_waker(Waker::noop()));
        assert!(pending.is_pending());
        drop(nap);
        assert!(!sim.step(), "the dropped sleep's event is gone");
        spawn(&sim, {
            let (sim, woke) = (sim.clone(), Rc::clone(&woke));
            async move {
                sleep(&sim, dur::ms(10)).await;
                woke.set(true);
            }
        });
        sim.run_to_completion();
        assert!(woke.get());
        assert_eq!(sim.now().as_nanos(), 10_000_000);
    }

    #[test]
    fn a_sleep_moved_to_another_task_wakes_that_task() {
        let sim = Sim::new(1);
        let log = Log::default();
        let futures: Vec<BoxFuture<Result<(), &str>>> = vec![
            Box::pin({
                let (sim, log) = (sim.clone(), Rc::clone(&log));
                async move {
                    sleep(&sim, dur::ms(5)).await;
                    note(&log, "slept");
                    Ok(())
                }
            }),
            Box::pin(async { Err("failed") }),
        ];
        // The failure detaches the sleeping future into a task of its own,
        // which polls it again with another waker.
        spawn(&sim, async move { assert_eq!(try_join_all(futures).await, Err("failed")) });
        sim.run_to_completion();
        assert_eq!(*log.borrow(), ["slept"]);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn a_callback_during_a_poll_can_spawn_and_drive_another_task() {
        let sim = Sim::new(1);
        let log = Log::default();
        let go = Completion::default();
        spawn(&sim, {
            let (go, log) = (go.clone(), Rc::clone(&log));
            async move {
                go.await;
                note(&log, "woken");
            }
        });
        let callback = {
            let (log, sim) = (Rc::clone(&log), sim.clone());
            move || {
                let inner = Rc::clone(&log);
                spawn(&sim, async move { note(&inner, "spawned") });
                go.fill(());
            }
        };
        spawn(&sim, {
            let log = Rc::clone(&log);
            async move {
                callback();
                note(&log, "caller");
            }
        });
        assert_eq!(*log.borrow(), ["spawned", "woken", "caller"]);
    }

    #[test]
    fn try_join_all_answers_at_the_first_error_and_lets_the_rest_run() {
        let sim = Sim::new(1);
        let log = Log::default();
        let (slow, late) = (Completion::default(), Completion::default());
        let futures: Vec<BoxFuture<Result<u8, &str>>> = vec![
            Box::pin({
                let (slow, log) = (slow.clone(), Rc::clone(&log));
                async move {
                    slow.await;
                    note(&log, "slow done");
                    Ok(1)
                }
            }),
            Box::pin(async { Err("failed") }),
            Box::pin({
                let (late, log) = (late.clone(), Rc::clone(&log));
                async move {
                    note(&log, "late started");
                    late.await;
                    note(&log, "late done");
                    Ok(3)
                }
            }),
        ];
        spawn(&sim, {
            let log = Rc::clone(&log);
            async move {
                assert_eq!(try_join_all(futures).await, Err("failed"));
                note(&log, "answered");
            }
        });
        // The future after the failure first runs once the answer is out.
        assert_eq!(*log.borrow(), ["answered", "late started"]);
        late.fill(());
        slow.fill(());
        assert_eq!(*log.borrow(), ["answered", "late started", "late done", "slow done"]);
        let joined = Rc::new(Cell::new(None));
        spawn(&sim, {
            let joined = Rc::clone(&joined);
            async move {
                let ok: Vec<BoxFuture<Result<u8, ()>>> =
                    vec![Box::pin(async { Ok(1) }), Box::pin(async { Ok(2) })];
                joined.set(try_join_all(ok).await.ok().map(|v| v.iter().sum::<u8>()));
            }
        });
        assert_eq!(joined.get(), Some(3));
    }
}
