//! Differential test: [`Sim`]'s event queue must reproduce the old
//! binary-heap scheduler's fire order **byte for byte** under arbitrary
//! interleavings of schedules (including in the past and far future),
//! cancels, re-schedules, and same-timestamp bursts. The heap lives on as
//! [`modelheap::ModelScheduler`], kept solely as this model.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crdb_sim::{EventId, Sim};
use crdb_util::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod modelheap;
use modelheap::ModelScheduler;

/// One step of the random schedule driven against both implementations.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule one event `delay_ns` after the current virtual time.
    Schedule { delay_ns: u64 },
    /// Schedule `n` events at the identical timestamp.
    Burst { delay_ns: u64, n: usize },
    /// Schedule at an *absolute* time, possibly in the virtual past. `Sim`
    /// clamps it to now itself; the model is handed the clamped instant.
    ScheduleAbsolute { at_ns: u64 },
    /// Cancel the pending event at index `pick % pending.len()`.
    Cancel { pick: usize },
    /// Cancel a pending event and immediately re-schedule it later.
    Reschedule { pick: usize, delay_ns: u64 },
    /// Cancel the most recently fired event's id; it must cancel nothing,
    /// not even an event scheduled since at the same instant.
    CancelFired,
    /// Fire up to `n` events from both sides and compare.
    Pop { n: usize },
}

/// Drives the same op sequence against `Sim` and the model heap and
/// returns the two fire logs, which callers assert byte-identical.
fn run_differential(ops: &[Op]) -> (String, String) {
    let sim = Sim::new(0);
    let mut model: ModelScheduler<u64> = ModelScheduler::new();
    // (seq, id) for every not-yet-fired, not-yet-cancelled event.
    let mut pending: Vec<(u64, EventId)> = Vec::new();
    // The id of the event that fired last, once one has.
    let mut fired: Option<EventId> = None;
    let mut next_seq = 0u64;
    // `(at, seq)` of each event `Sim` fires, pushed by its callback.
    let sim_fired: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::default();
    let mut sim_log = String::new();
    let mut model_log = String::new();

    let mut schedule =
        |at_ns: u64, model: &mut ModelScheduler<u64>, pending: &mut Vec<(u64, EventId)>| {
            let seq = next_seq;
            next_seq += 1;
            let log = Rc::clone(&sim_fired);
            let clock = sim.clone();
            let id = sim.schedule_at(SimTime::from_nanos(at_ns), move || {
                log.borrow_mut().push((clock.now(), seq));
            });
            let model_id = model.schedule(SimTime::from_nanos(at_ns).max(sim.now()), seq);
            assert_eq!(model_id, seq, "model ids are schedule sequence numbers");
            pending.push((seq, id));
        };
    // Fires one event on each side; `false` once both are empty.
    let pop = |model: &mut ModelScheduler<u64>,
               pending: &mut Vec<(u64, EventId)>,
               fired: &mut Option<EventId>,
               sim_log: &mut String,
               model_log: &mut String| {
        let stepped = sim.step();
        let s = if stepped { sim_fired.borrow_mut().pop() } else { None };
        match (s, model.pop_min()) {
            (None, None) => {
                assert!(!stepped, "a fired event logged nothing");
                false
            }
            (Some((sat, sseq)), Some((mat, mseq, mval))) => {
                writeln!(sim_log, "{}:{}", sat.as_nanos(), sseq).unwrap();
                writeln!(model_log, "{}:{}", mat.as_nanos(), mseq).unwrap();
                assert_eq!((sat, sseq), (mat, mseq));
                assert_eq!(mval, mseq);
                let at =
                    pending.iter().position(|&(s, _)| s == sseq).expect("fired a pending event");
                *fired = Some(pending.swap_remove(at).1);
                true
            }
            (s, m) => panic!("one side drained early: sim={s:?} model={m:?}"),
        }
    };

    for op in ops {
        let now_ns = sim.now().as_nanos();
        match *op {
            Op::Schedule { delay_ns } => {
                schedule(now_ns.saturating_add(delay_ns), &mut model, &mut pending);
            }
            Op::Burst { delay_ns, n } => {
                let at = now_ns.saturating_add(delay_ns);
                for _ in 0..n {
                    schedule(at, &mut model, &mut pending);
                }
            }
            Op::ScheduleAbsolute { at_ns } => schedule(at_ns, &mut model, &mut pending),
            Op::Cancel { pick } => {
                if pending.is_empty() {
                    continue;
                }
                let (seq, id) = pending.swap_remove(pick % pending.len());
                sim.cancel(id);
                model.cancel(seq);
            }
            Op::Reschedule { pick, delay_ns } => {
                if pending.is_empty() {
                    continue;
                }
                let (seq, id) = pending.swap_remove(pick % pending.len());
                sim.cancel(id);
                model.cancel(seq);
                schedule(now_ns.saturating_add(delay_ns), &mut model, &mut pending);
            }
            Op::CancelFired => {
                if let Some(id) = fired {
                    // The model never sees this cancel: it must be a no-op.
                    schedule(now_ns, &mut model, &mut pending);
                    sim.cancel(id);
                }
            }
            Op::Pop { n } => {
                for _ in 0..n {
                    if !pop(&mut model, &mut pending, &mut fired, &mut sim_log, &mut model_log) {
                        break;
                    }
                }
            }
        }
    }
    // Drain both completely.
    while pop(&mut model, &mut pending, &mut fired, &mut sim_log, &mut model_log) {}
    assert!(pending.is_empty(), "pending events never fired: {pending:?}");
    (sim_log, model_log)
}

/// Random op stream biased toward the hot patterns: short timers, heavy
/// cancellation, occasional far-future outliers.
fn random_ops(rng: &mut SmallRng, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.gen_range(0..11u32) {
            0..=2 => Op::Schedule { delay_ns: rng.gen_range(0..50_000_000) },
            3 => Op::Schedule { delay_ns: rng.gen_range(1_000_000_000..u64::MAX / 2) },
            4 => Op::Burst { delay_ns: rng.gen_range(0..5_000_000), n: rng.gen_range(2..12) },
            5 => Op::ScheduleAbsolute { at_ns: rng.gen_range(0..100_000_000) },
            6 | 7 => Op::Cancel { pick: rng.gen() },
            8 => Op::Reschedule { pick: rng.gen(), delay_ns: rng.gen_range(0..20_000_000) },
            9 => Op::CancelFired,
            _ => Op::Pop { n: rng.gen_range(1..8) },
        };
        ops.push(op);
    }
    ops
}

/// Fixed inputs for the edges a bucketed queue could get wrong.
fn edge_cases() -> Vec<Vec<Op>> {
    let abs = |at_ns| Op::ScheduleAbsolute { at_ns };
    vec![
        // Ordering below one µs.
        vec![abs(5_900), abs(5_100), abs(5_500)],
        // One event per power of 64 µs, up to and past 64^8 µs.
        (0..=8u32).map(|level| abs(3 * 64u64.pow(level) * 1_000)).collect(),
        // A past time is clamped to now and fires next, in schedule order.
        vec![abs(10_000_000), Op::Pop { n: 1 }, abs(1_000), abs(500), abs(20_000_000)],
        // Dense cancel churn inside one µs.
        (0..100u64)
            .map(|seq| abs(7_000 + seq))
            .chain((0..34).map(|_| Op::Cancel { pick: 3 }))
            .collect(),
        // A fired id cancels nothing, not even an event scheduled since at
        // its instant.
        vec![abs(1_000), Op::Pop { n: 1 }, Op::CancelFired, Op::CancelFired, Op::Pop { n: 2 }],
    ]
}

#[test]
fn seeded_random_schedules_match_model_byte_for_byte() {
    for (i, ops) in edge_cases().iter().enumerate() {
        let (sim_log, model_log) = run_differential(ops);
        assert_eq!(sim_log, model_log, "edge case {i}");
        assert!(!sim_log.is_empty(), "edge case {i} fired nothing");
    }
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(50..400);
        let ops = random_ops(&mut rng, len);
        let (sim_log, model_log) = run_differential(&ops);
        assert_eq!(sim_log, model_log, "seed {seed}");
        assert!(!sim_log.is_empty(), "seed {seed} fired nothing");
    }
}

#[test]
fn same_timestamp_burst_orders_by_schedule_seq() {
    let ops = vec![
        Op::Burst { delay_ns: 1_000_000, n: 50 },
        Op::Pop { n: 10 },
        Op::Burst { delay_ns: 1_000_000, n: 50 },
        Op::Pop { n: 200 },
    ];
    let (sim_log, model_log) = run_differential(&ops);
    assert_eq!(sim_log, model_log);
}

#[test]
fn cancel_heavy_churn_matches_model() {
    // The proxy's idle-timer pattern: schedule, cancel most, re-schedule.
    let mut ops = Vec::new();
    for i in 0..500usize {
        ops.push(Op::Schedule { delay_ns: (i as u64 % 97) * 10_000 + 1 });
        if i % 2 == 0 {
            ops.push(Op::Cancel { pick: i * 7 });
        }
        if i % 5 == 0 {
            ops.push(Op::Reschedule { pick: i * 13, delay_ns: 777_000 });
        }
        if i % 11 == 0 {
            ops.push(Op::Pop { n: 3 });
        }
    }
    let (sim_log, model_log) = run_differential(&ops);
    assert_eq!(sim_log, model_log);
}

#[test]
fn identical_seeds_produce_identical_logs() {
    let run = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 300);
        run_differential(&ops).0
    };
    assert_eq!(run(42), run(42), "same seed, same bytes");
}
