//! Differential test: the hierarchical timer wheel must reproduce the old
//! binary-heap scheduler's pop order **byte for byte** under arbitrary
//! interleavings of schedules (including in the past and far future),
//! cancels, re-schedules, and same-timestamp bursts. The heap lives on as
//! [`modelheap::ModelScheduler`], kept solely as this model.

use std::fmt::Write as _;

use crdb_sim::wheel::TimerWheel;
use crdb_util::slab::Slot;
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
    /// Schedule at an *absolute* time, possibly in the virtual past
    /// (exercises the engine's clamp-to-now path: both structures receive
    /// the same clamped instant).
    ScheduleAbsolute { at_ns: u64 },
    /// Cancel the pending event at index `pick % pending.len()`.
    Cancel { pick: usize },
    /// Cancel a pending event and immediately re-schedule it later.
    Reschedule { pick: usize, delay_ns: u64 },
    /// Pop up to `n` events from both sides and compare.
    Pop { n: usize },
}

/// Drives the same op sequence against the wheel and the model heap and
/// returns the two pop logs, which callers assert byte-identical.
fn run_differential(ops: &[Op]) -> (String, String) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut model: ModelScheduler<u64> = ModelScheduler::new();
    // (seq, wheel token) for every not-yet-popped, not-yet-cancelled event.
    let mut pending: Vec<(u64, Slot)> = Vec::new();
    let mut next_seq = 0u64;
    let mut now_ns = 0u64;
    let mut wheel_log = String::new();
    let mut model_log = String::new();

    let schedule = |at_ns: u64,
                    wheel: &mut TimerWheel<u64>,
                    model: &mut ModelScheduler<u64>,
                    pending: &mut Vec<(u64, Slot)>,
                    next_seq: &mut u64| {
        let at = SimTime::from_nanos(at_ns);
        let seq = *next_seq;
        *next_seq += 1;
        let token = wheel.insert(at, seq, seq);
        let model_id = model.schedule(at, seq);
        assert_eq!(model_id, seq, "model ids are schedule sequence numbers");
        pending.push((seq, token));
    };

    for op in ops {
        match *op {
            Op::Schedule { delay_ns } => {
                schedule(
                    now_ns.saturating_add(delay_ns),
                    &mut wheel,
                    &mut model,
                    &mut pending,
                    &mut next_seq,
                );
            }
            Op::Burst { delay_ns, n } => {
                let at = now_ns.saturating_add(delay_ns);
                for _ in 0..n {
                    schedule(at, &mut wheel, &mut model, &mut pending, &mut next_seq);
                }
            }
            Op::ScheduleAbsolute { at_ns } => {
                // The engine clamps past times to now before either
                // structure sees them; replicate that here.
                let at = at_ns.max(now_ns);
                schedule(at, &mut wheel, &mut model, &mut pending, &mut next_seq);
            }
            Op::Cancel { pick } => {
                if pending.is_empty() {
                    continue;
                }
                let (seq, token) = pending.swap_remove(pick % pending.len());
                assert!(wheel.cancel(token).is_some(), "live event cancels");
                model.cancel(seq);
            }
            Op::Reschedule { pick, delay_ns } => {
                if pending.is_empty() {
                    continue;
                }
                let (seq, token) = pending.swap_remove(pick % pending.len());
                assert!(wheel.cancel(token).is_some());
                model.cancel(seq);
                schedule(
                    now_ns.saturating_add(delay_ns),
                    &mut wheel,
                    &mut model,
                    &mut pending,
                    &mut next_seq,
                );
            }
            Op::Pop { n } => {
                for _ in 0..n {
                    let w = wheel.pop_min();
                    let m = model.pop_min();
                    match (w, m) {
                        (None, None) => break,
                        (Some((wat, wseq, wval)), Some((mat, mseq, mval))) => {
                            writeln!(wheel_log, "{}:{}:{}", wat.as_nanos(), wseq, wval).unwrap();
                            writeln!(model_log, "{}:{}:{}", mat.as_nanos(), mseq, mval).unwrap();
                            assert_eq!((wat, wseq, wval), (mat, mseq, mval));
                            now_ns = now_ns.max(wat.as_nanos());
                            pending.retain(|&(s, _)| s != wseq);
                        }
                        (w, m) => panic!("one side drained early: wheel={w:?} model={m:?}"),
                    }
                }
            }
        }
    }
    // Drain both completely.
    loop {
        let w = wheel.pop_min();
        let m = model.pop_min();
        match (w, m) {
            (None, None) => break,
            (Some((wat, wseq, wval)), Some((mat, mseq, mval))) => {
                writeln!(wheel_log, "{}:{}:{}", wat.as_nanos(), wseq, wval).unwrap();
                writeln!(model_log, "{}:{}:{}", mat.as_nanos(), mseq, mval).unwrap();
                assert_eq!((wat, wseq, wval), (mat, mseq, mval));
            }
            (w, m) => panic!("one side drained early: wheel={w:?} model={m:?}"),
        }
    }
    assert_eq!(wheel.len(), 0);
    (wheel_log, model_log)
}

/// Random op stream biased toward the hot patterns: short timers, heavy
/// cancellation, occasional far-future outliers crossing wheel levels.
fn random_ops(rng: &mut SmallRng, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.gen_range(0..10u32) {
            0..=2 => Op::Schedule { delay_ns: rng.gen_range(0..50_000_000) },
            3 => Op::Schedule {
                // Far future: exercises high levels and the overflow map.
                delay_ns: rng.gen_range(1_000_000_000..u64::MAX / 2),
            },
            4 => Op::Burst { delay_ns: rng.gen_range(0..5_000_000), n: rng.gen_range(2..12) },
            5 => Op::ScheduleAbsolute { at_ns: rng.gen_range(0..100_000_000) },
            6 | 7 => Op::Cancel { pick: rng.gen() },
            8 => Op::Reschedule { pick: rng.gen(), delay_ns: rng.gen_range(0..20_000_000) },
            _ => Op::Pop { n: rng.gen_range(1..8) },
        };
        ops.push(op);
    }
    ops
}

#[test]
fn seeded_random_schedules_match_model_byte_for_byte() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(50..400);
        let ops = random_ops(&mut rng, len);
        let (wheel_log, model_log) = run_differential(&ops);
        assert_eq!(wheel_log, model_log, "seed {seed}");
        assert!(!wheel_log.is_empty(), "seed {seed} popped nothing");
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
    let (wheel_log, model_log) = run_differential(&ops);
    assert_eq!(wheel_log, model_log);
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
    let (wheel_log, model_log) = run_differential(&ops);
    assert_eq!(wheel_log, model_log);
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
