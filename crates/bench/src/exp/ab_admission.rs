//! Ablation — tenant-fair heap-of-heaps vs FIFO admission queueing
//! (§5.1.2).
//!
//! Admission control's top-level heap orders tenants by recent
//! consumption, least-consuming first. A FIFO queue admits in arrival
//! order, letting a flooding tenant starve a light one. This ablation
//! replays the same arrival schedule through both disciplines on a
//! single-slot resource and reports the light tenant's wait-time
//! distribution.

use crate::header;
use crdb_admission::queue::{Priority, WorkItem, WorkQueue};
use crdb_util::time::{dur, SimTime};
use crdb_util::{Histogram, TenantId};

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

struct Arrival {
    at: f64,
    tenant: TenantId,
    service: f64,
}

/// One noisy tenant floods 50 ops up front; the victim sends one op every
/// 100 ms. Single server, 10 ms service per op.
fn arrivals() -> Vec<Arrival> {
    let mut a = Vec::new();
    for i in 0..50 {
        a.push(Arrival { at: 0.001 * i as f64, tenant: TenantId(2), service: 0.01 });
    }
    for i in 0..10 {
        a.push(Arrival { at: 0.05 + 0.1 * i as f64, tenant: TenantId(3), service: 0.01 });
    }
    a.sort_by(|x, y| x.at.total_cmp(&y.at));
    a
}

fn simulate(fair: bool) -> (Histogram, Histogram) {
    let mut queue: WorkQueue<(f64, f64)> = WorkQueue::new(dur::secs(5));
    let mut fifo: std::collections::VecDeque<(f64, TenantId, f64)> = Default::default();
    let mut noisy = Histogram::new();
    let mut victim = Histogram::new();
    let arrivals = arrivals();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut busy_until = 0.0f64;
    loop {
        // Admit arrivals up to `now`.
        while let Some(a) = arrivals.get(next_arrival).filter(|a| a.at <= now) {
            if fair {
                queue.enqueue(WorkItem {
                    tenant: a.tenant,
                    priority: Priority::Normal,
                    txn_start: t(a.at),
                    deadline: SimTime::MAX,
                    payload: (a.at, a.service),
                });
            } else {
                fifo.push_back((a.at, a.tenant, a.service));
            }
            next_arrival += 1;
        }
        if now >= busy_until {
            // Server free: dispatch next item.
            let item = if fair {
                queue.dequeue(t(now)).map(|i| (i.payload.0, i.tenant, i.payload.1))
            } else {
                fifo.pop_front()
            };
            if let Some((arrived, tenant, service)) = item {
                let wait = now - arrived;
                let hist = if tenant == TenantId(2) { &mut noisy } else { &mut victim };
                hist.record((wait * 1e9) as u64);
                if fair {
                    queue.record_consumption(t(now), tenant, service);
                }
                busy_until = now + service;
            }
        }
        // Advance to the next interesting instant.
        let next_time =
            [arrivals.get(next_arrival).map(|a| a.at), (now < busy_until).then_some(busy_until)]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
        if !next_time.is_finite() {
            let empty = if fair { queue.is_empty() } else { fifo.is_empty() };
            if empty && now >= busy_until {
                break;
            }
            now = busy_until;
            continue;
        }
        now = next_time.max(now + 1e-9);
    }
    (noisy, victim)
}

pub fn run() {
    header("Ablation: tenant-fair admission queue vs FIFO (victim wait times)");
    println!(
        "{:>12} {:>16} {:>16} {:>16}",
        "discipline", "victim p50 wait", "victim p99 wait", "noisy p50 wait"
    );
    for (name, fair) in [("tenant-fair", true), ("fifo", false)] {
        let (noisy, victim) = simulate(fair);
        println!(
            "{name:>12} {:>15.3}s {:>15.3}s {:>15.3}s",
            victim.quantile(0.5) as f64 / 1e9,
            victim.quantile(0.99) as f64 / 1e9,
            noisy.quantile(0.5) as f64 / 1e9,
        );
    }
    println!("\nExpected: FIFO makes the victim wait behind the 50-op flood;");
    println!("the fair queue serves it almost immediately after each arrival.");
}
