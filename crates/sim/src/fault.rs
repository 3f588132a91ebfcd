//! Deterministic, seeded fault injection over the virtual clock.
//!
//! FoundationDB-style simulation testing: a [`FaultSchedule`] is a list
//! of timed fault events generated deterministically from a seed, and a
//! [`FaultInjector`] replays it against the running simulation, calling
//! a layer-supplied handler for each event and appending every
//! injection to an append-only text log. Two runs with the same seed
//! produce byte-identical logs — the reproducibility invariant the
//! chaos soak asserts.
//!
//! This module is deliberately layer-agnostic: faults name KV nodes by
//! index and regions by [`RegionId`]; the chaos controller in
//! `crdb-core` translates them into crashes, pool failures and
//! partitions against a live cluster.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use crdb_util::time::SimTime;
use crdb_util::RegionId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::Sim;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Abruptly kill a KV storage node (it stops heartbeating and
    /// refuses requests until restarted).
    KvNodeCrash {
        /// Index of the node within the KV cluster.
        node: usize,
    },
    /// Restart a previously crashed KV node.
    KvNodeRestart {
        /// Index of the node within the KV cluster.
        node: usize,
    },
    /// Abruptly kill one live SQL pod. The victim is chosen by the
    /// handler from the pods alive at injection time, using `pick` as a
    /// deterministic selector (e.g. `pick % live_pods`).
    SqlPodCrash {
        /// Deterministic victim selector.
        pick: u64,
    },
    /// Make the next `count` warm-pool pod starts fail.
    PodStartFailure {
        /// Number of consecutive starts to fail.
        count: u32,
    },
    /// Start a symmetric network partition between two regions.
    PartitionStart {
        /// One side of the partition.
        a: RegionId,
        /// The other side.
        b: RegionId,
    },
    /// Heal the partition between two regions.
    PartitionHeal {
        /// One side of the partition.
        a: RegionId,
        /// The other side.
        b: RegionId,
    },
    /// Begin a latency spike: all network latencies are multiplied by
    /// `factor_pct / 100`.
    LatencySpikeStart {
        /// Multiplier in percent (e.g. 400 = 4×).
        factor_pct: u32,
    },
    /// End the latency spike (factor restored to whatever was active
    /// before the most recent spike started).
    LatencySpikeEnd,
    /// Start an asymmetric partition: traffic `from → to` drops while
    /// `to → from` still flows.
    PartitionOneWayStart {
        /// Region whose outbound traffic toward `to` dies.
        from: RegionId,
        /// Destination region.
        to: RegionId,
    },
    /// Heal the one-way partition `from → to`.
    PartitionOneWayHeal {
        /// Region whose outbound traffic was dropped.
        from: RegionId,
        /// Destination region.
        to: RegionId,
    },
    /// A full zone outage: every KV node, SQL pod, and warm-pool slot in
    /// the zone goes down atomically and the zone's traffic drops.
    ZoneOutage {
        /// The region containing the zone.
        region: RegionId,
        /// The zone index within the region.
        zone: u32,
    },
    /// Recover a zone from an outage.
    ZoneRecover {
        /// The region containing the zone.
        region: RegionId,
        /// The zone index within the region.
        zone: u32,
    },
    /// A full region outage: everything located in the region goes down
    /// atomically — KV nodes, SQL pods, warm-pool capacity — and all of
    /// the region's traffic (including intra-region) drops.
    RegionOutage {
        /// The dark region.
        region: RegionId,
    },
    /// Recover a region from an outage.
    RegionRecover {
        /// The recovering region.
        region: RegionId,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::KvNodeCrash { node } => write!(f, "kv-node-crash node={node}"),
            FaultKind::KvNodeRestart { node } => write!(f, "kv-node-restart node={node}"),
            FaultKind::SqlPodCrash { pick } => write!(f, "sql-pod-crash pick={pick}"),
            FaultKind::PodStartFailure { count } => write!(f, "pod-start-failure count={count}"),
            FaultKind::PartitionStart { a, b } => {
                write!(f, "partition-start regions={}-{}", a.raw(), b.raw())
            }
            FaultKind::PartitionHeal { a, b } => {
                write!(f, "partition-heal regions={}-{}", a.raw(), b.raw())
            }
            FaultKind::LatencySpikeStart { factor_pct } => {
                write!(f, "latency-spike-start factor_pct={factor_pct}")
            }
            FaultKind::LatencySpikeEnd => write!(f, "latency-spike-end"),
            FaultKind::PartitionOneWayStart { from, to } => {
                write!(f, "partition-one-way-start regions={}>{}", from.raw(), to.raw())
            }
            FaultKind::PartitionOneWayHeal { from, to } => {
                write!(f, "partition-one-way-heal regions={}>{}", from.raw(), to.raw())
            }
            FaultKind::ZoneOutage { region, zone } => {
                write!(f, "zone-outage region={} zone={zone}", region.raw())
            }
            FaultKind::ZoneRecover { region, zone } => {
                write!(f, "zone-recover region={} zone={zone}", region.raw())
            }
            FaultKind::RegionOutage { region } => {
                write!(f, "region-outage region={}", region.raw())
            }
            FaultKind::RegionRecover { region } => {
                write!(f, "region-recover region={}", region.raw())
            }
        }
    }
}

/// A fault with its injection time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Knobs controlling random schedule generation — how many of each
/// fault class to draw and how long each disruption lasts.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Faults are injected in `[warmup, warmup + horizon)`.
    pub warmup: Duration,
    /// Length of the injection window.
    pub horizon: Duration,
    /// Number of KV nodes available as crash victims.
    pub kv_nodes: usize,
    /// KV node crash/restart pairs to schedule.
    pub kv_node_crashes: u32,
    /// How long a crashed KV node stays down.
    pub kv_downtime: Duration,
    /// SQL pod crashes to schedule.
    pub sql_pod_crashes: u32,
    /// Pod-start failure bursts to schedule (each fails 1–3 starts).
    pub pod_start_failures: u32,
    /// Regions available for partitions (pairs drawn among them).
    pub regions: u64,
    /// Inter-region partitions to schedule.
    pub partitions: u32,
    /// How long each partition lasts before healing.
    pub partition_duration: Duration,
    /// Latency spikes to schedule.
    pub latency_spikes: u32,
    /// How long each spike lasts.
    pub spike_duration: Duration,
    /// Spike multiplier in percent (e.g. 300 = 3×).
    pub spike_factor_pct: u32,
}

impl FaultPlan {
    /// A small plan suitable for an integration test: a handful of
    /// faults of every class inside a short window.
    pub fn small(kv_nodes: usize, regions: u64) -> FaultPlan {
        FaultPlan {
            warmup: Duration::from_secs(30),
            horizon: Duration::from_secs(240),
            kv_nodes,
            kv_node_crashes: 2,
            kv_downtime: Duration::from_secs(30),
            sql_pod_crashes: 2,
            pod_start_failures: 2,
            regions,
            partitions: if regions > 1 { 1 } else { 0 },
            partition_duration: Duration::from_secs(20),
            latency_spikes: 1,
            spike_duration: Duration::from_secs(15),
            spike_factor_pct: 300,
        }
    }

    /// A soak-scale plan: ≥ 50 faults across every class.
    pub fn soak(kv_nodes: usize, regions: u64) -> FaultPlan {
        FaultPlan {
            warmup: Duration::from_secs(60),
            horizon: Duration::from_secs(1800),
            kv_nodes,
            kv_node_crashes: 10,
            kv_downtime: Duration::from_secs(40),
            sql_pod_crashes: 12,
            pod_start_failures: 8,
            regions,
            partitions: if regions > 1 { 6 } else { 0 },
            partition_duration: Duration::from_secs(25),
            latency_spikes: 6,
            spike_duration: Duration::from_secs(20),
            spike_factor_pct: 400,
        }
    }
}

/// A deterministic, time-ordered list of fault events.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Events sorted by injection time.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generates a schedule from `seed` and a plan. The same seed and
    /// plan always yield the same schedule; the generator uses its own
    /// RNG so the schedule is independent of workload interleavings.
    pub fn generate(seed: u64, plan: &FaultPlan) -> FaultSchedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x00fa_017c_0de0);
        let mut events = Vec::new();
        let start = plan.warmup.as_nanos() as u64;
        let span = plan.horizon.as_nanos() as u64;
        let at = |rng: &mut SmallRng| SimTime::from_nanos(start + rng.gen_range(0..span));

        for _ in 0..plan.kv_node_crashes {
            if plan.kv_nodes == 0 {
                break;
            }
            let node = rng.gen_range(0..plan.kv_nodes);
            let t = at(&mut rng);
            events.push(FaultEvent { at: t, kind: FaultKind::KvNodeCrash { node } });
            events.push(FaultEvent {
                at: t + plan.kv_downtime,
                kind: FaultKind::KvNodeRestart { node },
            });
        }
        for _ in 0..plan.sql_pod_crashes {
            let pick = rng.gen::<u64>();
            events.push(FaultEvent { at: at(&mut rng), kind: FaultKind::SqlPodCrash { pick } });
        }
        for _ in 0..plan.pod_start_failures {
            let count = rng.gen_range(1..=3u32);
            events
                .push(FaultEvent { at: at(&mut rng), kind: FaultKind::PodStartFailure { count } });
        }
        for _ in 0..plan.partitions {
            if plan.regions < 2 {
                break;
            }
            let a = rng.gen_range(0..plan.regions);
            let b = (a + 1 + rng.gen_range(0..plan.regions - 1)) % plan.regions;
            let t = at(&mut rng);
            events.push(FaultEvent {
                at: t,
                kind: FaultKind::PartitionStart { a: RegionId(a), b: RegionId(b) },
            });
            events.push(FaultEvent {
                at: t + plan.partition_duration,
                kind: FaultKind::PartitionHeal { a: RegionId(a), b: RegionId(b) },
            });
        }
        for _ in 0..plan.latency_spikes {
            let t = at(&mut rng);
            events.push(FaultEvent {
                at: t,
                kind: FaultKind::LatencySpikeStart { factor_pct: plan.spike_factor_pct },
            });
            events
                .push(FaultEvent { at: t + plan.spike_duration, kind: FaultKind::LatencySpikeEnd });
        }

        // Stable order: by time, then by a total order on the kind's
        // rendering, so equal-time events replay identically.
        events.sort_by(|x, y| {
            x.at.cmp(&y.at).then_with(|| x.kind.to_string().cmp(&y.kind.to_string()))
        });
        FaultSchedule { events }
    }

    /// Merges two schedules, re-establishing the stable
    /// `(time, rendering)` order so composed disaster scripts replay
    /// deterministically regardless of composition order.
    pub fn merge(mut self, other: FaultSchedule) -> FaultSchedule {
        self.events.extend(other.events);
        self.events.sort_by(|x, y| {
            x.at.cmp(&y.at).then_with(|| x.kind.to_string().cmp(&y.kind.to_string()))
        });
        self
    }

    /// Disaster script: a full region goes dark at `at` and recovers
    /// after `duration`.
    pub fn region_loss(region: RegionId, at: SimTime, duration: Duration) -> FaultSchedule {
        FaultSchedule {
            events: vec![
                FaultEvent { at, kind: FaultKind::RegionOutage { region } },
                FaultEvent { at: at + duration, kind: FaultKind::RegionRecover { region } },
            ],
        }
    }

    /// Disaster script: pod starts begin failing just before a full
    /// region loss, so the outage lands while the warm pool is burning
    /// through cold-start retries — the worst-case §4.3.1 path.
    pub fn region_loss_mid_cold_start(
        region: RegionId,
        at: SimTime,
        duration: Duration,
        failed_starts: u32,
    ) -> FaultSchedule {
        let lead = Duration::from_secs(2);
        let burst_at = SimTime::from_nanos(at.as_nanos().saturating_sub(lead.as_nanos() as u64));
        FaultSchedule {
            events: vec![FaultEvent {
                at: burst_at,
                kind: FaultKind::PodStartFailure { count: failed_starts },
            }],
        }
        .merge(FaultSchedule::region_loss(region, at, duration))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replays a [`FaultSchedule`] against the simulation, invoking a
/// handler per event and keeping a byte-reproducible log.
pub struct FaultInjector {
    sim: Sim,
    log: Rc<RefCell<String>>,
    injected: Cell<usize>,
}

impl FaultInjector {
    /// Creates an injector bound to `sim`.
    pub fn new(sim: &Sim) -> Rc<FaultInjector> {
        Rc::new(FaultInjector {
            sim: sim.clone(),
            log: Rc::new(RefCell::new(String::new())),
            injected: Cell::new(0),
        })
    }

    /// Schedules every event of `schedule`; at each firing the event is
    /// appended to the log and `handler` is called to act on it.
    pub fn install(
        self: &Rc<FaultInjector>,
        schedule: FaultSchedule,
        handler: impl Fn(&FaultKind) + 'static,
    ) {
        let handler = Rc::new(handler);
        for event in schedule.events {
            let this = Rc::clone(self);
            let handler = Rc::clone(&handler);
            self.sim.schedule_at(event.at, move || {
                this.note(&format!("inject {}", event.kind));
                this.injected.set(this.injected.get() + 1);
                handler(&event.kind);
            });
        }
    }

    /// Appends a timestamped line to the event log. Layers use this to
    /// record fault *reactions* (victim chosen, session migrated) so
    /// the determinism check covers responses, not just injections.
    pub fn note(&self, line: &str) {
        let entry = format!("t={} {}\n", self.sim.now().as_nanos(), line);
        self.log.borrow_mut().push_str(&entry);
    }

    /// The append-only event log.
    pub fn log(&self) -> String {
        self.log.borrow().clone()
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_generation_is_deterministic() {
        let plan = FaultPlan::soak(6, 3);
        let a = FaultSchedule::generate(11, &plan);
        let b = FaultSchedule::generate(11, &plan);
        let c = FaultSchedule::generate(12, &plan);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
        assert!(a.len() >= 50, "soak plan yields ≥ 50 events, got {}", a.len());
        // Sorted by time.
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn partitions_never_pair_a_region_with_itself() {
        let plan = FaultPlan { partitions: 200, ..FaultPlan::soak(6, 3) };
        let schedule = FaultSchedule::generate(5, &plan);
        for event in &schedule.events {
            if let FaultKind::PartitionStart { a, b } = event.kind {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn injector_replays_and_logs() {
        let sim = Sim::new(3);
        let plan = FaultPlan::small(3, 1);
        let schedule = FaultSchedule::generate(9, &plan);
        let total = schedule.len();
        let injector = FaultInjector::new(&sim);
        let seen = Rc::new(Cell::new(0usize));
        let s = Rc::clone(&seen);
        injector.install(schedule, move |_| s.set(s.get() + 1));
        sim.run_to_completion();
        assert_eq!(seen.get(), total);
        assert_eq!(injector.injected(), total);
        assert_eq!(injector.log().lines().count(), total);
    }

    #[test]
    fn disaster_scripts_compose_deterministically() {
        let t0 = SimTime::from_nanos(60_000_000_000);
        let outage = FaultSchedule::region_loss(RegionId(1), t0, Duration::from_secs(120));
        let spike = FaultSchedule {
            events: vec![
                FaultEvent { at: t0, kind: FaultKind::LatencySpikeStart { factor_pct: 300 } },
                FaultEvent { at: t0 + Duration::from_secs(30), kind: FaultKind::LatencySpikeEnd },
            ],
        };
        let a = outage.clone().merge(spike.clone());
        let b = spike.merge(outage);
        assert_eq!(a.events, b.events, "merge order must not matter");
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn region_loss_mid_cold_start_orders_burst_before_outage() {
        let t0 = SimTime::from_nanos(10_000_000_000);
        let s =
            FaultSchedule::region_loss_mid_cold_start(RegionId(2), t0, Duration::from_secs(60), 3);
        assert_eq!(s.len(), 3);
        assert!(matches!(s.events[0].kind, FaultKind::PodStartFailure { count: 3 }));
        assert!(s.events[0].at < t0);
        assert!(matches!(s.events[1].kind, FaultKind::RegionOutage { .. }));
        assert!(matches!(s.events[2].kind, FaultKind::RegionRecover { .. }));
    }

    #[test]
    fn new_fault_kinds_render_stably() {
        // The schedule sort key is the Display string — pin the formats.
        assert_eq!(
            FaultKind::ZoneOutage { region: RegionId(1), zone: 2 }.to_string(),
            "zone-outage region=1 zone=2"
        );
        assert_eq!(
            FaultKind::RegionOutage { region: RegionId(0) }.to_string(),
            "region-outage region=0"
        );
        assert_eq!(
            FaultKind::PartitionOneWayStart { from: RegionId(0), to: RegionId(2) }.to_string(),
            "partition-one-way-start regions=0>2"
        );
        assert_eq!(
            FaultKind::RegionRecover { region: RegionId(2) }.to_string(),
            "region-recover region=2"
        );
    }

    #[test]
    fn same_seed_same_log() {
        let run = |seed| {
            let sim = Sim::new(seed);
            let injector = FaultInjector::new(&sim);
            let schedule = FaultSchedule::generate(seed, &FaultPlan::small(3, 3));
            injector.install(schedule, |_| {});
            sim.run_to_completion();
            injector.log()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }
}
