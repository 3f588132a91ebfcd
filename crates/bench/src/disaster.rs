//! The disaster-soak harness: TPC-C-lite across three regions under a
//! *scripted* region-scale disaster, with blast-radius invariants.
//!
//! Where the chaos soak (`chaos.rs`) sprays randomly drawn faults, this
//! harness replays a composed disaster script — a full region outage
//! landing mid cold-start burst, with a latency spike overlapping the
//! outage window — against three tenants homed one per region, and
//! checks the *degradation contract*:
//!
//! 1. **Durability** — every acknowledged New-Order commit is readable
//!    afterwards, including for the tenant homed in the dead region
//!    (its ranges are region-spread, so quorum survives).
//! 2. **Isolation** — each tenant reads exactly its own `secrets`
//!    marker row, never another tenant's, throughout the disaster.
//! 3. **Blast radius** — tenants homed in the two healthy regions keep
//!    their client-observed per-statement p99 under the statement
//!    deadline; the dead region must not consume their capacity.
//! 4. **Graceful degradation** — the victim tenant's failures are
//!    bounded (propagated deadlines) and visible (degradation
//!    counters: burned warm slots, fast-fails, sheds) rather than
//!    silent hangs.
//! 5. **Recovery** — after the region returns and the system settles,
//!    the victim tenant serves statements again.
//!
//! Reproducibility — same seed, byte-identical injector log and
//! metrics snapshot — is asserted by the callers, which run twice.

use std::time::Duration;

use crate::soak::{check_invariants, watch_replicas, TenantRun};
use crdb_core::chaos::install_chaos;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use crdb_sim::{Sim, Topology};
use crdb_util::time::dur;
use crdb_util::RegionId;

/// Harness knobs.
pub struct DisasterOptions {
    /// RNG seed: drives the simulation and the workloads.
    pub seed: u64,
    /// Closed-loop workers per tenant.
    pub workers: usize,
    /// Worker think time.
    pub think_time: Duration,
    /// Quiet running time before the region dies.
    pub warmup: Duration,
    /// How long the region stays dark.
    pub outage: Duration,
    /// Running time after recovery before invariants are checked.
    pub cooldown: Duration,
    /// Per-statement deadline stamped at the proxy.
    pub statement_deadline: Duration,
}

impl DisasterOptions {
    /// The standard soak: 30s warmup, 60s regional outage with an
    /// overlapping 3× latency spike, 90s to recover.
    pub fn soak(seed: u64) -> DisasterOptions {
        DisasterOptions {
            seed,
            workers: 3,
            think_time: dur::ms(200),
            warmup: dur::secs(30),
            outage: dur::secs(60),
            cooldown: dur::secs(90),
            statement_deadline: dur::secs(2),
        }
    }
}

/// What one disaster run produced.
pub struct DisasterReport {
    /// The injector's append-only event log (injections + reactions).
    pub log: String,
    /// Faults injected.
    pub faults_injected: usize,
    /// Committed transactions across all tenants.
    pub committed: u64,
    /// Aborted transactions across all tenants.
    pub aborted: u64,
    /// Warm-pool slots burned by the dark region.
    pub slots_lost: u64,
    /// Proxy statements shed by open per-tenant breakers.
    pub shed_statements: u64,
    /// KV-client fast-fails from open per-node breakers.
    pub breaker_fast_fails: u64,
    /// KV-client fast-fails against targets across a known partition.
    pub partition_fast_fails: u64,
    /// KV batches terminated by a propagated deadline.
    pub deadline_exceeded: u64,
    /// Healthy-region per-statement p99s (tenant tag → p99).
    pub healthy_p99: Vec<(&'static str, Duration)>,
    /// Invariant violations; empty means the run was clean.
    pub violations: Vec<String>,
    /// End-of-run metrics snapshot (JSON).
    pub metrics_snapshot: String,
}

/// The region the script kills.
const VICTIM_REGION: RegionId = RegionId(1);

/// Runs one scripted disaster and returns its report.
pub fn run_disaster(opts: &DisasterOptions) -> DisasterReport {
    let sim = Sim::new(opts.seed);
    let mut config =
        ServerlessConfig { topology: Topology::three_region(), ..ServerlessConfig::default() };
    config.proxy.statement_deadline = Some(opts.statement_deadline);
    let cluster = ServerlessCluster::new(&sim, config);
    let replicas = watch_replicas(&sim, &cluster);

    // Three tenants, homed one per region. The victim spans all three
    // regions so the chaos controller can re-home it; the healthy two
    // are the blast-radius witnesses.
    let homes: [(&'static str, Vec<RegionId>); 3] = [
        ("east", vec![RegionId(0)]),
        ("victim", vec![RegionId(1), RegionId(0), RegionId(2)]),
        ("west", vec![RegionId(2)]),
    ];
    let runs: Vec<TenantRun> = homes
        .into_iter()
        .enumerate()
        .map(|(i, (tag, regions))| {
            TenantRun::load(
                &sim,
                &cluster,
                tag,
                regions,
                opts.workers,
                opts.think_time,
                opts.seed.wrapping_add(100 * (i as u64 + 1)),
            )
        })
        .collect();

    // The script, anchored at *now* so setup time never eats the warmup:
    // pod starts begin failing 2s before the region dies, and a 3× spike
    // straddles the middle of the outage.
    let base = sim.now();
    let outage_at = base + opts.warmup;
    let spike_at = outage_at + opts.outage / 4;
    let spike_len = opts.outage / 2;
    let schedule = FaultSchedule::region_loss_mid_cold_start(
        VICTIM_REGION,
        outage_at,
        opts.outage,
        3,
    )
    .merge(FaultSchedule {
        events: vec![
            FaultEvent { at: spike_at, kind: FaultKind::LatencySpikeStart { factor_pct: 300 } },
            FaultEvent { at: spike_at + spike_len, kind: FaultKind::LatencySpikeEnd },
        ],
    });
    let injector = install_chaos(&cluster, schedule);

    // Drive the workload across the disaster and the recovery.
    let end = outage_at + opts.outage + opts.cooldown;
    for run in &runs {
        run.driver.run_until(end);
    }
    sim.run_until(end);
    // Quiet settle: in-flight transactions at the cutoff resolve their
    // intents and displaced leases come home, so the audit below reads a
    // stable cluster rather than racing the tail of the workload.
    sim.run_for(dur::secs(30));
    // The audit queries are offline full-table scans, not client
    // traffic: run them unbounded. (The victim's scan legitimately
    // crosses regions after re-homing, which a client-sized deadline
    // would cut short.)
    cluster.proxy.set_statement_deadline(None);

    // Invariant checks — through the same executors that lived through
    // the disaster (recovery is proven by these statements completing).
    let mut violations = Vec::new();
    let mut healthy_p99 = Vec::new();
    check_invariants(&sim, &cluster, &runs, &replicas, &mut violations);
    for run in &runs {
        if run.home != Some(VICTIM_REGION) {
            match cluster.proxy.tenant_statement_p99(run.tenant) {
                Some(p99) => {
                    if p99 >= opts.statement_deadline {
                        violations.push(format!(
                            "tenant {}: healthy-region p99 {:?} reached the statement deadline \
                             {:?} — the dead region bled into its blast radius",
                            run.tag, p99, opts.statement_deadline
                        ));
                    }
                    healthy_p99.push((run.tag, p99));
                }
                None => violations.push(format!(
                    "tenant {}: no statement latency recorded for a healthy tenant",
                    run.tag
                )),
            }
        }
    }

    // Degradation must be *visible*: the outage burned the dark region's
    // warm slots, and at least one bounded-failure mechanism (deadline,
    // breaker or partition fast-fail, proxy shed) actually fired.
    let degrade = cluster.kv.degrade();
    let slots_lost = cluster.pool.slots_lost.get();
    let shed = cluster.proxy.shed_statements.get();
    if slots_lost == 0 {
        violations.push("region outage burned no warm-pool slots".to_string());
    }
    let bounded_failures = degrade.deadline_exceeded.get()
        + degrade.breaker_fast_fails.get()
        + degrade.partition_fast_fails.get()
        + shed;
    if bounded_failures == 0 {
        violations.push(
            "no bounded-failure mechanism fired during a full region outage: failures were \
             either absent or unbounded"
                .to_string(),
        );
    }

    DisasterReport {
        log: injector.log(),
        faults_injected: injector.injected(),
        committed: runs.iter().map(|r| *r.driver.stats.committed.borrow()).sum(),
        aborted: runs.iter().map(|r| *r.driver.stats.aborted.borrow()).sum(),
        slots_lost,
        shed_statements: shed,
        breaker_fast_fails: degrade.breaker_fast_fails.get(),
        partition_fast_fails: degrade.partition_fast_fails.get(),
        deadline_exceeded: degrade.deadline_exceeded.get(),
        healthy_p99,
        violations,
        metrics_snapshot: cluster.metrics_snapshot_json(),
    }
}
