//! The chaos-soak harness: TPC-C-lite under a deterministic fault
//! schedule, with end-of-run invariant checks.
//!
//! Used by the `chaos_soak` binary (soak-scale plan, CLI seed) and the
//! end-to-end integration test (small plan). One run builds a
//! multi-region serverless deployment, loads two tenants with
//! TPC-C-lite, installs a seeded [`FaultSchedule`] through the chaos
//! controller, drives the workload across the fault window, heals
//! everything, and then checks:
//!
//! 1. **Durability** — every acknowledged New-Order commit is readable:
//!    `COUNT(*) FROM orders ≥ initial + committed` per tenant (`≥`
//!    because a commit whose acknowledgment was lost may be retried and
//!    land twice; losing an *acked* commit is the violation).
//! 2. **Isolation** — each tenant's `secrets` table contains exactly its
//!    own marker row, never the other tenant's.
//! 3. **Continuity** — the same client connections that lived through
//!    the faults still execute (sessions were revived/migrated, not
//!    torn down); if any SQL pod with sessions was crashed, at least one
//!    migration happened.
//!
//! Reproducibility — same seed, byte-identical injector log — is
//! asserted by the callers, which run the harness twice.

use std::time::Duration;

use crate::soak::{check_invariants, watch_replicas, TenantRun};
use crdb_core::chaos::install_chaos;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::fault::{FaultPlan, FaultSchedule};
use crdb_sim::{Sim, Topology};
use crdb_util::RegionId;

/// Harness knobs beyond the fault plan itself.
pub struct ChaosOptions {
    /// RNG seed: drives the simulation, the workload, and the schedule.
    pub seed: u64,
    /// What to inject, and when.
    pub plan: FaultPlan,
    /// Closed-loop workers per tenant.
    pub workers: usize,
    /// Worker think time.
    pub think_time: Duration,
    /// Settle time after the fault window before invariants are checked.
    pub cooldown: Duration,
}

/// What one chaos run produced.
pub struct ChaosReport {
    /// The injector's append-only event log (injections + reactions).
    pub log: String,
    /// Faults injected.
    pub faults_injected: usize,
    /// Committed transactions across both tenants.
    pub committed: u64,
    /// Aborted transactions across both tenants.
    pub aborted: u64,
    /// Retry attempts across both tenants.
    pub retries: u64,
    /// Proxy session migrations (drain + revival).
    pub migrations: u64,
    /// Messages dropped by partitions.
    pub dropped_messages: u64,
    /// Invariant violations; empty means the run was clean.
    pub violations: Vec<String>,
    /// End-of-run metrics snapshot (JSON). Same seed ⇒
    /// byte-identical; asserted by the callers alongside the injector log.
    pub metrics_snapshot: String,
}

/// Runs one seeded chaos soak and returns its report.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let sim = Sim::new(opts.seed);
    let mut config = ServerlessConfig::default();
    if opts.plan.regions > 1 {
        config.topology = Topology::three_region();
    }
    let cluster = ServerlessCluster::new(&sim, config);
    let replicas = watch_replicas(&sim, &cluster);

    // Two tenants: the workload itself, and the cross-tenant witness.
    let runs: Vec<TenantRun> = ["alpha", "beta"]
        .into_iter()
        .enumerate()
        .map(|(i, tag)| {
            TenantRun::load(
                &sim,
                &cluster,
                tag,
                vec![RegionId(0)],
                opts.workers,
                opts.think_time,
                opts.seed.wrapping_add(100 * (i as u64 + 1)),
            )
        })
        .collect();

    // Schedule faults relative to *now* so setup time never eats into
    // the warmup, then install the controller.
    let mut schedule = FaultSchedule::generate(opts.seed, &opts.plan);
    let base = sim.now();
    for event in &mut schedule.events {
        event.at = base + Duration::from_nanos(event.at.as_nanos());
    }
    let injector = install_chaos(&cluster, schedule);

    // Drive the workload across the entire fault window.
    let end = base + opts.plan.warmup + opts.plan.horizon;
    for run in &runs {
        run.driver.run_until(end);
    }
    sim.run_until(end);

    // Heal everything that is still broken (paired heal/restart events
    // usually have already), then let the system settle.
    let topology = cluster.config().topology.clone();
    topology.heal_all();
    topology.set_latency_factor_pct(100);
    for id in cluster.kv.node_ids() {
        cluster.kv.set_node_alive(id, true);
    }
    sim.run_for(opts.cooldown);

    // Invariant checks — through the same connections that lived
    // through the chaos.
    let mut violations = Vec::new();
    check_invariants(&sim, &cluster, &runs, &replicas, &mut violations);
    let migrations = cluster.proxy.migrations.get();
    let log = injector.log();
    if log.contains("sessions lost)") && !log.contains("(0 sessions lost)") && migrations == 0 {
        violations.push("sql pods with sessions crashed but no session was migrated".to_string());
    }

    ChaosReport {
        log,
        faults_injected: injector.injected(),
        committed: runs.iter().map(|r| *r.driver.stats.committed.borrow()).sum(),
        aborted: runs.iter().map(|r| *r.driver.stats.aborted.borrow()).sum(),
        retries: runs.iter().map(|r| *r.driver.stats.retries.borrow()).sum(),
        migrations,
        dropped_messages: topology.dropped_messages(),
        violations,
        metrics_snapshot: cluster.metrics_snapshot_json(),
    }
}
