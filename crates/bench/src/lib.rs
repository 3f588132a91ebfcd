//! Shared harness for the experiments and soaks.
//!
//! One module per paper table/figure under [`exp`], all behind the `exp`
//! binary (see DESIGN.md §4 and EXPERIMENTS.md). Experiments run at
//! *scaled cost* (`CostModel::scaled`) so saturation dynamics appear at
//! simulation-friendly request rates; all comparisons in the paper are
//! ratios and shapes, which scaling preserves.

#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod chaos;
pub mod disaster;
pub mod exp;
pub mod scale;
mod soak;

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::{DedicatedCluster, ServerlessCluster, ServerlessConfig};
use crdb_kv::cluster::KvClusterConfig;
use crdb_sim::{Sim, Topology};
use crdb_sql::node::SqlNodeConfig;
use crdb_util::time::dur;
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::{Driver, SqlExecutor};
use crdb_workload::executors::{run_setup, DedicatedExecutor, ServerlessExecutor};

/// Prints an experiment header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Builds a serverless cluster + executor for one tenant.
pub fn serverless_fixture(
    sim: &Sim,
    config: ServerlessConfig,
    quota_vcpus: Option<f64>,
) -> (Rc<ServerlessCluster>, TenantId, Rc<dyn SqlExecutor>) {
    let cluster = ServerlessCluster::new(sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], quota_vcpus);
    let ex = ServerlessExecutor::new(Rc::clone(&cluster), tenant);
    (cluster, tenant, ex)
}

/// Builds a dedicated cluster + executor.
pub fn dedicated_fixture(
    sim: &Sim,
    topology: Topology,
    kv: KvClusterConfig,
    sql: SqlNodeConfig,
) -> (Rc<DedicatedCluster>, Rc<dyn SqlExecutor>) {
    let cluster = DedicatedCluster::new(sim, topology, kv, sql);
    let ex = DedicatedExecutor::new(Rc::clone(&cluster));
    (cluster, ex)
}

/// Loads a schema + data through an executor, then ANALYZEs every table so
/// the cost-based planner runs from fresh statistics.
pub fn load(sim: &Sim, ex: &Rc<dyn SqlExecutor>, schema: &[&str], data: &[String]) {
    let mut stmts: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
    stmts.extend(data.iter().cloned());
    stmts.extend(crdb_workload::analyze_statements(schema));
    run_setup(sim, ex, &stmts);
}

/// The deployment a run is measured on: which CPU counter is its cost.
pub enum Deployment<'a> {
    /// Shared KV nodes plus the tenant's own SQL nodes.
    Serverless(&'a ServerlessCluster, TenantId),
    /// Fused KV+SQL VMs.
    Dedicated(&'a DedicatedCluster),
}

impl Deployment<'_> {
    /// Cumulative CPU-seconds the deployment has burned so far.
    fn cpu_seconds(&self) -> f64 {
        match self {
            Deployment::Serverless(cluster, tenant) => {
                kv_cpu_total(cluster) + sql_cpu_total(cluster, *tenant)
            }
            Deployment::Dedicated(cluster) => cluster.total_cpu_seconds(),
        }
    }
}

/// What one measured window produced.
pub struct RunResult {
    /// CPU-seconds burned across the window and its drain.
    pub cpu_seconds: f64,
    /// Median transaction latency, seconds.
    pub p50: f64,
    /// 99th-percentile transaction latency, seconds.
    pub p99: f64,
    /// Committed transactions.
    pub committed: u64,
}

/// Runs `driver` for `window`, lets in-flight work finish for `drain`, and
/// reports the deployment's CPU delta with the driver's latency and commits.
pub fn measure(
    sim: &Sim,
    deployment: &Deployment,
    driver: &Rc<Driver>,
    window: Duration,
    drain: Duration,
) -> RunResult {
    let cpu0 = deployment.cpu_seconds();
    let end = sim.now() + window;
    driver.run_until(end);
    sim.run_until(end + drain);
    let (p50, p99) = driver.stats.latency_quantiles();
    RunResult {
        cpu_seconds: deployment.cpu_seconds() - cpu0,
        p50,
        p99,
        committed: *driver.stats.committed.borrow(),
    }
}

/// Total KV CPU-seconds consumed across a serverless cluster's KV nodes.
pub fn kv_cpu_total(cluster: &ServerlessCluster) -> f64 {
    cluster
        .kv
        .node_ids()
        .into_iter()
        .filter_map(|id| cluster.kv.node(id))
        .map(|n| n.cpu.cumulative_usage_total())
        .sum()
}

/// Total SQL CPU-seconds across a tenant's SQL nodes (ready + draining).
pub fn sql_cpu_total(cluster: &ServerlessCluster, tenant: TenantId) -> f64 {
    cluster
        .registry
        .with_tenant(tenant, |e| e.pods().map(|n| n.sql_cpu_seconds()).sum())
        .unwrap_or(0.0)
}

/// Runs one statement to completion, driving the sim for up to 300
/// virtual seconds; an error names the statement.
pub fn exec_one(
    sim: &Sim,
    ex: &Rc<dyn SqlExecutor>,
    sql: &str,
    params: Vec<crdb_sql::value::Datum>,
) -> Result<crdb_sql::exec::QueryOutput, String> {
    let done = Rc::new(RefCell::new(None));
    let d = Rc::clone(&done);
    ex.exec(0, sql.to_string(), params, Box::new(move |r| *d.borrow_mut() = Some(r)));
    for _ in 0..300 {
        if done.borrow().is_some() {
            break;
        }
        sim.run_for(dur::secs(1));
    }
    let r = done.borrow_mut().take();
    match r {
        Some(r) => r.map_err(|e| format!("{sql}: {e}")),
        None => Err(format!("{sql}: no reply within 300 s")),
    }
}
