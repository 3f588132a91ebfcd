//! Figure 6 — efficiency and scalability of Serverless vs Traditional
//! deployments (§6.1).
//!
//! The paper runs TPC-C and two TPC-H queries on two 320-core clusters:
//! a traditional one (fused KV+SQL per VM) and a serverless one (separate
//! SQL process per VM). Findings to reproduce:
//!
//! - TPC-C (OLTP): similar CPU usage and latency in both modes — OLTP
//!   queries use the same remote KV APIs either way.
//! - TPC-H Q1 (full scan + aggregation): ≈2.3× more CPU in Serverless,
//!   because every scanned byte is marshalled across the SQL/KV process
//!   boundary.
//! - TPC-H Q9 (join-heavy): similar efficiency — index joins issue remote
//!   point lookups in both modes.

use crate::{dedicated_fixture, header, load, measure, serverless_fixture, Deployment, RunResult};
use crdb_core::ServerlessConfig;
use crdb_kv::cluster::KvClusterConfig;
use crdb_sim::{Sim, Topology};
use crdb_sql::node::SqlNodeConfig;
use crdb_util::time::dur;
use crdb_workload::driver::{Driver, DriverConfig, TxnFactory};
use crdb_workload::{tpcc, tpch};

const MEASURE_SECS: u64 = 120;

fn run_on_serverless(
    factory: TxnFactory,
    setup: (Vec<&str>, Vec<String>),
    workers: usize,
    think: Option<std::time::Duration>,
    seed: u64,
) -> RunResult {
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    config.kv.nodes_per_region = 3;
    config.kv.vcpus_per_node = 8.0;
    // Compare active CPU per transaction: exclude the fixed background
    // burn of resident SQL processes (present in both deployments).
    config.sql.idle_cpu_per_second = 0.0;
    let (cluster, tenant, ex) = serverless_fixture(&sim, config, None);
    load(&sim, &ex, &setup.0, &setup.1);

    let driver = Driver::new(
        &sim,
        ex,
        DriverConfig { workers, think_time: think, max_retries: 20 },
        factory,
    );
    let deployment = Deployment::Serverless(&cluster, tenant);
    measure(&sim, &deployment, &driver, dur::secs(MEASURE_SECS), dur::secs(30))
}

fn run_on_dedicated(
    factory: TxnFactory,
    setup: (Vec<&str>, Vec<String>),
    workers: usize,
    think: Option<std::time::Duration>,
    seed: u64,
) -> RunResult {
    let sim = Sim::new(seed);
    let kv = KvClusterConfig { nodes_per_region: 3, vcpus_per_node: 8.0, ..Default::default() };
    let sql = SqlNodeConfig { idle_cpu_per_second: 0.0, ..Default::default() };
    let (cluster, ex) = dedicated_fixture(&sim, Topology::single_region("us-central1", 3), kv, sql);
    load(&sim, &ex, &setup.0, &setup.1);

    let driver = Driver::new(
        &sim,
        ex,
        DriverConfig { workers, think_time: think, max_retries: 20 },
        factory,
    );
    measure(&sim, &Deployment::Dedicated(&cluster), &driver, dur::secs(MEASURE_SECS), dur::secs(30))
}

fn report(name: &str, serverless: &RunResult, traditional: &RunResult) {
    // CPU normalized per committed transaction to compare equal work.
    let s_cpu = serverless.cpu_seconds / serverless.committed.max(1) as f64;
    let t_cpu = traditional.cpu_seconds / traditional.committed.max(1) as f64;
    println!(
        "{name:>8} | cpu/txn: serverless {s_cpu:>9.6}s  traditional {t_cpu:>9.6}s  ratio {:>5.2}x",
        s_cpu / t_cpu
    );
    println!(
        "{:>8} | p50: {:>7.4}s vs {:>7.4}s   p99: {:>7.4}s vs {:>7.4}s   txns: {} vs {}",
        "",
        serverless.p50,
        traditional.p50,
        serverless.p99,
        traditional.p99,
        serverless.committed,
        traditional.committed,
    );
}

pub fn run() {
    header("Figure 6: CPU and latency, Serverless vs Traditional (3 VMs x 8 vCPU)");

    // TPC-C: stock configuration with think time.
    let cfg = tpcc::TpccConfig { warehouses: 4, ..Default::default() };
    let setup = || (tpcc::schema(), tpcc::load_statements(&cfg));
    let s =
        run_on_serverless(tpcc::mix_factory(cfg.clone(), 61), setup(), 20, Some(dur::ms(100)), 601);
    let t =
        run_on_dedicated(tpcc::mix_factory(cfg.clone(), 61), setup(), 20, Some(dur::ms(100)), 602);
    report("TPC-C", &s, &t);
    println!("          (paper: similar CPU usage and latency in both modes)\n");

    // TPC-H Q1: full scan + aggregation.
    let hcfg = tpch::TpchConfig { lineitems: 3000, parts: 60, orders: 400 };
    let hsetup = || (tpch::schema(), tpch::load_statements(&hcfg));
    let s = run_on_serverless(tpch::q1_factory(), hsetup(), 2, Some(dur::ms(200)), 603);
    let t = run_on_dedicated(tpch::q1_factory(), hsetup(), 2, Some(dur::ms(200)), 604);
    report("TPC-H Q1", &s, &t);
    println!("          (paper: Q1 needs ~2.3x more CPU in Serverless)\n");

    // TPC-H Q9: join-heavy, point-lookup dominated.
    let s = run_on_serverless(tpch::q9_factory(), hsetup(), 2, Some(dur::ms(200)), 605);
    let t = run_on_dedicated(tpch::q9_factory(), hsetup(), 2, Some(dur::ms(200)), 606);
    report("TPC-H Q9", &s, &t);
    println!("          (paper: Q9 has similar efficiency in both modes)");
}
