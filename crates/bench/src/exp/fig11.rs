//! Figure 11 — estimated-CPU model accuracy (§6.7).
//!
//! "To evaluate the estimated CPU model's accuracy, we run 23 varied test
//! workloads against Serverless and Dedicated clusters … We compare the
//! estimated CPU usage reported by the Serverless cluster with the actual
//! CPU usage reported by the Dedicated cluster. About 80% of the tests
//! report estimated CPU usage within 20% of actual CPU usage. The largest
//! outlier involves an analytical query that performs a full table scan."
//!
//! Each workload runs on both deployments for the same duration; the
//! serverless run reports `estimated_cpu = actual_sql_cpu +
//! estimated_kv_cpu` (the §5.2.1 model over observed KV traffic), the
//! dedicated run reports measured CPU. Both are normalized per committed
//! transaction. None of these workloads is used to fit the model.

use std::rc::Rc;
use std::time::Duration;

use crate::{dedicated_fixture, header, load, measure, serverless_fixture, Deployment};
use crdb_core::ServerlessConfig;
use crdb_kv::cluster::KvClusterConfig;
use crdb_sim::{Sim, Topology};
use crdb_sql::node::SqlNodeConfig;
use crdb_util::time::dur;
use crdb_workload::driver::{Driver, DriverConfig, TxnFactory};
use crdb_workload::{tpcc, tpch, ycsb};

struct Workload {
    name: String,
    schema: Vec<&'static str>,
    data: Vec<String>,
    factory: TxnFactory,
    workers: usize,
    think: Option<Duration>,
}

fn ycsb_wl(
    name: &str,
    records: u64,
    read: f64,
    skew: f64,
    field: usize,
    workers: usize,
) -> Workload {
    let cfg = ycsb::YcsbConfig { records, read_fraction: read, skew, field_len: field };
    Workload {
        name: name.to_string(),
        schema: ycsb::schema(),
        data: ycsb::load_statements(&cfg),
        factory: ycsb::factory(cfg, 11),
        workers,
        think: Some(dur::ms(30)),
    }
}

fn tpcc_wl(name: &str, warehouses: u64, workers: usize, think_ms: u64) -> Workload {
    let cfg = tpcc::TpccConfig { warehouses, ..Default::default() };
    Workload {
        name: name.to_string(),
        schema: tpcc::schema(),
        data: tpcc::load_statements(&cfg),
        factory: tpcc::mix_factory(cfg, 12),
        workers,
        think: Some(dur::ms(think_ms)),
    }
}

fn workloads() -> Vec<Workload> {
    let mut w = Vec::new();
    // YCSB grid: read fraction x skew x payload.
    for (i, &(read, skew, field)) in [
        (1.0, 0.0, 100),
        (1.0, 0.99, 100),
        (0.95, 0.6, 100),
        (0.95, 0.99, 400),
        (0.5, 0.0, 100),
        (0.5, 0.99, 100),
        (0.5, 0.6, 800),
        (0.25, 0.6, 100),
        (0.25, 0.99, 400),
        (0.05, 0.0, 100),
        (0.05, 0.6, 800),
        (0.0, 0.0, 200),
    ]
    .iter()
    .enumerate()
    {
        w.push(ycsb_wl(&format!("ycsb-{:02}", i + 1), 400, read, skew, field, 6));
    }
    // TPC-C variants.
    w.push(tpcc_wl("tpcc-small", 2, 8, 100));
    w.push(tpcc_wl("tpcc-wide", 6, 8, 100));
    w.push(tpcc_wl("tpcc-hot", 2, 16, 30));
    w.push(tpcc_wl("tpcc-slow", 4, 4, 300));
    // TPC-H analytics (the paper's outlier class).
    let hcfg = tpch::TpchConfig { lineitems: 2000, parts: 50, orders: 300 };
    w.push(Workload {
        name: "tpch-q1".into(),
        schema: tpch::schema(),
        data: tpch::load_statements(&hcfg),
        factory: tpch::q1_factory(),
        workers: 2,
        think: Some(dur::ms(250)),
    });
    w.push(Workload {
        name: "tpch-q9".into(),
        schema: tpch::schema(),
        data: tpch::load_statements(&hcfg),
        factory: tpch::q9_factory(),
        workers: 2,
        think: Some(dur::ms(250)),
    });
    w.push(Workload {
        name: "tpch-mixed".into(),
        schema: tpch::schema(),
        data: tpch::load_statements(&hcfg),
        factory: tpch::mixed_factory(),
        workers: 2,
        think: Some(dur::ms(250)),
    });
    // Imports: insert-heavy streams.
    for (i, field) in [100usize, 1000].into_iter().enumerate() {
        let cfg =
            ycsb::YcsbConfig { records: 200, read_fraction: 0.0, skew: 0.0, field_len: field };
        w.push(Workload {
            name: format!("import-{}", i + 1),
            schema: ycsb::schema(),
            data: ycsb::load_statements(&cfg),
            factory: ycsb::factory(cfg, 13),
            workers: 8,
            think: Some(dur::ms(10)),
        });
    }
    // Scan-heavy reporting workloads.
    for (i, &(workers, think)) in [(1usize, 400u64), (3, 150)].iter().enumerate() {
        let cfg = tpcc::TpccConfig { warehouses: 3, ..Default::default() };
        w.push(Workload {
            name: format!("report-{}", i + 1),
            schema: tpcc::schema(),
            data: tpcc::load_statements(&cfg),
            factory: {
                let cfg2 = cfg.clone();
                let counter = std::cell::Cell::new(0u64);
                Rc::new(move |_worker| {
                    use rand::SeedableRng;
                    let n = counter.get();
                    counter.set(n + 1);
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(900 + n);
                    ("stock_level".to_string(), tpcc::stock_level(&cfg2, &mut rng))
                })
            },
            workers,
            think: Some(dur::ms(think)),
        });
    }
    w
}

const WINDOW: Duration = Duration::from_secs(90);
const DRAIN: Duration = Duration::from_secs(10);

pub fn run() {
    header("Figure 11: estimated Serverless CPU vs actual Dedicated CPU (23 workloads)");
    println!(
        "{:>12} {:>14} {:>14} {:>9} {:>8}",
        "workload", "estimated/txn", "actual/txn", "ratio", "<=20%?"
    );

    let all = workloads();
    assert_eq!(all.len(), 23, "the paper runs 23 workloads");
    let mut within = 0;
    let mut results = Vec::new();
    for (i, wl) in all.into_iter().enumerate() {
        // Serverless run: estimated CPU from the accounting loop.
        let sim = Sim::new(11_000 + i as u64);
        let mut config = ServerlessConfig::default();
        config.sql.idle_cpu_per_second = 0.0;
        let (cluster, tenant, ex) = serverless_fixture(&sim, config, None);
        load(&sim, &ex, &wl.schema, &wl.data);
        let e0 = cluster.tenant_ecpu_seconds(tenant);
        let driver = Driver::new(
            &sim,
            ex,
            DriverConfig { workers: wl.workers, think_time: wl.think, max_retries: 20 },
            Rc::clone(&wl.factory),
        );
        let deployment = Deployment::Serverless(&cluster, tenant);
        let est_txns = measure(&sim, &deployment, &driver, WINDOW, DRAIN).committed;
        let est_total = cluster.tenant_ecpu_seconds(tenant) - e0;

        // Dedicated run: measured CPU.
        let sim = Sim::new(21_000 + i as u64);
        let kv = KvClusterConfig::default();
        let sql = SqlNodeConfig { idle_cpu_per_second: 0.0, ..Default::default() };
        let (dcluster, dex) =
            dedicated_fixture(&sim, Topology::single_region("us-central1", 3), kv, sql);
        load(&sim, &dex, &wl.schema, &wl.data);
        let ddriver = Driver::new(
            &sim,
            dex,
            DriverConfig { workers: wl.workers, think_time: wl.think, max_retries: 20 },
            wl.factory,
        );
        let actual = measure(&sim, &Deployment::Dedicated(&dcluster), &ddriver, WINDOW, DRAIN);

        let est = est_total / est_txns.max(1) as f64;
        let act = actual.cpu_seconds / actual.committed.max(1) as f64;
        let ratio = est / act;
        let ok = (ratio - 1.0).abs() <= 0.2;
        if ok {
            within += 1;
        }
        println!(
            "{:>12} {est:>13.6}s {act:>13.6}s {ratio:>9.2} {:>8}",
            wl.name,
            if ok { "yes" } else { "NO" }
        );
        results.push((wl.name, ratio));
    }
    println!("\n{within}/23 within 20% ({:.0}%) — paper: about 80%", within as f64 / 23.0 * 100.0);
    let worst = results.iter().max_by(|a, b| (a.1 - 1.0).abs().total_cmp(&(b.1 - 1.0).abs()));
    if let Some((name, ratio)) = worst {
        println!(
            "largest outlier: {name} at {ratio:.2}x (paper: a full-scan analytical query over-reports)"
        );
    }
}
