//! Figure 10 — cold-start latency.
//!
//! (a) Production prober: time to open a connection and read a row from a
//!     *suspended* cluster, with the unoptimized flow (container
//!     pre-warmed, process started after tenant assignment, TCP-reset
//!     retries) versus the optimized flow (process pre-started, file-watch
//!     certificate pickup). Paper: pre-warming cuts p50/p99 by more than
//!     half; p99 ≈ 650 ms.
//!
//! (b) Multi-region: probers in each of asia-southeast1 / europe-west1 /
//!     us-central1 against tenants whose system database is multi-region
//!     aware (global + regional-by-row tables) versus pinned to
//!     asia-southeast1. Paper: optimized p50 ≤ 0.73 s in every region.
//!
//! Self-gating (the process exits 1 unless all hold): with `system.sql_instances`
//! regional by row for real, an optimized multi-region cold start costs
//! what a single-region one does, so every optimized p50 of (b) is
//! within 5 % of (a)'s optimized p50; the worst of them is ≤ 0.73 s; and
//! outside asia the unoptimized p50 is at least twice the optimized one.

use std::cell::RefCell;
use std::rc::Rc;

use crate::header;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::{Location, Sim, Topology};
use crdb_util::time::dur;
use crdb_util::Histogram;
use crdb_util::RegionId;

/// One cold-start probe: connect to a suspended tenant, run `SELECT 1`,
/// measure end-to-end; then force the tenant back to suspended.
fn probe_once(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    tenant: crdb_util::TenantId,
    hist: &Rc<RefCell<Histogram>>,
) {
    assert!(cluster.is_suspended(tenant), "probe requires a suspended tenant");
    let start = sim.now();
    let done = Rc::new(RefCell::new(false));
    {
        let cluster2 = Rc::clone(cluster);
        let d = Rc::clone(&done);
        let hist = Rc::clone(hist);
        let sim2 = sim.clone();
        cluster.connect(tenant, "9.9.9.9", "prober", move |r| {
            // A failed connect or query leaves `done` unset: the probe's
            // assertion below reports it.
            let Ok(conn) = r else { return };
            let cluster3 = Rc::clone(&cluster2);
            let conn2 = Rc::clone(&conn);
            cluster2.execute(&conn, "SELECT 1", vec![], move |r| {
                if r.is_err() {
                    return;
                }
                hist.borrow_mut().record_duration(sim2.now().duration_since(start));
                cluster3.close(&conn2);
                *d.borrow_mut() = true;
            });
        });
    }
    sim.run_for(dur::secs(120));
    assert!(*done.borrow(), "probe completed");
    // Wait out the suspension window before the next probe.
    sim.run_for(dur::secs(400));
}

fn run_panel_a(prewarm: bool, probes: usize) -> (f64, f64) {
    let sim = Sim::new(0xF16A + prewarm as u64);
    let mut config = ServerlessConfig { prewarm_process: prewarm, ..ServerlessConfig::default() };
    config.autoscaler.suspend_after = dur::secs(60);
    let cluster = ServerlessCluster::new(&sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let hist = Rc::new(RefCell::new(Histogram::new()));
    for _ in 0..probes {
        probe_once(&sim, &cluster, tenant, &hist);
    }
    let h = hist.borrow();
    (h.quantile(0.5) as f64 / 1e9, h.quantile(0.99) as f64 / 1e9)
}

fn run_panel_b(optimized: bool, probes: usize) -> Vec<(String, f64, f64)> {
    let sim = Sim::new(0xF16B + optimized as u64);
    let topology = Topology::three_region();
    let region_names: Vec<String> =
        topology.regions().map(|r| topology.region_name(r).to_string()).collect();
    let mut config = ServerlessConfig {
        topology,
        multi_region_optimized: optimized,
        ..ServerlessConfig::default()
    };
    config.autoscaler.suspend_after = dur::secs(60);
    let cluster = ServerlessCluster::new(&sim, config);

    let mut out = Vec::new();
    for (i, name) in region_names.iter().enumerate() {
        // One tenant per probed region; unoptimized tenants have their
        // system database home pinned to asia-southeast1 (region 2), as in
        // the paper's experiment. The tenant's *first* region sets the
        // home, so unoptimized tenants are created with asia first.
        let regions = if optimized {
            vec![RegionId(i as u64), RegionId(0), RegionId(1), RegionId(2)]
        } else {
            vec![RegionId(2), RegionId(0), RegionId(1)]
        };
        let tenant = cluster.create_tenant(regions, None);
        // The prober (and its SQL pod) lives in region i.
        cluster.set_preferred_location(tenant, Location::new(RegionId(i as u64), 0));
        let hist = Rc::new(RefCell::new(Histogram::new()));
        for _ in 0..probes {
            probe_once(&sim, &cluster, tenant, &hist);
        }
        let h = hist.borrow();
        out.push((name.clone(), h.quantile(0.5) as f64 / 1e9, h.quantile(0.99) as f64 / 1e9));
    }
    out
}

pub fn run() {
    let probes = 200;

    header("Figure 10a: cold start latency, unoptimized vs pre-warmed SQL process");
    let (u50, u99) = run_panel_a(false, probes);
    let (o50, o99) = run_panel_a(true, probes);
    println!("{:>14} {:>10} {:>10}", "flow", "p50", "p99");
    println!("{:>14} {:>9.3}s {:>9.3}s", "unoptimized", u50, u99);
    println!("{:>14} {:>9.3}s {:>9.3}s", "optimized", o50, o99);
    println!(
        "reduction: p50 {:.0}%, p99 {:.0}%  (paper: >50% for both; p99 ~0.65s)",
        (1.0 - o50 / u50) * 100.0,
        (1.0 - o99 / u99) * 100.0
    );

    header("Figure 10b: multi-region cold starts, system database localities");
    println!("{:>18} {:>24} {:>24}", "prober region", "optimized p50/p99", "unoptimized p50/p99");
    let opt = run_panel_b(true, probes);
    let unopt = run_panel_b(false, probes);
    for ((name, o50, o99), (_, u50, u99)) in opt.iter().zip(unopt.iter()) {
        println!("{name:>18} {:>11.3}s /{:>9.3}s {:>11.3}s /{:>9.3}s", o50, o99, u50, u99);
    }
    let worst_opt = opt.iter().map(|(_, p50, _)| *p50).fold(0.0, f64::max);
    println!("\nworst optimized p50 across regions: {worst_opt:.3}s (paper: <= 0.73s)");

    let mut failures = Vec::new();
    for ((name, p50, _), (_, u50, _)) in opt.iter().zip(unopt.iter()) {
        if (p50 / o50 - 1.0).abs() > 0.05 {
            failures.push(format!(
                "{name}: optimized p50 {p50:.3}s is not within 5% of single-region {o50:.3}s"
            ));
        }
        if name != "asia-southeast1" && *u50 < 2.0 * p50 {
            failures.push(format!("{name}: unoptimized p50 {u50:.3}s < 2x optimized {p50:.3}s"));
        }
    }
    if worst_opt > 0.73 {
        failures.push(format!("worst optimized p50 {worst_opt:.3}s > 0.73s"));
    }
    for f in &failures {
        println!("GATE FAILED: {f}");
    }
    if failures.is_empty() {
        println!("gates: optimized p50 within 5% of single-region in every region, worst <= 0.73s, unoptimized >= 2x outside asia: ok");
    } else {
        std::process::exit(1);
    }
}
