//! Figures 12 & 13 and Table 1 — admission control and estimated-CPU
//! limits against noisy neighbors (§6.6).
//!
//! Three "noisy" tenants run TPC-C with no wait and one worker per
//! warehouse (uncontended, CPU-bound); a fourth "test" tenant runs the
//! stock configuration with think time. Three cluster configurations:
//!
//! - **No limits**: admission control off. Overloaded nodes miss liveness
//!   heartbeats, shed leases chaotically, and the test tenant's latency
//!   explodes (paper: p50 3.18 s, p99 24.8 s).
//! - **AC only**: nodes stay healthy (work-conserving ~100% CPU, stable
//!   leases); test tenant p50 0.19 s / p99 0.98 s.
//! - **AC + eCPU limits**: each noisy tenant capped; per-VM CPU drops to a
//!   stable plateau (~42% in the paper) and the test tenant sees
//!   single-tenant latencies (p50 0.019 s / p99 0.037 s).
//!
//! Every configuration runs all four tenants for a warm-up before its
//! measured window, and reports the steady state inside it.

// simlint: allow-file(wall-clock) — bench harness: measures real elapsed
// wall time of the simulation run itself, outside the deterministic sim clock

use std::cell::RefCell;
use std::rc::Rc;

use crate::header;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::timeseries::{render_table, TimeSeries};
use crdb_sim::Sim;
use crdb_util::time::{dur, SimTime};
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::{Driver, DriverConfig};
use crdb_workload::executors::load_tenant;
use crdb_workload::tpcc;

const COST_SCALE: f64 = 50.0;
const NOISY_TENANTS: usize = 3;
/// Workers (= warehouses) per noisy tenant. Sized to overload the
/// cluster: 96 since PR 12 roughly halved the CPU a New-Order costs
/// (48 no longer pegged the nodes, so "No Limits" had nothing to limit).
const NOISY_WORKERS: usize = 96;
/// How long every tenant runs before the measured window opens. Without
/// admission control the cluster runs healthy for 15–60 s before one node
/// falls behind for good; a window opened at once measures how long that
/// took — the test tenant's median was its healthy-phase latency whenever
/// the fall came late — not the overload Table 1 reports.
const WARMUP_SECS: u64 = 90;
const MEASURE_SECS: u64 = 180;

struct ConfigResult {
    label: &'static str,
    p50: f64,
    p99: f64,
    tpmc: f64,
    window: (SimTime, SimTime),
    per_node_cpu: Vec<TimeSeries>,
    per_node_leases: Vec<TimeSeries>,
    tenant_ecpu: Vec<TimeSeries>,
    lease_transfers: u64,
    epoch_bumps: u64,
}

thread_local! {
    static WALL: std::time::Instant = std::time::Instant::now();
}

fn run_config(
    label: &'static str,
    ac_enabled: bool,
    noisy_quota: Option<f64>,
    seed: u64,
) -> ConfigResult {
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    config.kv.nodes_per_region = 3;
    config.kv.vcpus_per_node = 16.0;
    config.kv.cost_model = config.kv.cost_model.scaled(COST_SCALE);
    config.kv.admission_enabled = ac_enabled;
    config.kv.heartbeat_cpu = 0.3;
    config.kv.cpu_contention_overhead = 0.15;
    // Tight liveness SLA at simulation scale.
    config.kv.liveness.ttl = dur::ms(1200);
    config.kv.liveness.heartbeat_interval = dur::ms(600);
    config.sql = config.sql.scaled(COST_SCALE);
    config.sql.idle_cpu_per_second = 0.05;
    config.ecpu_model = config.ecpu_model.scaled(COST_SCALE);
    // Finer ranges so lease distribution has real granularity.
    config.kv.max_range_bytes = 256 << 10;
    let cluster = ServerlessCluster::new(&sim, config);

    // Noisy tenants: one warehouse per worker, no think time.
    let noisy_cfg = tpcc::TpccConfig {
        warehouses: NOISY_WORKERS as u64,
        districts_per_warehouse: 2,
        customers_per_district: 5,
        items: 30,
        order_lines: 5,
    };
    let mut noisy_drivers = Vec::new();
    for i in 0..NOISY_TENANTS {
        let (tenant, ex) = load_tenant(
            &sim,
            &cluster,
            vec![RegionId(0)],
            noisy_quota,
            &tpcc::schema(),
            &tpcc::load_statements(&noisy_cfg),
        );
        let driver = Driver::new(
            &sim,
            ex,
            DriverConfig { workers: NOISY_WORKERS, think_time: None, max_retries: 30 },
            tpcc::new_order_only_factory(noisy_cfg.clone(), 1200 + i as u64),
        );
        noisy_drivers.push((tenant, driver));
    }

    // Test tenant: stock configuration.
    let test_cfg = tpcc::TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 3,
        customers_per_district: 10,
        items: 30,
        order_lines: 5,
    };
    let (test_tenant, test_ex) = load_tenant(
        &sim,
        &cluster,
        vec![RegionId(0)],
        None,
        &tpcc::schema(),
        &tpcc::load_statements(&test_cfg),
    );
    let test_driver = Driver::new(
        &sim,
        test_ex,
        DriverConfig { workers: 10, think_time: Some(dur::ms(500)), max_retries: 30 },
        tpcc::mix_factory(test_cfg, 1300),
    );

    // Samplers: per-node cores & leases; per-tenant eCPU rate.
    let node_ids = cluster.kv.node_ids();
    let per_node_cpu: Vec<Rc<RefCell<TimeSeries>>> = node_ids
        .iter()
        .map(|n| Rc::new(RefCell::new(TimeSeries::new(format!("{n}_cores")))))
        .collect();
    let per_node_leases: Vec<Rc<RefCell<TimeSeries>>> = node_ids
        .iter()
        .map(|n| Rc::new(RefCell::new(TimeSeries::new(format!("{n}_leases")))))
        .collect();
    let all_tenants: Vec<TenantId> =
        noisy_drivers.iter().map(|(t, _)| *t).chain(std::iter::once(test_tenant)).collect();
    let tenant_ecpu: Vec<Rc<RefCell<TimeSeries>>> = all_tenants
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let name =
                if i < NOISY_TENANTS { format!("noisy{}_ecpu", i + 1) } else { "test_ecpu".into() };
            Rc::new(RefCell::new(TimeSeries::new(name)))
        })
        .collect();
    {
        let cluster2 = Rc::clone(&cluster);
        let node_ids = node_ids.clone();
        let per_node_cpu = per_node_cpu.clone();
        let per_node_leases = per_node_leases.clone();
        let tenant_ecpu = tenant_ecpu.clone();
        let all_tenants = all_tenants.clone();
        let sim2 = sim.clone();
        let mut last_busy = vec![0.0f64; node_ids.len()];
        let mut last_ecpu = vec![0.0f64; all_tenants.len()];
        let last_t = RefCell::new(sim.now());
        let sample_until = sim.now() + dur::secs(3600 + MEASURE_SECS);
        sim.schedule_periodic(dur::secs(15), move || {
            let now = sim2.now();
            if now > sample_until {
                return false;
            }
            let dt = now.duration_since(*last_t.borrow()).as_secs_f64();
            *last_t.borrow_mut() = now;
            if dt <= 0.0 {
                return true;
            }
            let nodes =
                node_ids.iter().zip(&mut last_busy).zip(&per_node_cpu).zip(&per_node_leases);
            for (((id, last), cpu), leases) in nodes {
                if let Some(node) = cluster2.kv.node(*id) {
                    let busy = node.cpu.cumulative_busy();
                    let cores = (busy - *last) / dt;
                    *last = busy;
                    cpu.borrow_mut().push(now, cores);
                    leases.borrow_mut().push(now, cluster2.kv.lease_count(*id) as f64);
                }
            }
            for ((t, last), series) in all_tenants.iter().zip(&mut last_ecpu).zip(&tenant_ecpu) {
                let e = cluster2.tenant_ecpu_seconds(*t);
                let rate = (e - *last) / dt;
                *last = e;
                series.borrow_mut().push(now, rate);
            }
            true
        });
    }

    eprintln!("[{label}] setup done at sim {} (wall {:?})", sim.now(), WALL.with(|w| w.elapsed()));
    let start = sim.now() + dur::secs(WARMUP_SECS);
    let end = start + dur::secs(MEASURE_SECS);
    for (_, d) in &noisy_drivers {
        d.run_until(end);
    }
    test_driver.run_until(end);
    let run_to = |until: SimTime| {
        while sim.now() < until {
            sim.run_until((sim.now() + dur::secs(30)).min(until));
            eprintln!(
                "[{label}] sim {} events {} wall {:?}",
                sim.now(),
                sim.events_executed(),
                WALL.with(|w| w.elapsed())
            );
        }
    };
    run_to(start);
    test_driver.stats.reset();
    let transfers0 = cluster.kv.lease_transfers();
    let bumps0 = cluster.kv.epoch_bumps();
    run_to(end + dur::secs(60));

    let (p50, p99) = test_driver.stats.latency_quantiles();
    let tpmc = test_driver.stats.per_minute("new_order", dur::secs(MEASURE_SECS));
    ConfigResult {
        label,
        p50,
        p99,
        tpmc,
        window: (start, end),
        per_node_cpu: per_node_cpu.iter().map(|s| s.borrow().clone()).collect(),
        per_node_leases: per_node_leases.iter().map(|s| s.borrow().clone()).collect(),
        tenant_ecpu: tenant_ecpu.iter().map(|s| s.borrow().clone()).collect(),
        lease_transfers: cluster.kv.lease_transfers() - transfers0,
        epoch_bumps: cluster.kv.epoch_bumps() - bumps0,
    }
}

/// Mean and sample stddev of a series restricted to `[from, to]`.
fn bounded_stats(s: &TimeSeries, from: SimTime, to: SimTime) -> (f64, f64) {
    let vals: Vec<f64> =
        s.points().iter().filter(|&&(t, _)| t >= from && t <= to).map(|&(_, v)| v).collect();
    if vals.is_empty() {
        return (0.0, 0.0);
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    if vals.len() < 2 {
        return (mean, 0.0);
    }
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
    let sd = var.sqrt();
    (mean, sd)
}

pub fn run() {
    header("Figures 12/13 + Table 1: noisy neighbors vs admission control and eCPU limits");
    println!("3 KV nodes x 16 vCPU; 3 noisy tenants (TPC-C no-wait, 1 worker/warehouse);");
    println!(
        "1 test tenant (stock TPC-C with think time); eCPU limit 6.5 vCPU per noisy tenant.\n"
    );

    let [none, ac, ecpu] = [
        run_config("No Limits", false, None, 121),
        run_config("AC only", true, None, 122),
        run_config("AC & eCPU", true, Some(6.5), 123),
    ];

    header("Table 1: well-behaved tenant latency and throughput");
    println!("{:>10} {:>12} {:>12} {:>10}", "", "No Limits", "AC only", "AC & eCPU");
    println!("{:>10} {:>11.3}s {:>11.3}s {:>9.3}s", "p50", none.p50, ac.p50, ecpu.p50);
    println!("{:>10} {:>11.3}s {:>11.3}s {:>9.3}s", "p99", none.p99, ac.p99, ecpu.p99);
    println!("{:>10} {:>12.1} {:>12.1} {:>10.1}", "tpmC", none.tpmc, ac.tpmc, ecpu.tpmc);
    println!("(paper: p50 3.179/0.192/0.019, p99 24.815/0.978/0.037, tpmC 181.7/206.9/209.5)");

    for r in [&none, &ac, &ecpu] {
        header(&format!("Figure 12 [{}]: per-node cores used and range leases", r.label));
        let (from, to) = r.window;
        for (cpu, leases) in r.per_node_cpu.iter().zip(&r.per_node_leases) {
            let (cm, cs) = bounded_stats(cpu, from, to);
            let (lm, ls) = bounded_stats(leases, from, to);
            println!(
                "  {:<10} cores mean {cm:>6.2} (std {cs:>5.2})   leases mean {lm:>6.1} (std {ls:>5.2})",
                cpu.name(),
            );
        }
        println!(
            "  lease transfers: {}   liveness epoch bumps: {}",
            r.lease_transfers, r.epoch_bumps
        );
    }
    println!("\n(paper: No Limits -> chaotic lease/CPU balance; AC -> stable ~100% CPU;");
    println!(" AC & eCPU -> stable ~42% CPU per VM)\n");

    header("Figure 13: per-tenant eCPU rate over time (AC & eCPU configuration)");
    let r = &ecpu;
    println!("{}", render_table(&r.tenant_ecpu, 60.0, "min"));
    let (from, to) = r.window;
    for s in &r.tenant_ecpu {
        let (m, sd) = bounded_stats(s, from, to);
        println!("  {:<14} mean {m:>6.2} eCPU (std {sd:>5.2})", s.name());
    }
    println!("(paper: noisy tenants pinned at their limit, smooth over time)");
}
