//! Figure 8 — responsive autoscaling (§6.3).
//!
//! The paper shows a production tenant over a few hours: the autoscaler
//! adds SQL nodes as CPU utilization rises and removes them after quiet
//! periods, with capacity tracking ≈ 4× the 5-minute average CPU. The
//! production trace is replaced by the synthetic variable-activity profile
//! of `LoadTrace::fig8_profile` (DESIGN.md §1), driven at scaled cost so a
//! few dozen workers produce multi-vCPU load.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::header;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::timeseries::{render_table, TimeSeries};
use crdb_sim::Sim;
use crdb_util::time::{dur, SimTime};
use crdb_util::RegionId;
use crdb_workload::driver::{run_script, SqlExecutor};
use crdb_workload::executors::load_tenant;
use crdb_workload::trace::LoadTrace;
use crdb_workload::ycsb;

/// Workers offered at load level 1.0 (levels range up to 1.6).
const WORKERS_AT_FULL: usize = 24;
const MAX_WORKERS: usize = 40;
const COST_SCALE: f64 = 600.0;

pub fn run() {
    header("Figure 8: SQL nodes scale with CPU utilization (synthetic multi-hour trace)");

    let sim = Sim::new(88);
    let mut config = ServerlessConfig::default();
    config.kv.cost_model = config.kv.cost_model.scaled(COST_SCALE);
    config.sql = config.sql.scaled(COST_SCALE);
    config.sql.idle_cpu_per_second = 0.05;
    config.autoscaler.suspend_after = dur::mins(30);
    let cluster = ServerlessCluster::new(&sim, config);

    let cfg = ycsb::YcsbConfig { records: 300, ..ycsb::YcsbConfig::workload_b() };
    let (tenant, ex) = load_tenant(
        &sim,
        &cluster,
        vec![RegionId(0)],
        None,
        &ycsb::schema(),
        &ycsb::load_statements(&cfg),
    );

    // Trace-controlled offered load: worker `i` runs only while
    // `i < level(t) * MAX_WORKERS`.
    // The multi-hour profile, time-compressed 3x for simulation speed
    // (the autoscaler's absolute windows are unchanged, so tracking is,
    // if anything, harder than in the paper).
    let trace = Rc::new(LoadTrace::fig8_profile().compressed(3.0));
    let t0 = sim.now();
    let factory = ycsb::factory(cfg, 88);
    let active_target = Rc::new(Cell::new(0usize));
    {
        let trace = Rc::clone(&trace);
        let target = Rc::clone(&active_target);
        let sim2 = sim.clone();
        sim.schedule_periodic(dur::secs(15), move || {
            let level = trace.level_at(SimTime::from_nanos(sim2.now().as_nanos() - t0.as_nanos()));
            target.set((level * WORKERS_AT_FULL as f64).round() as usize);
            true
        });
    }
    fn worker_loop(
        sim: Sim,
        ex: Rc<dyn SqlExecutor>,
        factory: crdb_workload::driver::TxnFactory,
        target: Rc<Cell<usize>>,
        idx: usize,
        end: SimTime,
        completed: Rc<Cell<u64>>,
    ) {
        if sim.now() >= end {
            return;
        }
        if idx >= target.get() {
            // Paused: check back in a bit.
            let sim2 = sim.clone();
            sim.schedule_after(dur::secs(10), move || {
                worker_loop(sim2, ex, factory, target, idx, end, completed)
            });
            return;
        }
        let (_, steps) = factory(idx);
        let sim2 = sim.clone();
        run_script(
            Rc::clone(&ex),
            idx,
            steps,
            Box::new(move |r| {
                if r.is_ok() {
                    completed.set(completed.get() + 1);
                }
                let sim3 = sim2.clone();
                sim2.schedule_after(dur::ms(100), move || {
                    worker_loop(sim3, ex, factory, target, idx, end, completed)
                });
            }),
        );
    }
    let duration = trace.duration();
    let end = sim.now() + duration;
    let completed = Rc::new(Cell::new(0u64));
    for i in 0..MAX_WORKERS {
        worker_loop(
            sim.clone(),
            Rc::clone(&ex),
            Rc::clone(&factory),
            Rc::clone(&active_target),
            i,
            end,
            Rc::clone(&completed),
        );
    }

    // Sample utilization and node count every minute.
    let usage = Rc::new(RefCell::new(TimeSeries::new("vcpus_used")));
    let nodes = Rc::new(RefCell::new(TimeSeries::new("sql_nodes")));
    let capacity = Rc::new(RefCell::new(TimeSeries::new("capacity_vcpus")));
    {
        let cluster2 = Rc::clone(&cluster);
        let usage = Rc::clone(&usage);
        let nodes = Rc::clone(&nodes);
        let capacity = Rc::clone(&capacity);
        let sim2 = sim.clone();
        let last_cpu = Cell::new(0.0f64);
        let last_t = Cell::new(sim.now());
        sim.schedule_periodic(dur::mins(1), move || {
            let now = sim2.now();
            let cpu = crate::sql_cpu_total(&cluster2, tenant);
            let dt = now.duration_since(last_t.get()).as_secs_f64();
            // Shutdown of a drained node removes its cumulative CPU from
            // the sum; clamp the delta (the node's history is gone, not
            // negative work).
            let used = if dt > 0.0 { ((cpu - last_cpu.get()) / dt).max(0.0) } else { 0.0 };
            last_cpu.set(cpu);
            last_t.set(now);
            let n = cluster2.sql_node_count(tenant);
            usage.borrow_mut().push(now, used);
            nodes.borrow_mut().push(now, n as f64);
            capacity.borrow_mut().push(now, n as f64 * 4.0);
            true
        });
    }

    sim.run_until(end + dur::mins(5));

    let series = [usage.borrow().clone(), capacity.borrow().clone(), nodes.borrow().clone()];
    println!("{}", render_table(&series, 60.0, "min"));

    // Tracking check: while busy, capacity ≈ 4x average usage (one node
    // per average vCPU, §6.3).
    let u = usage.borrow();
    let c = capacity.borrow();
    let mut tracked = 0;
    let mut busy = 0;
    for ((_, used), (_, cap)) in u.points().iter().zip(c.points()) {
        if *used > 0.5 {
            busy += 1;
            if *cap >= 4.0 * used * 0.5 && *cap <= 4.0 * used * 2.5 {
                tracked += 1;
            }
        }
    }
    println!("busy samples with capacity within [2x, 10x] of usage (target 4x): {tracked}/{busy}");
    println!(
        "max nodes: {}, final nodes: {}, txns completed: {}",
        nodes.borrow().max(),
        cluster.sql_node_count(tenant),
        completed.get()
    );
}
