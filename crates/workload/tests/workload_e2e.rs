//! Whole-system workload tests: TPC-C, TPC-H and YCSB run end-to-end on
//! both deployment modes.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_core::{DedicatedCluster, ServerlessCluster, ServerlessConfig};
use crdb_kv::cluster::KvClusterConfig;
use crdb_sim::{Sim, Topology};
use crdb_sql::coord::SqlError;
use crdb_sql::node::SqlNodeConfig;
use crdb_util::time::{dur, SimTime};
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::{Driver, DriverConfig, SqlExecutor};
use crdb_workload::executors::{run_setup, DedicatedExecutor, ServerlessExecutor};
use crdb_workload::{tpcc, tpch, ycsb};

fn serverless_executor(sim: &Sim) -> (Rc<ServerlessCluster>, Rc<dyn SqlExecutor>) {
    let cluster = ServerlessCluster::new(sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let ex = ServerlessExecutor::new(Rc::clone(&cluster), tenant);
    (cluster, ex)
}

fn dedicated_executor(sim: &Sim) -> (Rc<DedicatedCluster>, Rc<dyn SqlExecutor>) {
    let cluster = DedicatedCluster::new(
        sim,
        Topology::single_region("us-east1", 3),
        KvClusterConfig::default(),
        SqlNodeConfig::default(),
    );
    let ex = DedicatedExecutor::new(Rc::clone(&cluster));
    (cluster, ex)
}

fn load_tpcc(sim: &Sim, ex: &Rc<dyn SqlExecutor>, cfg: &tpcc::TpccConfig) {
    let mut stmts: Vec<String> = tpcc::schema().iter().map(|s| s.to_string()).collect();
    stmts.extend(tpcc::load_statements(cfg));
    run_setup(sim, ex, &stmts);
}

#[test]
fn tpcc_runs_on_serverless() {
    let sim = Sim::new(11);
    let (_cluster, ex) = serverless_executor(&sim);
    let cfg = tpcc::TpccConfig::default();
    load_tpcc(&sim, &ex, &cfg);

    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 4, think_time: Some(dur::ms(200)), max_retries: 10 },
        tpcc::mix_factory(cfg, 1),
    );
    let end = sim.now() + dur::secs(60);
    driver.run_until(end);
    sim.run_until(end + dur::secs(30));

    let committed = *driver.stats.committed.borrow();
    let aborted = *driver.stats.aborted.borrow();
    assert!(committed > 50, "transactions committed: {committed}");
    assert_eq!(aborted, 0, "no aborts in a healthy run: {:?}", driver.stats.last_abort.borrow());
    let tpm = driver.stats.per_minute("new_order", dur::secs(60));
    assert!(tpm > 10.0, "tpmC positive: {tpm}");
    let (p50, p99) = driver.stats.latency_quantiles();
    assert!(p50 > 0.0 && p99 < 5.0, "sane latencies: p50={p50} p99={p99}");
}

#[test]
fn tpcc_runs_on_dedicated() {
    let sim = Sim::new(12);
    let (_cluster, ex) = dedicated_executor(&sim);
    let cfg = tpcc::TpccConfig::default();
    load_tpcc(&sim, &ex, &cfg);

    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 4, think_time: Some(dur::ms(200)), max_retries: 10 },
        tpcc::mix_factory(cfg, 2),
    );
    let end = sim.now() + dur::secs(60);
    driver.run_until(end);
    sim.run_until(end + dur::secs(30));
    assert!(*driver.stats.committed.borrow() > 50);
}

#[test]
fn tpcc_data_is_consistent_after_run() {
    // New-Order increments d_next_o_id; every committed new_order must
    // have inserted exactly one orders row: sum(d_next_o_id - 1) == count.
    let sim = Sim::new(13);
    let (_cluster, ex) = serverless_executor(&sim);
    let cfg = tpcc::TpccConfig::default();
    load_tpcc(&sim, &ex, &cfg);
    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 3, think_time: Some(dur::ms(100)), max_retries: 10 },
        tpcc::new_order_only_factory(cfg, 3),
    );
    let end = sim.now() + dur::secs(30);
    driver.run_until(end);
    sim.run_until(end + dur::secs(30));
    let committed = *driver.stats.committed.borrow();
    assert!(committed > 20, "{committed}");

    // Verify invariant through SQL.
    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let o = std::rc::Rc::clone(&out);
        ex.exec(
            0,
            "SELECT COUNT(*), SUM(d_next_o_id) FROM district".into(),
            vec![],
            Box::new(move |r| *o.borrow_mut() = Some(r.unwrap())),
        );
    }
    sim.run_for(dur::secs(10));
    let districts = out.borrow_mut().take().unwrap();
    let n_districts = districts.rows[0][0].as_i64().unwrap();
    let sum_next = districts.rows[0][1].as_i64().unwrap();
    let orders_created = sum_next - n_districts; // next_o_id starts at 1

    let out2 = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let o = std::rc::Rc::clone(&out2);
        ex.exec(
            0,
            "SELECT COUNT(*) FROM orders".into(),
            vec![],
            Box::new(move |r| *o.borrow_mut() = Some(r.unwrap())),
        );
    }
    sim.run_for(dur::secs(10));
    let orders = out2.borrow_mut().take().unwrap().rows[0][0].as_i64().unwrap();
    assert_eq!(orders, orders_created, "district counters match order rows");
    assert_eq!(orders as u64, committed, "each commit created one order");
}

#[test]
fn tpch_q1_and_q9_return_plausible_results() {
    let sim = Sim::new(14);
    let (_cluster, ex) = dedicated_executor(&sim);
    let cfg = tpch::TpchConfig::default();
    let mut stmts: Vec<String> = tpch::schema().iter().map(|s| s.to_string()).collect();
    stmts.extend(tpch::load_statements(&cfg));
    run_setup(&sim, &ex, &stmts);

    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let o = std::rc::Rc::clone(&out);
        ex.exec(
            0,
            tpch::q1_sql().into(),
            vec![crdb_sql::value::Datum::Int(12_000)],
            Box::new(move |r| *o.borrow_mut() = Some(r)),
        );
    }
    sim.run_for(dur::secs(30));
    let q1 = out.borrow_mut().take().unwrap().expect("q1 runs");
    // 3 return flags × 2 statuses = up to 6 groups.
    assert!(!q1.rows.is_empty() && q1.rows.len() <= 6, "{} groups", q1.rows.len());
    assert_eq!(q1.columns.len(), 7);

    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    {
        let o = std::rc::Rc::clone(&out);
        ex.exec(0, tpch::q9_sql().into(), vec![], Box::new(move |r| *o.borrow_mut() = Some(r)));
    }
    sim.run_for(dur::secs(30));
    let q9 = out.borrow_mut().take().unwrap().expect("q9 runs");
    assert!(!q9.rows.is_empty());
    // Ordered by amount descending.
    let amounts: Vec<f64> = q9.rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
    assert!(amounts.windows(2).all(|w| w[0] >= w[1]), "sorted: {amounts:?}");
}

#[test]
fn ycsb_mixes_run() {
    let sim = Sim::new(15);
    let (_cluster, ex) = serverless_executor(&sim);
    let cfg = ycsb::YcsbConfig { records: 200, ..ycsb::YcsbConfig::workload_a() };
    let mut stmts: Vec<String> = ycsb::schema().iter().map(|s| s.to_string()).collect();
    stmts.extend(ycsb::load_statements(&cfg));
    run_setup(&sim, &ex, &stmts);

    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 4, think_time: Some(dur::ms(50)), max_retries: 5 },
        ycsb::factory(cfg, 4),
    );
    let end = sim.now() + dur::secs(30);
    driver.run_until(end);
    sim.run_until(end + dur::secs(10));
    let committed = *driver.stats.committed.borrow();
    assert!(committed > 100, "{committed}");
    let labels = driver.stats.by_label.borrow();
    assert!(labels.contains_key("read") && labels.contains_key("update"));
}

#[test]
fn driver_stops_at_deadline() {
    let sim = Sim::new(16);
    let (_cluster, ex) = serverless_executor(&sim);
    let cfg = ycsb::YcsbConfig { records: 50, ..ycsb::YcsbConfig::workload_c() };
    let mut stmts: Vec<String> = ycsb::schema().iter().map(|s| s.to_string()).collect();
    stmts.extend(ycsb::load_statements(&cfg));
    run_setup(&sim, &ex, &stmts);
    let driver = Driver::new(
        &sim,
        Rc::clone(&ex),
        DriverConfig { workers: 2, think_time: Some(dur::ms(50)), max_retries: 3 },
        ycsb::factory(cfg, 5),
    );
    let deadline = sim.now() + dur::secs(10);
    driver.run_until(deadline);
    sim.run_until(SimTime::from_secs_f64(sim.now().as_secs_f64() + 300.0));
    // After the deadline the system drains: event queue must not grow
    // without bound (periodic loops remain, but no new transactions).
    let committed_at_end = *driver.stats.committed.borrow();
    sim.run_for(dur::secs(30));
    assert_eq!(*driver.stats.committed.borrow(), committed_at_end);
}

#[test]
fn a_failed_connect_fails_the_statement_retryably() {
    let sim = Sim::new(11);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    // No tenant 999 exists, so the proxy refuses the worker's connect.
    let ex = ServerlessExecutor::new(Rc::clone(&cluster), TenantId(999));
    let reply = Rc::new(RefCell::new(None));
    let r = Rc::clone(&reply);
    ex.exec(0, "SELECT 1".into(), vec![], Box::new(move |res| *r.borrow_mut() = Some(res)));
    sim.run_for(dur::secs(5));
    let reply = reply.borrow_mut().take();
    assert!(matches!(reply, Some(Err(SqlError::Unavailable))), "{reply:?}");
}
