//! Workspace-level integration tests: the complete system exercised
//! through the top-level public API, spanning every crate at once.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_core::{DedicatedCluster, ServerlessCluster, ServerlessConfig};
use crdb_kv::cluster::KvClusterConfig;
use crdb_serverless::proxy::Connection;
use crdb_sim::{Sim, Topology};
use crdb_sql::node::SqlNodeConfig;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::RegionId;
use crdb_workload::driver::{Driver, DriverConfig, SqlExecutor};
use crdb_workload::executors::{load_tenant, DedicatedExecutor};
use crdb_workload::tpcc;

fn sql(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    text: &str,
) -> crdb_sql::exec::QueryOutput {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    cluster.execute(conn, text, vec![], move |r| *o.borrow_mut() = Some(r));
    sim.run_for(dur::secs(30));
    let r = out.borrow_mut().take();
    r.expect("completed").unwrap_or_else(|e| panic!("{text}: {e}"))
}

#[test]
fn two_virtual_clusters_full_lifecycle() {
    let sim = Sim::new(31_337);
    let mut config = ServerlessConfig::default();
    config.autoscaler.suspend_after = dur::secs(45);
    let cluster = ServerlessCluster::new(&sim, config);

    // Two tenants with quotas, same schema, fully isolated.
    let t1 = cluster.create_tenant(vec![RegionId(0)], Some(8.0));
    let t2 = cluster.create_tenant(vec![RegionId(0)], Some(8.0));

    let connect = |tenant| {
        let slot = Rc::new(RefCell::new(None));
        let s = Rc::clone(&slot);
        cluster.connect(tenant, "10.9.9.9", "app", move |r| {
            *s.borrow_mut() = Some(r.expect("connect"));
        });
        sim.run_for(dur::secs(5));
        let c = slot.borrow().clone();
        c.expect("connected")
    };
    let c1 = connect(t1);
    let c2 = connect(t2);

    for (conn, owner) in [(&c1, "one"), (&c2, "two")] {
        sql(&sim, &cluster, conn, "CREATE TABLE things (id INT PRIMARY KEY, owner STRING)");
        sql(
            &sim,
            &cluster,
            conn,
            &format!("INSERT INTO things VALUES (1, '{owner}'), (2, '{owner}')"),
        );
    }
    // Transactions with rollback on tenant 1.
    sql(&sim, &cluster, &c1, "BEGIN");
    sql(&sim, &cluster, &c1, "UPDATE things SET owner = 'oops' WHERE id = 1");
    sql(&sim, &cluster, &c1, "ROLLBACK");

    let r1 = sql(&sim, &cluster, &c1, "SELECT owner FROM things WHERE id = 1");
    let r2 = sql(&sim, &cluster, &c2, "SELECT owner FROM things WHERE id = 1");
    assert_eq!(r1.rows[0][0], Datum::Str("one".into()), "rollback held, no cross-talk");
    assert_eq!(r2.rows[0][0], Datum::Str("two".into()));

    // Billing accrued for both.
    assert!(cluster.tenant_ecpu_seconds(t1) > 0.0);
    assert!(cluster.tenant_ecpu_seconds(t2) > 0.0);

    // Suspend tenant 1 by closing its connection; tenant 2 unaffected.
    cluster.close(&c1);
    sim.run_for(dur::mins(4));
    assert!(cluster.is_suspended(t1));
    assert!(!cluster.is_suspended(t2));
    let r2 = sql(&sim, &cluster, &c2, "SELECT COUNT(*) FROM things");
    assert_eq!(r2.rows[0][0], Datum::Int(2));
}

#[test]
fn tpcc_through_the_complete_serverless_stack() {
    let sim = Sim::new(90_210);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let cfg = tpcc::TpccConfig::default();
    let (tenant, ex) = load_tenant(
        &sim,
        &cluster,
        vec![RegionId(0)],
        None,
        &tpcc::schema(),
        &tpcc::load_statements(&cfg),
    );

    let driver = Driver::new(
        &sim,
        ex,
        DriverConfig { workers: 6, think_time: Some(dur::ms(150)), max_retries: 10 },
        tpcc::mix_factory(cfg, 5),
    );
    let end = sim.now() + dur::secs(45);
    driver.run_until(end);
    sim.run_until(end + dur::secs(30));

    assert!(*driver.stats.committed.borrow() > 50);
    assert_eq!(*driver.stats.aborted.borrow(), 0);
    // The serverless machinery really engaged.
    assert!(cluster.proxy.connects.get() >= 6);
    assert!(cluster.sql_node_count(tenant) >= 1);
    assert!(cluster.tenant_ecpu_seconds(tenant) > 0.0);
}

#[test]
fn dedicated_and_serverless_agree_on_results() {
    // The same statements produce the same data through both deployment
    // styles (different processes, same correctness).
    let statements = [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
        "UPDATE t SET v = v * 2 WHERE id >= 2",
        "DELETE FROM t WHERE id = 1",
    ];
    let query = "SELECT id, v FROM t ORDER BY id";

    // Serverless.
    let sim = Sim::new(1);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let slot = Rc::new(RefCell::new(None));
    {
        let s = Rc::clone(&slot);
        cluster.connect(tenant, "10.0.0.1", "x", move |r| *s.borrow_mut() = Some(r.unwrap()));
    }
    sim.run_for(dur::secs(5));
    let conn = slot.borrow().clone().unwrap();
    for s in statements {
        sql(&sim, &cluster, &conn, s);
    }
    let serverless_rows = sql(&sim, &cluster, &conn, query).rows;

    // Dedicated.
    let sim = Sim::new(2);
    let dedicated = DedicatedCluster::new(
        &sim,
        Topology::single_region("us-east1", 3),
        KvClusterConfig::default(),
        SqlNodeConfig::default(),
    );
    let executor = DedicatedExecutor::new(dedicated);
    let run = |text: &str| {
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        executor.exec(0, text.to_string(), vec![], Box::new(move |r| *o.borrow_mut() = Some(r)));
        sim.run_for(dur::secs(30));
        let r = out.borrow_mut().take();
        r.unwrap().unwrap()
    };
    for s in statements {
        run(s);
    }
    let dedicated_rows = run(query).rows;

    assert_eq!(serverless_rows, dedicated_rows);
    assert_eq!(serverless_rows.len(), 2);
    assert_eq!(serverless_rows[0], vec![Datum::Int(2), Datum::Int(40)]);
}
