//! Full-stack serverless tests: client → proxy → (cold start from zero) →
//! SQL node → KV cluster, plus autoscaling, suspension, resume, and quota
//! gating.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_serverless::proxy::Connection;
use crdb_sim::{task, Sim};
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::RegionId;

fn connect(
    cluster: &Rc<ServerlessCluster>,
    tenant: crdb_util::TenantId,
) -> Rc<RefCell<Option<Rc<Connection>>>> {
    let slot = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    cluster.connect(tenant, "10.0.0.1", "app", move |r| {
        *s.borrow_mut() = Some(r.expect("connect"));
    });
    slot
}

fn run_sql(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    sql: &str,
) -> crdb_sql::exec::QueryOutput {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    cluster.execute(conn, sql, vec![], move |r| *o.borrow_mut() = Some(r));
    sim.run_for(dur::secs(60));
    let r = out.borrow_mut().take().expect("statement completed");
    r.unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn scale_from_zero_connect_and_query() {
    let sim = Sim::new(1);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    assert!(cluster.is_suspended(tenant), "new tenants are scaled to zero");

    let start = sim.now();
    let slot = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    let conn = slot.borrow().clone().expect("connected");
    let cold = sim.now().duration_since(start);
    // The first connection resumed the tenant with a cold start.
    assert!(!cluster.is_suspended(tenant));
    assert_eq!(cluster.sql_node_count(tenant), 1);
    assert_eq!(cluster.proxy.cold_starts.get(), 1);
    // Pre-warmed flow: comfortably sub-second even with the query work.
    let _ = cold;

    let out = run_sql(&sim, &cluster, &conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    assert_eq!(out.rows_affected, 0);
    run_sql(&sim, &cluster, &conn, "INSERT INTO t VALUES (1, 100)");
    let out = run_sql(&sim, &cluster, &conn, "SELECT v FROM t WHERE id = 1");
    assert_eq!(out.rows[0][0], Datum::Int(100));
}

#[test]
fn second_connection_reuses_running_node() {
    let sim = Sim::new(2);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let c1 = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    assert!(c1.borrow().is_some());
    // Second connect: no further cold start.
    let before = cluster.proxy.cold_starts.get();
    let c2 = connect(&cluster, tenant);
    sim.run_for(dur::secs(5));
    assert!(c2.borrow().is_some());
    assert_eq!(cluster.proxy.cold_starts.get(), before);
    assert_eq!(cluster.sql_node_count(tenant), 1, "one node serves both");
}

#[test]
fn idle_tenant_suspends_and_resumes() {
    let sim = Sim::new(3);
    let mut config = ServerlessConfig::default();
    config.autoscaler.suspend_after = dur::secs(30);
    let cluster = ServerlessCluster::new(&sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);

    let slot = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    let conn = slot.borrow().clone().unwrap();
    run_sql(&sim, &cluster, &conn, "CREATE TABLE t (id INT PRIMARY KEY)");

    // Close the connection; after the idle window the tenant suspends.
    cluster.close(&conn);
    sim.run_for(dur::secs(120));
    assert!(cluster.is_suspended(tenant), "idle tenant scaled to zero");
    assert_eq!(cluster.sql_node_count(tenant), 0);

    // Reconnect: data survived suspension (storage-only state).
    let slot = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    let conn = slot.borrow().clone().expect("resumed");
    run_sql(&sim, &cluster, &conn, "INSERT INTO t VALUES (7)");
    let out = run_sql(&sim, &cluster, &conn, "SELECT COUNT(*) FROM t");
    assert_eq!(out.rows[0][0], Datum::Int(1));
}

/// Regression: an idle tenant's usage window must decay to zero so the
/// autoscaler actually reaches zero pods. With the old stale
/// sliding-window average, samples never aged out and the last burst of
/// CPU kept the visible usage — and therefore the pod count — pinned
/// above zero forever.
#[test]
fn idle_usage_decays_to_zero_and_suspends() {
    let sim = Sim::new(8);
    let mut config = ServerlessConfig::default();
    config.autoscaler.suspend_after = dur::secs(60);
    let cluster = ServerlessCluster::new(&sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);

    let slot = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    let conn = slot.borrow().clone().unwrap();
    run_sql(&sim, &cluster, &conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");

    // Sustained burst of work, with short waits so the tenant never
    // looks idle mid-burst.
    for i in 0..20 {
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        cluster.execute(&conn, &format!("INSERT INTO t VALUES ({i}, {i})"), vec![], move |r| {
            *o.borrow_mut() = Some(r)
        });
        sim.run_for(dur::secs(2));
        out.borrow_mut().take().expect("insert completed").expect("insert ok");
    }
    sim.run_for(dur::secs(5));
    let (_, busy) =
        cluster.pipeline.visible_usage(tenant, sim.now()).expect("usage visible after burst");
    assert!(busy > 0.0, "burst produced visible CPU usage: {busy}");

    // Go idle. The visible usage must decay to zero (fresh samples of 0
    // displace the burst), letting the autoscaler suspend the tenant.
    cluster.close(&conn);
    sim.run_for(dur::secs(180));
    if let Some((_, usage)) = cluster.pipeline.visible_usage(tenant, sim.now()) {
        assert_eq!(usage, 0.0, "idle tenant's visible usage decayed to zero");
    }
    assert!(cluster.is_suspended(tenant), "autoscaler reached zero pods");
    assert_eq!(cluster.sql_node_count(tenant), 0);
}

#[test]
fn tenants_are_isolated_end_to_end() {
    let sim = Sim::new(4);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let t1 = cluster.create_tenant(vec![RegionId(0)], None);
    let t2 = cluster.create_tenant(vec![RegionId(0)], None);

    let c1 = connect(&cluster, t1);
    let c2 = connect(&cluster, t2);
    sim.run_for(dur::secs(10));
    let conn1 = c1.borrow().clone().unwrap();
    let conn2 = c2.borrow().clone().unwrap();

    // Both create a table with the same name — fully independent.
    run_sql(&sim, &cluster, &conn1, "CREATE TABLE t (id INT PRIMARY KEY, who STRING)");
    run_sql(&sim, &cluster, &conn2, "CREATE TABLE t (id INT PRIMARY KEY, who STRING)");
    run_sql(&sim, &cluster, &conn1, "INSERT INTO t VALUES (1, 'tenant-one')");
    run_sql(&sim, &cluster, &conn2, "INSERT INTO t VALUES (1, 'tenant-two')");
    let o1 = run_sql(&sim, &cluster, &conn1, "SELECT who FROM t");
    let o2 = run_sql(&sim, &cluster, &conn2, "SELECT who FROM t");
    assert_eq!(o1.rows[0][0], Datum::Str("tenant-one".into()));
    assert_eq!(o2.rows[0][0], Datum::Str("tenant-two".into()));
    assert_eq!(o1.rows.len(), 1, "no cross-tenant leakage");
}

#[test]
fn denylisted_ip_rejected() {
    let sim = Sim::new(5);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    cluster.proxy.deny_ip(tenant, "6.6.6.6");
    let result = Rc::new(RefCell::new(None));
    let r = Rc::clone(&result);
    cluster.connect(tenant, "6.6.6.6", "app", move |res| {
        *r.borrow_mut() = Some(res.err());
    });
    sim.run_for(dur::secs(2));
    assert_eq!(result.borrow().clone().flatten(), Some(crdb_serverless::proxy::ProxyError::Denied));
}

#[test]
fn auth_failures_throttle_source() {
    let sim = Sim::new(6);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let errs: Rc<RefCell<Vec<crdb_serverless::proxy::ProxyError>>> =
        Rc::new(RefCell::new(Vec::new()));
    // Two immediate failed attempts: the second hits the throttle.
    for _ in 0..2 {
        let (proxy, e) = (Rc::clone(&cluster.proxy), Rc::clone(&errs));
        task::spawn(&sim, async move {
            let r = proxy.connect(tenant, "5.5.5.5", "app", false).await;
            e.borrow_mut().push(r.err().unwrap());
        });
        sim.run_for(dur::ms(100));
    }
    let errs = errs.borrow();
    assert_eq!(errs[0], crdb_serverless::proxy::ProxyError::AuthFailed);
    assert_eq!(errs[1], crdb_serverless::proxy::ProxyError::Throttled);
}

#[test]
fn ecpu_accounting_accumulates() {
    let sim = Sim::new(7);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let slot = connect(&cluster, tenant);
    sim.run_for(dur::secs(10));
    let conn = slot.borrow().clone().unwrap();
    run_sql(&sim, &cluster, &conn, "CREATE TABLE t (id INT PRIMARY KEY, pad STRING)");
    for i in 0..30 {
        run_sql(
            &sim,
            &cluster,
            &conn,
            &format!("INSERT INTO t VALUES ({i}, 'some-padding-for-bytes')"),
        );
    }
    // Let the accounting loop observe the usage.
    sim.run_for(dur::secs(5));
    let ecpu = cluster.tenant_ecpu_seconds(tenant);
    assert!(ecpu > 0.0, "estimated CPU accrued: {ecpu}");
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let sim = Sim::new(seed);
        let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
        let tenant = cluster.create_tenant(vec![RegionId(0)], None);
        let slot = connect(&cluster, tenant);
        sim.run_for(dur::secs(10));
        let conn = slot.borrow().clone().unwrap();
        run_sql(&sim, &cluster, &conn, "CREATE TABLE t (id INT PRIMARY KEY)");
        run_sql(&sim, &cluster, &conn, "INSERT INTO t VALUES (1)");
        sim.events_executed()
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn autoscaler_pass_before_the_session_opens_keeps_the_fresh_node() {
    let sim = Sim::new(5);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    cluster.connect(tenant, "10.0.0.1", "app", move |r| {
        *o.borrow_mut() = Some(r.map(|_| ()));
    });
    // Step to the instant the cold start hands its node to the connect:
    // the node is registered, and the session opens a proxy ↔ node hop
    // later.
    while cluster.sql_node_count(tenant) == 0 {
        assert!(sim.step(), "the cold start finishes");
    }
    assert!(outcome.borrow().is_none(), "the session is not open yet");
    // An autoscaler pass lands inside that hop. It sees a running tenant
    // with no load; the connect in flight must count as a connection, or
    // the pass stops the node under it ("node is Stopped").
    cluster.autoscaler.reconcile();
    sim.run_for(dur::secs(5));
    assert_eq!(*outcome.borrow(), Some(Ok(())));
    assert_eq!(cluster.sql_node_count(tenant), 1);
    assert!(!cluster.is_suspended(tenant));
}

/// Each control loop of a deployment is one task for its whole life, and a
/// SQL pod, Ready or suspended, adds none: its idle CPU burn is a rate.
#[test]
fn each_control_loop_is_one_task_and_a_ready_pod_adds_none() {
    let sim = Sim::new(5);
    let mut config = ServerlessConfig::default();
    config.autoscaler.suspend_after = dur::secs(30);
    let cluster = ServerlessCluster::new(&sim, config);
    sim.run_for(dur::secs(1));
    // Per KV node: the AIMD tick, write-token estimation and heartbeats.
    // Then the KV cluster's rebalancer, txn GC, lease and split checks,
    // and the metrics generator, proxy rebalance, autoscaler and accounting.
    let loops = 3 * cluster.kv.node_ids().len() + 4 + 4;
    assert_eq!(sim.live_tasks(), loops);

    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let slot = connect(&cluster, tenant);
    // Past the warm pool's 10 s replenishment of the slot it drew.
    sim.run_for(dur::secs(15));
    let conn = slot.borrow().clone().expect("connected");
    assert_eq!(cluster.sql_node_count(tenant), 1);
    assert_eq!(sim.live_tasks(), loops, "a Ready pod runs no task");

    cluster.close(&conn);
    sim.run_for(dur::secs(120));
    assert!(cluster.is_suspended(tenant), "idle tenant scaled to zero");
    assert_eq!(sim.live_tasks(), loops);
}
