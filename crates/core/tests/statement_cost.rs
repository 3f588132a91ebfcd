//! What a proxied statement costs the simulator and the host: the events
//! it takes from the client's call to its answer, and the allocations;
//! and what a deployment costs in events while nothing happens.
//!
//! Everything here runs through `ServerlessCluster` (proxy → SQL node →
//! KV client → KV node), on one seed, after the deployment's periodic
//! loops have settled. Events are the simulated work a statement takes
//! and are pinned exactly; allocations are host cost and may only fall.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_serverless::proxy::Connection;
use crdb_sim::Sim;
use crdb_util::time::dur;
use crdb_util::{RegionId, TenantId};

#[path = "../../util/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Allocation ceilings: what each operation took once the CPU, the disk
/// and the network hops were awaited and every control loop was a task,
/// and (the cold connect's) once a SQL pod's idle burn ran no task. They
/// may only fall. The first cold connect also grows the executor's task
/// table to its high-water mark; it takes one allocation more in a debug
/// build than in release.
const COLD_CONNECT_ALLOCATIONS: usize = 239;
const WARM_CONNECT_ALLOCATIONS: usize = 12;
const SELECT_ALLOCATIONS: usize = 131;
const UPDATE_ALLOCATIONS: usize = 219;

/// Events and allocations one operation took.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost {
    events: u64,
    allocations: usize,
}

/// Starts an operation whose callback fills the slot it is handed, and
/// steps the simulation until it is filled.
fn measure<T: 'static>(sim: &Sim, what: &str, start: impl FnOnce(Box<dyn FnOnce(T)>)) -> (T, Cost) {
    let slot: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
    let filled = Rc::clone(&slot);
    let (events, allocations) = (sim.events_executed(), counting_alloc::allocations());
    start(Box::new(move |v| *filled.borrow_mut() = Some(v)));
    loop {
        if let Some(v) = slot.borrow_mut().take() {
            let cost = Cost {
                events: sim.events_executed() - events,
                allocations: counting_alloc::allocations() - allocations,
            };
            return (v, cost);
        }
        assert!(sim.step(), "{what}: simulation ran dry");
    }
}

fn connect(sim: &Sim, cluster: &Rc<ServerlessCluster>, tenant: TenantId) -> (Rc<Connection>, Cost) {
    let (r, cost) = measure(sim, "connect", |cb| cluster.connect(tenant, "10.0.0.1", "app", cb));
    (r.unwrap_or_else(|e| panic!("connect: {e:?}")), cost)
}

fn execute(sim: &Sim, cluster: &Rc<ServerlessCluster>, conn: &Rc<Connection>, sql: &str) -> Cost {
    let (r, cost) = measure(sim, sql, |cb| cluster.execute(conn, sql, vec![], cb));
    r.unwrap_or_else(|e| panic!("{sql}: {e}"));
    cost
}

/// A cold connect, then, on a second (warm) connect, a point `SELECT` and
/// a one-row `UPDATE`.
fn costs(seed: u64) -> [Cost; 4] {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    sim.run_for(dur::secs(30));
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let (conn, cold) = connect(&sim, &cluster, tenant);
    execute(&sim, &cluster, &conn, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
    execute(&sim, &cluster, &conn, "INSERT INTO kv VALUES (1, 10), (2, 20)");
    let (conn, warm) = connect(&sim, &cluster, tenant);
    let select = execute(&sim, &cluster, &conn, "SELECT v FROM kv WHERE k = 1");
    let update = execute(&sim, &cluster, &conn, "UPDATE kv SET v = 11 WHERE k = 1");
    [cold, warm, select, update]
}

#[test]
fn a_proxied_statement_takes_fixed_events_and_at_most_its_allocations() {
    let measured = costs(11);
    let [cold, warm, select, update] = measured;
    println!("cold connect {cold:?}, warm connect {warm:?}, SELECT {select:?}, UPDATE {update:?}");
    // A cold connect: pool assignment and certificate delivery, the SQL
    // node's start (its KV reads and its registration), then the hop to
    // open the session.
    assert_eq!(cold.events, 20, "cold connect");
    assert!(cold.allocations <= COLD_CONNECT_ALLOCATIONS, "cold connect: {cold:?}");
    // A warm connect is the one hop that opens the session.
    assert_eq!(warm.events, 1, "warm connect");
    assert!(warm.allocations <= WARM_CONNECT_ALLOCATIONS, "warm connect: {warm:?}");
    // Two proxy hops around the statement, and its KV round trip.
    assert_eq!(select.events, 6, "point SELECT");
    assert!(select.allocations <= SELECT_ALLOCATIONS, "point SELECT: {select:?}");
    // The read, then the one-phase commit with its quorum and log sync.
    assert_eq!(update.events, 14, "one-row UPDATE");
    assert!(update.allocations <= UPDATE_ALLOCATIONS, "one-row UPDATE: {update:?}");
    // The simulator is single-threaded and seeded: the same seed
    // allocates exactly as often.
    assert_eq!(costs(11), measured, "same seed, different costs");
}

/// Events an idle deployment takes in one simulated minute, after the
/// warm-up: two tenants, each used once and suspended since.
fn idle_minute(seed: u64) -> u64 {
    let sim = Sim::new(seed);
    let config = ServerlessConfig::default();
    let suspend_after = config.autoscaler.suspend_after;
    let cluster = ServerlessCluster::new(&sim, config);
    sim.run_for(dur::secs(30));
    let tenants = [0, 1].map(|_| cluster.create_tenant(vec![RegionId(0)], None));
    for tenant in tenants {
        let (conn, _) = connect(&sim, &cluster, tenant);
        execute(&sim, &cluster, &conn, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
        execute(&sim, &cluster, &conn, "INSERT INTO kv VALUES (1, 10)");
        cluster.close(&conn);
    }
    sim.run_for(suspend_after + dur::secs(30));
    assert!(tenants.iter().all(|&t| cluster.is_suspended(t)), "both tenants suspended");
    let before = sim.events_executed();
    sim.run_for(dur::mins(1));
    sim.events_executed() - before
}

#[test]
fn an_idle_deployment_takes_fixed_events() {
    // What still ticks with nothing to do: each KV node's write-capacity
    // estimator and heartbeat, and the cluster's control loops. A node's
    // admission-slot controller parks on its empty CPU and ticks only
    // around a heartbeat. No storage work runs without a write.
    let events = idle_minute(11);
    assert_eq!(events, 372, "idle minute");
    assert_eq!(idle_minute(11), events, "same seed, different idle cost");
}

/// Events a deployment takes in one simulated minute while one tenant
/// holds `connections` open, idle connections, once its pods are up.
fn open_idle_minute(seed: u64, connections: usize) -> u64 {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    sim.run_for(dur::secs(30));
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let conns: Vec<Rc<Connection>> =
        (0..connections).map(|_| connect(&sim, &cluster, tenant).0).collect();
    sim.run_for(dur::secs(30));
    let before = sim.events_executed();
    sim.run_for(dur::mins(1));
    assert!(!cluster.is_suspended(tenant), "open connections keep the tenant up");
    drop(conns);
    sim.events_executed() - before
}

#[test]
fn an_idle_connection_takes_no_events() {
    // A pod's idle CPU burn accrues as a rate, so a Ready pod and the open
    // connections it holds cost the simulator nothing while they send
    // nothing: the minute ticks only what the idle deployment ticks.
    let one = open_idle_minute(11, 1);
    assert_eq!(one, 372, "idle minute, one open connection");
    assert_eq!(open_idle_minute(11, 10), one, "ten idle connections against one");
    assert_eq!(open_idle_minute(11, 1), one, "same seed, different idle cost");
}
