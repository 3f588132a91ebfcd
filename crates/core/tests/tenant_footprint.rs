//! What a suspended tenant costs the host.
//!
//! The paper's density claim (§6.2) is that a tenant scaled to zero costs
//! its fixed storage and nothing in the compute plane. Here that means: a
//! tenant that was created, connected, ran DDL and DML, closed and was
//! suspended must leave behind only a bounded amount of live heap — not a
//! latency histogram, an admission heap or a vector's growth slack — and
//! that amount must be a function of the seed alone.

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

const TENANTS: usize = 200;
/// Live heap a suspended tenant may pin: the 9,812 B this scenario
/// measures plus a quarter. It was 58.2 KB while every tenant that had
/// run a statement kept a dense latency histogram in the proxy and heaps
/// in every admission queue, 16.1 KB while its metadata sat as entries
/// in three replicas' memtables rather than as one table they share, and
/// 10,113 B while each replica's memtable held its own copy of every
/// row the tenant wrote.
const CEILING_BYTES: usize = 12_265;

/// Steps the simulation until `slot` is filled.
fn wait_for<T>(sim: &Sim, slot: &Rc<RefCell<Option<T>>>, what: &str) -> T {
    for _ in 0..1_000_000 {
        if let Some(v) = slot.borrow_mut().take() {
            return v;
        }
        assert!(sim.step(), "{what}: simulation ran dry");
    }
    panic!("{what}: did not complete");
}

fn run_sql(sim: &Sim, cluster: &Rc<ServerlessCluster>, conn: &Rc<Connection>, sql: &str) {
    let slot = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    cluster.execute(conn, sql, vec![], move |r| *s.borrow_mut() = Some(r));
    wait_for(sim, &slot, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// The whole life of one tenant up to its last close.
fn use_tenant(sim: &Sim, cluster: &Rc<ServerlessCluster>) -> TenantId {
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let slot = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    cluster.connect(tenant, "10.0.0.1", "app", move |r| *s.borrow_mut() = Some(r));
    let conn = wait_for(sim, &slot, "connect").unwrap_or_else(|e| panic!("connect: {e:?}"));
    run_sql(sim, cluster, &conn, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
    run_sql(sim, cluster, &conn, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
    cluster.close(&conn);
    tenant
}

/// Live heap bytes that `TENANTS` used-then-suspended tenants add to a
/// running deployment, and how many allocations it took to get there.
fn suspended_fleet_cost(seed: u64) -> (usize, usize) {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    // Let the warm pool fill and every periodic loop reach its steady
    // state before the baseline is read.
    sim.run_for(dur::secs(30));
    let (before, allocations) = (counting_alloc::live_bytes(), counting_alloc::allocations());

    let tenants: Vec<TenantId> = (0..TENANTS).map(|_| use_tenant(&sim, &cluster)).collect();
    sim.run_for(cluster.config().autoscaler.suspend_after + dur::secs(30));

    let after = counting_alloc::live_bytes();
    for &t in &tenants {
        assert!(cluster.is_suspended(t), "{t:?} still running");
    }
    assert_eq!(cluster.registry.active_tenant_count(), 0);
    for id in cluster.kv.node_ids() {
        let node = cluster.kv.node(id).expect("listed node");
        assert_eq!(node.admission_tenant_heaps(), 0, "{id:?} keeps a heap for an idle tenant");
    }
    (after.saturating_sub(before), counting_alloc::allocations() - allocations)
}

#[test]
fn a_suspended_tenant_costs_a_bounded_and_reproducible_amount_of_heap() {
    let (bytes, allocations) = suspended_fleet_cost(21);
    let per_tenant = bytes / TENANTS;
    println!("a suspended tenant pins {per_tenant} B of heap ({allocations} allocations in all)");
    assert!(
        per_tenant <= CEILING_BYTES,
        "a suspended tenant pins {per_tenant} B of heap (ceiling {CEILING_BYTES} B)"
    );
    // The simulator is single-threaded and seeded, so what it allocates is
    // as reproducible as what it computes.
    assert_eq!(suspended_fleet_cost(21), (bytes, allocations), "same seed, different heap use");
}
