//! The pre-warmed pod pool and cold-start flows (§4.3.1).
//!
//! "In our original implementation, K8s pods containing SQL nodes were
//! pre-warmed, but did not have a running SQL process until a tenant was
//! assigned. … The cold start flow was revamped so that the SQL process
//! was started before the tenant ID was known. The pre-warmed SQL node
//! process uses a file system watch to detect when the tenant's mTLS
//! certificates are available."
//!
//! Two flows are modeled:
//!
//! - **Unoptimized** (container pre-warmed, process not started): tenant
//!   assignment → certificate delivery → *process start* (up to a second)
//!   → TCP listener opens. The proxy's earlier connection attempt hits a
//!   TCP reset and retries with exponential backoff, roughly doubling the
//!   client-observed time.
//! - **Optimized** (process pre-started): certificate file-watch fires,
//!   the node connects to KV and finishes initialization; the proxy's
//!   connection waits in the accept queue instead of being reset.
//!
//! In both flows the SQL node's own `start()` then performs the real
//! KV/system-database work, awaited in the same task.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use crdb_obs::trace;
use crdb_sim::{task, Sim};
use crdb_sql::node::SqlNode;
use crdb_sql::system_db::SystemDatabase;
use crdb_util::{RegionId, RetryPolicy, TenantId};

use crate::registry::Registry;

/// Control-plane latency to assign a pod to a tenant (proxy detection,
/// reconciliation, certificate issuance request).
const POD_ASSIGNMENT: Duration = Duration::from_millis(260);
/// Time to start a container in a pre-allocated pod.
const CONTAINER_START: Duration = Duration::from_millis(450);
/// Time to start the SQL process inside the container ("may take up to a
/// second").
const PROCESS_START: Duration = Duration::from_millis(400);
/// Certificate delivery + file-watch detection.
const CERT_DELIVERY: Duration = Duration::from_millis(60);
/// Extra client-observed delay when the proxy's connection attempt is
/// TCP-reset and retried with exponential backoff.
const TCP_RETRY_PENALTY: Duration = Duration::from_millis(250);
/// Target number of warm pods kept in each region's pool.
const POOL_SIZE: usize = 8;
/// Time to provision a replacement pod into the pool.
const REPLENISH_DELAY: Duration = Duration::from_secs(10);
/// Base backoff before retrying a failed pod start; doubles per
/// consecutive failure.
const START_RETRY_BASE: Duration = Duration::from_millis(250);
/// Upper bound on the start-retry backoff.
const START_RETRY_CAP: Duration = Duration::from_secs(4);

/// Multiplicative jitter applied to each timing component: each delay
/// is sampled uniformly in ±35 %.
const JITTER: f64 = 0.35;

/// The warm pod pool. Slots are tracked per region: a region outage
/// atomically loses every warm slot located there (the pods are gone),
/// and acquisitions fall back to live regions until the dark region is
/// reprovisioned on recovery.
pub struct WarmPool {
    sim: Sim,
    /// Whether SQL processes are pre-started in pool pods (§4.3.1): the
    /// optimized flow, or the unoptimized one.
    prewarm_process: bool,
    warm: RefCell<BTreeMap<RegionId, usize>>,
    /// Regions currently dark (no slots can be acquired or replenished).
    dark: RefCell<BTreeSet<RegionId>>,
    /// Pods handed out (for stats).
    pub acquired: RefCell<u64>,
    /// Acquisitions that found the pool empty and paid full provisioning.
    pub pool_misses: RefCell<u64>,
    /// Fault injection: how many upcoming pod starts should fail.
    fail_next: Cell<u32>,
    /// Pod starts that failed and were retried (for stats/invariants).
    pub start_failures: Cell<u64>,
    /// Warm slots destroyed by region outages (for stats/invariants).
    pub slots_lost: Cell<u64>,
}

impl WarmPool {
    /// Creates a full single-region pool (region 0).
    pub fn new(sim: &Sim, prewarm_process: bool) -> Rc<WarmPool> {
        WarmPool::new_multi_region(sim, prewarm_process, &[RegionId(0)])
    }

    /// Creates a pool holding [`POOL_SIZE`] warm slots in *each* of
    /// `regions`.
    pub fn new_multi_region(
        sim: &Sim,
        prewarm_process: bool,
        regions: &[RegionId],
    ) -> Rc<WarmPool> {
        let warm: BTreeMap<RegionId, usize> = regions.iter().map(|&r| (r, POOL_SIZE)).collect();
        Rc::new(WarmPool {
            sim: sim.clone(),
            prewarm_process,
            warm: RefCell::new(warm),
            dark: RefCell::new(BTreeSet::new()),
            acquired: RefCell::new(0),
            pool_misses: RefCell::new(0),
            fail_next: Cell::new(0),
            start_failures: Cell::new(0),
            slots_lost: Cell::new(0),
        })
    }

    /// Marks a region's warm slots destroyed (outage) or reprovisionable
    /// (recovery). Going dark burns every slot in the region on the spot;
    /// recovery refills the region to `POOL_SIZE` after one
    /// `REPLENISH_DELAY` (the control plane reprovisions in bulk).
    pub fn set_region_dark(self: &Rc<Self>, region: RegionId, dark: bool) {
        if dark {
            if self.dark.borrow_mut().insert(region) {
                let mut warm = self.warm.borrow_mut();
                if let Some(slots) = warm.get_mut(&region) {
                    self.slots_lost.set(self.slots_lost.get() + *slots as u64);
                    *slots = 0;
                }
            }
        } else if self.dark.borrow_mut().remove(&region) {
            let pool = Rc::clone(self);
            task::spawn(&self.sim, async move {
                task::sleep(&pool.sim, REPLENISH_DELAY).await;
                if pool.dark.borrow().contains(&region) {
                    return; // went dark again before the refill landed
                }
                let mut warm = pool.warm.borrow_mut();
                if let Some(slots) = warm.get_mut(&region) {
                    *slots = POOL_SIZE;
                }
            });
        }
    }

    /// Fault injection: makes the next `n` pod starts fail. Each failure
    /// burns the acquired pod; the pool retries with a fresh one after a
    /// capped exponential backoff.
    pub fn fail_next_starts(&self, n: u32) {
        self.fail_next.set(self.fail_next.get().saturating_add(n));
    }

    /// Warm pods currently available across all live regions.
    pub fn available(&self) -> usize {
        let dark = self.dark.borrow();
        self.warm.borrow().iter().filter(|(r, _)| !dark.contains(r)).map(|(_, n)| n).sum()
    }

    /// Warm pods available in one region (zero while it is dark).
    pub fn available_in(&self, region: RegionId) -> usize {
        if self.dark.borrow().contains(&region) {
            return 0;
        }
        self.warm.borrow().get(&region).copied().unwrap_or(0)
    }

    /// Takes a warm slot from the first live region with one, and names
    /// that region.
    fn take_slot(&self) -> Option<RegionId> {
        let dark = self.dark.borrow();
        let mut warm = self.warm.borrow_mut();
        let (&region, slots) = warm.iter_mut().find(|(r, n)| !dark.contains(r) && **n > 0)?;
        *slots -= 1;
        Some(region)
    }

    /// Acquires a pod for `tenant`, creates its SQL node via the
    /// registry's factory, runs the cold-start flow and the node's own
    /// startup, and returns the ready node. Injected start failures (see
    /// [`WarmPool::fail_next_starts`]) are retried with a capped
    /// exponential backoff, each retry consuming a fresh pod.
    pub async fn acquire_and_start(
        self: &Rc<Self>,
        registry: &Registry,
        system_db: &SystemDatabase,
        tenant: TenantId,
    ) -> Rc<SqlNode> {
        let mut attempt = 0;
        loop {
            let span = trace::child("pool.acquire");
            span.tag("tenant", tenant);
            span.tag("attempt", attempt);
            let delay = self.cold_start_flow(&span);
            let node = registry.make_node(tenant);
            task::sleep(&self.sim, delay).await;
            if self.fail_next.get() == 0 {
                span.end();
                node.start(system_db).await;
                return node;
            }
            // The pod failed to start (injected fault): drop it and retry
            // with a fresh one after a capped backoff.
            drop(node);
            self.fail_next.set(self.fail_next.get() - 1);
            self.start_failures.set(self.start_failures.get() + 1);
            span.tag("start_failed", "true");
            span.end();
            // Shared backoff policy. The pool retries until a pod sticks,
            // so past the budget it keeps waiting the cap.
            let backoff = RetryPolicy::exponential(START_RETRY_BASE, START_RETRY_CAP, u32::MAX)
                .delay(attempt)
                .unwrap_or(START_RETRY_CAP);
            task::sleep(&self.sim, backoff).await;
            attempt += 1;
        }
    }

    /// Takes a pod and samples the flow's phases up to the point the SQL
    /// node can begin its own startup; returns their summed delay.
    fn cold_start_flow(self: &Rc<Self>, span: &trace::MaybeSpan) -> Duration {
        *self.acquired.borrow_mut() += 1;
        let sample = |d: Duration| -> Duration {
            let f: f64 = self.sim.with_rng(|r| rand::Rng::gen_range(r, 1.0 - JITTER..1.0 + JITTER));
            Duration::from_secs_f64(d.as_secs_f64() * f)
        };
        // The whole flow sleeps once for the summed delay; each phase is
        // recorded as a contiguous child span with the same sampled
        // boundaries the model sleeps on, so the cold-start trace
        // decomposes the sub-second budget (§4.2) phase by phase.
        let mut cursor = self.sim.now();
        let mut phase = |name: &str, d: Duration| {
            let c = span.child_at(name, cursor);
            cursor += d;
            c.end_at(cursor);
        };
        phase("pod.assignment", sample(POD_ASSIGNMENT));

        // Pod acquisition: a live region's slot, full provisioning when
        // every live region is dry.
        match self.take_slot() {
            Some(region) => {
                span.tag("pool_hit", "true");
                // Schedule replenishment of the region we drew from.
                let pool = Rc::clone(self);
                task::spawn(&self.sim, async move {
                    task::sleep(&pool.sim, REPLENISH_DELAY).await;
                    if pool.dark.borrow().contains(&region) {
                        return; // the region died meanwhile; recovery refills it
                    }
                    let mut warm = pool.warm.borrow_mut();
                    if let Some(slots) = warm.get_mut(&region) {
                        if *slots < POOL_SIZE {
                            *slots += 1;
                        }
                    }
                });
            }
            None => {
                *self.pool_misses.borrow_mut() += 1;
                span.tag("pool_hit", "false");
                // No warm pod anywhere: provision a fresh one first.
                phase("pod.provision", REPLENISH_DELAY);
            }
        }

        // The flow-specific latency before the SQL node can begin its own
        // startup sequence.
        if self.prewarm_process {
            // Process already running; the certificate file-watch fires.
            phase("cert.delivery", sample(CERT_DELIVERY));
        } else {
            // Certificates delivered, then the process boots; the proxy's
            // first connection attempt was reset meanwhile.
            phase("cert.delivery", sample(CERT_DELIVERY));
            phase("container.start", sample(CONTAINER_START));
            phase("process.start", sample(PROCESS_START));
            phase("tcp.retry", sample(TCP_RETRY_PENALTY));
        }
        cursor.duration_since(self.sim.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_kv::client::KvClient;
    use crdb_kv::cluster::{KvCluster, KvClusterConfig};
    use crdb_sim::{Location, Topology};
    use crdb_sql::node::SqlNodeConfig;
    use crdb_util::time::dur;
    use crdb_util::{RegionId, SqlInstanceId};
    use std::cell::Cell;

    fn fixture(prewarm: bool) -> (Sim, Registry, Rc<WarmPool>, SystemDatabase) {
        let sim = Sim::new(1);
        let cluster = KvCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig::default(),
        );
        let cert = cluster.create_tenant(TenantId(2));
        let sim2 = sim.clone();
        let next_id = Rc::new(Cell::new(1u64));
        let factory = {
            let cluster = cluster.clone();
            Rc::new(move |tenant: TenantId| {
                assert_eq!(tenant, TenantId(2));
                let client =
                    KvClient::new(cluster.clone(), cert.clone(), Location::new(RegionId(0), 0));
                let id = next_id.get();
                next_id.set(id + 1);
                SqlNode::new(&sim2, SqlInstanceId(id), client, SqlNodeConfig::default())
            })
        };
        let registry = Registry::new(factory);
        registry.add_tenant(TenantId(2), sim.now());
        let pool = WarmPool::new(&sim, prewarm);
        let sdb = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
        (sim, registry, pool, sdb)
    }

    /// Spawns an acquisition for tenant 2; the cell holds how long it took
    /// once the node is ready.
    fn acquire(
        sim: &Sim,
        registry: &Registry,
        pool: &Rc<WarmPool>,
        sdb: &SystemDatabase,
    ) -> Rc<Cell<Option<Duration>>> {
        let done = Rc::new(Cell::new(None));
        let (sim2, registry, pool, sdb) =
            (sim.clone(), registry.clone(), Rc::clone(pool), sdb.clone());
        let (d, begin) = (Rc::clone(&done), sim.now());
        task::spawn(sim, async move {
            let node = pool.acquire_and_start(&registry, &sdb, TenantId(2)).await;
            assert_eq!(node.state(), crdb_sql::node::NodeState::Ready);
            d.set(Some(sim2.now().duration_since(begin)));
        });
        done
    }

    fn measure_start(prewarm: bool) -> Duration {
        let (sim, registry, pool, sdb) = fixture(prewarm);
        let done = acquire(&sim, &registry, &pool, &sdb);
        sim.run_for(dur::secs(30));
        done.get().expect("node started")
    }

    #[test]
    fn prewarmed_flow_is_much_faster() {
        let optimized = measure_start(true);
        let unoptimized = measure_start(false);
        assert!(
            optimized.as_secs_f64() < unoptimized.as_secs_f64() / 2.0,
            "pre-warming halves cold start: {optimized:?} vs {unoptimized:?}"
        );
        assert!(optimized < dur::secs(1), "optimized flow is sub-second: {optimized:?}");
        assert!(unoptimized > dur::secs(1), "unoptimized exceeds a second: {unoptimized:?}");
    }

    #[test]
    fn pool_depletes_and_replenishes() {
        let (sim, registry, pool, sdb) = fixture(true);
        let initial = pool.available();
        for _ in 0..initial {
            drop(acquire(&sim, &registry, &pool, &sdb));
        }
        assert_eq!(pool.available(), 0);
        // One more: a pool miss.
        drop(acquire(&sim, &registry, &pool, &sdb));
        assert_eq!(*pool.pool_misses.borrow(), 1);
        // Replenishment restores the pool over time.
        sim.run_for(dur::secs(60));
        assert!(pool.available() > 0);
    }

    #[test]
    fn failed_starts_retry_with_backoff_until_success() {
        let (sim, registry, pool, sdb) = fixture(true);
        pool.fail_next_starts(3);
        let done = acquire(&sim, &registry, &pool, &sdb);
        sim.run_for(dur::secs(60));
        let elapsed = done.get().expect("eventually started despite failures");
        assert_eq!(pool.start_failures.get(), 3);
        assert_eq!(*pool.acquired.borrow(), 4, "each retry consumes a fresh pod");
        // At least the three backoffs (250ms + 500ms + 1s) beyond the flow.
        assert!(elapsed >= dur::ms(1750), "{elapsed:?}");
    }

    #[test]
    fn start_retry_backoff_is_capped() {
        let (sim, registry, pool, sdb) = fixture(true);
        // Enough failures to push 250ms << n far past the 4s cap.
        pool.fail_next_starts(10);
        let done = acquire(&sim, &registry, &pool, &sdb);
        sim.run_for(dur::mins(5));
        let elapsed = done.get().expect("recovered");
        assert_eq!(pool.start_failures.get(), 10);
        // Backoffs: 0.25 + 0.5 + 1 + 2 + 4*7 = 31.75s; with per-attempt
        // flow delays the total stays far below an uncapped 250ms << 10.
        assert!(elapsed < dur::secs(45), "capped backoff bounds recovery: {elapsed:?}");
    }

    #[test]
    fn region_outage_burns_warm_slots_and_acquisitions_fall_back() {
        let (sim, registry, _single, sdb) = fixture(true);
        let pool = WarmPool::new_multi_region(&sim, true, &[RegionId(0), RegionId(1)]);
        let size = POOL_SIZE;
        assert_eq!(pool.available(), 2 * size);

        // Region 0 — the one acquisitions draw from first — goes dark: its
        // warm slots are destroyed on the spot.
        pool.set_region_dark(RegionId(0), true);
        assert_eq!(pool.available(), size);
        assert_eq!(pool.available_in(RegionId(0)), 0);
        assert_eq!(pool.slots_lost.get(), size as u64);

        // An acquisition falls back to the live region — still a pool
        // hit, no provisioning penalty.
        let done = acquire(&sim, &registry, &pool, &sdb);
        assert_eq!(pool.available_in(RegionId(1)), size - 1);
        assert_eq!(*pool.pool_misses.borrow(), 0, "fallback is a pool hit");
        sim.run_for(dur::secs(30));
        assert!(done.get().is_some());

        // Recovery reprovisions the region after the replenish delay.
        pool.set_region_dark(RegionId(0), false);
        sim.run_for(dur::secs(30));
        assert_eq!(pool.available_in(RegionId(0)), size);
    }

    #[test]
    fn pool_miss_pays_provisioning_delay() {
        let (sim, registry, pool, sdb) = fixture(true);
        // Drain the pool instantly.
        for _ in 0..pool.available() {
            drop(acquire(&sim, &registry, &pool, &sdb));
        }
        let done = acquire(&sim, &registry, &pool, &sdb);
        sim.run_for(dur::secs(60));
        let miss_latency = done.get().unwrap();
        assert!(miss_latency >= REPLENISH_DELAY, "{miss_latency:?}");
    }
}
