//! Integration tests for the serverless components working together:
//! autoscaler + pipeline + pool + registry, without the full SQL stack
//! where possible, and proxy behaviours that the end-to-end suites don't
//! pin down.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_serverless::autoscaler::{Autoscaler, AutoscalerConfig};
use crdb_serverless::metrics::{MetricsPipeline, PipelineConfig};
use crdb_serverless::pool::WarmPool;
use crdb_serverless::proxy::{Connection, Proxy, ProxyConfig};
use crdb_serverless::registry::Registry;
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::node::{NodeState, SqlNode, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_util::time::dur;
use crdb_util::{RegionId, SqlInstanceId, TenantId};

struct Fixture {
    sim: Sim,
    registry: Registry,
    pool: Rc<WarmPool>,
    proxy: Rc<Proxy>,
    autoscaler: Rc<Autoscaler>,
}

/// Where a connect's connection lands once it is open.
type Slot = Rc<RefCell<Option<Rc<Connection>>>>;

impl Fixture {
    /// Spawns a connect to tenant 2 from `ip`, which must succeed.
    fn connect(&self, ip: &str) -> Slot {
        let slot = Slot::default();
        let (proxy, ip, s) = (Rc::clone(&self.proxy), ip.to_string(), Rc::clone(&slot));
        task::spawn(&self.sim, async move {
            let conn = proxy.connect(TenantId(2), &ip, "u", true).await.expect("connect");
            *s.borrow_mut() = Some(conn);
        });
        slot
    }
}

fn fixture(seed: u64, pipeline: PipelineConfig) -> Fixture {
    fixture_opts(seed, pipeline, true)
}

fn fixture_opts(seed: u64, pipeline: PipelineConfig, with_autoscaler: bool) -> Fixture {
    let sim = Sim::new(seed);
    let kv =
        KvCluster::new(&sim, Topology::single_region("us-east1", 3), KvClusterConfig::default());
    let cert = kv.create_tenant(TenantId(2));
    let next = Rc::new(Cell::new(1u64));
    let factory = {
        let kv = kv.clone();
        let sim = sim.clone();
        let next = Rc::clone(&next);
        Rc::new(move |_tenant: TenantId| {
            let client = KvClient::new(kv.clone(), cert.clone(), Location::new(RegionId(0), 0));
            let id = next.get();
            next.set(id + 1);
            SqlNode::new(&sim, SqlInstanceId(id), client, SqlNodeConfig::default())
        })
    };
    let registry = Registry::new(factory);
    registry.add_tenant(TenantId(2), sim.now());
    let pool = WarmPool::new(&sim, true);
    let provider: crdb_serverless::proxy::SystemDbProvider =
        Rc::new(|_t| SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]));
    let pipeline = MetricsPipeline::start(&sim, registry.clone(), pipeline);
    let proxy = Proxy::start(
        &sim,
        ProxyConfig::default(),
        registry.clone(),
        Rc::clone(&pool),
        Rc::clone(&provider),
    );
    let autoscaler = Autoscaler::start(
        // An idle scaler (yearly reconcile) when the test drives the
        // registry manually.
        &sim,
        AutoscalerConfig {
            suspend_after: dur::secs(40),
            reconcile_interval: if with_autoscaler { dur::secs(3) } else { dur::secs(31_536_000) },
        },
        registry.clone(),
        pipeline,
        Rc::clone(&pool),
        provider,
    );
    Fixture { sim, registry, pool, proxy, autoscaler }
}

#[test]
fn concurrent_connects_share_one_resume() {
    let f = fixture(1, PipelineConfig::direct());
    let slots: Vec<Slot> = (0..5).map(|i| f.connect(&format!("10.0.0.{i}"))).collect();
    f.sim.run_for(dur::secs(10));
    let connected = slots.iter().filter(|s| s.borrow().is_some()).count();
    assert_eq!(connected, 5, "all five connects succeeded");
    assert_eq!(f.proxy.cold_starts.get(), 1, "one cold start served them all");
    assert_eq!(f.registry.node_count(TenantId(2)), 1);
    assert_eq!(*f.pool.acquired.borrow(), 1);
}

#[test]
fn least_connections_balances_across_nodes() {
    // Manual node management: the autoscaler is parked.
    let f = fixture_opts(2, PipelineConfig::direct(), false);
    // Bring up the first node via a connect, then add a second node
    // manually (as a scale-up would).
    let first = f.connect("10.1.1.1");
    f.sim.run_for(dur::secs(5));
    assert!(first.borrow().is_some());
    let sdb = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let (pool, registry) = (Rc::clone(&f.pool), f.registry.clone());
    task::spawn(&f.sim, async move {
        let node = pool.acquire_and_start(&registry, &sdb, TenantId(2)).await;
        registry.with_tenant(TenantId(2), |e| e.nodes.push(node));
    });
    f.sim.run_for(dur::secs(5));
    assert_eq!(f.registry.node_count(TenantId(2)), 2);

    // Ten more connections must spread across both nodes.
    for i in 0..10 {
        drop(f.connect(&format!("10.1.2.{i}")));
        f.sim.run_for(dur::ms(300));
    }
    let counts = f
        .registry
        .with_tenant(TenantId(2), |e| e.nodes.iter().map(|n| n.session_count()).collect::<Vec<_>>())
        .unwrap();
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(max - min <= 2, "least-connections balance: {counts:?}");
}

#[test]
fn prometheus_pipeline_reacts_slower_than_direct() {
    // Drive a synthetic usage step through both pipelines and measure when
    // the autoscaler's visible average first moves.
    let mut reaction = Vec::new();
    for (cfg, _name) in
        [(PipelineConfig::direct(), "direct"), (PipelineConfig::prometheus(), "prometheus")]
    {
        let f = fixture(3, cfg);
        // Bring up a node and burn CPU on it.
        let ready = f.connect("10.2.2.2");
        f.sim.run_for(dur::secs(6));
        assert!(ready.borrow().is_some());
        let node = f.registry.with_tenant(TenantId(2), |e| e.nodes[0].clone()).unwrap();
        assert_eq!(node.state(), NodeState::Ready);
        let step_at = f.sim.now();
        // A sustained CPU step: 2 vCPUs' worth of work every second.
        let cpu = node.cpu.clone();
        f.sim.schedule_periodic(dur::secs(1), move || {
            cpu.charge(TenantId(2), 2.0);
            true
        });
        // Watch for the autoscaler's view to cross a threshold.
        let mut seen_at = None;
        for _ in 0..40 {
            f.sim.run_for(dur::secs(1));
            if f.autoscaler.inputs(TenantId(2)).max > 1.0 {
                seen_at = Some(f.sim.now().duration_since(step_at));
                break;
            }
        }
        reaction.push(seen_at.expect("step eventually visible"));
    }
    assert!(
        reaction[1] > reaction[0] + dur::secs(10),
        "prometheus pipeline reacts much slower: direct {:?} vs prometheus {:?} (paper: 20-30s vs 3s)",
        reaction[0],
        reaction[1]
    );
}

#[test]
fn autoscaler_suspends_and_pool_replenishes() {
    let f = fixture(4, PipelineConfig::direct());
    let conn = f.connect("10.3.3.3");
    f.sim.run_for(dur::secs(5));
    let pool_after_acquire = f.pool.available();
    let conn = conn.borrow().clone().unwrap();
    f.proxy.close(&conn);
    f.sim.run_for(dur::mins(3));
    assert!(f.registry.is_suspended(TenantId(2)), "tenant scaled to zero");
    assert!(f.autoscaler.suspensions.get() >= 1);
    assert!(f.pool.available() > pool_after_acquire, "the pool replenished after the acquisition");
}
