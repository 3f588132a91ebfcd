//! The full CockroachDB Serverless assembly (Fig. 4).
//!
//! One [`ServerlessCluster`] wires together everything the paper
//! describes: the shared multi-tenant KV cluster, the warm pod pool, the
//! routing proxy, the autoscaler with its metrics pipeline, per-tenant
//! system databases with multi-region localities, and the estimated-CPU
//! accounting loop that feeds each tenant's distributed token bucket.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crdb_accounting::model::EcpuModel;
use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_kv::cost::TrafficStats;
use crdb_kv::keys;
use crdb_kv::range::Placement;
use crdb_obs::metrics::Sampler;
use crdb_obs::trace;
use crdb_serverless::autoscaler::{Autoscaler, AutoscalerConfig};
use crdb_serverless::metrics::{MetricsPipeline, PipelineConfig};
use crdb_serverless::pool::WarmPool;
use crdb_serverless::proxy::{Connection, Proxy, ProxyConfig, ProxyError};
use crdb_serverless::registry::Registry;
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{instance_partition_start, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::{RegionId, SqlInstanceId, TenantId};

use crate::tenant::{estimated_kv_cpu_seconds, TenantInfo};

/// Accounting loop interval.
const ACCOUNTING_INTERVAL: Duration = Duration::from_secs(1);

/// Configuration for a serverless deployment.
#[derive(Clone)]
pub struct ServerlessConfig {
    /// Region/zone topology.
    pub topology: Topology,
    /// Shared KV cluster settings.
    pub kv: KvClusterConfig,
    /// Template for SQL nodes (location overridden per tenant).
    pub sql: SqlNodeConfig,
    /// Whether warm-pool pods run a pre-started SQL process (the
    /// optimized cold-start flow of §4.3.1).
    pub prewarm_process: bool,
    /// Autoscaler settings.
    pub autoscaler: AutoscalerConfig,
    /// Proxy settings.
    pub proxy: ProxyConfig,
    /// Whether tenant system databases get the §3.2.5 multi-region
    /// optimizations.
    pub multi_region_optimized: bool,
    /// The estimated-CPU model used for billing and quota enforcement
    /// (scale it together with the cost model in scaled experiments).
    pub ecpu_model: EcpuModel,
}

impl Default for ServerlessConfig {
    fn default() -> Self {
        ServerlessConfig {
            topology: Topology::single_region("us-central1", 3),
            kv: KvClusterConfig::default(),
            sql: SqlNodeConfig::default(),
            prewarm_process: true,
            autoscaler: AutoscalerConfig::default(),
            proxy: ProxyConfig::default(),
            multi_region_optimized: true,
            ecpu_model: EcpuModel::default_model(),
        }
    }
}

/// Per-tenant billing/identity records in id order (metric snapshots
/// iterate them).
type Tenants = BTreeMap<TenantId, Rc<TenantInfo>>;

/// A running serverless deployment.
pub struct ServerlessCluster {
    /// The simulation.
    pub sim: Sim,
    /// The shared KV cluster.
    pub kv: KvCluster,
    /// Tenant/node registry.
    pub registry: Registry,
    /// The proxy.
    pub proxy: Rc<Proxy>,
    /// The autoscaler.
    pub autoscaler: Rc<Autoscaler>,
    /// Metrics pipeline.
    pub pipeline: Rc<MetricsPipeline>,
    /// Warm pod pool.
    pub pool: Rc<WarmPool>,
    tenants: Rc<RefCell<Tenants>>,
    /// Preferred placement for a tenant's next SQL nodes (set by probers
    /// and multi-region tests before connecting).
    preferred_location: Rc<RefCell<BTreeMap<TenantId, Location>>>,
    ecpu_model: Rc<EcpuModel>,
    config: ServerlessConfig,
    next_tenant: Cell<u64>,
    /// Tenants accounted at the previous tick; a tenant that suspends
    /// mid-interval still gets its final interval billed.
    last_accounted: RefCell<Vec<TenantId>>,
}

impl ServerlessCluster {
    /// Builds and starts a deployment on `sim`.
    pub fn new(sim: &Sim, config: ServerlessConfig) -> Rc<ServerlessCluster> {
        let kv = KvCluster::new(sim, config.topology.clone(), config.kv.clone());
        let tenants: Rc<RefCell<Tenants>> = Rc::default();
        let preferred_location: Rc<RefCell<BTreeMap<TenantId, Location>>> =
            Rc::new(RefCell::new(BTreeMap::new()));
        let next_instance = Rc::new(Cell::new(1u64));

        // SQL node factory: certificate from tenant state, placement from
        // the preferred location (default: tenant home region).
        let factory = {
            let tenants = Rc::clone(&tenants);
            let preferred = Rc::clone(&preferred_location);
            let kv = kv.clone();
            let sim = sim.clone();
            let sql_template = config.sql.clone();
            let next_instance = Rc::clone(&next_instance);
            Rc::new(move |tenant: TenantId| {
                #[expect(
                    clippy::expect_used,
                    reason = "the registry spawns nodes only for tenants `create_tenant` recorded"
                )]
                let info = tenants
                    .borrow()
                    .get(&tenant)
                    .cloned()
                    .expect("factory called for unknown tenant");
                let location = preferred
                    .borrow()
                    .get(&tenant)
                    .copied()
                    .unwrap_or(Location::new(info.home_region, 0));
                let client = KvClient::new(kv.clone(), info.cert.clone(), location);
                let id = next_instance.get();
                next_instance.set(id + 1);
                let mut cfg = sql_template.clone();
                cfg.location = location;
                crdb_sql::node::SqlNode::new(&sim, SqlInstanceId(id), client, cfg)
            })
        };
        let registry = Registry::new(factory);

        // Per-tenant system database provider.
        let system_db_provider: crdb_serverless::proxy::SystemDbProvider = {
            let tenants = Rc::clone(&tenants);
            let optimized = config.multi_region_optimized;
            Rc::new(move |tenant: TenantId| {
                let info = tenants.borrow().get(&tenant).cloned();
                match info {
                    Some(info) => info.system_db(optimized),
                    None => SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]),
                }
            })
        };

        // One warm-pool partition per region, so a region outage burns
        // only that region's slots and cold starts fall back elsewhere.
        let pool_regions: Vec<RegionId> = config.topology.regions().collect();
        let pool = WarmPool::new_multi_region(sim, config.prewarm_process, &pool_regions);
        let pipeline = MetricsPipeline::start(sim, registry.clone(), PipelineConfig::direct());
        let proxy = Proxy::start(
            sim,
            config.proxy.clone(),
            registry.clone(),
            Rc::clone(&pool),
            Rc::clone(&system_db_provider),
        );
        let autoscaler = Autoscaler::start(
            sim,
            config.autoscaler.clone(),
            registry.clone(),
            Rc::clone(&pipeline),
            Rc::clone(&pool),
            system_db_provider,
        );

        let cluster = Rc::new(ServerlessCluster {
            sim: sim.clone(),
            kv,
            registry,
            proxy,
            autoscaler,
            pipeline,
            pool,
            tenants,
            preferred_location,
            ecpu_model: Rc::new(config.ecpu_model.clone()),
            config,
            next_tenant: Cell::new(TenantId::FIRST_APP.raw()),
            last_accounted: RefCell::new(Vec::new()),
        });
        cluster.start_accounting_loop();
        cluster
    }

    /// Samples every layer's metrics into `s` under the
    /// `component[.entity].metric` naming scheme.
    fn sample_metrics(&self, s: &mut Sampler) {
        // Proxy.
        s.counter("proxy.connects", self.proxy.connects.get());
        s.counter("proxy.migrations", self.proxy.migrations.get());
        s.counter("proxy.migration_failures", self.proxy.migration_failures.get());
        s.counter("proxy.cold_starts", self.proxy.cold_starts.get());
        s.gauge("proxy.connections", self.proxy.connection_count() as f64);
        s.histogram("proxy.statement_latency", &self.proxy.statement_latency.borrow());
        s.counter("proxy.shed_statements", self.proxy.shed_statements.get());
        s.counter("proxy.breaker_trips", self.proxy.breaker_trips());

        // Autoscaler + warm pool.
        s.counter("autoscaler.scale_ups", self.autoscaler.scale_ups.get());
        s.counter("autoscaler.scale_downs", self.autoscaler.scale_downs.get());
        s.counter("autoscaler.suspensions", self.autoscaler.suspensions.get());
        s.counter("pool.acquired", *self.pool.acquired.borrow());
        s.counter("pool.misses", *self.pool.pool_misses.borrow());
        s.counter("pool.start_failures", self.pool.start_failures.get());
        s.counter("pool.slots_lost", self.pool.slots_lost.get());
        s.gauge("pool.available", self.pool.available() as f64);

        // Degradation: how hard the KV layer is working to stay up.
        let d = self.kv.degrade();
        s.counter("kv.degrade.retries", d.retries.get());
        s.counter("kv.degrade.redirects", d.redirects.get());
        s.counter("kv.degrade.deadline_exceeded", d.deadline_exceeded.get());
        s.counter("kv.degrade.breaker_trips", d.breaker_trips.get());
        s.counter("kv.degrade.breaker_fast_fails", d.breaker_fast_fails.get());
        s.counter("kv.degrade.partition_fast_fails", d.partition_fast_fails.get());
        s.counter("kv.degrade.quorum_losses", d.quorum_losses.get());
        s.counter("kv.degrade.txn_pushes", d.txn_pushes.get());
        // Which commit protocol transactions took.
        s.counter("kv.txn.commits_one_phase", d.commits_one_phase.get());
        s.counter("kv.txn.commits_two_phase", d.commits_two_phase.get());
        // Transaction records persisted, and commit batches refused as
        // ambiguous. A deployment whose transactions all commit in one
        // phase writes no record, and a refusal takes a replay minutes
        // late: like `region_pinned` below, neither prints as a zero.
        if d.txn_records_written.get() > 0 {
            s.counter("kv.txn.records_written", d.txn_records_written.get());
        }
        if d.ambiguous_commits.get() > 0 {
            s.counter("kv.degrade.ambiguous_commits", d.ambiguous_commits.get());
        }
        // Commits pushed off their read timestamp, and commit-time read
        // validations that failed, by whether the conflicting span was
        // only read or also written: what restarts transactions. Like the
        // two above, none prints as a zero.
        if d.commits_pushed.get() > 0 {
            s.counter("kv.txn.commits_pushed", d.commits_pushed.get());
        }
        if d.refresh_conflicts_read_only.get() > 0 {
            let n = d.refresh_conflicts_read_only.get();
            s.counter("kv.degrade.refresh_conflicts.read_only", n);
        }
        if d.refresh_conflicts_read_write.get() > 0 {
            let n = d.refresh_conflicts_read_write.get();
            s.counter("kv.degrade.refresh_conflicts.read_write", n);
        }
        // Region-pinned ranges (multi-region tenants' `sql_instances`
        // partitions). A deployment without any — every single-region
        // one — emits nothing, so its snapshot reads as it always did.
        let pinned = self.kv.pinned_range_count();
        if pinned > 0 {
            s.gauge("kv.ranges.region_pinned", pinned as f64);
        }

        // KV nodes: storage engine counters and admission depth.
        let mut node_ids = self.kv.node_ids();
        node_ids.sort();
        for nid in node_ids {
            let Some(node) = self.kv.node(nid) else { continue };
            let p = format!("kv.node.{}", nid.raw());
            let m = node.engine.metrics();
            s.counter(&format!("{p}.batches_served"), node.batches_served.get());
            s.gauge(&format!("{p}.admission.queue_len"), node.admission_queue_len() as f64);
            s.counter(&format!("{p}.storage.logical_bytes_written"), m.logical_bytes_written);
            s.counter(&format!("{p}.storage.wal_bytes"), m.wal_bytes);
            s.counter(&format!("{p}.storage.flush_bytes"), m.flush_bytes);
            s.counter(&format!("{p}.storage.flush_count"), m.flush_count);
            s.counter(&format!("{p}.storage.compact_bytes_in"), m.compact_bytes_in);
            s.counter(&format!("{p}.storage.compact_bytes_out"), m.compact_bytes_out);
            s.counter(&format!("{p}.storage.compact_count"), m.compact_count);
            s.counter(&format!("{p}.storage.l0_compact_bytes"), m.l0_compact_bytes);
            s.counter(&format!("{p}.storage.wal_batches"), m.wal_batches);
            s.counter(&format!("{p}.storage.fsyncs"), m.fsyncs);
            s.counter(&format!("{p}.storage.batches_synced"), m.batches_synced);
            s.counter(&format!("{p}.storage.stall_events"), m.stall_events);
            s.counter(&format!("{p}.storage.stall_micros"), m.stall_micros);
            s.counter(&format!("{p}.storage.point_gets"), m.point_gets);
            s.counter(&format!("{p}.storage.tables_probed"), m.tables_probed);
            s.counter(&format!("{p}.storage.bloom_probes"), m.bloom_probes);
            s.counter(&format!("{p}.storage.bloom_hits"), m.bloom_hits);
            s.counter(&format!("{p}.storage.scans"), m.scans);
            s.counter(&format!("{p}.storage.scan_entries_pulled"), m.scan_entries_pulled);
            s.counter(&format!("{p}.storage.scan_entries_returned"), m.scan_entries_returned);
            // What compaction-time MVCC GC collected. A node whose
            // compactions never met collectable history — any read-only
            // or short run — emits nothing, like `region_pinned` above.
            if m.gc_versions_dropped > 0 {
                s.counter(&format!("{p}.storage.gc_versions_dropped"), m.gc_versions_dropped);
                s.counter(&format!("{p}.storage.gc_bytes_dropped"), m.gc_bytes_dropped);
            }
        }

        // Per-tenant accounting: bucket server grants, cumulative
        // estimated CPU. Tenant iteration is sorted (index
        // order) for determinism. Untouched tenants — no quota configured
        // and never charged a single eCPU-second — emit nothing, so a
        // snapshot over 20K suspended-from-birth tenants costs (and
        // prints) only the handful that ever ran. Whether a tenant has
        // been touched is a deterministic function of the workload, so
        // same-seed snapshots stay byte-identical.
        for (id, info) in self.tenants.borrow().iter() {
            if info.quota.is_none() && *info.ecpu_seconds.borrow() == 0.0 {
                continue;
            }
            let p = format!("tenant.{}", id.raw());
            if let Some(q) = &info.quota {
                s.counter(
                    &format!("{p}.bucket.tokens_granted"),
                    q.server.borrow().tokens_granted as u64,
                );
            }
            s.gauge(&format!("{p}.ecpu_seconds"), *info.ecpu_seconds.borrow());
        }
    }

    /// A deterministic JSON snapshot of every layer's metrics, sampled
    /// now.
    pub fn metrics_snapshot_json(&self) -> String {
        let mut s = Sampler::default();
        self.sample_metrics(&mut s);
        s.snapshot_json()
    }

    fn start_accounting_loop(self: &Rc<Self>) {
        let this = Rc::clone(self);
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&this.sim, ACCOUNTING_INTERVAL).await;
                this.run_accounting_step(ACCOUNTING_INTERVAL);
            }
        });
    }

    /// One accounting step: measure per-node SQL CPU deltas and tenant KV
    /// traffic deltas, convert to estimated CPU, and charge quotas.
    fn run_accounting_step(&self, interval: Duration) {
        let now = self.sim.now();
        let kv_node_ids = self.kv.node_ids();
        // Bill active tenants plus any active at the previous tick, so a
        // tenant that suspends mid-interval still has its final traffic
        // delta accounted. Suspended tenants have no SQL nodes and issue
        // no KV traffic, so skipping them loses nothing — and the 1-second
        // loop costs O(running tenants), not O(registered).
        let active = self.registry.active_tenant_ids();
        let mut ids = active.clone();
        ids.extend(self.last_accounted.borrow().iter().copied());
        ids.sort_unstable();
        ids.dedup();
        *self.last_accounted.borrow_mut() = active;
        let tenants = self.tenants.borrow();
        for tenant in &ids {
            let Some(info) = tenants.get(tenant) else { continue };
            // KV traffic delta across all KV nodes.
            let mut traffic = TrafficStats::default();
            for &nid in &kv_node_ids {
                if let Some(node) = self.kv.node(nid) {
                    let t = node.traffic_stats(*tenant);
                    traffic.read_batches += t.read_batches;
                    traffic.read_requests += t.read_requests;
                    traffic.read_bytes += t.read_bytes;
                    traffic.write_batches += t.write_batches;
                    traffic.write_requests += t.write_requests;
                    traffic.write_bytes += t.write_bytes;
                    traffic.bounded_scan_requests += t.bounded_scan_requests;
                }
            }
            let delta = traffic.delta(&info.last_traffic.borrow());
            *info.last_traffic.borrow_mut() = traffic;
            let kv_est = estimated_kv_cpu_seconds(&self.ecpu_model, &delta, interval);

            // Per-node SQL CPU deltas.
            let nodes: Vec<Rc<crdb_sql::node::SqlNode>> = self
                .registry
                .with_tenant(*tenant, |e| e.pods().cloned().collect())
                .unwrap_or_default();
            let mut usage: Vec<(SqlInstanceId, f64)> = Vec::new();
            let mut total_sql = 0.0;
            let share = if nodes.is_empty() { 0.0 } else { kv_est / nodes.len() as f64 };
            for node in &nodes {
                let total = node.sql_cpu_seconds();
                let mut last = info.last_sql_cpu.borrow_mut();
                let prev = last.insert(SqlInstanceId(node.instance_id.raw()), total).unwrap_or(0.0);
                let sql_delta = (total - prev).max(0.0);
                total_sql += sql_delta;
                usage.push((node.instance_id, (sql_delta + share) * 1000.0));
            }
            *info.ecpu_seconds.borrow_mut() += total_sql + kv_est;
            info.charge(now, &usage);
        }
    }

    /// Creates a virtual cluster spanning `regions` with an optional CPU
    /// quota in vCPUs. Returns its tenant ID.
    pub fn create_tenant(&self, regions: Vec<RegionId>, quota_vcpus: Option<f64>) -> TenantId {
        let id = TenantId(self.next_tenant.get());
        self.next_tenant.set(id.raw() + 1);
        let regions = if regions.is_empty() { vec![RegionId(0)] } else { regions };
        let span = trace::child("tenant.create");
        span.tag("tenant", id);
        let cert = self.kv.create_tenant_homed(id, regions.first().copied());
        let mut info = TenantInfo::new(id, cert, regions, quota_vcpus);
        // REGIONAL BY ROW `system.sql_instances` (§3.2.5): one range per
        // region, pinned there, cut off the top of the still-empty
        // keyspace. Everything else stays in the region-spread range.
        for region in info.system_db(self.config.multi_region_optimized).instance_partitions() {
            let start = keys::make_key(id, &instance_partition_start(region));
            if self.kv.split_at(&start, Placement::Pinned(region)).is_some() {
                info.instance_partitions.push(region);
            }
        }
        span.tag("home", info.home_region.raw());
        span.tag("pinned_partitions", format_args!("{:?}", info.instance_partitions));
        span.end();
        let info = Rc::new(info);
        self.tenants.borrow_mut().insert(id, info);
        self.registry.add_tenant(id, self.sim.now());
        id
    }

    /// Tenant state.
    pub fn tenant(&self, id: TenantId) -> Option<Rc<TenantInfo>> {
        self.tenants.borrow().get(&id).cloned()
    }

    /// Sets where a tenant's next SQL nodes should start (used by
    /// per-region cold-start probers).
    pub fn set_preferred_location(&self, tenant: TenantId, location: Location) {
        self.preferred_location.borrow_mut().insert(tenant, location);
    }

    /// Connects a client (startup message → tenant) through the proxy, as a task.
    pub fn connect(
        &self,
        tenant: TenantId,
        source_ip: &str,
        user: &str,
        cb: impl FnOnce(Result<Rc<Connection>, ProxyError>) + 'static,
    ) {
        let (proxy, source_ip, user) =
            (Rc::clone(&self.proxy), source_ip.to_string(), user.to_string());
        task::spawn(
            &self.sim,
            async move { cb(proxy.connect(tenant, &source_ip, &user, true).await) },
        );
    }

    /// Executes a statement on a proxied connection as a task, honoring the
    /// tenant's quota gate (§5.2.2): over-quota nodes run their queries at
    /// the trickle's smooth reduced rate rather than stopping.
    pub fn execute(
        self: &Rc<Self>,
        conn: &Rc<Connection>,
        sql: &str,
        params: Vec<Datum>,
        cb: impl FnOnce(Result<QueryOutput, SqlError>) + 'static,
    ) {
        let gate = self
            .tenant(conn.tenant)
            .and_then(|info| info.gate_until(conn.node().instance_id))
            .filter(|&until| until > self.sim.now());
        let (sim, proxy, conn, sql) =
            (self.sim.clone(), Rc::clone(&self.proxy), Rc::clone(conn), sql.to_string());
        let statement = trace::in_current_span(async move {
            if let Some(until) = gate {
                let span = trace::child("quota.gate");
                span.tag("tenant", conn.tenant);
                task::sleep(&sim, until.duration_since(sim.now())).await;
                span.end();
            }
            proxy.execute(&conn, &sql, params).await
        });
        task::spawn(&self.sim, async move { cb(statement.await) });
    }

    /// Closes a connection.
    pub fn close(&self, conn: &Rc<Connection>) {
        self.proxy.close(conn);
    }

    /// Cumulative estimated CPU (seconds) attributed to a tenant.
    pub fn tenant_ecpu_seconds(&self, tenant: TenantId) -> f64 {
        self.tenant(tenant).map_or(0.0, |i| *i.ecpu_seconds.borrow())
    }

    /// Whether the tenant is currently suspended (scaled to zero).
    pub fn is_suspended(&self, tenant: TenantId) -> bool {
        self.registry.is_suspended(tenant)
    }

    /// Ready SQL node count for a tenant.
    pub fn sql_node_count(&self, tenant: TenantId) -> usize {
        self.registry.node_count(tenant)
    }

    /// The configuration (for experiments).
    pub fn config(&self) -> &ServerlessConfig {
        &self.config
    }

    /// The estimated-CPU model in use.
    pub fn ecpu_model(&self) -> Rc<EcpuModel> {
        Rc::clone(&self.ecpu_model)
    }
}
