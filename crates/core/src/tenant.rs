//! Per-tenant (virtual cluster) control state and CPU accounting (§5.2).
//!
//! Each tenant carries its certificate, region selection, and — when a
//! quota is configured — a [`BucketServer`] refilling 1000 tokens/second
//! per quota vCPU. An accounting loop measures each node's actual SQL CPU
//! plus the tenant's *estimated* KV CPU (from the six-feature model over
//! observed KV traffic) and charges the bucket server after the fact;
//! nodes that outrun their trickle are gated, smoothly slowing their
//! queries instead of stop/start oscillation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

use crdb_accounting::bucket::{BucketServer, GrantResponse};
use crdb_accounting::model::{EcpuModel, WorkloadFeatures};
use crdb_kv::auth::TenantCert;
use crdb_kv::cost::TrafficStats;
use crdb_sql::system_db::SystemDatabase;
use crdb_util::time::SimTime;
use crdb_util::{RegionId, SqlInstanceId, TenantId};

/// Per-tenant control-plane state.
pub struct TenantInfo {
    /// The tenant ID.
    pub id: TenantId,
    /// Its KV certificate (handed to every SQL node).
    pub cert: TenantCert,
    /// Configured regions (subset of the host cluster's, §4.2.5).
    pub regions: Vec<RegionId>,
    /// Home region (primary).
    pub home_region: RegionId,
    /// The regions whose `system.sql_instances` rows live in a range of
    /// their own, pinned to that region (the placement chosen when the
    /// tenant was created; empty: everything is in region-spread ranges).
    pub instance_partitions: Vec<RegionId>,
    /// Quota state, when a CPU limit is configured.
    pub quota: Option<QuotaState>,
    /// Cumulative estimated-CPU seconds attributed to this tenant.
    pub ecpu_seconds: RefCell<f64>,
    /// Last observed per-node SQL CPU totals (for delta measurement).
    pub last_sql_cpu: RefCell<BTreeMap<SqlInstanceId, f64>>,
    /// Last observed KV traffic snapshot.
    pub last_traffic: RefCell<TrafficStats>,
}

/// Quota enforcement state.
pub struct QuotaState {
    /// The tenant's quota in vCPUs.
    pub vcpus: f64,
    /// The token bucket server (1 token = 1 ms estimated CPU).
    pub server: RefCell<BucketServer>,
    /// Per-node query gates: statements wait until this instant.
    pub gates: RefCell<BTreeMap<SqlInstanceId, SimTime>>,
}

impl TenantInfo {
    /// Creates tenant state.
    pub fn new(
        id: TenantId,
        cert: TenantCert,
        regions: Vec<RegionId>,
        quota_vcpus: Option<f64>,
    ) -> TenantInfo {
        let home_region = regions.first().copied().unwrap_or(RegionId(0));
        TenantInfo {
            id,
            cert,
            regions,
            home_region,
            instance_partitions: Vec::new(),
            quota: quota_vcpus.map(|vcpus| QuotaState {
                vcpus,
                server: RefCell::new(BucketServer::new(vcpus)),
                gates: RefCell::new(BTreeMap::new()),
            }),
            ecpu_seconds: RefCell::new(0.0),
            last_sql_cpu: RefCell::new(BTreeMap::new()),
            last_traffic: RefCell::new(TrafficStats::default()),
        }
    }

    /// The tenant's system database: multi-region localities when
    /// `optimized`, everything regional in the home region otherwise.
    pub fn system_db(&self, optimized: bool) -> SystemDatabase {
        SystemDatabase {
            multi_region_optimized: optimized,
            home_region: self.home_region,
            regions: self.regions.clone(),
        }
    }

    /// The time before which new statements on `node` must wait (quota
    /// gate), if any.
    pub fn gate_until(&self, node: SqlInstanceId) -> Option<SimTime> {
        let q = self.quota.as_ref()?;
        q.gates.borrow().get(&node).copied()
    }

    /// Runs one accounting step. `usage` holds, per node, the
    /// milliseconds of estimated CPU consumed since the last step — CPU
    /// that was *already burned*, so it is reported to the bucket server
    /// as after-the-fact consumption (`consumed_since_last`, §5.2.2),
    /// driving the shared bucket into debt when the tenant exceeds its
    /// quota. A node whose requested allowance comes back as a trickle is
    /// gated long enough that its sustained rate matches the trickle.
    pub fn charge(&self, now: SimTime, usage: &[(SqlInstanceId, f64)]) {
        let q = match &self.quota {
            Some(q) => q,
            None => return,
        };
        let mut gates = q.gates.borrow_mut();
        let mut server = q.server.borrow_mut();
        for &(node, tokens) in usage {
            if tokens <= 0.0 {
                gates.remove(&node);
                continue;
            }
            // Report what was burned since the last step (that alone
            // debits the bucket); probe with a single token to learn
            // whether the tenant is still inside its quota or must run at
            // the trickle rate.
            let grant = server.request(now, node, 1.0, tokens);
            match grant {
                GrantResponse::Granted(_) => {
                    gates.remove(&node);
                }
                GrantResponse::Trickle { rate, .. } => {
                    // Burning at `tokens` per interval but allowed `rate`
                    // tokens/second: pause until the trickle would have
                    // covered this interval's burn (capped to avoid death
                    // spirals on transient spikes).
                    let interval = 1.0f64;
                    let sustainable = rate.max(1.0) * interval;
                    let overshoot = (tokens - sustainable).max(0.0);
                    let wait = (overshoot / rate.max(1.0)).min(5.0);
                    if wait > 1e-3 {
                        gates.insert(node, now + Duration::from_secs_f64(wait));
                    } else {
                        gates.remove(&node);
                    }
                }
            }
        }
    }
}

/// A traffic delta over `interval` as the per-second workload features
/// the estimated-CPU model takes.
fn workload_features(delta: &TrafficStats, interval: Duration) -> WorkloadFeatures {
    let interval_secs = interval.as_secs_f64();
    let per_batch =
        |total: u64, batches: u64| if batches > 0 { total as f64 / batches as f64 } else { 0.0 };
    WorkloadFeatures {
        read_batches_per_sec: delta.read_batches as f64 / interval_secs,
        read_requests_per_batch: per_batch(delta.read_requests, delta.read_batches),
        read_bytes_per_batch: per_batch(delta.read_bytes, delta.read_batches),
        write_batches_per_sec: delta.write_batches as f64 / interval_secs,
        write_requests_per_batch: per_batch(delta.write_requests, delta.write_batches),
        write_bytes_per_batch: per_batch(delta.write_bytes, delta.write_batches),
        bounded_scans_per_sec: delta.bounded_scan_requests as f64 / interval_secs,
    }
}

/// Computes a tenant's estimated KV CPU (in seconds) for a traffic delta
/// over `interval`, using the estimated-CPU model (§5.2.1).
pub fn estimated_kv_cpu_seconds(
    model: &EcpuModel,
    delta: &TrafficStats,
    interval: Duration,
) -> f64 {
    if interval.is_zero() {
        return 0.0;
    }
    model.estimate_vcpus(&workload_features(delta, interval)) * interval.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_kv::cluster::{KvCluster, KvClusterConfig};
    use crdb_sim::{Sim, Topology};

    fn cert() -> TenantCert {
        let sim = Sim::new(1);
        let cluster =
            KvCluster::new(&sim, Topology::single_region("r", 3), KvClusterConfig::default());
        cluster.create_tenant(TenantId(2))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn no_quota_never_gates() {
        let info = TenantInfo::new(TenantId(2), cert(), vec![RegionId(0)], None);
        info.charge(t(0.0), &[(SqlInstanceId(1), 1e9)]);
        assert_eq!(info.gate_until(SqlInstanceId(1)), None);
    }

    #[test]
    fn within_quota_no_gate() {
        let info = TenantInfo::new(TenantId(2), cert(), vec![RegionId(0)], Some(4.0));
        // 4 vCPUs = 4000 tokens/s; charge 1000 tokens over a second.
        for i in 0..10 {
            info.charge(t(i as f64), &[(SqlInstanceId(1), 1000.0)]);
            assert_eq!(info.gate_until(SqlInstanceId(1)), None, "step {i}");
        }
    }

    #[test]
    fn over_quota_gates_smoothly() {
        let info = TenantInfo::new(TenantId(2), cert(), vec![RegionId(0)], Some(1.0));
        // 1 vCPU = 1000 tokens/s; demand 4000 tokens/s: the gate must kick
        // in once the burst allowance drains.
        let mut gated = false;
        for i in 0..30 {
            info.charge(t(i as f64), &[(SqlInstanceId(1), 4000.0)]);
            if info.gate_until(SqlInstanceId(1)).is_some() {
                gated = true;
                break;
            }
        }
        assert!(gated, "over-quota tenant gets gated");
    }

    #[test]
    fn traffic_delta_converts_to_rates_and_per_batch_means() {
        let delta = TrafficStats {
            read_batches: 2,
            read_requests: 6,
            read_bytes: 384,
            write_batches: 1,
            write_requests: 2,
            write_bytes: 200,
            bounded_scan_requests: 1,
        };
        let f = workload_features(&delta, Duration::from_secs(2));
        assert_eq!(f.read_batches_per_sec, 1.0);
        assert_eq!(f.read_requests_per_batch, 3.0);
        assert_eq!(f.read_bytes_per_batch, 192.0);
        assert_eq!(f.write_batches_per_sec, 0.5);
        assert_eq!(f.bounded_scans_per_sec, 0.5);
        // No batches on a side: its per-batch means are 0, not NaN.
        let reads_only = TrafficStats { write_batches: 0, ..delta };
        let f = workload_features(&reads_only, Duration::from_secs(2));
        assert_eq!((f.write_requests_per_batch, f.write_bytes_per_batch), (0.0, 0.0));
    }

    #[test]
    fn estimated_kv_cpu_positive_for_traffic() {
        let model = EcpuModel::default_model();
        let delta = TrafficStats {
            read_batches: 10_000,
            read_requests: 20_000,
            read_bytes: 640_000,
            write_batches: 5_000,
            write_requests: 5_000,
            write_bytes: 500_000,
            bounded_scan_requests: 0,
        };
        let secs = estimated_kv_cpu_seconds(&model, &delta, Duration::from_secs(10));
        assert!(secs > 0.0);
        // Doubling traffic roughly doubles the estimate.
        let double = TrafficStats {
            read_batches: 20_000,
            read_requests: 40_000,
            read_bytes: 1_280_000,
            write_batches: 10_000,
            write_requests: 10_000,
            write_bytes: 1_000_000,
            bounded_scan_requests: 0,
        };
        let secs2 = estimated_kv_cpu_seconds(&model, &double, Duration::from_secs(10));
        assert!(secs2 > secs * 1.5);
    }
}
