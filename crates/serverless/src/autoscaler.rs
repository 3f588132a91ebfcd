//! The autoscaler (§4.2.3).
//!
//! "The autoscaler determines the ideal number of SQL nodes to assign to
//! each tenant based on the combined CPU usage of the tenant's SQL nodes.
//! Two metrics are used: the average CPU usage over the last 5 minutes and
//! the peak CPU usage during the last 5 minutes. The autoscaler ensures
//! the total capacity available to SQL nodes is 4x the average CPU usage
//! or 1.33x the max CPU usage, whichever is larger."
//!
//! Scale-down puts excess nodes into draining (reused before warm-pool
//! pods on the next scale-up); a draining node shuts down once its
//! sessions close or after ten minutes. A tenant with no load is
//! eventually suspended — scaled to zero.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use crdb_sim::{task, Sim};
use crdb_sql::node::{NodeState, NODE_VCPUS};
use crdb_util::time::dur;
use crdb_util::TenantId;

use crate::metrics::MetricsPipeline;
use crate::pool::WarmPool;
use crate::proxy::SystemDbProvider;
use crate::registry::Registry;

/// Capacity multiplier on average CPU (paper: 4×).
const AVG_FACTOR: f64 = 4.0;
/// Capacity multiplier on peak CPU (paper: 1.33×).
const MAX_FACTOR: f64 = 1.33;
/// Maximum time a draining node waits for connections to close
/// (paper: 10 minutes).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10 * 60);
/// Per-node vCPU usage below this counts as idle: a running SQL node
/// burns ~0.15 vCPU on keepalives/GC even with no queries (§6.2), which
/// must not count as activity.
const IDLE_CPU_THRESHOLD: f64 = 0.25;
/// The metrics window the average and peak are taken over (paper: 5
/// minutes).
const WINDOW: Duration = Duration::from_secs(5 * 60);

/// Autoscaler timing (§4.2.3 values as defaults).
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Reconciliation interval (paper: 3 s direct scrape).
    pub reconcile_interval: Duration,
    /// Idle time (no connections, no usage) before suspension.
    pub suspend_after: Duration,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig { reconcile_interval: dur::secs(3), suspend_after: dur::mins(5) }
    }
}

/// Scaling inputs for one tenant (exposed for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleInputs {
    /// Average vCPU usage over the window.
    pub avg: f64,
    /// Peak vCPU usage over the window.
    pub max: f64,
}

/// The §4.2.3 target: `max(4 · avg, 1.33 · max)` vCPUs, quantized up to
/// whole nodes.
pub fn target_nodes(inputs: ScaleInputs) -> usize {
    let capacity = (AVG_FACTOR * inputs.avg).max(MAX_FACTOR * inputs.max);
    (capacity / NODE_VCPUS).ceil() as usize
}

/// The autoscaler.
pub struct Autoscaler {
    sim: Sim,
    config: AutoscalerConfig,
    registry: Registry,
    pipeline: Rc<MetricsPipeline>,
    pool: Rc<WarmPool>,
    system_db: SystemDbProvider,
    /// Nodes added (from pool or reclaimed from draining).
    pub scale_ups: Cell<u64>,
    /// Nodes moved to draining.
    pub scale_downs: Cell<u64>,
    /// Tenants suspended.
    pub suspensions: Cell<u64>,
}

impl Autoscaler {
    /// Creates and starts the reconcile loop.
    pub fn start(
        sim: &Sim,
        config: AutoscalerConfig,
        registry: Registry,
        pipeline: Rc<MetricsPipeline>,
        pool: Rc<WarmPool>,
        system_db: SystemDbProvider,
    ) -> Rc<Autoscaler> {
        let scaler = Rc::new(Autoscaler {
            sim: sim.clone(),
            config: config.clone(),
            registry,
            pipeline,
            pool,
            system_db,
            scale_ups: Cell::new(0),
            scale_downs: Cell::new(0),
            suspensions: Cell::new(0),
        });
        let s = Rc::clone(&scaler);
        task::spawn(sim, async move {
            loop {
                task::sleep(&s.sim, s.config.reconcile_interval).await;
                s.reconcile();
            }
        });
        scaler
    }

    /// The scaling inputs the autoscaler currently sees for a tenant.
    pub fn inputs(&self, tenant: TenantId) -> ScaleInputs {
        match self.pipeline.visible_window(tenant, self.sim.now(), WINDOW) {
            Some(usage) => ScaleInputs { avg: usage.avg, max: usage.max },
            None => ScaleInputs { avg: 0.0, max: 0.0 },
        }
    }

    /// One reconcile pass over every *active* tenant. Suspended tenants
    /// never appear here — resume is connection-driven (proxy) — so a
    /// pass costs O(running tenants) even with 20K suspended.
    pub fn reconcile(&self) {
        let now = self.sim.now();
        for tenant in self.registry.active_tenant_ids() {
            // Crashed pods leave Stopped nodes behind; drop them from the
            // books so `current` reflects real capacity and is backfilled.
            self.registry.prune_stopped(tenant);
            let inputs = self.inputs(tenant);
            let mut target = target_nodes(inputs);
            let (current, connections, last_active) = self
                .registry
                .with_tenant(tenant, |e| (e.nodes.len(), e.connections, e.last_active))
                .unwrap_or((0, 0, now));

            // An active tenant keeps at least one node.
            if connections > 0 {
                target = target.max(1);
            }

            let node_count = self.registry.node_count(tenant).max(1) as f64;
            let busy = inputs.avg > IDLE_CPU_THRESHOLD * node_count;
            if busy || connections > 0 {
                self.registry.with_tenant(tenant, |e| e.last_active = now);
            }

            if target > current {
                self.scale_up(tenant, target - current);
            } else if target < current {
                self.scale_down(tenant, current - target);
            }

            // Drain completion and timeout.
            self.finish_draining(tenant, now);

            // Suspension: no connections and no recent activity.
            if connections == 0
                && !busy
                && now.duration_since(last_active) >= self.config.suspend_after
            {
                self.suspend(tenant);
            }
        }
    }

    fn scale_up(&self, tenant: TenantId, n: usize) {
        for _ in 0..n {
            // Reuse a draining node first (§4.2.3: "draining nodes are
            // reused before pre-warmed ones").
            let reclaimed = self
                .registry
                .with_tenant(tenant, |e| {
                    if let Some(pos) = e
                        .draining
                        .iter()
                        .position(|(n, _)| n.state() == NodeState::Draining && !n.is_retired())
                    {
                        let (node, _) = e.draining.remove(pos);
                        // Resurrect: draining nodes still serve; flip back.
                        e.nodes.push(Rc::clone(&node));
                        return Some(node);
                    }
                    None
                })
                .flatten();
            if let Some(node) = reclaimed {
                node.set_ready_for_reuse();
                self.scale_ups.set(self.scale_ups.get() + 1);
                continue;
            }
            // Otherwise pull from the warm pool.
            let (registry, pool) = (self.registry.clone(), Rc::clone(&self.pool));
            self.scale_ups.set(self.scale_ups.get() + 1);
            let system_db = (self.system_db)(tenant);
            task::spawn(&self.sim, async move {
                let node = pool.acquire_and_start(&registry, &system_db, tenant).await;
                registry.with_tenant(tenant, |e| {
                    if !e.suspended {
                        e.nodes.push(node);
                    } else {
                        node.shutdown();
                    }
                });
            });
        }
    }

    fn scale_down(&self, tenant: TenantId, n: usize) {
        let now = self.sim.now();
        self.registry.with_tenant(tenant, |e| {
            for _ in 0..n {
                if e.nodes.len() <= 1 && e.connections > 0 {
                    break; // keep one node for open connections
                }
                // Drain the node with the fewest sessions.
                let idx =
                    match e.nodes.iter().enumerate().min_by_key(|(_, node)| node.session_count()) {
                        Some((i, _)) => i,
                        None => break,
                    };
                let node = e.nodes.remove(idx);
                node.drain();
                e.draining.push((node, now));
                self.scale_downs.set(self.scale_downs.get() + 1);
            }
        });
    }

    fn finish_draining(&self, tenant: TenantId, now: crdb_util::time::SimTime) {
        self.registry.with_tenant(tenant, |e| {
            e.draining.retain(|(node, since)| {
                let expired = now.duration_since(*since) >= DRAIN_TIMEOUT;
                if node.session_count() == 0 || expired {
                    node.shutdown();
                    false
                } else {
                    true
                }
            });
        });
    }

    fn suspend(&self, tenant: TenantId) {
        self.registry.with_tenant(tenant, |e| {
            for node in e.nodes.drain(..) {
                node.shutdown();
            }
            for (node, _) in e.draining.drain(..) {
                node.shutdown();
            }
            e.suspended = true;
        });
        // The pipeline stops sampling suspended tenants; drop the series
        // so a later resume starts from a clean window (equivalent to the
        // zeros a kept-on sampler would have recorded).
        self.pipeline.forget_tenant(tenant);
        self.suspensions.set(self.suspensions.get() + 1);
    }

    /// Direct access to configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_follows_paper_example() {
        // §4.2.3: avg 2.5 vCPU -> 10 vCPU -> 3 nodes of 4 vCPU.
        let t = target_nodes(ScaleInputs { avg: 2.5, max: 2.5 });
        assert_eq!(t, 3);
        // Spike to 11 vCPU max -> 14.63 -> 4 nodes.
        let t = target_nodes(ScaleInputs { avg: 2.5, max: 11.0 });
        assert_eq!(t, 4);
    }

    #[test]
    fn zero_load_targets_zero() {
        assert_eq!(target_nodes(ScaleInputs { avg: 0.0, max: 0.0 }), 0);
    }

    #[test]
    fn max_factor_dominates_spikes() {
        // avg small, max large: 1.33x max wins.
        let t = target_nodes(ScaleInputs { avg: 0.5, max: 12.0 });
        assert_eq!(t, 4); // 15.96 / 4 = 3.99 -> 4
    }
}
