//! The autoscaler's metrics pipeline (§4.3.2).
//!
//! "Our initial implementation used Prometheus to scrape and store these
//! metrics. However, this created a pipeline with too much latency,
//! including a 10 second metrics generation interval, a 10 second metrics
//! scrape interval, and a 10 second Prometheus query interval. These
//! overlapping polling intervals resulted in scaling reaction times of
//! 20-30 seconds. Our solution: update the autoscaler to directly scrape
//! just-in-time CPU metrics from the SQL nodes at a 3 second interval."
//!
//! [`MetricsPipeline`] samples per-tenant SQL CPU usage on the generation
//! interval and exposes it to readers only after the stacked polling
//! stages would have propagated it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crdb_sim::{task, Sim};
use crdb_util::time::{dur, SimTime};
use crdb_util::TenantId;

use crate::registry::Registry;

/// Pipeline timing configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// How often nodes generate a metrics sample.
    pub generation_interval: Duration,
    /// Additional propagation delay before a generated sample is visible
    /// to the autoscaler (scrape + query stages).
    pub propagation_delay: Duration,
}

/// Samples older than this (relative to the current time) are evicted.
/// Readers querying windows up to `HORIZON - propagation_delay` are
/// guaranteed never to observe a gap from eviction.
pub const HORIZON: Duration = Duration::from_secs(600);

impl PipelineConfig {
    /// The original Prometheus pipeline: 10 s generation, and samples
    /// visible only after the scrape (10 s) and query (10 s) stages.
    pub fn prometheus() -> Self {
        PipelineConfig { generation_interval: dur::secs(10), propagation_delay: dur::secs(20) }
    }

    /// The revamped direct scrape: 3 s just-in-time sampling, effectively
    /// no extra propagation.
    pub fn direct() -> Self {
        PipelineConfig { generation_interval: dur::secs(3), propagation_delay: Duration::ZERO }
    }
}

struct TenantSeries {
    /// `(generated_at, vcpus_used_avg_over_interval)` samples.
    samples: Vec<(SimTime, f64)>,
    last_cpu_total: f64,
}

/// What [`MetricsPipeline::visible_window`] reports: vCPUs used over the
/// visible samples of one tenant's window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowUsage {
    /// How many samples the window held (never zero).
    pub samples: usize,
    /// Their plain mean.
    pub avg: f64,
    /// Their maximum.
    pub max: f64,
}

/// Samples per-tenant SQL-node CPU usage and serves it with pipeline
/// latency.
pub struct MetricsPipeline {
    config: PipelineConfig,
    series: Rc<RefCell<BTreeMap<TenantId, TenantSeries>>>,
}

impl MetricsPipeline {
    /// Starts the sampling loop over the registry's tenants.
    pub fn start(sim: &Sim, registry: Registry, config: PipelineConfig) -> Rc<MetricsPipeline> {
        let pipeline = Rc::new(MetricsPipeline {
            config: config.clone(),
            series: Rc::new(RefCell::new(BTreeMap::new())),
        });
        let series = Rc::clone(&pipeline.series);
        let sim2 = sim.clone();
        let mut last_at = sim.now();
        task::spawn(sim, async move {
            loop {
                task::sleep(&sim2, config.generation_interval).await;
                let now = sim2.now();
                let dt = now.duration_since(last_at).as_secs_f64();
                last_at = now;
                if dt <= 0.0 {
                    continue;
                }
                let mut all = series.borrow_mut();
                // Only active tenants are scraped: a generation tick costs
                // O(running tenants), not O(registered). Suspended tenants'
                // series are dropped at suspension (`forget_tenant`), so a
                // resume starts a fresh window.
                for tenant in registry.active_tenant_ids() {
                    let cpu_total: f64 = registry
                        .with_tenant(tenant, |e| e.pods().map(|n| n.sql_cpu_seconds()).sum())
                        .unwrap_or(0.0);
                    let entry = all
                        .entry(tenant)
                        .or_insert(TenantSeries { samples: Vec::new(), last_cpu_total: cpu_total });
                    let used = ((cpu_total - entry.last_cpu_total) / dt).max(0.0);
                    entry.last_cpu_total = cpu_total;
                    entry.samples.push((now, used));
                    // Bound memory with the time horizon. Eviction must never
                    // outrun visibility: the newest sample that has cleared
                    // propagation (what `visible_usage` returns) is always
                    // retained, even behind a propagation delay longer than
                    // the horizon, which `propagation_delay` stays free to set.
                    let mut first_keep =
                        entry.samples.partition_point(|(t, _)| now.duration_since(*t) > HORIZON);
                    if let Some(newest_visible) = entry
                        .samples
                        .iter()
                        .rposition(|(t, _)| *t + config.propagation_delay <= now)
                    {
                        first_keep = first_keep.min(newest_visible);
                    }
                    entry.samples.drain(..first_keep);
                }
            }
        });
        pipeline
    }

    /// The latest per-tenant vCPU usage visible to the autoscaler at
    /// `now`, i.e. the freshest sample that has cleared propagation.
    pub fn visible_usage(&self, tenant: TenantId, now: SimTime) -> Option<(SimTime, f64)> {
        let all = self.series.borrow();
        let s = all.get(&tenant)?;
        let visible_cutoff = now.duration_since(SimTime::ZERO);
        s.samples
            .iter()
            .rev()
            .find(|(t, _)| {
                t.duration_since(SimTime::ZERO) + self.config.propagation_delay <= visible_cutoff
            })
            .copied()
    }

    /// Count, mean and maximum of the visible samples within `window`
    /// ending at `now`, read in place; `None` when there are none.
    pub fn visible_window(
        &self,
        tenant: TenantId,
        now: SimTime,
        window: Duration,
    ) -> Option<WindowUsage> {
        let all = self.series.borrow();
        let (mut samples, mut sum, mut max) = (0usize, 0.0f64, 0.0f64);
        for &(t, used) in &all.get(&tenant)?.samples {
            if t + self.config.propagation_delay <= now
                && now.duration_since(t) <= window + self.config.propagation_delay
            {
                samples += 1;
                sum += used;
                max = max.max(used);
            }
        }
        (samples > 0).then(|| WindowUsage { samples, avg: sum / samples as f64, max })
    }

    /// Drops a tenant's series (called at suspension). Equivalent, from
    /// the autoscaler's point of view, to the all-zero window a
    /// keep-sampling pipeline would have accumulated, at O(1) instead of
    /// O(suspended tenants) per tick.
    pub fn forget_tenant(&self, tenant: TenantId) {
        self.series.borrow_mut().remove(&tenant);
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::new(Rc::new(|_| unreachable!()))
    }

    #[test]
    fn direct_pipeline_serves_fresh_samples() {
        let sim = Sim::new(1);
        let r = registry();
        r.add_tenant(TenantId(2), sim.now());
        // Only active (non-suspended) tenants are scraped.
        r.with_tenant(TenantId(2), |e| e.suspended = false);
        let p = MetricsPipeline::start(&sim, r, PipelineConfig::direct());
        sim.run_for(dur::secs(10));
        let (t, v) = p.visible_usage(TenantId(2), sim.now()).expect("sample visible");
        assert_eq!(v, 0.0, "no nodes, no usage");
        // The freshest visible sample is at most one generation old.
        assert!(sim.now().duration_since(t) <= dur::secs(3));
    }

    #[test]
    fn prometheus_pipeline_hides_recent_samples() {
        let sim = Sim::new(1);
        let r = registry();
        r.add_tenant(TenantId(2), sim.now());
        r.with_tenant(TenantId(2), |e| e.suspended = false);
        let p = MetricsPipeline::start(&sim, r, PipelineConfig::prometheus());
        sim.run_for(dur::secs(25));
        // Generated at 10 and 20; visible only those generated <= now-20.
        // None is also acceptable at t=25 (first visible at 30).
        if let Some((t, _)) = p.visible_usage(TenantId(2), sim.now()) {
            assert!(
                sim.now().duration_since(t) >= dur::secs(20),
                "visible sample is stale by design: {t}"
            );
        }
        sim.run_for(dur::secs(20));
        let (t, _) = p.visible_usage(TenantId(2), sim.now()).expect("eventually visible");
        assert!(sim.now().duration_since(t) >= dur::secs(20));
    }

    /// Regression: the old pruning was count-based (`drain(..512)` past
    /// 1024 samples), so a small generation interval silently dropped
    /// samples that were still inside the autoscaler's visible window. The
    /// horizon-based eviction must keep every sample a reader can reach.
    #[test]
    fn pruning_never_drops_visible_samples() {
        let sim = Sim::new(1);
        let r = registry();
        r.add_tenant(TenantId(2), sim.now());
        r.with_tenant(TenantId(2), |e| e.suspended = false);
        let cfg =
            PipelineConfig { generation_interval: dur::ms(10), propagation_delay: Duration::ZERO };
        let p = MetricsPipeline::start(&sim, r, cfg);
        sim.run_for(dur::secs(30));
        // 10 ms generation over 30 s => ~3000 samples, all inside a 60 s
        // window. The old code capped retention at 1024.
        let samples =
            p.visible_window(TenantId(2), sim.now(), dur::secs(60)).map_or(0, |w| w.samples);
        assert!(samples >= 2900, "visible samples were evicted: {samples}");
    }

    /// The horizon really evicts — and even behind a propagation delay
    /// longer than the horizon, the newest visible sample survives.
    #[test]
    fn horizon_evicts_but_keeps_newest_visible() {
        let run = |propagation_delay: Duration| {
            let sim = Sim::new(1);
            let r = registry();
            r.add_tenant(TenantId(2), sim.now());
            r.with_tenant(TenantId(2), |e| e.suspended = false);
            let cfg = PipelineConfig { generation_interval: dur::secs(100), propagation_delay };
            let p = MetricsPipeline::start(&sim, r, cfg);
            sim.run_for(HORIZON + dur::secs(400));
            (sim.now(), p)
        };
        // Samples at 100 s, 200 s, … 1,000 s: those older than the
        // horizon (100 s to 300 s) are gone.
        let (now, p) = run(Duration::ZERO);
        let retained =
            p.visible_window(TenantId(2), now, dur::secs(1_000)).map_or(0, |w| w.samples);
        assert_eq!(retained, 7, "the horizon evicts exactly what it is past");
        // Behind a 700 s delay only samples up to 300 s are visible; the
        // newest of them, 700 s old, outlives the horizon.
        let (now, p) = run(dur::secs(700));
        let (t, _) = p.visible_usage(TenantId(2), now).expect("newest visible kept");
        assert_eq!(now.duration_since(t), dur::secs(700));
    }

    #[test]
    fn visible_window_filters_by_propagation() {
        let sim = Sim::new(1);
        let r = registry();
        r.add_tenant(TenantId(2), sim.now());
        r.with_tenant(TenantId(2), |e| e.suspended = false);
        let p = MetricsPipeline::start(&sim, r.clone(), PipelineConfig::direct());
        sim.run_for(dur::secs(31));
        let samples =
            p.visible_window(TenantId(2), sim.now(), dur::secs(30)).map_or(0, |w| w.samples);
        assert!(samples >= 9, "roughly one sample per 3s: {samples}");
    }
}
