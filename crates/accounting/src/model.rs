//! The estimated-CPU model (§5.2.1).
//!
//! Each SQL query becomes a batched sequence of KV requests. The model
//! predicts KV-layer CPU from seven features of that traffic:
//!
//! 1. number of read batches,
//! 2. number of requests in each read batch,
//! 3. number of bytes in each read batch,
//! 4. number of write batches,
//! 5. number of requests in each write batch,
//! 6. number of bytes in each write batch,
//! 7. number of bounded (limit-pushed) scan requests — the plan class
//!    the cost-based planner emits for `LIMIT` queries, which returns
//!    few bytes but still pays a seek.
//!
//! The total estimate is the *sum of the sub-model predictions*. Each
//! sub-model is a piecewise-linear function of the feature's per-second
//! rate, because CPU efficiency improves with batching (Fig. 5: "the more
//! write batches that a given CRDB node processes per second, the more
//! efficient is its CPU usage"). A sub-model stores "units processed per
//! vCPU-second" as a function of the unit rate; predicted vCPUs for the
//! feature are `rate / units_per_vcpu(rate)`.

/// A monotone piecewise-linear curve `x → y` with flat extrapolation
/// beyond its endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    /// `(x, y)` knots with strictly increasing x.
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Builds a curve from knots (must have at least one, with strictly
    /// increasing x).
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one knot");
        assert!(points.is_sorted_by(|a, b| a.0 < b.0), "knot x values must be strictly increasing");
        PiecewiseLinear { points }
    }

    /// A constant curve.
    pub fn constant(y: f64) -> Self {
        PiecewiseLinear { points: vec![(0.0, y)] }
    }

    /// Evaluates the curve at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        let (Some(&(x_first, y_first)), Some(&(x_last, y_last))) = (pts.first(), pts.last()) else {
            return 0.0; // `new` refuses an empty curve
        };
        if x <= x_first {
            return y_first;
        }
        if x >= x_last {
            return y_last;
        }
        let i = pts.partition_point(|&(px, _)| px <= x);
        match (i.checked_sub(1).and_then(|j| pts.get(j)), pts.get(i)) {
            (Some(&(x0, y0)), Some(&(x1, y1))) => y0 + (y1 - y0) * (x - x0) / (x1 - x0),
            _ => y_last, // a NaN `x`
        }
    }

    /// The knots.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// One feature sub-model: units per vCPU-second as a function of unit
/// rate. CPU cost for a rate is `rate / units_per_vcpu(rate)` vCPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureModel {
    units_per_vcpu: PiecewiseLinear,
}

impl FeatureModel {
    /// Builds a feature model from a throughput curve.
    pub fn new(units_per_vcpu: PiecewiseLinear) -> Self {
        FeatureModel { units_per_vcpu }
    }

    /// Units one vCPU-second can process at the given unit rate.
    pub fn units_per_vcpu(&self, rate: f64) -> f64 {
        self.units_per_vcpu.eval(rate).max(1e-9)
    }

    /// Predicted vCPUs consumed by `rate` units/second.
    pub fn vcpus_at_rate(&self, rate: f64) -> f64 {
        if rate <= 0.0 {
            0.0
        } else {
            rate / self.units_per_vcpu(rate)
        }
    }

    /// The knots of the underlying piecewise-linear throughput curve.
    pub fn units_per_vcpu_knots(&self) -> &[(f64, f64)] {
        self.units_per_vcpu.points()
    }
}

/// Aggregated KV traffic over an interval — the whole-workload input used
/// for billing and the Fig. 11 accuracy experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadFeatures {
    /// Read batches per second.
    pub read_batches_per_sec: f64,
    /// Mean requests per read batch.
    pub read_requests_per_batch: f64,
    /// Mean bytes per read batch.
    pub read_bytes_per_batch: f64,
    /// Write batches per second.
    pub write_batches_per_sec: f64,
    /// Mean requests per write batch.
    pub write_requests_per_batch: f64,
    /// Mean bytes per write batch.
    pub write_bytes_per_batch: f64,
    /// Bounded (limit-pushed) scan requests per second.
    pub bounded_scans_per_sec: f64,
}

/// The seven-sub-model estimated-CPU model.
#[derive(Debug, Clone)]
pub struct EcpuModel {
    /// Read batches: batches per vCPU-second vs batch rate.
    pub read_batch: FeatureModel,
    /// Extra read requests beyond the first per batch.
    pub read_request: FeatureModel,
    /// Read payload bytes.
    pub read_bytes: FeatureModel,
    /// Write batches.
    pub write_batch: FeatureModel,
    /// Extra write requests beyond the first per batch.
    pub write_request: FeatureModel,
    /// Write payload bytes.
    pub write_bytes: FeatureModel,
    /// Bounded (limit-pushed) scan requests: the seek overhead a bounded
    /// scan pays beyond its (small) byte count.
    pub bounded_scan: FeatureModel,
}

impl EcpuModel {
    /// A hand-calibrated default (used before training, and as the
    /// starting point for tests). Throughputs are "units per vCPU-second"
    /// and rise with rate to capture batching economies.
    pub fn default_model() -> Self {
        EcpuModel {
            read_batch: FeatureModel::new(PiecewiseLinear::new(vec![
                (0.0, 20_000.0),
                (5_000.0, 35_000.0),
                (50_000.0, 60_000.0),
            ])),
            read_request: FeatureModel::new(PiecewiseLinear::constant(400_000.0)),
            read_bytes: FeatureModel::new(PiecewiseLinear::constant(400.0e6)),
            // Write-side throughputs are calibrated against a dedicated
            // cluster and therefore *include* follower-replication CPU
            // (~1.6x the leaseholder's work at replication factor 3).
            write_batch: FeatureModel::new(PiecewiseLinear::new(vec![
                (0.0, 5_000.0),
                (5_000.0, 7_500.0),
                (50_000.0, 12_600.0),
            ])),
            write_request: FeatureModel::new(PiecewiseLinear::constant(96_000.0)),
            write_bytes: FeatureModel::new(PiecewiseLinear::constant(78.0e6)),
            // A bounded scan is a seek plus a short forward read; the
            // premium over an ordinary read request is small.
            bounded_scan: FeatureModel::new(PiecewiseLinear::constant(800_000.0)),
        }
    }

    /// Returns a copy whose per-unit costs are multiplied by `factor`
    /// (throughputs divided) and whose rate axis is compressed by the same
    /// factor — matching `CostModel::scaled`, under which equivalent
    /// operating points sit at proportionally lower request rates.
    pub fn scaled(&self, factor: f64) -> EcpuModel {
        let scale = |m: &FeatureModel| {
            FeatureModel::new(PiecewiseLinear::new(
                m.units_per_vcpu_knots().iter().map(|&(x, y)| (x / factor, y / factor)).collect(),
            ))
        };
        EcpuModel {
            read_batch: scale(&self.read_batch),
            read_request: scale(&self.read_request),
            read_bytes: scale(&self.read_bytes),
            write_batch: scale(&self.write_batch),
            write_request: scale(&self.write_request),
            write_bytes: scale(&self.write_bytes),
            bounded_scan: scale(&self.bounded_scan),
        }
    }

    /// Predicted KV vCPUs for a sustained workload (the sum of the seven
    /// sub-model predictions).
    pub fn estimate_vcpus(&self, f: &WorkloadFeatures) -> f64 {
        let read_req_rate = f.read_batches_per_sec * (f.read_requests_per_batch - 1.0).max(0.0);
        let read_byte_rate = f.read_batches_per_sec * f.read_bytes_per_batch;
        let write_req_rate = f.write_batches_per_sec * (f.write_requests_per_batch - 1.0).max(0.0);
        let write_byte_rate = f.write_batches_per_sec * f.write_bytes_per_batch;
        self.read_batch.vcpus_at_rate(f.read_batches_per_sec)
            + self.read_request.vcpus_at_rate(read_req_rate)
            + self.read_bytes.vcpus_at_rate(read_byte_rate)
            + self.write_batch.vcpus_at_rate(f.write_batches_per_sec)
            + self.write_request.vcpus_at_rate(write_req_rate)
            + self.write_bytes.vcpus_at_rate(write_byte_rate)
            + self.bounded_scan.vcpus_at_rate(f.bounded_scans_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piecewise_interpolates_and_clamps() {
        let c = PiecewiseLinear::new(vec![(0.0, 10.0), (10.0, 20.0), (20.0, 40.0)]);
        assert_eq!(c.eval(-5.0), 10.0);
        assert_eq!(c.eval(0.0), 10.0);
        assert_eq!(c.eval(5.0), 15.0);
        assert_eq!(c.eval(15.0), 30.0);
        assert_eq!(c.eval(100.0), 40.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_rejects_unsorted() {
        PiecewiseLinear::new(vec![(1.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    fn batching_economies_reduce_marginal_cost() {
        let m = EcpuModel::default_model();
        let slow = m.write_batch.vcpus_at_rate(10.0) / 10.0;
        let fast = m.write_batch.vcpus_at_rate(50_000.0) / 50_000.0;
        assert!(fast < slow, "high batch rates are cheaper per batch: {fast} < {slow}");
    }

    #[test]
    fn estimate_scales_roughly_linearly_in_rate_at_fixed_efficiency() {
        let m = EcpuModel::default_model();
        let base = WorkloadFeatures {
            write_batches_per_sec: 60_000.0,
            write_requests_per_batch: 2.0,
            write_bytes_per_batch: 200.0,
            ..Default::default()
        };
        let double = WorkloadFeatures { write_batches_per_sec: 120_000.0, ..base };
        let a = m.estimate_vcpus(&base);
        let b = m.estimate_vcpus(&double);
        // Beyond the last knot efficiency is flat, so cost doubles.
        assert!((b / a - 2.0).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn sum_of_submodels() {
        let m = EcpuModel::default_model();
        let reads_only = WorkloadFeatures {
            read_batches_per_sec: 1000.0,
            read_requests_per_batch: 1.0,
            read_bytes_per_batch: 64.0,
            ..Default::default()
        };
        let writes_only = WorkloadFeatures {
            write_batches_per_sec: 1000.0,
            write_requests_per_batch: 1.0,
            write_bytes_per_batch: 64.0,
            ..Default::default()
        };
        let both = WorkloadFeatures {
            read_batches_per_sec: 1000.0,
            read_requests_per_batch: 1.0,
            read_bytes_per_batch: 64.0,
            write_batches_per_sec: 1000.0,
            write_requests_per_batch: 1.0,
            write_bytes_per_batch: 64.0,
            bounded_scans_per_sec: 0.0,
        };
        let sum = m.estimate_vcpus(&reads_only) + m.estimate_vcpus(&writes_only);
        assert!((m.estimate_vcpus(&both) - sum).abs() < 1e-12);
    }

    #[test]
    fn bounded_scans_add_cost() {
        let m = EcpuModel::default_model();
        let base = WorkloadFeatures {
            read_batches_per_sec: 1000.0,
            read_requests_per_batch: 1.0,
            read_bytes_per_batch: 64.0,
            ..Default::default()
        };
        let with = WorkloadFeatures { bounded_scans_per_sec: 1000.0, ..base };
        assert!(m.estimate_vcpus(&with) > m.estimate_vcpus(&base));
    }

    /// One feature set at 1,000 batches/s: `requests` per batch of
    /// `bytes` each, all reads or all writes.
    fn uniform(is_write: bool, requests: f64, bytes: f64) -> WorkloadFeatures {
        if is_write {
            WorkloadFeatures {
                write_batches_per_sec: 1000.0,
                write_requests_per_batch: requests,
                write_bytes_per_batch: bytes,
                ..Default::default()
            }
        } else {
            WorkloadFeatures {
                read_batches_per_sec: 1000.0,
                read_requests_per_batch: requests,
                read_bytes_per_batch: bytes,
                ..Default::default()
            }
        }
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let m = EcpuModel::default_model();
        let read = m.estimate_vcpus(&uniform(false, 1.0, 64.0));
        let write = m.estimate_vcpus(&uniform(true, 1.0, 64.0));
        assert!(write > read, "write {write} > read {read}");
    }

    #[test]
    fn extra_requests_and_bytes_add_cost() {
        let m = EcpuModel::default_model();
        let base = m.estimate_vcpus(&uniform(false, 1.0, 0.0));
        assert!(m.estimate_vcpus(&uniform(false, 10.0, 0.0)) > base);
        assert!(m.estimate_vcpus(&uniform(false, 1.0, 100_000.0)) > base);
    }
}
