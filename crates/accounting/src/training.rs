//! Training the estimated-CPU model (§5.2.1).
//!
//! "We trained the smaller models by analyzing CPU consumption differences
//! across controlled tests that isolate each metric in turn. For example,
//! the cost of a write batch can be derived by running a test that varies
//! only the number of write batches per second, while keeping all other
//! input features constant."
//!
//! [`train_model`] does exactly that against a caller-provided oracle — a
//! function from [`WorkloadFeatures`] to measured vCPUs (in the
//! reproduction, the simulator's ground-truth cost model running on a
//! dedicated-style cluster). For each of the six features it sweeps the
//! feature across a rate grid, measures marginal CPU, and fits the
//! piecewise-linear efficiency curve.

use crate::model::{EcpuModel, FeatureModel, PiecewiseLinear, WorkloadFeatures};

/// Which feature a controlled sweep isolates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Read batches per second.
    ReadBatch,
    /// Requests per read batch.
    ReadRequest,
    /// Bytes per read batch.
    ReadBytes,
    /// Write batches per second.
    WriteBatch,
    /// Requests per write batch.
    WriteRequest,
    /// Bytes per write batch.
    WriteBytes,
    /// Bounded (limit-pushed) scan requests per second.
    BoundedScan,
}

/// Sweep grid for batch-rate features (batches per second).
pub const BATCH_RATE_GRID: &[f64] = &[200.0, 1_000.0, 5_000.0, 20_000.0, 50_000.0];

/// Builds the workload for one sweep point: the isolated feature set to
/// `value`, all other features held at a small constant baseline.
pub fn sweep_workload(feature: Feature, value: f64) -> WorkloadFeatures {
    // Baselines: enough traffic that the oracle is in a realistic regime,
    // constant across the sweep so differences isolate the feature.
    let mut w = WorkloadFeatures {
        read_batches_per_sec: 500.0,
        read_requests_per_batch: 1.0,
        read_bytes_per_batch: 64.0,
        write_batches_per_sec: 500.0,
        write_requests_per_batch: 1.0,
        write_bytes_per_batch: 64.0,
        bounded_scans_per_sec: 0.0,
    };
    match feature {
        Feature::ReadBatch => w.read_batches_per_sec = value,
        Feature::ReadRequest => w.read_requests_per_batch = value,
        Feature::ReadBytes => w.read_bytes_per_batch = value,
        Feature::WriteBatch => w.write_batches_per_sec = value,
        Feature::WriteRequest => w.write_requests_per_batch = value,
        Feature::WriteBytes => w.write_bytes_per_batch = value,
        Feature::BoundedScan => w.bounded_scans_per_sec = value,
    }
    w
}

/// Fits a batch-rate feature curve: for each grid rate, measure total CPU
/// with the feature at that rate and with the feature near zero; the
/// difference attributes CPU to the feature, and `rate / cpu` is the
/// throughput knot.
fn fit_batch_feature(
    feature: Feature,
    oracle: &mut dyn FnMut(&WorkloadFeatures) -> f64,
) -> FeatureModel {
    let mut knots = Vec::new();
    for &rate in BATCH_RATE_GRID {
        let with = oracle(&sweep_workload(feature, rate));
        let without = oracle(&sweep_workload(feature, 0.0));
        let cpu = (with - without).max(1e-9);
        knots.push((rate, rate / cpu));
    }
    knots.sort_by(|a, b| a.0.total_cmp(&b.0));
    knots.dedup_by(|a, b| a.0 == b.0);
    FeatureModel::new(PiecewiseLinear::new(knots))
}

/// Fits a per-unit feature (requests-per-batch or bytes-per-batch): vary
/// the per-batch value at a fixed batch rate and fit the marginal cost per
/// unit as a single-knot (constant-throughput) curve.
fn fit_per_unit_feature(
    feature: Feature,
    low: f64,
    high: f64,
    batch_rate_of: impl Fn(&WorkloadFeatures) -> f64,
    oracle: &mut dyn FnMut(&WorkloadFeatures) -> f64,
) -> FeatureModel {
    let w_low = sweep_workload(feature, low);
    let w_high = sweep_workload(feature, high);
    let cpu_low = oracle(&w_low);
    let cpu_high = oracle(&w_high);
    let rate = batch_rate_of(&w_low);
    // Marginal CPU per extra unit per batch, scaled by batch rate to get
    // CPU per unit/second.
    let unit_rate_delta = (high - low) * rate;
    let cpu_delta = (cpu_high - cpu_low).max(1e-12);
    let units_per_vcpu = unit_rate_delta / cpu_delta;
    FeatureModel::new(PiecewiseLinear::constant(units_per_vcpu))
}

/// Trains a full seven-feature model against a ground-truth oracle.
pub fn train_model(mut oracle: impl FnMut(&WorkloadFeatures) -> f64) -> EcpuModel {
    let read_batch = fit_batch_feature(Feature::ReadBatch, &mut oracle);
    let write_batch = fit_batch_feature(Feature::WriteBatch, &mut oracle);
    let read_request = fit_per_unit_feature(
        Feature::ReadRequest,
        1.0,
        16.0,
        |w| w.read_batches_per_sec,
        &mut oracle,
    );
    let write_request = fit_per_unit_feature(
        Feature::WriteRequest,
        1.0,
        16.0,
        |w| w.write_batches_per_sec,
        &mut oracle,
    );
    let read_bytes = fit_per_unit_feature(
        Feature::ReadBytes,
        64.0,
        65_536.0,
        |w| w.read_batches_per_sec,
        &mut oracle,
    );
    let write_bytes = fit_per_unit_feature(
        Feature::WriteBytes,
        64.0,
        65_536.0,
        |w| w.write_batches_per_sec,
        &mut oracle,
    );
    // Bounded scans are already a per-second rate, so the "batch rate"
    // multiplier is identity.
    let bounded_scan =
        fit_per_unit_feature(Feature::BoundedScan, 0.0, 2_000.0, |_| 1.0, &mut oracle);
    EcpuModel {
        read_batch,
        read_request,
        read_bytes,
        write_batch,
        write_request,
        write_bytes,
        bounded_scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic ground truth with mildly non-linear batch costs — the
    /// kind of function training must recover.
    fn synthetic_oracle(w: &WorkloadFeatures) -> f64 {
        fn batch_cpu(rate: f64, base_tput: f64, max_tput: f64) -> f64 {
            if rate <= 0.0 {
                return 0.0;
            }
            // Throughput improves with rate, saturating at max_tput.
            let tput = base_tput + (max_tput - base_tput) * (rate / (rate + 10_000.0));
            rate / tput
        }
        batch_cpu(w.read_batches_per_sec, 20_000.0, 60_000.0)
            + batch_cpu(w.write_batches_per_sec, 8_000.0, 24_000.0)
            + w.read_batches_per_sec * (w.read_requests_per_batch - 1.0).max(0.0) / 400_000.0
            + w.write_batches_per_sec * (w.write_requests_per_batch - 1.0).max(0.0) / 150_000.0
            + w.read_batches_per_sec * w.read_bytes_per_batch / 400.0e6
            + w.write_batches_per_sec * w.write_bytes_per_batch / 120.0e6
            + w.bounded_scans_per_sec / 600_000.0
    }

    #[test]
    fn trained_model_matches_oracle_on_training_points() {
        let model = train_model(synthetic_oracle);
        for &rate in BATCH_RATE_GRID {
            let w = sweep_workload(Feature::WriteBatch, rate);
            let est = model.estimate_vcpus(&w);
            let truth = synthetic_oracle(&w);
            let err = (est - truth).abs() / truth;
            assert!(err < 0.15, "rate {rate}: est {est} vs truth {truth} ({err:.3})");
        }
    }

    #[test]
    fn trained_model_generalizes_to_held_out_mixes() {
        let model = train_model(synthetic_oracle);
        // Mixed workloads never seen during training.
        let mixes = [
            WorkloadFeatures {
                read_batches_per_sec: 8_000.0,
                read_requests_per_batch: 4.0,
                read_bytes_per_batch: 1_024.0,
                write_batches_per_sec: 2_000.0,
                write_requests_per_batch: 3.0,
                write_bytes_per_batch: 512.0,
                bounded_scans_per_sec: 500.0,
            },
            WorkloadFeatures {
                read_batches_per_sec: 30_000.0,
                read_requests_per_batch: 2.0,
                read_bytes_per_batch: 256.0,
                write_batches_per_sec: 15_000.0,
                write_requests_per_batch: 8.0,
                write_bytes_per_batch: 2_048.0,
                bounded_scans_per_sec: 0.0,
            },
        ];
        for w in &mixes {
            let est = model.estimate_vcpus(w);
            let truth = synthetic_oracle(w);
            let err = (est - truth).abs() / truth;
            assert!(err < 0.2, "est {est} vs truth {truth} ({err:.3})");
        }
    }

    #[test]
    fn sweep_workload_isolates_one_feature() {
        let a = sweep_workload(Feature::WriteBatch, 1_000.0);
        let b = sweep_workload(Feature::WriteBatch, 9_000.0);
        assert_eq!(a.read_batches_per_sec, b.read_batches_per_sec);
        assert_eq!(a.read_bytes_per_batch, b.read_bytes_per_batch);
        assert_ne!(a.write_batches_per_sec, b.write_batches_per_sec);
    }

    #[test]
    fn batch_curve_captures_efficiency_gain() {
        let model = train_model(synthetic_oracle);
        let slow = model.write_batch.units_per_vcpu(200.0);
        let fast = model.write_batch.units_per_vcpu(50_000.0);
        assert!(fast > slow * 1.5, "throughput rises with rate: {slow} -> {fast}");
    }
}
