//! Ablation — six-feature piecewise-linear eCPU model vs a single linear
//! per-byte model (§5.2.1 / §7).
//!
//! The paper decomposes estimated CPU into six feature sub-models with
//! piecewise-linear efficiency curves. A natural simpler alternative —
//! one linear coefficient per byte transferred — cannot capture batching
//! economies or the read/write asymmetry. Both models are fitted to the
//! same controlled sweeps and evaluated on held-out mixed workloads
//! against the ground-truth cost model.

use crate::header;
use crdb_accounting::model::WorkloadFeatures;
use crdb_accounting::training::train_model;
use crdb_kv::cost::CostModel;

/// Ground truth: the simulator's cost model (reads + writes with
/// follower amplification), expressed in vCPUs for a sustained workload.
fn ground_truth(truth: &CostModel, w: &WorkloadFeatures) -> f64 {
    let follower = 1.0 + 2.0 * truth.follower_apply_fraction;
    let mut cpu = 0.0;
    if w.read_batches_per_sec > 0.0 {
        let frac = w.read_batches_per_sec / (w.read_batches_per_sec + truth.economy_half_rate);
        let base = truth.read_batch_base_slow
            + (truth.read_batch_base_fast - truth.read_batch_base_slow) * frac;
        let per_batch = base
            + w.read_requests_per_batch * truth.read_request_cost
            + w.read_bytes_per_batch * truth.read_byte_cost;
        cpu += w.read_batches_per_sec * per_batch;
    }
    if w.write_batches_per_sec > 0.0 {
        let frac = w.write_batches_per_sec / (w.write_batches_per_sec + truth.economy_half_rate);
        let base = truth.write_batch_base_slow
            + (truth.write_batch_base_fast - truth.write_batch_base_slow) * frac;
        let per_batch = base
            + w.write_requests_per_batch * truth.write_request_cost
            + w.write_bytes_per_batch * truth.write_byte_cost;
        cpu += w.write_batches_per_sec * per_batch * follower;
    }
    cpu
}

pub fn run() {
    header("Ablation: six-feature eCPU model vs single linear bytes model");
    let truth = CostModel::default();

    // Fit the six-feature model with the paper's controlled sweeps.
    let six = train_model(|w| ground_truth(&truth, w));

    // Fit the single-coefficient model (vCPU per byte moved) on the same
    // sweep data: least squares through the origin.
    let mut num = 0.0;
    let mut den = 0.0;
    for &rate in crdb_accounting::training::BATCH_RATE_GRID {
        for feature in [
            crdb_accounting::training::Feature::ReadBatch,
            crdb_accounting::training::Feature::WriteBatch,
        ] {
            let w = crdb_accounting::training::sweep_workload(feature, rate);
            let bytes = w.read_batches_per_sec * w.read_bytes_per_batch
                + w.write_batches_per_sec * w.write_bytes_per_batch;
            let cpu = ground_truth(&truth, &w);
            num += bytes * cpu;
            den += bytes * bytes;
        }
    }
    let per_byte = num / den;

    // Held-out evaluation mixes.
    let mixes: Vec<(&str, WorkloadFeatures)> = vec![
        (
            "point reads",
            WorkloadFeatures {
                read_batches_per_sec: 20_000.0,
                read_requests_per_batch: 1.0,
                read_bytes_per_batch: 64.0,
                ..Default::default()
            },
        ),
        (
            "fat scans",
            WorkloadFeatures {
                read_batches_per_sec: 50.0,
                read_requests_per_batch: 1.0,
                read_bytes_per_batch: 1_000_000.0,
                ..Default::default()
            },
        ),
        (
            "oltp mix",
            WorkloadFeatures {
                read_batches_per_sec: 8_000.0,
                read_requests_per_batch: 3.0,
                read_bytes_per_batch: 512.0,
                write_batches_per_sec: 2_000.0,
                write_requests_per_batch: 4.0,
                write_bytes_per_batch: 700.0,
                ..Default::default()
            },
        ),
        (
            "write heavy",
            WorkloadFeatures {
                write_batches_per_sec: 10_000.0,
                write_requests_per_batch: 2.0,
                write_bytes_per_batch: 256.0,
                ..Default::default()
            },
        ),
        (
            "bulk import",
            WorkloadFeatures {
                write_batches_per_sec: 500.0,
                write_requests_per_batch: 50.0,
                write_bytes_per_batch: 100_000.0,
                ..Default::default()
            },
        ),
    ];

    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "workload", "truth vCPU", "6-feat est", "linear est", "6-feat err", "linear err"
    );
    let mut six_errs = Vec::new();
    let mut lin_errs = Vec::new();
    for (name, w) in &mixes {
        let truth_cpu = ground_truth(&truth, w);
        let six_est = six.estimate_vcpus(w);
        let bytes = w.read_batches_per_sec * w.read_bytes_per_batch
            + w.write_batches_per_sec * w.write_bytes_per_batch;
        let lin_est = bytes * per_byte;
        let e6 = (six_est / truth_cpu - 1.0) * 100.0;
        let el = (lin_est / truth_cpu - 1.0) * 100.0;
        six_errs.push(e6.abs());
        lin_errs.push(el.abs());
        println!(
            "{name:>12} {truth_cpu:>12.3} {six_est:>14.3} {lin_est:>14.3} {e6:>9.1}% {el:>9.1}%"
        );
    }
    let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean |error|: six-feature {:.1}%  vs  single-linear {:.1}%",
        avg(&six_errs),
        avg(&lin_errs)
    );
}
