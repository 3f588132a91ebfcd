//! Figure 5 — "Write batches per second determines CPU usage."
//!
//! The paper derives per-feature cost curves from controlled tests that
//! vary one input at a time; Fig. 5 shows that the more write batches a
//! node processes per second, the more efficient its CPU usage, and the
//! curve is approximated piecewise-linearly.
//!
//! This experiment (a) sweeps the *ground-truth* cost model to print the
//! real curve, and (b) trains the six-feature estimated-CPU model from
//! controlled sweeps against that ground truth and prints the fitted
//! piecewise-linear approximation, reproducing the training methodology of
//! §5.2.1.

use crate::header;
use crdb_accounting::training::{sweep_workload, train_model, Feature};
use crdb_kv::cost::CostModel;

pub fn run() {
    header("Figure 5: write batches/s vs CPU efficiency (ground truth vs fitted model)");

    let truth = CostModel::default();
    println!(
        "{:>14} {:>22} {:>22} {:>10}",
        "batches/s", "truth batches/vCPU", "fitted batches/vCPU", "err"
    );

    // Train the estimated-CPU model against an oracle backed by the
    // ground-truth cost model (batch of 1 request, 64 bytes).
    let oracle = |w: &crdb_accounting::model::WorkloadFeatures| -> f64 {
        // vCPUs = read side + write side, from the ground-truth per-batch
        // costs at the given rates.
        let read_cpu = if w.read_batches_per_sec > 0.0 {
            let per = 1.0
                / read_batches_per_vcpu(
                    &truth,
                    w.read_batches_per_sec,
                    w.read_requests_per_batch.max(1.0) as u64,
                    w.read_bytes_per_batch as u64,
                );
            w.read_batches_per_sec * per
        } else {
            0.0
        };
        let write_cpu = if w.write_batches_per_sec > 0.0 {
            let per = 1.0
                / truth.write_batches_per_vcpu(
                    w.write_batches_per_sec,
                    w.write_requests_per_batch.max(1.0) as u64,
                    w.write_bytes_per_batch as u64,
                );
            w.write_batches_per_sec * per
        } else {
            0.0
        };
        read_cpu + write_cpu
    };
    let model = train_model(oracle);

    for rate in [100.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0] {
        let truth_tput = truth.write_batches_per_vcpu(rate, 1, 64);
        let fitted_tput = model.write_batch.units_per_vcpu(rate);
        let err = (fitted_tput - truth_tput).abs() / truth_tput;
        println!("{rate:>14.0} {truth_tput:>22.0} {fitted_tput:>22.0} {:>9.1}%", err * 100.0);
    }

    println!("\nFitted knots of the write-batch piecewise-linear curve:");
    for (x, y) in model.write_batch.units_per_vcpu_knots() {
        println!("  rate {x:>9.0} batches/s -> {y:>9.0} batches per vCPU-second");
    }
    println!("\nShape check (paper): throughput per vCPU RISES with batch rate");
    let low = truth.write_batches_per_vcpu(100.0, 1, 64);
    let high = truth.write_batches_per_vcpu(50_000.0, 1, 64);
    println!("  ground truth: {low:.0} -> {high:.0} ({:.2}x)", high / low);
    let w = sweep_workload(Feature::WriteBatch, 1_000.0);
    println!("  (sweep isolates write batches: read side held at {} b/s)", w.read_batches_per_sec);
}

/// Read-side analogue of `write_batches_per_vcpu` (the cost model only
/// exposes the write curve publicly; reads use the same economy shape).
fn read_batches_per_vcpu(m: &CostModel, rate: f64, requests: u64, bytes: u64) -> f64 {
    let frac = rate / (rate + m.economy_half_rate);
    let base = m.read_batch_base_slow + (m.read_batch_base_fast - m.read_batch_base_slow) * frac;
    1.0 / (base + requests as f64 * m.read_request_cost + bytes as f64 * m.read_byte_cost)
}
