//! Ablation — the autoscaler's combined rule (§4.2.3).
//!
//! The paper's target is `max(4 × avg, 1.33 × max)` over a 5-minute
//! window: "a moving average for stability with an instantaneous maximum
//! for responsiveness". This ablation replays a bursty usage trace
//! through three policies — combined, average-only, and max-only — and
//! scores under-provisioned time (capacity below instantaneous demand)
//! against allocated node-minutes (cost).

use crate::header;
use crdb_serverless::autoscaler::{target_nodes, ScaleInputs};
use crdb_sql::node::NODE_VCPUS;

/// A synthetic vCPU-demand trace sampled at 3 s: a quiet baseline with an
/// abrupt spike, mirroring §4.2.3's example (avg 2.5 spiking to 11).
fn demand_trace() -> Vec<f64> {
    let mut t = vec![1.8; 100];
    t.extend(std::iter::repeat_n(15.0, 12)); // abrupt spike
    t.extend(std::iter::repeat_n(6.0, 60));
    t.extend(std::iter::repeat_n(1.0, 100));
    t
}

#[derive(Clone, Copy)]
enum Policy {
    Combined,
    AvgOnly,
    MaxOnly,
}

fn replay(policy: Policy) -> (f64, f64, usize) {
    let trace = demand_trace();
    let window = 100usize; // 5 min of 3s samples
    let mut under_secs = 0.0;
    let mut node_seconds = 0.0;
    let mut max_nodes = 0usize;
    for (i, &demand) in trace.iter().enumerate() {
        let samples = trace.get(i.saturating_sub(window)..=i).unwrap_or_default();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        let max = samples.iter().copied().fold(0.0, f64::max);
        let inputs = match policy {
            Policy::Combined => ScaleInputs { avg, max },
            Policy::AvgOnly => ScaleInputs { avg, max: 0.0 },
            Policy::MaxOnly => ScaleInputs { avg: 0.0, max },
        };
        let nodes = target_nodes(inputs).max(1);
        max_nodes = max_nodes.max(nodes);
        let capacity = nodes as f64 * NODE_VCPUS;
        if capacity < demand {
            under_secs += 3.0;
        }
        node_seconds += nodes as f64 * 3.0;
    }
    (under_secs, node_seconds / 60.0, max_nodes)
}

pub fn run() {
    header("Ablation: autoscaler target rule (combined vs avg-only vs max-only)");
    println!(
        "{:>10} {:>18} {:>16} {:>10}",
        "policy", "under-provisioned", "node-minutes", "max nodes"
    );
    for (name, policy) in [
        ("combined", Policy::Combined),
        ("avg-only", Policy::AvgOnly),
        ("max-only", Policy::MaxOnly),
    ] {
        let (under, node_min, max_nodes) = replay(policy);
        println!("{name:>10} {under:>17.0}s {node_min:>16.1} {max_nodes:>10}");
    }
    println!("\nExpected: avg-only under-provisions through the spike; max-only");
    println!("over-allocates long after it; the combined rule does neither.");
}
