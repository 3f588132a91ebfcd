//! Chaos soak: TPC-C-lite under a soak-scale deterministic fault
//! schedule, with invariant checks and a same-seed reproducibility
//! proof.
//!
//! ```sh
//! cargo run --release --bin chaos_soak -- --seed 7
//! ```
//!
//! Injects ≥ 50 faults — KV node crashes/restarts, SQL pod crashes,
//! pod-start failures, inter-region partitions, latency spikes — over a
//! 30-minute (virtual) window against a three-region deployment running
//! two TPC-C-lite tenants, then asserts:
//!
//! - no acknowledged commit is lost,
//! - no tenant ever reads another tenant's rows,
//! - sessions on crashed SQL pods resume via migration,
//! - running the same seed again yields a byte-identical fault log.

#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use crdb_bench::chaos::{run_chaos, ChaosOptions, ChaosReport};
use crdb_bench::header;
use crdb_sim::fault::FaultPlan;
use crdb_util::time::dur;

fn options(seed: u64) -> ChaosOptions {
    ChaosOptions {
        seed,
        // 3 regions × 3 KV nodes; the plan draws crash victims from all 9.
        plan: FaultPlan::soak(9, 3),
        workers: 4,
        think_time: dur::ms(200),
        cooldown: dur::secs(60),
    }
}

fn print_report(report: &ChaosReport) {
    println!("  faults injected:     {}", report.faults_injected);
    println!("  committed txns:      {}", report.committed);
    println!("  aborted txns:        {}", report.aborted);
    println!("  retries:             {}", report.retries);
    println!("  session migrations:  {}", report.migrations);
    println!("  dropped messages:    {}", report.dropped_messages);
    println!("  invariant violations: {}", report.violations.len());
    for v in &report.violations {
        println!("    VIOLATION: {v}");
    }
}

fn main() {
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "a bad argument stops the soak before it starts, naming the usage"
    )]
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed =
                    args.next().and_then(|v| v.parse().ok()).expect("--seed requires an integer");
            }
            other => panic!("unknown argument {other} (usage: chaos_soak [--seed N])"),
        }
    }

    header(&format!("Chaos soak, seed {seed}: TPC-C-lite under ≥50 deterministic faults"));
    let opts = options(seed);
    let report = run_chaos(&opts);
    print_report(&report);
    assert!(
        report.faults_injected >= 50,
        "soak plan must inject >= 50 faults, got {}",
        report.faults_injected
    );
    assert!(report.committed > 0, "workload made no progress under faults");
    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );

    header("Reproducibility: same seed, byte-identical fault log + metrics snapshot");
    let again = run_chaos(&options(seed));
    assert!(again.violations.is_empty(), "second run violated invariants");
    assert_eq!(report.log, again.log, "same-seed runs must produce byte-identical event logs");
    assert_eq!(
        report.metrics_snapshot, again.metrics_snapshot,
        "same-seed runs must produce byte-identical metrics snapshots"
    );
    println!("  {} log lines, identical across runs", report.log.lines().count());
    println!("  {} metric snapshot bytes, identical across runs", report.metrics_snapshot.len());
    println!("\nOK: soak clean, log + metrics reproducible (seed {seed})");
}
