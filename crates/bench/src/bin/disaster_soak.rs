//! Disaster soak: TPC-C-lite across three regions under a scripted
//! region-scale disaster, with blast-radius invariants and a same-seed
//! reproducibility proof.
//!
//! ```sh
//! cargo run --release --bin disaster_soak -- --seed 11
//! ```
//!
//! The script kills region 1 for 60 virtual seconds — with a pod-start
//! failure burst landing just before and a 3× latency spike straddling
//! the outage — against three tenants homed one per region, then
//! asserts:
//!
//! - no acknowledged commit is lost, including the victim tenant's,
//! - no tenant ever reads another tenant's rows,
//! - tenants in the two healthy regions keep their per-statement p99
//!   under the statement deadline (bounded blast radius),
//! - failures degrade gracefully and visibly: warm slots burned,
//!   deadlines/breakers/sheds fired — no unbounded hangs,
//! - running the same seed again yields a byte-identical fault log and
//!   metrics snapshot.

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

use crdb_bench::disaster::{run_disaster, DisasterOptions, DisasterReport};
use crdb_bench::header;

fn print_report(report: &DisasterReport) {
    println!("  faults injected:      {}", report.faults_injected);
    println!("  committed txns:       {}", report.committed);
    println!("  aborted txns:         {}", report.aborted);
    println!("  warm slots burned:    {}", report.slots_lost);
    println!("  statements shed:      {}", report.shed_statements);
    println!("  breaker fast-fails:   {}", report.breaker_fast_fails);
    println!("  partition fast-fails: {}", report.partition_fast_fails);
    println!("  deadline exceeded:    {}", report.deadline_exceeded);
    for (tag, p99) in &report.healthy_p99 {
        println!("  healthy p99 ({tag}):   {p99:?}");
    }
    println!("  invariant violations: {}", report.violations.len());
    for v in &report.violations {
        println!("    VIOLATION: {v}");
    }
}

fn main() {
    let mut seed = 11u64;
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
            other => panic!("unknown argument {other} (usage: disaster_soak [--seed N])"),
        }
    }

    header(&format!("Disaster soak, seed {seed}: scripted region-1 outage + spike + burst"));
    let report = run_disaster(&DisasterOptions::soak(seed));
    print_report(&report);
    assert!(report.committed > 0, "workload made no progress");
    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );

    header("Reproducibility: same seed, byte-identical fault log + metrics snapshot");
    let again = run_disaster(&DisasterOptions::soak(seed));
    assert!(again.violations.is_empty(), "second run violated invariants");
    assert_eq!(report.log, again.log, "same-seed runs must produce byte-identical event logs");
    assert_eq!(
        report.metrics_snapshot, again.metrics_snapshot,
        "same-seed runs must produce byte-identical metrics snapshots"
    );
    println!("  {} log lines, identical across runs", report.log.lines().count());
    println!("  {} metric snapshot bytes, identical across runs", report.metrics_snapshot.len());
    println!("\nOK: disaster clean, degradation bounded, log + metrics reproducible (seed {seed})");
}
