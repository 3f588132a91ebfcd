//! End-to-end chaos test: a small seeded fault schedule against the full
//! serverless stack running TPC-C-lite, with the soak invariants.

use crdb_bench::chaos::{run_chaos, ChaosOptions};
use crdb_sim::fault::FaultPlan;
use crdb_util::time::dur;

fn options(seed: u64) -> ChaosOptions {
    ChaosOptions {
        seed,
        plan: FaultPlan::small(9, 3),
        workers: 2,
        think_time: dur::ms(300),
        cooldown: dur::secs(45),
    }
}

#[test]
fn chaos_small_plan_holds_invariants_and_replays() {
    let report = run_chaos(&options(5));
    assert!(
        report.faults_injected >= 10,
        "small plan injects its events: {}",
        report.faults_injected
    );
    assert!(report.committed > 0, "workload progresses under faults");
    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );

    // Same seed replays to a byte-identical fault log and a
    // byte-identical metrics snapshot.
    let again = run_chaos(&options(5));
    assert_eq!(report.log, again.log);
    assert_eq!(
        report.metrics_snapshot, again.metrics_snapshot,
        "same-seed runs must produce byte-identical metrics snapshots"
    );
    assert!(report.metrics_snapshot.contains("proxy.connects"), "snapshot covers the proxy layer");
    assert!(
        report.metrics_snapshot.contains("kv.node.1.storage.flush_bytes"),
        "snapshot covers the storage layer"
    );
    assert!(again.violations.is_empty());
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = run_chaos(&options(5));
    let b = run_chaos(&options(6));
    assert_ne!(a.log, b.log);
    assert!(b.violations.is_empty(), "{:?}", b.violations);
}
