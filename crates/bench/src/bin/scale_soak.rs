//! Paper-scale soak: Fig. 7(a) at 20,000 suspended tenants, a 1,000-idle
//! fleet and 100,000-session proxy churn — all self-gating.
//!
//! ```sh
//! cargo run --release --bin scale_soak            # full paper scale
//! cargo run --release --bin scale_soak -- --smoke # CI scale (2K/100/10K)
//! ```
//!
//! Gates (all scales):
//!
//! - **throughput floor**: the churn phase executes simulation events at
//!   or above a fixed events/sec floor;
//! - **memory per tenant**: resident-set growth per suspended tenant stays
//!   within a quarter of what this harness measures (an eighth of the
//!   paper's 262 KiB figure), and absolute peak RSS stays under a hard
//!   ceiling;
//! - **reproducibility**: running the churn phase twice with the same
//!   seed yields byte-identical progress logs and metrics snapshots.
//!
//! Emits `BENCH_SCALE.json` in the working directory; a `--smoke` run
//! emits `BENCH_SCALE.smoke.json` instead, so CI never overwrites the
//! committed full-scale result.

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

use crdb_bench::header;
use crdb_bench::scale::{
    rss_bytes, run_churn_phase, run_idle_phase, run_suspended_phase, ScaleOptions,
};

/// What a created-and-never-used tenant adds to resident memory, plus a
/// quarter: 6,877 B measured at the smoke run's 2K tenants (6,431 B at
/// 20K, where the deployment's fixed cost is spread thinner). The paper's
/// Fig. 7(a) asymptote is 262 KiB; gating on that would let the figure
/// grow fortyfold unnoticed.
const RSS_PER_TENANT_CEILING: u64 = 8_596;
/// Absolute peak-RSS ceiling for the whole soak.
const PEAK_RSS_CEILING: u64 = 8 << 30;
/// Churn-phase simulation throughput floor, events per wall second.
const EVENTS_PER_SEC_FLOOR: f64 = 20_000.0;

fn main() -> std::io::Result<()> {
    let mut seed = 11u64;
    let mut smoke = false;
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
            "--smoke" => smoke = true,
            other => panic!("unknown argument {other} (usage: scale_soak [--smoke] [--seed N])"),
        }
    }
    let opts = if smoke { ScaleOptions::smoke(seed) } else { ScaleOptions::full(seed) };
    let label = if smoke { "smoke" } else { "full" };

    header(&format!(
        "Scale soak ({label}, seed {seed}): {} suspended / {} idle / {} churn sessions",
        opts.suspended_tenants, opts.idle_tenants, opts.churn_sessions
    ));

    // Phase 1 — Fig. 7(a): suspended tenants. Runs first so its RSS delta
    // is not masked by an earlier phase's high-water mark.
    let suspended = run_suspended_phase(opts.seed, opts.suspended_tenants);
    println!(
        "suspended: {} tenants in {:.2}s wall  ({} steady events in {:.3}s, {} active, \
         {} KiB storage/tenant, {} KiB RSS/tenant)",
        suspended.tenants,
        suspended.wall_secs,
        suspended.steady_events,
        suspended.steady_wall_secs,
        suspended.active_tenants,
        suspended.storage_kib_per_tenant,
        suspended.rss_per_tenant_bytes / 1024,
    );
    assert_eq!(suspended.active_tenants, 0, "suspended tenants must not be active");
    assert!(
        suspended.rss_per_tenant_bytes <= RSS_PER_TENANT_CEILING,
        "per-tenant RSS {} KiB above the {} KiB ceiling",
        suspended.rss_per_tenant_bytes / 1024,
        RSS_PER_TENANT_CEILING / 1024
    );

    // Phase 2 — idle fleet: one open connection per tenant, no queries.
    let idle = run_idle_phase(opts.seed + 1, opts.idle_tenants);
    println!(
        "idle:      {} tenants, {} connections held, {} events in {:.2}s wall",
        idle.tenants, idle.connections, idle.events, idle.wall_secs
    );
    assert_eq!(idle.connections, idle.tenants, "every idle tenant holds one connection");

    // Phase 3 — proxy churn, run twice for the reproducibility gate.
    let churn = run_churn_phase(opts.seed + 2, opts.churn_sessions);
    println!(
        "churn:     {} sessions, {} connects, {} events in {:.2}s wall ({:.0} ev/s, \
         floor {EVENTS_PER_SEC_FLOOR:.0})",
        churn.sessions, churn.connects, churn.events, churn.wall_secs, churn.events_per_sec
    );
    assert!(
        churn.events_per_sec >= EVENTS_PER_SEC_FLOOR,
        "churn events/sec {:.0} below floor {EVENTS_PER_SEC_FLOOR:.0}",
        churn.events_per_sec
    );
    let again = run_churn_phase(opts.seed + 2, opts.churn_sessions);
    assert_eq!(churn.log, again.log, "same-seed churn runs must produce byte-identical logs");
    assert_eq!(
        churn.metrics_snapshot, again.metrics_snapshot,
        "same-seed churn runs must produce byte-identical metrics snapshots"
    );
    println!(
        "repro:     {} log lines and {} snapshot bytes, identical across runs",
        churn.log.lines().count(),
        churn.metrics_snapshot.len()
    );

    let (peak_rss, _) = rss_bytes();
    println!("peak RSS:  {} MiB (ceiling {} MiB)", peak_rss >> 20, PEAK_RSS_CEILING >> 20);
    assert!(
        peak_rss <= PEAK_RSS_CEILING,
        "peak RSS {} MiB above ceiling {} MiB",
        peak_rss >> 20,
        PEAK_RSS_CEILING >> 20
    );

    let mut json = String::from("{\n");
    json += &format!("  \"mode\": \"{label}\", \"seed\": {seed},\n");
    json += &format!(
        "  \"suspended\": {{\"tenants\": {}, \"wall_secs\": {:.3}, \"steady_events\": {}, \
         \"rss_per_tenant_bytes\": {}, \"storage_kib_per_tenant\": {}, \"active_tenants\": {}}},\n",
        suspended.tenants,
        suspended.wall_secs,
        suspended.steady_events,
        suspended.rss_per_tenant_bytes,
        suspended.storage_kib_per_tenant,
        suspended.active_tenants
    );
    json += &format!(
        "  \"idle\": {{\"tenants\": {}, \"connections\": {}, \"events\": {}, \"wall_secs\": {:.3}}},\n",
        idle.tenants, idle.connections, idle.events, idle.wall_secs
    );
    json += &format!(
        "  \"churn\": {{\"sessions\": {}, \"connects\": {}, \"events\": {}, \"wall_secs\": {:.3}, \
         \"events_per_sec\": {:.0}, \"log_identical\": true, \"snapshot_identical\": true}},\n",
        churn.sessions, churn.connects, churn.events, churn.wall_secs, churn.events_per_sec
    );
    json += &format!(
        "  \"gates\": {{\"events_per_sec_floor\": {EVENTS_PER_SEC_FLOOR}, \
         \"rss_per_tenant_ceiling\": {RSS_PER_TENANT_CEILING}, \
         \"peak_rss_ceiling\": {PEAK_RSS_CEILING}, \"peak_rss_bytes\": {peak_rss}}}\n"
    );
    json.push_str("}\n");
    let out = if smoke { "BENCH_SCALE.smoke.json" } else { "BENCH_SCALE.json" };
    std::fs::write(out, &json)?;
    println!("\nwrote {out}");
    println!("OK: scale soak clean ({label}, seed {seed})");
    Ok(())
}
