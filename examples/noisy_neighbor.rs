//! Performance isolation between tenants (§5, §6.6).
//!
//! ```sh
//! cargo run --release --example noisy_neighbor
//! ```
//!
//! Two virtual clusters share the same KV hardware: a "noisy" tenant
//! hammering writes in a tight loop, and a "victim" running light point
//! reads. Admission control keeps the victim's latency bounded, and an
//! estimated-CPU quota on the noisy tenant caps its consumption.

use crdb_serverless_repro::core::ServerlessConfig;
use crdb_sim::Sim;
use crdb_util::time::dur;
use crdb_util::RegionId;
use crdb_workload::driver::{Driver, DriverConfig};
use crdb_workload::executors::load_tenant;
use crdb_workload::ycsb;

fn main() {
    let sim = Sim::new(2026);
    let mut config = ServerlessConfig::default();
    // Scaled costs: a handful of workers saturates the small cluster.
    config.kv.cost_model = config.kv.cost_model.scaled(200.0);
    config.sql = config.sql.scaled(200.0);
    config.ecpu_model = config.ecpu_model.scaled(200.0);
    let cluster = crdb_serverless_repro::core::ServerlessCluster::new(&sim, config);

    // The noisy tenant gets a 2-vCPU estimated-CPU quota; the victim is
    // unlimited (it barely uses anything).
    let noisy_cfg = ycsb::YcsbConfig { records: 200, ..ycsb::YcsbConfig::workload_a() };
    let victim_cfg = ycsb::YcsbConfig { records: 100, ..ycsb::YcsbConfig::workload_c() };
    let home = vec![RegionId(0)];
    let (noisy_tenant, noisy_ex) = load_tenant(
        &sim,
        &cluster,
        home.clone(),
        Some(2.0),
        &ycsb::schema(),
        &ycsb::load_statements(&noisy_cfg),
    );
    let (victim_tenant, victim_ex) = load_tenant(
        &sim,
        &cluster,
        home,
        None,
        &ycsb::schema(),
        &ycsb::load_statements(&victim_cfg),
    );

    // The noisy tenant floods with 32 no-wait workers; the victim sends a
    // gentle trickle of point reads.
    let noisy = Driver::new(
        &sim,
        noisy_ex,
        DriverConfig { workers: 32, think_time: None, max_retries: 10 },
        ycsb::factory(noisy_cfg, 1),
    );
    let victim = Driver::new(
        &sim,
        victim_ex,
        DriverConfig { workers: 2, think_time: Some(dur::ms(200)), max_retries: 10 },
        ycsb::factory(victim_cfg, 2),
    );
    let end = sim.now() + dur::mins(3);
    noisy.run_until(end);
    victim.run_until(end);
    sim.run_until(end + dur::secs(30));

    let (vp50, vp99) = victim.stats.latency_quantiles();
    let (np50, np99) = noisy.stats.latency_quantiles();
    println!(
        "victim:  committed {:>6}, p50 {vp50:.3}s, p99 {vp99:.3}s",
        victim.stats.committed.borrow()
    );
    println!(
        "noisy:   committed {:>6}, p50 {np50:.3}s, p99 {np99:.3}s",
        noisy.stats.committed.borrow()
    );
    println!(
        "estimated CPU billed: noisy {:.1}s, victim {:.1}s",
        cluster.tenant_ecpu_seconds(noisy_tenant),
        cluster.tenant_ecpu_seconds(victim_tenant)
    );
    println!("\nAdmission control keeps the victim's reads fast while the noisy");
    println!("tenant is throttled smoothly at its estimated-CPU quota: its own");
    println!("latency grows, the victim's does not.");
}
