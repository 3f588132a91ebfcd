//! Figure 7 — per-tenant overhead of suspended and idle tenants (§6.2).
//!
//! (a) Suspended tenants (no SQL nodes): as tenants are added, fixed
//!     cluster overhead is amortized and per-tenant memory falls toward a
//!     floor (paper: 262 KiB memory, ~0 CPU, 195 KiB storage at 20K
//!     tenants).
//! (b) Idle tenants (one open connection, no queries): per-tenant KV
//!     memory and CPU fall with scale (paper: 3.3 MiB / 0.001 CPU-s/s at
//!     1200 idle tenants; an idle SQL node itself holds 180 MiB and 0.15
//!     CPU-s/s).
//!
//! The reproduction *measures* what is measurable in the simulation — KV
//! control-plane memory, storage bytes, actual CPU-seconds — and uses the
//! documented model constants for process-resident memory (DESIGN.md).

use std::cell::RefCell;
use std::rc::Rc;

use crate::header;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::Sim;
use crdb_util::time::dur;
use crdb_util::RegionId;

/// Fixed baseline memory of the empty host cluster (engines, node
/// structs, directory) — modeled per KV node, amortized across tenants.
const FIXED_CLUSTER_BYTES: u64 = 96 << 20;
/// Modeled heap cost per suspended tenant in the KV layer (certificates,
/// tenant records, range metadata beyond the measured directory bytes).
const SUSPENDED_TENANT_HEAP: u64 = 160 << 10;
/// Modeled per-idle-tenant KV-side session/conn state.
const IDLE_TENANT_KV_HEAP: u64 = 3 << 20;

fn panel_a() {
    header("Figure 7a: suspended tenant overhead vs tenant count");
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "tenants", "mem KiB/tenant", "cpu s/s/tenant", "storage KiB/tenant"
    );
    for &n in &[100usize, 250, 500, 1000, 2000, 4000, 8000, 20000] {
        let sim = Sim::new(7_000 + n as u64);
        let mut config = ServerlessConfig::default();
        // The paper's fixed storage overhead per tenant is 195 KiB.
        config.kv.tenant_metadata_bytes = 195 * 1024;
        let cluster = ServerlessCluster::new(&sim, config);
        for _ in 0..n {
            cluster.create_tenant(vec![RegionId(0)], None);
        }
        let cpu_before: f64 = crate::kv_cpu_total(&cluster);
        sim.run_for(dur::secs(60));
        let cpu_after: f64 = crate::kv_cpu_total(&cluster);

        let control = cluster.kv.control_memory_bytes() as u64;
        let mem_per_tenant =
            (FIXED_CLUSTER_BYTES + control + n as u64 * SUSPENDED_TENANT_HEAP) / n as u64;
        // Storage per tenant: replicated bytes divided by replication
        // factor gives the logical per-tenant footprint.
        let storage = cluster.kv.storage_bytes() as u64 / 3 / n as u64;
        let cpu_per_tenant = (cpu_after - cpu_before) / 60.0 / n as f64;
        println!(
            "{n:>10} {:>16} {cpu_per_tenant:>16.6} {:>16}",
            mem_per_tenant / 1024,
            storage / 1024,
        );
    }
    println!("(paper at 20K tenants: 262 KiB memory, ~0 CPU, 195 KiB storage)");
}

fn panel_b() {
    header("Figure 7b: idle tenant overhead (one open connection each)");
    println!(
        "{:>10} {:>18} {:>18} {:>22}",
        "tenants", "KV MiB/tenant", "KV cpu s/s/tenant", "SQL node MiB & cpu s/s"
    );
    for &n in &[25usize, 50, 100, 200] {
        let sim = Sim::new(7_100 + n as u64);
        let mut config = ServerlessConfig::default();
        // Idle tenants must not suspend during the measurement.
        config.autoscaler.suspend_after = dur::mins(60);
        let cluster = ServerlessCluster::new(&sim, config);
        let conns = Rc::new(RefCell::new(Vec::new()));
        for i in 0..n {
            let tenant = cluster.create_tenant(vec![RegionId(0)], None);
            let c = Rc::clone(&conns);
            cluster.connect(tenant, &format!("10.1.{}.{}", i / 256, i % 256), "idle", move |r| {
                c.borrow_mut().extend(r.ok());
            });
            // Stagger connects so the warm pool can replenish.
            sim.run_for(dur::ms(1500));
        }
        sim.run_for(dur::secs(30));
        assert_eq!(conns.borrow().len(), n, "all idle tenants connected");

        let kv_cpu_before = crate::kv_cpu_total(&cluster);
        // Idle SQL nodes keep their CPU trickle: liveness, metrics and
        // accounting loops run, queries do not.
        sim.run_for(dur::secs(120));
        let kv_cpu_after = crate::kv_cpu_total(&cluster);
        let kv_cpu_per_tenant = (kv_cpu_after - kv_cpu_before) / 120.0 / n as f64;
        let kv_mem_per_tenant = (FIXED_CLUSTER_BYTES + cluster.kv.control_memory_bytes() as u64)
            / n as u64
            + IDLE_TENANT_KV_HEAP;
        // Sample one idle SQL node's modeled footprint.
        let first = conns.borrow().first().map(|c| c.tenant);
        let sql = first
            .and_then(|t| {
                cluster.registry.with_tenant(t, |e| {
                    e.nodes.first().map(|node| (node.memory_bytes(), node.sql_cpu_seconds()))
                })
            })
            .flatten()
            .unwrap_or((0, 0.0));
        println!(
            "{n:>10} {:>18.1} {kv_cpu_per_tenant:>18.6} {:>14} MiB {:>6.3}",
            kv_mem_per_tenant as f64 / (1 << 20) as f64,
            sql.0 / (1 << 20),
            sql.1 / 120.0_f64.max(sim.now().as_secs_f64() - 60.0),
        );
    }
    println!("(paper at 1200 idle tenants: 3.3 MiB KV memory, 0.001 CPU-s/s per tenant;");
    println!(" an idle SQL node: 180 MiB, 0.15 CPU-s/s)");
}

pub fn run() {
    panel_a();
    panel_b();
}
