//! Paper-scale soak harness: Fig. 7(a) at 20,000 suspended tenants, an
//! idle-tenant fleet, and 100K-session proxy connect/disconnect churn.
//!
//! Everything here is driven by the `scale_soak` binary, which applies
//! the gates (events/sec floor, peak-RSS ceiling, byte-identical same-seed
//! logs) and emits `BENCH_SCALE.json`.

// simlint: allow-file(wall-clock) — bench harness: measures real elapsed
// time for the events/sec gate; nothing simulated reads it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::Sim;
use crdb_util::time::{dur, SimTime};
use crdb_util::RegionId;

/// Scale knobs for one soak run.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Base RNG seed for every phase.
    pub seed: u64,
    /// Suspended tenants in the Fig. 7(a) phase (paper: 20,000).
    pub suspended_tenants: usize,
    /// Idle tenants (one open connection, no queries) in the Fig. 7(b)
    /// phase (paper measures up to 1,200).
    pub idle_tenants: usize,
    /// Proxy connect/disconnect sessions in the churn phase.
    pub churn_sessions: usize,
}

impl ScaleOptions {
    /// Full paper scale: 20K suspended, 1K idle, 100K sessions.
    pub fn full(seed: u64) -> ScaleOptions {
        ScaleOptions {
            seed,
            suspended_tenants: 20_000,
            idle_tenants: 1_000,
            churn_sessions: 100_000,
        }
    }

    /// CI smoke scale: 2K suspended, 100 idle, 10K sessions — every gate
    /// stays active, only the counts shrink.
    pub fn smoke(seed: u64) -> ScaleOptions {
        ScaleOptions { seed, suspended_tenants: 2_000, idle_tenants: 100, churn_sessions: 10_000 }
    }
}

/// Reads `(VmHWM, VmRSS)` in bytes from `/proc/self/status`; zeros on
/// platforms without procfs (the RSS gates then pass trivially).
pub fn rss_bytes() -> (u64, u64) {
    let mut peak = 0;
    let mut cur = 0;
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            let kb = |l: &str| {
                l.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0) * 1024
            };
            if line.starts_with("VmHWM:") {
                peak = kb(line);
            } else if line.starts_with("VmRSS:") {
                cur = kb(line);
            }
        }
    }
    (peak, cur)
}

// ---------------------------------------------------------------------------
// Fig. 7(a): suspended tenants.
// ---------------------------------------------------------------------------

/// Report of the suspended-tenant phase.
pub struct SuspendedPhaseReport {
    /// Tenants created (all suspended, zero SQL nodes).
    pub tenants: usize,
    /// Wall seconds for create + 60 virtual seconds of steady state.
    pub wall_secs: f64,
    /// Simulation events executed during the 60 virtual seconds.
    pub steady_events: u64,
    /// Wall seconds of the steady-state window alone.
    pub steady_wall_secs: f64,
    /// Resident-set growth attributable to this phase, per tenant.
    pub rss_per_tenant_bytes: u64,
    /// Logical storage per tenant (replication factored out), KiB.
    pub storage_kib_per_tenant: u64,
    /// Tenants the registry reports as active (must be 0).
    pub active_tenants: usize,
    /// Bytes of the end-of-phase metrics snapshot.
    pub snapshot_bytes: usize,
}

/// Creates `n` tenants that never connect and holds the deployment at
/// steady state: every periodic loop (autoscaler, pipeline, accounting,
/// snapshot) must cost O(active) = O(0), not O(n).
pub fn run_suspended_phase(seed: u64, n: usize) -> SuspendedPhaseReport {
    let (rss_before, _) = rss_bytes();
    let t0 = Instant::now();
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    // The paper's fixed storage overhead per tenant (§6.2: 195 KiB).
    config.kv.tenant_metadata_bytes = 195 * 1024;
    let cluster = ServerlessCluster::new(&sim, config);
    for _ in 0..n {
        cluster.create_tenant(vec![RegionId(0)], None);
    }
    let events_before = sim.events_executed();
    let steady_t0 = Instant::now();
    sim.run_for(dur::secs(60));
    let steady_wall_secs = steady_t0.elapsed().as_secs_f64();
    let steady_events = sim.events_executed() - events_before;
    let snapshot = cluster.metrics_snapshot_json();
    let active = cluster.registry.active_tenant_count();
    let storage_kib_per_tenant = cluster.kv.storage_bytes() as u64 / 3 / n as u64 / 1024;
    let (rss_after, _) = rss_bytes();
    SuspendedPhaseReport {
        tenants: n,
        wall_secs: t0.elapsed().as_secs_f64(),
        steady_events,
        steady_wall_secs,
        rss_per_tenant_bytes: rss_after.saturating_sub(rss_before) / n as u64,
        storage_kib_per_tenant,
        active_tenants: active,
        snapshot_bytes: snapshot.len(),
    }
}

// ---------------------------------------------------------------------------
// Idle tenants: one open connection each, no queries.
// ---------------------------------------------------------------------------

/// Report of the idle-tenant phase.
pub struct IdlePhaseReport {
    /// Idle tenants, each holding one open connection.
    pub tenants: usize,
    /// Wall seconds for the whole phase.
    pub wall_secs: f64,
    /// Events executed across the phase.
    pub events: u64,
    /// Open proxy connections at the end (must equal `tenants`).
    pub connections: usize,
}

/// Connects one session per tenant (staggered so the warm pool
/// replenishes) and holds them idle for a steady-state window.
pub fn run_idle_phase(seed: u64, n: usize) -> IdlePhaseReport {
    let t0 = Instant::now();
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    // Idle tenants must not suspend during the measurement.
    config.autoscaler.suspend_after = dur::mins(60);
    let cluster = ServerlessCluster::new(&sim, config);
    let conns = Rc::new(RefCell::new(Vec::new()));
    for i in 0..n {
        let tenant = cluster.create_tenant(vec![RegionId(0)], None);
        let c = Rc::clone(&conns);
        cluster.connect(tenant, &format!("10.9.{}.{}", i / 256, i % 256), "idle", move |r| {
            c.borrow_mut().extend(r.ok());
        });
        sim.run_for(dur::ms(400));
    }
    sim.run_for(dur::secs(60));
    let connections = conns.borrow().len();
    IdlePhaseReport {
        tenants: n,
        wall_secs: t0.elapsed().as_secs_f64(),
        events: sim.events_executed(),
        connections,
    }
}

// ---------------------------------------------------------------------------
// Proxy churn: sessions connecting and disconnecting at scale.
// ---------------------------------------------------------------------------

/// Report of the connect/disconnect churn phase.
pub struct ChurnPhaseReport {
    /// Sessions opened and closed.
    pub sessions: usize,
    /// Wall seconds.
    pub wall_secs: f64,
    /// Simulation events executed.
    pub events: u64,
    /// Events per wall second — the throughput gate input.
    pub events_per_sec: f64,
    /// Proxy connects counter at the end.
    pub connects: u64,
    /// Append-only progress log; same seed ⇒ byte-identical.
    pub log: String,
    /// End-of-run metrics snapshot; same seed ⇒ byte-identical.
    pub metrics_snapshot: String,
}

/// Churns `sessions` short-lived sessions through the proxy against a
/// handful of tenants: connect, hold ~200 ms, disconnect. Exercises the
/// proxy's connection table (insert/remove at 100K volume), throttle and
/// breaker maps, and the event queue's cancel-heavy timer pattern.
pub fn run_churn_phase(seed: u64, sessions: usize) -> ChurnPhaseReport {
    let t0 = Instant::now();
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    config.autoscaler.suspend_after = dur::mins(60);
    let cluster = ServerlessCluster::new(&sim, config);
    let tenants: Vec<_> = (0..4).map(|_| cluster.create_tenant(vec![RegionId(0)], None)).collect();
    let mut log = String::new();

    // Warm every tenant with one resident connection so churn measures
    // steady-state connect/disconnect, not cold starts.
    let warm = Rc::new(RefCell::new(Vec::new()));
    for (i, &t) in tenants.iter().enumerate() {
        let w = Rc::clone(&warm);
        cluster.connect(t, &format!("10.7.0.{i}"), "resident", move |r| {
            w.borrow_mut().extend(r.ok());
        });
        sim.run_for(dur::secs(2));
    }
    sim.run_for(dur::secs(5));
    assert_eq!(warm.borrow().len(), tenants.len(), "warm connections established");

    let opened = Rc::new(Cell::new(0usize));
    let closed = Rc::new(Cell::new(0usize));
    // 40 connects per 100 ms tick ⇒ 400 sessions per virtual second.
    let per_tick = 40usize;
    {
        let cluster2 = Rc::clone(&cluster);
        let sim2 = sim.clone();
        let opened2 = Rc::clone(&opened);
        let closed2 = Rc::clone(&closed);
        let tenants = tenants.clone();
        sim.schedule_periodic(dur::ms(100), move || {
            if opened2.get() >= sessions {
                return false;
            }
            let burst = per_tick.min(sessions - opened2.get());
            for k in 0..burst {
                let i = opened2.get();
                opened2.set(i + 1);
                let Some(&tenant) = tenants.get(i % tenants.len()) else { break };
                let ip = format!("10.8.{}.{}", (i / 253) % 253 + 1, i % 253 + 1);
                let cluster3 = Rc::clone(&cluster2);
                let sim3 = sim2.clone();
                let closed3 = Rc::clone(&closed2);
                // Spread connects inside the tick so sessions overlap.
                let jitter = dur::ms(1 + (k as u64 % 90));
                let cl = Rc::clone(&cluster2);
                sim2.schedule_after(jitter, move || {
                    cl.connect(tenant, &ip, "churn", move |r| {
                        // A failed connect never closes: the churn loop's
                        // virtual-hour assertion reports it.
                        let Ok(conn) = r else { return };
                        let closed4 = Rc::clone(&closed3);
                        let cluster4 = Rc::clone(&cluster3);
                        sim3.schedule_after(dur::ms(200), move || {
                            cluster4.close(&conn);
                            closed4.set(closed4.get() + 1);
                        });
                    });
                });
            }
            true
        });
    }

    let checkpoint = (sessions / 10).max(1);
    let mut next_mark = checkpoint;
    while closed.get() < sessions {
        sim.run_for(dur::secs(1));
        while closed.get() >= next_mark {
            log.push_str(&format!(
                "sessions={} connects={} open={} now_ms={} events={}\n",
                next_mark,
                cluster.proxy.connects.get(),
                cluster.proxy.connection_count(),
                sim.now().as_nanos() / 1_000_000,
                sim.events_executed(),
            ));
            next_mark += checkpoint;
        }
        assert!(
            sim.now() < SimTime::from_nanos(3_600_000_000_000),
            "churn did not complete within an hour of virtual time: {} / {sessions}",
            closed.get()
        );
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let events = sim.events_executed();
    let snapshot = cluster.metrics_snapshot_json();
    ChurnPhaseReport {
        sessions,
        wall_secs,
        events,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        connects: cluster.proxy.connects.get(),
        log,
        metrics_snapshot: snapshot,
    }
}
