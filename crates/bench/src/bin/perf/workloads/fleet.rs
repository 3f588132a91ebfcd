//! `cold_start_fleet`: an open loop of short sessions against a fleet
//! of mostly suspended tenants in three regions — the paper's headline
//! path (scale from zero), where the data path does almost nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_obs::Span;
use crdb_serverless::proxy::Connection;
use crdb_sim::{Location, Sim, Topology};
use crdb_sql::exec::QueryOutput;
use crdb_sql::value::Datum;
use crdb_util::time::{dur, SimTime};
use crdb_util::{RegionId, TenantId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{tracer_for, ProbeInputs, Run, Spec};
use crate::harness::{Deployment, LoopStats, StmtTally, Tracer, Window};

pub static SPEC: Spec = Spec {
    name: "cold_start_fleet",
    why:
        "the paper's headline: 1,500 tenants in 3 regions, Poisson sessions at 0.2/s, ~96 % hit \
          a suspended tenant; proxy, warm pool, SQL-node start, autoscaler and timers do everything",
    clients: 0,
    full_sim_secs: 50_000.0,
    txn: "one session, timed from its due time to its first SELECT's result",
    classes: &["r0", "r1", "r2"],
    trace_every: 3,
};

const TENANTS: usize = 1_500;
const REGIONS: u64 = 3;
/// Sessions per simulated second, all tenants together.
const ARRIVAL_RATE: f64 = 0.2;
const HOLD: std::time::Duration = std::time::Duration::from_secs(2);
/// Long enough for the active-tenant population (rate × the 5-minute
/// suspend delay) to reach its steady state before recording starts; a
/// whole number of arrival blocks, so the window starts on a block edge.
const WARMUP_SIM_SECS: u64 = 500;
/// Each tenant's counter starts at a multiple of this, so a value read
/// through the wrong tenant's keyspace cannot pass for the right one.
const TENANT_BASE: i64 = 1_000_000;

/// Connection attempts of a session, and the pause between them.
const CONNECT_ATTEMPTS: u32 = 3;
const RETRY_AFTER: std::time::Duration = std::time::Duration::from_secs(1);

const SELECT_SQL: &str = "SELECT v FROM kv WHERE k = 2";
const UPDATE_SQL: &str = "UPDATE kv SET v = v + 1 WHERE k = 2";

/// Arrivals come in blocks of this many simulated seconds.
const BLOCK_SECS: f64 = 250.0;

/// The seeded arrival stream: a Poisson process at [`ARRIVAL_RATE`]
/// conditioned on its count per block — every block holds exactly
/// `BLOCK_SECS × ARRIVAL_RATE` arrivals at independent uniform instants,
/// tenants uniform. Gaps inside a block are as bursty as a Poisson
/// stream's, but the number of sessions due in a window is the same for
/// every seed, so `sim_throughput_tps` moves only when sessions fail or
/// slow down, not with the draw (an unconditioned count over this window
/// has a 0.9 % standard deviation, half the metric's bound).
pub struct Arrivals {
    rng: SmallRng,
    block: u64,
    /// The current block's arrivals, latest first.
    pending: Vec<(f64, usize)>,
}

impl Arrivals {
    pub fn new(seed: u64) -> Arrivals {
        Arrivals { rng: SmallRng::seed_from_u64(seed ^ 0xf1ee_7f1e), block: 0, pending: Vec::new() }
    }
}

impl Iterator for Arrivals {
    /// Seconds after the stream's start, and the tenant's index.
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        if self.pending.is_empty() {
            let start = self.block as f64 * BLOCK_SECS;
            self.block += 1;
            let count = (BLOCK_SECS * ARRIVAL_RATE).round() as usize;
            self.pending = (0..count)
                .map(|_| {
                    (start + self.rng.gen_range(0.0..BLOCK_SECS), self.rng.gen_range(0..TENANTS))
                })
                .collect();
            self.pending.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        self.pending.pop()
    }
}

/// What a session knows when it is due.
struct Start {
    index: usize,
    tenant: TenantId,
    due: SimTime,
    /// UPDATEs acknowledged on the tenant so far.
    floor: i64,
    cold: bool,
    recorded: bool,
    root: Option<Span>,
}

#[derive(Clone, Copy, Default)]
struct TenantState {
    /// UPDATEs issued / acknowledged: a SELECT may legally see any count
    /// from `acked` when it was issued to `issued` when it returned.
    issued: i64,
    acked: i64,
}

struct Fleet {
    sim: Sim,
    cluster: Rc<ServerlessCluster>,
    tenants: Vec<TenantId>,
    state: RefCell<Vec<TenantState>>,
    arrivals: RefCell<Arrivals>,
    epoch: SimTime,
    recording: Rc<Cell<bool>>,
    stopping: Cell<bool>,
    open_sessions: Cell<usize>,
    tracer: Option<Rc<Tracer>>,
    stats: Rc<LoopStats>,
    tally: Rc<StmtTally>,
    warm: Cell<u64>,
    /// Recorded sessions' connects that failed and were tried again.
    connect_retries: Cell<u64>,
    /// SQL node instance → its CPU-seconds when last polled. A node is
    /// gone once its tenant suspends, and most of what a session costs is
    /// its node idling until then, so the totals are kept here.
    node_cpu: RefCell<BTreeMap<u64, f64>>,
}

fn home_region(index: usize) -> RegionId {
    RegionId(index as u64 % REGIONS)
}

impl Fleet {
    fn schedule_next(self: &Rc<Self>) {
        let next = self.arrivals.borrow_mut().next();
        let Some((at_secs, index)) = next else { return };
        let this = Rc::clone(self);
        self.sim.schedule_at(self.epoch + dur::secs_f64(at_secs), move || {
            if this.stopping.get() {
                return;
            }
            this.schedule_next();
            this.session(index);
        });
    }

    fn fail(&self, recorded: bool, what: String) {
        if recorded {
            self.stats.refused.set(self.stats.refused.get() + 1);
            *self.stats.last_error.borrow_mut() = Some(what);
        }
        self.open_sessions.set(self.open_sessions.get() - 1);
    }

    /// One session, due now: connect, SELECT (checked, timed), UPDATE,
    /// hold, close.
    fn session(self: &Rc<Self>, index: usize) {
        let Some(&tenant) = self.tenants.get(index) else { return };
        let recorded = self.recording.get();
        let cold = self.cluster.is_suspended(tenant);
        let root: Option<Span> = match &self.tracer {
            Some(t) if recorded && cold => t.sample(),
            _ => None,
        };
        self.open_sessions.set(self.open_sessions.get() + 1);
        let floor = self.state.borrow().get(index).map_or(0, |s| s.acked);
        let start = Start { index, tenant, due: self.sim.now(), floor, cold, recorded, root };
        self.connect(start, CONNECT_ATTEMPTS);
    }

    /// Connects and issues the SELECT. One cold start in a few thousand
    /// loses a race (see `Deployment::connect`) and the connect fails
    /// with "node is Stopped"; like a client, the session then tries
    /// again a second later, still timed from when it was due, and the
    /// retry is counted. It fails when the last attempt does.
    fn connect(self: &Rc<Self>, start: Start, attempts_left: u32) {
        let this = Rc::clone(self);
        let scope = start.root.as_ref().map(Span::enter);
        let ip = format!("10.2.{}.{}", start.index / 250, start.index % 250 + 1);
        self.cluster.connect(start.tenant, &ip, "fleet", move |r| {
            let conn = match r {
                Ok(c) => c,
                Err(e) if attempts_left <= 1 => {
                    return this.fail(start.recorded, format!("connect: {e:?}"));
                }
                Err(_) => {
                    if start.recorded {
                        this.connect_retries.set(this.connect_retries.get() + 1);
                    }
                    let again = Rc::clone(&this);
                    this.sim.schedule_after(RETRY_AFTER, move || {
                        again.connect(start, attempts_left - 1);
                    });
                    return;
                }
            };
            let this2 = Rc::clone(&this);
            let conn2 = Rc::clone(&conn);
            let scope = start.root.as_ref().map(Span::enter);
            this.cluster.execute(&conn, SELECT_SQL, vec![], move |r| {
                if let Some(root) = &start.root {
                    root.end();
                }
                match r {
                    Ok(out) => this2.after_select(&start, conn2, out),
                    Err(e) => {
                        this2.cluster.close(&conn2);
                        this2.fail(start.recorded, format!("select: {e}"));
                    }
                }
            });
            drop(scope);
        });
        drop(scope);
    }

    fn after_select(self: &Rc<Self>, start: &Start, conn: Rc<Connection>, out: QueryOutput) {
        let Start { index, due, floor, cold, recorded, .. } = *start;
        let latency = self.sim.now().duration_since(due);
        if recorded {
            self.tally.add(&out);
        }
        let got = out.rows.first().and_then(|r| r.first()).and_then(Datum::as_i64);
        let base = index as i64 * TENANT_BASE;
        let ceiling = self.state.borrow().get(index).map_or(0, |s| s.issued);
        if !got.is_some_and(|v| (base + floor..=base + ceiling).contains(&v)) {
            self.stats.mismatch(format!(
                "tenant #{index}: v = {got:?}, legal {}..={}",
                base + floor,
                base + ceiling
            ));
        }
        self.with_state(index, |s| s.issued += 1);
        let this = Rc::clone(self);
        let conn2 = Rc::clone(&conn);
        self.cluster.execute(&conn, UPDATE_SQL, vec![], move |r| {
            match r {
                Ok(out) => {
                    if recorded {
                        this.tally.add(&out);
                    }
                    this.with_state(index, |s| s.acked += 1);
                    if recorded && cold {
                        this.stats.record(
                            home_region(index).raw() as usize,
                            this.sim.now(),
                            latency,
                        );
                    } else if recorded {
                        this.stats.commit(this.sim.now());
                        this.warm.set(this.warm.get() + 1);
                    }
                }
                Err(e) => {
                    if recorded {
                        this.stats.errored.set(this.stats.errored.get() + 1);
                        *this.stats.last_error.borrow_mut() = Some(format!("update: {e}"));
                    }
                }
            }
            let this2 = Rc::clone(&this);
            this.sim.schedule_after(HOLD, move || {
                this2.cluster.close(&conn2);
                this2.open_sessions.set(this2.open_sessions.get() - 1);
            });
        });
    }

    /// Records the CPU-seconds of every SQL node now alive.
    fn poll_node_cpu(&self) {
        let registry = &self.cluster.registry;
        let mut seen = self.node_cpu.borrow_mut();
        for tenant in registry.active_tenant_ids() {
            let nodes: Vec<(u64, f64)> = registry
                .with_tenant(tenant, |e| {
                    let draining = e.draining.iter().map(|(n, _)| n);
                    e.nodes
                        .iter()
                        .chain(draining)
                        .map(|n| (n.instance_id.raw(), n.sql_cpu_seconds()))
                        .collect()
                })
                .unwrap_or_default();
            seen.extend(nodes);
        }
    }

    /// Polls just ahead of every autoscaler pass — the only moment a node
    /// can be shut down — so each node's last reading is its final one.
    fn start_cpu_polling(self: &Rc<Self>) {
        let every = self.cluster.config().autoscaler.reconcile_interval;
        let every_ns = every.as_nanos() as u64;
        let lead_ns = 10_000;
        let this = Rc::clone(self);
        // The autoscaler's passes fall on multiples of `every` since the
        // simulation's start; the first poll goes ahead of the next but one.
        let passes_so_far = self.sim.now().as_nanos() / every_ns;
        let first = SimTime::from_nanos((passes_so_far + 2) * every_ns - lead_ns);
        self.sim.schedule_at(first, move || {
            this.poll_node_cpu();
            let again = Rc::clone(&this);
            this.sim.schedule_periodic(every, move || {
                again.poll_node_cpu();
                !again.stopping.get()
            });
        });
    }

    /// Ground-truth SQL CPU-seconds of every node the fleet has run.
    fn sql_cpu_seconds(&self) -> f64 {
        self.poll_node_cpu();
        self.node_cpu.borrow().values().sum()
    }

    fn with_state(&self, index: usize, f: impl FnOnce(&mut TenantState)) {
        let mut state = self.state.borrow_mut();
        if let Some(s) = state.get_mut(index) {
            f(s);
        }
    }
}

pub struct Ready {
    seed: u64,
    dep: Deployment,
    fleet: Rc<Fleet>,
}

pub fn setup(seed: u64, trace: bool) -> Result<Ready, String> {
    let settings =
        ServerlessConfig { topology: Topology::three_region(), ..ServerlessConfig::default() };
    let dep = Deployment::new(settings, seed);
    let mut tenants = Vec::with_capacity(TENANTS);
    for index in 0..TENANTS {
        // Home region first: it places the tenant's system database.
        let home = home_region(index);
        let mut regions = vec![home];
        regions.extend((0..REGIONS).map(RegionId).filter(|r| *r != home));
        let tenant = dep.cluster.create_tenant(regions, None);
        dep.cluster.set_preferred_location(tenant, Location::new(home, 0));
        let conn = dep.connect(tenant, "10.2.255.1")?;
        dep.exec(&conn, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)", vec![])?;
        let base = index as i64 * TENANT_BASE;
        dep.exec(
            &conn,
            &format!("INSERT INTO kv VALUES (1, 0), (2, {base}), (3, 0), (4, 0)"),
            vec![],
        )?;
        dep.cluster.close(&conn);
        tenants.push(tenant);
    }
    // Everyone idles out and suspends.
    let suspend_after = dep.cluster.config().autoscaler.suspend_after;
    dep.sim.run_for(suspend_after + dur::secs(60));
    let awake = dep.cluster.registry.active_tenant_count();
    if awake != 0 {
        return Err(format!("{awake} tenants still active after the suspend delay"));
    }

    let fleet = Rc::new(Fleet {
        sim: dep.sim.clone(),
        cluster: Rc::clone(&dep.cluster),
        tenants,
        state: RefCell::new(vec![TenantState::default(); TENANTS]),
        arrivals: RefCell::new(Arrivals::new(seed)),
        epoch: dep.sim.now(),
        recording: Rc::new(Cell::new(false)),
        stopping: Cell::new(false),
        open_sessions: Cell::new(0),
        tracer: tracer_for(&SPEC, &dep, trace),
        stats: Rc::new(LoopStats::default()),
        tally: Rc::new(StmtTally::default()),
        warm: Cell::new(0),
        connect_retries: Cell::new(0),
        node_cpu: RefCell::new(BTreeMap::new()),
    });
    fleet.start_cpu_polling();
    fleet.schedule_next();
    dep.sim.run_for(dur::secs(WARMUP_SIM_SECS));
    Ok(Ready { seed, dep, fleet })
}

impl Ready {
    /// Reads every tenant's counter once the load has stopped.
    fn check(&self, problems: &mut Vec<String>) -> Result<(), String> {
        for (index, &tenant) in self.fleet.tenants.iter().enumerate() {
            let conn = self.dep.connect(tenant, "10.2.255.2")?;
            let out = self.dep.exec(&conn, SELECT_SQL, vec![]);
            self.dep.cluster.close(&conn);
            let got = out?.rows.first().and_then(|r| r.first()).and_then(Datum::as_i64);
            let s = self.fleet.state.borrow().get(index).copied().unwrap_or_default();
            let base = index as i64 * TENANT_BASE;
            if !got.is_some_and(|v| (base + s.acked..=base + s.issued).contains(&v)) {
                problems.push(format!(
                    "tenant #{index}: final v = {got:?} after {} acknowledged UPDATEs",
                    s.acked
                ));
                break;
            }
        }
        Ok(())
    }

    pub fn run(self, sim_secs: f64) -> Result<Run, String> {
        let fleet = Rc::clone(&self.fleet);
        let stats = Rc::clone(&fleet.stats);
        let window = Window::measure(
            &self.dep,
            sim_secs,
            &fleet.recording,
            &|| stats.committed.get(),
            &|| fleet.sql_cpu_seconds(),
        )?;
        fleet.stopping.set(true);
        while fleet.open_sessions.get() > 0 && self.dep.sim.step() {}

        let mut problems = Vec::new();
        self.check(&mut problems)?;

        let cold = stats.samples.borrow().len() as f64;
        let sessions = cold + fleet.warm.get() as f64;
        let mut extra = BTreeMap::new();
        extra.insert("serverless.cold_frac", if sessions > 0.0 { cold / sessions } else { 0.0 });
        extra.insert("serverless.connect_retries", fleet.connect_retries.get() as f64);
        let names =
            ["serverless.cold_p50_ms.r0", "serverless.cold_p50_ms.r1", "serverless.cold_p50_ms.r2"];
        for (class, name) in names.into_iter().enumerate() {
            let mut v = stats.by_class.borrow().get(class).cloned().unwrap_or_default();
            v.sort_unstable();
            extra.insert(name, crate::stats::percentile(&v, 0.5) as f64 / 1e6);
        }

        let seed = self.seed;
        let probe_inputs = ProbeInputs {
            statements: vec![(SELECT_SQL.to_string(), vec![]), (UPDATE_SQL.to_string(), vec![])],
            table: "kv",
            row: vec![Datum::Int(2), Datum::Int(TENANT_BASE)],
            rows: 4,
            generate: Box::new(move |n| {
                std::hint::black_box(Arrivals::new(seed ^ n).next());
            }),
        };
        let tenant = fleet.tenants.first().copied().ok_or("no tenants")?;
        Ok(Run {
            tenant,
            window,
            stats,
            tally: Rc::clone(&fleet.tally),
            tracer: fleet.tracer.clone(),
            problems,
            extra,
            // Four small rows per tenant: key ≈ 12 B, value ≈ 12 B.
            live_user_bytes: (TENANTS * 4 * 24) as f64,
            probe_inputs,
            dep: self.dep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_seed_deterministic() {
        let a: Vec<_> = Arrivals::new(11).take(500).collect();
        let b: Vec<_> = Arrivals::new(11).take(500).collect();
        let c: Vec<_> = Arrivals::new(12).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrival times never go back");
        assert!(a.iter().all(|(_, t)| *t < TENANTS));
    }

    #[test]
    fn every_block_holds_the_same_number_of_arrivals() {
        let per_block = (BLOCK_SECS * ARRIVAL_RATE) as usize;
        let arrivals: Vec<_> = Arrivals::new(5).take(per_block * 40).collect();
        for (block, chunk) in arrivals.chunks(per_block).enumerate() {
            let (lo, hi) = (block as f64 * BLOCK_SECS, (block + 1) as f64 * BLOCK_SECS);
            assert!(chunk.iter().all(|(t, _)| (lo..hi).contains(t)), "block {block}");
        }
        // Inside a block the gaps are irregular, as a Poisson stream's are.
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1].0 - w[0].0).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / ARRIVAL_RATE).abs() < 0.2, "{mean}");
        assert!(gaps.iter().any(|g| *g > 3.0 * mean) && gaps.iter().any(|g| *g < mean / 10.0));
    }
}
