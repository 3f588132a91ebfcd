//! The five workloads. Each module builds its deployment (`setup`),
//! runs the measured window (`Ready::run`) and checks its outputs.

pub mod fleet;
pub mod scan_agg;
pub mod tpcc;
pub mod ycsb;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_sql::value::{Datum, Row};
use crdb_util::time::dur;
use crdb_util::TenantId;

use crate::harness::{
    Clients, ClosedLoop, Deployment, LoopStats, StmtTally, Tracer, TxnSource, Window,
};

/// Fixed description of one workload. Sizes are part of the benchmark's
/// definition: they are recorded in `BENCHMARK.json`'s `why` lines and
/// the README, and are not tuned per commit.
pub struct Spec {
    pub name: &'static str,
    /// One line: why this workload is in the set.
    pub why: &'static str,
    /// Closed loop with this many clients, or open loop (`0`).
    pub clients: usize,
    /// Simulated seconds of the measured window at full scale.
    pub full_sim_secs: f64,
    /// What a transaction is.
    pub txn: &'static str,
    /// Per-class latency sample names (`workload.<class>_p50_us`).
    pub classes: &'static [&'static str],
    /// Trace one transaction in this many (keeps ≤ 5,000 traces at full
    /// scale).
    pub trace_every: u64,
}

pub const SPECS: [&Spec; 5] =
    [&ycsb::POINT_READ, &ycsb::UPDATE_HEAVY, &tpcc::SPEC, &scan_agg::SPEC, &fleet::SPEC];

pub fn spec(name: &str) -> Result<&'static Spec, String> {
    SPECS.iter().copied().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (have: {})", names.join(", "))
    })
}

/// Inputs for the host-clock probes, taken from the workload itself so
/// each probe times its layer on this workload's shapes.
pub struct ProbeInputs {
    /// Statements in the proportions the workload issues them.
    pub statements: Vec<(String, Vec<Datum>)>,
    /// The table the workload mostly touches, and one row of it.
    pub table: &'static str,
    pub row: Row,
    /// Rows in that table (sizes the standalone engines the storage and
    /// MVCC probes load).
    pub rows: u64,
    /// Generates one transaction's inputs (the generator's own cost).
    pub generate: Box<dyn Fn(u64)>,
}

/// A deployment that is loaded, analysed and warmed up, ready to be
/// measured.
pub enum Ready {
    Ycsb(ycsb::Ready),
    Tpcc(tpcc::Ready),
    ScanAgg(scan_agg::Ready),
    Fleet(fleet::Ready),
}

/// Builds workload `name` from `seed`. With `trace` the load loop starts
/// a trace per sampled transaction once the window opens.
pub fn setup(name: &str, seed: u64, trace: bool) -> Result<Ready, String> {
    match name {
        "point_read" => ycsb::setup(&ycsb::POINT_READ, seed, trace).map(Ready::Ycsb),
        "update_heavy" => ycsb::setup(&ycsb::UPDATE_HEAVY, seed, trace).map(Ready::Ycsb),
        "tpcc" => tpcc::setup(seed, trace).map(Ready::Tpcc),
        "scan_agg" => scan_agg::setup(seed, trace).map(Ready::ScanAgg),
        "cold_start_fleet" => fleet::setup(seed, trace).map(Ready::Fleet),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The tracer a traced run of `spec` uses.
pub fn tracer_for(spec: &'static Spec, dep: &Deployment, trace: bool) -> Option<Rc<Tracer>> {
    trace.then(|| Tracer::new(spec.name, spec.trace_every, &dep.sim))
}

/// What one measured run produced.
pub struct Run {
    pub dep: Deployment,
    /// The tenant the live probes connect to.
    pub tenant: TenantId,
    pub window: Window,
    pub stats: Rc<LoopStats>,
    pub tally: Rc<StmtTally>,
    pub tracer: Option<Rc<Tracer>>,
    /// Output-check failures (empty = correct).
    pub problems: Vec<String>,
    /// Workload-specific per-layer values, by full metric name.
    pub extra: BTreeMap<&'static str, f64>,
    /// Live user bytes in the tenant's tables (one replica), for
    /// `storage.space_amp`.
    pub live_user_bytes: f64,
    pub probe_inputs: ProbeInputs,
}

impl Ready {
    /// Measures `sim_secs` of simulated time and checks the outputs.
    pub fn run(self, sim_secs: f64) -> Result<Run, String> {
        match self {
            Ready::Ycsb(r) => r.run(sim_secs),
            Ready::Tpcc(r) => r.run(sim_secs),
            Ready::ScanAgg(r) => r.run(sim_secs),
            Ready::Fleet(r) => r.run(sim_secs),
        }
    }
}

/// A closed-loop workload's running state: one tenant, its clients and
/// the loop, warmed up with recording off.
pub struct Closed {
    pub dep: Deployment,
    pub tenant: TenantId,
    pub clients: Rc<Clients>,
    pub lp: Rc<ClosedLoop>,
    pub tracer: Option<Rc<Tracer>>,
    recording: Rc<Cell<bool>>,
}

impl Closed {
    /// Opens `spec.clients` connections, starts the loop over `source`
    /// and runs it for `warmup_sim_secs` unrecorded.
    pub fn start(
        spec: &'static Spec,
        dep: Deployment,
        tenant: TenantId,
        source: Rc<dyn TxnSource>,
        max_retries: u32,
        warmup_sim_secs: u64,
        trace: bool,
    ) -> Result<Closed, String> {
        let recording = Rc::new(Cell::new(false));
        let clients = Clients::open(&dep, tenant, spec.clients, Rc::clone(&recording))?;
        let tracer = tracer_for(spec, &dep, trace);
        let lp =
            ClosedLoop::new(&dep.sim, Rc::clone(&clients), source, max_retries, tracer.clone());
        lp.start();
        dep.sim.run_for(dur::secs(warmup_sim_secs));
        Ok(Closed { dep, tenant, clients, lp, tracer, recording })
    }

    /// The measured window, then a drain so output checks see a quiet
    /// database.
    pub fn measure(&self, sim_secs: f64) -> Result<Window, String> {
        let stats = Rc::clone(&self.lp.stats);
        let window = Window::measure(
            &self.dep,
            sim_secs,
            &self.recording,
            &|| stats.committed.get(),
            &|| self.dep.sql_cpu_seconds(self.tenant),
        )?;
        self.lp.drain();
        Ok(window)
    }

    /// The finished run of a closed-loop workload.
    pub fn into_run(
        self,
        window: Window,
        problems: Vec<String>,
        live_user_bytes: f64,
        probe_inputs: ProbeInputs,
    ) -> Run {
        Run {
            tenant: self.tenant,
            window,
            stats: Rc::clone(&self.lp.stats),
            tally: Rc::clone(&self.clients.tally),
            tracer: self.tracer,
            problems,
            extra: BTreeMap::new(),
            live_user_bytes,
            probe_inputs,
            dep: self.dep,
        }
    }

    /// Live bytes of `tables` per fresh `ANALYZE` statistics (rows ×
    /// average encoded key + value), one replica.
    pub fn live_user_bytes(&self, tables: &[&str]) -> Result<f64, String> {
        let conn = self.clients.conn(0).ok_or("no connection")?;
        let mut total = 0.0;
        for t in tables {
            self.dep.exec(conn, &format!("ANALYZE {t}"), vec![])?;
            let catalog = conn.node().catalog();
            let catalog = catalog.borrow();
            let id = catalog.table(t).map(|d| d.id).ok_or_else(|| format!("no table {t}"))?;
            if let Some(s) = catalog.stats(id) {
                total += (s.row_count * (s.avg_key_bytes + s.avg_value_bytes)) as f64;
            }
        }
        Ok(total)
    }
}
