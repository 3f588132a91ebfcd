//! What every workload shares: the deployment, blocking set-up calls,
//! the closed-loop driver with exact latency samples, the measured
//! window with its two clocks, and the counters read at its edges.

// simlint: allow-file(wall-clock) — bench harness: the host clock times
// what the simulator costs to run; nothing simulated reads it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_obs::{Span, Trace};
use crdb_serverless::proxy::Connection;
use crdb_sim::Sim;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::value::Datum;
use crdb_util::clock::ManualClock;
use crdb_util::time::{dur, SimTime};
use crdb_util::TenantId;
use crdb_workload::driver::{run_script, ScriptCtx, SqlExecutor, Step};

use crate::json::{self, Json};
use crate::stats::Digest;

/// Host-clock slices of the measured window: `host_us_per_txn` is the
/// median over them, so one scheduling hiccup moves one slice, not the
/// metric.
pub const SEGMENTS: u32 = 20;

const CONNECT_ATTEMPTS: u32 = 3;

/// How far a blocking set-up call may advance the simulation before it
/// counts as hung.
const BLOCK_LIMIT: Duration = Duration::from_secs(3_600);

/// A running serverless deployment and its simulation.
pub struct Deployment {
    pub sim: Sim,
    pub cluster: Rc<ServerlessCluster>,
}

impl Deployment {
    /// `seed` is the run's `--seed`: it seeds the simulator's RNG
    /// (network and cold-start jitter) as well as the workload's
    /// generators. Fed only to the generators, `point_read` and `scan_agg`
    /// — whose statements cost the same whatever key or cutoff they name
    /// — would be bit-identical for every seed, and a metric that never
    /// varies says nothing about how far a reordered event moves it.
    pub fn new(config: ServerlessConfig, seed: u64) -> Deployment {
        let sim = Sim::new(seed);
        let cluster = ServerlessCluster::new(&sim, config);
        Deployment { sim, cluster }
    }

    /// Steps the simulation until `start`'s callback has fired.
    pub fn block_on<T: 'static>(
        &self,
        what: &str,
        start: impl FnOnce(Box<dyn FnOnce(T)>),
    ) -> Result<T, String> {
        let slot: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let filled = Rc::clone(&slot);
        start(Box::new(move |v| *filled.borrow_mut() = Some(v)));
        let limit = self.sim.now() + BLOCK_LIMIT;
        loop {
            let got = slot.borrow_mut().take();
            if let Some(v) = got {
                return Ok(v);
            }
            if self.sim.now() > limit || !self.sim.step() {
                return Err(format!("{what}: did not complete"));
            }
        }
    }

    /// Connects outside the measured path (set-up, checks, probes). One
    /// cold start in a few thousand loses a race: a reconcile tick that
    /// lands in the 0.8 ms between the new node's registration and the
    /// session's opening sees a node without connections, scales it down
    /// and the connect fails with "node is Stopped". Like a client, this
    /// tries again, as the fleet's measured sessions do (and count it).
    pub fn connect(&self, tenant: TenantId, ip: &str) -> Result<Rc<Connection>, String> {
        let mut last = String::new();
        for _ in 0..CONNECT_ATTEMPTS {
            match self.block_on("connect", |cb| self.cluster.connect(tenant, ip, "perf", cb))? {
                Ok(conn) => return Ok(conn),
                Err(e) => last = format!("connect tenant {}: {e:?}", tenant.raw()),
            }
            self.sim.run_for(dur::secs(1));
        }
        Err(last)
    }

    pub fn exec(
        &self,
        conn: &Rc<Connection>,
        sql: &str,
        params: Vec<Datum>,
    ) -> Result<QueryOutput, String> {
        self.block_on(sql, |cb| self.cluster.execute(conn, sql, params, cb))?.map_err(|e| {
            let head: String = sql.chars().take(80).collect();
            format!("{head}: {e}")
        })
    }

    /// Runs schema, load and `ANALYZE` statements in order on `conn`.
    pub fn load(
        &self,
        conn: &Rc<Connection>,
        schema: &[&str],
        data: &[String],
    ) -> Result<(), String> {
        for s in schema {
            self.exec(conn, s, vec![])?;
        }
        for s in data {
            self.exec(conn, s, vec![])?;
        }
        for s in crdb_workload::analyze_statements(schema) {
            self.exec(conn, &s, vec![])?;
        }
        Ok(())
    }

    /// Ground-truth KV CPU-seconds consumed so far, all nodes.
    pub fn kv_cpu_seconds(&self) -> f64 {
        let kv = &self.cluster.kv;
        let mut ids = kv.node_ids();
        ids.sort();
        ids.into_iter().filter_map(|id| kv.node(id)).map(|n| n.cpu.cumulative_usage_total()).sum()
    }

    /// Ground-truth SQL CPU-seconds of one tenant's current SQL nodes.
    pub fn sql_cpu_seconds(&self, tenant: TenantId) -> f64 {
        self.cluster
            .registry
            .with_tenant(tenant, |e| {
                e.nodes
                    .iter()
                    .map(|n| n.sql_cpu_seconds())
                    .chain(e.draining.iter().map(|(n, _)| n.sql_cpu_seconds()))
                    .sum()
            })
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// Counters at the window's edges.
// ---------------------------------------------------------------------------

/// Every registry counter and gauge plus the ground-truth totals the
/// registry does not carry, read at one instant.
#[derive(Clone, Default)]
pub struct Counters {
    values: BTreeMap<String, f64>,
    pub kv_cpu_s: f64,
    pub sql_cpu_s: f64,
    pub events: u64,
    /// The snapshot text itself (the end-of-window one feeds `sim_digest`).
    pub snapshot: String,
}

impl Counters {
    pub fn capture(dep: &Deployment, sql_cpu_s: f64) -> Result<Counters, String> {
        let snapshot = dep.cluster.metrics_snapshot_json();
        let doc = json::parse(&snapshot)?;
        let mut values = BTreeMap::new();
        for section in ["counters", "gauges"] {
            let members = doc.get(section).and_then(Json::as_obj);
            for (k, v) in members.into_iter().flatten() {
                values.insert(k.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
        Ok(Counters {
            values,
            kv_cpu_s: dep.kv_cpu_seconds(),
            sql_cpu_s,
            events: dep.sim.events_executed(),
            snapshot,
        })
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn sum_suffix(&self, suffix: &str) -> f64 {
        self.values.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| v).sum()
    }
}

/// Counter movement across the measured window.
pub struct Delta {
    pub before: Counters,
    pub after: Counters,
}

impl Delta {
    /// Movement of one named registry value.
    pub fn of(&self, name: &str) -> f64 {
        self.after.value(name) - self.before.value(name)
    }

    /// Movement summed over every registry value whose name ends with
    /// `suffix` (one per KV node, or one per tenant).
    pub fn sum(&self, suffix: &str) -> f64 {
        self.after.sum_suffix(suffix) - self.before.sum_suffix(suffix)
    }

    pub fn kv_cpu_s(&self) -> f64 {
        self.after.kv_cpu_s - self.before.kv_cpu_s
    }

    pub fn sql_cpu_s(&self) -> f64 {
        self.after.sql_cpu_s - self.before.sql_cpu_s
    }

    pub fn events(&self) -> u64 {
        self.after.events - self.before.events
    }
}

// ---------------------------------------------------------------------------
// Tracing: one root per sampled transaction.
// ---------------------------------------------------------------------------

/// Starts a trace for every `every`-th transaction offered to it and
/// keeps the traces in memory until the run ends.
pub struct Tracer {
    name: &'static str,
    every: u64,
    clock: Arc<ManualClock>,
    offered: Cell<u64>,
    pub traces: RefCell<Vec<Trace>>,
}

impl Tracer {
    pub fn new(name: &'static str, every: u64, sim: &Sim) -> Rc<Tracer> {
        Rc::new(Tracer {
            name,
            every: every.max(1),
            clock: sim.clock(),
            offered: Cell::new(0),
            traces: RefCell::new(Vec::new()),
        })
    }

    /// The root span of a new trace if this transaction is sampled.
    pub fn sample(&self) -> Option<Span> {
        let n = self.offered.get();
        self.offered.set(n + 1);
        if !n.is_multiple_of(self.every) {
            return None;
        }
        let (trace, root) = Trace::start(self.name, self.clock.clone());
        self.traces.borrow_mut().push(trace);
        Some(root)
    }
}

// ---------------------------------------------------------------------------
// Clients: the SqlExecutor the load loops run on.
// ---------------------------------------------------------------------------

/// Statement-level tallies of the statements that succeeded while
/// recording was on.
#[derive(Default)]
pub struct StmtTally {
    pub statements: Cell<u64>,
    pub rows_read: Cell<u64>,
    pub rows_written: Cell<u64>,
    pub rows_out: Cell<u64>,
}

impl StmtTally {
    /// Counts one successful statement and its rows.
    pub fn add(&self, out: &QueryOutput) {
        self.statements.set(self.statements.get() + 1);
        self.rows_read.set(self.rows_read.get() + out.stats.rows_read);
        self.rows_written.set(self.rows_written.get() + out.stats.rows_written);
        let produced = out.rows.len() as u64 + out.rows_affected;
        self.rows_out.set(self.rows_out.get() + produced);
    }
}

/// One proxied connection per worker, like a client connection pool.
pub struct Clients {
    cluster: Rc<ServerlessCluster>,
    conns: Vec<Rc<Connection>>,
    /// The traced transaction each worker is inside, if any: entered
    /// around every `execute` so the cluster's spans land under it.
    roots: RefCell<Vec<Option<Span>>>,
    recording: Rc<Cell<bool>>,
    pub tally: Rc<StmtTally>,
}

impl Clients {
    pub fn open(
        dep: &Deployment,
        tenant: TenantId,
        workers: usize,
        recording: Rc<Cell<bool>>,
    ) -> Result<Rc<Clients>, String> {
        let mut conns = Vec::with_capacity(workers);
        for w in 0..workers {
            conns.push(dep.connect(tenant, &format!("10.1.{}.{}", w / 250, w % 250 + 1))?);
        }
        Ok(Rc::new(Clients {
            cluster: Rc::clone(&dep.cluster),
            roots: RefCell::new(vec![None; workers]),
            conns,
            recording,
            tally: Rc::new(StmtTally::default()),
        }))
    }

    pub fn conn(&self, worker: usize) -> Option<&Rc<Connection>> {
        self.conns.get(worker)
    }

    fn set_root(&self, worker: usize, root: Option<Span>) {
        let mut roots = self.roots.borrow_mut();
        if let Some(slot) = roots.get_mut(worker) {
            *slot = root;
        }
    }
}

impl SqlExecutor for Clients {
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        let Some(conn) = self.conns.get(worker) else {
            cb(Err(SqlError::State(format!("no connection for worker {worker}"))));
            return;
        };
        let root = self.roots.borrow().get(worker).cloned().flatten();
        let _scope = root.as_ref().map(Span::enter);
        let tally = Rc::clone(&self.tally);
        let recording = Rc::clone(&self.recording);
        self.cluster.execute(conn, &sql, params, move |r| {
            if let (true, Ok(out)) = (recording.get(), &r) {
                tally.add(out);
            }
            cb(r)
        });
    }
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

/// Supplies a closed loop's transactions and checks their outputs.
pub trait TxnSource {
    /// The next transaction for `worker`: its class (an index into the
    /// loop's per-class samples) and its script.
    fn begin(&self, worker: usize) -> (usize, Rc<Vec<Step>>);

    /// The transaction `worker` began is over: committed (`Ok`) or given
    /// up (`Err`). Returns a description of any wrong output.
    fn finish(&self, worker: usize, outcome: Result<&ScriptCtx, &SqlError>) -> Result<(), String>;
}

/// What the load loops record while `recording` is on. Latencies are raw
/// sim-nanosecond samples, one per committed transaction.
#[derive(Default)]
pub struct LoopStats {
    pub samples: RefCell<Vec<u64>>,
    pub by_class: RefCell<Vec<Vec<u64>>>,
    pub committed: Cell<u64>,
    first_commit: Cell<Option<SimTime>>,
    last_commit: Cell<SimTime>,
    /// Retryable errors that exhausted the retry budget.
    pub aborted: Cell<u64>,
    /// Non-retryable statement errors.
    pub errored: Cell<u64>,
    /// Connections or statements the proxy refused (open loop only).
    pub refused: Cell<u64>,
    pub retries: Cell<u64>,
    pub mismatches: Cell<u64>,
    pub first_mismatch: RefCell<Option<String>>,
    pub last_error: RefCell<Option<String>>,
}

impl LoopStats {
    pub fn failed(&self) -> u64 {
        self.aborted.get() + self.errored.get() + self.refused.get()
    }

    pub fn attempted(&self) -> u64 {
        self.committed.get() + self.failed()
    }

    /// A transaction committed at `now` (with recording on).
    pub fn commit(&self, now: SimTime) {
        self.committed.set(self.committed.get() + 1);
        if self.first_commit.get().is_none() {
            self.first_commit.set(Some(now));
        }
        self.last_commit.set(now);
    }

    /// A transaction of `class` committed at `now` after `latency`.
    pub fn record(&self, class: usize, now: SimTime, latency: Duration) {
        self.commit(now);
        let ns = latency.as_nanos() as u64;
        self.samples.borrow_mut().push(ns);
        let mut by_class = self.by_class.borrow_mut();
        if by_class.len() <= class {
            by_class.resize(class + 1, Vec::new());
        }
        if let Some(v) = by_class.get_mut(class) {
            v.push(ns);
        }
    }

    /// Commits per simulated second between the first and the last
    /// recorded commit. Counting whole commits over the whole window
    /// instead would quantize: a workload that fits 1,044 queries into
    /// its window reads 26.1000 tps whatever the queries' exact length.
    pub fn throughput_tps(&self) -> f64 {
        let n = self.committed.get();
        match self.first_commit.get() {
            Some(first) if n > 1 && self.last_commit.get() > first => {
                (n - 1) as f64 / self.last_commit.get().duration_since(first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    pub fn mismatch(&self, what: String) {
        self.mismatches.set(self.mismatches.get() + 1);
        let mut first = self.first_mismatch.borrow_mut();
        if first.is_none() {
            *first = Some(what);
        }
    }
}

/// Closed-loop driver: each worker owns a connection, runs one
/// transaction at a time with no think time, and retries retryable
/// errors with the stock driver's backoff. A transaction is timed from
/// its first attempt to its commit.
pub struct ClosedLoop {
    sim: Sim,
    clients: Rc<Clients>,
    source: Rc<dyn TxnSource>,
    max_retries: u32,
    tracer: Option<Rc<Tracer>>,
    recording: Rc<Cell<bool>>,
    stopping: Cell<bool>,
    busy: Cell<usize>,
    pub stats: Rc<LoopStats>,
}

impl ClosedLoop {
    pub fn new(
        sim: &Sim,
        clients: Rc<Clients>,
        source: Rc<dyn TxnSource>,
        max_retries: u32,
        tracer: Option<Rc<Tracer>>,
    ) -> Rc<ClosedLoop> {
        Rc::new(ClosedLoop {
            sim: sim.clone(),
            recording: Rc::clone(&clients.recording),
            clients,
            source,
            max_retries,
            tracer,
            stopping: Cell::new(false),
            busy: Cell::new(0),
            stats: Rc::new(LoopStats::default()),
        })
    }

    pub fn start(self: &Rc<Self>) {
        for w in 0..self.clients.conns.len() {
            self.next_txn(w);
        }
    }

    /// Lets in-flight transactions finish and starts no new ones.
    pub fn drain(&self) {
        self.stopping.set(true);
        while self.busy.get() > 0 && self.sim.step() {}
    }

    fn next_txn(self: &Rc<Self>, worker: usize) {
        if self.stopping.get() {
            return;
        }
        self.busy.set(self.busy.get() + 1);
        let (class, steps) = self.source.begin(worker);
        let root = match &self.tracer {
            Some(t) if self.recording.get() => t.sample(),
            _ => None,
        };
        self.clients.set_root(worker, root.clone());
        self.attempt(worker, class, steps, self.sim.now(), 0, root);
    }

    fn attempt(
        self: &Rc<Self>,
        worker: usize,
        class: usize,
        steps: Rc<Vec<Step>>,
        began: SimTime,
        tries: u32,
        root: Option<Span>,
    ) {
        let this = Rc::clone(self);
        let again = Rc::clone(&steps);
        // `run_script` wants an owned executor handle; `Clients` is the
        // one implementation, shared by every worker.
        let executor: Rc<dyn SqlExecutor> = Rc::clone(&self.clients) as Rc<dyn SqlExecutor>;
        run_script(
            executor,
            worker,
            steps,
            Box::new(move |result| match result {
                Err(e) if e.is_retryable() && tries < this.max_retries => {
                    if this.recording.get() {
                        this.stats.retries.set(this.stats.retries.get() + 1);
                    }
                    let backoff = dur::ms(1 << tries.min(6));
                    let this2 = Rc::clone(&this);
                    this.sim.schedule_after(backoff, move || {
                        this2.attempt(worker, class, again, began, tries + 1, root);
                    });
                }
                outcome => this.finished(worker, class, began, outcome, root),
            }),
        );
    }

    fn finished(
        self: &Rc<Self>,
        worker: usize,
        class: usize,
        began: SimTime,
        outcome: Result<ScriptCtx, SqlError>,
        root: Option<Span>,
    ) {
        if let Some(r) = &root {
            r.end();
        }
        self.clients.set_root(worker, None);
        let recording = self.recording.get();
        let stats = &self.stats;
        let checked = match &outcome {
            Ok(ctx) => {
                if recording {
                    let now = self.sim.now();
                    stats.record(class, now, now.duration_since(began));
                }
                self.source.finish(worker, Ok(ctx))
            }
            Err(e) => {
                if recording {
                    let counter = if e.is_retryable() { &stats.aborted } else { &stats.errored };
                    counter.set(counter.get() + 1);
                    *stats.last_error.borrow_mut() = Some(e.to_string());
                }
                self.source.finish(worker, Err(e))
            }
        };
        if let Err(what) = checked {
            stats.mismatch(what);
        }
        self.busy.set(self.busy.get() - 1);
        // A fresh event, as the stock driver does: the next transaction
        // must not start inside this one's callback (and span) stack.
        let this = Rc::clone(self);
        self.sim.schedule_after(dur::us(1), move || this.next_txn(worker));
    }
}

// ---------------------------------------------------------------------------
// The measured window.
// ---------------------------------------------------------------------------

/// One measured window: both clocks, counters at the edges.
pub struct Window {
    pub host_ns: u64,
    /// Host ns and committed transactions per slice.
    pub segments: Vec<(u64, u64)>,
    pub delta: Delta,
    /// Mean of the registry's active-tenant count at slice boundaries.
    pub active_tenants_mean: f64,
    /// `VmHWM` when the window closed, MiB.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Runs the simulation for `sim_secs` with recording on.
    /// `committed` reads the loop's commit count; `sql_cpu` the SQL
    /// CPU-seconds the workload's tenants have consumed.
    pub fn measure(
        dep: &Deployment,
        sim_secs: f64,
        recording: &Cell<bool>,
        committed: &dyn Fn() -> u64,
        sql_cpu: &dyn Fn() -> f64,
    ) -> Result<Window, String> {
        let before = Counters::capture(dep, sql_cpu())?;
        let start = dep.sim.now();
        let slice = sim_secs / f64::from(SEGMENTS);
        let mut segments = Vec::with_capacity(SEGMENTS as usize);
        let mut active_sum = 0usize;
        recording.set(true);
        let t0 = Instant::now();
        let mut seen = committed();
        for i in 1..=SEGMENTS {
            let t = Instant::now();
            dep.sim.run_until(start + dur::secs_f64(slice * f64::from(i)));
            let host_ns = t.elapsed().as_nanos() as u64;
            let now = committed();
            segments.push((host_ns, now - seen));
            seen = now;
            active_sum += dep.cluster.registry.active_tenant_count();
        }
        let host_ns = t0.elapsed().as_nanos() as u64;
        recording.set(false);
        let after = Counters::capture(dep, sql_cpu())?;
        Ok(Window {
            host_ns,
            segments,
            delta: Delta { before, after },
            active_tenants_mean: active_sum as f64 / f64::from(SEGMENTS),
            peak_rss_mib: peak_rss_mib(),
        })
    }

    /// Median over slices of host µs per committed transaction.
    pub fn host_us_per_txn(&self) -> f64 {
        let per: Vec<f64> = self
            .segments
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(ns, n)| *ns as f64 / 1e3 / *n as f64)
            .collect();
        crate::stats::median(&per)
    }
}

/// Runs `f`; returns its result and the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Host nanoseconds per call of `op`: the median of `rounds` rounds of
/// at least `round` each, looking at the clock every `batch` calls.
pub fn time_per_call_ns(rounds: usize, round: Duration, batch: u64, mut op: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < round {
            for _ in 0..batch {
                op();
            }
            calls += batch;
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    crate::stats::median(&per_call)
}

/// `VmHWM` of this process in MiB (0 where procfs is missing).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `sim_digest`: a hash of every simulated statistic of a run — sorted
/// latency samples, outcome counts and the end-of-window metrics
/// snapshot. Equal digests mean the simulated system behaved identically.
pub fn sim_digest(stats: &LoopStats, window: &Window) -> u64 {
    let mut d = Digest::new();
    let mut sorted = stats.samples.borrow().clone();
    sorted.sort_unstable();
    d.u64(sorted.len() as u64);
    for s in sorted {
        d.u64(s);
    }
    for c in [&stats.committed, &stats.aborted, &stats.errored, &stats.refused, &stats.retries] {
        d.u64(c.get());
    }
    d.u64(window.delta.events());
    d.bytes(window.delta.after.snapshot.as_bytes());
    d.finish()
}
