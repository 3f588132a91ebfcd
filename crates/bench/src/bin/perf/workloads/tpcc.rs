//! `tpcc`: the stock TPC-C-lite mix, closed loop, with the consistency
//! conditions checked after the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_core::ServerlessConfig;
use crdb_sql::coord::SqlError;
use crdb_sql::value::Datum;
use crdb_util::RegionId;
use crdb_workload::driver::{ScriptCtx, Step, TxnFactory};
use crdb_workload::tpcc::{load_statements, mix_factory, schema, TpccConfig};

use super::{Closed, ProbeInputs, Run, Spec};
use crate::harness::{Deployment, TxnSource};

pub static SPEC: Spec = Spec {
    name: "tpcc",
    why: "multi-statement read-write transactions with real conflicts: coordinator, intents, \
          refresh, pushes and retries dominate; 16 warehouses, standard mix, retries <= 20",
    clients: 8,
    // Product defaults throughout, so the window has to end well before
    // its 63rd simulated second: there the write-admission estimator
    // takes the light flush traffic for the disk's capacity, tokens fall
    // to the 64 KB/s floor and commits per second to a quarter (the README
    // has the measurement). A window across that edge measures where it
    // fell.
    full_sim_secs: 50.0,
    txn: "one committed TPC-C-lite script, timed from its first attempt",
    classes: &["new_order", "payment", "order_status", "delivery", "stock_level"],
    trace_every: 8,
};

const MAX_RETRIES: u32 = 20;
const WARMUP_SIM_SECS: u64 = 2;
const TABLES: [&str; 7] =
    ["warehouse", "district", "customer", "item", "stock", "orders", "order_line"];

fn config() -> TpccConfig {
    TpccConfig { warehouses: 16, ..TpccConfig::default() }
}

struct Source {
    factory: TxnFactory,
    inflight: RefCell<BTreeMap<usize, usize>>,
    /// New-Order commits acknowledged since the load, recorded or not.
    new_orders: Cell<u64>,
    /// Transactions given up on: their effects may or may not be there.
    uncertain: Cell<u64>,
}

impl TxnSource for Source {
    fn begin(&self, worker: usize) -> (usize, Rc<Vec<Step>>) {
        let (label, steps) = (self.factory)(worker);
        let class = SPEC.classes.iter().position(|c| *c == label).unwrap_or(0);
        self.inflight.borrow_mut().insert(worker, class);
        (class, steps)
    }

    fn finish(&self, worker: usize, outcome: Result<&ScriptCtx, &SqlError>) -> Result<(), String> {
        let class = self.inflight.borrow_mut().remove(&worker);
        match outcome {
            Ok(_) if class == Some(0) => self.new_orders.set(self.new_orders.get() + 1),
            Ok(_) => {}
            Err(_) => self.uncertain.set(self.uncertain.get() + 1),
        }
        Ok(())
    }
}

pub struct Ready {
    seed: u64,
    closed: Closed,
    source: Rc<Source>,
}

pub fn setup(seed: u64, trace: bool) -> Result<Ready, String> {
    let dep = Deployment::new(ServerlessConfig::default(), seed);
    let tenant = dep.cluster.create_tenant(vec![RegionId(0)], None);
    let loader = dep.connect(tenant, "10.1.255.1")?;
    dep.load(&loader, &schema(), &load_statements(&config()))?;
    dep.cluster.close(&loader);
    let source = Rc::new(Source {
        factory: mix_factory(config(), seed),
        inflight: RefCell::new(BTreeMap::new()),
        new_orders: Cell::new(0),
        uncertain: Cell::new(0),
    });
    let closed = Closed::start(
        &SPEC,
        dep,
        tenant,
        Rc::clone(&source) as Rc<dyn TxnSource>,
        MAX_RETRIES,
        WARMUP_SIM_SECS,
        trace,
    )?;
    Ok(Ready { seed, closed, source })
}

fn int(row: &[Datum], i: usize) -> i64 {
    row.get(i).and_then(Datum::as_i64).unwrap_or(0)
}

fn float(row: &[Datum], i: usize) -> f64 {
    row.get(i).and_then(Datum::as_f64).unwrap_or(0.0)
}

impl Ready {
    /// The TPC-C consistency conditions, as changes since the load (which
    /// left every `ytd` at 0 and every `d_next_o_id` at 1).
    fn check(&self, problems: &mut Vec<String>) -> Result<(), String> {
        let dep = &self.closed.dep;
        let conn = self.closed.clients.conn(0).ok_or("no connection")?;
        let warehouses = dep.exec(conn, "SELECT w_id, w_ytd FROM warehouse", vec![])?;
        let districts =
            dep.exec(conn, "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district", vec![])?;
        let orders = dep.exec(conn, "SELECT o_w_id, o_d_id, o_ol_cnt FROM orders", vec![])?;
        let lines = dep.exec(conn, "SELECT COUNT(*) FROM order_line", vec![])?;

        // 1. Each warehouse's year-to-date equals its districts' sum.
        let mut d_ytd: BTreeMap<i64, f64> = BTreeMap::new();
        for d in &districts.rows {
            *d_ytd.entry(int(d, 0)).or_default() += float(d, 2);
        }
        for w in &warehouses.rows {
            let (id, ytd) = (int(w, 0), float(w, 1));
            let sum = d_ytd.get(&id).copied().unwrap_or(0.0);
            if (ytd - sum).abs() > 1e-6 * ytd.abs().max(1.0) {
                problems.push(format!("warehouse {id}: w_ytd {ytd} != sum(d_ytd) {sum}"));
            }
        }
        // 2. Each district handed out exactly as many order ids as it has
        //    orders.
        let mut per_district: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        let mut ol_cnt = 0;
        for o in &orders.rows {
            *per_district.entry((int(o, 0), int(o, 1))).or_default() += 1;
            ol_cnt += int(o, 2);
        }
        for d in &districts.rows {
            let key = (int(d, 0), int(d, 1));
            let have = per_district.get(&key).copied().unwrap_or(0);
            if int(d, 3) - 1 != have {
                problems.push(format!(
                    "district {key:?}: d_next_o_id {} with {have} orders",
                    int(d, 3)
                ));
            }
        }
        // 3. Order lines match the counts their orders carry.
        let line_rows = lines.rows.first().map_or(0, |r| int(r, 0));
        if line_rows != ol_cnt {
            problems.push(format!("order_line has {line_rows} rows, sum(o_ol_cnt) = {ol_cnt}"));
        }
        // 4. Every acknowledged New-Order is there, and nothing else is
        //    (beyond transactions whose outcome the client never learned).
        let (acked, unsure) = (self.source.new_orders.get(), self.source.uncertain.get());
        let have = orders.rows.len() as u64;
        if have < acked || have > acked + unsure {
            problems.push(format!("{have} orders for {acked} acknowledged New-Orders (+{unsure})"));
        }
        Ok(())
    }

    pub fn run(self, sim_secs: f64) -> Result<Run, String> {
        let window = self.closed.measure(sim_secs)?;
        let mut problems = Vec::new();
        self.check(&mut problems)?;
        let live_user_bytes = self.closed.live_user_bytes(&TABLES)?;

        // The statement mix as the generator produces it; data-dependent
        // steps fall back to their defaults without prior outputs.
        let sample = mix_factory(config(), self.seed);
        let ctx = ScriptCtx::default();
        let statements =
            (0..32).flat_map(|_| sample(0).1.iter().map(|s| s(&ctx)).collect::<Vec<_>>()).collect();
        let generator = mix_factory(config(), self.seed);
        let probe_inputs = ProbeInputs {
            statements,
            table: "stock",
            row: vec![
                Datum::Int(1),
                Datum::Int(1),
                Datum::Int(50),
                Datum::Float(0.0),
                Datum::Int(0),
            ],
            rows: config().warehouses * config().items,
            generate: Box::new(move |n| {
                std::hint::black_box(generator(n as usize % SPEC.clients));
            }),
        };
        let Ready { closed, .. } = self;
        Ok(closed.into_run(window, problems, live_user_bytes, probe_inputs))
    }
}
