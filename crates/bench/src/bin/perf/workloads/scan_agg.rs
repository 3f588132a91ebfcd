//! `scan_agg`: TPC-H-lite Q1 over `lineitem`, checked against an
//! aggregate the harness computes from the rows it generated.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_core::ServerlessConfig;
use crdb_sql::coord::SqlError;
use crdb_sql::value::Datum;
use crdb_util::RegionId;
use crdb_workload::driver::{stmt_params, ScriptCtx, Step};
use crdb_workload::tpch::{q1_sql, schema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{Closed, ProbeInputs, Run, Spec};
use crate::harness::{Deployment, TxnSource};

pub static SPEC: Spec = Spec {
    name: "scan_agg",
    why: "per-row work does everything (merge iterator, MVCC scan, row decode, SQL/KV \
          marshalling) and per-statement overhead under 1 %: Q1 over 10,000 lineitems",
    clients: 2,
    full_sim_secs: 40.0,
    txn: "one Q1 query",
    classes: &["q1"],
    trace_every: 1,
};

const LINEITEMS: u64 = 10_000;
const ORDERS: u64 = 2_500;
const WARMUP_SIM_SECS: u64 = 1;
/// Ship dates are uniform in `[SHIP_BASE, SHIP_BASE + SHIP_SPAN)`; each
/// query's cutoff is drawn from the narrow `CUTOFFS` band so every query
/// aggregates about 80 % of the table and costs about the same.
const SHIP_BASE: i64 = 10_000;
const SHIP_SPAN: i64 = 2_500;
const CUTOFFS: std::ops::RangeInclusive<i64> = 11_900..=12_100;

/// One generated `lineitem` row. Quantities and prices are whole
/// numbers, so every sum is exact in `f64` whatever order the executor
/// adds them in, and the output check can demand equality.
struct Line {
    quantity: f64,
    price: f64,
    flag: &'static str,
    status: &'static str,
    shipdate: i64,
}

fn generate_lines(seed: u64) -> Vec<Line> {
    const FLAGS: [&str; 3] = ["A", "N", "R"];
    const STATUSES: [&str; 2] = ["F", "O"];
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca9_a99e);
    (0..LINEITEMS)
        .map(|_| {
            let quantity = f64::from(rng.gen_range(1..=50u32));
            let price = f64::from(rng.gen_range(100..1_000u32));
            let (flag, status) = (rng.gen_range(0..3usize), rng.gen_range(0..2usize));
            let shipdate = SHIP_BASE + rng.gen_range(0..SHIP_SPAN);
            Line { quantity, price, flag: FLAGS[flag], status: STATUSES[status], shipdate }
        })
        .collect()
}

fn insert_statements(lines: &[Line]) -> Vec<String> {
    let rows: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let i = i as u64;
            format!(
                "({}, {}, {}, {}, {:?}, {:?}, 0.05, '{}', '{}', {})",
                1 + i % ORDERS,
                1 + i / ORDERS,
                1 + i % 40,
                1 + i % 40,
                l.quantity,
                l.price,
                l.flag,
                l.status,
                l.shipdate
            )
        })
        .collect();
    rows.chunks(50).map(|c| format!("INSERT INTO lineitem VALUES {}", c.join(", "))).collect()
}

/// Q1's answer for `cutoff`: `(flag, status) → (sum_qty, sum_price, count)`.
fn expected(
    lines: &[Line],
    cutoff: i64,
) -> BTreeMap<(&'static str, &'static str), (f64, f64, i64)> {
    let mut groups = BTreeMap::new();
    for l in lines.iter().filter(|l| l.shipdate <= cutoff) {
        let g = groups.entry((l.flag, l.status)).or_insert((0.0, 0.0, 0));
        g.0 += l.quantity;
        g.1 += l.price;
        g.2 += 1;
    }
    groups
}

struct Source {
    seed: u64,
    lines: Vec<Line>,
    next_query: Cell<u64>,
    inflight: RefCell<BTreeMap<usize, i64>>,
}

fn cutoff(seed: u64, n: u64) -> i64 {
    SmallRng::seed_from_u64(seed ^ n.wrapping_mul(0x9e37_79b9)).gen_range(CUTOFFS)
}

impl Source {
    fn check(&self, cutoff: i64, ctx: &ScriptCtx) -> Result<(), String> {
        let rows = ctx.outputs.first().map(|o| o.rows.as_slice()).unwrap_or_default();
        let want = expected(&self.lines, cutoff);
        if rows.len() != want.len() {
            return Err(format!("cutoff {cutoff}: {} groups, want {}", rows.len(), want.len()));
        }
        // Q1 orders by (flag, status), which is the map's order.
        for (row, ((flag, status), (qty, price, count))) in rows.iter().zip(&want) {
            let f = |i: usize| row.get(i).and_then(Datum::as_f64).unwrap_or(f64::NAN);
            let s = |i: usize| row.get(i).and_then(Datum::as_str).unwrap_or_default();
            let n = *count as f64;
            let ok = s(0) == *flag
                && s(1) == *status
                && f(2) == *qty
                && f(3) == *price
                && (f(4) - qty / n).abs() <= 1e-9 * qty / n
                && (f(5) - price / n).abs() <= 1e-9 * price / n
                && row.get(6).and_then(Datum::as_i64) == Some(*count);
            if !ok {
                return Err(format!("cutoff {cutoff}: group ({flag},{status}) is {row:?}"));
            }
        }
        Ok(())
    }
}

impl TxnSource for Source {
    fn begin(&self, worker: usize) -> (usize, Rc<Vec<Step>>) {
        let n = self.next_query.get();
        self.next_query.set(n + 1);
        let c = cutoff(self.seed, n);
        self.inflight.borrow_mut().insert(worker, c);
        (0, Rc::new(vec![stmt_params(q1_sql(), vec![Datum::Int(c)])]))
    }

    fn finish(&self, worker: usize, outcome: Result<&ScriptCtx, &SqlError>) -> Result<(), String> {
        let c = self.inflight.borrow_mut().remove(&worker);
        match (c, outcome) {
            (Some(c), Ok(ctx)) => self.check(c, ctx),
            _ => Ok(()),
        }
    }
}

pub struct Ready {
    seed: u64,
    closed: Closed,
}

pub fn setup(seed: u64, trace: bool) -> Result<Ready, String> {
    let dep = Deployment::new(ServerlessConfig::default(), seed);
    let tenant = dep.cluster.create_tenant(vec![RegionId(0)], None);
    let loader = dep.connect(tenant, "10.1.255.1")?;
    let lines = generate_lines(seed);
    dep.load(&loader, &schema(), &insert_statements(&lines))?;
    dep.cluster.close(&loader);
    let source = Rc::new(Source {
        seed,
        lines,
        next_query: Cell::new(0),
        inflight: RefCell::new(BTreeMap::new()),
    });
    let closed = Closed::start(&SPEC, dep, tenant, source, 0, WARMUP_SIM_SECS, trace)?;
    Ok(Ready { seed, closed })
}

impl Ready {
    pub fn run(self, sim_secs: f64) -> Result<Run, String> {
        let Ready { seed, closed } = self;
        let window = closed.measure(sim_secs)?;
        let mut problems = Vec::new();
        let conn = closed.clients.conn(0).ok_or("no connection")?;
        let count = closed.dep.exec(conn, "SELECT COUNT(*) FROM lineitem", vec![])?;
        let rows = count.rows.first().and_then(|r| r.first()).and_then(Datum::as_i64);
        if rows != Some(LINEITEMS as i64) {
            problems.push(format!("lineitem holds {rows:?} rows, loaded {LINEITEMS}"));
        }
        let live_user_bytes = closed.live_user_bytes(&["lineitem"])?;
        let probe_inputs = ProbeInputs {
            statements: (0..16)
                .map(|n| (q1_sql().to_string(), vec![Datum::Int(cutoff(seed, n))]))
                .collect(),
            table: "lineitem",
            row: vec![
                Datum::Int(1),
                Datum::Int(1),
                Datum::Int(1),
                Datum::Int(1),
                Datum::Float(17.0),
                Datum::Float(555.0),
                Datum::Float(0.05),
                Datum::Str("A".into()),
                Datum::Str("F".into()),
                Datum::Int(11_000),
            ],
            rows: LINEITEMS,
            generate: Box::new(move |n| {
                std::hint::black_box(cutoff(seed, n));
            }),
        };
        Ok(closed.into_run(window, problems, live_user_bytes, probe_inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_rows_and_cutoffs_are_seed_deterministic() {
        let key = |l: &Line| (l.quantity as u32, l.price as u32, l.flag, l.status, l.shipdate);
        let a: Vec<_> = generate_lines(11).iter().map(key).collect();
        let b: Vec<_> = generate_lines(11).iter().map(key).collect();
        let c: Vec<_> = generate_lines(12).iter().map(key).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cutoff(11, 5), cutoff(11, 5));
        assert!((0..100).all(|n| CUTOFFS.contains(&cutoff(11, n))));
    }

    #[test]
    fn expected_groups_cover_every_selected_row() {
        let lines = generate_lines(3);
        let groups = expected(&lines, 12_000);
        assert_eq!(groups.len(), 6);
        let selected = lines.iter().filter(|l| l.shipdate <= 12_000).count() as i64;
        assert_eq!(groups.values().map(|g| g.2).sum::<i64>(), selected);
    }
}
