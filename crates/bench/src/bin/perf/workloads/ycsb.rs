//! `point_read` and `update_heavy`: YCSB-lite point statements on one
//! tenant. The harness owns the generator so that every payload it
//! writes carries a per-key version, which is what lets each SELECT be
//! checked against "the payload the harness last wrote".

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_core::ServerlessConfig;
use crdb_sql::coord::SqlError;
use crdb_sql::value::Datum;
use crdb_util::RegionId;
use crdb_workload::driver::{stmt_params, ScriptCtx, Step};
use crdb_workload::ycsb::{schema, skewed_key};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{Closed, ProbeInputs, Run, Spec};
use crate::harness::{Deployment, TxnSource};

const READ_SQL: &str = "SELECT field0, field1 FROM usertable WHERE ycsb_key = $1";
const UPDATE_SQL: &str = "UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1";

/// Hottest 1 % of keys take 10 % of operations. `skew = 0.99` in
/// `ycsb::skewed_key` sends ~90 % of operations to key 1, which measures
/// one row's contention instead of the statement path.
const SKEW: f64 = 0.5;

pub static POINT_READ: Spec = Spec {
    name: "point_read",
    why: "fixed per-statement overhead (parse, plan, proxy hops, one KV round trip) does all \
          the work and storage almost none: 10,000 x 200 B rows fit one memtable, 100 % reads",
    clients: 8,
    full_sim_secs: 300.0,
    txn: "one SELECT by primary key",
    classes: &["read", "update"],
    trace_every: 150,
};

pub static UPDATE_HEAVY: Spec = Spec {
    name: "update_heavy",
    why: "the write path end to end (intents, two-step commit, quorum, WAL group commit, \
          flush, compaction): 20,000 x 2 KB rows are 10x the memtable, 40 % reads / 60 % updates",
    clients: 8,
    full_sim_secs: 90.0,
    txn: "one SELECT or UPDATE by primary key",
    classes: &["read", "update"],
    trace_every: 32,
};

struct Shape {
    records: u64,
    field_len: usize,
    read_fraction: f64,
    warmup_sim_secs: u64,
}

fn shape(spec: &Spec) -> Shape {
    if spec.name == POINT_READ.name {
        Shape { records: 10_000, field_len: 100, read_fraction: 1.0, warmup_sim_secs: 2 }
    } else {
        // Freshly loaded, fully compacted data commits ~10 % faster until
        // flushes and compactions reach their rhythm; the longer warm-up
        // covers most of that. 40 % reads, not YCSB-A's 50: reads take
        // ~3 ms and updates ~10 ms, so at 50/50 the median transaction
        // sits on the gap between the two modes and jumps from one to
        // the other with the seed (4.8 ms or 7.2 ms, measured).
        Shape { records: 20_000, field_len: 1_000, read_fraction: 0.4, warmup_sim_secs: 10 }
    }
}

/// `field0` for `key` at `version`: both are readable back from the
/// payload's head, the rest is filler up to the field length.
fn field0(key: u64, version: u32, len: usize) -> String {
    let mut s = format!("{key:07}.{version:07}.");
    s.extend(std::iter::repeat_n('x', len.saturating_sub(s.len())));
    s
}

fn field1(key: u64, len: usize) -> String {
    let mut s = format!("{key:07}.");
    s.extend(std::iter::repeat_n('y', len.saturating_sub(s.len())));
    s
}

/// `(key, version)` from a `field0` payload.
fn parse_field0(s: &str) -> Option<(u64, u32)> {
    let mut parts = s.splitn(3, '.');
    let key = parts.next()?.parse().ok()?;
    let version = parts.next()?.parse().ok()?;
    Some((key, version))
}

/// The seeded operation stream: which key, read or update. A function of
/// `(seed, worker, n)` only, like the stock YCSB factory.
pub struct OpStream {
    seed: u64,
    records: u64,
    read_fraction: f64,
}

impl OpStream {
    fn rng(&self, worker: usize, n: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed ^ (worker as u64).wrapping_mul(0x1656_67b1) ^ n.wrapping_mul(0x9e37_79b9),
        )
    }

    /// `(key, is_read)` of the `n`-th operation, first draw.
    pub fn op(&self, worker: usize, n: u64) -> (u64, bool) {
        let mut rng = self.rng(worker, n);
        let key = skewed_key(&mut rng, self.records, SKEW) as u64;
        (key, rng.gen::<f64>() < self.read_fraction)
    }
}

#[derive(Clone, Copy, Default)]
struct KeyState {
    /// Highest version any UPDATE was issued with.
    issued: u32,
    /// Highest version an UPDATE was acknowledged with.
    acked: u32,
    /// An UPDATE is in flight. The generator never has two in flight on
    /// one key, so versions commit in issue order and a SELECT's legal
    /// answers are the closed range `[acked at issue, issued at reply]`.
    writing: bool,
}

enum InFlight {
    Read { key: u64, floor: u32 },
    Update { key: u64, version: u32 },
}

struct Source {
    ops: OpStream,
    field_len: usize,
    next_op: Cell<u64>,
    keys: RefCell<Vec<KeyState>>,
    inflight: RefCell<BTreeMap<usize, InFlight>>,
}

impl Source {
    fn key_state(&self, key: u64) -> KeyState {
        self.keys.borrow().get(key as usize).copied().unwrap_or_default()
    }

    fn update_key(&self, key: u64, f: impl FnOnce(&mut KeyState)) {
        let mut keys = self.keys.borrow_mut();
        if let Some(k) = keys.get_mut(key as usize) {
            f(k);
        }
    }

    fn check_read(&self, key: u64, floor: u32, ctx: &ScriptCtx) -> Result<(), String> {
        let rows = ctx.outputs.first().map(|o| o.rows.as_slice()).unwrap_or_default();
        let [row] = rows else {
            return Err(format!("key {key}: SELECT returned {} rows", rows.len()));
        };
        let got0 = row.first().and_then(Datum::as_str).unwrap_or_default();
        let got1 = row.get(1).and_then(Datum::as_str).unwrap_or_default();
        let ceiling = self.key_state(key).issued;
        match parse_field0(got0) {
            Some((k, v)) if k == key && (floor..=ceiling).contains(&v) => {}
            other => {
                return Err(format!(
                    "key {key}: field0 carries {other:?}, legal versions {floor}..={ceiling}"
                ))
            }
        }
        if got0.len() != self.field_len || got1 != field1(key, self.field_len) {
            return Err(format!("key {key}: payload damaged"));
        }
        Ok(())
    }
}

impl TxnSource for Source {
    fn begin(&self, worker: usize) -> (usize, Rc<Vec<Step>>) {
        let n = self.next_op.get();
        self.next_op.set(n + 1);
        let mut rng = self.ops.rng(worker, n);
        let mut key = skewed_key(&mut rng, self.ops.records, SKEW) as u64;
        let is_read = rng.gen::<f64>() < self.ops.read_fraction;
        if is_read {
            let floor = self.key_state(key).acked;
            self.inflight.borrow_mut().insert(worker, InFlight::Read { key, floor });
            return (0, Rc::new(vec![stmt_params(READ_SQL, vec![Datum::Int(key as i64)])]));
        }
        // At most `clients - 1` keys are being written, so this ends.
        while self.key_state(key).writing {
            key = skewed_key(&mut rng, self.ops.records, SKEW) as u64;
        }
        let version = self.key_state(key).issued + 1;
        self.update_key(key, |k| {
            k.issued = version;
            k.writing = true;
        });
        self.inflight.borrow_mut().insert(worker, InFlight::Update { key, version });
        let payload = field0(key, version, self.field_len);
        let params = vec![Datum::Int(key as i64), Datum::Str(payload)];
        (1, Rc::new(vec![stmt_params(UPDATE_SQL, params)]))
    }

    fn finish(&self, worker: usize, outcome: Result<&ScriptCtx, &SqlError>) -> Result<(), String> {
        let op = self.inflight.borrow_mut().remove(&worker);
        match (op, outcome) {
            (Some(InFlight::Read { key, floor }), Ok(ctx)) => self.check_read(key, floor, ctx),
            (Some(InFlight::Update { key, version }), Ok(ctx)) => {
                self.update_key(key, |k| {
                    k.acked = version;
                    k.writing = false;
                });
                match ctx.outputs.first().map(|o| o.rows_affected) {
                    Some(1) => Ok(()),
                    other => Err(format!("key {key}: UPDATE affected {other:?} rows")),
                }
            }
            (Some(InFlight::Update { key, .. }), Err(_)) => {
                // Unknown outcome: both the old and the new version stay
                // legal (`acked` is unchanged, `issued` already moved).
                self.update_key(key, |k| k.writing = false);
                Ok(())
            }
            (Some(InFlight::Read { .. }), Err(_)) => Ok(()),
            (None, _) => Err(format!("worker {worker} finished a transaction it never began")),
        }
    }
}

pub struct Ready {
    spec: &'static Spec,
    seed: u64,
    closed: Closed,
    source: Rc<Source>,
}

pub fn setup(spec: &'static Spec, seed: u64, trace: bool) -> Result<Ready, String> {
    let sh = shape(spec);
    let dep = Deployment::new(ServerlessConfig::default(), seed);
    let tenant = dep.cluster.create_tenant(vec![RegionId(0)], None);
    let loader = dep.connect(tenant, "10.1.255.1")?;
    let data: Vec<String> = (1..=sh.records)
        .collect::<Vec<_>>()
        .chunks(100)
        .map(|chunk| {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&k| {
                    format!(
                        "({k}, '{}', '{}')",
                        field0(k, 0, sh.field_len),
                        field1(k, sh.field_len)
                    )
                })
                .collect();
            format!("INSERT INTO usertable VALUES {}", rows.join(", "))
        })
        .collect();
    dep.load(&loader, &schema(), &data)?;
    dep.cluster.close(&loader);
    let source = Rc::new(Source {
        ops: OpStream { seed, records: sh.records, read_fraction: sh.read_fraction },
        field_len: sh.field_len,
        next_op: Cell::new(0),
        keys: RefCell::new(vec![KeyState::default(); sh.records as usize + 1]),
        inflight: RefCell::new(BTreeMap::new()),
    });
    let closed = Closed::start(
        spec,
        dep,
        tenant,
        Rc::clone(&source) as Rc<dyn TxnSource>,
        0,
        sh.warmup_sim_secs,
        trace,
    )?;
    Ok(Ready { spec, seed, closed, source })
}

impl Ready {
    pub fn run(self, sim_secs: f64) -> Result<Run, String> {
        let Ready { spec, seed, closed, source } = self;
        let sh = shape(spec);
        let window = closed.measure(sim_secs)?;
        let mut problems = Vec::new();

        // Every row is still there and carries the last version written.
        let conn = closed.clients.conn(0).ok_or("no connection")?;
        let out = closed.dep.exec(conn, "SELECT ycsb_key, field0 FROM usertable", vec![])?;
        if out.rows.len() as u64 != sh.records {
            problems.push(format!("final row count {} != loaded {}", out.rows.len(), sh.records));
        }
        for row in &out.rows {
            let key = row.first().and_then(Datum::as_i64).unwrap_or(0) as u64;
            let got = row.get(1).and_then(Datum::as_str).and_then(parse_field0);
            let k = source.key_state(key);
            match got {
                Some((gk, gv)) if gk == key && (k.acked..=k.issued).contains(&gv) => {}
                other => {
                    problems.push(format!(
                        "final key {key}: field0 carries {other:?}, want version {}..={}",
                        k.acked, k.issued
                    ));
                    break;
                }
            }
        }

        let live_user_bytes = closed.live_user_bytes(&["usertable"])?;
        let ops = OpStream { seed, records: sh.records, read_fraction: sh.read_fraction };
        let statements = (0..256u64)
            .map(|n| {
                let (key, is_read) = ops.op(0, n);
                if is_read {
                    (READ_SQL.to_string(), vec![Datum::Int(key as i64)])
                } else {
                    let payload = field0(key, 1, sh.field_len);
                    (UPDATE_SQL.to_string(), vec![Datum::Int(key as i64), Datum::Str(payload)])
                }
            })
            .collect();
        let probe_inputs = ProbeInputs {
            statements,
            table: "usertable",
            row: vec![
                Datum::Int(1),
                Datum::Str(field0(1, 0, sh.field_len)),
                Datum::Str(field1(1, sh.field_len)),
            ],
            rows: sh.records,
            generate: Box::new(move |n| {
                std::hint::black_box(ops.op(0, n));
            }),
        };
        Ok(closed.into_run(window, problems, live_user_bytes, probe_inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_key_and_version() {
        let p = field0(42, 7, 100);
        assert_eq!(p.len(), 100);
        assert_eq!(parse_field0(&p), Some((42, 7)));
        assert_eq!(field1(42, 100).len(), 100);
        assert_eq!(parse_field0("garbage"), None);
    }

    #[test]
    fn key_sampler_is_seed_deterministic() {
        let a = OpStream { seed: 11, records: 10_000, read_fraction: 0.5 };
        let b = OpStream { seed: 11, records: 10_000, read_fraction: 0.5 };
        let c = OpStream { seed: 12, records: 10_000, read_fraction: 0.5 };
        let draw = |s: &OpStream| (0..200).map(|n| s.op(n as usize % 8, n)).collect::<Vec<_>>();
        assert_eq!(draw(&a), draw(&b));
        assert_ne!(draw(&a), draw(&c));
        assert!(draw(&a).iter().all(|(k, _)| (1..=10_000).contains(k)));
    }

    #[test]
    fn skew_is_mild() {
        // The hottest 1 % of keys take about 10 % of operations.
        let s = OpStream { seed: 3, records: 10_000, read_fraction: 1.0 };
        let hot = (0..20_000).filter(|&n| s.op(0, n).0 <= 100).count();
        assert!((1_500..2_500).contains(&hot), "{hot}");
    }
}
