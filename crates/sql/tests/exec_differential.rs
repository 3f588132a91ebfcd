//! The streaming executor against the materialising one it replaced.
//!
//! `support/exec_model.rs` is the executor as it used to be — every
//! operator over a `Vec<Row>`, a scan's write-buffer overlay through a
//! `BTreeMap` — run against two ordered maps instead of a KV cluster.
//! Each seed loads tables chosen to be awkward (NULLs in group and
//! aggregate columns, group keys that recur out of key order, sums that
//! wrap, an empty table, every column type), opens a transaction, and runs
//! generated statements through both: first with the write buffer empty
//! (the KV reply passes straight through), then **with buffered writes
//! across the scanned spans** — inserts before, between and after the
//! stored keys, overwrites, deletes, primary-key changes. Every statement
//! must give the same rows in the same order, the same [`ExecStats`], and
//! when an expression fails mid-stream the same error and no rows. At the
//! end the transaction commits and KV must hold what the model's maps say.

mod support;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::coord::Txn;
use crdb_sql::exec::{self, ExecStats, QueryOutput};
use crdb_sql::node::{SqlNode, SqlNodeConfig};
use crdb_sql::plan::{plan_statement, Plan, PlanNode};
use crdb_sql::schema::PRIMARY_INDEX_ID;
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_sql::{parser, rowcodec};
use crdb_util::time::dur;
use crdb_util::{Deadline, RegionId, SqlInstanceId, TenantId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use support::exec_model::Model;

const TENANT: TenantId = TenantId(2);

struct Harness {
    sim: Sim,
    node: Rc<SqlNode>,
    session: u64,
    client: KvClient,
    /// What the generated statements reached, for the coverage check.
    seen: RefCell<BTreeSet<&'static str>>,
}

fn wait_for<T>(sim: &Sim, slot: &Rc<RefCell<Option<T>>>, what: &str) -> T {
    for _ in 0..10_000_000 {
        if let Some(v) = slot.borrow_mut().take() {
            return v;
        }
        assert!(sim.step(), "{what}: simulation ran dry");
    }
    panic!("{what}: did not complete");
}

impl Harness {
    fn new(seed: u64) -> Harness {
        let sim = Sim::new(seed);
        let topology = Topology::single_region("us-east1", 3);
        let cluster = KvCluster::new(&sim, topology, KvClusterConfig::default());
        let cert = cluster.create_tenant(TENANT);
        let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
        let node = SqlNode::new(&sim, SqlInstanceId(1), client.clone(), SqlNodeConfig::default());
        let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
        let starting = Rc::clone(&node);
        task::spawn(&sim, async move { starting.start(&system_db).await });
        sim.run_for(dur::secs(5));
        let session = node.open_session("diff_user").expect("node is ready");
        Harness { sim, node, session, client, seen: RefCell::default() }
    }

    /// An autocommitted statement through the node (DDL, load, ANALYZE).
    fn sql(&self, sql: &str) -> QueryOutput {
        let slot = Rc::new(RefCell::new(None));
        let (s, node, session, text) =
            (Rc::clone(&slot), Rc::clone(&self.node), self.session, sql.to_string());
        task::spawn(&self.sim, async move {
            *s.borrow_mut() =
                Some(node.execute_with_deadline(session, &text, vec![], Deadline::NONE).await)
        });
        wait_for(&self.sim, &slot, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    fn plan(&self, sql: &str) -> Plan {
        let stmt = parser::parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let catalog = self.node.catalog();
        let plan = plan_statement(&mut catalog.borrow_mut(), &stmt);
        plan.unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    /// Every table row and index entry KV holds, by unprefixed key.
    fn stored(&self) -> BTreeMap<Bytes, Bytes> {
        let slot = Rc::new(RefCell::new(None));
        let s = Rc::clone(&slot);
        let (start, end) = (Bytes::from_static(b"tbl/"), Bytes::from_static(b"tbl0"));
        let txn = Txn::begin(&self.client);
        task::spawn(&self.sim, async move {
            *s.borrow_mut() = Some(txn.scan(start, end, usize::MAX).await);
        });
        let pairs = wait_for(&self.sim, &slot, "scan of every table").expect("scan");
        pairs.into_iter().collect()
    }

    /// Runs `sql` through the executor (inside `txn`) and through the
    /// model, and holds one against the other.
    fn check(&self, txn: &Txn, model: &mut Model, sql: &str, params: &[Datum]) {
        let plan = self.plan(sql);
        self.note_coverage(&plan);
        let want = model.execute(&plan, params);
        let slot = Rc::new(RefCell::new(None));
        let s = Rc::clone(&slot);
        let (txn, params) = (txn.clone(), params.to_vec());
        task::spawn(&self.sim, async move {
            *s.borrow_mut() = Some(exec::execute(&txn, plan, params).await);
        });
        let got = wait_for(&self.sim, &slot, sql);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                // Debug text, not `==`: Datum's equality is SQL's, under
                // which 2 = 2.0 and NaN differs from itself.
                assert_eq!(format!("{:?}", got.rows), format!("{:?}", want.rows), "rows: {sql}");
                assert_eq!(got.columns, want.columns, "columns: {sql}");
                assert_eq!(got.rows_affected, want.rows_affected, "rows affected: {sql}");
                assert_eq!(counts(&got.stats), counts(&want.stats), "ExecStats: {sql}");
                self.seen.borrow_mut().insert(if got.rows.is_empty() { "ok" } else { "rows" });
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "error: {sql}");
                self.seen.borrow_mut().insert("error");
            }
            _ => panic!("{sql}:\n executor {got:?}\n model    {want:?}"),
        }
    }

    fn note_coverage(&self, plan: &Plan) {
        fn walk(node: &PlanNode, seen: &mut BTreeSet<&'static str>) {
            let (tag, inputs): (_, Vec<&PlanNode>) = match node {
                PlanNode::Values { .. } => ("values", vec![]),
                PlanNode::Scan { index_id, filter, limit, .. } => {
                    if *index_id != PRIMARY_INDEX_ID {
                        seen.insert("index scan");
                    }
                    if filter.is_some() {
                        seen.insert("scan filter");
                    }
                    if limit.is_some() {
                        seen.insert("limit pushed");
                    }
                    ("scan", vec![])
                }
                PlanNode::Filter { input, .. } => ("filter", vec![input]),
                PlanNode::Project { input, .. } => ("project", vec![input]),
                PlanNode::LookupJoin { input, .. } => ("lookup join", vec![input]),
                PlanNode::HashJoin { left, right, .. } => ("hash join", vec![left, right]),
                PlanNode::Aggregate { input, group, .. } => (
                    if group.is_empty() { "global aggregate" } else { "grouped aggregate" },
                    vec![input],
                ),
                PlanNode::Sort { input, .. } => ("sort", vec![input]),
                PlanNode::Limit { input, .. } => ("limit not pushed", vec![input]),
            };
            seen.insert(tag);
            inputs.into_iter().for_each(|input| walk(input, seen));
        }
        let mut seen = self.seen.borrow_mut();
        match plan {
            Plan::Query(node) => walk(node, &mut seen),
            Plan::Insert { .. } => drop(seen.insert("insert")),
            Plan::Update { scan, .. } => {
                seen.insert("update");
                walk(scan, &mut seen);
            }
            Plan::Delete { scan, .. } => {
                seen.insert("delete");
                walk(scan, &mut seen);
            }
            other => panic!("the suite generates queries and DML, not {other:?}"),
        }
    }
}

fn counts(s: &ExecStats) -> [u64; 4] {
    [s.rows_read, s.bytes_read, s.rows_written, s.bytes_written]
}

const GROUPS: [&str; 4] = ["NULL", "'a'", "'b'", "'c'"];

/// One generated `m` row's non-key columns, as SQL literals.
fn m_values(rng: &mut SmallRng) -> String {
    let g = GROUPS[rng.gen_range(0..GROUPS.len())];
    let b = ["NULL", "true", "false"][rng.gen_range(0..3usize)];
    let i = match rng.gen_range(0..8u32) {
        0 => "NULL".to_string(),
        // Two of these in one group and SUM wraps.
        1 => (i64::MAX - rng.gen_range(0..3i64)).to_string(),
        _ => rng.gen_range(-5..20i64).to_string(),
    };
    let f = match rng.gen_range(0..6u32) {
        0 => "NULL".to_string(),
        _ => format!("{}.5", rng.gen_range(-3..30i64)),
    };
    let s = match rng.gen_range(0..5u32) {
        0 => "NULL".to_string(),
        n => format!("'s{}'", "x".repeat(n as usize * 3)),
    };
    format!("{g}, {b}, {i}, {f}, {s}")
}

/// `m`: stored keys at even `k1` (so odd ones fall between them), group
/// keys in no relation to key order. `d`: a dimension for both join kinds.
/// `e`: empty.
fn load(h: &Harness, rng: &mut SmallRng) {
    h.sql(
        "CREATE TABLE m (k1 INT, k2 INT, g STRING, b BOOL, i INT, f FLOAT, s STRING, \
         PRIMARY KEY (k1, k2))",
    );
    h.sql("CREATE TABLE d (id INT PRIMARY KEY, name STRING, w FLOAT)");
    h.sql("CREATE TABLE e (id INT PRIMARY KEY, v INT)");
    let mut rows = Vec::new();
    for k1 in (2..=24).step_by(2) {
        for k2 in 1..=rng.gen_range(1..=4i64) {
            rows.push(format!("({k1}, {k2}, {})", m_values(rng)));
        }
    }
    for chunk in rows.chunks(10) {
        h.sql(&format!("INSERT INTO m VALUES {}", chunk.join(", ")));
    }
    let names = ["'a'", "'b'", "'c'", "'zz'", "NULL"];
    let dims: Vec<String> = (0..12)
        .map(|id| format!("({id}, {}, {}.25)", names[rng.gen_range(0..names.len())], id * 3))
        .collect();
    h.sql(&format!("INSERT INTO d VALUES {}", dims.join(", ")));
    h.sql("CREATE INDEX m_g ON m (g)");
    h.sql("ANALYZE m");
    h.sql("ANALYZE d");
    h.sql("ANALYZE e");
}

/// A read-only statement: filters, projections, aggregates, sorts, limits
/// pushed and not, both joins, and expressions that fail on some row.
fn query(rng: &mut SmallRng) -> (String, Vec<Datum>) {
    let c = rng.gen_range(0..6i64);
    let k = rng.gen_range(0..14i64) * 2;
    let g = ["'a'", "'b'", "'c'", "'none'"][rng.gen_range(0..4usize)];
    let n = rng.gen_range(1..7u32);
    let cutoff = Datum::Int(rng.gen_range(-2..15));
    let sql = match rng.gen_range(0..40u32) {
        0 => "SELECT * FROM m".to_string(),
        1 => format!("SELECT * FROM m WHERE i > {c}"),
        2 => format!("SELECT * FROM m WHERE f <= {c}.5 OR b"),
        3 => format!("SELECT k1, k2, s FROM m WHERE g = {g}"),
        4 => format!("SELECT * FROM m WHERE k1 = {k}"),
        5 => format!("SELECT * FROM m WHERE k1 = {k} AND k2 > {c}"),
        6 => format!("SELECT * FROM m WHERE k1 >= {k} AND k1 < {} AND NOT b", k + 6),
        7 => format!("SELECT k1, i * 2, f / k2, g FROM m WHERE i + k2 > {c}"),
        8 => return ("SELECT k1, k2 FROM m WHERE i > $1 AND k1 > $2".into(), vec![cutoff, Datum::Int(k)]),
        9 => "SELECT g, COUNT(*), SUM(i), AVG(f), MIN(s), MAX(i) FROM m GROUP BY g".to_string(),
        10 => format!("SELECT g, b, COUNT(i), SUM(f) FROM m WHERE k2 <= {c} GROUP BY g, b ORDER BY g, b"),
        11 => "SELECT b, MIN(f), MAX(g), AVG(i) FROM m GROUP BY b ORDER BY b DESC".to_string(),
        12 => format!("SELECT COUNT(*), SUM(i), MIN(g) FROM m WHERE k1 > {}", 1_000 + k),
        13 => "SELECT COUNT(*), SUM(v), AVG(v), MAX(v) FROM e".to_string(),
        14 => format!("SELECT COUNT(*), SUM(i), AVG(i) FROM m WHERE k1 <= {k}"),
        15 => "SELECT * FROM e".to_string(),
        16 => "SELECT * FROM m ORDER BY f DESC, k1, k2".to_string(),
        17 => format!("SELECT k1, g, i FROM m WHERE k2 < {c} ORDER BY g, i DESC"),
        18 => format!("SELECT * FROM m LIMIT {n}"),
        19 => format!("SELECT * FROM m WHERE k1 = {k} LIMIT {n}"),
        20 => format!("SELECT * FROM m WHERE i > {c} LIMIT {n}"),
        21 => format!("SELECT k1, f FROM m ORDER BY f, k1, k2 LIMIT {n}"),
        22 => format!("SELECT g, COUNT(*) FROM m GROUP BY g ORDER BY g LIMIT {n}"),
        23 => "SELECT m.k1, m.k2, d.name, d.w FROM m JOIN d ON m.i = d.id".to_string(),
        24 => format!("SELECT m.k1, d.name FROM m JOIN d ON m.i = d.id WHERE d.w > {c} AND m.k2 <= 2"),
        25 => "SELECT m.k1, m.k2, d.id FROM m JOIN d ON m.g = d.name".to_string(),
        26 => format!("SELECT d.name, COUNT(*), SUM(m.f) FROM m JOIN d ON m.g = d.name WHERE d.id > {c} GROUP BY d.name"),
        27 => format!("SELECT d.id, SUM(m.k2) FROM m JOIN d ON m.i = d.id GROUP BY d.id ORDER BY d.id DESC LIMIT {n}"),
        28 => format!("SELECT * FROM d WHERE id >= {c}"),
        29 => format!("SELECT {c} + 2, 'x', {c} * 1.5"),
        // Expressions that fail on some rows, after others went through.
        30 => format!("SELECT k1, 100 / (k2 - {}) FROM m", 1 + c % 4),
        31 => format!("SELECT k1 FROM m WHERE 10 / (i - {c}) > 0"),
        32 => format!("SELECT g, SUM(100 / (k2 - {})) FROM m GROUP BY g", 1 + c % 4),
        33 => "SELECT k1 FROM m WHERE g + 1 > 0".to_string(),
        // Two operators that fail on different rows: the one nearer the
        // data must win whichever row comes first.
        34 => format!("SELECT 100 / (k2 - {}) FROM m WHERE b OR g + 1 > 0", 1 + c % 4),
        35 => format!("SELECT k1 FROM m WHERE 10 / (i - {c}) >= 0 LIMIT 1"),
        36 => format!("SELECT g, COUNT(*) FROM m WHERE 10 / (k2 - {}) > 1 GROUP BY g ORDER BY g", 1 + c % 4),
        37 => format!("SELECT m.k1, 10 / (d.id - {c}) FROM m JOIN d ON m.i = d.id"),
        38 => format!("SELECT 1 / {}", c % 2),
        _ => format!("SELECT k1, k2 FROM m WHERE g = {g} ORDER BY k1 DESC, k2 LIMIT {n}"),
    };
    (sql, vec![])
}

/// A statement that writes into the transaction's buffer, somewhere the
/// queries above scan: before, between and after the stored keys, over
/// them, and off them.
fn dml(rng: &mut SmallRng) -> String {
    let c = rng.gen_range(1..5i64);
    let even = rng.gen_range(1..13i64) * 2;
    let odd = rng.gen_range(0..13i64) * 2 + 1;
    match rng.gen_range(0..14u32) {
        0 => format!("INSERT INTO m VALUES (0, {c}, {})", m_values(rng)),
        1 => format!(
            "INSERT INTO m VALUES (1, {c}, {}), ({odd}, {c}, {})",
            m_values(rng),
            m_values(rng)
        ),
        2 => format!("INSERT INTO m VALUES ({odd}, {}, {})", c + 4, m_values(rng)),
        3 => format!("INSERT INTO m VALUES ({}, {c}, {})", 1_000 + odd, m_values(rng)),
        // A stored key, as likely as not: the duplicate is refused.
        4 => format!("INSERT INTO m VALUES ({even}, {c}, {})", m_values(rng)),
        5 => format!("UPDATE m SET i = i + 100, s = 'over' WHERE k1 = {even}"),
        6 => format!("UPDATE m SET g = 'b', f = {c} WHERE i > {c}"),
        7 => format!("UPDATE m SET k2 = k2 + 10 WHERE k1 = {even} AND k2 < 10"),
        8 => format!("UPDATE m SET i = 100 / (k2 - {c}) WHERE k1 >= {even}"),
        9 => format!("DELETE FROM m WHERE k1 = {even}"),
        10 => format!("DELETE FROM m WHERE k1 <= 4 AND k2 = {c}"),
        11 => format!("DELETE FROM m WHERE g = 'a' AND k2 = {c}"),
        12 => {
            format!("INSERT INTO d VALUES ({}, 'a', 1.5), ({}, 'zz', NULL)", 100 + odd, 200 + odd)
        }
        _ => format!("DELETE FROM d WHERE id = {c}"),
    }
}

#[test]
fn streaming_executor_matches_the_materialising_model() {
    let mut seen = BTreeSet::new();
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xe8ec ^ seed);
        let h = Harness::new(seed);
        load(&h, &mut rng);
        let mut model = Model { committed: h.stored(), writes: BTreeMap::new() };
        assert!(model.committed.len() > 40, "tables and index entries are stored");
        let txn = Txn::begin(&h.client);

        // Nothing buffered: the KV reply is the scan's result.
        for _ in 0..40 {
            let (sql, params) = query(&mut rng);
            h.check(&txn, &mut model, &sql, &params);
        }
        // The stored keys' first rows go, so a pushed-down LIMIT has to
        // ask KV for more than it wants.
        h.check(&txn, &mut model, "DELETE FROM m WHERE k1 <= 4", &[]);
        h.check(&txn, &mut model, "SELECT * FROM m LIMIT 3", &[]);
        h.check(&txn, &mut model, "SELECT * FROM m WHERE k1 = 2 LIMIT 1", &[]);
        // Buffered writes pile up across the scanned spans.
        for round in 0..90 {
            if round % 3 == 0 {
                h.check(&txn, &mut model, &dml(&mut rng), &[]);
            }
            let (sql, params) = query(&mut rng);
            h.check(&txn, &mut model, &sql, &params);
        }
        assert!(model.writes.values().any(Option::is_none), "deletes are buffered");
        assert!(model.writes.values().any(Option::is_some), "puts are buffered");

        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        let committing = txn.clone();
        task::spawn(&h.sim, async move { *d.borrow_mut() = Some(committing.commit().await) });
        wait_for(&h.sim, &done, "commit").expect("nothing else writes: the commit goes through");
        assert_eq!(h.stored(), model.after_commit(), "seed {seed}: what the commit left in KV");
        seen.extend(h.seen.take());
    }
    let wanted = [
        "values",
        "scan",
        "index scan",
        "scan filter",
        "limit pushed",
        "limit not pushed",
        "project",
        "lookup join",
        "hash join",
        "global aggregate",
        "grouped aggregate",
        "sort",
        "insert",
        "update",
        "delete",
        "rows",
        "ok",
        "error",
    ];
    let missing: Vec<_> = wanted.iter().filter(|w| !seen.contains(*w)).collect();
    assert!(missing.is_empty(), "the generator never reached {missing:?} (reached {seen:?})");
}

/// The overlay itself, on keys written straight into the buffer: every
/// position a buffered key can take relative to the stored ones, with and
/// without a limit.
#[test]
fn buffered_keys_overlay_stored_ones_at_every_position() {
    let h = Harness::new(3);
    h.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    h.sql("INSERT INTO t VALUES (10, 1), (20, 2), (30, 3), (40, 4), (50, 5)");
    let table = h.node.catalog().borrow().table("t").cloned().expect("t");
    let key = |k: i64| rowcodec::primary_key_from_datums(&table, &[Datum::Int(k)]);
    let value = |v: i64| rowcodec::encode_row_value(&table, &vec![Datum::Null, Datum::Int(v)]);
    let stored = h.stored();
    // (key, put or delete): before, on, between, on the last, after.
    let writes: [(i64, Option<i64>); 9] = [
        (5, Some(-5)),
        (7, None),
        (10, None),
        (20, Some(-20)),
        (25, Some(-25)),
        (30, None),
        (45, None),
        (50, Some(-50)),
        (60, Some(-60)),
    ];
    for mask in 0..(1u32 << writes.len()) {
        let txn = Txn::begin(&h.client);
        let mut model = Model { committed: stored.clone(), writes: BTreeMap::new() };
        for (_, &(k, v)) in writes.iter().enumerate().filter(|(bit, _)| mask >> bit & 1 == 1) {
            match v {
                Some(v) => txn.put(key(k), value(v)),
                None => txn.delete(key(k)),
            }
            model.writes.insert(key(k), v.map(value));
        }
        let limit = 1 + mask % 7;
        h.check(&txn, &mut model, "SELECT * FROM t", &[]);
        h.check(&txn, &mut model, &format!("SELECT * FROM t LIMIT {limit}"), &[]);
        h.check(&txn, &mut model, "SELECT COUNT(*), SUM(v) FROM t WHERE k >= 10 AND k < 50", &[]);
    }
}
