//! Differential tests for the cost-based planner: every query executed
//! via the chosen plan (index seeks, range seeks, residual pruning, LIMIT
//! pushdown) must return exactly the rows a forced full-table scan
//! returns. Also pins the NULL-predicate semantics the span extractor
//! must preserve, the UPDATE-changes-PK write path, and the
//! ANALYZE-then-DDL statistics-staleness case.

use std::cell::RefCell;
use std::rc::Rc;

use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{NodeState, SqlNode, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::{Deadline, RegionId, SqlInstanceId, TenantId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    sim: Sim,
    node: Rc<SqlNode>,
    session: u64,
}

fn setup(seed: u64) -> Fixture {
    let sim = Sim::new(seed);
    let cluster =
        KvCluster::new(&sim, Topology::single_region("us-east1", 3), KvClusterConfig::default());
    let cert = cluster.create_tenant(TenantId(2));
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    let node = SqlNode::new(&sim, SqlInstanceId(1), client, SqlNodeConfig::default());
    let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let ready = Rc::new(RefCell::new(false));
    {
        let (r, starting) = (Rc::clone(&ready), Rc::clone(&node));
        task::spawn(&sim, async move {
            starting.start(&system_db).await;
            *r.borrow_mut() = true;
        });
    }
    sim.run_for(dur::secs(5));
    assert!(*ready.borrow(), "node became ready");
    assert_eq!(node.state(), NodeState::Ready);
    let session = node.open_session("diff_user").unwrap();
    Fixture { sim, node, session }
}

/// Runs `sql` in `session` as a task of its own; `done` gets its result.
fn spawn_exec(
    f: &Fixture,
    session: u64,
    sql: &str,
    params: Vec<Datum>,
    done: impl FnOnce(Result<QueryOutput, SqlError>) + 'static,
) {
    let (node, sql) = (Rc::clone(&f.node), sql.to_string());
    task::spawn(&f.sim, async move {
        done(node.execute_with_deadline(session, &sql, params, Deadline::NONE).await)
    });
}

fn exec(f: &Fixture, sql: &str) -> QueryOutput {
    exec_params(f, sql, vec![]).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn exec_params(f: &Fixture, sql: &str, params: Vec<Datum>) -> Result<QueryOutput, SqlError> {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    spawn_exec(f, f.session, sql, params, move |r| *o.borrow_mut() = Some(r));
    f.sim.run_for(dur::secs(60));
    let r = out.borrow_mut().take();
    r.unwrap_or_else(|| panic!("{sql}: did not complete"))
}

/// Rows as a multiset, order-insensitive (Datum has no total order, so
/// compare via a canonical debug rendering).
fn row_set(out: &QueryOutput) -> Vec<String> {
    let mut v: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Runs `sql` twice — chosen plan vs forced full scan — and asserts the
/// row sets are identical.
fn check_differential(f: &Fixture, sql: &str, params: Vec<Datum>) {
    f.node.catalog().borrow_mut().set_force_full_scan(false);
    let chosen = exec_params(f, sql, params.clone()).unwrap_or_else(|e| panic!("{sql}: {e}"));
    f.node.catalog().borrow_mut().set_force_full_scan(true);
    let full = exec_params(f, sql, params).unwrap_or_else(|e| panic!("{sql} (full): {e}"));
    f.node.catalog().borrow_mut().set_force_full_scan(false);
    assert_eq!(row_set(&chosen), row_set(&full), "plan diverged from full scan: {sql}");
    assert!(
        chosen.stats.rows_read <= full.stats.rows_read,
        "chosen plan read {} rows, the full scan {}: {sql}",
        chosen.stats.rows_read,
        full.stats.rows_read
    );
}

/// TPC-C-lite-like schema with NULLable columns and secondary indexes.
fn load_tpcc_lite(f: &Fixture, rng: &mut SmallRng, items: i64, orders: i64) {
    exec(f, "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)");
    exec(
        f,
        "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, \
         o_carrier_id INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
    );
    for i in 0..items {
        // ~1 in 8 prices NULL so index entries cover stored NULLs.
        let price = if rng.gen_range(0u32..8) == 0 {
            "NULL".to_string()
        } else {
            format!("{}.5", rng.gen_range(1i64..40))
        };
        exec(f, &format!("INSERT INTO item VALUES ({i}, 'item-{i}', {price})"));
    }
    for o in 0..orders {
        let w = rng.gen_range(1i64..3);
        let d = rng.gen_range(1i64..4);
        let c = rng.gen_range(1i64..20);
        let carrier = if rng.gen_range(0u32..5) == 0 {
            "NULL".to_string()
        } else {
            rng.gen_range(1i64..10).to_string()
        };
        exec(f, &format!("INSERT INTO orders VALUES ({w}, {d}, {o}, {c}, {carrier})"));
    }
    exec(f, "CREATE INDEX item_price ON item (i_price)");
    exec(f, "CREATE INDEX orders_cust ON orders (o_c_id)");
    exec(f, "ANALYZE item");
    exec(f, "ANALYZE orders");
}

/// One seeded random predicate over the lite schema.
fn random_query(rng: &mut SmallRng) -> (String, Vec<Datum>) {
    let pick = rng.gen_range(0u32..8);
    match pick {
        0 => (format!("SELECT * FROM item WHERE i_id = {}", rng.gen_range(0i64..40)), vec![]),
        1 => {
            let p = rng.gen_range(1i64..40);
            (format!("SELECT * FROM item WHERE i_price < {p}.5"), vec![])
        }
        2 => {
            let p = rng.gen_range(1i64..40);
            // Int literal against a FLOAT index column: coercion path.
            (format!("SELECT * FROM item WHERE i_price >= {p}"), vec![])
        }
        3 => (
            "SELECT * FROM item WHERE i_price = $1".to_string(),
            vec![if rng.gen_range(0u32..6) == 0 {
                Datum::Null
            } else {
                Datum::Float(rng.gen_range(1i64..40) as f64 + 0.5)
            }],
        ),
        4 => {
            let w = rng.gen_range(1i64..3);
            let d = rng.gen_range(1i64..4);
            (format!("SELECT * FROM orders WHERE o_w_id = {w} AND o_d_id = {d}"), vec![])
        }
        5 => {
            let w = rng.gen_range(1i64..3);
            let lo = rng.gen_range(0i64..30);
            (
                format!(
                    "SELECT * FROM orders WHERE o_w_id = {w} AND o_d_id = 2 AND o_id >= {lo} \
                     AND o_id < {}",
                    lo + rng.gen_range(1i64..20)
                ),
                vec![],
            )
        }
        6 => (
            "SELECT * FROM orders WHERE o_c_id = $1".to_string(),
            vec![Datum::Int(rng.gen_range(1i64..20))],
        ),
        _ => {
            let q = rng.gen_range(1i64..10);
            (format!("SELECT * FROM orders WHERE o_carrier_id = {q} AND o_id < 25"), vec![])
        }
    }
}

#[test]
fn seeded_differential_over_tpcc_lite() {
    for seed in [101u64, 202, 303] {
        let f = setup(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        load_tpcc_lite(&f, &mut rng, 40, 30);
        for _ in 0..25 {
            let (sql, params) = random_query(&mut rng);
            check_differential(&f, &sql, params);
        }
    }
}

#[test]
fn null_literal_and_null_param_never_match() {
    let f = setup(7);
    exec(&f, "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)");
    exec(&f, "INSERT INTO item VALUES (1, 'a', 10.5), (2, 'b', NULL), (3, 'c', 20.5)");
    exec(&f, "CREATE INDEX item_price ON item (i_price)");
    exec(&f, "ANALYZE item");
    // `= NULL` is never true in SQL — not even against stored NULLs, whose
    // index entries encode NULL as a real key byte.
    let out = exec(&f, "SELECT * FROM item WHERE i_price = NULL");
    assert_eq!(out.rows.len(), 0, "literal NULL equality matches nothing");
    let out = exec_params(&f, "SELECT * FROM item WHERE i_price = $1", vec![Datum::Null]).unwrap();
    assert_eq!(out.rows.len(), 0, "NULL param equality matches nothing");
    // Range predicates against NULL are never true either.
    let out = exec_params(&f, "SELECT * FROM item WHERE i_price < $1", vec![Datum::Null]).unwrap();
    assert_eq!(out.rows.len(), 0, "NULL param range matches nothing");
    check_differential(&f, "SELECT * FROM item WHERE i_price = NULL", vec![]);
}

#[test]
fn range_only_secondary_index_is_used() {
    let f = setup(8);
    exec(&f, "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)");
    for i in 0..30 {
        exec(&f, &format!("INSERT INTO item VALUES ({i}, 'x', {}.0)", i * 10));
    }
    exec(&f, "CREATE INDEX item_price ON item (i_price)");
    exec(&f, "ANALYZE item");
    // Regression: a range-only predicate on a secondary index column must
    // plan an index range seek, not a full scan.
    let out = exec(&f, "EXPLAIN SELECT * FROM item WHERE i_price < 100");
    let plan: Vec<String> =
        out.rows.iter().map(|r| format!("{}", r[0]).trim().to_string()).collect();
    assert!(
        plan.iter().any(|l| l.contains("item@item_price") && !l.contains("full")),
        "range predicate should seek the secondary index: {plan:?}"
    );
    let out = exec(&f, "SELECT * FROM item WHERE i_price < 100");
    assert_eq!(out.rows.len(), 10);
    assert!(out.stats.rows_read < 30, "index seek reads a subset, not the table");
    check_differential(&f, "SELECT * FROM item WHERE i_price < 100", vec![]);
}

#[test]
fn limit_pushdown_bounds_rows_read() {
    let f = setup(9);
    exec(&f, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    for i in 0..100 {
        exec(&f, &format!("INSERT INTO t VALUES ({i}, {})", i * 2));
    }
    exec(&f, "ANALYZE t");
    let out = exec(&f, "SELECT * FROM t LIMIT 5");
    assert_eq!(out.rows.len(), 5);
    assert!(
        out.stats.rows_read <= 5,
        "LIMIT 5 must read at most 5 rows, read {}",
        out.stats.rows_read
    );
    // A residual filter blocks the pushdown: correctness over speed.
    let out = exec(&f, "SELECT * FROM t WHERE v > 100 LIMIT 5");
    assert_eq!(out.rows.len(), 5);
    check_differential(&f, "SELECT * FROM t LIMIT 100", vec![]);
}

/// The point lookups, selective range and bounded scan a TPC-C-shaped
/// application issues must each read at least 10× fewer rows than a full
/// scan of their table (at this scale: 100× to 8,000×).
#[test]
fn chosen_plans_read_tenfold_fewer_rows_than_full_scans() {
    let f = setup(42);
    let load = |table: &str, rows: Vec<String>| {
        for chunk in rows.chunks(100) {
            exec(&f, &format!("INSERT INTO {table} VALUES {}", chunk.join(", ")));
        }
    };
    exec(&f, "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)");
    exec(
        &f,
        "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, PRIMARY KEY (s_w_id, s_i_id))",
    );
    exec(
        &f,
        "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, \
         PRIMARY KEY (o_w_id, o_d_id, o_id))",
    );
    // i_price cycles 0.5 .. 999.5 so `i_price < P` selects ~P/1000 of rows.
    load("item", (0..8000).map(|i| format!("({i}, 'item-{i}', {}.5)", i % 1000)).collect());
    load(
        "stock",
        (1..=2)
            .flat_map(|w| (0..4000).map(move |i| format!("({w}, {i}, {})", (i * 7) % 91)))
            .collect(),
    );
    load(
        "orders",
        (1..=2)
            .flat_map(|w| {
                (1..=5).flat_map(move |d| {
                    (0..300).map(move |o| format!("({w}, {d}, {o}, {})", o % 97))
                })
            })
            .collect(),
    );
    exec(&f, "CREATE INDEX item_price ON item (i_price)");
    for t in ["item", "stock", "orders"] {
        exec(&f, &format!("ANALYZE {t}"));
    }

    for sql in [
        "SELECT * FROM stock WHERE s_w_id = 2 AND s_i_id = 1234",
        "SELECT * FROM orders WHERE o_w_id = 1 AND o_d_id = 3 AND o_id = 177",
        "SELECT * FROM item WHERE i_price < 10",
        "SELECT * FROM orders WHERE o_w_id = 2 AND o_d_id = 1 LIMIT 7",
    ] {
        let chosen = exec(&f, sql);
        assert!(!chosen.rows.is_empty(), "{sql}: matched nothing");
        f.node.catalog().borrow_mut().set_force_full_scan(true);
        let full = exec(&f, sql);
        f.node.catalog().borrow_mut().set_force_full_scan(false);
        assert!(
            chosen.stats.rows_read * 10 <= full.stats.rows_read,
            "{sql}: chosen plan read {} rows, forced full scan {}",
            chosen.stats.rows_read,
            full.stats.rows_read
        );
    }
}

#[test]
fn update_changing_pk_shifts_rows() {
    let f = setup(10);
    exec(&f, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    for i in 1..=10 {
        exec(&f, &format!("INSERT INTO t VALUES ({i}, {})", i * 100));
    }
    exec(&f, "CREATE INDEX t_v ON t (v)");
    // Regression: per-row delete-then-put clobbered the next row when the
    // UPDATE rewrote the primary key. The two-phase write path must shift
    // every row intact.
    let out = exec(&f, "UPDATE t SET k = k + 1");
    assert_eq!(out.rows_affected, 10);
    let out = exec(&f, "SELECT k, v FROM t ORDER BY k");
    assert_eq!(out.rows.len(), 10, "no rows lost to self-overlap");
    for (i, row) in out.rows.iter().enumerate() {
        let orig = i as i64 + 1;
        assert_eq!(row[0], Datum::Int(orig + 1), "pk shifted");
        assert_eq!(row[1], Datum::Int(orig * 100), "value follows its row");
    }
    // Index entries moved with the rows: seek through the index.
    let out = exec(&f, "SELECT k FROM t WHERE v = 300");
    assert_eq!(out.rows, vec![vec![Datum::Int(4)]]);
}

#[test]
fn analyze_then_ddl_staleness_is_safe() {
    let f = setup(11);
    exec(&f, "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT)");
    for i in 0..40 {
        exec(&f, &format!("INSERT INTO t VALUES ({i}, {}, {})", i % 4, i % 8));
    }
    // Statistics collected BEFORE the index exists: the planner must fall
    // back to default selectivity for the unknown index, not crash or
    // refuse the plan.
    exec(&f, "ANALYZE t");
    exec(&f, "CREATE INDEX t_a ON t (a)");
    let out = exec(&f, "EXPLAIN SELECT * FROM t WHERE a = 2");
    let plan = format!("{:?}", out.rows);
    assert!(plan.contains("t@t_a"), "stale stats still allow the new index: {plan}");
    check_differential(&f, "SELECT * FROM t WHERE a = 2", vec![]);
    // Re-ANALYZE picks the index up; plans stay deterministic.
    exec(&f, "ANALYZE t");
    let again = exec(&f, "EXPLAIN SELECT * FROM t WHERE a = 2");
    let out2 = exec(&f, "EXPLAIN SELECT * FROM t WHERE a = 2");
    assert_eq!(again.rows, out2.rows, "EXPLAIN is deterministic");
    check_differential(&f, "SELECT * FROM t WHERE a = 2", vec![]);
}

/// Regression: ANALYZE read each 1,024-pair chunk at its own timestamp,
/// so rows a transaction begun after it committed while it streamed were
/// counted when they lay past the chunks already read. Its statistics
/// described no single version of the table; now they describe the one
/// ANALYZE began at.
#[test]
fn analyze_describes_one_snapshot_under_concurrent_inserts() {
    let f = setup(24);
    exec(&f, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    let rows: Vec<String> = (0..3_000).map(|i| format!("({i}, {i})")).collect();
    for chunk in rows.chunks(100) {
        exec(&f, &format!("INSERT INTO t VALUES {}", chunk.join(", ")));
    }
    let writer = f.node.open_session("writer").unwrap();
    let finished = Rc::new(RefCell::new(Vec::new()));
    let analyzed = Rc::new(RefCell::new(None));
    let (done, out) = (Rc::clone(&finished), Rc::clone(&analyzed));
    spawn_exec(&f, f.session, "ANALYZE t", vec![], move |r| {
        done.borrow_mut().push("analyze");
        *out.borrow_mut() = Some(r);
    });
    // Begun after ANALYZE took its snapshot, past its first chunk.
    let done = Rc::clone(&finished);
    let insert = "INSERT INTO t VALUES (5000, 0), (5001, 0), (5002, 0)";
    spawn_exec(&f, writer, insert, vec![], move |r| {
        r.expect("insert");
        done.borrow_mut().push("insert");
    });
    f.sim.run_for(dur::secs(60));
    assert_eq!(*finished.borrow(), ["insert", "analyze"], "committed while ANALYZE streamed");
    let analyzed = analyzed.borrow_mut().take().expect("ANALYZE answered");
    assert_eq!(analyzed.expect("ANALYZE").rows_affected, 3_000);
    let catalog = f.node.catalog();
    let id = catalog.borrow().table("t").expect("table").id;
    assert_eq!(catalog.borrow().stats(id).expect("stats").row_count, 3_000);
    assert_eq!(exec(&f, "ANALYZE t").rows_affected, 3_003, "a later ANALYZE counts them");
}

/// ANALYZE counts a primary-key prefix when it differs from the previous
/// row's (the scan arrives in key order) and a secondary-index prefix
/// through a set; both must be the number of distinct prefixes, however
/// the 1,024-pair chunks of the scan cut the runs.
#[test]
fn analyze_distinct_counts_are_the_number_of_distinct_prefixes() {
    use std::collections::{BTreeMap, BTreeSet};
    let f = setup(23);
    exec(&f, "CREATE TABLE t (a STRING, b FLOAT, c INT, d BOOL, e INT, PRIMARY KEY (a, b, c))");
    // 2,600 rows: `a` changes every 700 rows and `b` every 13, so runs of
    // both straddle the chunk boundaries at 1,024 and 2,048.
    let rows: Vec<String> = (0..2_600)
        .map(|i| format!("('s{}', {}.5, {i}, {}, {})", i / 700, (i / 13) % 9, i % 2 == 0, i % 17))
        .collect();
    for chunk in rows.chunks(50) {
        exec(&f, &format!("INSERT INTO t VALUES {}", chunk.join(", ")));
    }
    exec(&f, "CREATE INDEX t_de ON t (d, e)");
    exec(&f, "CREATE TABLE nothing (k INT PRIMARY KEY, v INT)");
    assert_eq!(exec(&f, "ANALYZE t").rows_affected, 2_600);
    exec(&f, "ANALYZE nothing");

    let all = exec(&f, "SELECT a, b, c, d, e FROM t");
    let distinct = |cols: &[usize]| -> Vec<u64> {
        let prefix = |row: &Vec<Datum>, n: usize| {
            cols[..n].iter().map(|&c| format!("{:?}", row[c])).collect::<Vec<_>>()
        };
        let count = |n| all.rows.iter().map(|r| prefix(r, n)).collect::<BTreeSet<_>>().len() as u64;
        (1..=cols.len()).map(count).collect()
    };
    let catalog = f.node.catalog();
    let catalog = catalog.borrow();
    let stats = |name: &str| catalog.stats(catalog.table(name).expect("table").id).expect("stats");
    let want = BTreeMap::from([(1, distinct(&[0, 1, 2])), (2, distinct(&[3, 4]))]);
    assert_eq!(stats("t").distinct_prefixes, want);
    assert_eq!(want[&1], vec![4, 36, 2_600], "the fixture has the runs it was built for");
    assert_eq!(stats("nothing").distinct_prefixes, BTreeMap::new(), "no rows, no entry");
}

#[test]
fn explain_is_byte_identical_across_same_seed_runs() {
    let render = |seed: u64| -> Vec<String> {
        let f = setup(seed);
        let mut rng = SmallRng::seed_from_u64(99);
        load_tpcc_lite(&f, &mut rng, 20, 15);
        let mut lines = Vec::new();
        for sql in [
            "EXPLAIN SELECT * FROM item WHERE i_price < 10",
            "EXPLAIN SELECT * FROM orders WHERE o_w_id = 1 AND o_d_id = 2",
            "EXPLAIN SELECT * FROM orders WHERE o_c_id = 5",
        ] {
            let out = exec(&f, sql);
            for r in &out.rows {
                lines.push(format!("{}", r[0]));
            }
        }
        lines
    };
    assert_eq!(render(42), render(42), "same seed, same EXPLAIN bytes");
}
