//! End-to-end SQL tests: statements run through parse → plan → execute →
//! transaction coordinator → KV batches → MVCC on a real multi-node KV
//! cluster under simulation.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_kv::{keys, mvcc, Timestamp};
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{NodeState, SqlNode, SqlNodeConfig};
use crdb_sql::rowcodec;
use crdb_sql::schema::TableDescriptor;
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::{Deadline, RegionId, SqlInstanceId, TenantId};

struct Fixture {
    sim: Sim,
    cluster: KvCluster,
    node: Rc<SqlNode>,
    session: u64,
}

/// A node of tenant 2 on a three-node KV cluster, with its start spawned.
fn starting_node(seed: u64) -> (Sim, KvCluster, Rc<SqlNode>, Rc<RefCell<bool>>) {
    let sim = Sim::new(seed);
    let cluster =
        KvCluster::new(&sim, Topology::single_region("us-east1", 3), KvClusterConfig::default());
    let cert = cluster.create_tenant(TenantId(2));
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    let node = SqlNode::new(&sim, SqlInstanceId(1), client, SqlNodeConfig::default());
    assert_eq!(node.sql_cpu_seconds(), 0.0, "a node that never started used no CPU");
    let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let ready = Rc::new(RefCell::new(false));
    {
        let (r, starting) = (Rc::clone(&ready), Rc::clone(&node));
        task::spawn(&sim, async move {
            starting.start(&system_db).await;
            *r.borrow_mut() = true;
        });
    }
    (sim, cluster, node, ready)
}

fn setup(seed: u64) -> Fixture {
    let (sim, cluster, node, ready) = starting_node(seed);
    sim.run_for(dur::secs(5));
    assert!(*ready.borrow(), "node became ready");
    assert_eq!(node.state(), NodeState::Ready);
    let session = node.open_session("test_user").unwrap();
    Fixture { sim, cluster, node, session }
}

/// Runs one statement to completion, panicking on error.
fn exec(f: &Fixture, sql: &str) -> QueryOutput {
    try_exec(f, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// A statement's result, once it has one.
type Slot = Rc<RefCell<Option<Result<QueryOutput, SqlError>>>>;

/// Runs `sql` in the fixture's session as a task of its own; the slot
/// gets its result.
fn spawn_exec(f: &Fixture, sql: &str, params: Vec<Datum>) -> Slot {
    let (out, node, session, sql) =
        (Slot::default(), Rc::clone(&f.node), f.session, sql.to_string());
    let o = Rc::clone(&out);
    task::spawn(&f.sim, async move {
        *o.borrow_mut() =
            Some(node.execute_with_deadline(session, &sql, params, Deadline::NONE).await)
    });
    out
}

fn try_exec(f: &Fixture, sql: &str) -> Result<QueryOutput, SqlError> {
    exec_params(f, sql, vec![])
}

fn exec_params(f: &Fixture, sql: &str, params: Vec<Datum>) -> Result<QueryOutput, SqlError> {
    let out = spawn_exec(f, sql, params);
    f.sim.run_for(dur::secs(60));
    let r = out.borrow_mut().take();
    r.unwrap_or_else(|| panic!("{sql}: did not complete"))
}

#[test]
fn ddl_insert_select_roundtrip() {
    let f = setup(1);
    exec(&f, "CREATE TABLE users (id INT PRIMARY KEY, name STRING NOT NULL, score FLOAT)");
    exec(&f, "INSERT INTO users (id, name, score) VALUES (1, 'ada', 99.5), (2, 'bob', 50.0)");
    let out = exec(&f, "SELECT id, name, score FROM users WHERE id = 1");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Datum::Int(1));
    assert_eq!(out.rows[0][1], Datum::Str("ada".into()));
    assert_eq!(out.rows[0][2], Datum::Float(99.5));
    let out = exec(&f, "SELECT * FROM users ORDER BY id DESC");
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0][0], Datum::Int(2));
}

/// Multi-byte text in a statement reaches storage and comes back as
/// written — as a primary key, as a value and in a predicate — and where
/// SQL does not allow it the statement is refused, not the process.
#[test]
fn non_ascii_statement_text() {
    let f = setup(14);
    exec(&f, "CREATE TABLE words (w STRING PRIMARY KEY, note STRING)");
    exec(
        &f,
        "INSERT INTO words VALUES ('naïve', 'İstanbul’da'), ('日本', '𝄞 ''clef'''), ('z', 'ß')",
    );
    let out = exec(&f, "SELECT note FROM words WHERE w = '日本'");
    assert_eq!(out.rows, vec![vec![Datum::Str("𝄞 'clef'".into())]]);
    let out = exec(&f, "SELECT w FROM words WHERE note > 'ß' ORDER BY w");
    assert_eq!(out.rows, vec![vec![Datum::Str("naïve".into())], vec![Datum::Str("日本".into())]]);
    let out = exec_params(
        &f,
        "UPDATE words SET note = $1 WHERE w = 'naïve'",
        vec![Datum::Str("é".into())],
    );
    assert_eq!(out.unwrap().rows_affected, 1);
    let out = exec(&f, "SELECT w, note FROM words ORDER BY w LIMIT 1");
    assert_eq!(out.rows, vec![vec![Datum::Str("naïve".into()), Datum::Str("é".into())]]);
    for refused in ["SELECT nöte FROM words", "SELECT * FROM words WHERE w = $１", "SÉLECT 1"] {
        assert!(try_exec(&f, refused).is_err(), "{refused}");
    }
}

#[test]
fn update_delete_and_rescan() {
    let f = setup(2);
    exec(&f, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
    exec(&f, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)");
    let out = exec(&f, "UPDATE kv SET v = v + 1 WHERE k >= 2");
    assert_eq!(out.rows_affected, 2);
    let out = exec(&f, "DELETE FROM kv WHERE k = 1");
    assert_eq!(out.rows_affected, 1);
    let out = exec(&f, "SELECT k, v FROM kv ORDER BY k");
    assert_eq!(
        out.rows,
        vec![vec![Datum::Int(2), Datum::Int(21)], vec![Datum::Int(3), Datum::Int(31)],]
    );
}

#[test]
fn aggregates_group_order_limit() {
    let f = setup(3);
    exec(&f, "CREATE TABLE sales (id INT PRIMARY KEY, region STRING, amount INT)");
    exec(
        &f,
        "INSERT INTO sales VALUES (1,'east',10),(2,'west',20),(3,'east',5),(4,'west',7),(5,'north',1)",
    );
    let out = exec(
        &f,
        "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region \
         ORDER BY total DESC LIMIT 2",
    );
    assert_eq!(out.columns, vec!["region", "total", "n"]);
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0], vec![Datum::Str("west".into()), Datum::Int(27), Datum::Int(2)]);
    assert_eq!(out.rows[1], vec![Datum::Str("east".into()), Datum::Int(15), Datum::Int(2)]);
    // Global aggregate.
    let out = exec(&f, "SELECT COUNT(*), AVG(amount) FROM sales");
    assert_eq!(out.rows[0][0], Datum::Int(5));
    assert_eq!(out.rows[0][1], Datum::Float(8.6));
}

#[test]
fn secondary_index_scan_and_backfill() {
    let f = setup(4);
    exec(&f, "CREATE TABLE items (id INT PRIMARY KEY, category STRING, price FLOAT)");
    exec(
        &f,
        "INSERT INTO items VALUES (1,'tool',9.5),(2,'toy',3.0),(3,'tool',12.0),(4,'food',1.0)",
    );
    // Backfill over existing rows.
    let out = exec(&f, "CREATE INDEX cat_idx ON items (category)");
    assert_eq!(out.rows_affected, 4, "backfilled entries");
    let out = exec(&f, "SELECT id FROM items WHERE category = 'tool' ORDER BY id");
    assert_eq!(out.rows, vec![vec![Datum::Int(1)], vec![Datum::Int(3)]]);
    // New inserts maintain the index.
    exec(&f, "INSERT INTO items VALUES (5, 'tool', 2.0)");
    let out = exec(&f, "SELECT COUNT(*) FROM items WHERE category = 'tool'");
    assert_eq!(out.rows[0][0], Datum::Int(3));
}

/// `CREATE INDEX` commits the descriptor that lists the new index in the
/// transaction that writes the index's entries. Read at the timestamp of
/// that descriptor version and just below it, the table lists the index
/// exactly when its entries exist.
#[test]
fn create_index_lists_the_index_exactly_when_its_entries_exist() {
    let f = setup(15);
    exec(&f, "CREATE TABLE items (id INT PRIMARY KEY, category STRING)");
    exec(&f, "INSERT INTO items VALUES (1, 'tool'), (2, 'toy'), (3, 'tool')");
    exec(&f, "CREATE INDEX cat_idx ON items (category)");

    let tenant_key = |key: &[u8]| keys::make_key(TenantId(2), key);
    let (desc_start, desc_end) = (tenant_key(b"desc/"), tenant_key(b"desc0"));
    let holder = f.cluster.leaseholder_of(&desc_start).expect("a leaseholder");
    let engine = f.cluster.node(holder).expect("its node").engine.clone();
    let scan =
        |start: &Bytes, end: &Bytes, ts| mvcc::scan(&engine, start, end, ts, usize::MAX, None).0;
    let table_at = |ts| {
        let descs = scan(&desc_start, &desc_end, ts);
        descs.iter().filter_map(|(_, v)| TableDescriptor::decode(v)).find(|t| t.name == "items")
    };
    let table = table_at(Timestamp::MAX).expect("the table");
    let index = table.indexes.iter().find(|i| i.name == "cat_idx").expect("the index").id;
    let listed_at = |ts| table_at(ts).is_some_and(|t| t.indexes.iter().any(|i| i.id == index));
    let (start, end) = (
        tenant_key(&rowcodec::index_prefix(table.id, index)),
        tenant_key(&rowcodec::index_prefix_end(table.id, index)),
    );
    let entries_at = |ts| scan(&start, &end, ts).len();

    // The descriptor version that lists the index: the earliest timestamp
    // it is listed at, found by bisecting `(wall, logical)` packed in one.
    let pack = |ts: Timestamp| (u128::from(ts.wall) << 32) | u128::from(ts.logical);
    let unpack = |n: u128| Timestamp { wall: (n >> 32) as u64, logical: n as u32 };
    let (mut below, mut version) = (0, pack(f.cluster.now_ts()));
    assert!(listed_at(unpack(version)) && !listed_at(unpack(below)));
    while version - below > 1 {
        let mid = below + (version - below) / 2;
        if listed_at(unpack(mid)) {
            version = mid;
        } else {
            below = mid;
        }
    }
    let (version, below) = (unpack(version), unpack(below));
    assert_eq!(entries_at(version), 3, "listed at {version}, so every entry exists");
    assert_eq!(entries_at(below), 0, "not listed at {below}, so no entry exists");
}

#[test]
fn lookup_join() {
    let f = setup(5);
    exec(&f, "CREATE TABLE customers (c_id INT PRIMARY KEY, c_name STRING)");
    exec(&f, "CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total INT)");
    exec(&f, "INSERT INTO customers VALUES (1,'ada'),(2,'bob')");
    exec(&f, "INSERT INTO orders VALUES (10,1,100),(11,2,250),(12,1,50)");
    let out = exec(
        &f,
        "SELECT o.o_id, c.c_name FROM orders o JOIN customers c ON o.o_c_id = c.c_id \
         ORDER BY o_id",
    );
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0], vec![Datum::Int(10), Datum::Str("ada".into())]);
    assert_eq!(out.rows[1], vec![Datum::Int(11), Datum::Str("bob".into())]);
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let f = setup(6);
    exec(&f, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
    exec(&f, "INSERT INTO acct VALUES (1, 100), (2, 0)");

    // Committed transfer.
    exec(&f, "BEGIN");
    exec(&f, "UPDATE acct SET bal = bal - 40 WHERE id = 1");
    exec(&f, "UPDATE acct SET bal = bal + 40 WHERE id = 2");
    // Read-your-writes inside the txn.
    let out = exec(&f, "SELECT bal FROM acct WHERE id = 2");
    assert_eq!(out.rows[0][0], Datum::Int(40));
    exec(&f, "COMMIT");
    let out = exec(&f, "SELECT bal FROM acct ORDER BY id");
    assert_eq!(out.rows, vec![vec![Datum::Int(60)], vec![Datum::Int(40)]]);

    // Rolled-back changes vanish.
    exec(&f, "BEGIN");
    exec(&f, "DELETE FROM acct WHERE id = 1");
    exec(&f, "ROLLBACK");
    let out = exec(&f, "SELECT COUNT(*) FROM acct");
    assert_eq!(out.rows[0][0], Datum::Int(2));
}

#[test]
fn constraint_violations() {
    let f = setup(7);
    exec(&f, "CREATE TABLE t (id INT PRIMARY KEY, name STRING NOT NULL)");
    exec(&f, "INSERT INTO t VALUES (1, 'x')");
    let err = try_exec(&f, "INSERT INTO t VALUES (1, 'dup')").unwrap_err();
    assert!(matches!(err, SqlError::Constraint(_)), "{err}");
    let err = try_exec(&f, "INSERT INTO t (id) VALUES (2)").unwrap_err();
    assert!(matches!(err, SqlError::Constraint(_)), "{err}");
    let err = try_exec(&f, "SELECT * FROM missing").unwrap_err();
    assert_eq!(err, SqlError::UnknownTable("missing".into()));
    assert_eq!(err.to_string(), "planning error: unknown table missing");
}

#[test]
fn prepared_statements_with_params() {
    let f = setup(8);
    exec(&f, "CREATE TABLE t (id INT PRIMARY KEY, v STRING)");
    f.node.prepare(f.session, "ins", "INSERT INTO t VALUES ($1, $2)").unwrap();
    f.node.prepare(f.session, "get", "SELECT v FROM t WHERE id = $1").unwrap();
    let out = Rc::new(RefCell::new(None));
    {
        let (o, node, session) = (Rc::clone(&out), Rc::clone(&f.node), f.session);
        task::spawn(&f.sim, async move {
            let params = vec![Datum::Int(7), Datum::Str("seven".into())];
            *o.borrow_mut() = Some(node.execute_prepared(session, "ins", params).await)
        });
    }
    f.sim.run_for(dur::secs(10));
    assert!(out.borrow_mut().take().unwrap().is_ok());
    {
        let (o, node, session) = (Rc::clone(&out), Rc::clone(&f.node), f.session);
        task::spawn(&f.sim, async move {
            *o.borrow_mut() = Some(node.execute_prepared(session, "get", vec![Datum::Int(7)]).await)
        });
    }
    f.sim.run_for(dur::secs(10));
    let got = out.borrow_mut().take().unwrap().unwrap();
    assert_eq!(got.rows[0][0], Datum::Str("seven".into()));
}

#[test]
fn session_migration_between_nodes() {
    let f = setup(9);
    exec(&f, "CREATE TABLE t (id INT PRIMARY KEY)");
    f.node.set_session_var(f.session, "application_name", "migrator").unwrap();
    f.node.prepare(f.session, "q", "SELECT COUNT(*) FROM t").unwrap();

    // Serialize on the old node, restore on a brand-new one.
    let snapshot = f.node.serialize_session(f.session).unwrap();
    let encoded = snapshot.encode();
    let decoded = crdb_sql::session::SessionSnapshot::decode(&encoded).unwrap();

    let cluster = f.node.kv_client().cluster().clone();
    let cert = cluster.create_tenant(TenantId(2)); // re-issue cert for same tenant
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    let node2 = SqlNode::new(&f.sim, SqlInstanceId(2), client, SqlNodeConfig::default());
    let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let ready = Rc::new(RefCell::new(false));
    {
        let (r, starting) = (Rc::clone(&ready), Rc::clone(&node2));
        task::spawn(&f.sim, async move {
            starting.start(&system_db).await;
            *r.borrow_mut() = true;
        });
    }
    f.sim.run_for(dur::secs(5));
    assert!(*ready.borrow());

    let new_session = node2.restore_session(&decoded).unwrap();
    // The restored session keeps settings and prepared statements.
    let out = Rc::new(RefCell::new(None));
    {
        let (o, node2) = (Rc::clone(&out), Rc::clone(&node2));
        task::spawn(&f.sim, async move {
            *o.borrow_mut() = Some(node2.execute_prepared(new_session, "q", vec![]).await)
        });
    }
    f.sim.run_for(dur::secs(10));
    let got = out.borrow_mut().take().unwrap().unwrap();
    assert_eq!(got.rows[0][0], Datum::Int(0));
}

#[test]
fn cold_start_is_subsecond_single_region() {
    let f = setup(10);
    let cold = f.node.cold_start.get().expect("recorded");
    assert!(cold < dur::secs(1), "single-region cold start sub-second: {cold:?}");
    assert!(cold > dur::ms(10), "cold start does real work: {cold:?}");
}

/// A second SQL node of `f`'s tenant, started now, with a session open.
fn second_node(f: &Fixture) -> Fixture {
    let cert = f.cluster.create_tenant(TenantId(2));
    let client = KvClient::new(f.cluster.clone(), cert, Location::new(RegionId(0), 0));
    let node = SqlNode::new(&f.sim, SqlInstanceId(2), client, SqlNodeConfig::default());
    let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let starting = Rc::clone(&node);
    task::spawn(&f.sim, async move { starting.start(&system_db).await });
    f.sim.run_for(dur::secs(5));
    assert_eq!(node.state(), NodeState::Ready);
    let session = node.open_session("u").unwrap();
    Fixture { sim: f.sim.clone(), cluster: f.cluster.clone(), node, session }
}

#[test]
fn catalog_survives_node_restart() {
    let f = setup(11);
    exec(&f, "CREATE TABLE persistent (id INT PRIMARY KEY, v INT)");
    exec(&f, "INSERT INTO persistent VALUES (1, 42)");

    // A second node for the same tenant loads the descriptor from KV.
    let cluster = f.cluster.clone();
    let f2 = second_node(&f);
    let got = exec(&f2, "SELECT v FROM persistent WHERE id = 1");
    assert_eq!(got.rows[0][0], Datum::Int(42));

    // A table node 1 creates once node 2 is serving is in no catalog node
    // 2 has loaded: its first statement on it plans to `UnknownTable`,
    // refreshes the descriptors and runs.
    exec(&f, "CREATE TABLE later (id INT PRIMARY KEY, v INT)");
    exec(&f, "INSERT INTO later VALUES (7, 70)");
    let got = exec(&f2, "SELECT v FROM later WHERE id = 7");
    assert_eq!(got.rows[0][0], Datum::Int(70));

    // A table nobody created still fails — after one refresh (a
    // descriptor scan and a statistics scan), not a loop of them.
    let reads = || -> u64 {
        let ids = cluster.node_ids();
        let nodes = ids.into_iter().filter_map(|id| cluster.node(id));
        nodes.map(|n| n.traffic_stats(TenantId(2)).read_requests).sum()
    };
    let before = reads();
    let err = try_exec(&f2, "SELECT * FROM nobody").unwrap_err();
    assert_eq!(err, SqlError::UnknownTable("nobody".into()));
    assert_eq!(reads() - before, 2, "exactly one catalog refresh");
}

/// Regression: a catalog refresh whose reads failed was dropped, and the
/// statement planned again against the catalog it had, so a node cut off
/// from KV answered `UnknownTable` for a table that exists. The failed
/// read is the statement's error — retryable — and nothing is installed.
#[test]
fn catalog_refresh_that_cannot_reach_kv_fails_retryably() {
    let f = setup(16);
    let f2 = second_node(&f);
    exec(&f, "CREATE TABLE later (id INT PRIMARY KEY, v INT)");
    exec(&f, "INSERT INTO later VALUES (7, 70)");

    let set_alive = |alive| {
        for id in f.cluster.node_ids() {
            f.cluster.set_node_alive(id, alive);
        }
    };
    set_alive(false);
    let err = try_exec(&f2, "SELECT v FROM later WHERE id = 7").unwrap_err();
    assert_eq!(err, SqlError::Unavailable, "{err}");
    assert!(err.is_retryable());
    assert!(f2.node.catalog().borrow().table("later").is_none(), "nothing installed");

    set_alive(true);
    f.sim.run_for(dur::secs(30));
    let got = exec(&f2, "SELECT v FROM later WHERE id = 7");
    assert_eq!(got.rows, vec![vec![Datum::Int(70)]]);
}

#[test]
fn sql_cpu_charged_per_statement() {
    let f = setup(12);
    exec(&f, "CREATE TABLE t (id INT PRIMARY KEY, pad STRING)");
    let before = f.node.sql_cpu_seconds();
    for i in 0..20 {
        exec_params(&f, "INSERT INTO t VALUES ($1, 'some-padding-data')", vec![Datum::Int(i)])
            .unwrap();
    }
    exec(&f, "SELECT * FROM t");
    let after = f.node.sql_cpu_seconds();
    assert!(after > before, "SQL CPU consumed: {before} -> {after}");
}

/// The idle burn (0.15 CPU-s/s by default) accrues from the instant the
/// node is Ready, through Draining, and stops with the node, whether it
/// shuts down or crashes.
#[test]
fn idle_cpu_accrues_from_ready_until_the_node_stops() {
    for crash in [false, true] {
        let (sim, _cluster, node, _) = starting_node(12);
        while node.state() != NodeState::Ready {
            assert_eq!(node.state(), NodeState::Starting);
            assert_eq!(node.sql_cpu_seconds(), node.cpu.cumulative_usage_total(), "no burn yet");
            assert!(sim.step(), "node became ready");
        }
        let at_ready = node.sql_cpu_seconds();
        assert_eq!(at_ready, node.cpu.cumulative_usage_total(), "no burn at Ready");
        let burn = || node.sql_cpu_seconds() - at_ready;
        sim.run_for(dur::secs(10));
        assert!((burn() - 1.5).abs() < 1e-9, "10 s Ready: {}", burn());
        node.drain();
        sim.run_for(dur::secs(10));
        assert!((burn() - 3.0).abs() < 1e-9, "10 s more, Draining: {}", burn());
        if crash {
            node.crash();
        } else {
            node.shutdown();
        }
        // A second stop moves nothing.
        node.shutdown();
        sim.run_for(dur::secs(10));
        assert!((burn() - 3.0).abs() < 1e-9, "stopped (crash: {crash}): {}", burn());
    }
}

/// Runs `sql` and steps the simulator only until it answers: the number
/// of events the statement took.
fn events_of(f: &Fixture, sql: &str) -> u64 {
    let before = f.sim.events_executed();
    let out = spawn_exec(f, sql, vec![]);
    let answered = || out.borrow().is_some();
    while !answered() && f.sim.step() {}
    let r = out.borrow_mut().take();
    r.unwrap_or_else(|| panic!("{sql}: did not complete")).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let took = f.sim.events_executed() - before;
    // What the statement left running (replication, a WAL sync) settles
    // outside the next statement's count.
    f.sim.run_for(dur::secs(1));
    took
}

/// Pins the simulator events one statement takes on a ready single-range
/// node. A poll of a woken task is no event of its own: a wake polls its
/// task inline, so an executor that scheduled each poll would add one
/// event per wake to every count here.
#[test]
fn each_statement_takes_a_fixed_number_of_events() {
    let f = setup(17);
    exec(&f, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)");
    exec(&f, "INSERT INTO kv VALUES (1, 10), (2, 20)");
    f.sim.run_for(dur::secs(1));
    let select = events_of(&f, "SELECT v FROM kv WHERE id = 1");
    let update = events_of(&f, "UPDATE kv SET v = v + 1 WHERE id = 2");
    let in_txn: Vec<u64> = ["BEGIN", "SELECT v FROM kv WHERE id = 2", "COMMIT"]
        .iter()
        .map(|s| events_of(&f, s))
        .collect();
    assert_eq!((select, update, in_txn), (7, 12, vec![0, 4, 0]));
}
