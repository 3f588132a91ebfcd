//! What a scanned row costs the host between the LSM and the aggregate.
//!
//! TPC-H Q1 is the paper's worst case for separated SQL and KV processes
//! (§6.1.2): every scanned row crosses the boundary. The simulator models
//! that tax in simulated CPU; this gate is about the *host*: a scanned row
//! must reach the aggregate as slices of the engine's buffers decoded into
//! one reused row, so a query allocates per *statement* and per *group*,
//! not per row, and holds nothing but the KV reply while it runs.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_sim::{task, Location, Sim, Topology};
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{SqlNode, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::{Deadline, RegionId, SqlInstanceId, TenantId};

#[path = "../../util/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

const ROWS: usize = 10_000;
const ORDERS: usize = 2_500;
/// The KV reply as the allocator sees it: one `(key, value)` handle per
/// row in a vector that grew by doubling. The keys and values themselves
/// are slices of what the engine holds anyway.
const REPLY_HANDLES: usize = ROWS.next_power_of_two() * std::mem::size_of::<(Bytes, Bytes)>();
/// Everything else a running Q1 may hold: the plan, the pipeline, six
/// groups, the iterators of one scan.
const QUERY_OVERHEAD: usize = 64 * 1024;

const Q1: &str = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, AVG(l_quantity) AS avg_qty, \
     AVG(l_extendedprice) AS avg_price, COUNT(*) AS count_order \
     FROM lineitem WHERE l_shipdate <= $1 \
     GROUP BY l_returnflag, l_linestatus \
     ORDER BY l_returnflag, l_linestatus";

struct Fixture {
    sim: Sim,
    node: Rc<SqlNode>,
    session: u64,
}

fn exec(f: &Fixture, sql: &str, params: Vec<Datum>) -> QueryOutput {
    let out = Rc::new(RefCell::new(None));
    let (o, node, session, text) =
        (Rc::clone(&out), Rc::clone(&f.node), f.session, sql.to_string());
    task::spawn(&f.sim, async move {
        *o.borrow_mut() =
            Some(node.execute_with_deadline(session, &text, params, Deadline::NONE).await)
    });
    // Step, rather than run for a fixed time: the tallies below should be
    // the statement's, not a minute of heartbeats'.
    loop {
        if let Some(r) = out.borrow_mut().take() {
            return r.unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        assert!(f.sim.step(), "{sql}: simulation ran dry");
    }
}

/// `lineitem` with [`ROWS`] rows on a one-node KV cluster (one replica, so
/// one engine holds the table and one reply carries it).
fn loaded(seed: u64) -> Fixture {
    let sim = Sim::new(seed);
    let config =
        KvClusterConfig { nodes_per_region: 1, replication_factor: 1, ..Default::default() };
    let cluster = KvCluster::new(&sim, Topology::single_region("us-east1", 1), config);
    let cert = cluster.create_tenant(TenantId(2));
    let client = KvClient::new(cluster.clone(), cert, Location::new(RegionId(0), 0));
    let node = SqlNode::new(&sim, SqlInstanceId(1), client, SqlNodeConfig::default());
    let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);
    let starting = Rc::clone(&node);
    task::spawn(&sim, async move { starting.start(&system_db).await });
    sim.run_for(dur::secs(5));
    let session = node.open_session("footprint").expect("node is ready");
    let f = Fixture { sim, node, session };
    exec(
        &f,
        "CREATE TABLE lineitem (l_orderkey INT, l_linenumber INT, l_partkey INT, \
         l_suppkey INT, l_quantity FLOAT, l_extendedprice FLOAT, l_discount FLOAT, \
         l_returnflag STRING, l_linestatus STRING, l_shipdate INT, \
         PRIMARY KEY (l_orderkey, l_linenumber))",
        vec![],
    );
    let rows: Vec<String> = (0..ROWS)
        .map(|i| {
            format!(
                "({}, {}, {}, {}, {}.0, {}.0, 0.05, '{}', '{}', {})",
                1 + i % ORDERS,
                1 + i / ORDERS,
                1 + i % 40,
                1 + i % 40,
                1 + i % 50,
                100 + (i * 31) % 900,
                ["A", "N", "R"][i % 3],
                ["F", "O"][i % 2],
                10_000 + (i * 7) % 2_500,
            )
        })
        .collect();
    for chunk in rows.chunks(50) {
        exec(&f, &format!("INSERT INTO lineitem VALUES {}", chunk.join(", ")), vec![]);
    }
    f
}

/// One Q1 and what it cost: `(allocation calls, peak live bytes above the
/// level it started from, rows it scanned)`.
fn measured_q1(f: &Fixture, cutoff: i64) -> (usize, usize, u64) {
    let (allocations, live) = (counting_alloc::allocations(), counting_alloc::live_bytes());
    counting_alloc::reset_peak();
    let out = exec(f, Q1, vec![Datum::Int(cutoff)]);
    let peak = counting_alloc::peak_live_bytes() - live;
    assert_eq!(out.rows.len(), 6, "three flags x two statuses");
    let counted: i64 = out.rows.iter().map(|r| r[6].as_i64().expect("COUNT(*)")).sum();
    assert!(counted > 0 && (counted as usize) < ROWS, "the filter keeps some rows, not all");
    (counting_alloc::allocations() - allocations, peak, out.stats.rows_read)
}

#[test]
fn q1_allocates_per_statement_not_per_row() {
    let f = loaded(11);
    // The first scan of a key span also fills the node's timestamp cache.
    measured_q1(&f, 12_000);
    let runs: Vec<_> = [11_900, 12_000, 12_100].map(|cutoff| measured_q1(&f, cutoff)).to_vec();
    for &(allocations, peak, scanned) in &runs {
        assert_eq!(scanned as usize, ROWS);
        assert!(
            allocations < ROWS,
            "{allocations} allocations for {ROWS} scanned rows: something allocates per row again"
        );
        assert!(
            peak <= REPLY_HANDLES + QUERY_OVERHEAD,
            "a running Q1 held {peak} B over the level it started from; the KV reply's \
             handles are {REPLY_HANDLES} B: rows are piling up between operators again"
        );
    }
    // Same seed, same program: the counts are a property of the code.
    let again = loaded(11);
    measured_q1(&again, 12_000);
    let rerun: Vec<_> = [11_900, 12_000, 12_100].map(|cutoff| measured_q1(&again, cutoff)).to_vec();
    assert_eq!(runs, rerun, "same-seed allocation counts and peaks differ");
}
