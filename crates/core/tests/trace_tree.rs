//! Span-tree golden tests: a traced cold-start request must decompose
//! into the §4.2 sub-second budget — proxy → warm-pool assignment → pod
//! start → SQL node start → KV → storage — with sim-time stamps that
//! tile their parents, and the whole tree must serialize byte-identically
//! across same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_obs::Trace;
use crdb_sim::Sim;
use crdb_util::time::dur;
use crdb_util::RegionId;

/// Connects from zero, creates a table and runs one INSERT under a single
/// trace; returns the trace and the measured end-to-end latency.
fn traced_cold_start(seed: u64) -> (Trace, Duration) {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);

    let (trace, root) = Trace::start("request", sim.clock());
    let begin = sim.now();
    let finished: Rc<RefCell<Option<Duration>>> = Rc::new(RefCell::new(None));
    {
        let _g = root.enter();
        let cluster2 = Rc::clone(&cluster);
        let sim2 = sim.clone();
        let root2 = root.clone();
        let finished2 = Rc::clone(&finished);
        cluster.connect(tenant, "10.0.0.1", "app", move |r| {
            let conn = r.expect("connect");
            let _g = root2.enter();
            let root3 = root2.clone();
            let sim3 = sim2.clone();
            let finished3 = Rc::clone(&finished2);
            let cluster3 = Rc::clone(&cluster2);
            let conn2 = conn.clone();
            cluster2.execute(
                &conn,
                "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                vec![],
                move |r| {
                    r.expect("create table");
                    let _g = root3.enter();
                    let root4 = root3.clone();
                    cluster3.execute(&conn2, "INSERT INTO t VALUES (1, 10)", vec![], move |r| {
                        r.expect("insert");
                        root4.end();
                        *finished3.borrow_mut() = Some(sim3.now().duration_since(begin));
                    });
                },
            );
        });
    }
    sim.run_for(dur::secs(60));
    let latency = finished.borrow().expect("request completed");
    (trace, latency)
}

#[test]
fn cold_start_trace_has_golden_structure() {
    let (trace, latency) = traced_cold_start(7);
    let spans = trace.spans();

    // Root covers exactly the measured end-to-end latency.
    let root = trace.find("request").expect("root");
    assert_eq!(root.duration(), latency);
    assert!(latency < dur::secs(1), "§4.2: cold start is sub-second, got {latency:?}");

    // Golden structure: the connect's children, in order.
    let connect_idx =
        spans.iter().position(|s| s.name == "proxy.connect").expect("proxy.connect span");
    let connect_children: Vec<&str> =
        spans.iter().filter(|s| s.parent == Some(connect_idx)).map(|s| s.name.as_str()).collect();
    assert_eq!(
        connect_children,
        ["pool.acquire", "sql.node.start", "network.hop", "session.open"],
        "cold-start connect decomposition"
    );

    // The warm-pool phases tile `pool.acquire`: contiguous, in order,
    // summing to the parent.
    let acquire_idx = spans.iter().position(|s| s.name == "pool.acquire").expect("pool.acquire");
    let acquire = &spans[acquire_idx];
    assert_eq!(acquire.tag("pool_hit"), Some("true"), "first connect uses a prewarmed pod");
    let phases: Vec<_> = spans.iter().filter(|s| s.parent == Some(acquire_idx)).collect();
    assert!(!phases.is_empty());
    assert_eq!(phases[0].name, "pod.assignment");
    assert_eq!(phases[0].start, acquire.start);
    for pair in phases.windows(2) {
        assert_eq!(pair[1].start, pair[0].end.expect("phase ended"), "phases are contiguous");
    }
    assert_eq!(phases.last().unwrap().end, acquire.end, "phases cover the acquire span");
    let phase_sum: Duration = phases.iter().map(|s| s.duration()).sum();
    assert_eq!(phase_sum, acquire.duration());

    // The SQL node start decomposes into the blocking §4.2.3 steps and the
    // trace reaches the KV and storage layers underneath them.
    let paths = trace.paths();
    for needle in [
        "sql.node.start/process.init",
        "sql.node.start/systemdb.access",
        "sql.node.start/catalog.load/kv.send/kv.rpc/kv.serve/storage.mvcc",
        "sql.node.start/instance.register/kv.send/kv.rpc/kv.serve/replication.quorum",
        "proxy.execute/sql.execute/kv.send",
        // The INSERT's write set lives in one range, so it commits in one
        // phase: a single round trip under `commit.end_txn`, with
        // one quorum wait and one group commit.
        "sql.execute/txn.commit/commit.end_txn/kv.send/kv.rpc/kv.serve/replication.quorum",
        "sql.execute/txn.commit/commit.end_txn/kv.send/kv.rpc/kv.serve/wal.group_commit",
    ] {
        assert!(
            paths.iter().any(|p| p.contains(needle)),
            "expected a path containing {needle:?}; got:\n{}",
            paths.join("\n")
        );
    }

    let commit = trace.find("txn.commit").expect("txn.commit span");
    assert_eq!(commit.tag("one_phase"), Some("true"));
    for staged in ["commit.intents", "commit.resolve"] {
        assert!(
            !paths.iter().any(|p| p.contains(staged)),
            "a single-range commit has no {staged} phase; got:\n{}",
            paths.join("\n")
        );
    }
    // One RPC per range per batch: the commit's `kv.send` has one `kv.rpc`.
    let commit_send = spans
        .iter()
        .position(|s| s.name == "kv.send" && spans[s.parent.unwrap()].name == "commit.end_txn")
        .expect("the commit's kv.send");
    let rpcs = spans.iter().filter(|s| s.parent == Some(commit_send) && s.name == "kv.rpc").count();
    assert_eq!(rpcs, 1, "refreshes + writes + EndTxn travel as one RPC");

    // Every span closed, and children stay inside their parents.
    for s in &spans {
        let end = s.end.unwrap_or_else(|| panic!("span {} left open", s.name));
        if let Some(p) = s.parent {
            assert!(s.start >= spans[p].start, "{} starts before parent", s.name);
            assert!(end <= spans[p].end.unwrap(), "{} ends after parent", s.name);
        }
    }
}

#[test]
fn cold_start_trace_is_deterministic() {
    let (a, la) = traced_cold_start(11);
    let (b, lb) = traced_cold_start(11);
    assert_eq!(la, lb);
    assert_eq!(a.to_json(), b.to_json(), "same seed ⇒ byte-identical span tree");

    let (c, _) = traced_cold_start(12);
    assert_ne!(a.to_json(), c.to_json(), "different seeds ⇒ different timings");
}
