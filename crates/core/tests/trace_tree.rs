//! Span-tree golden tests: a traced cold-start request must decompose
//! into the §4.2 sub-second budget — proxy → warm-pool assignment → pod
//! start → SQL node start → KV → storage — with sim-time stamps that
//! tile their parents, and the whole tree must serialize byte-identically
//! across same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::chaos::install_chaos;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_kv::node::FSYNC_INTERVAL;
use crdb_obs::trace::SpanView;
use crdb_obs::Trace;
use crdb_serverless::proxy::Connection;
use crdb_sim::fault::FaultSchedule;
use crdb_sim::{Location, Sim, Topology};
use crdb_util::time::dur;
use crdb_util::{RegionId, TenantId};

/// Connects from zero, creates a table and runs one INSERT under a single
/// trace; returns the trace and the measured end-to-end latency.
fn traced_cold_start(seed: u64) -> (Trace, Duration) {
    traced_cold_start_in(seed, ServerlessConfig::default(), vec![RegionId(0)])
}

/// The same against `config`'s deployment, for a tenant spanning
/// `regions` whose SQL node starts in the first of them.
fn traced_cold_start_in(
    seed: u64,
    config: ServerlessConfig,
    regions: Vec<RegionId>,
) -> (Trace, Duration) {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, config);
    let home = regions[0];
    let tenant = cluster.create_tenant(regions, None);
    cluster.set_preferred_location(tenant, Location::new(home, 0));
    traced_request(&sim, &cluster, tenant)
}

/// One traced request against a suspended `tenant`: connect, CREATE
/// TABLE, INSERT.
fn traced_request(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    tenant: TenantId,
) -> (Trace, Duration) {
    let (trace, root) = Trace::start("request", sim.clock());
    let begin = sim.now();
    let finished: Rc<RefCell<Option<Duration>>> = Rc::new(RefCell::new(None));
    {
        let _g = root.enter();
        let cluster2 = Rc::clone(cluster);
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
        "sql.node.start/catalog.load/txn.scan/kv.send/kv.rpc/kv.serve/storage.mvcc",
        "sql.node.start/instance.register/kv.send/kv.rpc/kv.serve/replication.quorum",
        "proxy.execute/sql.execute/kv.send",
        // The INSERT's write set lives in one range, so it commits in one
        // phase: a single round trip under `commit.end_txn`, with one
        // quorum wait (the group commit runs beside it, see below).
        "sql.execute/txn.commit/commit.end_txn/kv.send/kv.rpc/kv.serve/replication.quorum",
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

    // A KV node's phases tile its `kv.serve`: queue, CPU, MVCC, then the
    // quorum wait, then — only when the log sync armed at the append has
    // not fired by the time the quorum answers — the rest of that sync.
    let mut writes = 0;
    for (serve_idx, serve) in spans.iter().enumerate().filter(|(_, s)| s.name == "kv.serve") {
        let phases: Vec<_> = spans.iter().filter(|s| s.parent == Some(serve_idx)).collect();
        assert_eq!(phases[0].start, serve.start);
        for pair in phases.windows(2) {
            assert_eq!(pair[1].start, pair[0].end.expect("phase ended"), "kv.serve phases overlap");
        }
        assert_eq!(phases.last().unwrap().end, serve.end, "phases cover kv.serve");
        let of = |name| phases.iter().find(|s| s.name == name).map(|s| s.duration());
        let quorum = of("replication.quorum");
        writes += usize::from(quorum.is_some());
        if let Some(residual) = of("wal.group_commit") {
            let quorum = quorum.unwrap_or(Duration::ZERO);
            assert!(quorum < FSYNC_INTERVAL, "a sync cannot outlast a {quorum:?} quorum wait");
            assert!(quorum + residual <= FSYNC_INTERVAL, "the later of the two, not their sum");
        }
    }
    assert!(writes >= 3, "registration, DDL and INSERT each wait for a quorum");

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

#[test]
fn cold_start_metrics_snapshot_is_deterministic() {
    let snapshot = |seed| {
        let sim = Sim::new(seed);
        let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
        let tenant = cluster.create_tenant(vec![RegionId(0)], None);
        traced_request(&sim, &cluster, tenant);
        cluster.metrics_snapshot_json()
    };
    let a = snapshot(42);
    assert!(a.contains("\"proxy.cold_starts\":1"), "the run cold-started once: {a}");
    assert_eq!(a, snapshot(42), "same seed ⇒ byte-identical metrics snapshot");
}

/// Runs one statement on `conn` to completion.
fn run_sql(sim: &Sim, cluster: &Rc<ServerlessCluster>, conn: &Rc<Connection>, sql: &str) {
    let out = Rc::new(RefCell::new(None));
    let o = Rc::clone(&out);
    cluster.execute(conn, sql, vec![], move |r| *o.borrow_mut() = Some(r));
    sim.run_for(dur::secs(60));
    out.borrow_mut().take().expect("statement completed").unwrap_or_else(|e| panic!("{sql}: {e}"));
}

#[test]
fn over_quota_statement_waits_in_a_quota_gate_span() {
    let sim = Sim::new(43);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    // 0.001 vCPU quota = 1 token/s: any sustained work exceeds it.
    let tenant = cluster.create_tenant(vec![RegionId(0)], Some(0.001));
    let slot = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    cluster
        .connect(tenant, "10.0.0.1", "app", move |r| *s.borrow_mut() = Some(r.expect("connect")));
    sim.run_for(dur::secs(10));
    let conn: Rc<Connection> = slot.borrow_mut().take().expect("connected");
    run_sql(&sim, &cluster, &conn, "CREATE TABLE burn (id INT PRIMARY KEY, v INT)");

    // Burn estimated CPU until the accounting loop gates this node.
    let info = cluster.tenant(tenant).expect("tenant info");
    let gated = (0..400).any(|i| {
        run_sql(&sim, &cluster, &conn, &format!("INSERT INTO burn VALUES ({i}, {i})"));
        info.gate_until(conn.node().instance_id).is_some_and(|until| until > sim.now())
    });
    assert!(gated, "over-quota tenant was never gated");

    let (trace, root) = Trace::start("throttled.request", sim.clock());
    {
        let _g = root.enter();
        let root2 = root.clone();
        cluster.execute(&conn, "INSERT INTO burn VALUES (100000, 1)", vec![], move |r| {
            r.expect("gated insert eventually runs");
            root2.end();
        });
    }
    sim.run_for(dur::secs(60));

    let paths = trace.paths();
    assert!(
        paths.iter().any(|p| p.contains("throttled.request/quota.gate")),
        "expected a quota.gate span under the request; got:\n{}",
        paths.join("\n")
    );
    let gate = trace.find("quota.gate").expect("quota.gate span");
    assert!(gate.duration() > Duration::ZERO, "the gate actually delayed the statement");
}

/// The `replication.quorum` wait under the cold start's
/// `instance.register`, and that span itself.
fn register_quorum(trace: &Trace) -> (SpanView, Duration) {
    let spans = trace.spans();
    let under_register = |mut at: usize| loop {
        match spans[at].parent {
            Some(p) if spans[p].name == "instance.register" => return true,
            Some(p) => at = p,
            None => return false,
        }
    };
    let quorum: Vec<Duration> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == "replication.quorum" && under_register(*i))
        .map(|(_, s)| s.duration())
        .collect();
    assert_eq!(quorum.len(), 1, "registering is one replicated write");
    (trace.find("instance.register").expect("instance.register span"), quorum[0])
}

fn three_region(optimized: bool) -> ServerlessConfig {
    ServerlessConfig {
        topology: Topology::three_region(),
        multi_region_optimized: optimized,
        ..ServerlessConfig::default()
    }
}

#[test]
fn multi_region_cold_start_registers_on_an_in_region_quorum() {
    let all = [RegionId(0), RegionId(1), RegionId(2)];
    for home in all {
        let mut regions = vec![home];
        regions.extend(all.iter().filter(|r| **r != home));
        let (trace, latency) = traced_cold_start_in(7, three_region(true), regions.clone());
        let (register, quorum) = register_quorum(&trace);
        assert_eq!(register.tag("placement"), Some("pinned"), "region {home:?}");
        assert_eq!(register.tag("region"), Some(home.raw().to_string().as_str()));
        assert!(quorum < dur::ms(5), "region {home:?}: inter-zone quorum, got {quorum:?}");
        assert!(latency < dur::secs(1), "region {home:?}: {latency:?}");

        // Everything but the instance rows is still one range: the DDL
        // and the INSERT commit in one phase, one RPC each.
        let paths = trace.paths();
        assert_eq!(trace.find("txn.commit").expect("txn.commit").tag("one_phase"), Some("true"));
        for staged in ["commit.intents", "commit.resolve"] {
            assert!(
                !paths.iter().any(|p| p.contains(staged)),
                "{staged} in:\n{}",
                paths.join("\n")
            );
        }

        // Without the optimization the row goes through the tenant's
        // region-spread range and waits for another region.
        let (trace, _) = traced_cold_start_in(7, three_region(false), regions);
        let (register, quorum) = register_quorum(&trace);
        assert_eq!(register.tag("placement"), Some("spread"));
        assert!(quorum > dur::ms(80), "region {home:?}: cross-region quorum, got {quorum:?}");
    }
}

#[test]
fn rehomed_tenant_registers_in_the_survivor_regions_partition() {
    let (lost, survivor) = (RegionId(1), RegionId(0));
    let sim = Sim::new(9);
    let cluster = ServerlessCluster::new(&sim, three_region(true));
    let tenant = cluster.create_tenant(vec![lost, survivor, RegionId(2)], None);
    cluster.set_preferred_location(tenant, Location::new(lost, 0));
    let outage = FaultSchedule::region_loss(lost, sim.now() + dur::secs(5), dur::secs(600));
    let injector = install_chaos(&cluster, outage);
    // Well past the liveness TTL: the main range's lease has left the
    // dark region, and the tenant's next SQL node starts in the survivor.
    sim.run_for(dur::secs(30));
    assert!(
        injector.log().contains("1 tenants re-homed (1 onto a region-pinned sql_instances"),
        "{}",
        injector.log()
    );

    let (trace, latency) = traced_request(&sim, &cluster, tenant);
    let (register, quorum) = register_quorum(&trace);
    assert_eq!(register.tag("placement"), Some("pinned"));
    assert_eq!(register.tag("region"), Some(survivor.raw().to_string().as_str()));
    assert!(quorum < dur::ms(5), "the survivor's own partition, got {quorum:?}");
    assert!(latency < dur::secs(2), "{latency:?}");
}
