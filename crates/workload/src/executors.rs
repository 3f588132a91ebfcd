//! Executor adapters: run workloads against a serverless or dedicated
//! deployment.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_core::{DedicatedCluster, ServerlessCluster};
use crdb_serverless::proxy::Connection;
use crdb_sim::task;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::SqlNode;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::{Deadline, RegionId, TenantId};

use crate::driver::SqlExecutor;

/// Runs statements through the serverless path: proxy routing, quota
/// gates, per-worker connections (like client connection pools).
pub struct ServerlessExecutor {
    cluster: Rc<ServerlessCluster>,
    tenant: TenantId,
    // Behind `Rc`s of their own: the connect callback outlives the
    // borrow of `self` it was issued under.
    conns: Rc<RefCell<BTreeMap<usize, Rc<Connection>>>>,
    connecting: Rc<RefCell<BTreeMap<usize, Vec<ConnWaiter>>>>,
}

/// A statement waiting for its worker's connection to come up; a failed
/// connect reaches it as [`SqlError::Unavailable`], which the driver
/// retries like any outage.
type ConnWaiter = Box<dyn FnOnce(Result<Rc<Connection>, SqlError>)>;

impl ServerlessExecutor {
    /// Creates an executor for one tenant.
    pub fn new(cluster: Rc<ServerlessCluster>, tenant: TenantId) -> Rc<ServerlessExecutor> {
        Rc::new(ServerlessExecutor {
            cluster,
            tenant,
            conns: Rc::default(),
            connecting: Rc::default(),
        })
    }

    fn with_conn(&self, worker: usize, cb: ConnWaiter) {
        // Bind before branching: `cb` may synchronously issue queries that
        // re-enter `with_conn` and borrow the conn map again.
        let existing = self.conns.borrow().get(&worker).map(Rc::clone);
        if let Some(conn) = existing {
            cb(Ok(conn));
            return;
        }
        let mut connecting = self.connecting.borrow_mut();
        let waiters = connecting.entry(worker).or_default();
        waiters.push(cb);
        if waiters.len() > 1 {
            return;
        }
        drop(connecting);
        let conns = Rc::clone(&self.conns);
        let connecting = Rc::clone(&self.connecting);
        let ip = format!("10.0.{}.{}", worker / 256, worker % 256);
        self.cluster.connect(self.tenant, &ip, "workload", move |r| {
            let conn = r.ok();
            if let Some(conn) = &conn {
                conns.borrow_mut().insert(worker, Rc::clone(conn));
            }
            let waiters = connecting.borrow_mut().remove(&worker).unwrap_or_default();
            for w in waiters {
                w(conn.clone().ok_or(SqlError::Unavailable));
            }
        });
    }
}

impl SqlExecutor for ServerlessExecutor {
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        let cluster = Rc::clone(&self.cluster);
        self.with_conn(
            worker,
            Box::new(move |conn| match conn {
                Ok(conn) => cluster.execute(&conn, &sql, params, cb),
                Err(e) => cb(Err(e)),
            }),
        );
    }
}

/// Runs statements on a dedicated cluster: each worker pins a session on
/// one fused engine, round-robin.
pub struct DedicatedExecutor {
    cluster: Rc<DedicatedCluster>,
    /// Each worker's session on engine `worker % engines`.
    sessions: RefCell<BTreeMap<usize, u64>>,
}

impl DedicatedExecutor {
    /// Creates the executor.
    pub fn new(cluster: Rc<DedicatedCluster>) -> Rc<DedicatedExecutor> {
        Rc::new(DedicatedExecutor { cluster, sessions: RefCell::new(BTreeMap::new()) })
    }

    fn session_for(&self, worker: usize) -> Result<(Rc<SqlNode>, u64), SqlError> {
        let nodes = &self.cluster.sql_nodes;
        let idx = worker % nodes.len();
        let node = nodes.get(idx).ok_or_else(|| SqlError::State(format!("no SQL engine {idx}")))?;
        let mut sessions = self.sessions.borrow_mut();
        let session = match sessions.entry(worker) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(node.open_session("workload")?),
        };
        Ok((Rc::clone(node), session))
    }
}

impl SqlExecutor for DedicatedExecutor {
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        match self.session_for(worker) {
            Ok((node, session)) => task::spawn(&self.cluster.sim, async move {
                cb(node.execute_with_deadline(session, &sql, params, Deadline::NONE).await)
            }),
            Err(e) => cb(Err(e)),
        }
    }
}

/// Creates a tenant on `cluster` with an executor of its own and runs
/// `schema` then `data` through it — the start of every tenant workload.
/// Does not ANALYZE: plans come from the planner's defaults unless the
/// caller runs [`crate::analyze_statements`] afterwards.
pub fn load_tenant(
    sim: &crdb_sim::Sim,
    cluster: &Rc<ServerlessCluster>,
    regions: Vec<RegionId>,
    quota_vcpus: Option<f64>,
    schema: &[&str],
    data: &[String],
) -> (TenantId, Rc<dyn SqlExecutor>) {
    let tenant = cluster.create_tenant(regions, quota_vcpus);
    let executor: Rc<dyn SqlExecutor> = ServerlessExecutor::new(Rc::clone(cluster), tenant);
    let mut stmts: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
    stmts.extend(data.iter().cloned());
    run_setup(sim, &executor, &stmts);
    (tenant, executor)
}

/// Runs a list of statements sequentially through an executor (worker 0),
/// driving the simulation until each completes. Used for schema setup and
/// data loading.
pub fn run_setup(sim: &crdb_sim::Sim, executor: &Rc<dyn SqlExecutor>, statements: &[String]) {
    for stmt in statements {
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        executor.exec(
            0,
            stmt.clone(),
            vec![],
            Box::new(move |r| {
                *d.borrow_mut() = Some(r);
            }),
        );
        // Generous bound: loads can be large.
        for _ in 0..120 {
            if done.borrow().is_some() {
                break;
            }
            sim.run_for(dur::secs(1));
        }
        let result = done.borrow_mut().take();
        #[expect(
            clippy::panic,
            reason = "setup is the harness's, not a tenant's: a statement that fails to load aborts the run"
        )]
        match result {
            Some(Ok(_)) => {}
            Some(Err(e)) => panic!("setup statement failed: {stmt}: {e}"),
            None => panic!("setup statement did not complete: {stmt}"),
        }
    }
}
