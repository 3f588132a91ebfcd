//! The proxy service (§4.2.2, §4.2.4).
//!
//! "Upon receiving a new connection, a proxy server analyzes the incoming
//! PostgreSQL startup message to identify the tenant. If a tenant has
//! multiple SQL nodes, the proxy selects a SQL node from the pool using a
//! 'least connections' algorithm." The proxy also resumes suspended
//! tenants on first connection, throttles failed authentication with
//! exponential backoff, enforces IP allow/deny lists, and migrates idle
//! sessions between SQL nodes using the serialized-session protocol.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::pin::pin;
use std::rc::Rc;
use std::time::Duration;

use crdb_kv::batch::KvError;
use crdb_obs::trace;
use crdb_sim::task::{self, Completion};
use crdb_sim::Sim;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::node::{NodeState, SqlNode};
use crdb_sql::session::SessionSnapshot;
use crdb_sql::system_db::SystemDatabase;
use crdb_sql::value::Datum;
use crdb_util::time::{dur, SimTime};
use crdb_util::{Breaker, Deadline, RetryPolicy, TenantId};

use crate::pool::WarmPool;
use crate::registry::Registry;

/// Supplies the (per-tenant) system-database configuration used during
/// cold starts — multi-region tenants differ in home region (§4.2.5).
pub type SystemDbProvider = Rc<dyn Fn(TenantId) -> SystemDatabase>;

/// One-way latency client ↔ proxy ↔ SQL node (local hops).
const HOP_LATENCY: Duration = Duration::from_micros(400);
/// Base auth-throttle backoff; doubles per consecutive failure.
const AUTH_BACKOFF_BASE: Duration = Duration::from_secs(1);
/// Upper bound on the auth-throttle backoff, however long the streak.
const AUTH_BACKOFF_CAP: Duration = Duration::from_secs(60);
/// Imbalance (in connections) that triggers migration between nodes.
const REBALANCE_THRESHOLD: u64 = 2;

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Connection rebalance loop interval.
    pub rebalance_interval: Duration,
    /// Per-statement deadline stamped at the proxy and propagated
    /// SQL → KV client → node (`None` = unbounded, the historical
    /// behavior). No layer below may schedule a retry past it.
    pub statement_deadline: Option<Duration>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig { rebalance_interval: dur::secs(10), statement_deadline: None }
    }
}

/// Errors surfaced to connecting clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// The startup message names an unknown tenant.
    UnknownTenant,
    /// The source IP is deny-listed (or not allow-listed).
    Denied,
    /// Too many failed authentications from this source; retry later.
    Throttled,
    /// Authentication failed at the backend.
    AuthFailed,
    /// SQL error on an established connection.
    Sql(SqlError),
}

/// A proxied client connection.
pub struct Connection {
    /// Connection ID.
    pub id: u64,
    /// The tenant.
    pub tenant: TenantId,
    node: RefCell<Rc<SqlNode>>,
    session: Cell<u64>,
    /// Times this connection was migrated between SQL nodes.
    pub migrations: Cell<u64>,
    /// Last serialized-session snapshot, refreshed whenever the session
    /// is observed idle. If the backend dies abruptly the proxy revives
    /// the session from this on another node (§4.2.4).
    snapshot: RefCell<Option<SessionSnapshot>>,
}

impl Connection {
    /// The SQL node currently serving this connection.
    pub fn node(&self) -> Rc<SqlNode> {
        self.node.borrow().clone()
    }

    /// The session ID on the current node.
    pub fn session(&self) -> u64 {
        self.session.get()
    }
}

struct ThrottleState {
    consecutive_failures: u32,
    blocked_until: SimTime,
}

/// The proxy service.
pub struct Proxy {
    sim: Sim,
    registry: Registry,
    pool: Rc<WarmPool>,
    system_db: SystemDbProvider,
    /// Open connections by [`Connection::id`].
    conns: RefCell<BTreeMap<u64, Rc<Connection>>>,
    next_conn: Cell<u64>,
    /// Keyed by source IP; BTreeMap so any future iteration is ordered.
    throttle: RefCell<BTreeMap<String, ThrottleState>>,
    /// Per-tenant denylist (co-specified by intrusion detection, §4.2.2).
    denylist: RefCell<BTreeMap<TenantId, Vec<String>>>,
    /// Tenants with a resume in flight, and a completion per connect (or
    /// revival) waiting on it.
    resuming: RefCell<BTreeMap<TenantId, Vec<Completion<Rc<SqlNode>>>>>,
    /// Total connections accepted.
    pub connects: Cell<u64>,
    /// Total session migrations performed.
    pub migrations: Cell<u64>,
    /// Rebalance migrations that failed (serialize/restore error); the
    /// connection stays on its current node and is retried next sweep.
    pub migration_failures: Cell<u64>,
    /// Connects that triggered a tenant resume (cold start).
    pub cold_starts: Cell<u64>,
    /// Client-observed per-statement latency (one sample per attempt).
    pub statement_latency: RefCell<crdb_util::Histogram>,
    /// Per-tenant client-observed statement latency — the blast-radius
    /// invariant ("healthy-region tenants keep their p99") is checked
    /// against these, not the global histogram.
    tenant_latency: RefCell<BTreeMap<TenantId, crdb_util::Histogram>>,
    /// Per-tenant circuit breakers: a tenant whose backend path keeps
    /// failing (dark region) is shed with a fast `Unavailable` instead of
    /// tying up proxy capacity, while other tenants are untouched.
    breakers: RefCell<BTreeMap<TenantId, Breaker>>,
    /// Statements shed by an open per-tenant breaker.
    pub shed_statements: Cell<u64>,
    /// Live copy of [`ProxyConfig::statement_deadline`], adjustable at
    /// runtime via [`Proxy::set_statement_deadline`].
    statement_deadline: Cell<Option<Duration>>,
}

impl Proxy {
    /// Creates a proxy and starts its rebalance loop.
    pub fn start(
        sim: &Sim,
        config: ProxyConfig,
        registry: Registry,
        pool: Rc<WarmPool>,
        system_db: SystemDbProvider,
    ) -> Rc<Proxy> {
        let proxy = Rc::new(Proxy {
            sim: sim.clone(),
            registry,
            pool,
            system_db,
            conns: RefCell::new(BTreeMap::new()),
            next_conn: Cell::new(1),
            throttle: RefCell::new(BTreeMap::new()),
            denylist: RefCell::new(BTreeMap::new()),
            resuming: RefCell::new(BTreeMap::new()),
            connects: Cell::new(0),
            migrations: Cell::new(0),
            migration_failures: Cell::new(0),
            cold_starts: Cell::new(0),
            statement_latency: RefCell::new(crdb_util::Histogram::new()),
            tenant_latency: RefCell::new(BTreeMap::new()),
            breakers: RefCell::new(BTreeMap::new()),
            shed_statements: Cell::new(0),
            statement_deadline: Cell::new(config.statement_deadline),
        });
        let (p, interval) = (Rc::clone(&proxy), config.rebalance_interval);
        task::spawn(sim, async move {
            loop {
                task::sleep(&p.sim, interval).await;
                p.rebalance();
            }
        });
        proxy
    }

    /// Adds to a tenant's denylist.
    pub fn deny_ip(&self, tenant: TenantId, ip: &str) {
        self.denylist.borrow_mut().entry(tenant).or_default().push(ip.to_string());
    }

    /// Whether `ip` may connect to `tenant`: it is not on the tenant's
    /// denylist.
    fn check_ip(&self, tenant: TenantId, ip: &str) -> bool {
        self.denylist.borrow().get(&tenant).is_none_or(|denied| denied.iter().all(|d| d != ip))
    }

    fn check_throttle(&self, ip: &str) -> bool {
        let now = self.sim.now();
        self.throttle.borrow().get(ip).is_none_or(|t| t.blocked_until <= now)
    }

    fn record_auth_failure(&self, ip: &str) {
        let now = self.sim.now();
        let mut throttle = self.throttle.borrow_mut();
        let entry = throttle
            .entry(ip.to_string())
            .or_insert(ThrottleState { consecutive_failures: 0, blocked_until: SimTime::ZERO });
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        // The first failure waits exactly the base; each further failure
        // doubles it, clamped to the cap so arbitrarily long streaks
        // neither overflow nor lock a source out forever.
        let backoff = RetryPolicy::exponential(AUTH_BACKOFF_BASE, AUTH_BACKOFF_CAP, u32::MAX)
            .delay(entry.consecutive_failures - 1)
            .unwrap_or(AUTH_BACKOFF_CAP);
        entry.blocked_until = now + backoff;
    }

    fn record_auth_success(&self, ip: &str) {
        self.throttle.borrow_mut().remove(ip);
    }

    /// Handles a new client connection: identifies the tenant from the
    /// startup message, applies security controls, resumes the tenant if
    /// suspended, picks the least-connections node, and opens a session.
    /// `auth_ok` models the backend authentication result.
    pub async fn connect(
        self: &Rc<Self>,
        tenant: TenantId,
        source_ip: &str,
        user: &str,
        auth_ok: bool,
    ) -> Result<Rc<Connection>, ProxyError> {
        // The span ends when the client gets its first byte (the session
        // handle or an error), so its duration is the full connect latency.
        let span = trace::child("proxy.connect");
        span.tag("tenant", tenant);
        let open = pin!(self.open_connection(&span, tenant, source_ip, user, auth_ok));
        let connection = trace::within(&span, open).await;
        if let Ok(c) = &connection {
            span.tag("session", c.session());
        }
        span.end();
        connection
    }

    /// The connect under `span`, which parents the spans it opens itself:
    /// the task can be woken while another request's span is current.
    async fn open_connection(
        self: &Rc<Self>,
        span: &trace::MaybeSpan,
        tenant: TenantId,
        source_ip: &str,
        user: &str,
        auth_ok: bool,
    ) -> Result<Rc<Connection>, ProxyError> {
        if !self.registry.has_tenant(tenant) {
            return Err(ProxyError::UnknownTenant);
        }
        if !self.check_ip(tenant, source_ip) {
            return Err(ProxyError::Denied);
        }
        if !self.check_throttle(source_ip) {
            return Err(ProxyError::Throttled);
        }
        if !auth_ok {
            // The failure is detected from the backend response; throttle
            // further attempts from this origin (§4.2.2).
            self.record_auth_failure(source_ip);
            task::sleep(&self.sim, HOP_LATENCY * 4).await;
            return Err(ProxyError::AuthFailed);
        }
        self.record_auth_success(source_ip);
        let node = self.ready_node(tenant).await;
        // The connection counts from the moment a node is chosen for it,
        // not from when its session opens a hop later: an autoscaler pass
        // in between would otherwise see a tenant with a node and nobody
        // connected, and stop the node under the connect in flight.
        self.registry.with_tenant(tenant, |e| e.connections += 1);
        let hop = span.child("network.hop");
        task::sleep(&self.sim, HOP_LATENCY * 2).await;
        hop.end();
        let open_span = span.child("session.open");
        let session = match node.open_session(user) {
            Ok(session) => session,
            Err(e) => {
                self.registry.with_tenant(tenant, |e| {
                    e.connections = e.connections.saturating_sub(1);
                });
                open_span.end();
                return Err(ProxyError::Sql(e));
            }
        };
        let id = self.next_conn.get();
        self.next_conn.set(id + 1);
        // Capture the initial revival snapshot while the fresh session is
        // certainly idle.
        let snapshot = node.serialize_session(session).ok();
        let conn = Rc::new(Connection {
            id,
            tenant,
            node: RefCell::new(node),
            session: Cell::new(session),
            migrations: Cell::new(0),
            snapshot: RefCell::new(snapshot),
        });
        self.conns.borrow_mut().insert(id, Rc::clone(&conn));
        self.registry.with_tenant(tenant, |e| e.last_active = self.sim.now());
        self.connects.set(self.connects.get() + 1);
        open_span.end();
        Ok(conn)
    }

    /// A ready node via least-connections, resuming the tenant when it is
    /// scaled to zero.
    async fn ready_node(self: &Rc<Self>, tenant: TenantId) -> Rc<SqlNode> {
        let ready = self.registry.with_tenant(tenant, |e| e.least_connected()).flatten();
        if let Some(node) = ready {
            return node;
        }
        // Scale from zero: one resume at a time; concurrent connects wait.
        let resumed = Completion::default();
        let first = {
            let mut resuming = self.resuming.borrow_mut();
            let waiters = resuming.entry(tenant).or_default();
            waiters.push(resumed.clone());
            waiters.len() == 1
        };
        if first {
            self.cold_starts.set(self.cold_starts.get() + 1);
            task::spawn(&self.sim, Rc::clone(self).resume(tenant));
        }
        resumed.await
    }

    /// Starts a node for a suspended tenant from the warm pool, within the
    /// span of the request that found it suspended, and hands it to every
    /// connect waiting on the resume, in arrival order.
    async fn resume(self: Rc<Self>, tenant: TenantId) {
        let system_db = (self.system_db)(tenant);
        let start = self.pool.acquire_and_start(&self.registry, &system_db, tenant);
        let node = trace::in_current_span(start).await;
        self.registry.with_tenant(tenant, |e| {
            e.suspended = false;
            e.nodes.push(Rc::clone(&node));
            e.last_active = self.sim.now();
        });
        let waiters = self.resuming.borrow_mut().remove(&tenant).unwrap_or_default();
        for waiter in waiters {
            waiter.fill(Rc::clone(&node));
        }
    }

    /// Executes a statement on a connection (client → proxy → node hops
    /// included). If the backend died abruptly since the last statement,
    /// the session is first revived on another node from its cached
    /// snapshot, transparently to the client (§4.2.4).
    pub async fn execute(
        self: &Rc<Self>,
        conn: &Rc<Connection>,
        sql: &str,
        params: Vec<Datum>,
    ) -> Result<QueryOutput, SqlError> {
        // Shed load for tenants whose backend path keeps failing: the
        // breaker fast-fails at the proxy without touching the SQL or KV
        // layers, so a dark-region tenant cannot tie up shared capacity.
        if !self.breaker_allows(conn.tenant) {
            self.shed_statements.set(self.shed_statements.get() + 1);
            return Err(SqlError::Kv(KvError::Unavailable));
        }
        // The statement's deadline is stamped once here; revival and
        // crash-mid-flight re-routes all count against the same budget.
        let deadline = match self.statement_deadline.get() {
            Some(d) => Deadline::at(self.sim.now() + d),
            None => Deadline::NONE,
        };
        self.attempt(conn, sql, params, deadline).await
    }

    /// Changes the per-statement deadline for subsequent statements
    /// (`None` = unbounded). Lets operators widen the budget for offline
    /// audit sessions without rebuilding the proxy.
    pub fn set_statement_deadline(&self, deadline: Option<Duration>) {
        self.statement_deadline.set(deadline);
    }

    fn breaker_allows(&self, tenant: TenantId) -> bool {
        let now = self.sim.now();
        self.breakers.borrow_mut().entry(tenant).or_default().allow(now)
    }

    /// Records a statement outcome into the tenant's breaker. Only
    /// infrastructure failures count: user errors (parse, constraint, …)
    /// prove the backend is reachable and count as successes.
    fn breaker_record(&self, tenant: TenantId, r: &Result<QueryOutput, SqlError>) {
        let infra_failure = matches!(
            r,
            Err(SqlError::Unavailable)
                | Err(SqlError::Kv(
                    KvError::Unavailable
                        | KvError::NodeUnavailable
                        | KvError::DeadlineExceeded
                        | KvError::AdmissionTimeout
                        | KvError::AmbiguousCommit
                ))
        );
        let now = self.sim.now();
        let mut breakers = self.breakers.borrow_mut();
        let b = breakers.entry(tenant).or_default();
        if infra_failure {
            b.record_failure(now);
        } else {
            b.record_success();
        }
    }

    /// Total per-tenant breaker trips (for metrics).
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.borrow().values().map(|b| b.trips()).sum()
    }

    /// The p99 client-observed statement latency for one tenant, if it
    /// has issued any statements.
    pub fn tenant_statement_p99(&self, tenant: TenantId) -> Option<Duration> {
        self.tenant_latency
            .borrow()
            .get(&tenant)
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_duration(0.99))
    }

    /// One attempt at a statement: a `proxy.execute` span, a latency
    /// sample and a breaker sample. A backend that crashes while the
    /// request is on the wire gets a fresh attempt, nested in this one,
    /// which revives the session first (the statement's deadline keeps
    /// counting). The span parents the spans the attempt opens itself by
    /// name: the task can be woken while another request's span is
    /// current.
    async fn attempt(
        self: &Rc<Self>,
        conn: &Rc<Connection>,
        sql: &str,
        params: Vec<Datum>,
        deadline: Deadline,
    ) -> Result<QueryOutput, SqlError> {
        let span = trace::child("proxy.execute");
        span.tag("tenant", conn.tenant);
        span.tag("session", conn.session());
        let begin = self.sim.now();
        let routed = async {
            if conn.node().state() == NodeState::Stopped {
                let revive_span = span.child("session.revive");
                let revived = self.revive(conn).await;
                revive_span.end();
                revived?;
            }
            let (node, session) = (conn.node(), conn.session());
            let request_hop = span.child("network.hop");
            task::sleep(&self.sim, HOP_LATENCY * 2).await;
            request_hop.end();
            if conn.node().state() == NodeState::Stopped {
                return Box::pin(self.attempt(conn, sql, params, deadline)).await;
            }
            self.registry.with_tenant(conn.tenant, |e| e.last_active = self.sim.now());
            let r = node.execute_with_deadline(session, sql, params, deadline).await;
            // Refresh the revival snapshot whenever the session is idle
            // afterwards, so a later crash resumes from the latest
            // committed state.
            if r.is_ok() {
                if let Ok(snap) = node.serialize_session(session) {
                    *conn.snapshot.borrow_mut() = Some(snap);
                }
            }
            let response_hop = span.child("network.hop");
            task::sleep(&self.sim, HOP_LATENCY * 2).await;
            response_hop.end();
            r
        };
        let r = trace::within(&span, pin!(routed)).await;
        let elapsed = self.sim.now().duration_since(begin);
        self.statement_latency.borrow_mut().record_duration(elapsed);
        self.tenant_latency.borrow_mut().entry(conn.tenant).or_default().record_duration(elapsed);
        self.breaker_record(conn.tenant, &r);
        span.end();
        r
    }

    /// Revives a connection whose backend died abruptly: prunes the dead
    /// node from orchestration state (so the autoscaler backfills),
    /// restores the last idle snapshot on a ready node — starting one
    /// from the warm pool when the tenant has none — and repoints the
    /// connection.
    async fn revive(self: &Rc<Self>, conn: &Rc<Connection>) -> Result<(), SqlError> {
        let dead = conn.node();
        self.registry.prune_stopped(conn.tenant);
        let Some(snapshot) = conn.snapshot.borrow().clone() else {
            return Err(SqlError::Retry("backend died with no revival snapshot".into()));
        };
        let node = self.ready_node(conn.tenant).await;
        // A rebalance sweep and a statement can both find the node dead
        // and wait on one resume: whichever wakes second finds the
        // connection moved, and must not restore the session again.
        if !Rc::ptr_eq(&conn.node(), &dead) {
            return Ok(());
        }
        // Wire-format roundtrip, as in production; the revival token is
        // re-verified by the restoring node.
        let decoded = SessionSnapshot::decode(&snapshot.encode())
            .ok_or_else(|| SqlError::State("snapshot decode failed".into()))?;
        let new_session = node.restore_session(&decoded)?;
        *conn.node.borrow_mut() = node;
        conn.session.set(new_session);
        conn.migrations.set(conn.migrations.get() + 1);
        self.migrations.set(self.migrations.get() + 1);
        Ok(())
    }

    /// Closes a connection.
    pub fn close(&self, conn: &Rc<Connection>) {
        conn.node().close_session(conn.session());
        self.conns.borrow_mut().remove(&conn.id);
        self.registry.with_tenant(conn.tenant, |e| {
            e.connections = e.connections.saturating_sub(1);
        });
    }

    /// Migrates one connection to `target`; fails, leaving it where it
    /// is, when its session cannot be serialized (it is not idle) or
    /// restored.
    pub fn migrate(&self, conn: &Rc<Connection>, target: &Rc<SqlNode>) -> Result<(), SqlError> {
        let old = conn.node();
        if Rc::ptr_eq(&old, target) {
            return Ok(());
        }
        let snapshot: SessionSnapshot = old.serialize_session(conn.session())?;
        // Wire format roundtrip, as in production.
        let decoded = SessionSnapshot::decode(&snapshot.encode())
            .ok_or(SqlError::State("snapshot decode failed".into()))?;
        let new_session = target.restore_session(&decoded)?;
        old.close_session(conn.session());
        *conn.node.borrow_mut() = Rc::clone(target);
        conn.session.set(new_session);
        conn.migrations.set(conn.migrations.get() + 1);
        self.migrations.set(self.migrations.get() + 1);
        // The serialized state is also the freshest revival snapshot.
        *conn.snapshot.borrow_mut() = Some(snapshot);
        Ok(())
    }

    /// Periodic connection rebalancing (§4.2.2): drains first, then
    /// smooths imbalance across ready nodes.
    pub fn rebalance(self: &Rc<Self>) {
        // Id order is deterministic, so migration order and thus pod
        // placement reproduce exactly under the same seed. Collected up
        // front because migrating re-enters the connection table.
        let conns: Vec<Rc<Connection>> = self.conns.borrow().values().cloned().collect();
        for conn in conns {
            let node = conn.node();
            if node.state() == NodeState::Stopped {
                // Dead backend: its sessions are gone, so the orderly
                // serialize-and-migrate path cannot work. Revive from the
                // cached snapshot instead.
                let this = Rc::clone(self);
                task::spawn(&self.sim, async move { drop(this.revive(&conn).await) });
                continue;
            }
            if node.state() == NodeState::Draining {
                let target = self.registry.with_tenant(conn.tenant, |e| e.least_connected());
                if let Some(target) = target.flatten() {
                    if self.migrate(&conn, &target).is_err() {
                        // Drain migration is best-effort: the conn stays on
                        // the draining node and the next sweep retries.
                        self.migration_failures.set(self.migration_failures.get() + 1);
                    }
                }
                continue;
            }
            // Smooth distribution: move from crowded to sparse nodes.
            let ready =
                self.registry.with_tenant(conn.tenant, |e| e.ready_nodes()).unwrap_or_default();
            if ready.len() < 2 {
                continue;
            }
            if let Some(target) = ready.iter().min_by_key(|n| n.session_count()) {
                let here = node.session_count() as u64;
                let there = target.session_count() as u64;
                if here > there + REBALANCE_THRESHOLD && self.migrate(&conn, target).is_err() {
                    self.migration_failures.set(self.migration_failures.get() + 1);
                }
            }
        }
    }

    /// Open proxied connections.
    pub fn connection_count(&self) -> usize {
        self.conns.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_kv::client::KvClient;
    use crdb_kv::cluster::{KvCluster, KvClusterConfig};
    use crdb_sim::{Location, Topology};

    /// Spawns a connect to tenant 2, which must succeed; the slot holds
    /// the connection once it is open.
    fn connect(sim: &Sim, proxy: &Rc<Proxy>) -> Rc<RefCell<Option<Rc<Connection>>>> {
        let slot = Rc::new(RefCell::new(None));
        let (proxy, s) = (Rc::clone(proxy), Rc::clone(&slot));
        task::spawn(sim, async move {
            let conn = proxy.connect(TenantId(2), "10.0.0.1", "app", true).await.expect("connect");
            *s.borrow_mut() = Some(conn);
        });
        slot
    }

    /// Spawns `sql` on `conn`; the slot holds its result.
    fn execute(
        sim: &Sim,
        proxy: &Rc<Proxy>,
        conn: &Rc<Connection>,
        sql: &str,
    ) -> Rc<RefCell<Option<Result<QueryOutput, SqlError>>>> {
        let out = Rc::new(RefCell::new(None));
        let (proxy, conn, sql, o) =
            (Rc::clone(proxy), Rc::clone(conn), sql.to_string(), Rc::clone(&out));
        task::spawn(sim, async move {
            let r = proxy.execute(&conn, &sql, vec![]).await;
            *o.borrow_mut() = Some(r);
        });
        out
    }
    use crdb_sql::node::SqlNodeConfig;
    use crdb_util::{RegionId, SqlInstanceId};

    fn fixture() -> (Sim, Rc<Proxy>, Registry) {
        let sim = Sim::new(7);
        let cluster = KvCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig::default(),
        );
        let cert = cluster.create_tenant(TenantId(2));
        let sim2 = sim.clone();
        let next_id = Rc::new(Cell::new(1u64));
        let factory = {
            let cluster = cluster.clone();
            Rc::new(move |_tenant: TenantId| {
                let client =
                    KvClient::new(cluster.clone(), cert.clone(), Location::new(RegionId(0), 0));
                let id = next_id.get();
                next_id.set(id + 1);
                SqlNode::new(&sim2, SqlInstanceId(id), client, SqlNodeConfig::default())
            })
        };
        let registry = Registry::new(factory);
        registry.add_tenant(TenantId(2), sim.now());
        let pool = WarmPool::new(&sim, true);
        let sdb: SystemDbProvider =
            Rc::new(|_| SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]));
        let proxy = Proxy::start(&sim, ProxyConfig::default(), registry.clone(), pool, sdb);
        (sim, proxy, registry)
    }

    #[test]
    fn first_auth_failure_backs_off_exactly_one_base() {
        let (sim, proxy, _registry) = fixture();
        proxy.record_auth_failure("203.0.113.9");
        assert!(!proxy.check_throttle("203.0.113.9"));
        {
            let throttle = proxy.throttle.borrow();
            let entry = throttle.get("203.0.113.9").unwrap();
            assert_eq!(entry.consecutive_failures, 1);
            assert_eq!(entry.blocked_until, sim.now() + AUTH_BACKOFF_BASE);
        }
        // Once exactly one base interval has elapsed, the source may retry.
        sim.schedule_after(AUTH_BACKOFF_BASE, || {});
        sim.run_for(AUTH_BACKOFF_BASE);
        assert!(proxy.check_throttle("203.0.113.9"));
    }

    #[test]
    fn auth_backoff_saturates_at_cap_for_long_streaks() {
        let (sim, proxy, _registry) = fixture();
        // Far past both the exponent clamp and the cap; must not overflow.
        for _ in 0..40 {
            proxy.record_auth_failure("203.0.113.9");
        }
        {
            let throttle = proxy.throttle.borrow();
            let entry = throttle.get("203.0.113.9").unwrap();
            assert_eq!(entry.consecutive_failures, 40);
            assert_eq!(entry.blocked_until, sim.now() + AUTH_BACKOFF_CAP);
        }
        // A success clears the streak entirely.
        proxy.record_auth_success("203.0.113.9");
        assert!(proxy.check_throttle("203.0.113.9"));
        proxy.record_auth_failure("203.0.113.9");
        let throttle = proxy.throttle.borrow();
        assert_eq!(throttle.get("203.0.113.9").unwrap().consecutive_failures, 1);
    }

    #[test]
    fn statement_deadline_bounds_kv_outage_and_breaker_sheds() {
        let sim = Sim::new(21);
        let cluster = KvCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig::default(),
        );
        let cert = cluster.create_tenant(TenantId(2));
        let sim2 = sim.clone();
        let next_id = Rc::new(Cell::new(1u64));
        let factory = {
            let cluster = cluster.clone();
            Rc::new(move |_tenant: TenantId| {
                let client =
                    KvClient::new(cluster.clone(), cert.clone(), Location::new(RegionId(0), 0));
                let id = next_id.get();
                next_id.set(id + 1);
                SqlNode::new(&sim2, SqlInstanceId(id), client, SqlNodeConfig::default())
            })
        };
        let registry = Registry::new(factory);
        registry.add_tenant(TenantId(2), sim.now());
        let pool = WarmPool::new(&sim, true);
        let sdb: SystemDbProvider =
            Rc::new(|_| SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]));
        let proxy = Proxy::start(
            &sim,
            ProxyConfig { statement_deadline: Some(dur::secs(2)), ..Default::default() },
            registry.clone(),
            pool,
            sdb,
        );

        let slot = connect(&sim, &proxy);
        sim.run_for(dur::secs(10));
        let conn = slot.borrow_mut().take().expect("connected");
        let run = |sql: &str, window: Duration| -> (Result<QueryOutput, SqlError>, Duration) {
            let out = Rc::new(RefCell::new(None));
            let (proxy, conn, sql, o) =
                (Rc::clone(&proxy), Rc::clone(&conn), sql.to_string(), Rc::clone(&out));
            let (begin, s2) = (sim.now(), sim.clone());
            task::spawn(&sim, async move {
                let r = proxy.execute(&conn, &sql, vec![]).await;
                *o.borrow_mut() = Some((r, s2.now().duration_since(begin)));
            });
            sim.run_for(window);
            let r = out.borrow_mut().take();
            r.expect("completed")
        };
        run("CREATE TABLE t (id INT PRIMARY KEY)", dur::secs(30)).0.expect("ok");

        // Total KV outage: without a deadline the client's routing budget
        // would retry for ~19s per statement. The propagated deadline
        // bounds each failure near 2s, and five consecutive
        // infrastructure failures trip the tenant's breaker.
        for id in cluster.node_ids() {
            cluster.set_node_alive(id, false);
        }
        // 1s windows keep each follow-up statement inside the breaker's
        // 3s cooldown, so the trip is observable as a shed below.
        for i in 0..5 {
            let (r, elapsed) = run("SELECT * FROM t", dur::secs(1));
            assert!(r.is_err(), "statement {i} fails during the outage");
            assert!(elapsed < dur::secs(4), "deadline bounds attempt {i}: {elapsed:?}");
        }
        assert!(proxy.breaker_trips() >= 1, "breaker tripped after the failure streak");

        // The open breaker sheds instantly at the proxy.
        let (r, elapsed) = run("SELECT * FROM t", dur::secs(1));
        assert!(matches!(r, Err(SqlError::Kv(KvError::Unavailable))), "shed error: {r:?}");
        assert_eq!(elapsed, Duration::ZERO, "shed without touching SQL or KV");
        assert!(proxy.shed_statements.get() >= 1);

        // Recovery: nodes return, the breaker's cooldown lapses, and the
        // half-open probe closes it again.
        for id in cluster.node_ids() {
            cluster.set_node_alive(id, true);
        }
        sim.run_for(dur::secs(30));
        let (r, _) = run("SELECT * FROM t", dur::secs(30));
        r.expect("service restored after recovery");
    }

    #[test]
    fn crashed_backend_session_revives_on_fresh_node() {
        let (sim, proxy, registry) = fixture();
        let slot = connect(&sim, &proxy);
        sim.run_for(dur::secs(10));
        let conn = slot.borrow_mut().take().expect("connected");
        let run = |sql: &str| {
            let out = execute(&sim, &proxy, &conn, sql);
            sim.run_for(dur::secs(10));
            let r = out.borrow_mut().take();
            r.expect("completed").expect("ok")
        };
        run("CREATE TABLE t (id INT PRIMARY KEY, v STRING)");
        run("INSERT INTO t VALUES (1, 'x'), (2, 'y')");

        let old = conn.node();
        old.crash();
        assert_eq!(registry.node_count(TenantId(2)), 1, "not pruned until revival");

        // The next statement transparently revives the session elsewhere.
        let out = run("SELECT COUNT(*) FROM t");
        assert_eq!(out.rows[0][0].to_string(), "2", "acknowledged writes survive the crash");
        assert_eq!(conn.migrations.get(), 1);
        assert!(!Rc::ptr_eq(&old, &conn.node()), "session moved off the dead node");
        assert_eq!(conn.node().state(), NodeState::Ready);
        assert_eq!(registry.node_count(TenantId(2)), 1, "dead node pruned, replacement started");
    }

    #[test]
    fn a_sweep_and_a_statement_revive_a_connection_once() {
        let (sim, proxy, registry) = fixture();
        let slot = connect(&sim, &proxy);
        sim.run_for(dur::secs(10));
        let conn = slot.borrow_mut().take().expect("connected");
        conn.node().crash();
        // The sweep starts a resume; the statement finds the node dead too
        // and waits on the same resume.
        proxy.rebalance();
        let out = execute(&sim, &proxy, &conn, "SELECT 1");
        sim.run_for(dur::secs(10));
        out.borrow_mut().take().expect("completed").expect("ok");
        assert_eq!(conn.migrations.get(), 1, "revived once");
        let node = conn.node();
        proxy.close(&conn);
        assert_eq!(node.session_count(), 0, "no session is left without an owner");
        assert_eq!(registry.node_count(TenantId(2)), 1);
    }

    #[test]
    fn a_crash_while_the_request_is_on_the_wire_retries_in_a_nested_attempt() {
        let (sim, proxy, _registry) = fixture();
        let slot = connect(&sim, &proxy);
        sim.run_for(dur::secs(10));
        let conn = slot.borrow_mut().take().expect("connected");
        let (trace, root) = crdb_obs::Trace::start("request", sim.clock());
        let out = {
            let _g = root.enter();
            execute(&sim, &proxy, &conn, "SELECT 1")
        };
        // The request hop is in flight when the backend dies.
        conn.node().crash();
        sim.run_for(dur::secs(10));
        root.end();
        out.borrow_mut().take().expect("completed").expect("ok");
        assert_eq!(conn.migrations.get(), 1, "the second attempt revived the session");
        let spans = trace.spans();
        let attempts: Vec<usize> =
            (0..spans.len()).filter(|&i| spans[i].name == "proxy.execute").collect();
        assert_eq!(attempts.len(), 2, "one span per attempt");
        assert_eq!(spans[attempts[1]].parent, Some(attempts[0]), "the retry nests in the first");
        assert_eq!(proxy.statement_latency.borrow().count(), 2, "one latency sample per attempt");
    }
}
