//! The SQL node: a per-tenant SQL process (§4.1).
//!
//! A SQL node owns no durable state — schema and data live behind the KV
//! API — so it can be created, drained and destroyed freely. Its life
//! cycle mirrors §4.3.1: created (possibly pre-warmed before the tenant is
//! known), *started* against a tenant (certificate available → connect to
//! KV → blocking system-database reads/writes → ready), then serving
//! sessions until drained.
//!
//! Cold-start latency is the sum of (a) the real KV work it performs
//! (catalog scan, instance registration) and (b) the modeled
//! system-database access latencies of [`crate::system_db`], which carry
//! the multi-region locality arithmetic of Fig. 10b.
//!
//! # Key layout of `system.sql_instances`
//!
//! A tenant's keys are `desc/…`, `sqlinst/…`, `system/meta/…`, `tbl/…`
//! and `tstat/…`, all in one region-spread range (until it splits by
//! size). When the table is REGIONAL BY ROW
//! ([`SystemDatabase::instance_partitions`]) a row is keyed by its region
//! first, `~sqlinst/<region>/<instance>`, as a partitioned table's rows
//! are, and each region's key span is a range of its own pinned to that
//! region. `~` sorts after every other prefix, so the partitions sit at
//! the top edge of the tenant's keyspace and everything else is still one
//! range: DDL and DML keep their one-phase commits. Otherwise — one
//! region, the unoptimized system database, or a node started outside the
//! tenant's regions — the row is `sqlinst/<instance>` in the tenant's
//! main range, written through its home-region leaseholder.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::pin::pin;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use crdb_kv::batch::KvError;
use crdb_kv::client::KvClient;
use crdb_obs::trace;
use crdb_sim::cpu::CpuScheduler;
use crdb_sim::task;
use crdb_sim::{Location, Sim};
use crdb_util::time::{dur, SimTime};
use crdb_util::{Deadline, RegionId, RetryPolicy, SqlInstanceId, TenantId};

use crate::coord::{SqlError, Txn};
use crate::exec::{execute, QueryOutput};
use crate::parser::{parse, Statement};
use crate::plan::{plan_statement, Catalog, Plan};
use crate::rowcodec;
use crate::schema::TableDescriptor;
use crate::session::{Session, SessionSnapshot};
use crate::stats::TableStatistics;
use crate::system_db::SystemDatabase;

/// Autocommit retry backoff: doubles from 2 ms to 32 ms, five retries.
fn autocommit_retry_policy() -> RetryPolicy {
    RetryPolicy::exponential(dur::ms(2), dur::ms(32), 5)
}

/// KV pairs fetched per ANALYZE chunk: the statistics scan streams the
/// table instead of materializing it in one response.
const ANALYZE_CHUNK: usize = 1024;

/// Where table `id`'s descriptor is stored (unprefixed): `desc/<id>`.
fn desc_key(id: u64) -> Bytes {
    let mut key = BytesMut::with_capacity(13);
    key.put_slice(b"desc/");
    key.put_u64(id);
    key.freeze()
}

/// The first key (tenant-relative) of `region`'s partition of a REGIONAL
/// BY ROW `system.sql_instances`; the partition runs to the next region's
/// first key, or to the end of the tenant's keyspace.
pub fn instance_partition_start(region: RegionId) -> Bytes {
    let mut key = BytesMut::with_capacity(17);
    key.put_slice(b"~sqlinst/");
    key.put_u64(region.raw());
    key.freeze()
}

/// vCPUs per SQL node: all SQL nodes get the same shape in production,
/// 4 vCPUs and 12 GB RAM (§4.2.3). The autoscaler sizes in these units.
pub const NODE_VCPUS: f64 = 4.0;
/// CPU-seconds of process initialization during cold start.
const STARTUP_CPU: f64 = 50e-3;
/// Modeled resident memory of an idle SQL node with one connection
/// (§6.2 reports 180 MiB).
const IDLE_MEMORY_BYTES: u64 = 180 << 20;
/// Modeled additional memory per active session.
const MEMORY_PER_SESSION: u64 = 4 << 20;

/// SQL node configuration.
#[derive(Debug, Clone)]
pub struct SqlNodeConfig {
    /// Placement.
    pub location: Location,
    /// Base CPU-seconds per statement.
    pub cpu_per_statement: f64,
    /// CPU-seconds per row processed.
    pub cpu_per_row: f64,
    /// CPU-seconds per byte processed.
    pub cpu_per_byte: f64,
    /// Extra CPU-seconds per byte crossing the SQL/KV process boundary
    /// (marshal + unmarshal); zero where SQL and KV share a process.
    pub cpu_marshal_per_byte: f64,
    /// Extra CPU-seconds per row crossing the process boundary — "the
    /// rows need to be marshaled and un-marshaled between the processes"
    /// (§6.1.2); per-row framing dominates the per-byte cost.
    pub cpu_marshal_per_row: f64,
    /// Background CPU of a running SQL node (connection keepalives,
    /// metrics emission, GC) in CPU-seconds per second; §6.2 measures
    /// 0.15 for an idle node with one connection. It accrues from Ready
    /// until the node stops and is billed through
    /// [`SqlNode::sql_cpu_seconds`]; it takes no share of the node's vCPUs.
    pub idle_cpu_per_second: f64,
}

impl Default for SqlNodeConfig {
    fn default() -> Self {
        SqlNodeConfig {
            location: Location::new(crdb_util::RegionId(0), 0),
            cpu_per_statement: 40e-6,
            cpu_per_row: 3e-6,
            cpu_per_byte: 2e-9,
            cpu_marshal_per_byte: 6e-9,
            cpu_marshal_per_row: 3.5e-6,
            idle_cpu_per_second: 0.15,
        }
    }
}

impl SqlNodeConfig {
    /// Returns a copy with every CPU cost multiplied by `factor` (pairs
    /// with `CostModel::scaled` for scaled-cost experiments).
    pub fn scaled(&self, factor: f64) -> SqlNodeConfig {
        SqlNodeConfig {
            cpu_per_statement: self.cpu_per_statement * factor,
            cpu_per_row: self.cpu_per_row * factor,
            cpu_per_byte: self.cpu_per_byte * factor,
            cpu_marshal_per_byte: self.cpu_marshal_per_byte * factor,
            cpu_marshal_per_row: self.cpu_marshal_per_row * factor,
            ..self.clone()
        }
    }
}

/// SQL node life-cycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Process exists, tenant unknown (pre-warmed pool).
    Created,
    /// Executing the cold-start sequence.
    Starting,
    /// Serving queries.
    Ready,
    /// No new connections; existing sessions draining (§4.2.3).
    Draining,
    /// Shut down.
    Stopped,
}

/// Running accumulator for one ANALYZE scan.
struct AnalyzeAcc {
    row_count: u64,
    key_bytes: u64,
    value_bytes: u64,
    /// Distinct primary-key prefixes, by prefix length − 1. The scan
    /// arrives in primary-key order, so a prefix is new exactly when it
    /// differs from the previous row's: runs are counted, nothing is kept.
    primary_runs: Vec<u64>,
    /// The previous row's primary key — across chunks too.
    last_key: Option<Bytes>,
    /// (secondary index id, prefix length) → distinct encoded key
    /// prefixes; a primary scan meets these in no order.
    distinct: BTreeMap<(u64, u64), BTreeSet<Bytes>>,
    /// Decode buffer, reused from row to row.
    row: crate::value::Row,
}

/// A per-tenant SQL node.
pub struct SqlNode {
    /// This node's instance ID (registered in `system.sql_instances`).
    pub instance_id: SqlInstanceId,
    /// The owning tenant.
    pub tenant: TenantId,
    sim: Sim,
    /// The node's CPU.
    pub cpu: CpuScheduler,
    client: KvClient,
    /// Configuration.
    pub config: SqlNodeConfig,
    catalog: Rc<RefCell<Catalog>>,
    state: Cell<NodeState>,
    sessions: RefCell<BTreeMap<u64, Session>>,
    next_session_id: Cell<u64>,
    /// Statements executed.
    pub queries_executed: Cell<u64>,
    /// Cold start duration, once started.
    pub cold_start: Cell<Option<std::time::Duration>>,
    /// Per-tenant session-revival secret (shared by the tenant's nodes;
    /// derived here from the tenant id — a stand-in for a managed secret).
    revival_secret: u64,
    /// Retired nodes (e.g. pending a version upgrade) drain but are never
    /// reclaimed by the autoscaler.
    retired: Cell<bool>,
    /// When the node became Ready, and when it stopped: the span its idle
    /// CPU burn accrues over.
    ready_at: Cell<Option<SimTime>>,
    stopped_at: Cell<Option<SimTime>>,
}

impl SqlNode {
    /// Creates a node bound to a tenant's KV client (certificate inside).
    pub fn new(
        sim: &Sim,
        instance_id: SqlInstanceId,
        client: KvClient,
        config: SqlNodeConfig,
    ) -> Rc<SqlNode> {
        let tenant = client.cert().tenant();
        Rc::new(SqlNode {
            instance_id,
            tenant,
            sim: sim.clone(),
            cpu: CpuScheduler::new(sim.clone(), NODE_VCPUS),
            client,
            config,
            catalog: Rc::new(RefCell::new(Catalog::new())),
            state: Cell::new(NodeState::Created),
            sessions: RefCell::new(BTreeMap::new()),
            next_session_id: Cell::new(1),
            queries_executed: Cell::new(0),
            cold_start: Cell::new(None),
            revival_secret: 0x5eed_0000 ^ tenant.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15),
            retired: Cell::new(false),
            ready_at: Cell::new(None),
            stopped_at: Cell::new(None),
        })
    }

    /// Current life-cycle state.
    pub fn state(&self) -> NodeState {
        self.state.get()
    }

    /// Modeled resident memory (Fig. 7b accounting).
    pub fn memory_bytes(&self) -> u64 {
        IDLE_MEMORY_BYTES + self.sessions.borrow().len() as u64 * MEMORY_PER_SESSION
    }

    /// Cumulative SQL CPU-seconds consumed by this node: what its CPU ran,
    /// plus the idle burn accrued since it became Ready (until it stopped).
    pub fn sql_cpu_seconds(&self) -> f64 {
        let up = self.ready_at.get().map_or(0.0, |ready| {
            let until = self.stopped_at.get().unwrap_or_else(|| self.sim.now());
            until.duration_since(ready).as_secs_f64()
        });
        self.cpu.cumulative_usage_total() + self.config.idle_cpu_per_second * up
    }

    /// Runs the cold-start sequence (§4.3.1 / §3.2.5): process init CPU,
    /// blocking system-database accesses with locality-modeled latency,
    /// real catalog load, and instance registration. Returns once the node
    /// can accept queries.
    pub async fn start(self: &Rc<Self>, system_db: &SystemDatabase) {
        assert_eq!(self.state.get(), NodeState::Created, "start() on fresh nodes only");
        self.state.set(NodeState::Starting);
        let topology = self.client.cluster().topology();
        // Total modeled latency of the blocking system-table accesses.
        let sys_latency = system_db.cold_start_latency(&topology, self.config.location);
        let partitioned = system_db.instance_partitions().contains(&self.config.location.region);
        let started_at = self.sim.now();
        let span = trace::child("sql.node.start");
        span.tag("instance", self.instance_id);
        span.tag("tenant", self.tenant);
        let init_span = span.child("process.init");
        self.cpu.run(self.tenant, STARTUP_CPU).await;
        init_span.end();
        let sys_span = span.child("systemdb.access");
        task::sleep(&self.sim, sys_latency).await;
        sys_span.end();
        // Real catalog load: scan persisted descriptors (a load that fails
        // is not fatal, see `load_catalog`).
        let catalog_span = span.child("catalog.load");
        drop(trace::within(&catalog_span, pin!(self.load_catalog())).await);
        catalog_span.end();
        // Register this instance for DistSQL discovery.
        let reg_span = span.child("instance.register");
        reg_span.tag("region", self.config.location.region.raw());
        reg_span.tag("placement", if partitioned { "pinned" } else { "spread" });
        drop(trace::within(&reg_span, pin!(self.register_instance(partitioned))).await);
        reg_span.end();
        span.end();
        self.state.set(NodeState::Ready);
        self.ready_at.set(Some(self.sim.now()));
        self.cold_start.set(Some(self.sim.now().duration_since(started_at)));
    }

    /// Loads the persisted table descriptors and statistics (which feed
    /// the cost-based planner) from one snapshot: one read-only
    /// transaction scans `desc/`, then `tstat/`. Only when both reads
    /// succeed is anything installed; otherwise the failed read's error
    /// is returned and the catalog is as it was. A refresh on
    /// `UnknownTable` fails its statement with that error. A cold start
    /// ignores it: the node becomes Ready, and its first statement that
    /// meets `UnknownTable` refreshes again.
    async fn load_catalog(&self) -> Result<(), SqlError> {
        let snapshot = Txn::begin(&self.client);
        let (desc_start, desc_end) = (Bytes::from_static(b"desc/"), Bytes::from_static(b"desc0"));
        let descs = snapshot.scan(desc_start, desc_end, usize::MAX).await?;
        let (start, end) = (rowcodec::stats_span_start(), rowcodec::stats_span_end());
        let stats = snapshot.scan(start, end, usize::MAX).await?;
        let mut catalog = self.catalog.borrow_mut();
        for desc in descs.iter().filter_map(|(_, v)| TableDescriptor::decode(v)) {
            catalog.install(desc);
        }
        for stats in stats.iter().filter_map(|(_, v)| TableStatistics::decode(v)) {
            catalog.install_stats(stats);
        }
        Ok(())
    }

    /// Writes this node's `system.sql_instances` row — into its own
    /// region's partition when the table is `partitioned` there (see the
    /// module docs for the two layouts).
    async fn register_instance(&self, partitioned: bool) -> Result<(), KvError> {
        let mut key = BytesMut::new();
        if partitioned {
            key.put_slice(&instance_partition_start(self.config.location.region));
            key.put_u8(b'/');
        } else {
            key.put_slice(b"sqlinst/");
        }
        key.put_u64(self.instance_id.raw());
        let mut value = BytesMut::new();
        value.put_u64(self.config.location.region.raw());
        value.put_u32(self.config.location.zone);
        let key = crdb_kv::keys::make_key(self.tenant, &key.freeze());
        self.client.put(key, value.freeze()).await
    }

    /// Opens a session for `user`; returns its ID.
    pub fn open_session(&self, user: &str) -> Result<u64, SqlError> {
        if self.state.get() != NodeState::Ready {
            return Err(SqlError::State(format!("node is {:?}", self.state.get())));
        }
        let id = self.next_session_id.get();
        self.next_session_id.set(id + 1);
        self.sessions.borrow_mut().insert(id, Session::new(id, user));
        Ok(id)
    }

    /// Closes a session.
    pub fn close_session(&self, id: u64) {
        self.sessions.borrow_mut().remove(&id);
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.borrow().len()
    }

    /// Sets a session variable.
    pub fn set_session_var(&self, session: u64, key: &str, value: &str) -> Result<(), SqlError> {
        let mut sessions = self.sessions.borrow_mut();
        let s = sessions.get_mut(&session).ok_or(SqlError::State("no such session".into()))?;
        s.settings.insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Registers a prepared statement.
    pub fn prepare(&self, session: u64, name: &str, sql: &str) -> Result<(), SqlError> {
        parse(sql).map_err(SqlError::Parse)?;
        let mut sessions = self.sessions.borrow_mut();
        let s = sessions.get_mut(&session).ok_or(SqlError::State("no such session".into()))?;
        s.prepared.insert(name.to_string(), sql.to_string());
        Ok(())
    }

    /// Executes a prepared statement by name, with no deadline.
    pub async fn execute_prepared(
        self: &Rc<Self>,
        session: u64,
        name: &str,
        params: Vec<crate::value::Datum>,
    ) -> Result<QueryOutput, SqlError> {
        let sql = self.sessions.borrow().get(&session).and_then(|s| s.prepared.get(name)).cloned();
        let sql =
            sql.ok_or_else(|| SqlError::State(format!("unknown prepared statement {name}")))?;
        self.execute_with_deadline(session, &sql, params, Deadline::NONE).await
    }

    /// Parses, plans and executes one statement in the given session.
    /// Every KV batch the statement issues carries `deadline`, and no
    /// statement-level retry is scheduled past it. This is how the proxy's
    /// per-statement deadline propagates into the SQL layer. Internal
    /// maintenance work (catalog refresh, index backfill, intent cleanup)
    /// stays unbounded.
    pub async fn execute_with_deadline(
        self: &Rc<Self>,
        session: u64,
        sql: &str,
        params: Vec<crate::value::Datum>,
        deadline: Deadline,
    ) -> Result<QueryOutput, SqlError> {
        if !matches!(self.state.get(), NodeState::Ready | NodeState::Draining) {
            return Err(SqlError::State(format!("node is {:?}", self.state.get())));
        }
        let stmt = parse(sql).map_err(SqlError::Parse)?;
        let span = trace::child("sql.execute");
        span.tag("session", session);
        span.tag("tenant", self.tenant);
        let run = pin!(self.execute_statement(session, stmt, params, deadline));
        let result = trace::within(&span, run).await;
        if result.is_err() {
            span.tag("error", true);
        }
        span.end();
        result
    }

    /// Runs one statement. One that meets `UnknownTable` refreshes the
    /// catalog and runs again, and an autocommit query or DML statement
    /// that fails retryably runs again at a new timestamp after a short
    /// backoff — unless the budget is spent (the error stands) or the
    /// retry would land past the caller's deadline.
    async fn execute_statement(
        self: &Rc<Self>,
        session: u64,
        stmt: Statement,
        params: Vec<crate::value::Datum>,
        deadline: Deadline,
    ) -> Result<QueryOutput, SqlError> {
        let mut attempt = 0;
        loop {
            self.queries_executed.set(self.queries_executed.get() + 1);
            // Transaction control first.
            match &stmt {
                Statement::Begin => return self.begin(session, deadline),
                Statement::Commit | Statement::Rollback => {
                    let taken =
                        self.sessions.borrow_mut().get_mut(&session).and_then(|s| s.txn.take());
                    let txn = taken.ok_or_else(|| SqlError::State("no transaction open".into()))?;
                    match stmt {
                        Statement::Commit => txn.commit().await?,
                        _ => txn.rollback()?,
                    }
                    return Ok(QueryOutput::default());
                }
                _ => {}
            }
            let planned = plan_statement(&mut self.catalog.borrow_mut(), &stmt);
            let plan = match planned {
                Ok(p) => p,
                Err(SqlError::UnknownTable(_)) if attempt == 0 => {
                    // The table may have been created by another SQL node
                    // since this node loaded its catalog: refresh the
                    // descriptors (the analogue of a descriptor-lease
                    // refresh) and plan again. A refresh that fails
                    // reports why: planning against the catalog it could
                    // not update would blame the table.
                    self.load_catalog().await?;
                    attempt = 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            // DDL runs autocommit against the catalog + descriptor storage.
            let query = match plan {
                Plan::CreateTable(desc) => {
                    let key = crdb_kv::keys::make_key(self.tenant, &desc_key(desc.id));
                    self.client.put(key, desc.encode()).await.map_err(SqlError::Kv)?;
                    self.catalog.borrow_mut().install(desc);
                    return Ok(QueryOutput::default());
                }
                Plan::CreateIndex { table, index } => {
                    return self.backfill_index(table, index).await
                }
                Plan::DropTable(desc) => return self.drop_table(desc).await,
                Plan::Analyze(desc) => return self.analyze_table(desc).await,
                Plan::Explain { lines } => {
                    // EXPLAIN never executes: it renders the chosen plan
                    // tree with estimated costs, one row per line.
                    let rows = lines.into_iter().map(|l| vec![crate::value::Datum::Str(l)]);
                    let columns = vec!["plan".to_string()];
                    return Ok(QueryOutput { columns, rows: rows.collect(), ..Default::default() });
                }
                query => query,
            };
            let open = self.sessions.borrow().get(&session).and_then(|s| s.txn.clone());
            let (txn, autocommit) = match open {
                Some(t) if t.is_pending() => (t, false),
                _ => (Txn::begin_with_deadline(&self.client, deadline), true),
            };
            let outcome = match execute(&txn, query, params.clone()).await {
                Ok(output) if autocommit => txn.commit().await.map(|()| output),
                outcome => outcome,
            };
            let e = match outcome {
                Ok(output) => return Ok(self.charge_cpu(output).await),
                Err(e) if autocommit && e.is_retryable() => e,
                Err(e) => return Err(e),
            };
            let Some(backoff) = autocommit_retry_policy().delay(attempt) else { return Err(e) };
            if !deadline.allows(self.sim.now(), backoff) {
                return Err(SqlError::Kv(KvError::DeadlineExceeded));
            }
            task::sleep(&self.sim, backoff).await;
            attempt += 1;
        }
    }

    /// `BEGIN`: opens the session's transaction.
    fn begin(&self, session: u64, deadline: Deadline) -> Result<QueryOutput, SqlError> {
        let mut sessions = self.sessions.borrow_mut();
        let s = sessions.get_mut(&session).ok_or(SqlError::State("no such session".into()))?;
        if s.txn.as_ref().is_some_and(|t| t.is_pending()) {
            return Err(SqlError::State("transaction already open".into()));
        }
        s.txn = Some(Txn::begin_with_deadline(&self.client, deadline));
        Ok(QueryOutput::default())
    }

    /// Charges SQL-layer CPU for a completed statement; its output once
    /// the CPU has done the work.
    async fn charge_cpu(&self, output: QueryOutput) -> QueryOutput {
        let stats = output.stats;
        let mut cost = self.config.cpu_per_statement
            + stats.rows_read as f64 * self.config.cpu_per_row
            + (stats.bytes_read + stats.bytes_written) as f64 * self.config.cpu_per_byte
            + stats.rows_written as f64 * self.config.cpu_per_row;
        // Rows crossing the SQL/KV process boundary pay marshalling
        // (§6.1.2): full scans hurt, point reads barely notice.
        cost += stats.bytes_read as f64 * self.config.cpu_marshal_per_byte
            + stats.rows_read as f64 * self.config.cpu_marshal_per_row;
        let span = trace::child("sql.cpu");
        self.cpu.run(self.tenant, cost).await;
        span.end();
        output
    }

    /// `CREATE INDEX`: scans the whole primary index and writes its
    /// entries and the new descriptor in one transaction, so the index is
    /// listed exactly when its entries exist.
    async fn backfill_index(
        &self,
        table: TableDescriptor,
        index: crate::schema::IndexDescriptor,
    ) -> Result<QueryOutput, SqlError> {
        let txn = Txn::begin(&self.client);
        let start = rowcodec::index_prefix(table.id, crate::schema::PRIMARY_INDEX_ID).freeze();
        let end = rowcodec::index_prefix_end(table.id, crate::schema::PRIMARY_INDEX_ID);
        let mut n = 0u64;
        for (k, v) in txn.scan(start, end, usize::MAX).await? {
            if let Some(row) = rowcodec::decode_row(&table, &k, &v) {
                let entry = rowcodec::index_entry_key(&table, index.id, &index.columns, &row);
                txn.put(entry, Bytes::new());
                n += 1;
            }
        }
        txn.put(desc_key(table.id), table.encode());
        txn.commit().await?;
        self.catalog.borrow_mut().install(table);
        Ok(QueryOutput { rows_affected: n, ..Default::default() })
    }

    /// `DROP TABLE`: deletes every key of the table (all indexes), its
    /// descriptor and its statistics in one transaction.
    async fn drop_table(&self, desc: TableDescriptor) -> Result<QueryOutput, SqlError> {
        let txn = Txn::begin(&self.client);
        let start = rowcodec::index_prefix(desc.id, 0).freeze();
        let end = rowcodec::index_prefix_end(desc.id, u32::MAX as u64);
        for (k, _) in txn.scan(start, end, usize::MAX).await? {
            txn.delete(k);
        }
        txn.delete(desc_key(desc.id));
        txn.delete(rowcodec::stats_key(desc.id));
        txn.commit().await?;
        self.catalog.borrow_mut().remove(&desc.name);
        Ok(QueryOutput::default())
    }

    /// `ANALYZE <table>`: streams the primary index in chunks through one
    /// read-only transaction, so the statistics describe one snapshot of
    /// the table: row count, average key/value bytes, and per-index
    /// distinct-prefix counts. Then persists the result under
    /// `tstat/<table_id>` and installs it in the catalog for the
    /// cost-based planner.
    async fn analyze_table(&self, table: TableDescriptor) -> Result<QueryOutput, SqlError> {
        let mut start = rowcodec::index_prefix(table.id, crate::schema::PRIMARY_INDEX_ID).freeze();
        let end = rowcodec::index_prefix_end(table.id, crate::schema::PRIMARY_INDEX_ID);
        let mut acc = AnalyzeAcc {
            row_count: 0,
            key_bytes: 0,
            value_bytes: 0,
            primary_runs: vec![0; table.primary_key.len()],
            last_key: None,
            distinct: BTreeMap::new(),
            row: Vec::new(),
        };
        // Only secondary-index columns are decoded: their prefixes are
        // re-encoded below, the primary's are cut from the key.
        let mut indexed = vec![false; table.columns.len()];
        for &c in table.indexes.iter().flat_map(|idx| &idx.columns) {
            if let Some(slot) = indexed.get_mut(c) {
                *slot = true;
            }
        }
        let snapshot = Txn::begin(&self.client);
        loop {
            let pairs = snapshot.scan(start, end.clone(), ANALYZE_CHUNK).await?;
            let a = &mut acc;
            for (k, v) in &pairs {
                if !rowcodec::decode_row_into(&table, k, v, Some(&indexed), &mut a.row) {
                    continue;
                }
                a.row_count += 1;
                a.key_bytes += k.len() as u64;
                a.value_bytes += v.len() as u64;
                let prefix_ends = rowcodec::primary_key_prefix_ends(&table, k);
                for (runs, end) in a.primary_runs.iter_mut().zip(prefix_ends) {
                    let prefix = k.get(..end);
                    if a.last_key.as_ref().is_none_or(|last| last.get(..end) != prefix) {
                        *runs += 1;
                    }
                }
                a.last_key = Some(k.clone());
                for idx in &table.indexes {
                    for plen in 1..=idx.columns.len() {
                        let datums: Vec<crate::value::Datum> = idx
                            .columns
                            .iter()
                            .take(plen)
                            .map(|&c| rowcodec::column(&a.row, c).clone())
                            .collect();
                        let prefix = rowcodec::key_with_prefix(&table, idx.id, &datums);
                        a.distinct.entry((idx.id, plen as u64)).or_default().insert(prefix);
                    }
                }
            }
            match pairs.last() {
                // Resume strictly after the last key seen.
                Some((k, _)) if pairs.len() >= ANALYZE_CHUNK => {
                    let mut next = BytesMut::with_capacity(k.len() + 1);
                    next.put_slice(k);
                    next.put_u8(0);
                    start = next.freeze();
                }
                _ => break,
            }
        }
        self.finish_analyze(table, acc).await
    }

    /// Builds, persists and installs the statistics once the scan is done.
    async fn finish_analyze(
        &self,
        table: TableDescriptor,
        a: AnalyzeAcc,
    ) -> Result<QueryOutput, SqlError> {
        let row_count = a.row_count;
        // (index, plen) keys iterate in plen order per index, so pushing
        // yields distinct counts indexed by prefix length - 1. An empty
        // table has no entry for any index, the primary included.
        let mut distinct_prefixes: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        if row_count > 0 {
            distinct_prefixes.insert(crate::schema::PRIMARY_INDEX_ID, a.primary_runs);
        }
        for ((index_id, _plen), set) in a.distinct.iter() {
            distinct_prefixes.entry(*index_id).or_default().push(set.len() as u64);
        }
        let stats = TableStatistics {
            table_id: table.id,
            row_count,
            avg_key_bytes: a.key_bytes.checked_div(row_count).unwrap_or(0),
            avg_value_bytes: a.value_bytes.checked_div(row_count).unwrap_or(0),
            distinct_prefixes,
            created_at_nanos: self.sim.now().as_nanos(),
        };
        let key = crdb_kv::keys::make_key(self.tenant, &rowcodec::stats_key(table.id));
        self.client.put(key, Bytes::from(stats.encode())).await.map_err(SqlError::Kv)?;
        self.catalog.borrow_mut().install_stats(stats);
        Ok(QueryOutput { rows_affected: row_count, ..Default::default() })
    }

    /// Serializes an idle session for migration (§4.2.4).
    pub fn serialize_session(&self, session: u64) -> Result<SessionSnapshot, SqlError> {
        let sessions = self.sessions.borrow();
        let s = sessions.get(&session).ok_or(SqlError::State("no such session".into()))?;
        SessionSnapshot::capture(
            s,
            self.tenant.raw(),
            self.sim.now().as_nanos(),
            self.revival_secret,
        )
    }

    /// Restores a migrated session; returns the new session ID.
    pub fn restore_session(&self, snapshot: &SessionSnapshot) -> Result<u64, SqlError> {
        if self.state.get() != NodeState::Ready {
            return Err(SqlError::State(format!("node is {:?}", self.state.get())));
        }
        let id = self.next_session_id.get();
        self.next_session_id.set(id + 1);
        let session = snapshot.restore(id, self.tenant.raw(), self.revival_secret)?;
        self.sessions.borrow_mut().insert(id, session);
        Ok(id)
    }

    /// Puts the node into draining: existing sessions keep working, new
    /// sessions are refused.
    pub fn drain(&self) {
        if self.state.get() == NodeState::Ready {
            self.state.set(NodeState::Draining);
        }
    }

    /// Returns a draining node to Ready — the autoscaler reuses draining
    /// nodes before pulling from the warm pool (§4.2.3). Retired nodes
    /// (rolling upgrades) are not reusable.
    pub fn set_ready_for_reuse(&self) {
        if self.state.get() == NodeState::Draining && !self.retired.get() {
            self.state.set(NodeState::Ready);
        }
    }

    /// Marks the node as retiring (rolling upgrade, §6.4): it drains and
    /// must not be reclaimed for scale-up.
    pub fn retire(&self) {
        self.retired.set(true);
        self.drain();
    }

    /// Whether the node has been retired.
    pub fn is_retired(&self) -> bool {
        self.retired.get()
    }

    /// Stops the node.
    pub fn shutdown(&self) {
        self.stop();
    }

    /// Abrupt process death (fault injection). Unlike an orderly
    /// [`SqlNode::shutdown`] nothing drains: in-memory sessions are lost
    /// on the spot, and the proxy must detect the dead backend and revive
    /// its sessions on another node from cached snapshots (§4.2.4).
    pub fn crash(&self) {
        self.stop();
    }

    /// Stops the node and its idle burn (at the first stop), and drops its
    /// sessions.
    fn stop(&self) {
        if self.stopped_at.get().is_none() {
            self.stopped_at.set(Some(self.sim.now()));
        }
        self.state.set(NodeState::Stopped);
        self.sessions.borrow_mut().clear();
    }

    /// The node's KV client (for tests and the orchestrator).
    pub fn kv_client(&self) -> &KvClient {
        &self.client
    }

    /// Read access to the catalog (for tests).
    pub fn catalog(&self) -> Rc<RefCell<Catalog>> {
        Rc::clone(&self.catalog)
    }

    /// Current time (from the shared simulation clock).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}
