//! The "Traditional" (Dedicated) deployment baseline (§6.1).
//!
//! "The traditional cluster has a single KV+SQL CRDB process on each VM."
//! One tenant owns the whole cluster; each SQL engine is fused with its
//! KV process, so rows pay no inter-process marshalling
//! (`cpu_marshal_per_byte` and `cpu_marshal_per_row` are zero), and there
//! is no proxy and no autoscaler. This is the
//! baseline for the efficiency comparison (Fig. 6) and the "actual CPU"
//! reference for the estimated-CPU accuracy experiment (Fig. 11).

use std::rc::Rc;

use crdb_kv::client::KvClient;
use crdb_kv::cluster::{KvCluster, KvClusterConfig};
use crdb_sim::{task, Sim, Topology};
use crdb_sql::node::{NodeState, SqlNode, SqlNodeConfig};
use crdb_sql::system_db::SystemDatabase;
use crdb_util::time::dur;
use crdb_util::{RegionId, SqlInstanceId, TenantId};

/// A dedicated single-tenant cluster: one fused SQL+KV process per VM.
pub struct DedicatedCluster {
    /// The simulation.
    pub sim: Sim,
    /// The KV substrate (same machines).
    pub kv: KvCluster,
    /// One SQL engine per VM, co-located with its KV node.
    pub sql_nodes: Vec<Rc<SqlNode>>,
    /// The single tenant.
    pub tenant: TenantId,
}

impl DedicatedCluster {
    /// Builds a dedicated cluster and runs the simulation until every SQL
    /// engine is ready.
    pub fn new(
        sim: &Sim,
        topology: Topology,
        kv_config: KvClusterConfig,
        mut sql_config: SqlNodeConfig,
    ) -> Rc<DedicatedCluster> {
        sql_config.cpu_marshal_per_byte = 0.0;
        sql_config.cpu_marshal_per_row = 0.0;
        let kv = KvCluster::new(sim, topology, kv_config);
        let tenant = TenantId::FIRST_APP;
        let cert = kv.create_tenant(tenant);
        let system_db = SystemDatabase::optimized(RegionId(0), vec![RegionId(0)]);

        let mut sql_nodes = Vec::new();
        for (i, kv_node_id) in kv.node_ids().into_iter().enumerate() {
            let Some(location) = kv.node_location(kv_node_id) else { continue };
            let client = KvClient::new(kv.clone(), cert.clone(), location);
            let mut cfg = sql_config.clone();
            cfg.location = location;
            let node = SqlNode::new(sim, SqlInstanceId(i as u64 + 1), client, cfg);
            let (starting, system_db) = (Rc::clone(&node), system_db.clone());
            task::spawn(sim, async move { starting.start(&system_db).await });
            sql_nodes.push(node);
        }
        sim.run_for(dur::secs(10));
        for node in &sql_nodes {
            assert_eq!(node.state(), NodeState::Ready, "dedicated SQL engine ready");
        }
        Rc::new(DedicatedCluster { sim: sim.clone(), kv, sql_nodes, tenant })
    }

    /// Total CPU-seconds consumed across the cluster (SQL engines + KV
    /// nodes) — the "actual CPU" of Fig. 11.
    pub fn total_cpu_seconds(&self) -> f64 {
        let sql: f64 = self.sql_nodes.iter().map(|n| n.sql_cpu_seconds()).sum();
        let kv: f64 = self
            .kv
            .node_ids()
            .into_iter()
            .filter_map(|id| self.kv.node(id))
            .map(|n| n.cpu.cumulative_usage_total())
            .sum();
        sql + kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_sql::exec::QueryOutput;
    use crdb_sql::value::Datum;
    use crdb_util::Deadline;
    use std::cell::RefCell;

    /// Runs `sql` on `node` as a task to completion and returns its output
    /// and the SQL CPU-seconds it cost.
    fn run(sim: &Sim, node: &Rc<SqlNode>, session: u64, sql: &str) -> (QueryOutput, f64) {
        let before = node.sql_cpu_seconds();
        let out = Rc::new(RefCell::new(None));
        let (o, n, text) = (Rc::clone(&out), Rc::clone(node), sql.to_string());
        task::spawn(sim, async move {
            let r = n.execute_with_deadline(session, &text, vec![], Deadline::NONE).await;
            *o.borrow_mut() = Some(r.unwrap_or_else(|e| panic!("{text}: {e}")));
        });
        sim.run_for(dur::secs(5));
        let output = out.borrow_mut().take().expect("statement finished");
        (output, node.sql_cpu_seconds() - before)
    }

    #[test]
    fn dedicated_cluster_serves_sql() {
        let sim = Sim::new(7);
        let cluster = DedicatedCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig::default(),
            SqlNodeConfig::default(),
        );
        assert_eq!(cluster.sql_nodes.len(), 3);
        let vm = |i: usize| {
            let node = &cluster.sql_nodes[i];
            (node, node.open_session("root").expect("session"))
        };
        let ((first, s0), (second, s1)) = (vm(0), vm(1));
        run(&sim, first, s0, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
        run(&sim, first, s0, "INSERT INTO t VALUES (1, 10)");
        // A different VM's engine sees the same data.
        let (out, _) = run(&sim, second, s1, "SELECT v FROM t WHERE id = 1");
        assert_eq!(out.rows[0][0], Datum::Int(10));
        assert!(cluster.total_cpu_seconds() > 0.0);
    }

    #[test]
    fn dedicated_engines_skip_the_marshalling_term() {
        let sim = Sim::new(8);
        let sql = SqlNodeConfig { idle_cpu_per_second: 0.0, ..Default::default() };
        let cluster = DedicatedCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig::default(),
            sql.clone(),
        );
        let dedicated = Rc::clone(&cluster.sql_nodes[0]);
        let dedicated_session = dedicated.open_session("root").expect("session");
        // A serverless-configured SQL node in its own process, serving a
        // second tenant of the same KV cluster.
        let client = KvClient::new(
            cluster.kv.clone(),
            cluster.kv.create_tenant(TenantId(3)),
            dedicated.kv_client().location(),
        );
        let serverless = SqlNode::new(&sim, SqlInstanceId(100), client, sql.clone());
        let starting = Rc::clone(&serverless);
        task::spawn(&sim, async move {
            starting.start(&SystemDatabase::optimized(RegionId(0), vec![RegionId(0)])).await
        });
        sim.run_for(dur::secs(10));
        let serverless_session = serverless.open_session("root").expect("session");

        let mut scans = Vec::new();
        for (node, session) in [(&dedicated, dedicated_session), (&serverless, serverless_session)]
        {
            run(&sim, node, session, "CREATE TABLE t (id INT PRIMARY KEY, v STRING)");
            run(&sim, node, session, "INSERT INTO t VALUES (1, 'a'), (2, 'bb'), (3, 'ccc')");
            scans.push(run(&sim, node, session, "SELECT * FROM t"));
        }
        let ((fused, fused_cpu), (split, split_cpu)) = (&scans[0], &scans[1]);
        assert_eq!(fused.rows, split.rows);
        let read = |o: &QueryOutput| (o.stats.rows_read, o.stats.bytes_read);
        assert_eq!(read(fused), read(split), "the same scan reads the same rows and bytes");
        let marshal = split.stats.bytes_read as f64 * sql.cpu_marshal_per_byte
            + split.stats.rows_read as f64 * sql.cpu_marshal_per_row;
        assert!(marshal > 0.0, "the scan crosses the process boundary");
        assert!(
            (split_cpu - fused_cpu - marshal).abs() < 1e-12,
            "serverless pays exactly the marshalling term: {split_cpu} - {fused_cpu} vs {marshal}"
        );
    }
}
