//! What the chaos and disaster soaks share: one tenant's TPC-C-lite
//! workload, and the three invariants both soaks check: durability and
//! isolation per tenant afterwards, replica equality throughout.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::ServerlessCluster;
use crdb_kv::timing::GC_WINDOW;
use crdb_sim::Sim;
use crdb_sql::value::Row;
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::{Driver, DriverConfig, SqlExecutor};
use crdb_workload::executors::load_tenant;
use crdb_workload::tpcc;

use crate::exec_one;

#[path = "../../../tests/support/replica_oracle.rs"]
mod replica_oracle;

/// One tenant's workload plus the bookkeeping its invariants need.
pub(crate) struct TenantRun {
    pub tag: &'static str,
    /// The tenant's first (home) region.
    pub home: Option<RegionId>,
    pub tenant: TenantId,
    pub executor: Rc<dyn SqlExecutor>,
    pub driver: Rc<Driver>,
    initial_orders: Result<i64, String>,
}

impl TenantRun {
    /// Creates tenant `tag` in `regions`, loads soak-scale TPC-C-lite and
    /// the tenant's `secrets` marker row, and builds (without starting)
    /// its closed-loop driver.
    pub(crate) fn load(
        sim: &Sim,
        cluster: &Rc<ServerlessCluster>,
        tag: &'static str,
        regions: Vec<RegionId>,
        workers: usize,
        think_time: Duration,
        seed: u64,
    ) -> TenantRun {
        let cfg = tpcc::TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 20,
            order_lines: 3,
        };
        let home = regions.first().copied();
        let mut data = tpcc::load_statements(&cfg);
        data.push("CREATE TABLE secrets (id INT PRIMARY KEY, v STRING)".to_string());
        data.push(format!("INSERT INTO secrets VALUES (1, 'tenant-{tag}')"));
        let (tenant, executor) = load_tenant(sim, cluster, regions, None, &tpcc::schema(), &data);
        let initial_orders = count_orders(sim, &executor);
        let driver = Driver::new(
            sim,
            Rc::clone(&executor),
            DriverConfig { workers, think_time: Some(think_time), max_retries: 30 },
            tpcc::mix_factory(cfg, seed),
        );
        TenantRun { tag, home, tenant, executor, driver, initial_orders }
    }

    /// Durability — every acknowledged New-Order commit is readable (`≥`:
    /// a commit whose acknowledgment was lost may be retried and land
    /// twice; losing an *acked* commit is the violation) — and isolation —
    /// `secrets` holds exactly this tenant's marker row. Both run through
    /// the executor that lived through the faults.
    fn check_invariants(&self, sim: &Sim, violations: &mut Vec<String>) {
        let committed_orders =
            self.driver.stats.by_label.borrow().get("new_order").copied().unwrap_or(0) as i64;
        match (self.initial_orders.as_ref(), count_orders(sim, &self.executor).as_ref()) {
            (Ok(&initial), Ok(&final_orders)) if final_orders < initial + committed_orders => {
                violations.push(format!(
                    "tenant {}: acknowledged commits lost: {} orders on disk < {} initial + {} committed",
                    self.tag, final_orders, initial, committed_orders
                ));
            }
            (Ok(_), Ok(_)) => {}
            (Err(e), _) | (_, Err(e)) => violations.push(format!("tenant {}: {e}", self.tag)),
        }
        let expect = format!("tenant-{}", self.tag);
        match exec_one(sim, &self.executor, "SELECT v FROM secrets ORDER BY id", vec![]) {
            Ok(secrets) => {
                let ours = |row: &Row| row.first().is_some_and(|v| v.to_string() == expect);
                if !matches!(secrets.rows.as_slice(), [row] if ours(row)) {
                    violations.push(format!(
                        "tenant {}: cross-tenant leak: secrets = {:?}, expected [[{expect}]]",
                        self.tag, secrets.rows
                    ));
                }
            }
            Err(e) => violations.push(format!("tenant {}: {e}", self.tag)),
        }
    }
}

/// Replica equality, watched from now on: the replicas of every range of
/// `cluster` are compared (`tests/support/replica_oracle.rs`) twice per GC
/// window until they first differ. That often because collected history
/// is evidence lost — a version one follower never got looks, once a
/// newer one covers it, like a version its GC took — and nothing written
/// less than a window ago can have been collected.
pub(crate) fn watch_replicas(sim: &Sim, cluster: &ServerlessCluster) -> Rc<RefCell<Vec<String>>> {
    let diverged = Rc::new(RefCell::new(Vec::new()));
    let (kv, found) = (cluster.kv.clone(), Rc::clone(&diverged));
    sim.schedule_periodic(GC_WINDOW / 2, move || {
        found.borrow_mut().extend(replica_oracle::divergences(&kv));
        found.borrow().is_empty()
    });
    diverged
}

/// The soaks' invariants: durability and isolation of every tenant
/// ([`TenantRun::check_invariants`]), and no replica divergence — none
/// that [`watch_replicas`] saw, none now.
pub(crate) fn check_invariants(
    sim: &Sim,
    cluster: &ServerlessCluster,
    runs: &[TenantRun],
    watched: &RefCell<Vec<String>>,
    violations: &mut Vec<String>,
) {
    for run in runs {
        run.check_invariants(sim, violations);
    }
    let mut diverged = watched.take();
    if diverged.is_empty() {
        diverged = replica_oracle::divergences(&cluster.kv);
    }
    violations.extend(diverged.into_iter().map(|d| format!("replicas diverged: {d}")));
}

fn count_orders(sim: &Sim, ex: &Rc<dyn SqlExecutor>) -> Result<i64, String> {
    let out = exec_one(sim, ex, "SELECT COUNT(*) FROM orders", vec![])?;
    match out.rows.as_slice() {
        [row] => row.first().and_then(|v| v.as_i64()),
        _ => None,
    }
    .ok_or_else(|| format!("SELECT COUNT(*) FROM orders returned {:?}", out.rows))
}
