//! The multi-node KV cluster: control state, tenant lifecycle, liveness
//! loops, lease management, and range splits.
//!
//! One [`KvCluster`] owns the shared control plane: the authoritative
//! range [`Directory`] (the META content), the [`Liveness`] table, the
//! certificate authority, and the set of [`KvNode`]s. Background loops
//! drive node heartbeats (through each node's *own CPU*, which is what
//! makes overloaded nodes miss them — Fig. 12), lease validity checks, and
//! size-based range splits.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use crdb_sim::task;
use crdb_sim::{Location, Sim, Topology};
use crdb_util::time::{dur, SimTime};
use crdb_util::{NodeId, RangeId, RegionId, TenantId};

use crate::auth::{CertAuthority, TenantCert};
use crate::cost::CostModel;
use crate::directory::Directory;
use crate::hlc::{Hlc, Timestamp};
use crate::keys;
use crate::liveness::{Liveness, LivenessConfig};
use crate::mvcc;
use crate::node::KvNode;
use crate::range::{Lease, Placement, RangeDescriptor, RangeState};
use crate::timing::TXN_STATUS_RETENTION;
use crate::txn::TxnStatus;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct KvClusterConfig {
    /// KV nodes per region.
    pub nodes_per_region: usize,
    /// vCPUs per KV node (paper: n2-standard-32 → 32).
    pub vcpus_per_node: f64,
    /// Replication factor (paper default r=3).
    pub replication_factor: usize,
    /// Split threshold per range.
    pub max_range_bytes: u64,
    /// Whether the nodes' admission control enforces — the "No Limits"
    /// baseline of Table 1 disables it.
    pub admission_enabled: bool,
    /// Ground-truth CPU cost model.
    pub cost_model: CostModel,
    /// Liveness timing.
    pub liveness: LivenessConfig,
    /// CPU-seconds a node spends preparing each liveness heartbeat.
    pub heartbeat_cpu: f64,
    /// Contention-overhead factor for the node CPUs (see
    /// `crdb_sim::cpu::CpuScheduler::set_contention_overhead`).
    pub cpu_contention_overhead: f64,
    /// Synthetic per-tenant system metadata written at tenant creation
    /// (the fixed storage overhead of §6.2; paper measures 195 KiB).
    pub tenant_metadata_bytes: usize,
}

impl Default for KvClusterConfig {
    fn default() -> Self {
        KvClusterConfig {
            nodes_per_region: 3,
            vcpus_per_node: 8.0,
            replication_factor: 3,
            max_range_bytes: crate::range::DEFAULT_MAX_RANGE_BYTES,
            admission_enabled: true,
            cost_model: CostModel::default(),
            liveness: LivenessConfig::default(),
            heartbeat_cpu: 1e-3,
            cpu_contention_overhead: 0.0,
            tenant_metadata_bytes: 195 * 1024,
        }
    }
}

/// Shared cluster control state.
pub struct ClusterInner {
    pub(crate) config: KvClusterConfig,
    pub(crate) nodes: BTreeMap<NodeId, Rc<KvNode>>,
    pub(crate) directory: Directory,
    pub(crate) liveness: Liveness,
    pub(crate) ca: CertAuthority,
    /// Cluster-visible transaction status cache (stand-in for reading the
    /// txn record from its anchor range; see DESIGN.md): every finalized
    /// transaction with the instant it was finalized, until
    /// `start_txn_gc` collects it. A transaction that is not here is
    /// pending, or was finalized longer ago than
    /// [`TXN_STATUS_RETENTION`]; [`ClusterInner::txn_status`] tells the
    /// two apart.
    txn_finalized: BTreeMap<u64, (TxnStatus, SimTime)>,
    pub(crate) cost_model: CostModel,
    pub(crate) topology: Rc<Topology>,
    pub(crate) hlc: Hlc,
    next_range_id: u64,
    next_txn_id: u64,
    /// Lease transfers due to liveness failures (Fig. 12 signal).
    pub lease_transfers: u64,
    /// Shared degradation counters (retries, deadlines, breakers,
    /// quorum losses) — `Rc` so nodes and clients bump them without
    /// borrowing the cluster state.
    pub(crate) degrade: Rc<DegradeCounters>,
    /// Encoded tenant-metadata row value, built once and refcount-shared
    /// by every metadata row of every tenant ever created (the rows are
    /// identical filler): creating 20K tenants must not allocate
    /// 20K × rows × replicas copies of a 4 KiB payload.
    meta_row_value: Option<Bytes>,
}

impl ClusterInner {
    /// Whether the table can have forgotten the outcome of a transaction
    /// that stamped its writes at `write_ts`. A transaction is finalized
    /// no earlier than that and remembered for [`TXN_STATUS_RETENTION`]
    /// afterwards, so until then "not in the table" means "not finalized".
    pub(crate) fn may_have_forgotten(write_ts: Timestamp, now: SimTime) -> bool {
        now.duration_since(write_ts.to_sim_time()) > TXN_STATUS_RETENTION
    }

    /// The final status of the transaction `txn_id` that stamped its
    /// writes at `write_ts`, or `None` when nothing says it was ever
    /// finalized: the table, or — once the table
    /// [may have forgotten](Self::may_have_forgotten) — the record a
    /// staged commit, an abort or a push persisted beside the data, on
    /// whichever live node holds it. Everything that acts on a
    /// transaction's outcome asks here: the replay check, the `EndTxn`
    /// guard, and a reader or writer that met one of its intents.
    pub(crate) fn txn_status(
        &self,
        txn_id: u64,
        write_ts: Timestamp,
        now: SimTime,
    ) -> Option<TxnStatus> {
        if let Some(&(status, _)) = self.txn_finalized.get(&txn_id) {
            return Some(status);
        }
        if !Self::may_have_forgotten(write_ts, now) {
            return None;
        }
        let mut live = self.nodes.values().filter(|n| n.is_alive());
        live.find_map(|n| mvcc::get_txn_record(&n.engine, txn_id)).map(|r| r.status)
    }

    /// Records that `txn_id` committed or aborted at `now`.
    pub(crate) fn finalize_txn(&mut self, txn_id: u64, status: TxnStatus, now: SimTime) {
        self.txn_finalized.insert(txn_id, (status, now));
    }

    /// Picks the replicas of a new range among the nodes live at `now`
    /// that `placement` admits: one per region first, then distinct zones
    /// (so a single zone loss never takes out two replicas of one range),
    /// then whatever is left, up to the replication factor. `home`'s nodes
    /// come first — the first replica takes the lease — and `rotation`
    /// spreads first picks over them. Empty when no live node is admitted.
    fn choose_replicas(
        &self,
        placement: Placement,
        home: Option<RegionId>,
        rotation: usize,
        now: SimTime,
    ) -> Vec<NodeId> {
        let location_of = |n: &NodeId| self.nodes.get(n).map(|node| node.location);
        let region_of = |n: &NodeId| location_of(n).map(|l| l.region);
        let mut live = self.liveness.live_nodes(now);
        live.retain(|n| region_of(n).is_some_and(|r| placement.allows(r)));
        // Home-region nodes first, preserving id order inside each group.
        if let Some(home) = home {
            live.sort_by_key(|n| region_of(n) != Some(home));
        }
        let mut replicas: Vec<NodeId> = Vec::new();
        if live.is_empty() {
            return replicas;
        }
        let factor = self.config.replication_factor;
        let regions = match placement {
            Placement::Spread => self.topology.region_count(),
            Placement::Pinned(_) => 1,
        };
        // Deterministic rotation for spread (within the home group when
        // one is set).
        let start = match home {
            Some(home) => {
                rotation % live.iter().filter(|n| region_of(n) == Some(home)).count().max(1)
            }
            None => rotation % live.len(),
        };
        for &n in live.iter().cycle().skip(start).take(live.len()) {
            let Some(location) = location_of(&n) else { continue };
            let region_covered = replicas.iter().any(|r| region_of(r) == Some(location.region));
            let zone_covered = replicas.iter().any(|r| location_of(r) == Some(location));
            if !region_covered || (replicas.len() >= regions && !zone_covered) {
                replicas.push(n);
            }
            if replicas.len() == factor {
                break;
            }
        }
        // Fill up if domain spreading didn't reach the factor.
        for &n in &live {
            if replicas.len() >= factor.min(live.len()) {
                break;
            }
            if !replicas.contains(&n) {
                replicas.push(n);
            }
        }
        replicas
    }

    /// Hands range `id`'s lease to `to` under `to`'s current epoch. Every
    /// lease move — rebalancer, liveness failover, explicit transfer —
    /// ends here; callers pick `to` among the range's replicas, which its
    /// placement chose, so a pinned range's lease stays in its region.
    fn grant_lease(&mut self, id: RangeId, to: NodeId) {
        debug_assert!(
            self.directory.get(id).is_some_and(|r| {
                r.desc.replicas.contains(&to)
                    && self.nodes.get(&to).is_some_and(|n| r.placement.allows(n.location.region))
            }),
            "lease of {id:?} granted to {to:?} outside its replicas or placement"
        );
        let epoch = self.liveness.epoch(to);
        self.directory.set_lease(id, Lease { holder: to, epoch });
        if let Some(range) = self.directory.get(id) {
            self.mark_lease_start(to, &range.desc.start, &range.desc.end);
        }
    }

    /// Starts `holder`'s lease over `[start, end)`: reads the range's
    /// earlier leaseholders served are in their timestamp caches, so the
    /// new holder counts the whole range read up to now (cluster HLC).
    /// Without that, a commit stamped before a read the old holder served
    /// could land beneath it here.
    fn mark_lease_start(&self, holder: NodeId, start: &Bytes, end: &Bytes) {
        if let Some(node) = self.nodes.get(&holder) {
            node.record_lease_start(start, end, self.hlc.now(node.sim.now()));
        }
    }
}

/// Cluster-wide degradation counters: retry, deadline, and breaker
/// activity across every client and node — and, beside them, which
/// commit protocol each transaction took — surfaced through `obs`.
#[derive(Debug, Default)]
pub struct DegradeCounters {
    /// Client-side sub-batch retries actually scheduled (routing +
    /// conflict).
    pub retries: Cell<u64>,
    /// Sub-batches a node turned away unevaluated (not the leaseholder,
    /// or a key outside the addressed range); each carried the
    /// authoritative range info the client then cached.
    pub redirects: Cell<u64>,
    /// Transactions committed in one phase: the whole write set applied
    /// by one leaseholder in one round trip.
    pub commits_one_phase: Cell<u64>,
    /// Transactions committed by the staged protocol (intents, then the
    /// transaction record, then resolution).
    pub commits_two_phase: Cell<u64>,
    /// One-phase commits that could not commit at their read timestamp —
    /// a key they write had been read above it — and so committed above
    /// that read, once their reads were validated up to there.
    pub commits_pushed: Cell<u64>,
    /// Commit-time read validations that failed on a span the transaction
    /// only read: another transaction wrote there meanwhile.
    pub refresh_conflicts_read_only: Cell<u64>,
    /// Commit-time read validations that failed on a span the transaction
    /// also writes: a read-modify-write that lost to another writer.
    pub refresh_conflicts_read_write: Cell<u64>,
    /// Transaction records persisted (once per record, not per replica):
    /// staged commits, `EndTxn` aborts and pushes. A one-phase commit
    /// lays no intents and writes none.
    pub txn_records_written: Cell<u64>,
    /// Commits that ended in [`crate::KvError::AmbiguousCommit`]: a copy
    /// refused by its leaseholder as too old to tell from a replay, or a
    /// client out of routes after a copy went unanswered.
    pub ambiguous_commits: Cell<u64>,
    /// Batches failed because their propagated deadline expired or the
    /// next retry would have landed past it.
    pub deadline_exceeded: Cell<u64>,
    /// Circuit-breaker trips (Closed/HalfOpen → Open transitions).
    pub breaker_trips: Cell<u64>,
    /// Requests failed fast by an open breaker instead of waiting out
    /// an RPC timeout.
    pub breaker_fast_fails: Cell<u64>,
    /// Requests failed fast because the target node sits across a known
    /// partition (dark zone/region) and its lease cannot move there.
    pub partition_fast_fails: Cell<u64>,
    /// Write batches rejected before execution because their range had
    /// no live replication quorum.
    pub quorum_losses: Cell<u64>,
    /// Abandoned transactions (dead coordinator, intent past
    /// [`crate::timing::TXN_ABANDON_TIMEOUT`]) aborted by a conflicting
    /// reader's push.
    pub txn_pushes: Cell<u64>,
}

impl DegradeCounters {
    /// Increments the deadline-exceeded counter.
    pub fn bump_deadline_exceeded(&self) {
        self.deadline_exceeded.set(self.deadline_exceeded.get() + 1);
    }
}

/// A handle to the KV cluster. Cheap to clone.
#[derive(Clone)]
pub struct KvCluster {
    /// The simulation this cluster runs on.
    pub sim: Sim,
    pub(crate) inner: Rc<RefCell<ClusterInner>>,
}

impl KvCluster {
    /// Builds a cluster on `sim` with `topology`, starting liveness and
    /// maintenance loops.
    pub fn new(sim: &Sim, topology: Topology, config: KvClusterConfig) -> KvCluster {
        let topology = Rc::new(topology);
        let inner = Rc::new(RefCell::new(ClusterInner {
            nodes: BTreeMap::new(),
            directory: Directory::new(),
            liveness: Liveness::new(),
            ca: CertAuthority::new(),
            txn_finalized: BTreeMap::new(),
            cost_model: config.cost_model.clone(),
            topology: Rc::clone(&topology),
            hlc: Hlc::new(),
            next_range_id: 1,
            next_txn_id: 1,
            lease_transfers: 0,
            degrade: Rc::new(DegradeCounters::default()),
            meta_row_value: None,
            config,
        }));
        let cluster = KvCluster { sim: sim.clone(), inner };

        // Create nodes region by region.
        {
            let (regions, per_region, config) = {
                let inner = cluster.inner.borrow();
                (
                    inner.topology.regions().collect::<Vec<_>>(),
                    inner.config.nodes_per_region,
                    inner.config.clone(),
                )
            };
            let mut id = 1u64;
            for region in regions {
                for i in 0..per_region {
                    let node = KvNode::new(
                        sim.clone(),
                        NodeId(id),
                        Location::new(region, (i % 3) as u32),
                        config.vcpus_per_node,
                        config.admission_enabled,
                        Rc::downgrade(&cluster.inner),
                    );
                    node.cpu.set_contention_overhead(config.cpu_contention_overhead);
                    let mut inner = cluster.inner.borrow_mut();
                    inner.liveness.register(NodeId(id), sim.now(), config.liveness.ttl);
                    inner.nodes.insert(NodeId(id), node);
                    id += 1;
                }
            }
        }

        cluster.start_heartbeats();
        cluster.start_lease_checks();
        cluster.start_split_checks();
        cluster.start_rebalancer();
        cluster.start_txn_gc();
        cluster
    }

    /// Load-based lease rebalancing (§5.1.1 mechanism (a)): on a longer
    /// time scale than admission control, leases migrate from the node
    /// holding the most to the live node holding the fewest, keeping
    /// request load spread. Operates on lease counts (a proxy for load;
    /// ranges split by size and load, so counts track bytes served).
    ///
    /// Load is balanced inside each region, never between regions: the
    /// crowded node is live, so its region has a live replica of every
    /// range it leads, and moving one of those leases abroad would
    /// un-home its tenant ("leaseholders in their primary region",
    /// §4.2.5) to even out a count.
    fn start_rebalancer(&self) {
        let cluster = self.clone();
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&cluster.sim, dur::secs(10)).await;
                cluster.rebalance_leases();
            }
        });
    }

    /// One pass of the lease rebalancer.
    fn rebalance_leases(&self) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let live = inner.liveness.live_nodes(now);
        if live.len() < 2 {
            return;
        }
        let regions: Vec<RegionId> = inner.topology.regions().collect();
        for region in regions {
            // In node-id order: ties for most/fewest leases must break
            // the same way every run for determinism.
            let counts: Vec<(NodeId, usize)> = live
                .iter()
                .filter(|n| inner.nodes.get(n).is_some_and(|n| n.location.region == region))
                .map(|&n| (n, inner.directory.lease_count(n)))
                .collect();
            let most = counts.iter().max_by_key(|&&(_, c)| c);
            let fewest = counts.iter().min_by_key(|&&(_, c)| c);
            let (Some(&(max_node, max_count)), Some(&(min_node, min_count))) = (most, fewest)
            else {
                continue;
            };
            if max_count <= min_count + 3 {
                continue;
            }
            // Move one of the crowded node's leases to the quiet node,
            // provided it holds a replica there.
            let movable = inner
                .directory
                .led_by(max_node)
                .find(|r| r.desc.replicas.contains(&min_node))
                .map(|r| r.desc.id);
            if let Some(id) = movable {
                inner.grant_lease(id, min_node);
            }
        }
    }

    /// Periodically drops finalized transaction-status entries older than
    /// [`TXN_STATUS_RETENTION`]: the map would otherwise grow with every
    /// transaction ever run.
    fn start_txn_gc(&self) {
        let cluster = self.clone();
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&cluster.sim, dur::secs(30)).await;
                let now = cluster.sim.now();
                let finalized = &mut cluster.inner.borrow_mut().txn_finalized;
                finalized.retain(|_, &mut (_, at)| now.duration_since(at) <= TXN_STATUS_RETENTION);
            }
        });
    }

    /// Starts per-node heartbeat loops. A heartbeat is a CPU task on the
    /// node itself: if the node's CPU is swamped (no admission control and
    /// noisy neighbors), the task finishes late and the node's epoch
    /// lapses — exactly the §6.6 failure mode. Each beat is a task of its
    /// own, so a late one never delays the loop's next.
    fn start_heartbeats(&self) {
        let node_ids: Vec<NodeId> = self.inner.borrow().nodes.keys().copied().collect();
        let (interval, ttl, hb_cpu) = {
            let inner = self.inner.borrow();
            (
                inner.config.liveness.heartbeat_interval,
                inner.config.liveness.ttl,
                inner.config.heartbeat_cpu,
            )
        };
        for id in node_ids {
            let cluster = self.clone();
            task::spawn(&self.sim, async move {
                loop {
                    task::sleep(&cluster.sim, interval).await;
                    // Bind before matching: the guard must not outlive this
                    // statement (the beat below re-borrows `inner`).
                    let node = cluster.inner.borrow().nodes.get(&id).map(Rc::clone);
                    let Some(node) = node else { return };
                    if !node.is_alive() {
                        continue;
                    }
                    let beat = node.cpu.run(TenantId::SYSTEM, hb_cpu);
                    let cluster = cluster.clone();
                    task::spawn(&node.sim, async move {
                        beat.await;
                        let now = cluster.sim.now();
                        cluster.inner.borrow_mut().liveness.heartbeat(id, now, ttl);
                    });
                }
            });
        }
    }

    /// Periodically validates range leases against liveness epochs and
    /// transfers invalid leases to live replicas. Only the leases of
    /// nodes that are down or came back under a new epoch since the last
    /// pass can be invalid, so only those are looked at: a pass over a
    /// healthy cluster touches no range.
    fn start_lease_checks(&self) {
        let cluster = self.clone();
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&cluster.sim, dur::secs(2)).await;
                cluster.check_leases();
            }
        });
    }

    /// One pass of the lease checks.
    fn check_leases(&self) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let suspects = inner.liveness.lease_suspects(now);
        let mut moves: Vec<(RangeId, NodeId)> = Vec::new();
        for &node in &suspects {
            for range in inner.directory.led_by(node) {
                if inner.liveness.lease_valid(node, range.lease.epoch, now) {
                    continue;
                }
                // Find a live replica to take the lease.
                let candidate =
                    range.desc.replicas.iter().find(|&&n| inner.liveness.is_live(n, now));
                if let Some(&new_holder) = candidate {
                    moves.push((range.desc.id, new_holder));
                }
            }
        }
        inner.lease_transfers += moves.len() as u64;
        for (id, new_holder) in moves {
            inner.grant_lease(id, new_holder);
        }
    }

    /// Periodically splits oversized ranges at their middle key.
    fn start_split_checks(&self) {
        let cluster = self.clone();
        task::spawn(&self.sim, async move {
            loop {
                task::sleep(&cluster.sim, dur::secs(1)).await;
                cluster.run_split_check();
            }
        });
    }

    fn run_split_check(&self) {
        let to_split: Vec<RangeId> = {
            let mut inner = self.inner.borrow_mut();
            let max_bytes = inner.config.max_range_bytes;
            inner.directory.oversize(max_bytes)
        };
        for id in to_split {
            self.split_range(id);
        }
    }

    /// Splits `range` at the median of the user keys under the first 4,096
    /// of its readable versions (no-op when there are too few distinct
    /// keys).
    pub fn split_range(&self, id: RangeId) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let (desc, size, placement, lease) = match inner.directory.get(id) {
            Some(r) => (r.desc.clone(), r.size_bytes, r.placement, r.lease),
            None => return,
        };
        let leader = match inner.nodes.get(&lease.holder) {
            Some(n) => Rc::clone(n),
            None => return,
        };
        // The median of what the leaseholder's engine holds for readers:
        // history that only awaits its compaction weighs nothing, so where
        // a range splits does not depend on when its node compacts.
        let now = Timestamp::at(self.sim.now());
        let (horizon, until) = (mvcc::gc_horizon(now), Timestamp { logical: u32::MAX, ..now });
        let (start, end) = (&desc.start, &desc.end);
        let users = mvcc::readable_user_keys(&leader.engine, start, end, horizon, until, 4096);
        if users.len() < 2 {
            return;
        }
        let Some(mid) = users.get(users.len() / 2).cloned() else { return };
        if mid.as_ref() <= desc.start.as_ref() || mid.as_ref() >= desc.end.as_ref() {
            return;
        }
        let new_id = RangeId(inner.next_range_id);
        inner.next_range_id += 1;
        // Shrink the left half in place; install the right half, which
        // stays where the whole was.
        inner.directory.truncate(id, mid.clone(), size / 2);
        let right = RangeState {
            desc: RangeDescriptor {
                id: new_id,
                start: mid,
                end: desc.end,
                replicas: desc.replicas,
            },
            placement,
            lease,
            size_bytes: size / 2,
            writes: 0,
            reads: 0,
        };
        inner.directory.insert(right);
    }

    /// Cuts the range containing `key` at `key`: the left part is
    /// untouched, and the keys from `key` on become a new range with
    /// `placement` and replicas of its own. Nothing copies data between
    /// replica sets, so the cut-off part must still be empty — this is
    /// how a keyspace is laid out before it is used, not a way to move
    /// data. Returns the new range, or `None` when nothing was cut: no
    /// such range, `key` already starts one, the part holds data, or no
    /// live node satisfies `placement`.
    pub fn split_at(&self, key: &[u8], placement: Placement) -> Option<RangeId> {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let left = inner.directory.lookup(key)?;
        let (left_id, left_size, end) = (left.desc.id, left.size_bytes, left.desc.end.clone());
        if left.desc.start.as_ref() == key {
            return None;
        }
        let until = Timestamp { logical: u32::MAX, ..Timestamp::at(now) };
        let holds_data = left
            .desc
            .replicas
            .iter()
            .filter_map(|n| inner.nodes.get(n))
            .any(|n| !mvcc::span_is_empty(&n.engine, key, &end, until));
        if holds_data {
            return None;
        }
        let rotation = keys::key_tenant(key).map_or(0, |t| t.raw() as usize);
        let replicas = inner.choose_replicas(placement, None, rotation, now);
        let holder = *replicas.first()?;
        let epoch = inner.liveness.epoch(holder);
        let id = RangeId(inner.next_range_id);
        inner.next_range_id += 1;
        let key = Bytes::copy_from_slice(key);
        inner.directory.truncate(left_id, key.clone(), left_size);
        inner.mark_lease_start(holder, &key, &end);
        let desc = RangeDescriptor { id, start: key, end, replicas };
        inner.directory.insert(RangeState::new(desc, placement, epoch));
        Some(id)
    }

    /// Creates a tenant: issues its certificate, allocates its first range
    /// (spanning its whole keyspace segment — no two tenants ever share a
    /// range), and writes its fixed system metadata.
    pub fn create_tenant(&self, tenant: TenantId) -> TenantCert {
        self.create_tenant_homed(tenant, None)
    }

    /// Like [`KvCluster::create_tenant`], preferring a leaseholder (first
    /// replica) in `home` — multi-region tenants keep their data
    /// leaseholders in their primary region (§4.2.5).
    pub fn create_tenant_homed(&self, tenant: TenantId, home: Option<RegionId>) -> TenantCert {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let cert = inner.ca.issue(tenant);
        let replicas = inner.choose_replicas(Placement::Spread, home, tenant.raw() as usize, now);
        #[expect(clippy::panic, reason = "a cluster with no live node cannot hold a tenant")]
        let Some(&holder) = replicas.first() else {
            panic!("no live nodes to place tenant")
        };
        let id = RangeId(inner.next_range_id);
        inner.next_range_id += 1;
        let epoch = inner.liveness.epoch(holder);
        let desc = RangeDescriptor {
            id,
            start: keys::tenant_span_start(tenant),
            end: keys::tenant_span_end(tenant),
            replicas: replicas.clone(),
        };
        let mut state = RangeState::new(desc, Placement::Spread, epoch);

        // Fixed per-tenant system metadata (settings, descriptors, users…):
        // ingested straight into the replica engines as one table — tenant
        // creation is a control-plane operation by the system tenant. The
        // table is built once per tenant: its keys are slices of one
        // buffer, its rows share one payload (cached across creations) and
        // every replica's engine shares its entries. It takes no WAL
        // record, memtable entry, flush or compaction: the keys are
        // write-once and the recovery story is re-running creation.
        let row_bytes = 4096;
        let rows = inner.config.tenant_metadata_bytes / row_bytes;
        if rows > 0 {
            let value = inner.meta_row_value.get_or_insert_with(|| {
                mvcc::encode_version_value(Some(&Bytes::from(vec![0x5a; row_bytes - 32])))
            });
            let user_keys: Vec<Bytes> = (0..rows)
                .map(|i| keys::make_key(tenant, format!("system/meta/{i:04}").as_bytes()))
                .collect();
            let table = mvcc::version_table(&user_keys, Timestamp::at(now), value);
            state.size_bytes += (rows * row_bytes) as u64;
            for n in &replicas {
                if let Some(node) = inner.nodes.get(n) {
                    mvcc::ingest_versions(&node.engine, &table);
                    // A table landing in L0 may make a compaction due, and
                    // a refused one was written through the WAL instead.
                    node.settle_write();
                }
            }
        }
        inner.directory.insert(state);
        cert
    }

    /// Allocates a transaction ID. Nothing is recorded until the
    /// transaction is finalized: most never write, and one that sends
    /// nothing more (read-only commit, client-side rollback) would leave
    /// its entry behind forever.
    pub fn begin_txn(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_txn_id;
        inner.next_txn_id += 1;
        id
    }

    /// A fresh HLC read timestamp.
    pub fn now_ts(&self) -> Timestamp {
        let now = self.sim.now();
        self.inner.borrow().hlc.now(now)
    }

    /// Node IDs in the cluster.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.inner.borrow().nodes.keys().copied().collect()
    }

    /// A node handle.
    pub fn node(&self, id: NodeId) -> Option<Rc<KvNode>> {
        self.inner.borrow().nodes.get(&id).map(Rc::clone)
    }

    /// The location of a node.
    pub fn node_location(&self, id: NodeId) -> Option<Location> {
        self.inner.borrow().nodes.get(&id).map(|n| n.location)
    }

    /// The nearest live *reachable* node to `loc` (for META follower
    /// reads) — a node across an active partition cannot answer.
    pub fn nearest_node(&self, loc: Location) -> Option<Rc<KvNode>> {
        let inner = self.inner.borrow();
        let now = self.sim.now();
        inner
            .nodes
            .values()
            .filter(|n| {
                n.is_alive()
                    && inner.liveness.is_live(n.id, now)
                    && inner.topology.is_reachable(loc, n.location)
            })
            .min_by_key(|n| inner.topology.base_latency(loc, n.location))
            .map(Rc::clone)
    }

    /// Number of range leases held by `node` (Fig. 12 series).
    pub fn lease_count(&self, node: NodeId) -> usize {
        self.inner.borrow().directory.lease_count(node)
    }

    /// Total ranges.
    pub fn range_count(&self) -> usize {
        self.inner.borrow().directory.len()
    }

    /// Ranges pinned to one region.
    pub fn pinned_range_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.directory.iter().filter(|r| r.placement != Placement::Spread).count()
    }

    /// Ranges owned by a tenant.
    pub fn tenant_range_count(&self, tenant: TenantId) -> usize {
        self.inner.borrow().directory.iter().filter(|r| r.desc.tenant() == Some(tenant)).count()
    }

    /// Cumulative lease transfers caused by liveness failures.
    pub fn lease_transfers(&self) -> u64 {
        self.inner.borrow().lease_transfers
    }

    /// Liveness epoch bumps (nodes that missed heartbeats).
    pub fn epoch_bumps(&self) -> u64 {
        self.inner.borrow().liveness.epoch_bumps
    }

    /// The cluster topology.
    pub fn topology(&self) -> Rc<Topology> {
        Rc::clone(&self.inner.borrow().topology)
    }

    /// Shared degradation counters (retries, deadlines, breakers).
    pub fn degrade(&self) -> Rc<DegradeCounters> {
        Rc::clone(&self.inner.borrow().degrade)
    }

    /// Node IDs located in `region`, in id order.
    pub fn nodes_in_region(&self, region: RegionId) -> Vec<NodeId> {
        let inner = self.inner.borrow();
        inner.nodes.iter().filter(|(_, n)| n.location.region == region).map(|(&id, _)| id).collect()
    }

    /// Node IDs located in `region`'s zone `zone`, in id order.
    pub fn nodes_in_zone(&self, region: RegionId, zone: u32) -> Vec<NodeId> {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .filter(|(_, n)| n.location.region == region && n.location.zone == zone)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Approximate control-plane memory attributable to ranges and
    /// directory entries — the measurable share of per-tenant overhead in
    /// the Fig. 7a experiment.
    pub fn control_memory_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .directory
            .iter()
            .map(|r| {
                // Descriptor keys + replica vector + lease + btree overhead.
                r.desc.start.len() + r.desc.end.len() + r.desc.replicas.len() * 8 + 160
            })
            .sum()
    }

    /// Total bytes stored across all node engines.
    pub fn storage_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        inner.nodes.values().map(|n| n.engine.with_lsm(|l| l.total_bytes())).sum()
    }

    /// The ground-truth cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.inner.borrow().cost_model.clone()
    }

    /// Marks a node dead or alive (failure injection).
    pub fn set_node_alive(&self, id: NodeId, alive: bool) {
        // Bind before branching so the cluster-state guard is not held
        // while node state flips (which can fire liveness callbacks).
        let node = self.inner.borrow().nodes.get(&id).map(Rc::clone);
        if let Some(n) = node {
            n.set_alive(alive);
        }
    }

    /// Moves the lease of the range containing `key` to `to`, as the
    /// rebalancer would. Refused (`false`) unless `to` is live and holds a
    /// replica of the range.
    pub fn transfer_lease(&self, key: &[u8], to: NodeId) -> bool {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        if !inner.liveness.is_live(to, now) {
            return false;
        }
        match inner.directory.lookup(key) {
            Some(range) if range.desc.replicas.contains(&to) => {
                let id = range.desc.id;
                inner.grant_lease(id, to);
                true
            }
            _ => false,
        }
    }

    /// The current leaseholder of the range containing `key` (ground
    /// truth from the directory — used by tests and fault injection to
    /// pick victims).
    pub fn leaseholder_of(&self, key: &[u8]) -> Option<NodeId> {
        self.inner.borrow().directory.lookup(key).map(|r| r.lease.holder)
    }

    /// A copy of every range's state (ground truth from the directory).
    pub fn ranges(&self) -> Vec<RangeState> {
        self.inner.borrow().directory.iter().cloned().collect()
    }

    /// A copy of the state of the range containing `key` (ground truth
    /// from the directory: bounds, replicas, placement, lease).
    pub fn range_of(&self, key: &[u8]) -> Option<RangeState> {
        self.inner.borrow().directory.lookup(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> (Sim, KvCluster) {
        let sim = Sim::new(42);
        let c = KvCluster::new(
            &sim,
            Topology::single_region("us-east1", 3),
            KvClusterConfig { nodes_per_region: 3, ..Default::default() },
        );
        (sim, c)
    }

    #[test]
    fn nodes_created_and_live() {
        let (sim, c) = cluster();
        assert_eq!(c.node_ids().len(), 3);
        sim.run_for(dur::secs(30));
        // Heartbeats keep all nodes live with no load.
        let inner = c.inner.borrow();
        assert_eq!(inner.liveness.live_nodes(sim.now()).len(), 3);
        assert_eq!(inner.liveness.epoch_bumps, 0);
    }

    #[test]
    fn tenant_creation_allocates_disjoint_ranges() {
        let (_sim, c) = cluster();
        c.create_tenant(TenantId(2));
        c.create_tenant(TenantId(3));
        assert_eq!(c.range_count(), 2);
        assert_eq!(c.tenant_range_count(TenantId(2)), 1);
        assert_eq!(c.tenant_range_count(TenantId(3)), 1);
        // Every range belongs to exactly one tenant.
        let inner = c.inner.borrow();
        for r in inner.directory.iter() {
            assert!(r.desc.tenant().is_some(), "range spans one tenant");
        }
    }

    /// The metadata keys of `tenant`.
    fn meta_keys(tenant: TenantId) -> Vec<Bytes> {
        (0..48).map(|i| keys::make_key(tenant, format!("system/meta/{i:04}").as_bytes())).collect()
    }

    /// Whether every replica reads every metadata row of `tenant`.
    fn every_replica_reads_metadata(c: &KvCluster, tenant: TenantId) -> bool {
        let ts = c.now_ts();
        c.node_ids().iter().filter_map(|&n| c.node(n)).all(|node| {
            meta_keys(tenant).iter().all(|key| {
                matches!(
                    mvcc::get(&node.engine, key, ts, None),
                    mvcc::ReadResult::Value(Some(v)) if v.len() == 4096 - 32
                )
            })
        })
    }

    #[test]
    fn tenant_metadata_written_to_replicas() {
        let (_sim, c) = cluster();
        for t in 2..5 {
            c.create_tenant(TenantId(t));
        }
        for t in 2..5 {
            assert!(every_replica_reads_metadata(&c, TenantId(t)), "tenant {t}");
        }
        // What the same rows cost written, then flushed: per tenant and
        // replica, ingestion stores exactly that.
        let written = crdb_storage::Engine::new(crdb_storage::LsmConfig::default());
        let mut batch = crdb_storage::WriteBatch::new();
        let value = mvcc::encode_version_value(Some(&Bytes::from(vec![0x5a; 4096 - 32])));
        for entry in mvcc::version_table(&meta_keys(TenantId(2)), c.now_ts(), &value).entries() {
            batch.put(entry.key().clone(), entry.value().cloned().unwrap_or_default());
        }
        written.apply(&batch);
        written.with_lsm(|lsm| {
            lsm.freeze_active();
            let job = lsm.begin_flush().expect("a frozen memtable");
            lsm.finish_flush(job);
        });
        let flushed = written.with_lsm(|lsm| lsm.total_bytes());
        assert!(flushed > 195 * 1024 - 4096, "{flushed}");
        assert_eq!(c.storage_bytes(), 3 * 3 * flushed, "3 tenants on 3 replicas");
        for n in c.node_ids() {
            let m = c.node(n).expect("listed node").engine.metrics();
            assert_eq!((m.ingest_tables, m.wal_batches, m.flush_count), (3, 0, 0));
            assert_eq!(m.ingest_bytes, 3 * flushed as u64);
        }
    }

    #[test]
    fn a_replica_whose_memtable_overlaps_the_metadata_takes_it_as_a_write() {
        let (_sim, c) = cluster();
        let tenant = TenantId(9);
        let inside = keys::make_key(tenant, b"system/meta/0001x");
        let early = Bytes::from_static(b"early");
        let overlapped = c.node_ids()[0];
        let node = c.node(overlapped).expect("listed node");
        mvcc::put_version(&node.engine, &inside, c.now_ts(), Some(&early));
        c.create_tenant(tenant);
        assert!(every_replica_reads_metadata(&c, tenant));
        assert_eq!(
            mvcc::get(&node.engine, &inside, c.now_ts(), None),
            mvcc::ReadResult::Value(Some(early))
        );
        for n in c.node_ids() {
            let m = c.node(n).expect("listed node").engine.metrics();
            assert_eq!(m.ingest_tables, u64::from(n != overlapped), "{n:?}");
        }
    }

    #[test]
    fn dead_node_loses_lease() {
        let (sim, c) = cluster();
        c.create_tenant(TenantId(2));
        let holder = {
            let inner = c.inner.borrow();
            let h = inner.directory.iter().next().unwrap().lease.holder;
            h
        };
        // Stop the holder's heartbeats.
        c.set_node_alive(holder, false);
        sim.run_for(dur::secs(30));
        let new_holder = {
            let inner = c.inner.borrow();
            let h = inner.directory.iter().next().unwrap().lease.holder;
            h
        };
        assert_ne!(new_holder, holder, "lease moved off the dead node");
        assert!(c.lease_transfers() >= 1);
    }

    #[test]
    fn rebalancer_spreads_leases_after_recovery() {
        let (sim, c) = cluster();
        for t in 2..=12u64 {
            c.create_tenant(TenantId(t));
        }
        // Kill two nodes: all leases pile onto the survivor.
        c.set_node_alive(NodeId(1), false);
        c.set_node_alive(NodeId(2), false);
        sim.run_for(dur::secs(30));
        assert!(c.lease_count(NodeId(3)) >= 10, "survivor holds the leases");
        // Revive them: the rebalancer spreads leases back out.
        c.set_node_alive(NodeId(1), true);
        c.set_node_alive(NodeId(2), true);
        sim.run_for(dur::secs(300));
        let counts = [c.lease_count(NodeId(1)), c.lease_count(NodeId(2)), c.lease_count(NodeId(3))];
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 4, "leases rebalanced: {counts:?}");
        assert!(min >= 1, "every node serves some leases: {counts:?}");
    }

    #[test]
    fn rebalancer_keeps_leases_in_their_region() {
        // Uneven load: every tenant homed in region 0, so its three nodes
        // lead four ranges each and the other six lead none, while each
        // of those six holds replicas it could be handed the lease of.
        let sim = Sim::new(42);
        let c = KvCluster::new(&sim, Topology::three_region(), KvClusterConfig::default());
        for t in 2..14u64 {
            c.create_tenant_homed(TenantId(t), Some(RegionId(0)));
        }
        let home_nodes = c.nodes_in_region(RegionId(0));
        sim.run_for(dur::secs(300));
        let led: usize = home_nodes.iter().map(|&n| c.lease_count(n)).sum();
        assert_eq!(led, 12, "evening out the count must not un-home a tenant");
    }

    #[test]
    fn txn_ids_unique() {
        let (_sim, c) = cluster();
        let a = c.begin_txn();
        let b = c.begin_txn();
        assert_ne!(a, b);
        let status = c.inner.borrow().txn_status(a, c.now_ts(), c.sim.now());
        assert_eq!(status, None, "not finalized: reads as pending");
    }

    #[test]
    fn txn_table_holds_only_finalized_transactions_until_gc() {
        use crate::batch::{BatchRequest, KvError, RequestKind};
        use crate::client::{make_txn_meta, KvClient};
        use crdb_util::Deadline;

        let (sim, c) = cluster();
        let tenant = TenantId(2);
        let client =
            KvClient::new(c.clone(), c.create_tenant(tenant), Location::new(RegionId(0), 0));
        let key = crate::keys::make_key(tenant, b"k");
        let acked = Rc::new(Cell::new(0));
        let send = |batch: BatchRequest| {
            let (acked, client) = (Rc::clone(&acked), client.clone());
            crdb_sim::task::spawn(&sim, async move {
                let resp = client.send(batch).await;
                assert!(resp.is_ok(), "{:?}", resp.error);
                acked.set(acked.get() + 1);
            });
        };
        let batch = |txn: &crate::txn::TxnMeta, requests| BatchRequest {
            tenant,
            txn: txn.clone(),
            deadline: Deadline::NONE,
            requests,
        };
        // What `sql::coord` sends for an autocommit SELECT is one read
        // batch and no `EndTxn` (a read-only commit is local); for a
        // transaction rolled back before commit, nothing at all (writes
        // are buffered). Each used to leave a `Pending` entry for good.
        for _ in 0..50 {
            let select = make_txn_meta(&c, key.clone());
            send(batch(&select, vec![RequestKind::Get { key: key.clone() }]));
            let _rolled_back = make_txn_meta(&c, key.clone());
        }
        sim.run_for(dur::secs(2));
        assert_eq!(acked.get(), 50);
        assert_eq!(c.inner.borrow().txn_finalized.len(), 0);

        // A committed transaction is in the table for as long as its
        // client can still be sending the commit again, and then goes.
        let txn = make_txn_meta(&c, key.clone());
        let write = RequestKind::WriteIntent { key: key.clone(), value: Some(key.clone()) };
        let commit = batch(&txn, vec![write, RequestKind::EndTxn { commit: true }]);
        send(commit.clone());
        sim.run_for(dur::secs(2));
        assert_eq!(acked.get(), 51);
        let status = c.inner.borrow().txn_status(txn.txn_id, txn.write_ts, sim.now());
        assert!(matches!(status, Some(TxnStatus::Committed(_))), "{status:?}");
        assert_eq!(c.inner.borrow().txn_finalized.len(), 1);
        assert_eq!(c.degrade().commits_one_phase.get(), 1);
        sim.run_for(TXN_STATUS_RETENTION - dur::secs(5));
        assert_eq!(c.inner.borrow().txn_finalized.len(), 1, "kept for the whole re-send window");
        sim.run_for(dur::secs(5 + 30));
        assert_eq!(c.inner.borrow().txn_finalized.len(), 0, "collected past the GC horizon");

        // A one-phase commit left no record either, so nothing can tell a
        // replay that late from a first delivery. It is refused as
        // ambiguous — not evaluated again (which would fail on the
        // transaction's own version, or succeed and apply it twice) and
        // not reported aborted (which SQL would answer by re-running a
        // transaction that did commit).
        let leader = c.node(c.leaseholder_of(&key).unwrap()).unwrap();
        let wal_batches = leader.engine.metrics().wal_batches;
        let refused = Rc::new(RefCell::new(None));
        let r = Rc::clone(&refused);
        crdb_sim::task::spawn(&sim, async move {
            *r.borrow_mut() = Some(client.send(commit).await.error);
        });
        sim.run_for(dur::secs(2));
        assert_eq!(*refused.borrow(), Some(Some(KvError::AmbiguousCommit)));
        assert_eq!(c.degrade().ambiguous_commits.get(), 1);
        assert_eq!(c.degrade().commits_one_phase.get(), 1, "not applied again");
        assert_eq!(c.degrade().txn_records_written.get(), 0);
        assert_eq!(c.inner.borrow().txn_finalized.len(), 0);
        assert_eq!(leader.engine.metrics().wal_batches, wal_batches, "nothing was written");
        let stored = mvcc::get(&leader.engine, &key, c.now_ts(), None);
        assert_eq!(stored, mvcc::ReadResult::Value(Some(key)), "the value is there, once");
    }

    #[test]
    fn timestamps_monotonic() {
        let (sim, c) = cluster();
        let a = c.now_ts();
        let b = c.now_ts();
        assert!(b > a);
        sim.run_for(dur::ms(10));
        let c2 = c.now_ts();
        assert!(c2 > b);
    }
}
