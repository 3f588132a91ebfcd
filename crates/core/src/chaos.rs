//! The chaos controller: translates the layer-agnostic fault events of
//! [`crdb_sim::fault`] into concrete actions against a live
//! [`ServerlessCluster`].
//!
//! Each fault class exercises a different failover path end to end:
//!
//! - **KV node crash/restart** — the node stops heartbeating; liveness
//!   expires its epoch, the lease-check loop transfers its leases, and
//!   clients reroute after bounded retries.
//! - **SQL pod crash** — in-memory sessions die; the proxy detects the
//!   dead backend and revives sessions on another node from cached
//!   serialized-session snapshots (§4.2.4), while the autoscaler prunes
//!   the corpse and backfills capacity.
//! - **Pod start failure** — the warm pool burns the pod and retries
//!   with a fresh one after a capped exponential backoff (§4.3.1).
//! - **Inter-region partition** — cross-partition messages drop; the KV
//!   client fails fast with a typed `Unavailable` instead of hanging.
//! - **Latency spike** — every network hop is multiplied; nothing
//!   should break, only slow down.
//!
//! Victim selection is fully deterministic (sorted candidate lists +
//! the event's own selector), so the injector's event log — injections
//! *and* reactions — is byte-identical across same-seed runs.

use std::rc::Rc;

use crdb_sim::fault::{FaultInjector, FaultKind, FaultSchedule};
use crdb_sim::Location;
use crdb_sql::node::{NodeState, SqlNode};
use crdb_util::{RegionId, TenantId};

use crate::ServerlessCluster;

/// Installs a fault schedule against `cluster`, returning the injector
/// for its event log and counters.
pub fn install_chaos(
    cluster: &Rc<ServerlessCluster>,
    schedule: FaultSchedule,
) -> Rc<FaultInjector> {
    let injector = FaultInjector::new(&cluster.sim);
    let kv_nodes = cluster.kv.node_ids();
    // Clones of a Topology share fault state, so acting on the config's
    // copy is visible to every component of the cluster.
    let topology = cluster.config().topology.clone();
    let c = Rc::clone(cluster);
    let inj = Rc::clone(&injector);
    injector.install(schedule, move |kind| match *kind {
        FaultKind::KvNodeCrash { node } => {
            let Some(&id) = kv_nodes.get(node % kv_nodes.len()) else { return };
            c.kv.set_node_alive(id, false);
            inj.note(&format!("kv node {id} crashed"));
        }
        FaultKind::KvNodeRestart { node } => {
            let Some(&id) = kv_nodes.get(node % kv_nodes.len()) else { return };
            c.kv.set_node_alive(id, true);
            inj.note(&format!("kv node {id} restarted"));
        }
        FaultKind::SqlPodCrash { pick } => match pick_sql_pod(&c, pick) {
            Some((tenant, pod)) => {
                let sessions = pod.session_count();
                pod.crash();
                inj.note(&format!(
                    "sql pod instance={} tenant={} crashed ({sessions} sessions lost)",
                    pod.instance_id.raw(),
                    tenant.raw(),
                ));
            }
            None => inj.note("sql pod crash: no live pods"),
        },
        FaultKind::PodStartFailure { count } => {
            c.pool.fail_next_starts(count);
            inj.note(&format!("next {count} pod starts will fail"));
        }
        FaultKind::PartitionStart { a, b } => {
            topology.partition(a, b);
            inj.note(&format!("partition up {}-{}", a.raw(), b.raw()));
        }
        FaultKind::PartitionHeal { a, b } => {
            topology.heal(a, b);
            inj.note(&format!("partition healed {}-{}", a.raw(), b.raw()));
        }
        FaultKind::LatencySpikeStart { factor_pct } => {
            // Push/pop so overlapping spikes compose: ending one spike
            // restores whatever factor was active when it started, not a
            // hardcoded 100%.
            topology.push_latency_factor_pct(factor_pct);
            inj.note(&format!("latency spike {factor_pct}%"));
        }
        FaultKind::LatencySpikeEnd => {
            topology.pop_latency_factor_pct();
            inj.note("latency spike over");
        }
        FaultKind::PartitionOneWayStart { from, to } => {
            topology.partition_one_way(from, to);
            inj.note(&format!("one-way partition up {}>{}", from.raw(), to.raw()));
        }
        FaultKind::PartitionOneWayHeal { from, to } => {
            topology.heal_one_way(from, to);
            inj.note(&format!("one-way partition healed {}>{}", from.raw(), to.raw()));
        }
        FaultKind::ZoneOutage { region, zone } => {
            // Atomically: drop the zone's traffic, down its KV nodes,
            // crash its SQL pods. The warm pool is per-region, so zone
            // loss leaves pool capacity intact.
            topology.set_zone_dark(region, zone, true);
            let mut downed = 0usize;
            for id in c.kv.nodes_in_zone(region, zone) {
                c.kv.set_node_alive(id, false);
                downed += 1;
            }
            let crashed = crash_sql_pods_in(&c, region, Some(zone));
            inj.note(&format!(
                "zone outage region={} zone={zone}: {downed} kv nodes down, {crashed} sql pods crashed",
                region.raw(),
            ));
        }
        FaultKind::ZoneRecover { region, zone } => {
            topology.set_zone_dark(region, zone, false);
            let mut up = 0usize;
            for id in c.kv.nodes_in_zone(region, zone) {
                c.kv.set_node_alive(id, true);
                up += 1;
            }
            inj.note(&format!(
                "zone recovered region={} zone={zone}: {up} kv nodes restarted",
                region.raw(),
            ));
        }
        FaultKind::RegionOutage { region } => {
            // Atomically: drop all of the region's traffic, down every KV
            // node and SQL pod located there, burn the region's warm-pool
            // slots, and re-home affected tenants so their next cold
            // starts land in a surviving region.
            topology.set_region_dark(region, true);
            let mut downed = 0usize;
            for id in c.kv.nodes_in_region(region) {
                c.kv.set_node_alive(id, false);
                downed += 1;
            }
            let crashed = crash_sql_pods_in(&c, region, None);
            c.pool.set_region_dark(region, true);
            let (rehomed, pinned) = rehome_tenants(&c, region, false);
            inj.note(&format!(
                "region outage region={}: {downed} kv nodes down, {crashed} sql pods crashed, {rehomed} tenants re-homed ({pinned} onto a region-pinned sql_instances partition)",
                region.raw(),
            ));
        }
        FaultKind::RegionRecover { region } => {
            topology.set_region_dark(region, false);
            let mut up = 0usize;
            for id in c.kv.nodes_in_region(region) {
                c.kv.set_node_alive(id, true);
                up += 1;
            }
            c.pool.set_region_dark(region, false);
            let (rehomed, _) = rehome_tenants(&c, region, true);
            inj.note(&format!(
                "region recovered region={}: {up} kv nodes restarted, {rehomed} tenants homed back",
                region.raw(),
            ));
        }
    });
    injector
}

/// Crashes every live SQL pod located in `region` (and `zone`, when
/// given), in instance-id order. Returns the number crashed.
fn crash_sql_pods_in(cluster: &ServerlessCluster, region: RegionId, zone: Option<u32>) -> usize {
    let mut pods: Vec<Rc<SqlNode>> = Vec::new();
    for tenant in cluster.registry.tenant_ids() {
        cluster.registry.with_tenant(tenant, |e| {
            for n in e.pods() {
                let loc = n.config.location;
                if loc.region == region
                    && zone.is_none_or(|z| loc.zone == z)
                    && matches!(n.state(), NodeState::Ready | NodeState::Draining)
                {
                    pods.push(Rc::clone(n));
                }
            }
        });
    }
    pods.sort_by_key(|n| n.instance_id.raw());
    for pod in &pods {
        pod.crash();
    }
    pods.len()
}

/// Re-homes tenants around a region outage. With `back == false`, every
/// tenant whose preferred placement sits in the dark `region` is pointed
/// at the first surviving region in its own region list (zone 0); with
/// `back == true`, tenants whose home is the recovered `region` are
/// pointed home again. Returns the number of tenants moved, and how many
/// of them have a `system.sql_instances` partition pinned to where they
/// went: their next cold start registers there on an in-region quorum
/// (the SQL node keys its row by its own region), the others register
/// through their main range, which has lost a replica to the outage.
fn rehome_tenants(cluster: &ServerlessCluster, region: RegionId, back: bool) -> (usize, usize) {
    let mut moved = 0usize;
    let mut pinned = 0usize;
    for tenant in cluster.registry.tenant_ids() {
        let Some(info) = cluster.tenant(tenant) else { continue };
        if back {
            if info.home_region == region {
                cluster.set_preferred_location(tenant, Location::new(region, 0));
                moved += 1;
                pinned += info.instance_partitions.contains(&region) as usize;
            }
        } else if info.home_region == region {
            let Some(survivor) = info.regions.iter().copied().find(|&r| r != region) else {
                // Single-region tenant: nowhere to go; its cold starts
                // fail until the region recovers.
                continue;
            };
            cluster.set_preferred_location(tenant, Location::new(survivor, 0));
            moved += 1;
            pinned += info.instance_partitions.contains(&survivor) as usize;
        }
    }
    (moved, pinned)
}

/// Deterministically picks a live SQL pod across all tenants: candidates
/// are every Ready or Draining node, sorted by instance id, indexed by
/// the event's selector.
fn pick_sql_pod(cluster: &ServerlessCluster, pick: u64) -> Option<(TenantId, Rc<SqlNode>)> {
    let mut pods: Vec<(TenantId, Rc<SqlNode>)> = Vec::new();
    for tenant in cluster.registry.tenant_ids() {
        cluster.registry.with_tenant(tenant, |e| {
            for n in e.pods() {
                if matches!(n.state(), NodeState::Ready | NodeState::Draining) {
                    pods.push((tenant, Rc::clone(n)));
                }
            }
        });
    }
    if pods.is_empty() {
        return None;
    }
    pods.sort_by_key(|(_, n)| n.instance_id.raw());
    let idx = (pick % pods.len() as u64) as usize;
    pods.get(idx).cloned()
}
