//! Shared per-tenant orchestration state.
//!
//! One [`Registry`] per deployment tracks, for each tenant (virtual
//! cluster): its ready SQL nodes, nodes being drained, whether the tenant
//! is suspended (scaled to zero, §4.2.3), and a factory for creating new
//! SQL nodes — injected by the deployment layer so this crate stays
//! independent of tenant provisioning details.
//!
//! Entries live in a `BTreeMap` keyed by tenant id, which gives the
//! id-ordered iteration snapshots demand. The registry also maintains
//! the **active set** — tenants not scaled to zero — so the periodic
//! loops (autoscaler, metrics pipeline, accounting) cost O(active), not
//! O(all tenants): with 20,000 suspended tenants and a handful of live
//! ones, a 3-second reconcile tick must not walk 20,000 entries.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crdb_sql::node::{NodeState, SqlNode};
use crdb_util::time::SimTime;
use crdb_util::TenantId;

/// Creates a fresh (state = Created) SQL node for a tenant. Supplied by
/// the deployment assembly.
pub type NodeFactory = Rc<dyn Fn(TenantId) -> Rc<SqlNode>>;

/// Per-tenant orchestration state.
pub struct TenantEntry {
    /// Ready (or starting) SQL nodes accepting new connections.
    pub nodes: Vec<Rc<SqlNode>>,
    /// Nodes being drained: existing sessions only.
    pub draining: Vec<(Rc<SqlNode>, SimTime)>,
    /// Whether the tenant is scaled to zero.
    pub suspended: bool,
    /// Proxied connections, open or being opened.
    pub connections: u64,
    /// Last instant the tenant had nonzero load (for suspension).
    pub last_active: SimTime,
}

impl TenantEntry {
    fn new(now: SimTime) -> Self {
        TenantEntry {
            nodes: Vec::new(),
            draining: Vec::new(),
            suspended: true,
            connections: 0,
            last_active: now,
        }
    }

    /// The tenant's running pods: `nodes`, then `draining`.
    pub fn pods(&self) -> impl Iterator<Item = &Rc<SqlNode>> {
        self.nodes.iter().chain(self.draining.iter().map(|(n, _)| n))
    }

    /// Nodes currently able to serve new connections.
    pub fn ready_nodes(&self) -> Vec<Rc<SqlNode>> {
        self.nodes.iter().filter(|n| n.state() == NodeState::Ready).cloned().collect()
    }

    /// The ready node with the fewest sessions, the earliest of a tie: the
    /// proxy's least-connections pick.
    pub fn least_connected(&self) -> Option<Rc<SqlNode>> {
        let ready = self.nodes.iter().filter(|n| n.state() == NodeState::Ready);
        ready.min_by_key(|n| n.session_count()).cloned()
    }
}

struct Inner {
    /// Per-tenant state in id order; a suspended tenant is just this
    /// entry.
    entries: BTreeMap<TenantId, TenantEntry>,
    /// Tenants not scaled to zero; kept in lockstep with
    /// `TenantEntry::suspended` by [`Registry::with_tenant`].
    active: BTreeSet<TenantId>,
}

/// The shared registry.
#[derive(Clone)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
    factory: NodeFactory,
}

impl Registry {
    /// Creates a registry with a node factory.
    pub fn new(factory: NodeFactory) -> Registry {
        Registry {
            inner: Rc::new(RefCell::new(Inner {
                entries: BTreeMap::new(),
                active: BTreeSet::new(),
            })),
            factory,
        }
    }

    /// Registers a tenant (starts suspended).
    pub fn add_tenant(&self, tenant: TenantId, now: SimTime) {
        self.inner.borrow_mut().entries.entry(tenant).or_insert_with(|| TenantEntry::new(now));
    }

    /// Whether the tenant exists.
    pub fn has_tenant(&self, tenant: TenantId) -> bool {
        self.inner.borrow().entries.contains_key(&tenant)
    }

    /// Runs `f` with the tenant's entry. Suspension flips inside `f` are
    /// mirrored into the active set here — this is the single choke point
    /// through which all entry mutation flows.
    pub fn with_tenant<T>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut TenantEntry) -> T,
    ) -> Option<T> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let entry = inner.entries.get_mut(&tenant)?;
        let was_suspended = entry.suspended;
        let out = f(entry);
        let now_suspended = entry.suspended;
        if was_suspended != now_suspended {
            if now_suspended {
                inner.active.remove(&tenant);
            } else {
                inner.active.insert(tenant);
            }
        }
        Some(out)
    }

    /// All tenant IDs, in id order. O(all tenants) — the periodic loops
    /// use [`Registry::active_tenant_ids`] instead.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.inner.borrow().entries.keys().copied().collect()
    }

    /// IDs of tenants not scaled to zero, in id order. This is what the
    /// autoscaler, metrics pipeline, and accounting loops iterate: cost
    /// is proportional to *running* tenants, independent of how many
    /// thousands sit suspended.
    pub fn active_tenant_ids(&self) -> Vec<TenantId> {
        self.inner.borrow().active.iter().copied().collect()
    }

    /// Number of tenants not scaled to zero.
    pub fn active_tenant_count(&self) -> usize {
        self.inner.borrow().active.len()
    }

    /// Creates a fresh SQL node for `tenant` via the injected factory.
    pub fn make_node(&self, tenant: TenantId) -> Rc<SqlNode> {
        (self.factory)(tenant)
    }

    /// Ready node count for a tenant.
    pub fn node_count(&self, tenant: TenantId) -> usize {
        self.inner.borrow().entries.get(&tenant).map_or(0, |e| e.nodes.len())
    }

    /// Whether a tenant is suspended.
    pub fn is_suspended(&self, tenant: TenantId) -> bool {
        !self.inner.borrow().active.contains(&tenant)
    }

    /// Drops crashed/stopped nodes from a tenant's bookkeeping so the
    /// autoscaler sees the reduced capacity and backfills. Returns how
    /// many nodes were pruned.
    pub fn prune_stopped(&self, tenant: TenantId) -> usize {
        self.with_tenant(tenant, |entry| {
            let before = entry.nodes.len() + entry.draining.len();
            entry.nodes.retain(|n| n.state() != NodeState::Stopped);
            entry.draining.retain(|(n, _)| n.state() != NodeState::Stopped);
            before - (entry.nodes.len() + entry.draining.len())
        })
        .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        // Tests that need real nodes build them through the deployment
        // layer; here a panicking factory suffices.
        Registry::new(Rc::new(|_| unreachable!("factory not used")))
    }

    #[test]
    fn tenants_start_suspended() {
        let r = registry();
        r.add_tenant(TenantId(2), SimTime::ZERO);
        assert!(r.has_tenant(TenantId(2)));
        assert!(r.is_suspended(TenantId(2)));
        assert_eq!(r.node_count(TenantId(2)), 0);
    }

    #[test]
    fn with_tenant_mutates() {
        let r = registry();
        r.add_tenant(TenantId(2), SimTime::ZERO);
        r.with_tenant(TenantId(2), |e| {
            e.suspended = false;
            e.connections = 3;
        });
        assert!(!r.is_suspended(TenantId(2)));
        assert_eq!(r.with_tenant(TenantId(2), |e| e.connections), Some(3));
        assert_eq!(r.with_tenant(TenantId(9), |_| ()), None);
    }

    #[test]
    fn tenant_ids_sorted() {
        let r = registry();
        for id in [5u64, 2, 9] {
            r.add_tenant(TenantId(id), SimTime::ZERO);
        }
        assert_eq!(r.tenant_ids(), vec![TenantId(2), TenantId(5), TenantId(9)]);
    }
}
