//! The range directory (META) and client-side range caches.
//!
//! "When a KV node receives a request from the SQL layer for a range that
//! it does not know about locally, it redirects the request to the right
//! node using a range directory whose root is known to all KV nodes via a
//! gossip protocol" (§3.1). "Follower reads are used to read from the META
//! range … a good fit because the KV nodes will redirect requests if a
//! range moves" (§3.2.5).
//!
//! The authoritative directory maps range start keys to range state; SQL
//! clients hold a [`RangeCache`] of possibly-stale entries refreshed by
//! META lookups. Under simulation a META lookup is served by the *nearest*
//! replica (follower read — no cross-region hop), which is exactly what
//! makes multi-region cold starts cheap.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use crdb_util::{NodeId, RangeId};

use crate::range::{Lease, RangeDescriptor, RangeState};

/// The authoritative range directory (the META content).
///
/// Range state is handed out read-only; every change goes through a
/// method here, because two indexes must follow it: which ranges each
/// node leads, and which ranges have grown since they were last weighed
/// against the split threshold. They let the cluster's periodic loops
/// visit the ranges something happened to, not the whole directory.
#[derive(Debug, Default)]
pub struct Directory {
    /// Range start key → range ID.
    by_start: BTreeMap<Bytes, RangeId>,
    /// Range ID → state.
    ranges: BTreeMap<RangeId, RangeState>,
    /// Leaseholder → the ranges it leads.
    by_holder: BTreeMap<NodeId, BTreeSet<RangeId>>,
    /// Ranges created, cut or written since they were last found to be
    /// within the split threshold.
    grown: BTreeSet<RangeId>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Installs a new range.
    pub fn insert(&mut self, state: RangeState) {
        let id = state.desc.id;
        self.by_start.insert(state.desc.start.clone(), id);
        self.by_holder.entry(state.lease.holder).or_default().insert(id);
        self.grown.insert(id);
        self.ranges.insert(id, state);
    }

    fn id_of(&self, key: &[u8]) -> Option<RangeId> {
        let upto = (std::ops::Bound::Unbounded, std::ops::Bound::Included(key));
        let (_, &id) = self.by_start.range::<[u8], _>(upto).next_back()?;
        self.ranges.get(&id).filter(|state| state.desc.contains(key)).map(|_| id)
    }

    /// The range containing `key`, if any.
    pub fn lookup(&self, key: &[u8]) -> Option<&RangeState> {
        self.ranges.get(&self.id_of(key)?)
    }

    /// Counts one batch against the range containing `key` — a write of
    /// `written` payload bytes, or a read when `None` — and returns the
    /// range.
    pub fn record_batch(&mut self, key: &[u8], written: Option<u64>) -> Option<&RangeState> {
        let id = self.id_of(key)?;
        let range = self.ranges.get_mut(&id)?;
        match written {
            Some(bytes) => {
                range.writes += 1;
                range.size_bytes += bytes;
                self.grown.insert(id);
            }
            None => range.reads += 1,
        }
        Some(range)
    }

    /// Hands range `id`'s lease to `lease.holder`.
    pub fn set_lease(&mut self, id: RangeId, lease: Lease) {
        let Some(range) = self.ranges.get_mut(&id) else { return };
        let old = std::mem::replace(&mut range.lease, lease).holder;
        if old != lease.holder {
            if let Some(led) = self.by_holder.get_mut(&old) {
                led.remove(&id);
            }
            self.by_holder.entry(lease.holder).or_default().insert(id);
        }
    }

    /// The ranges `node` leads, in id order.
    pub fn led_by(&self, node: NodeId) -> impl Iterator<Item = &RangeState> {
        self.by_holder.get(&node).into_iter().flatten().filter_map(|id| self.ranges.get(id))
    }

    /// How many ranges `node` leads.
    pub fn lease_count(&self, node: NodeId) -> usize {
        self.by_holder.get(&node).map_or(0, BTreeSet::len)
    }

    /// Cuts range `id` down to end at `end` holding `size_bytes` (the
    /// left half of a split; the caller installs the right half).
    pub fn truncate(&mut self, id: RangeId, end: Bytes, size_bytes: u64) {
        if let Some(range) = self.ranges.get_mut(&id) {
            range.desc.end = end;
            range.size_bytes = size_bytes;
            self.grown.insert(id);
        }
    }

    /// The ranges larger than `max_bytes`, in id order. Only ranges that
    /// grew since the last call, or were oversize then, are weighed: a
    /// range cannot outgrow the threshold without passing through
    /// [`Directory::insert`], [`Directory::truncate`] or
    /// [`Directory::record_batch`].
    pub fn oversize(&mut self, max_bytes: u64) -> Vec<RangeId> {
        let ranges = &self.ranges;
        self.grown.retain(|id| ranges.get(id).is_some_and(|r| r.size_bytes > max_bytes));
        self.grown.iter().copied().collect()
    }

    /// State of a specific range.
    pub fn get(&self, id: RangeId) -> Option<&RangeState> {
        self.ranges.get(&id)
    }

    /// Iterates all ranges.
    pub fn iter(&self) -> impl Iterator<Item = &RangeState> {
        self.ranges.values()
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// A range's descriptor and leaseholder as of some read of the
/// directory: what a META lookup returns, what a redirect carries, and
/// what a client caches (where it may since have gone stale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeInfo {
    /// The descriptor.
    pub desc: RangeDescriptor,
    /// The leaseholder.
    pub leaseholder: NodeId,
}

impl From<&RangeState> for RangeInfo {
    fn from(state: &RangeState) -> Self {
        RangeInfo { desc: state.desc.clone(), leaseholder: state.lease.holder }
    }
}

/// A client-side, possibly stale view of the directory.
#[derive(Debug, Default)]
pub struct RangeCache {
    by_start: BTreeMap<Bytes, RangeInfo>,
    /// Lookups that had to go to META (cold or invalidated).
    pub meta_lookups: u64,
    /// Lookups served from cache.
    pub cache_hits: u64,
}

impl RangeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RangeCache::default()
    }

    /// A cached entry covering `key`, if present.
    pub fn lookup(&mut self, key: &[u8]) -> Option<RangeInfo> {
        let key_b = Bytes::copy_from_slice(key);
        let (_, entry) = self.by_start.range(..=key_b).next_back()?;
        if entry.desc.contains(key) {
            self.cache_hits += 1;
            Some(entry.clone())
        } else {
            None
        }
    }

    /// Installs an entry (from a META lookup or a redirect), evicting
    /// every cached entry it overlaps.
    pub fn insert(&mut self, entry: RangeInfo) {
        let start = entry.desc.start.clone();
        let end = entry.desc.end.clone();
        let stale: Vec<Bytes> = self
            .by_start
            .range(..end.clone())
            .filter(|(_, e)| e.desc.end.as_ref() > start.as_ref())
            .map(|(k, _)| k.clone())
            .collect();
        for k in stale {
            self.by_start.remove(&k);
        }
        self.by_start.insert(start, entry);
    }

    /// Records a META lookup (stats) and installs the result.
    pub fn fill_from_meta(&mut self, entry: RangeInfo) {
        self.meta_lookups += 1;
        self.insert(entry);
    }

    /// Drops the entry covering `key` (after a redirect or range-not-found).
    pub fn invalidate(&mut self, key: &[u8]) {
        let key_b = Bytes::copy_from_slice(key);
        let found = self.by_start.range(..=key_b).next_back().map(|(k, _)| k.clone());
        if let Some(k) = found {
            self.by_start.remove(&k);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::range::Placement;
    use crdb_util::TenantId;

    fn mkrange(id: u64, t: u64, start: &[u8], end: &[u8]) -> RangeState {
        RangeState::new(
            RangeDescriptor {
                id: RangeId(id),
                start: keys::make_key(TenantId(t), start),
                end: if end.is_empty() {
                    keys::tenant_span_end(TenantId(t))
                } else {
                    keys::make_key(TenantId(t), end)
                },
                replicas: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            Placement::Spread,
            1,
        )
    }

    #[test]
    fn directory_lookup_by_containment() {
        let mut d = Directory::new();
        d.insert(mkrange(1, 5, b"", b"m"));
        d.insert(mkrange(2, 5, b"m", b""));
        let k = keys::make_key(TenantId(5), b"apple");
        assert_eq!(d.lookup(&k).unwrap().desc.id, RangeId(1));
        let k = keys::make_key(TenantId(5), b"zebra");
        assert_eq!(d.lookup(&k).unwrap().desc.id, RangeId(2));
        let k = keys::make_key(TenantId(6), b"a");
        assert!(d.lookup(&k).is_none(), "no range for unknown tenant");
    }

    #[test]
    fn cache_hit_miss_and_invalidate() {
        let mut c = RangeCache::new();
        let k = keys::make_key(TenantId(5), b"x");
        assert!(c.lookup(&k).is_none());
        let r = mkrange(1, 5, b"", b"");
        c.fill_from_meta(RangeInfo { desc: r.desc.clone(), leaseholder: NodeId(2) });
        assert_eq!(c.lookup(&k).unwrap().leaseholder, NodeId(2));
        assert_eq!(c.meta_lookups, 1);
        assert_eq!(c.cache_hits, 1);
        c.invalidate(&k);
        assert!(c.lookup(&k).is_none());
    }

    #[test]
    fn stale_entries_evicted_on_split_install() {
        let mut c = RangeCache::new();
        let whole = mkrange(1, 5, b"", b"");
        c.insert(RangeInfo { desc: whole.desc.clone(), leaseholder: NodeId(1) });
        // A split produced two halves; inserting one evicts the stale whole.
        let left = mkrange(2, 5, b"", b"m");
        c.insert(RangeInfo { desc: left.desc.clone(), leaseholder: NodeId(1) });
        let right_key = keys::make_key(TenantId(5), b"z");
        assert!(c.lookup(&right_key).is_none(), "stale whole-range entry gone");
        let left_key = keys::make_key(TenantId(5), b"a");
        assert_eq!(c.lookup(&left_key).unwrap().desc.id, RangeId(2));
    }
}
