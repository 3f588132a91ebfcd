//! Ranges — CockroachDB's shards (§3.1).
//!
//! "Pairs are aggregated into ranges … All replication and distribution
//! decisions are made at the level of ranges. Range boundaries are decided
//! solely based on size limits and load." Each range has a replica set and
//! a leaseholder; the KV layer enforces that no two tenants share a range
//! by always splitting on tenant-segment boundaries (tenant segments are
//! created as whole ranges).

use bytes::Bytes;
use crdb_util::{NodeId, RangeId, RegionId, TenantId};

use crate::keys;

/// Immutable-ish description of a range: its span and replica placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeDescriptor {
    /// The range ID.
    pub id: RangeId,
    /// Inclusive start key.
    pub start: Bytes,
    /// Exclusive end key.
    pub end: Bytes,
    /// Nodes holding replicas (first is the initial leaseholder).
    pub replicas: Vec<NodeId>,
}

impl RangeDescriptor {
    /// Whether `key` lies within the range span.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref() && key < self.end.as_ref()
    }

    /// The tenant owning this range, if the range lies inside one tenant's
    /// segment (always true for app-tenant ranges by construction).
    pub fn tenant(&self) -> Option<TenantId> {
        let t = keys::key_tenant(&self.start)?;
        if self.end.as_ref() <= keys::tenant_span_end(t).as_ref() {
            Some(t)
        } else {
            None
        }
    }
}

/// Where a range's replicas — and so its lease — may live. Chosen when
/// the range is created and never changed: every later lease move picks
/// among the replicas, so it cannot leave the placement either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One replica per region first, further replicas in distinct zones:
    /// survives a region loss, and every write waits for a cross-region
    /// quorum.
    Spread,
    /// Every replica in a distinct zone of one region: survives a zone
    /// loss, is unavailable while the region is down, and commits in an
    /// inter-zone round trip (a REGIONAL BY ROW partition, §3.2.5).
    Pinned(RegionId),
}

impl Placement {
    /// Whether a replica (or the lease) may sit in `region`.
    pub fn allows(self, region: RegionId) -> bool {
        match self {
            Placement::Spread => true,
            Placement::Pinned(home) => home == region,
        }
    }
}

/// The range lease: which node serves reads and coordinates writes.
///
/// Leases are epoch-based (§"node liveness"): a lease is valid only while
/// its holder's liveness epoch is current. An overloaded node that misses
/// heartbeats loses its epoch and thereby all of its leases — the Fig. 12
/// dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The leaseholder node.
    pub holder: NodeId,
    /// The liveness epoch of the holder when the lease was acquired.
    pub epoch: u64,
}

/// Mutable per-range state tracked by the cluster control structures.
#[derive(Debug, Clone)]
pub struct RangeState {
    /// The descriptor.
    pub desc: RangeDescriptor,
    /// Where the replicas may live.
    pub placement: Placement,
    /// The current lease. Changed only through
    /// [`crate::directory::Directory::set_lease`], which keeps the
    /// directory's by-leaseholder index in step.
    pub lease: Lease,
    /// Approximate logical bytes stored in the range.
    pub size_bytes: u64,
    /// Lifetime write count (for load-based decisions and stats).
    pub writes: u64,
    /// Lifetime read count.
    pub reads: u64,
}

impl RangeState {
    /// Creates state for a fresh range with the first replica as holder.
    pub fn new(desc: RangeDescriptor, placement: Placement, epoch: u64) -> Self {
        #[expect(
            clippy::indexing_slicing,
            reason = "every caller creates a range only once it has chosen a replica"
        )]
        let holder = desc.replicas[0];
        RangeState {
            desc,
            placement,
            lease: Lease { holder, epoch },
            size_bytes: 0,
            writes: 0,
            reads: 0,
        }
    }
}

/// Default maximum range size before a split (scaled down from CRDB's
/// 512 MiB for simulation speed).
pub const DEFAULT_MAX_RANGE_BYTES: u64 = 8 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(t: u64) -> RangeDescriptor {
        RangeDescriptor {
            id: RangeId(1),
            start: keys::tenant_span_start(TenantId(t)),
            end: keys::tenant_span_end(TenantId(t)),
            replicas: vec![NodeId(1), NodeId(2), NodeId(3)],
        }
    }

    #[test]
    fn contains_checks() {
        let d = desc(5);
        assert!(d.contains(&keys::make_key(TenantId(5), b"anything")));
        assert!(!d.contains(&keys::make_key(TenantId(6), b"a")));
    }

    #[test]
    fn tenant_attribution() {
        assert_eq!(desc(5).tenant(), Some(TenantId(5)));
        // A range spanning two tenants (never constructed in practice)
        // reports no single owner.
        let bad = RangeDescriptor {
            id: RangeId(2),
            start: keys::tenant_span_start(TenantId(5)),
            end: keys::tenant_span_end(TenantId(6)),
            replicas: vec![NodeId(1)],
        };
        assert_eq!(bad.tenant(), None);
    }

    #[test]
    fn state_starts_with_first_replica_as_holder() {
        let st = RangeState::new(desc(5), Placement::Spread, 3);
        assert_eq!(st.lease.holder, NodeId(1));
        assert_eq!(st.lease.epoch, 3);
        assert_eq!(st.size_bytes, 0);
    }
}
