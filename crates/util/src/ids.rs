//! Typed identifiers.
//!
//! The paper's architecture names several kinds of entities — tenants
//! (virtual clusters), KV storage nodes, SQL instances, ranges, regions.
//! Newtypes keep them from being mixed up at compile time and give us a
//! single place to hang formatting and the reserved-ID rules (e.g. the
//! *system tenant* is tenant 1, mirroring CockroachDB).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw integer value of this identifier.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A tenant, i.e. a *virtual cluster* (§3.2). Tenant 1 is the system
    /// tenant; application tenants start at 2.
    TenantId,
    "t"
);

id_type!(
    /// A KV (storage) node. KV nodes are shared across tenants (§4.1).
    NodeId,
    "n"
);

id_type!(
    /// A SQL instance (one per-tenant SQL pod), as registered in
    /// `system.sql_instances` for DistSQL discovery (§3.2.5).
    SqlInstanceId,
    "sql"
);

id_type!(
    /// A KV range — CockroachDB's shard unit (§3.1).
    RangeId,
    "r"
);

id_type!(
    /// A replica of a range on a particular node.
    ReplicaId,
    "repl"
);

id_type!(
    /// A cloud region (e.g. `us-central1`).
    RegionId,
    "region"
);

id_type!(
    /// A client connection routed through the proxy (§4.2.2).
    ConnId,
    "conn"
);

id_type!(
    /// A pod (container) in the simulated orchestrator (§4.2.1).
    PodId,
    "pod"
);

impl TenantId {
    /// The system tenant (§3.2.4): privileged, not subject to the
    /// SQL/KV authorization boundary, used by operators to manage the
    /// lifecycle of virtual clusters.
    pub const SYSTEM: TenantId = TenantId(1);

    /// The first ID available for application (non-system) tenants.
    pub const FIRST_APP: TenantId = TenantId(2);

    /// Whether this is the privileged system tenant.
    pub fn is_system(self) -> bool {
        self == Self::SYSTEM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_tenant_is_one() {
        assert!(TenantId(1).is_system());
        assert!(!TenantId(2).is_system());
        assert_eq!(TenantId::FIRST_APP.raw(), 2);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TenantId(7).to_string(), "t7");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RangeId(12).to_string(), "r12");
        assert_eq!(format!("{:?}", RegionId(2)), "region2");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(TenantId(2) < TenantId(10));
        assert!(NodeId(1) < NodeId(2));
    }
}
