//! The per-tenant system database and its multi-region localities
//! (§3.2.5).
//!
//! Cold starts of SQL nodes "perform multiple blocking reads and writes to
//! the system database. … Using the default configuration for the system
//! database would place all leaseholders in one region, which would
//! require cross-region accesses for all nodes outside that region and
//! increase cold start latency." The optimized configuration converts
//! `system.descriptor` (consistent low-latency reads) to a **global**
//! table and `system.sql_instances` (latency-sensitive writes) to
//! **regional by row**.
//!
//! # What is a formula and what is real KV traffic
//!
//! A cold start shows both, side by side, in its span tree:
//!
//! - **Formula** (`systemdb.access`): [`SystemDatabase::cold_start_latency`]
//!   sums [`SystemDatabase::access_latency`] over the six blocking
//!   accesses of [`SystemDatabase::cold_start_accesses`] — settings,
//!   descriptor ×2, users, the schema lease, the instance row — as a
//!   function of each table's locality and the starting node's region.
//!   No key is read or written. It is most of Fig. 10b's *unoptimized*
//!   arm, and it stands in for the tables (settings, users, leases) that
//!   have no KV content here.
//! - **Real** (`catalog.load`, `instance.register`): the descriptors and
//!   table statistics are scanned from, and the `system.sql_instances` row
//!   is written to, real KV ranges, so they cost what the routing, the
//!   leaseholder's location and the replication quorum make them cost.
//!   The global tables have no non-voting replicas here: `catalog.load`
//!   reads through the tenant's home-region leaseholder. REGIONAL BY ROW
//!   is real: with [`SystemDatabase::instance_partitions`] the tenant has
//!   one `sql_instances` range per region, pinned there
//!   (`crdb_kv::range::Placement::Pinned`; key layout in
//!   [`crate::node`]), and a starting node's row commits on an inter-zone
//!   quorum in its own region. Without them the row goes to the tenant's
//!   region-spread main range and waits for a cross-region quorum.
//!
//! The instance-row write is therefore counted twice, once by the formula
//! and once for real; the formula's share is a few milliseconds when
//! optimized and is kept so single-region cold starts cost what they did.

use std::time::Duration;

use crdb_sim::{Location, Topology};
use crdb_util::RegionId;

/// Table locality, per the multi-region SQL abstractions of \[58\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableLocality {
    /// Readable locally in every region (non-voting replicas everywhere);
    /// writes pay cross-region coordination.
    Global,
    /// Each row homed in a region; reads/writes of a row from its home
    /// region are local.
    RegionalByRow,
    /// Whole table homed in one region.
    RegionalByTable(RegionId),
}

/// Access type for latency modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Consistent read.
    Read,
    /// Replicated write.
    Write,
}

/// A system table relevant to cold start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTable {
    /// SQL schema metadata (`system.descriptor`).
    Descriptor,
    /// Cluster settings (`system.settings`).
    Settings,
    /// Authentication data (`system.users`).
    Users,
    /// SQL instance registry for DistSQL discovery
    /// (`system.sql_instances`).
    SqlInstances,
    /// Lease table for schema leases (`system.lease`).
    Lease,
}

/// The system database configuration of one tenant.
#[derive(Debug, Clone)]
pub struct SystemDatabase {
    /// Whether the §3.2.5 multi-region optimizations are applied.
    pub multi_region_optimized: bool,
    /// Where leaseholders sit when unoptimized (the paper's experiment
    /// pins them to asia-southeast1).
    pub home_region: RegionId,
    /// The tenant's configured regions.
    pub regions: Vec<RegionId>,
}

impl SystemDatabase {
    /// An optimized single/multi-region system database homed at `home`.
    pub fn optimized(home_region: RegionId, regions: Vec<RegionId>) -> Self {
        SystemDatabase { multi_region_optimized: true, home_region, regions }
    }

    /// The unoptimized configuration: every system table regional in
    /// `home`.
    pub fn unoptimized(home_region: RegionId, regions: Vec<RegionId>) -> Self {
        SystemDatabase { multi_region_optimized: false, home_region, regions }
    }

    /// The effective locality of a system table.
    pub fn locality(&self, table: SystemTable) -> TableLocality {
        if !self.multi_region_optimized {
            return TableLocality::RegionalByTable(self.home_region);
        }
        match table {
            // Tables needing consistent low-latency reads become global.
            SystemTable::Descriptor | SystemTable::Settings | SystemTable::Users => {
                TableLocality::Global
            }
            // Tables with latency-sensitive writes become regional by row.
            SystemTable::SqlInstances | SystemTable::Lease => TableLocality::RegionalByRow,
        }
    }

    /// The regions `system.sql_instances` has a partition in, ascending:
    /// every configured region when the table is regional by row and
    /// there is more than one of them, none otherwise (a single region's
    /// rows are local wherever they are stored).
    pub fn instance_partitions(&self) -> Vec<RegionId> {
        let mut regions = self.regions.clone();
        regions.sort();
        regions.dedup();
        let by_row = self.locality(SystemTable::SqlInstances) == TableLocality::RegionalByRow;
        if by_row && regions.len() > 1 {
            regions
        } else {
            Vec::new()
        }
    }

    /// Latency of one access to `table` from a node in `from`, on
    /// `topology`. Reads cost one RTT to the serving replica; writes add
    /// quorum coordination.
    pub fn access_latency(
        &self,
        topology: &Topology,
        table: SystemTable,
        access: Access,
        from: Location,
    ) -> Duration {
        let local = Location::new(from.region, from.zone);
        let other_zone = Location::new(from.region, (from.zone + 1) % 3);
        let local_rtt = topology.base_latency(from, local) * 2;
        let zone_quorum_rtt = topology.base_latency(from, other_zone) * 2;
        match (self.locality(table), access) {
            (TableLocality::Global, Access::Read) => {
                // Consistent local read from a non-voting replica.
                local_rtt
            }
            (TableLocality::Global, Access::Write) => {
                // Coordinate with the farthest configured region.
                let worst = self
                    .regions
                    .iter()
                    .map(|&r| topology.base_latency(from, Location::new(r, 0)) * 2)
                    .max()
                    .unwrap_or(local_rtt);
                worst + local_rtt
            }
            (TableLocality::RegionalByRow, Access::Read) => local_rtt,
            (TableLocality::RegionalByRow, Access::Write) => {
                // Leaseholder local; quorum within the region (zone
                // survivability).
                local_rtt + zone_quorum_rtt
            }
            (TableLocality::RegionalByTable(home), access) => {
                let to_home = topology.base_latency(from, Location::new(home, 0)) * 2;
                match access {
                    Access::Read => to_home,
                    Access::Write => to_home + to_home / 2,
                }
            }
        }
    }

    /// The sequence of blocking system-database accesses a SQL node
    /// performs during cold start (§3.2.5, §6.5): schema and settings
    /// reads, authentication, then making itself discoverable.
    pub fn cold_start_accesses() -> Vec<(SystemTable, Access)> {
        vec![
            (SystemTable::Settings, Access::Read),
            (SystemTable::Descriptor, Access::Read),
            (SystemTable::Descriptor, Access::Read),
            (SystemTable::Users, Access::Read),
            (SystemTable::Lease, Access::Write),
            (SystemTable::SqlInstances, Access::Write),
        ]
    }

    /// Total cold-start system-database latency from `from`.
    pub fn cold_start_latency(&self, topology: &Topology, from: Location) -> Duration {
        Self::cold_start_accesses()
            .into_iter()
            .map(|(t, a)| self.access_latency(topology, t, a, from))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;

    fn three_region() -> Topology {
        Topology::three_region()
    }

    #[test]
    fn optimized_localities() {
        let db =
            SystemDatabase::optimized(RegionId(0), vec![RegionId(0), RegionId(1), RegionId(2)]);
        assert_eq!(db.locality(SystemTable::Descriptor), TableLocality::Global);
        assert_eq!(db.locality(SystemTable::SqlInstances), TableLocality::RegionalByRow);
    }

    #[test]
    fn unoptimized_pins_everything_to_home() {
        let db =
            SystemDatabase::unoptimized(RegionId(2), vec![RegionId(0), RegionId(1), RegionId(2)]);
        assert_eq!(
            db.locality(SystemTable::Descriptor),
            TableLocality::RegionalByTable(RegionId(2))
        );
    }

    #[test]
    fn optimized_cold_start_is_local_everywhere() {
        let topo = three_region();
        let db = SystemDatabase::optimized(RegionId(0), topo.regions().collect());
        for region in topo.regions() {
            let latency = db.cold_start_latency(&topo, Location::new(region, 0));
            assert!(
                latency < dur::ms(50),
                "region {region}: optimized cold start stays local: {latency:?}"
            );
        }
    }

    #[test]
    fn unoptimized_cold_start_pays_cross_region_rtts() {
        let topo = three_region();
        // Leaseholders pinned to asia-southeast1 (region 2), as in the
        // paper's experiment.
        let db = SystemDatabase::unoptimized(RegionId(2), topo.regions().collect());
        // From asia itself: still fast.
        let asia = db.cold_start_latency(&topo, Location::new(RegionId(2), 0));
        assert!(asia < dur::ms(50), "{asia:?}");
        // From europe: each access pays the eu<->asia RTT (~250 ms), and
        // cold start performs several of them.
        let europe = db.cold_start_latency(&topo, Location::new(RegionId(1), 0));
        assert!(europe > dur::ms(1000), "cross-region cold start is slow: {europe:?}");
        // From us-central: in between.
        let us = db.cold_start_latency(&topo, Location::new(RegionId(0), 0));
        assert!(us > dur::ms(700) && us < europe, "{us:?}");
    }

    #[test]
    fn global_writes_cost_more_than_reads() {
        let topo = three_region();
        let db = SystemDatabase::optimized(RegionId(0), topo.regions().collect());
        let from = Location::new(RegionId(0), 0);
        let read = db.access_latency(&topo, SystemTable::Descriptor, Access::Read, from);
        let write = db.access_latency(&topo, SystemTable::Descriptor, Access::Write, from);
        assert!(write > read * 10, "global writes pay cross-region: {read:?} vs {write:?}");
    }

    #[test]
    fn regional_by_row_writes_stay_local() {
        let topo = three_region();
        let db = SystemDatabase::optimized(RegionId(0), topo.regions().collect());
        for region in topo.regions() {
            let w = db.access_latency(
                &topo,
                SystemTable::SqlInstances,
                Access::Write,
                Location::new(region, 0),
            );
            assert!(w < dur::ms(10), "region {region}: {w:?}");
        }
    }
}
