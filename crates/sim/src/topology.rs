//! Cluster topology and the simulated network.
//!
//! Stands in for the production multi-region network (§4.2.5, §6.5.2). A
//! [`Topology`] names the regions of the host cluster and holds a one-way
//! latency matrix; awaiting [`Topology::hop`] carries a task's message
//! there after the appropriate latency plus jitter. The default three-region topology
//! mirrors the paper's evaluation: `us-central1`, `europe-west1`,
//! `asia-southeast1`, with public inter-region round-trip times.
//!
//! The topology also carries injectable *network faults*: inter-region
//! partitions (messages across a partition are dropped) and a global
//! latency multiplier for spikes. The fault state is shared across
//! clones of a `Topology`, so every component holding a copy of the
//! cluster's topology sees the same faults.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use crdb_util::time::dur;
use crdb_util::RegionId;
use rand::Rng;

use crate::engine::Sim;
use crate::task;

/// Where a process runs: a region and a zone within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// The cloud region.
    pub region: RegionId,
    /// The availability zone index within the region.
    pub zone: u32,
}

impl Location {
    /// Convenience constructor.
    pub fn new(region: RegionId, zone: u32) -> Self {
        Location { region, zone }
    }
}

/// Injected network faults, shared by all clones of a [`Topology`].
#[derive(Debug, Default)]
struct NetFaults {
    /// Region pairs that cannot exchange messages (stored both ways).
    partitions: BTreeSet<(RegionId, RegionId)>,
    /// Directed region pairs whose traffic is dropped one way only
    /// (asymmetric partition: `(from, to)` is dead, `(to, from)` works).
    one_way: BTreeSet<(RegionId, RegionId)>,
    /// Regions that are entirely dark (a full region outage): nothing in
    /// or out, including intra-region traffic touching the region.
    dark_regions: BTreeSet<RegionId>,
    /// Individual zones that are dark (a zone outage).
    dark_zones: BTreeSet<(RegionId, u32)>,
    /// Global latency multiplier in percent (100 = no spike).
    latency_factor_pct: u32,
    /// Previous multipliers, so overlapping spikes restore the factor
    /// they replaced instead of snapping back to 100%.
    factor_stack: Vec<u32>,
    /// Messages dropped because of a partition.
    dropped: u64,
}

/// Regions, zones, and network latency between them.
#[derive(Debug, Clone)]
pub struct Topology {
    regions: Vec<String>,
    /// One-way latency between region pairs, indexed by raw region id.
    latency: BTreeMap<(RegionId, RegionId), Duration>,
    /// One-way latency between zones of the same region.
    inter_zone: Duration,
    /// One-way latency within a zone.
    intra_zone: Duration,
    /// Multiplicative jitter bound (e.g. 0.1 = up to +10%).
    jitter: f64,
    /// Injected partitions and latency spikes; shared across clones.
    faults: Rc<RefCell<NetFaults>>,
}

impl Topology {
    /// A single-region topology with `zones` zones — the shape of the
    /// single-region experiments (Figs. 6, 12, 13, Table 1).
    pub fn single_region(name: &str, _zones: u32) -> Self {
        Topology {
            regions: vec![name.to_string()],
            latency: BTreeMap::new(),
            inter_zone: dur::us(750),
            intra_zone: dur::us(250),
            jitter: 0.05,
            faults: Rc::new(RefCell::new(NetFaults {
                latency_factor_pct: 100,
                ..Default::default()
            })),
        }
    }

    /// The paper's three-region evaluation topology (§6.5.2), with one-way
    /// latencies derived from public GCP round-trip measurements:
    /// us-central1 ↔ europe-west1 ≈ 105 ms RTT, us-central1 ↔
    /// asia-southeast1 ≈ 180 ms RTT, europe-west1 ↔ asia-southeast1 ≈
    /// 250 ms RTT.
    pub fn three_region() -> Self {
        let mut t = Topology {
            regions: vec![
                "us-central1".to_string(),
                "europe-west1".to_string(),
                "asia-southeast1".to_string(),
            ],
            latency: BTreeMap::new(),
            inter_zone: dur::us(750),
            intra_zone: dur::us(250),
            jitter: 0.05,
            faults: Rc::new(RefCell::new(NetFaults {
                latency_factor_pct: 100,
                ..Default::default()
            })),
        };
        t.set_rtt(RegionId(0), RegionId(1), dur::ms(105));
        t.set_rtt(RegionId(0), RegionId(2), dur::ms(180));
        t.set_rtt(RegionId(1), RegionId(2), dur::ms(250));
        t
    }

    /// Sets the round-trip time between two regions (stored as symmetric
    /// one-way latencies).
    pub fn set_rtt(&mut self, a: RegionId, b: RegionId, rtt: Duration) {
        let one_way = rtt / 2;
        self.latency.insert((a, b), one_way);
        self.latency.insert((b, a), one_way);
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// All region ids.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len() as u64).map(RegionId)
    }

    /// Human-readable region name (`"?"` for a region this topology lacks).
    pub fn region_name(&self, r: RegionId) -> &str {
        self.regions.get(r.raw() as usize).map_or("?", |name| name.as_str())
    }

    /// Deterministic base one-way latency between two locations, before
    /// jitter.
    pub fn base_latency(&self, from: Location, to: Location) -> Duration {
        if from.region != to.region {
            *self.latency.get(&(from.region, to.region)).unwrap_or(&dur::ms(100))
        } else if from.zone != to.zone {
            self.inter_zone
        } else {
            self.intra_zone
        }
    }

    /// Samples a one-way latency including jitter using the simulation RNG.
    /// An active latency spike multiplies the result.
    pub fn sample_latency(&self, sim: &Sim, from: Location, to: Location) -> Duration {
        let base = self.base_latency(from, to);
        let jitter = 1.0 + sim.with_rng(|r| r.gen_range(0.0..self.jitter));
        let spike = self.faults.borrow().latency_factor_pct as f64 / 100.0;
        Duration::from_secs_f64(base.as_secs_f64() * jitter * spike)
    }

    /// Carries a message from `from` to `to`: resolves to `true` once the
    /// one-way latency, sampled at the first poll, has passed. Across an
    /// active partition the message is dropped: `false` at once, with no
    /// event. Whoever waits for a reply hears nothing — exactly how a real
    /// partition looks to the sender, which is why the layers above must
    /// fail fast on unreachable peers instead of waiting for a reply.
    pub async fn hop(&self, sim: &Sim, from: Location, to: Location) -> bool {
        if !self.is_reachable(from, to) {
            self.faults.borrow_mut().dropped += 1;
            return false;
        }
        task::sleep(sim, self.sample_latency(sim, from, to)).await;
        true
    }

    /// True when no partition or outage separates `from` and `to`.
    /// Symmetric partitions are inter-region (intra-region traffic is
    /// never partitioned), but a dark zone or region blocks *all* of its
    /// traffic, including intra-region hops.
    pub fn is_reachable(&self, from: Location, to: Location) -> bool {
        let faults = self.faults.borrow();
        if faults.dark_regions.contains(&from.region)
            || faults.dark_regions.contains(&to.region)
            || faults.dark_zones.contains(&(from.region, from.zone))
            || faults.dark_zones.contains(&(to.region, to.zone))
        {
            return false;
        }
        if from.region == to.region {
            return true;
        }
        !faults.partitions.contains(&(from.region, to.region))
            && !faults.one_way.contains(&(from.region, to.region))
    }

    /// True when `location` sits inside a dark zone or region.
    pub fn is_dark(&self, location: Location) -> bool {
        let faults = self.faults.borrow();
        faults.dark_regions.contains(&location.region)
            || faults.dark_zones.contains(&(location.region, location.zone))
    }

    /// Starts a symmetric partition between two regions.
    pub fn partition(&self, a: RegionId, b: RegionId) {
        if a == b {
            return;
        }
        let mut faults = self.faults.borrow_mut();
        faults.partitions.insert((a, b));
        faults.partitions.insert((b, a));
    }

    /// Heals the partition between two regions.
    pub fn heal(&self, a: RegionId, b: RegionId) {
        let mut faults = self.faults.borrow_mut();
        faults.partitions.remove(&(a, b));
        faults.partitions.remove(&(b, a));
    }

    /// Starts an asymmetric partition: messages `from → to` are dropped
    /// while `to → from` still flows (e.g. a broken return path).
    pub fn partition_one_way(&self, from: RegionId, to: RegionId) {
        if from == to {
            return;
        }
        self.faults.borrow_mut().one_way.insert((from, to));
    }

    /// Heals the one-way partition `from → to`.
    pub fn heal_one_way(&self, from: RegionId, to: RegionId) {
        self.faults.borrow_mut().one_way.remove(&(from, to));
    }

    /// Heals every partition, symmetric and one-way. Dark zones and
    /// regions are *not* cleared here — outages end via their scheduled
    /// recovery events (or [`Topology::set_region_dark`] /
    /// [`Topology::set_zone_dark`] with `dark = false`).
    pub fn heal_all(&self) {
        let mut faults = self.faults.borrow_mut();
        faults.partitions.clear();
        faults.one_way.clear();
    }

    /// Marks an entire region dark (`dark = true`) or restores it.
    pub fn set_region_dark(&self, region: RegionId, dark: bool) {
        let mut faults = self.faults.borrow_mut();
        if dark {
            faults.dark_regions.insert(region);
        } else {
            faults.dark_regions.remove(&region);
        }
    }

    /// Marks a single zone dark (`dark = true`) or restores it.
    pub fn set_zone_dark(&self, region: RegionId, zone: u32, dark: bool) {
        let mut faults = self.faults.borrow_mut();
        if dark {
            faults.dark_zones.insert((region, zone));
        } else {
            faults.dark_zones.remove(&(region, zone));
        }
    }

    /// Sets the global latency multiplier in percent (100 = normal),
    /// discarding any stacked spike factors.
    pub fn set_latency_factor_pct(&self, pct: u32) {
        let mut faults = self.faults.borrow_mut();
        faults.latency_factor_pct = pct.max(1);
        faults.factor_stack.clear();
    }

    /// Starts a latency spike, remembering the factor it replaces so
    /// overlapping spikes compose: each [`Topology::pop_latency_factor_pct`]
    /// restores the previous factor rather than resetting to 100%.
    pub fn push_latency_factor_pct(&self, pct: u32) {
        let mut faults = self.faults.borrow_mut();
        let prev = faults.latency_factor_pct;
        faults.factor_stack.push(prev);
        faults.latency_factor_pct = pct.max(1);
    }

    /// Ends the most recent latency spike, restoring the factor that was
    /// active before it (100% if the stack is empty).
    pub fn pop_latency_factor_pct(&self) {
        let mut faults = self.faults.borrow_mut();
        faults.latency_factor_pct = faults.factor_stack.pop().unwrap_or(100);
    }

    /// Messages dropped so far because of partitions.
    pub fn dropped_messages(&self) -> u64 {
        self.faults.borrow().dropped
    }

    /// Round-trip time between two locations (two sampled one-way hops).
    pub fn sample_rtt(&self, sim: &Sim, a: Location, b: Location) -> Duration {
        self.sample_latency(sim, a, b) + self.sample_latency(sim, b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn three_region_latencies() {
        let t = Topology::three_region();
        let us = Location::new(RegionId(0), 0);
        let eu = Location::new(RegionId(1), 0);
        let asia = Location::new(RegionId(2), 0);
        assert_eq!(t.base_latency(us, eu), dur::us(52_500));
        assert_eq!(t.base_latency(eu, asia), dur::ms(125));
        assert_eq!(t.base_latency(us, asia), dur::ms(90));
        // Symmetry.
        assert_eq!(t.base_latency(eu, us), t.base_latency(us, eu));
    }

    #[test]
    fn zone_latencies() {
        let t = Topology::single_region("us-east1", 3);
        let a = Location::new(RegionId(0), 0);
        let b = Location::new(RegionId(0), 1);
        assert_eq!(t.base_latency(a, a), dur::us(250));
        assert_eq!(t.base_latency(a, b), dur::us(750));
    }

    #[test]
    fn region_lookup() {
        let t = Topology::three_region();
        assert_eq!(t.region_name(RegionId(1)), "europe-west1");
        assert_eq!(t.region_name(RegionId(2)), "asia-southeast1");
        assert_eq!(t.regions().count(), 3);
    }

    /// Spawns a task that hops `from → to`; returns whether and when it
    /// arrived.
    fn hop(
        sim: &Sim,
        t: &Topology,
        from: Location,
        to: Location,
    ) -> Rc<RefCell<Option<(bool, f64)>>> {
        let arrived = Rc::new(RefCell::new(None));
        task::spawn(sim, {
            let (sim, t, arrived) = (sim.clone(), t.clone(), Rc::clone(&arrived));
            async move {
                let delivered = t.hop(&sim, from, to).await;
                *arrived.borrow_mut() = Some((delivered, sim.now().as_secs_f64()));
            }
        });
        arrived
    }

    #[test]
    fn send_delivers_after_latency() {
        let sim = Sim::new(7);
        let t = Topology::three_region();
        let us = Location::new(RegionId(0), 0);
        let asia = Location::new(RegionId(2), 0);
        let arrived = hop(&sim, &t, us, asia);
        sim.run_to_completion();
        let (delivered, secs) = arrived.borrow().expect("resolved");
        assert!(delivered);
        // 90ms one-way + up to 5% jitter.
        assert!((0.090..0.095).contains(&secs), "{secs}");
    }

    #[test]
    fn partition_drops_messages_until_healed() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let clone = t.clone();
        let us = Location::new(RegionId(0), 0);
        let eu = Location::new(RegionId(1), 0);
        // Partition applied on a clone is visible on the original.
        clone.partition(RegionId(0), RegionId(1));
        assert!(!t.is_reachable(us, eu));
        assert!(!t.is_reachable(eu, us));
        let dropped = hop(&sim, &t, us, eu);
        assert_eq!(*dropped.borrow(), Some((false, 0.0)), "partitioned hop fails at once");
        assert!(!sim.step(), "and schedules nothing");
        assert_eq!(t.dropped_messages(), 1);
        t.heal(RegionId(0), RegionId(1));
        assert!(t.is_reachable(us, eu));
        let delivered = hop(&sim, &t, us, eu);
        sim.run_to_completion();
        assert!(delivered.borrow().is_some_and(|(delivered, _)| delivered), "healed link delivers");
        assert_eq!(t.dropped_messages(), 1);
        // Same-region traffic is never partitioned.
        clone.partition(RegionId(0), RegionId(0));
        assert!(t.is_reachable(us, Location::new(RegionId(0), 1)));
    }

    #[test]
    fn latency_spike_multiplies_latency() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let us = Location::new(RegionId(0), 0);
        let eu = Location::new(RegionId(1), 0);
        let normal = t.sample_latency(&sim, us, eu);
        t.set_latency_factor_pct(400);
        let spiked = t.sample_latency(&sim, us, eu);
        assert!(spiked >= normal.mul_f64(3.5), "{spiked:?} vs {normal:?}");
        t.set_latency_factor_pct(100);
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let t = Topology::three_region();
        let us = Location::new(RegionId(0), 0);
        let eu = Location::new(RegionId(1), 0);
        t.partition_one_way(RegionId(0), RegionId(1));
        assert!(!t.is_reachable(us, eu), "forward path dead");
        assert!(t.is_reachable(eu, us), "return path still up");
        t.heal_one_way(RegionId(0), RegionId(1));
        assert!(t.is_reachable(us, eu));
        // Self-partition is a no-op.
        t.partition_one_way(RegionId(0), RegionId(0));
        assert!(t.is_reachable(us, Location::new(RegionId(0), 1)));
        // heal_all clears one-way partitions too.
        t.partition_one_way(RegionId(1), RegionId(2));
        t.heal_all();
        assert!(t.is_reachable(eu, Location::new(RegionId(2), 0)));
    }

    #[test]
    fn dark_region_blocks_all_traffic_including_intra_region() {
        let t = Topology::three_region();
        let eu_a = Location::new(RegionId(1), 0);
        let eu_b = Location::new(RegionId(1), 1);
        let us = Location::new(RegionId(0), 0);
        t.set_region_dark(RegionId(1), true);
        assert!(t.is_dark(eu_a));
        assert!(!t.is_reachable(eu_a, eu_b), "intra-region traffic dies in a dark region");
        assert!(!t.is_reachable(us, eu_a));
        assert!(!t.is_reachable(eu_a, us));
        assert!(t.is_reachable(us, Location::new(RegionId(2), 0)), "other regions unaffected");
        // heal_all does NOT recover a dark region.
        t.heal_all();
        assert!(!t.is_reachable(us, eu_a));
        t.set_region_dark(RegionId(1), false);
        assert!(t.is_reachable(us, eu_a));
        assert!(!t.is_dark(eu_a));
    }

    #[test]
    fn dark_zone_blocks_only_that_zone() {
        let t = Topology::single_region("us-east1", 3);
        let z0 = Location::new(RegionId(0), 0);
        let z1 = Location::new(RegionId(0), 1);
        let z2 = Location::new(RegionId(0), 2);
        t.set_zone_dark(RegionId(0), 1, true);
        assert!(t.is_dark(z1));
        assert!(!t.is_reachable(z0, z1));
        assert!(!t.is_reachable(z1, z2));
        assert!(t.is_reachable(z0, z2), "unaffected zones still talk");
        t.set_zone_dark(RegionId(0), 1, false);
        assert!(t.is_reachable(z0, z1));
    }

    #[test]
    fn overlapping_latency_spikes_restore_previous_factor() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let us = Location::new(RegionId(0), 0);
        let eu = Location::new(RegionId(1), 0);
        let normal = t.sample_latency(&sim, us, eu);
        // Spike A (400%) then overlapping spike B (200%).
        t.push_latency_factor_pct(400);
        t.push_latency_factor_pct(200);
        // B ends: factor must return to A's 400%, not 100%.
        t.pop_latency_factor_pct();
        let still_spiked = t.sample_latency(&sim, us, eu);
        assert!(still_spiked >= normal.mul_f64(3.5), "{still_spiked:?} vs {normal:?}");
        // A ends: back to normal.
        t.pop_latency_factor_pct();
        let restored = t.sample_latency(&sim, us, eu);
        assert!(restored <= normal.mul_f64(1.2), "{restored:?} vs {normal:?}");
        // Popping an empty stack is safe and pins the factor at 100%.
        t.pop_latency_factor_pct();
        assert!(t.sample_latency(&sim, us, eu) <= normal.mul_f64(1.2));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let measure = |seed| {
            let sim = Sim::new(seed);
            let t = Topology::three_region();
            let us = Location::new(RegionId(0), 0);
            let eu = Location::new(RegionId(1), 0);
            t.sample_latency(&sim, us, eu)
        };
        assert_eq!(measure(1), measure(1));
        assert_ne!(measure(1), measure(2));
    }
}
