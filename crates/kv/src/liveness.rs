//! Epoch-based node liveness.
//!
//! Every KV node periodically heartbeats a shared liveness record. A node
//! whose heartbeat does not land within the liveness duration loses its
//! epoch; epoch-based range leases held under the old epoch become invalid
//! and other replicas may claim them. This is the mechanism behind the
//! Fig. 12 "no limits" chaos: an overloaded node cannot get its heartbeat
//! CPU scheduled in time, fails liveness, and sheds all of its leases.

use std::collections::BTreeMap;
use std::time::Duration;

use crdb_util::time::SimTime;
use crdb_util::NodeId;

/// Liveness configuration (scaled from CockroachDB's 9 s record TTL /
/// 4.5 s heartbeat interval).
#[derive(Debug, Clone)]
pub struct LivenessConfig {
    /// How long a heartbeat keeps the node live.
    pub ttl: Duration,
    /// Heartbeat period.
    pub heartbeat_interval: Duration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            ttl: Duration::from_secs(9),
            heartbeat_interval: Duration::from_millis(4_500),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    epoch: u64,
    expires: SimTime,
    /// The epoch as of the last [`Liveness::lease_suspects`] call.
    lease_checked_epoch: u64,
}

/// The shared liveness table.
#[derive(Debug, Default)]
pub struct Liveness {
    records: BTreeMap<NodeId, Record>,
    /// Total epoch increments (lease-invalidating events), for metrics.
    pub epoch_bumps: u64,
}

impl Liveness {
    /// Creates an empty table.
    pub fn new() -> Self {
        Liveness::default()
    }

    /// Registers a node with epoch 1, live until `now + ttl`.
    pub fn register(&mut self, node: NodeId, now: SimTime, ttl: Duration) {
        self.records.insert(node, Record { epoch: 1, expires: now + ttl, lease_checked_epoch: 1 });
    }

    /// Processes a successful heartbeat. If the node's previous record had
    /// expired, its epoch is bumped (invalidating old-epoch leases) before
    /// re-extending.
    pub fn heartbeat(&mut self, node: NodeId, now: SimTime, ttl: Duration) -> u64 {
        let rec = self.records.entry(node).or_insert(Record {
            epoch: 0,
            expires: SimTime::ZERO,
            lease_checked_epoch: 0,
        });
        if rec.expires < now {
            rec.epoch += 1;
            self.epoch_bumps += 1;
        }
        rec.expires = now + ttl;
        rec.epoch.max(1)
    }

    /// Whether the node is currently live.
    pub fn is_live(&self, node: NodeId, now: SimTime) -> bool {
        self.records.get(&node).is_some_and(|r| r.expires >= now)
    }

    /// The node's current epoch (0 if unknown).
    pub fn epoch(&self, node: NodeId) -> u64 {
        self.records.get(&node).map_or(0, |r| r.epoch.max(1))
    }

    /// Whether a lease taken at `lease_epoch` on `node` is still valid:
    /// the node must be live *and* still in that epoch.
    pub fn lease_valid(&self, node: NodeId, lease_epoch: u64, now: SimTime) -> bool {
        match self.records.get(&node) {
            Some(r) => r.expires >= now && r.epoch.max(1) == lease_epoch,
            None => false,
        }
    }

    /// The nodes whose leases may have become invalid since the last
    /// call, in node-id order: those not live at `now` and those whose
    /// epoch moved in between. A lease is granted to a live node at its
    /// current epoch, so every other node's leases are still valid.
    pub fn lease_suspects(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut suspects = Vec::new();
        for (&node, rec) in &mut self.records {
            if rec.expires < now || rec.epoch != rec.lease_checked_epoch {
                suspects.push(node);
            }
            rec.lease_checked_epoch = rec.epoch;
        }
        suspects
    }

    /// All registered nodes currently live.
    pub fn live_nodes(&self, now: SimTime) -> Vec<NodeId> {
        // BTreeMap: already in node-id order.
        self.records.iter().filter(|(_, r)| r.expires >= now).map(|(&n, _)| n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn heartbeat_keeps_node_live() {
        let mut l = Liveness::new();
        l.register(NodeId(1), t(0.0), dur::secs(9));
        assert!(l.is_live(NodeId(1), t(5.0)));
        assert!(!l.is_live(NodeId(1), t(10.0)));
        l.heartbeat(NodeId(1), t(4.5), dur::secs(9));
        assert!(l.is_live(NodeId(1), t(13.0)));
    }

    #[test]
    fn missed_heartbeat_bumps_epoch_and_invalidates_leases() {
        let mut l = Liveness::new();
        l.register(NodeId(1), t(0.0), dur::secs(9));
        let epoch = l.epoch(NodeId(1));
        assert!(l.lease_valid(NodeId(1), epoch, t(5.0)));
        // Expired at t=9; lease under the old epoch is invalid even after
        // the node recovers.
        assert!(!l.lease_valid(NodeId(1), epoch, t(10.0)));
        let new_epoch = l.heartbeat(NodeId(1), t(12.0), dur::secs(9));
        assert_eq!(new_epoch, epoch + 1);
        assert!(!l.lease_valid(NodeId(1), epoch, t(13.0)), "old-epoch lease stays dead");
        assert!(l.lease_valid(NodeId(1), new_epoch, t(13.0)));
        assert_eq!(l.epoch_bumps, 1);
    }

    #[test]
    fn timely_heartbeats_preserve_epoch() {
        let mut l = Liveness::new();
        l.register(NodeId(1), t(0.0), dur::secs(9));
        for i in 1..=10 {
            l.heartbeat(NodeId(1), t(i as f64 * 4.5), dur::secs(9));
        }
        assert_eq!(l.epoch(NodeId(1)), 1);
        assert_eq!(l.epoch_bumps, 0);
    }

    #[test]
    fn live_nodes_listing() {
        let mut l = Liveness::new();
        l.register(NodeId(1), t(0.0), dur::secs(9));
        l.register(NodeId(2), t(0.0), dur::secs(9));
        l.heartbeat(NodeId(2), t(8.0), dur::secs(9));
        assert_eq!(l.live_nodes(t(10.0)), vec![NodeId(2)]);
    }
}
