//! Raft-style quorum replication timing.
//!
//! The data path is evaluate-then-replay: the leaseholder evaluates a
//! batch against its own engine, and every follower — live or not; a dead
//! node's engine is its disk — applies what that produced
//! ([`crate::mvcc::Applied::replay`]) within the same event, so replicas
//! are never observably inconsistent. What is *simulated* is the commit
//! latency — a write acknowledges only after a majority of replicas
//! (counting the leaseholder itself) would have acked, i.e. after the
//! `(quorum-1)`-th fastest follower round trip — and the followers' CPU.

use std::time::Duration;

use crdb_sim::{Location, Sim, Topology};

/// The delay until a write proposed by the leaseholder is committed by a
/// quorum. Followers carry a liveness flag and only live ones can ack,
/// so the delay is the `(quorum-1)`-th smallest *live* follower RTT
/// (zero for a single-replica range). Returns `None` when the live
/// followers (plus the leader) cannot form a quorum — the write can
/// never commit and must be rejected before it applies.
pub fn quorum_commit_delay(
    sim: &Sim,
    topology: &Topology,
    leader: Location,
    followers: &[(Location, bool)],
) -> Option<Duration> {
    let replicas = followers.len() + 1;
    let quorum = replicas / 2 + 1;
    let follower_acks_needed = quorum - 1;
    if follower_acks_needed == 0 {
        return Some(Duration::ZERO);
    }
    let mut rtts: Vec<Duration> = followers
        .iter()
        .filter(|(_, alive)| *alive)
        .map(|&(f, _)| topology.sample_rtt(sim, leader, f))
        .collect();
    rtts.sort();
    // `None` when fewer live followers than the quorum needs.
    rtts.get(follower_acks_needed - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::time::dur;
    use crdb_util::RegionId;

    fn all_live(followers: &[Location]) -> Vec<(Location, bool)> {
        followers.iter().map(|&f| (f, true)).collect()
    }

    #[test]
    fn single_replica_commits_immediately() {
        let sim = Sim::new(1);
        let t = Topology::single_region("us-east1", 3);
        let leader = Location::new(RegionId(0), 0);
        assert_eq!(quorum_commit_delay(&sim, &t, leader, &[]), Some(Duration::ZERO));
    }

    #[test]
    fn three_replicas_wait_for_fastest_follower() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        let near = Location::new(RegionId(0), 1); // same region: ~1.5ms RTT
        let far = Location::new(RegionId(2), 0); // asia: ~180ms RTT
        let d = quorum_commit_delay(&sim, &t, leader, &all_live(&[near, far])).unwrap();
        // Quorum = 2 of 3: the leader plus its *fastest* follower.
        assert!(d < dur::ms(3), "near follower suffices: {d:?}");
    }

    #[test]
    fn five_replicas_wait_for_second_follower() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        let followers = [
            Location::new(RegionId(0), 1), // ~1.5ms
            Location::new(RegionId(1), 0), // ~105ms
            Location::new(RegionId(1), 1), // ~105ms
            Location::new(RegionId(2), 0), // ~180ms
        ];
        let d = quorum_commit_delay(&sim, &t, leader, &all_live(&followers)).unwrap();
        // Quorum = 3 of 5: leader + 2 fastest followers -> bounded by the
        // europe RTT, far below the asia RTT.
        assert!(d > dur::ms(50) && d < dur::ms(130), "{d:?}");
    }

    #[test]
    fn even_replica_counts_need_strict_majority() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        // 4 replicas: quorum = 3, so the leader plus its 2 fastest
        // followers — the europe RTT gates the commit, not asia.
        let followers = [
            Location::new(RegionId(0), 1), // ~1.5ms
            Location::new(RegionId(1), 0), // ~105ms
            Location::new(RegionId(2), 0), // ~180ms
        ];
        let d = quorum_commit_delay(&sim, &t, leader, &all_live(&followers)).unwrap();
        assert!(d > dur::ms(50) && d < dur::ms(130), "{d:?}");
        // 2 replicas: quorum = 2 — a single follower must ack, so the
        // commit waits on it even when it is far away.
        let d2 = quorum_commit_delay(&sim, &t, leader, &all_live(&followers[2..])).unwrap();
        assert!(d2 > dur::ms(150), "lone follower gates the commit: {d2:?}");
    }

    #[test]
    fn downed_follower_shifts_quorum_to_slower_replica() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        // Zone-spread 3-replica range: near follower down → the commit
        // must wait for the surviving cross-region follower.
        let followers =
            [(Location::new(RegionId(0), 1), false), (Location::new(RegionId(1), 0), true)];
        let d = quorum_commit_delay(&sim, &t, leader, &followers).unwrap();
        assert!(d > dur::ms(50), "must wait on the remote survivor: {d:?}");
    }

    #[test]
    fn downed_follower_majority_loses_quorum() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        // 5 replicas, quorum = 3 (leader + 2 followers): with 3 of 4
        // followers down only one can ack — no quorum.
        let followers = [
            (Location::new(RegionId(0), 1), false),
            (Location::new(RegionId(1), 0), false),
            (Location::new(RegionId(1), 1), false),
            (Location::new(RegionId(2), 0), true),
        ];
        assert_eq!(quorum_commit_delay(&sim, &t, leader, &followers), None);
        // Single-replica ranges never lose quorum (the leader is alive
        // by virtue of executing).
        assert_eq!(quorum_commit_delay(&sim, &t, leader, &[]), Some(Duration::ZERO));
    }

    #[test]
    fn quorum_survives_one_region_loss() {
        let sim = Sim::new(1);
        let t = Topology::three_region();
        let leader = Location::new(RegionId(0), 0);
        // Region-spread placement (one replica per region), leader in
        // us. Losing any ONE region still leaves 2 of 3 replicas.
        for dark in [RegionId(1), RegionId(2)] {
            let followers: Vec<(Location, bool)> = [RegionId(1), RegionId(2)]
                .iter()
                .map(|&r| (Location::new(r, 0), r != dark))
                .collect();
            let d = quorum_commit_delay(&sim, &t, leader, &followers);
            assert!(d.is_some(), "one region loss must not break quorum (dark={dark:?})");
        }
        // Losing BOTH follower regions does break it.
        let all_dark =
            [(Location::new(RegionId(1), 0), false), (Location::new(RegionId(2), 0), false)];
        assert_eq!(quorum_commit_delay(&sim, &t, leader, &all_dark), None);
        // Zone-spread within one region survives a zone loss the same
        // way: replicas in zones 0/1/2, zone 1 dark.
        let t1 = Topology::single_region("us-east1", 3);
        let zoned = [(Location::new(RegionId(0), 1), false), (Location::new(RegionId(0), 2), true)];
        let d = quorum_commit_delay(&sim, &t1, Location::new(RegionId(0), 0), &zoned);
        assert!(d.is_some(), "zone-spread placement survives a zone loss");
    }
}
