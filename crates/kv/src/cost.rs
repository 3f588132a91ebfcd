//! The ground-truth CPU cost model.
//!
//! Under simulation, every KV batch consumes CPU according to this model —
//! it plays the role physical silicon plays in the paper. It is
//! deliberately *richer* than the six-feature estimated-CPU model
//! (§5.2.1): costs depend non-linearly on the node's recent batch rate
//! (batching economies — the Fig. 5 curve), writes pay replication-apply
//! overhead on followers, and background compaction CPU is charged outside
//! any tenant — so the Fig. 11 model-accuracy experiment compares a
//! trained approximation against a genuinely different function.

use crate::batch::{BatchRequest, RequestKind};

/// Cost model parameters. Times are in CPU-seconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Read batch base cost at low rate.
    pub read_batch_base_slow: f64,
    /// Read batch base cost at saturating rate.
    pub read_batch_base_fast: f64,
    /// Write batch base cost at low rate.
    pub write_batch_base_slow: f64,
    /// Write batch base cost at saturating rate.
    pub write_batch_base_fast: f64,
    /// Rate (batches/s) at which half the batching economy is realized.
    pub economy_half_rate: f64,
    /// Per-request cost within a read batch.
    pub read_request_cost: f64,
    /// Per-request cost within a write batch.
    pub write_request_cost: f64,
    /// Per-byte cost of read payloads.
    pub read_byte_cost: f64,
    /// Per-byte cost of write payloads.
    pub write_byte_cost: f64,
    /// Fraction of the leader's write cost charged to each follower apply.
    pub follower_apply_fraction: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_batch_base_slow: 50e-6,
            read_batch_base_fast: 17e-6,
            write_batch_base_slow: 125e-6,
            write_batch_base_fast: 42e-6,
            economy_half_rate: 5_000.0,
            read_request_cost: 2.5e-6,
            write_request_cost: 6.5e-6,
            read_byte_cost: 2.5e-9,
            write_byte_cost: 8.0e-9,
            follower_apply_fraction: 0.3,
        }
    }
}

impl CostModel {
    /// Base batch cost given the node's recent batch rate: economies of
    /// scale interpolate between the slow and fast base costs.
    fn batch_base(&self, slow: f64, fast: f64, rate: f64) -> f64 {
        let frac = rate / (rate + self.economy_half_rate);
        slow + (fast - slow) * frac
    }

    /// CPU-seconds the *leaseholder* spends executing a batch, given the
    /// node's recent batch rate (batches/s).
    pub fn batch_cpu_seconds(&self, batch: &BatchRequest, recent_batch_rate: f64) -> f64 {
        let mut reads = 0usize;
        let mut writes = 0usize;
        let mut read_bytes = 0usize;
        let mut write_bytes = 0usize;
        for r in &batch.requests {
            if r.is_write() {
                writes += 1;
                write_bytes += r.payload_bytes();
            } else {
                reads += 1;
                read_bytes += r.payload_bytes();
            }
        }
        let mut cost = 0.0;
        if reads > 0 {
            cost += self.batch_base(
                self.read_batch_base_slow,
                self.read_batch_base_fast,
                recent_batch_rate,
            );
            cost += reads as f64 * self.read_request_cost;
            cost += read_bytes as f64 * self.read_byte_cost;
        }
        if writes > 0 {
            cost += self.batch_base(
                self.write_batch_base_slow,
                self.write_batch_base_fast,
                recent_batch_rate,
            );
            cost += writes as f64 * self.write_request_cost;
            cost += write_bytes as f64 * self.write_byte_cost;
        }
        cost
    }

    /// CPU-seconds each follower spends applying a replicated write.
    pub fn follower_apply_cpu_seconds(&self, leader_cost: f64) -> f64 {
        leader_cost * self.follower_apply_fraction
    }

    /// Returns a copy with every CPU cost multiplied by `factor`.
    ///
    /// Experiments use scaled-up costs so that saturation occurs at
    /// proportionally lower request rates, keeping simulated event counts
    /// tractable while preserving every ratio the evaluation depends on
    /// (see DESIGN.md).
    pub fn scaled(&self, factor: f64) -> CostModel {
        CostModel {
            read_batch_base_slow: self.read_batch_base_slow * factor,
            read_batch_base_fast: self.read_batch_base_fast * factor,
            write_batch_base_slow: self.write_batch_base_slow * factor,
            write_batch_base_fast: self.write_batch_base_fast * factor,
            economy_half_rate: self.economy_half_rate / factor,
            read_request_cost: self.read_request_cost * factor,
            write_request_cost: self.write_request_cost * factor,
            read_byte_cost: self.read_byte_cost * factor,
            write_byte_cost: self.write_byte_cost * factor,
            follower_apply_fraction: self.follower_apply_fraction,
        }
    }

    /// Batches per second one vCPU sustains at a given rate — the Fig. 5
    /// curve, derivable directly from the model.
    pub fn write_batches_per_vcpu(
        &self,
        rate: f64,
        requests_per_batch: u64,
        bytes_per_batch: u64,
    ) -> f64 {
        let per_batch =
            self.batch_base(self.write_batch_base_slow, self.write_batch_base_fast, rate)
                + requests_per_batch as f64 * self.write_request_cost
                + bytes_per_batch as f64 * self.write_byte_cost;
        1.0 / per_batch
    }
}

/// Rolling per-tenant traffic features, aggregated by the KV node — the
/// input the estimated-CPU model consumes (§5.2.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficStats {
    /// Total read batches.
    pub read_batches: u64,
    /// Total read requests.
    pub read_requests: u64,
    /// Total read payload bytes (responses).
    pub read_bytes: u64,
    /// Total write batches.
    pub write_batches: u64,
    /// Total write requests.
    pub write_requests: u64,
    /// Total write payload bytes.
    pub write_bytes: u64,
    /// Scan requests carrying a planner-pushed row limit (bounded scans —
    /// the LIMIT-pushdown plan class, priced separately by the eCPU
    /// model).
    pub bounded_scan_requests: u64,
}

impl TrafficStats {
    /// Accumulates one batch's features. `response_bytes` are the bytes
    /// returned to the client (reads).
    pub fn record(&mut self, batch: &BatchRequest, response_bytes: usize) {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut write_bytes = 0u64;
        for r in &batch.requests {
            if r.is_write() {
                writes += 1;
                write_bytes += r.payload_bytes() as u64;
            } else {
                reads += 1;
                if let RequestKind::Scan { limit, .. } = r {
                    if *limit != usize::MAX {
                        self.bounded_scan_requests += 1;
                    }
                }
            }
        }
        if reads > 0 {
            self.read_batches += 1;
            self.read_requests += reads;
            self.read_bytes += response_bytes as u64;
        }
        if writes > 0 {
            self.write_batches += 1;
            self.write_requests += writes;
            self.write_bytes += write_bytes;
        }
    }

    /// Difference of two cumulative snapshots.
    pub fn delta(&self, earlier: &TrafficStats) -> TrafficStats {
        TrafficStats {
            read_batches: self.read_batches - earlier.read_batches,
            read_requests: self.read_requests - earlier.read_requests,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_batches: self.write_batches - earlier.write_batches,
            write_requests: self.write_requests - earlier.write_requests,
            write_bytes: self.write_bytes - earlier.write_bytes,
            bounded_scan_requests: self.bounded_scan_requests - earlier.bounded_scan_requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RequestKind;
    use crate::hlc::Timestamp;
    use crate::keys;
    use crate::txn::TxnMeta;
    use bytes::Bytes;
    use crdb_util::TenantId;

    fn batch(requests: Vec<RequestKind>) -> BatchRequest {
        let txn = TxnMeta {
            txn_id: 1,
            anchor_key: keys::make_key(TenantId(2), b"k0"),
            start_ts: Timestamp::ZERO,
            write_ts: Timestamp::ZERO,
        };
        BatchRequest { tenant: TenantId(2), txn, deadline: crdb_util::Deadline::NONE, requests }
    }

    fn read_batch(n: usize) -> BatchRequest {
        batch(
            (0..n)
                .map(|i| RequestKind::Get {
                    key: keys::make_key(TenantId(2), format!("k{i}").as_bytes()),
                })
                .collect(),
        )
    }

    fn write_batch(n: usize, value_len: usize) -> BatchRequest {
        batch(
            (0..n)
                .map(|i| RequestKind::WriteIntent {
                    key: keys::make_key(TenantId(2), format!("k{i}").as_bytes()),
                    value: Some(Bytes::from(vec![0u8; value_len])),
                })
                .collect(),
        )
    }

    #[test]
    fn batching_economies_in_ground_truth() {
        let m = CostModel::default();
        let slow = m.batch_cpu_seconds(&write_batch(1, 64), 10.0);
        let fast = m.batch_cpu_seconds(&write_batch(1, 64), 100_000.0);
        assert!(fast < slow, "high rate is cheaper per batch: {fast} < {slow}");
        // Fig. 5 curve: throughput per vCPU increases with rate.
        let t_slow = m.write_batches_per_vcpu(10.0, 1, 64);
        let t_fast = m.write_batches_per_vcpu(100_000.0, 1, 64);
        assert!(t_fast > t_slow * 1.5, "{t_slow} -> {t_fast}");
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let m = CostModel::default();
        let r = m.batch_cpu_seconds(&read_batch(1), 1000.0);
        let w = m.batch_cpu_seconds(&write_batch(1, 9), 1000.0);
        assert!(w > r * 2.0, "write {w} read {r}");
    }

    #[test]
    fn cost_grows_with_requests_and_bytes() {
        let m = CostModel::default();
        let small = m.batch_cpu_seconds(&write_batch(1, 64), 1000.0);
        let many = m.batch_cpu_seconds(&write_batch(10, 64), 1000.0);
        let big = m.batch_cpu_seconds(&write_batch(1, 64 * 1024), 1000.0);
        assert!(many > small);
        assert!(big > small);
    }

    #[test]
    fn follower_apply_is_fraction_of_leader() {
        let m = CostModel::default();
        let leader = m.batch_cpu_seconds(&write_batch(3, 100), 1000.0);
        let follower = m.follower_apply_cpu_seconds(leader);
        assert!((follower / leader - 0.3).abs() < 1e-9);
    }

    fn scan_batch(limit: usize) -> BatchRequest {
        batch(vec![RequestKind::Scan {
            start: keys::make_key(TenantId(2), b"a"),
            end: keys::make_key(TenantId(2), b"z"),
            limit,
        }])
    }

    #[test]
    fn traffic_stats_aggregate_and_convert() {
        let mut s = TrafficStats::default();
        s.record(&read_batch(4), 256);
        s.record(&write_batch(2, 100), 0);
        s.record(&read_batch(2), 128);
        assert_eq!(s.read_batches, 2);
        assert_eq!(s.read_requests, 6);
        assert_eq!(s.read_bytes, 384);
        assert_eq!(s.write_batches, 1);
        assert_eq!(s.write_requests, 2);
        let d = s.delta(&TrafficStats::default());
        assert_eq!(d.read_batches, s.read_batches);
    }

    #[test]
    fn bounded_scans_counted_separately() {
        let mut s = TrafficStats::default();
        s.record(&scan_batch(10), 64);
        s.record(&scan_batch(usize::MAX), 4096);
        assert_eq!(s.read_batches, 2);
        assert_eq!(s.bounded_scan_requests, 1, "only the limit-pushed scan counts");
        let d = s.delta(&TrafficStats::default());
        assert_eq!(d.bounded_scan_requests, 1);
    }

    #[test]
    fn mixed_batch_charges_both_sides() {
        let m = CostModel::default();
        let mut mixed = read_batch(1);
        mixed.requests.push(RequestKind::WriteIntent {
            key: keys::make_key(TenantId(2), b"w"),
            value: Some(Bytes::from_static(b"v")),
        });
        let cost = m.batch_cpu_seconds(&mixed, 1000.0);
        let read_only = m.batch_cpu_seconds(&read_batch(1), 1000.0);
        let write_only = m.batch_cpu_seconds(&write_batch(1, 1), 1000.0);
        assert!(cost > read_only && cost > write_only);
    }
}
