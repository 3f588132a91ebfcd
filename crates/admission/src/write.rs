//! Write-bandwidth admission (§5.1.3–§5.1.4).
//!
//! The observable write bottleneck in an LSM is either (a) the bandwidth at
//! which memtables flush into L0, or (b) the bandwidth at which L0 files
//! compact down — a backlog in L0 raises read amplification. Both
//! capacities are re-estimated at 15-second intervals from the storage
//! engine's instrumentation and expressed as the refill rate of a token
//! bucket where **one token = one write byte**.
//!
//! Because a logical write turns into more physical bytes (raft log,
//! state-machine apply, write amplification), the controller charges
//! requests through a fitted linear model `actual = a·x + b` rather than
//! their raw size.

use std::time::Duration;

use crdb_storage::metrics::LinearModel;
use crdb_storage::StorageMetrics;
use crdb_util::bucket::TokenBucket;
use crdb_util::stats::Ewma;
use crdb_util::time::SimTime;

/// Interval between capacity re-estimations (paper: 15 s).
pub const ESTIMATION_INTERVAL: Duration = Duration::from_secs(15);
/// L0 file count at which compaction capacity becomes the binding
/// constraint.
const L0_OVERLOAD_FILES: usize = 8;
/// Smoothing for capacity estimates.
const SMOOTHING_ALPHA: f64 = 0.5;

/// Floor on the token rate, bytes/s, so the bucket never wedges.
const MIN_RATE: f64 = 64.0 * 1024.0;
/// Token rate before any observation, bytes/s.
pub(crate) const INITIAL_RATE: f64 = 16.0 * 1024.0 * 1024.0;
/// Burst allowance as seconds of refill.
const BURST_SECONDS: f64 = 1.0;

/// Per-node write admission state.
pub struct WriteController {
    bucket: TokenBucket,
    /// Smoothed flush capacity estimate, bytes/s.
    flush_capacity: Ewma,
    /// Smoothed L0 compaction capacity estimate, bytes/s.
    l0_capacity: Ewma,
    /// Requested-bytes → physical-bytes model (§5.1.4).
    model: LinearModel,
    last_metrics: StorageMetrics,
}

impl Default for WriteController {
    fn default() -> Self {
        WriteController::new()
    }
}

impl WriteController {
    /// Creates a controller refilling at `INITIAL_RATE`.
    pub fn new() -> Self {
        WriteController {
            bucket: TokenBucket::new(INITIAL_RATE, INITIAL_RATE * BURST_SECONDS),
            flush_capacity: Ewma::new(SMOOTHING_ALPHA),
            l0_capacity: Ewma::new(SMOOTHING_ALPHA),
            model: LinearModel::new(0.99),
            last_metrics: StorageMetrics::default(),
        }
    }

    /// Predicted physical bytes for a request writing `requested` logical
    /// bytes, per the fitted linear model.
    pub fn predict_bytes(&self, requested: f64) -> f64 {
        // Before the model has data it predicts y = x; physical bytes are
        // always at least the logical bytes.
        self.model.predict(requested).max(requested)
    }

    /// Attempts to admit a write of `requested` logical bytes. On success
    /// the predicted physical bytes are deducted; on failure returns the
    /// wait until enough tokens accrue.
    pub fn try_admit(&mut self, now: SimTime, requested: f64) -> Result<(), Duration> {
        let charge = self.predict_bytes(requested);
        self.bucket.try_take(now, charge)
    }

    /// Records the observed physical cost of a completed write that
    /// requested `requested` bytes; trains the linear model and settles the
    /// difference against the bucket (extra debt or refund).
    pub fn observe_actual(&mut self, now: SimTime, requested: f64, actual: f64) {
        let predicted = self.predict_bytes(requested);
        self.model.observe(requested, actual);
        let diff = actual - predicted;
        if diff > 0.0 {
            self.bucket.take_debt(now, diff);
        } else if diff < 0.0 {
            self.bucket.put_back(now, -diff);
        }
    }

    /// Re-estimates capacity from a storage metrics snapshot. Call every
    /// [`ESTIMATION_INTERVAL`].
    pub fn estimate_capacity(&mut self, now: SimTime, metrics: StorageMetrics, l0_files: usize) {
        let delta = metrics.delta(&self.last_metrics);
        self.last_metrics = metrics;

        // Capacity is what the engine moved *while it was moving it*:
        // bytes over the time its flush (or L0 compaction) jobs were
        // running on the disk, not over the interval. Dividing by the
        // interval measures demand — a node given one 4 MiB memtable to
        // flush per quarter minute would read as a 280 KB/s disk, get
        // throttled to that, flush less, and spiral to the floor. Under
        // saturation jobs run back to back and the two agree. An interval
        // with no finished job says nothing and keeps the estimate — an
        // idle disk is not a slow disk.
        let per_busy_sec = |bytes: u64, busy_nanos: u64| bytes as f64 * 1e9 / busy_nanos as f64;
        if delta.flush_busy_nanos > 0 {
            self.flush_capacity.record(per_busy_sec(delta.flush_bytes, delta.flush_busy_nanos));
        }
        if delta.l0_compact_busy_nanos > 0 {
            self.l0_capacity
                .record(per_busy_sec(delta.l0_compact_bytes, delta.l0_compact_busy_nanos));
        }

        let flush_cap = self.flush_capacity.get();
        let l0_cap = self.l0_capacity.get();
        let mut rate = if flush_cap > 0.0 { flush_cap } else { INITIAL_RATE };
        // L0 compaction binds only once L0 has a backlog: compaction is
        // then falling behind, so throttle intake below its capacity and
        // let L0 drain. With L0 healthy, how fast it compacts is no limit
        // on how fast memtables may fill.
        if l0_files >= L0_OVERLOAD_FILES && l0_cap > 0.0 {
            rate = rate.min(l0_cap * 0.5);
        }
        // Write stalls are the engine's own overload verdict — the
        // foreground was actually blocked on flush/compaction backlog
        // this interval, so halve intake like an L0 backlog even if the
        // file count alone looks healthy (e.g. a frozen-memtable pileup).
        if delta.stall_events > 0 {
            rate *= 0.5;
        }
        rate = rate.max(MIN_RATE);
        self.bucket.set_rate(now, rate);
    }

    /// Current token refill rate in bytes/s.
    pub fn rate(&self) -> f64 {
        self.bucket.rate()
    }

    /// Time until `requested` logical bytes could be admitted.
    pub fn time_until_admit(&mut self, now: SimTime, requested: f64) -> Duration {
        let charge = self.predict_bytes(requested);
        self.bucket.time_until(now, charge)
    }

    /// Current `(a, b)` of the request-to-physical-bytes model.
    pub fn model_coefficients(&self) -> (f64, f64) {
        self.model.coefficients()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Cumulative counters of an engine that has flushed `flush_bytes` and
    /// compacted `l0_bytes` out of L0, each in jobs that ran for
    /// `busy_secs` in total.
    fn metrics(flush_bytes: u64, busy_secs: f64, l0_bytes: u64) -> StorageMetrics {
        let busy_nanos = (busy_secs * 1e9) as u64;
        StorageMetrics {
            flush_bytes,
            flush_count: (busy_nanos > 0) as u64,
            flush_busy_nanos: busy_nanos,
            l0_compact_bytes: l0_bytes,
            l0_compact_busy_nanos: if l0_bytes > 0 { busy_nanos } else { 0 },
            ..Default::default()
        }
    }

    #[test]
    fn admits_until_tokens_run_out() {
        let mut c = WriteController::new();
        let write = 0.6 * INITIAL_RATE;
        assert!(c.try_admit(t(0.0), write).is_ok());
        assert!(c.try_admit(t(0.0), write).is_err(), "burst exhausted");
        // Tokens refill at the initial rate.
        assert!(c.try_admit(t(1.0), write).is_ok());
    }

    #[test]
    fn capacity_tracks_observed_flush_rate() {
        let mut c = WriteController::new();
        // Saturated: 150 MB flushed by jobs running the whole 15 s
        // => 10 MB/s.
        c.estimate_capacity(t(15.0), metrics(150 << 20, 15.0, 0), 0);
        let rate = c.rate();
        assert!((rate - 10.0 * (1 << 20) as f64).abs() / rate < 0.01, "{rate}");
    }

    #[test]
    fn light_load_reads_as_disk_bandwidth_not_demand() {
        // One 4 MiB memtable flushed per 15 s on a 64 MiB/s disk: each
        // job runs 62.5 ms. Demand is 280 KB/s; capacity is the disk's.
        let disk = 64.0 * (1 << 20) as f64;
        let mut c = WriteController::new();
        for i in 1..=40u64 {
            let m = metrics(i * (4 << 20), i as f64 * 0.0625, 0);
            c.estimate_capacity(t(15.0 * i as f64), m, 0);
            assert!((c.rate() - disk).abs() / disk < 0.01, "interval {i}: {}", c.rate());
        }
    }

    #[test]
    fn l0_capacity_binds_only_under_l0_backlog() {
        let mut c = WriteController::new();
        // L0 compacts at a tenth of the flush rate, but L0 is shallow:
        // flush capacity alone sets the rate.
        let mut m = metrics(150 << 20, 15.0, 15 << 20);
        c.estimate_capacity(t(15.0), m, 0);
        let healthy = c.rate();
        assert!((healthy - 10.0 * (1 << 20) as f64).abs() / healthy < 0.01, "{healthy}");
        // Same speeds with L0 at the overload depth: half of L0 capacity.
        m.flush_bytes *= 2;
        m.flush_busy_nanos *= 2;
        m.l0_compact_bytes *= 2;
        m.l0_compact_busy_nanos *= 2;
        c.estimate_capacity(t(30.0), m, L0_OVERLOAD_FILES);
        assert!((c.rate() - 0.5 * (1 << 20) as f64).abs() / c.rate() < 0.01, "{}", c.rate());
    }

    #[test]
    fn l0_backlog_halves_rate() {
        let mut c = WriteController::new();
        c.estimate_capacity(t(15.0), metrics(150 << 20, 15.0, 150 << 20), 0);
        let healthy = c.rate();
        c.estimate_capacity(t(30.0), metrics(300 << 20, 30.0, 300 << 20), 20);
        assert!(c.rate() < healthy, "throttled under L0 backlog: {} < {healthy}", c.rate());
    }

    #[test]
    fn write_stalls_throttle_rate() {
        let mut c = WriteController::new();
        c.estimate_capacity(t(15.0), metrics(150 << 20, 15.0, 0), 0);
        let healthy = c.rate();
        // Same flush throughput, but the engine reported foreground
        // stalls this interval: intake halves even with L0 looking fine.
        let mut m = metrics(300 << 20, 30.0, 0);
        m.stall_events = 3;
        m.stall_micros = 3_000;
        c.estimate_capacity(t(30.0), m, 0);
        assert!(
            c.rate() <= healthy * 0.75,
            "stalls must throttle intake: {} vs healthy {healthy}",
            c.rate()
        );
        // A stall-free interval recovers the rate.
        let mut m2 = metrics(450 << 20, 45.0, 0);
        m2.stall_events = 3; // cumulative counter unchanged vs last interval
        m2.stall_micros = 3_000;
        c.estimate_capacity(t(45.0), m2, 0);
        assert!(c.rate() > healthy * 0.75, "recovered: {}", c.rate());
    }

    #[test]
    fn idle_interval_does_not_collapse_estimate() {
        let mut c = WriteController::new();
        c.estimate_capacity(t(15.0), metrics(150 << 20, 15.0, 0), 0);
        let rate = c.rate();
        // Nothing flushed in the next interval (idle tenant).
        c.estimate_capacity(t(30.0), metrics(150 << 20, 15.0, 0), 0);
        assert_eq!(c.rate(), rate, "idle interval keeps the estimate");
    }

    #[test]
    fn model_learns_write_amplification() {
        let mut c = WriteController::new();
        // Observe ops whose physical cost is 2x + 100 (raft + overhead).
        for i in 1..=50 {
            let x = (i * 100) as f64;
            c.observe_actual(t(i as f64), x, 2.0 * x + 100.0);
        }
        let (a, b) = c.model_coefficients();
        assert!((a - 2.0).abs() < 0.05, "a={a}");
        assert!((b - 100.0).abs() < 20.0, "b={b}");
        assert!(c.predict_bytes(1000.0) > 2000.0);
    }

    #[test]
    fn underprediction_creates_debt() {
        let mut c = WriteController::new();
        c.try_admit(t(0.0), 0.5 * INITIAL_RATE).unwrap();
        // The write actually cost six times that: the bucket goes into
        // debt and the next admit must wait.
        c.observe_actual(t(0.0), 0.5 * INITIAL_RATE, 3.0 * INITIAL_RATE);
        let wait = c.try_admit(t(0.0), 0.1 * INITIAL_RATE).unwrap_err();
        assert!(wait.as_secs_f64() > 1.0, "debt imposes wait: {wait:?}");
    }

    #[test]
    fn min_rate_floor_holds() {
        let mut c = WriteController::new();
        // Tiny observed capacity.
        c.estimate_capacity(t(15.0), metrics(10, 15.0, 10), 100);
        assert_eq!(c.rate(), MIN_RATE);
    }
}
