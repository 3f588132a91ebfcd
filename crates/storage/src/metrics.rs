//! Storage instrumentation.
//!
//! §5.1.3 estimates write capacity from "deep instrumentation of the LSM
//! implementation": the bandwidth at which memtables flush into L0 and the
//! bandwidth at which L0 compacts into lower levels. §5.1.4 fits `a·x + b`
//! linear models mapping *logical* write bytes to *actual* bytes (raft log
//! plus state machine plus write amplification). [`StorageMetrics`] provides
//! the raw counters, and [`LinearModel`] the incremental least-squares fit
//! used by admission control.

/// Number of per-source-level compaction byte counters kept (source level
/// 0 = L0). Configurations with more levels fold the excess into the last
/// slot.
pub const COMPACT_LEVELS_TRACKED: usize = 8;

/// Cumulative counters maintained by the LSM engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageMetrics {
    /// Logical bytes written by callers (keys + values in write batches
    /// and ingested tables).
    pub logical_bytes_written: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Write batches appended to the WAL.
    pub wal_batches: u64,
    /// Tables ingested whole (`Lsm::ingest_table`).
    pub ingest_tables: u64,
    /// Bytes of those tables: written once, with no WAL record.
    pub ingest_bytes: u64,
    /// Modeled fsyncs (group commits that covered at least one batch).
    pub fsyncs: u64,
    /// Batches made durable by group commits — `batches_synced / fsyncs`
    /// is the average group size (commits per fsync).
    pub batches_synced: u64,
    /// Times a write observed a stall condition (frozen-memtable or L0
    /// backlog) before being admitted.
    pub stall_events: u64,
    /// Total modeled time writes spent stalled, in microseconds.
    pub stall_micros: u64,
    /// Bytes flushed from memtables into L0 tables.
    pub flush_bytes: u64,
    /// Number of memtable flushes.
    pub flush_count: u64,
    /// Time flush jobs were running — from claim to completion, as
    /// metered by the embedder's modeled disk — in nanoseconds.
    /// `flush_bytes` over this, not over wall time, is the flush
    /// *capacity*: an engine that flushed 4 MiB in a quarter minute
    /// because that is all it was given is not a slow engine.
    pub flush_busy_nanos: u64,
    /// Bytes read by compactions.
    pub compact_bytes_in: u64,
    /// Bytes written by compactions.
    pub compact_bytes_out: u64,
    /// Number of compactions.
    pub compact_count: u64,
    /// Bytes compacted out of L0 specifically (the §5.1.3 bottleneck).
    pub l0_compact_bytes: u64,
    /// Time L0→L1 compaction jobs were running, in nanoseconds (see
    /// `flush_busy_nanos`).
    pub l0_compact_busy_nanos: u64,
    /// Compaction input bytes per source level (`[0]` = L0→L1 jobs).
    pub compact_bytes_per_level: [u64; COMPACT_LEVELS_TRACKED],
    /// Entries a compaction's filter dropped (the KV layer's MVCC GC:
    /// versions no supported read can reach).
    pub gc_versions_dropped: u64,
    /// Key + value bytes of those entries.
    pub gc_bytes_dropped: u64,
    /// Point lookups served (`Lsm::get`).
    pub point_gets: u64,
    /// Tables whose entries were actually binary-searched by point gets.
    pub tables_probed: u64,
    /// Bloom filter consultations on the point-get path.
    pub bloom_probes: u64,
    /// Bloom consultations that excluded the table (probe avoided).
    pub bloom_hits: u64,
    /// Range scans served (`Lsm::scan` / iterator scans).
    pub scans: u64,
    /// Entries pulled out of the merge heap by scans (live + shadowed +
    /// tombstoned), before limit/tombstone filtering.
    pub scan_entries_pulled: u64,
    /// Live entries actually returned to scan callers.
    pub scan_entries_returned: u64,
}

impl StorageMetrics {
    /// Total physical write bytes: WAL + flush + compaction output +
    /// ingested tables.
    pub fn physical_write_bytes(&self) -> u64 {
        self.wal_bytes + self.flush_bytes + self.compact_bytes_out + self.ingest_bytes
    }

    /// Write amplification: physical bytes per logical byte.
    pub fn write_amplification(&self) -> f64 {
        if self.logical_bytes_written == 0 {
            0.0
        } else {
            self.physical_write_bytes() as f64 / self.logical_bytes_written as f64
        }
    }

    /// Fraction of bloom consultations that excluded a table — the
    /// fraction of point-read table probes the filters saved.
    pub fn bloom_hit_rate(&self) -> f64 {
        if self.bloom_probes == 0 {
            0.0
        } else {
            self.bloom_hits as f64 / self.bloom_probes as f64
        }
    }

    /// Average tables binary-searched per point get.
    pub fn tables_probed_per_get(&self) -> f64 {
        if self.point_gets == 0 {
            0.0
        } else {
            self.tables_probed as f64 / self.point_gets as f64
        }
    }

    /// Average number of batches committed per modeled fsync — the group
    /// commit ratio. 1.0 means no grouping (one fsync per batch).
    pub fn batches_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.batches_synced as f64 / self.fsyncs as f64
        }
    }

    /// Difference of two snapshots (`self` minus `earlier`), for interval
    /// rate estimation.
    pub fn delta(&self, earlier: &StorageMetrics) -> StorageMetrics {
        let mut compact_bytes_per_level = [0u64; COMPACT_LEVELS_TRACKED];
        let pairs = self.compact_bytes_per_level.iter().zip(&earlier.compact_bytes_per_level);
        for (slot, (now, then)) in compact_bytes_per_level.iter_mut().zip(pairs) {
            *slot = now - then;
        }
        StorageMetrics {
            logical_bytes_written: self.logical_bytes_written - earlier.logical_bytes_written,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_batches: self.wal_batches - earlier.wal_batches,
            ingest_tables: self.ingest_tables - earlier.ingest_tables,
            ingest_bytes: self.ingest_bytes - earlier.ingest_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            batches_synced: self.batches_synced - earlier.batches_synced,
            stall_events: self.stall_events - earlier.stall_events,
            stall_micros: self.stall_micros - earlier.stall_micros,
            compact_bytes_per_level,
            flush_bytes: self.flush_bytes - earlier.flush_bytes,
            flush_count: self.flush_count - earlier.flush_count,
            flush_busy_nanos: self.flush_busy_nanos - earlier.flush_busy_nanos,
            compact_bytes_in: self.compact_bytes_in - earlier.compact_bytes_in,
            compact_bytes_out: self.compact_bytes_out - earlier.compact_bytes_out,
            compact_count: self.compact_count - earlier.compact_count,
            l0_compact_bytes: self.l0_compact_bytes - earlier.l0_compact_bytes,
            l0_compact_busy_nanos: self.l0_compact_busy_nanos - earlier.l0_compact_busy_nanos,
            gc_versions_dropped: self.gc_versions_dropped - earlier.gc_versions_dropped,
            gc_bytes_dropped: self.gc_bytes_dropped - earlier.gc_bytes_dropped,
            point_gets: self.point_gets - earlier.point_gets,
            tables_probed: self.tables_probed - earlier.tables_probed,
            bloom_probes: self.bloom_probes - earlier.bloom_probes,
            bloom_hits: self.bloom_hits - earlier.bloom_hits,
            scans: self.scans - earlier.scans,
            scan_entries_pulled: self.scan_entries_pulled - earlier.scan_entries_pulled,
            scan_entries_returned: self.scan_entries_returned - earlier.scan_entries_returned,
        }
    }
}

/// An incrementally-fitted simple linear regression `y = a·x + b`.
///
/// Admission control fits these per operation type to predict actual write
/// bytes from requested write bytes (§5.1.4). The fit is an exponentially
/// decayed least squares so the model tracks workload shifts.
#[derive(Debug, Clone)]
pub struct LinearModel {
    decay: f64,
    n: f64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl LinearModel {
    /// Creates a model with per-sample decay factor `decay` in `(0, 1]`
    /// (1.0 = ordinary least squares over all samples).
    pub fn new(decay: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0);
        LinearModel { decay, n: 0.0, sum_x: 0.0, sum_y: 0.0, sum_xx: 0.0, sum_xy: 0.0 }
    }

    /// Observes a sample `(x, y)`.
    pub fn observe(&mut self, x: f64, y: f64) {
        self.n = self.n * self.decay + 1.0;
        self.sum_x = self.sum_x * self.decay + x;
        self.sum_y = self.sum_y * self.decay + y;
        self.sum_xx = self.sum_xx * self.decay + x * x;
        self.sum_xy = self.sum_xy * self.decay + x * y;
    }

    /// Current `(a, b)` coefficients. Falls back to a ratio model when x
    /// has no variance, and to `(1, 0)` with no data.
    pub fn coefficients(&self) -> (f64, f64) {
        if self.n < 2.0 {
            if self.n >= 1.0 && self.sum_x > 0.0 {
                return (self.sum_y / self.sum_x, 0.0);
            }
            return (1.0, 0.0);
        }
        let det = self.n * self.sum_xx - self.sum_x * self.sum_x;
        if det.abs() < 1e-9 {
            if self.sum_x > 0.0 {
                return (self.sum_y / self.sum_x, 0.0);
            }
            return (1.0, 0.0);
        }
        let a = (self.n * self.sum_xy - self.sum_x * self.sum_y) / det;
        let b = (self.sum_y - a * self.sum_x) / self.n;
        (a, b)
    }

    /// Predicts y for a given x, clamped to be non-negative.
    pub fn predict(&self, x: f64) -> f64 {
        let (a, b) = self.coefficients();
        (a * x + b).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amp_is_physical_over_logical() {
        let m = StorageMetrics {
            logical_bytes_written: 100,
            wal_bytes: 110,
            flush_bytes: 100,
            compact_bytes_out: 190,
            ingest_bytes: 100,
            ..Default::default()
        };
        assert_eq!(m.physical_write_bytes(), 500);
        assert!((m.write_amplification() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts() {
        let mut a = StorageMetrics { flush_bytes: 100, flush_count: 2, ..Default::default() };
        a.fsyncs = 3;
        a.compact_bytes_per_level[0] = 10;
        let mut b = StorageMetrics { flush_bytes: 350, flush_count: 5, ..Default::default() };
        b.fsyncs = 10;
        b.compact_bytes_per_level[0] = 250;
        let d = b.delta(&a);
        assert_eq!(d.flush_bytes, 250);
        assert_eq!(d.flush_count, 3);
        assert_eq!(d.fsyncs, 7);
        assert_eq!(d.compact_bytes_per_level[0], 240);
    }

    #[test]
    fn batches_per_fsync_is_group_size() {
        let m = StorageMetrics { fsyncs: 4, batches_synced: 32, ..Default::default() };
        assert!((m.batches_per_fsync() - 8.0).abs() < 1e-9);
        assert_eq!(StorageMetrics::default().batches_per_fsync(), 0.0);
    }

    #[test]
    fn linear_model_recovers_exact_line() {
        let mut m = LinearModel::new(1.0);
        for x in 1..=20 {
            let x = x as f64;
            m.observe(x, 3.0 * x + 7.0);
        }
        let (a, b) = m.coefficients();
        assert!((a - 3.0).abs() < 1e-9, "a={a}");
        assert!((b - 7.0).abs() < 1e-9, "b={b}");
        assert!((m.predict(100.0) - 307.0).abs() < 1e-6);
    }

    #[test]
    fn linear_model_degenerate_cases() {
        let empty = LinearModel::new(1.0);
        assert_eq!(empty.coefficients(), (1.0, 0.0));
        let mut one = LinearModel::new(1.0);
        one.observe(10.0, 30.0);
        let (a, _) = one.coefficients();
        assert!((a - 3.0).abs() < 1e-9, "ratio fallback: a={a}");
        let mut same_x = LinearModel::new(1.0);
        same_x.observe(5.0, 10.0);
        same_x.observe(5.0, 20.0);
        let (a, b) = same_x.coefficients();
        assert!((a - 3.0).abs() < 1e-9 && b == 0.0, "no-variance fallback: {a} {b}");
    }

    #[test]
    fn decay_tracks_regime_change() {
        let mut m = LinearModel::new(0.5);
        for x in 1..=50 {
            m.observe(x as f64, 2.0 * x as f64);
        }
        for x in 1..=50 {
            m.observe(x as f64, 10.0 * x as f64);
        }
        let (a, _) = m.coefficients();
        assert!((a - 10.0).abs() < 0.5, "decayed fit follows new slope: {a}");
    }

    #[test]
    fn prediction_never_negative() {
        let mut m = LinearModel::new(1.0);
        m.observe(1.0, 0.0);
        m.observe(2.0, 0.0);
        assert_eq!(m.predict(-100.0), 0.0);
    }
}
