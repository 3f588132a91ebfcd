//! A log-bucketed histogram with percentile queries.
//!
//! The evaluation reports p50/p99 latencies (Table 1, Fig. 10). We use an
//! HDR-style histogram: values are bucketed with a fixed relative precision
//! (~1.5% per bucket), so memory stays bounded no matter how many samples
//! are recorded, while percentiles remain accurate enough for the shapes the
//! paper reports.
//!
//! Storage is sparse: an empty histogram owns no heap memory and a
//! populated one holds one `(bucket, count)` pair per distinct bucket it
//! has seen, so a histogram kept per tenant or per node costs what its
//! owner recorded, not the 1,920-bucket range a `u64` can reach.

use std::time::Duration;

/// Number of linear sub-buckets per power-of-two bucket. 64 sub-buckets
/// yields a worst-case relative error of 1/64 ≈ 1.6%.
const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)

/// A histogram over non-negative `u64` values (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `(bucket index, count)` for every bucket with a non-zero count,
    /// sorted by index.
    counts: Vec<(u16, u64)>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram. Allocates nothing.
    pub const fn new() -> Self {
        Histogram { counts: Vec::new(), total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// The bucket holding `value`; at most 1,919 (`u64::MAX`), so it fits
    /// the `u16` the sparse table keys on.
    fn index(value: u64) -> u16 {
        if value < SUB_BUCKETS as u64 {
            return value as u16;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS + 1;
        let sub = (value >> shift) as usize - SUB_BUCKETS / 2;
        // Level 0 holds [0, 64); each subsequent level holds 32 buckets of
        // doubling width. Layout keeps indices monotonic in value.
        (((exp - SUB_BITS + 1) as usize) * (SUB_BUCKETS / 2) + SUB_BUCKETS / 2 + sub) as u16
    }

    fn bucket_high(index: u16) -> u64 {
        let index = usize::from(index);
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let level = (index - SUB_BUCKETS / 2) / (SUB_BUCKETS / 2);
        let sub = (index - SUB_BUCKETS / 2) % (SUB_BUCKETS / 2) + SUB_BUCKETS / 2;
        let shift = level as u32;
        // The last bucket's bound is 2^64 - 1: the shift drops the carry
        // and the subtraction wraps back to it.
        ((sub as u64 + 1) << shift).wrapping_sub(1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index(value);
        match self.counts.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => {
                if let Some((_, count)) = self.counts.get_mut(pos) {
                    *count += 1;
                }
            }
            Err(pos) => self.counts.insert(pos, (idx, 1)),
        }
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a `Duration` observation in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded observations, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at quantile `q` in `[0, 1]`; exact endpoints return the
    /// recorded min/max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// The quantile as a `Duration`, interpreting values as nanoseconds.
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        // Values below SUB_BUCKETS are stored exactly.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        let values = [100u64, 1_000, 10_000, 123_456, 9_999_999, 1 << 40];
        for &v in &values {
            let mut h1 = Histogram::new();
            h1.record(v);
            let got = h1.quantile(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.04, "value {v} -> {got}, err {err}");
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn percentiles_of_uniform_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1ms .. 10s in us
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.05, "p50={p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn largest_value_lands_in_the_last_bucket() {
        assert_eq!(Histogram::index(u64::MAX), 1919);
        assert_eq!(Histogram::bucket_high(1919), u64::MAX);
    }

    #[test]
    fn indices_are_monotonic_in_value() {
        let mut last = 0u16;
        for v in (0..1_000_000u64).step_by(997) {
            let idx = Histogram::index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
        }
    }
}
