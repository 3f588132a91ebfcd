//! Exact-sample statistics: percentiles over raw samples, the quartile
//! spread the benchmark contract uses, and the `sim_digest` hash.

/// Samples a tail percentile needs before `perf` reports it: the 99th
/// percentile of fewer than 1,000 samples rests on under ten values.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    sorted.get(idx).copied().unwrap_or(0)
}

/// The tail percentile the sample count supports: p99 with at least
/// [`P99_MIN_SAMPLES`] samples, otherwise p95, with its label.
pub fn tail(sorted: &[u64]) -> (&'static str, u64) {
    if sorted.len() >= P99_MIN_SAMPLES {
        ("p99", percentile(sorted, 0.99))
    } else {
        ("p95", percentile(sorted, 0.95))
    }
}

/// Median of unordered values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match (v.get(n / 2), v.get(n.saturating_sub(1) / 2)) {
        (Some(hi), Some(lo)) => (hi + lo) / 2.0,
        _ => 0.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), which is what the benchmark
/// contract's spread check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| -> Option<f64> {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        Some((v.get(j - 1)? * (4.0 - delta) + v.get(j)? * delta) / 4.0)
    };
    Some((cut(1)?, cut(3)?))
}

/// Interquartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// FNV-1a, 64 bit: the `sim_digest` hash. Not cryptographic; it only has
/// to make "every simulated statistic identical" a one-number check.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_falls_back_to_p95_below_1000_samples() {
        let small: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&small), ("p95", 950));
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&big), ("p99", 990));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::new();
        a.u64(1);
        a.bytes(b"x");
        let mut b = Digest::new();
        b.u64(1);
        b.bytes(b"y");
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.u64(1);
        c.bytes(b"x");
        assert_eq!(a.finish(), c.finish());
    }
}
