//! The sparse `Histogram` against the dense array it replaced.
//!
//! `Dense` is the previous implementation, kept here as the reference
//! model: 4,096 counters allocated up front, the same bucket function.
//! Every figure, gate and invariant in the repository reads quantiles, so
//! the two must agree on every statistic for every stream — and the
//! sparse one must cost nothing until it is used.

use crdb_util::Histogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6;

struct Dense {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Self {
        Dense { counts: vec![0; 64 * SUB_BUCKETS], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS + 1;
        let sub = (value >> shift) as usize - SUB_BUCKETS / 2;
        ((exp - SUB_BITS + 1) as usize) * (SUB_BUCKETS / 2) + SUB_BUCKETS / 2 + sub
    }

    fn bucket_high(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let level = (index - SUB_BUCKETS / 2) / (SUB_BUCKETS / 2);
        let sub = (index - SUB_BUCKETS / 2) % (SUB_BUCKETS / 2) + SUB_BUCKETS / 2;
        ((sub as u64 + 1) << level as u32) - 1
    }

    fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    fn quantile(&self, q: f64) -> u64 {
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
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// One value of a seeded stream. Each seed picks a shape: a handful of
/// repeated values, a narrow latency-like band, every magnitude from 0 to
/// 2^63, or the bucket edges themselves.
fn value(shape: u64, rng: &mut SmallRng) -> u64 {
    match shape % 4 {
        0 => [0, 1, 63, 64, 500_000, 1 << 63][rng.gen_range(0..6)],
        1 => rng.gen_range(200_000..900_000),
        2 => (rng.gen::<u64>() >> rng.gen_range(1..64)).min(1 << 63),
        _ => {
            let edge = 1u64 << rng.gen_range(0..64);
            edge.wrapping_add(rng.gen_range(0..3)).wrapping_sub(1).min(1 << 63)
        }
    }
}

fn assert_agree(label: &str, sparse: &Histogram, dense: &Dense) {
    assert_eq!(sparse.count(), dense.total, "{label}: count");
    assert_eq!(sparse.min(), dense.min(), "{label}: min");
    assert_eq!(sparse.max(), dense.max(), "{label}: max");
    assert_eq!(sparse.mean().to_bits(), dense.mean().to_bits(), "{label}: mean");
    for step in 0..=100 {
        let q = f64::from(step) / 100.0;
        assert_eq!(sparse.quantile(q), dense.quantile(q), "{label}: quantile({q})");
    }
}

#[test]
fn sparse_histogram_matches_the_dense_reference() {
    assert_agree("empty", &Histogram::new(), &Dense::new());
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut sparse, mut dense) = (Histogram::new(), Dense::new());
        let len = [1, 2, 10, 1_000, 5_000][rng.gen_range(0..5)];
        for n in 0..len {
            let v = value(seed, &mut rng);
            sparse.record(v);
            dense.record(v);
            // Partway too: quantiles over a growing stream.
            if n == len / 3 {
                assert_agree(&format!("seed {seed} after {n}"), &sparse, &dense);
            }
        }
        assert_agree(&format!("seed {seed}"), &sparse, &dense);
    }
}

#[test]
fn an_unused_histogram_owns_no_heap_and_a_used_one_only_its_buckets() {
    let (allocations, live) = (counting_alloc::allocations(), counting_alloc::live_bytes());
    let mut h = Histogram::new();
    let empty = (h.count(), h.quantile(0.99), h.mean(), h.clone().max());
    assert_eq!(counting_alloc::allocations(), allocations, "Histogram::new() allocated");
    assert_eq!(empty, (0, 0, 0.0, 0));

    // A million samples in one narrow band: a few dozen buckets, not the
    // 32 KiB of the full range.
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..1_000_000 {
        h.record(rng.gen_range(300_000..600_000));
    }
    let held = counting_alloc::live_bytes() - live;
    assert!(held <= 1024, "a one-octave histogram holds {held} B");
    drop(h);
    assert_eq!(counting_alloc::live_bytes(), live);
}
