//! Randomized properties of the utility primitives. Each is a loop over
//! fixed seeds `0..CASES`; every assertion names its seed.

use crdb_util::bucket::TokenBucket;
use crdb_util::time::SimTime;
use crdb_util::Histogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 512;

/// A quantile is the upper edge of the bucket holding the exact order
/// statistic: never below it, and above it by at most one bucket width
/// (1/32 of the value).
#[test]
fn histogram_quantiles_bounded_error() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let mut values: Vec<u64> =
            (0..rng.gen_range(10..500)).map(|_| rng.gen_range(1..1_000_000_000)).collect();
        let q = rng.gen_range(0.01..0.99);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let approx = h.quantile(q);
        assert!(
            exact <= approx && approx - exact <= exact / 32,
            "seed {seed}: q={q} exact={exact} approx={approx}"
        );
    }
}

/// Histogram count/min/max/mean are exact regardless of bucketing.
#[test]
fn histogram_moments_exact() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let values: Vec<u64> =
            (0..rng.gen_range(1..300)).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64, "seed {seed}");
        assert_eq!(Some(h.min()), values.iter().copied().min(), "seed {seed}");
        assert_eq!(Some(h.max()), values.iter().copied().max(), "seed {seed}");
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-6, "seed {seed}: {} vs {mean}", h.mean());
    }
}

/// A token bucket never goes above burst, `try_take` succeeds iff the
/// model balance allows it, and the balance tracks the model's.
#[test]
fn token_bucket_conserves() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (rate, burst) = (rng.gen_range(1.0..1000.0), rng.gen_range(1.0..1000.0));
        let mut takes: Vec<(u64, f64)> = (0..rng.gen_range(1..100))
            .map(|_| (rng.gen_range(0..10_000), rng.gen_range(0.0..100.0)))
            .collect();
        takes.sort_by_key(|&(at_ms, _)| at_ms);

        let mut bucket = TokenBucket::new(rate, burst);
        let mut model = burst;
        let mut last = 0u64;
        for (at_ms, amount) in takes {
            model = (model + (at_ms - last) as f64 / 1e3 * rate).min(burst);
            last = at_ms;
            let now = SimTime::from_nanos(at_ms * 1_000_000);
            let ok = bucket.try_take(now, amount).is_ok();
            assert_eq!(
                ok,
                model + 1e-9 >= amount,
                "seed {seed}: at={at_ms} amount={amount} model={model}"
            );
            if ok {
                model -= amount;
            }
            let balance = bucket.available(now);
            assert!(balance <= burst, "seed {seed}: {balance} over burst at {at_ms}");
            assert!((balance - model).abs() < 1e-6, "seed {seed}: {balance} vs model {model}");
        }
    }
}
