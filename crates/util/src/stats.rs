//! Smoothed statistics.
//!
//! Admission control orders tenants by *resource consumed over a recent
//! interval* (§5.1.2) and smooths its write-capacity estimates;
//! [`DecayingCounter`] and [`Ewma`] provide the two.

use std::time::Duration;

use crate::time::SimTime;

/// An exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; higher
    /// alpha weights recent samples more.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Folds in a new sample and returns the updated average.
    pub fn record(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current smoothed value, or 0 before any sample.
    pub fn get(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// A counter whose value decays exponentially with a configured half-life.
///
/// Admission control uses this as the "resource consumed over a recent
/// interval" signal that orders the tenant heap (§5.1.2): tenants that
/// consumed recently sink, tenants that have been waiting rise.
#[derive(Debug, Clone)]
pub struct DecayingCounter {
    half_life: Duration,
    value: f64,
    last: SimTime,
}

impl DecayingCounter {
    /// Creates a counter decaying with the given half-life.
    pub fn new(half_life: Duration) -> Self {
        assert!(half_life > Duration::ZERO);
        DecayingCounter { half_life, value: 0.0, last: SimTime::ZERO }
    }

    fn decay_to(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        if dt > 0.0 {
            let hl = self.half_life.as_secs_f64();
            self.value *= 0.5f64.powf(dt / hl);
            self.last = now;
        }
    }

    /// Adds `amount` at time `now`.
    pub fn add(&mut self, now: SimTime, amount: f64) {
        self.decay_to(now);
        self.value += amount;
    }

    /// The decayed value as of `now`.
    pub fn get(&mut self, now: SimTime) -> f64 {
        self.decay_to(now);
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.5);
        for _ in 0..30 {
            e.record(10.0);
        }
        assert!((e.get() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.record(42.0), 42.0);
    }

    #[test]
    fn decaying_counter_halves_per_half_life() {
        let mut c = DecayingCounter::new(dur::secs(10));
        c.add(SimTime::ZERO, 8.0);
        let v = c.get(SimTime::from_secs_f64(10.0));
        assert!((v - 4.0).abs() < 1e-9, "{v}");
        let v = c.get(SimTime::from_secs_f64(30.0));
        assert!((v - 1.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn decaying_counter_accumulates() {
        let mut c = DecayingCounter::new(dur::secs(1000));
        c.add(SimTime::ZERO, 1.0);
        c.add(SimTime::from_secs_f64(0.001), 2.0);
        assert!(c.get(SimTime::from_secs_f64(0.002)) > 2.9);
    }
}
