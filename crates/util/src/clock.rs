//! The clock abstraction.
//!
//! Components that need the current time (lease expirations, metrics
//! windows, token-bucket refills) take a [`Clock`] rather than calling
//! `Instant::now()`. The discrete-event simulator owns a [`ManualClock`]
//! that it advances as events fire, which makes every run deterministic
//! and lets hours of cluster behaviour simulate in seconds.

use std::sync::Arc;

use crate::time::SimTime;

/// A source of the current virtual time.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// A manually-advanced clock, owned by the simulator (or a test).
///
/// Interior mutability (an atomic) keeps the read path lock-free; the
/// simulator is single-threaded but shares the clock with many components.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: std::sync::atomic::AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Moves the clock to `t`. Time never moves backwards; attempting to do
    /// so is a bug in the caller and panics.
    pub fn advance_to(&self, t: SimTime) {
        let prev = self.nanos.swap(t.as_nanos(), std::sync::atomic::Ordering::SeqCst);
        assert!(prev <= t.as_nanos(), "clock moved backwards: {prev} -> {}", t.as_nanos());
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: std::time::Duration) {
        let now = SimTime::from_nanos(self.nanos.load(std::sync::atomic::Ordering::SeqCst));
        self.advance_to(now + d);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(std::sync::atomic::Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(dur::ms(5));
        assert_eq!(c.now(), SimTime::from_nanos(5_000_000));
        c.advance_to(SimTime::from_secs_f64(1.0));
        assert_eq!(c.now().as_secs_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::new();
        c.advance_to(SimTime::from_nanos(100));
        c.advance_to(SimTime::from_nanos(50));
    }
}
