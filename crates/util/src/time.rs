//! Virtual time.
//!
//! All components in this workspace express time as a [`SimTime`] — an
//! absolute instant measured in nanoseconds since the start of a run — and
//! `std::time::Duration` for spans. The discrete-event simulator advances
//! `SimTime` directly.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant in virtual time, in nanoseconds since run start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far in the future; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs a time from whole nanoseconds since run start.
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Constructs a time from fractional seconds since run start.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since run start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since run start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, d: Duration) -> SimTime {
        self.saturating_add(d)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, other: SimTime) -> Duration {
        self.duration_since(other)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Convenience constructors for durations, used throughout the workspace to
/// keep experiment configuration readable.
pub mod dur {
    use std::time::Duration;

    /// Whole microseconds.
    pub fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// Whole milliseconds.
    pub fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Whole seconds.
    pub fn secs(n: u64) -> Duration {
        Duration::from_secs(n)
    }

    /// Whole minutes.
    pub fn mins(n: u64) -> Duration {
        Duration::from_secs(n * 60)
    }

    /// Fractional seconds.
    pub fn secs_f64(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        let t2 = t + Duration::from_millis(250);
        assert!((t2.as_secs_f64() - 1.75).abs() < 1e-12);
        assert_eq!(t2 - t, Duration::from_millis(250));
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(200);
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!(b.duration_since(a), Duration::from_nanos(100));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs_f64(2.0) > SimTime::from_secs_f64(1.0));
        assert_eq!(SimTime::MAX.as_nanos(), u64::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250s");
    }
}
