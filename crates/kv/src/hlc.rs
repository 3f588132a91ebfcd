//! Hybrid logical clock timestamps.
//!
//! MVCC versions are ordered by `(wall nanoseconds, logical counter)`. The
//! logical component disambiguates events in the same simulated instant —
//! common in a discrete-event simulation where many operations share a
//! firing time.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use crdb_util::time::SimTime;

/// An MVCC timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// Wall component: nanoseconds of virtual time.
    pub wall: u64,
    /// Logical tie-breaker.
    pub logical: u32,
}

impl Timestamp {
    /// The zero timestamp (before all writes).
    pub const ZERO: Timestamp = Timestamp { wall: 0, logical: 0 };

    /// The maximum timestamp.
    pub const MAX: Timestamp = Timestamp { wall: u64::MAX, logical: u32::MAX };

    /// A timestamp at the given instant with logical 0.
    pub fn at(t: SimTime) -> Timestamp {
        Timestamp { wall: t.as_nanos(), logical: 0 }
    }

    /// The next representable timestamp.
    pub fn next(self) -> Timestamp {
        if self.logical == u32::MAX {
            Timestamp { wall: self.wall + 1, logical: 0 }
        } else {
            Timestamp { wall: self.wall, logical: self.logical + 1 }
        }
    }

    /// The instant of the wall component.
    pub fn to_sim_time(self) -> SimTime {
        SimTime::from_nanos(self.wall)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:09},{}", self.wall / 1_000_000_000, self.wall % 1_000_000_000, self.logical)
    }
}

/// A hybrid logical clock: issues monotonically increasing timestamps that
/// never run behind the supplied wall clock. The cluster holds the one
/// that stamps every transaction, and so every MVCC version.
#[derive(Clone)]
pub struct Hlc {
    last: Rc<Cell<Timestamp>>,
}

impl Hlc {
    /// Creates an HLC starting at zero.
    pub fn new() -> Self {
        Hlc { last: Rc::new(Cell::new(Timestamp::ZERO)) }
    }

    /// Issues a timestamp at or after `now`, strictly after any previously
    /// issued timestamp.
    pub fn now(&self, now: SimTime) -> Timestamp {
        let wall = now.as_nanos();
        let last = self.last.get();
        let next = if wall > last.wall { Timestamp { wall, logical: 0 } } else { last.next() };
        self.last.set(next);
        next
    }
}

impl Default for Hlc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        let a = Timestamp { wall: 5, logical: 0 };
        let b = Timestamp { wall: 5, logical: 1 };
        let c = Timestamp { wall: 6, logical: 0 };
        assert!(a < b && b < c);
        assert_eq!(a.next(), b);
    }

    #[test]
    fn hlc_is_strictly_monotonic() {
        let hlc = Hlc::new();
        let t1 = hlc.now(SimTime::from_nanos(100));
        let t2 = hlc.now(SimTime::from_nanos(100));
        let t3 = hlc.now(SimTime::from_nanos(50)); // clock stalled
        assert!(t1 < t2 && t2 < t3);
        let t4 = hlc.now(SimTime::from_nanos(200));
        assert!(t3 < t4);
        assert_eq!(t4.wall, 200);
        assert_eq!(t4.logical, 0);
    }

    #[test]
    fn display_is_readable() {
        let t = Timestamp { wall: 1_500_000_000, logical: 2 };
        assert_eq!(t.to_string(), "1.500000000,2");
    }
}
