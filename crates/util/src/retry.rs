//! Shared retry, deadline, and circuit-breaker primitives (the
//! degradation side of the failure-domain layer).
//!
//! Every component that retries a downstream call — the KV client's
//! DistSender loops, the warm pool's pod-start retries, the proxy's
//! auth throttle — expresses its policy as a [`RetryPolicy`]: one
//! backoff formula with an explicit budget, instead of ad-hoc
//! constants scattered per call site. Policies are pure functions of
//! the attempt number, so same-seed simulation runs stay
//! byte-identical.
//!
//! A [`Deadline`] is an absolute virtual-time bound carried with a
//! request as it descends proxy → SQL coordinator → KV client → KV
//! node. The single enforcement rule: **no component may schedule a
//! retry that lands past the caller's deadline** —
//! [`RetryPolicy::next_delay`] is the one place that rule is applied.
//!
//! A [`Breaker`] is a per-target circuit breaker
//! (Closed → Open → HalfOpen) that converts repeated downstream
//! failures into fast local failures, bounding the blast radius of a
//! dark zone or region.

use std::cell::Cell;
use std::time::Duration;

use crate::time::SimTime;

/// An absolute deadline in virtual time, carried with a request across
/// component boundaries.
///
/// [`Deadline::NONE`] (the default) means "no deadline" and behaves as
/// an infinitely-late bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Deadline(SimTime);

impl Deadline {
    /// No deadline: an infinitely-late bound.
    pub const NONE: Deadline = Deadline(SimTime::MAX);

    /// A deadline at the given absolute instant.
    pub fn at(t: SimTime) -> Deadline {
        Deadline(t)
    }

    /// The absolute instant of this deadline ([`SimTime::MAX`] for
    /// [`Deadline::NONE`]).
    pub fn time(self) -> SimTime {
        self.0
    }

    /// Whether the deadline has passed at `now`.
    pub fn expired(self, now: SimTime) -> bool {
        now >= self.0
    }

    /// Time remaining until the deadline (zero once expired).
    pub fn remaining(self, now: SimTime) -> Duration {
        self.0.duration_since(now)
    }

    /// The earlier of two deadlines.
    pub fn min(self, other: Deadline) -> Deadline {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Whether an action scheduled `delay` from `now` would still land
    /// at or before the deadline.
    pub fn allows(self, now: SimTime, delay: Duration) -> bool {
        now.saturating_add(delay) <= self.0
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::NONE
    }
}

/// How the backoff grows with the attempt number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Growth {
    /// `base * 2^attempt`, saturating.
    Exponential,
    /// `base + step * attempt`, saturating.
    Linear {
        /// Additive increment per attempt.
        step: Duration,
    },
}

/// A bounded retry policy: one backoff formula plus an explicit budget.
///
/// `delay(n)` is the pause scheduled *after* the `n`-th failed attempt
/// (0-based). Once `n >= budget` the policy is exhausted and returns
/// `None` — the caller must fail the operation instead of retrying.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Growth curve.
    pub growth: Growth,
    /// Maximum number of retries (not counting the initial attempt).
    pub budget: u32,
}

impl RetryPolicy {
    /// An exponential policy `base * 2^n`, capped, with the given
    /// retry budget.
    pub fn exponential(base: Duration, cap: Duration, budget: u32) -> RetryPolicy {
        RetryPolicy { base, cap, growth: Growth::Exponential, budget }
    }

    /// A linear policy `base + step * n`, capped, with the given retry
    /// budget.
    pub fn linear(base: Duration, step: Duration, cap: Duration, budget: u32) -> RetryPolicy {
        RetryPolicy { base, cap, growth: Growth::Linear { step }, budget }
    }

    /// The backoff to schedule after failed attempt `attempt`
    /// (0-based), or `None` when the retry budget is exhausted.
    pub fn delay(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.budget {
            return None;
        }
        let base = self.base.as_nanos().min(u64::MAX as u128) as u64;
        let cap = self.cap.as_nanos().min(u64::MAX as u128) as u64;
        let raw = match self.growth {
            Growth::Exponential => {
                if attempt >= 64 {
                    u64::MAX
                } else {
                    base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                }
            }
            Growth::Linear { step } => {
                let step = step.as_nanos().min(u64::MAX as u128) as u64;
                base.saturating_add(step.saturating_mul(attempt as u64))
            }
        };
        Some(Duration::from_nanos(raw.min(cap)))
    }

    /// The backoff after failed attempt `attempt`, additionally
    /// refusing any retry that would land past `deadline`. This is the
    /// deadline-propagation enforcement point: a `None` here means the
    /// caller must surface a terminal error (budget exhausted or
    /// deadline would be violated), never sleep past the deadline.
    pub fn next_delay(&self, attempt: u32, now: SimTime, deadline: Deadline) -> Option<Duration> {
        let d = self.delay(attempt)?;
        if !deadline.allows(now, d) {
            return None;
        }
        Some(d)
    }
}

/// Consecutive failures that trip a [`Breaker`] open.
const BREAKER_FAILURE_THRESHOLD: u32 = 5;
/// How long a tripped [`Breaker`] stays open before admitting its probe.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(3);

/// Observable breaker state at a given instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: limited probes are allowed through.
    HalfOpen,
}

/// A per-target circuit breaker: after `BREAKER_FAILURE_THRESHOLD`
/// consecutive failures it opens and [`Breaker::allow`] answers `false`
/// (the caller fails fast with `Unavailable`) until `BREAKER_COOLDOWN`
/// has elapsed, at which point one probe request is let through; a probe
/// success closes the breaker, a probe failure re-opens it for another
/// cooldown.
///
/// Time is passed in explicitly so the breaker stays clock-agnostic
/// and deterministic under simulation.
#[derive(Debug, Default)]
pub struct Breaker {
    consecutive_failures: Cell<u32>,
    open_until: Cell<Option<SimTime>>,
    probe_in_flight: Cell<bool>,
    trips: Cell<u64>,
}

impl Breaker {
    /// A closed breaker.
    pub fn new() -> Breaker {
        Breaker::default()
    }

    /// The breaker's state at `now`.
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.open_until.get() {
            None => BreakerState::Closed,
            Some(until) if now < until => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// Whether a request may be sent at `now`. In half-open state only
    /// one probe is admitted at a time.
    pub fn allow(&self, now: SimTime) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_in_flight.replace(true),
        }
    }

    /// Records a successful response: the breaker closes, whatever its
    /// state.
    pub fn record_success(&self) {
        self.consecutive_failures.set(0);
        self.open_until.set(None);
        self.probe_in_flight.set(false);
    }

    /// Records a failed response (or timeout) observed at `now`.
    pub fn record_failure(&self, now: SimTime) {
        match self.state(now) {
            // Failed probe: back to a full cooldown.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
            BreakerState::Closed => {
                let n = self.consecutive_failures.get() + 1;
                self.consecutive_failures.set(n);
                if n >= BREAKER_FAILURE_THRESHOLD {
                    self.trip(now);
                }
            }
        }
    }

    fn trip(&self, now: SimTime) {
        self.open_until.set(Some(now + BREAKER_COOLDOWN));
        self.probe_in_flight.set(false);
        self.trips.set(self.trips.get() + 1);
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    // Satellite 1 regression anchors: each policy below must reproduce
    // the pre-existing hand-rolled backoff formula bit-for-bit.

    #[test]
    fn exponential_matches_kv_routing_formula() {
        // Legacy: dur::ms((50u64 << n.min(5)).min(1600)), 16 retries.
        let p = RetryPolicy::exponential(dur::ms(50), dur::ms(1600), 16);
        for n in 0..16u32 {
            let legacy = dur::ms((50u64 << n.min(5)).min(1600));
            assert_eq!(p.delay(n), Some(legacy), "attempt {n}");
        }
        assert_eq!(p.delay(16), None);
    }

    #[test]
    fn linear_matches_kv_conflict_formula() {
        // Legacy: dur::ms((1 + 2*n).min(32)), 32 retries.
        let p = RetryPolicy::linear(dur::ms(1), dur::ms(2), dur::ms(32), 32);
        for n in 0..32u32 {
            let legacy = dur::ms((1 + 2 * n as u64).min(32));
            assert_eq!(p.delay(n), Some(legacy), "attempt {n}");
        }
        assert_eq!(p.delay(32), None);
    }

    #[test]
    fn exponential_matches_pool_start_formula() {
        // Legacy: (250ms * 2^attempt.min(6)).min(4s), unbounded budget.
        let p = RetryPolicy::exponential(dur::ms(250), dur::secs(4), u32::MAX);
        for n in 0..20u32 {
            let legacy = (dur::ms(250) * 2u32.pow(n.min(6))).min(dur::secs(4));
            assert_eq!(p.delay(n), Some(legacy), "attempt {n}");
        }
    }

    #[test]
    fn exponential_matches_proxy_auth_formula() {
        // Legacy: exp = failures.saturating_sub(1).min(10);
        // (1s * 2^exp).min(60s). Attempt n = failures - 1.
        let p = RetryPolicy::exponential(dur::secs(1), dur::secs(60), u32::MAX);
        for failures in 1..20u32 {
            let exp = failures.saturating_sub(1).min(10);
            let legacy = (dur::secs(1) * 2u32.pow(exp)).min(dur::secs(60));
            assert_eq!(p.delay(failures - 1), Some(legacy), "failures {failures}");
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let p = RetryPolicy::exponential(dur::ms(10), dur::ms(100), 3);
        assert!(p.delay(0).is_some());
        assert!(p.delay(2).is_some());
        assert_eq!(p.delay(3), None);
        assert_eq!(p.delay(100), None);
    }

    #[test]
    fn next_delay_refuses_retry_past_deadline() {
        let p = RetryPolicy::exponential(dur::ms(100), dur::secs(10), 10);
        let now = SimTime::from_nanos(0);
        let deadline = Deadline::at(now + dur::ms(150));
        // First retry (100ms) fits; second (200ms) would land past.
        assert_eq!(p.next_delay(0, now, deadline), Some(dur::ms(100)));
        assert_eq!(p.next_delay(1, now, deadline), None);
        // An already-expired deadline refuses everything.
        let late = now + dur::secs(1);
        assert_eq!(p.next_delay(0, late, deadline), None);
        // No deadline allows everything the budget allows.
        assert_eq!(p.next_delay(1, now, Deadline::NONE), Some(dur::ms(200)));
    }

    #[test]
    fn deadline_basics() {
        let t0 = SimTime::from_nanos(0);
        let t1 = t0 + dur::secs(1);
        let d = Deadline::at(t1);
        assert!(!d.expired(t0));
        assert!(d.expired(t1));
        assert_eq!(d.remaining(t0), dur::secs(1));
        assert_eq!(d.remaining(t1 + dur::secs(1)), Duration::ZERO);
        assert_eq!(d.min(Deadline::NONE), d);
        assert_eq!(Deadline::NONE.min(d), d);
        assert!(Deadline::NONE.allows(t0, dur::secs(1_000_000)));
        assert!(d.allows(t0, dur::secs(1)));
        assert!(!d.allows(t0, dur::secs(1) + Duration::from_nanos(1)));
        assert!(!Deadline::NONE.expired(t0 + dur::secs(1_000_000)));
    }

    #[test]
    fn breaker_trips_cools_down_and_recovers() {
        let b = Breaker::new();
        let t0 = SimTime::from_nanos(0);
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.allow(t0));
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            b.record_failure(t0);
        }
        assert_eq!(b.state(t0), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert!(!b.allow(t0 + (BREAKER_COOLDOWN - Duration::from_nanos(1))));
        assert_eq!(b.trips(), 1);
        // Cooldown elapsed: half-open, one probe admitted.
        let t1 = t0 + BREAKER_COOLDOWN;
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        assert!(b.allow(t1));
        assert!(!b.allow(t1), "only one concurrent probe in half-open");
        // Probe failure re-opens for another cooldown.
        b.record_failure(t1);
        assert_eq!(b.state(t1), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Next probe succeeds: closed again.
        let t2 = t1 + BREAKER_COOLDOWN;
        assert!(b.allow(t2));
        b.record_success();
        assert_eq!(b.state(t2), BreakerState::Closed);
        assert!(b.allow(t2));
        // Closed again, the next trip takes a whole new streak and admits
        // a fresh probe after its cooldown.
        for _ in 0..BREAKER_FAILURE_THRESHOLD {
            b.record_failure(t2);
        }
        assert_eq!(b.trips(), 3);
        assert!(b.allow(t2 + BREAKER_COOLDOWN), "the old probe does not linger");
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let b = Breaker::new();
        let t = SimTime::from_nanos(0);
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            b.record_failure(t);
        }
        b.record_success();
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            b.record_failure(t);
        }
        assert_eq!(b.state(t), BreakerState::Closed, "streak must reset on success");
        b.record_failure(t);
        assert_eq!(b.state(t), BreakerState::Open, "a full streak still trips");
    }
}
