//! Shared utilities for the CockroachDB Serverless reproduction.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! - typed identifiers ([`ids`]) for tenants, nodes, ranges, regions, …
//! - virtual time ([`time`]) and the [`clock::Clock`] abstraction that
//!   components read it through,
//! - a log-bucketed latency [`hist::Histogram`] with percentile queries,
//! - decaying and exponentially-weighted statistics ([`stats`]) used by
//!   admission control,
//! - a local [`bucket::TokenBucket`] primitive, the building block of both
//!   the write-bandwidth admission bucket and the per-tenant distributed
//!   quota bucket,
//! - shared degradation primitives ([`retry`]): budgeted backoff policies,
//!   propagated request [`retry::Deadline`]s, and per-target circuit
//!   breakers.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod bucket;
pub mod clock;
pub mod hist;
pub mod ids;
#[cfg(all(clippy, not(test)))]
mod lint_contract;
pub mod retry;
pub mod stats;
pub mod time;

pub use clock::Clock;
pub use hist::Histogram;
pub use ids::{NodeId, RangeId, RegionId, SqlInstanceId, TenantId};
pub use retry::{Breaker, BreakerState, Deadline, RetryPolicy};
pub use time::SimTime;
