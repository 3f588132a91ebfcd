//! Tenant cost attribution and quota enforcement (§5.2).
//!
//! KV-layer CPU cannot be measured per tenant directly (compactions,
//! batching and caches blur attribution), so CockroachDB Serverless
//! *estimates* it from the KV API traffic itself:
//!
//! - [`model::EcpuModel`] — the estimated-CPU model: six feature
//!   sub-models (read/write batches, requests per batch, bytes per batch),
//!   each a piecewise-linear efficiency curve fitted from controlled tests
//!   (§5.2.1, Fig. 5). `estimated_cpu = actual_sql_cpu + estimated_kv_cpu`.
//! - [`training`] — the controlled-test training harness: vary one feature
//!   at a time against a ground-truth CPU oracle and fit each curve.
//! - [`bucket`] — the distributed token bucket (§5.2.2): a per-tenant
//!   server refilling 1000 tokens/s per vCPU of quota (1 token = 1 ms of
//!   estimated CPU), SQL-node clients that pre-fetch into a local buffer,
//!   and **trickle grants** that smooth over-quota tenants instead of
//!   letting them oscillate stop/start.

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
pub mod model;
pub mod training;

pub use bucket::{BucketClient, BucketServer, GrantResponse};
pub use model::{EcpuModel, WorkloadFeatures};
