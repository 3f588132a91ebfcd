//! Cluster virtualization — the paper's core contribution (§3.2) — and
//! the deployment assemblies used throughout the evaluation.
//!
//! A *virtual cluster* (tenant) presents as an independent transactional
//! database but is a virtualized share of one physical cluster: a slice of
//! the shared KV keyspace (enforced at the SQL/KV security boundary) plus
//! per-tenant SQL processes orchestrated by the serverless control plane.
//!
//! - [`tenant`] — per-tenant control state: certificate, regions, CPU
//!   quota, the estimated-CPU accounting loop, and quota enforcement
//!   through the distributed token bucket (§5.2).
//! - [`serverless_cluster`] — the full CockroachDB Serverless assembly:
//!   shared KV cluster + warm pool + proxy + autoscaler + metrics pipeline
//!   + per-tenant accounting (§4, Fig. 4).
//! - [`dedicated`] — the "Traditional" single-tenant deployment used as
//!   the baseline in §6.1 and §6.7: one fused SQL+KV process per VM, no
//!   proxy, no autoscaler.

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

pub mod chaos;
pub mod dedicated;
pub mod serverless_cluster;
pub mod tenant;

pub use dedicated::DedicatedCluster;
pub use serverless_cluster::{ServerlessCluster, ServerlessConfig};
pub use tenant::TenantInfo;
