//! Serverless orchestration (§4).
//!
//! The components that turn a multi-tenant CockroachDB into a *serverless*
//! service: scale to zero, sub-second cold starts, responsive autoscaling,
//! and transparent connection migration. The Kubernetes control plane of
//! §4.2.1 is replaced by the discrete-event simulator (DESIGN.md §1); the
//! control loops themselves are implemented faithfully.
//!
//! - [`registry`] — shared per-tenant state: active/draining SQL nodes,
//!   suspension, connection counts.
//! - [`pool`] — the pre-warmed pod pool and both cold-start flows
//!   (§4.3.1): the *unoptimized* flow starts the SQL process only after
//!   tenant assignment (and pays TCP-reset retries); the *optimized* flow
//!   pre-starts processes that watch for certificates.
//! - [`proxy`] — tenant routing from the startup message, least-connection
//!   balancing, connection migration via session serialization (§4.2.2,
//!   §4.2.4), auth-failure throttling and IP allow/deny lists.
//! - [`autoscaler`] — the §4.2.3 algorithm: capacity = max(4 × avg CPU,
//!   1.33 × max CPU) over a 5-minute window, quantized to 4-vCPU nodes,
//!   with draining-before-shutdown and suspend-at-zero.
//! - [`metrics`] — the metrics pipeline model (§4.3.2): a stacked-polling
//!   Prometheus-style path versus the 3-second direct scrape.

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

pub mod autoscaler;
pub mod metrics;
pub mod pool;
pub mod proxy;
pub mod registry;

pub use autoscaler::{Autoscaler, AutoscalerConfig};
pub use metrics::{MetricsPipeline, PipelineConfig};
pub use pool::WarmPool;
pub use proxy::{Proxy, ProxyConfig, ProxyError};
pub use registry::{Registry, TenantEntry};
