//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates a production cloud deployment — Kubernetes pods on
//! GCP VMs spread over three regions. This crate is the synthetic
//! replacement (see DESIGN.md §1): a single-threaded, deterministic
//! discrete-event engine on which the whole serverless cluster runs.
//!
//! - [`engine::Sim`] — the event loop and virtual clock. Events are
//!   closures and task wakes at future instants; runs are reproducible
//!   given a seed.
//! - [`topology`] — regions, zones and the inter-region latency matrix that
//!   stands in for the real network (asia-southeast1 / europe-west1 /
//!   us-central1 round-trip times); a task awaits a message's hop.
//! - [`fault`] — deterministic, seeded fault injection (node crashes,
//!   pod-start failures, partitions, latency spikes) replayed against the
//!   virtual clock with a byte-reproducible event log.
//! - [`cpu`] — a processor-sharing CPU model per node. It produces the two
//!   signals admission control needs (per-task CPU time and the runnable
//!   queue length the 1000 Hz sampler would observe, §5.1.3) plus
//!   per-tenant CPU attribution for the figures. Work is awaited or
//!   charged.
//! - [`resource`] — a FIFO rate-limited resource modelling disk flush /
//!   compaction bandwidth; a transfer is awaited or charged.
//! - [`task`] — `async fn` on the virtual clock, polled inline in the
//!   waking event: statements, RPCs and every product control loop.
//! - [`timeseries`] — sampled time series used to regenerate the paper's
//!   time-series figures (Figs. 8, 9, 12, 13).
//!
//! The *data path* of the database is real (actual MVCC bytes, SQL rows and
//! LSM compactions); only *time* is virtual.

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

pub mod cpu;
pub mod engine;
pub mod fault;
pub mod resource;
pub mod task;
pub mod timeseries;
pub mod topology;

pub use engine::{EventId, Sim};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSchedule};
pub use timeseries::TimeSeries;
pub use topology::{Location, Topology};
