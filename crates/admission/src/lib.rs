//! Admission control (§5.1).
//!
//! When KV calls from multiple tenants threaten to overload a KV node,
//! admission control queues work and schedules it fairly:
//!
//! - [`queue::WorkQueue`] — the "hierarchy of heaps": a top level ordered
//!   by each tenant's recently-consumed resource (least-consuming first),
//!   and per tenant a heap of waiting operations ordered by priority and
//!   transaction start time (§5.1.2). Operations can wait arbitrarily long
//!   but respect deadlines.
//! - [`slots::SlotController`] — dynamic estimation of how many concurrent
//!   operations keep the CPU ~fully utilized while bounding the runnable
//!   queue, via an additive increase–decrease feedback loop fed by
//!   high-frequency runnable-queue sampling (§5.1.3).
//! - [`write::WriteController`] — a token bucket in write bytes whose
//!   refill rate tracks the *observed* LSM flush and L0-compaction
//!   capacity re-estimated at 15-second intervals, plus the §5.1.4
//!   `a·x + b` linear models that translate requested write bytes into
//!   predicted physical bytes (raft log + state machine).
//! - [`controller::AdmissionController`] — the per-node facade combining a
//!   CPU queue (CQ) and a write queue (WQ): reads admit through the CQ
//!   only; writes queue in the WQ then the CQ.
//!
//! The controller is *pure*: it never schedules its own wake-ups. The
//! embedding KV node calls [`controller::AdmissionController::poll`] on
//! arrivals, completions and timer ticks, and uses
//! `next_event_time` to know when the next deferred grant falls due. This
//! keeps the crate independent of the simulator and directly unit-testable.

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

pub mod controller;
pub mod queue;
pub mod slots;
pub mod write;

pub use controller::{AdmissionController, WorkClass};
pub use queue::{Priority, WorkItem, WorkQueue};
pub use slots::SlotController;
pub use write::WriteController;
