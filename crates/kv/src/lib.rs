//! The transactional key-value layer (§3.1) with cluster virtualization
//! (§3.2).
//!
//! This crate reproduces the KV half of CockroachDB's two-layer
//! architecture as the paper describes it:
//!
//! - an ordered logical keyspace of opaque byte pairs, **partitioned per
//!   tenant by a key prefix** ([`keys`], §3.2.1) — the KV layer enforces
//!   that no two tenants share a range;
//! - MVCC storage with write intents and transaction records ([`mvcc`],
//!   [`txn`]) over the [`crdb_storage`] LSM engine;
//! - **ranges** — CockroachDB's shards — with size-based splitting, a META
//!   directory locating ranges (readable via stale follower reads,
//!   §3.2.5), epoch-based node liveness, range leases, and quorum
//!   replication ([`range`], [`directory`], [`liveness`], [`replication`]);
//! - the **SQL/KV security boundary** ([`auth`], §3.2.3): every batch
//!   authenticates with a tenant certificate and may only touch its own
//!   keyspace (the system tenant bypasses the check, §3.2.4);
//! - per-node **admission control** integration and a ground-truth CPU
//!   [`cost`] model that charges simulated CPU for every batch — the
//!   reference against which the estimated-CPU model is trained and
//!   evaluated (Fig. 5, Fig. 11);
//! - [`node::KvNode`] and [`cluster::KvCluster`] — the deployable node and
//!   multi-node cluster running on the discrete-event simulator.
//!
//! ## Fidelity notes (see DESIGN.md)
//!
//! The *data path* is real: bytes land in real LSM engines on every
//! replica, MVCC versions and intents are really written and resolved, and
//! reads merge real versions. A batch is **evaluated once**, on the
//! leaseholder; each follower **replays** the bytes that produced
//! ([`mvcc::Applied`]) and reads nothing, so a range's replicas are equal
//! by construction. *Timing* is simulated: service latency comes from the
//! cost model + admission queues + CPU scheduler, and replication waits
//! simulated quorum round trips. Transactions use buffered writes;
//! a commit whose spans live in one range is evaluated there in one
//! phase, any other runs the staged protocol (intents, then transaction
//! record flip, then resolution), matching CockroachDB's behaviour for
//! the workloads evaluated. Each node's timestamp cache keeps read
//! watermarks over the spans it served; a one-phase commit lands at its
//! read timestamp unless one of them pushes it higher, and conflicts
//! surface as retryable errors. The protocol's time constants, and the
//! order among them it relies on, are in [`timing`].

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

pub mod auth;
pub mod batch;
pub mod client;
pub mod cluster;
pub mod cost;
pub mod directory;
pub mod hlc;
pub mod keys;
pub mod liveness;
pub mod mvcc;
pub mod node;
pub mod range;
pub mod replication;
pub mod timing;
mod tscache;
pub mod txn;

pub use batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
pub use client::KvClient;
pub use cluster::{KvCluster, KvClusterConfig};
pub use hlc::Timestamp;
pub use node::KvNode;
