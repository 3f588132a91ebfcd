//! An LSM-tree storage engine — the reproduction's stand-in for Pebble.
//!
//! CockroachDB stores each node's data in Pebble, a log-structured
//! merge-tree (§5.1.3). The parts of Pebble that matter to the paper are
//! reproduced here for real:
//!
//! - a group-commit write-ahead log ([`wal`]) that counts record bytes and
//!   tracks durability, and an ordered in-memory [`memtable`],
//! - immutable sorted runs ([`sstable`]) organized into **L0** (overlapping
//!   files) plus leveled non-overlapping levels below ([`lsm`]), and
//!   ingestion of a whole table built outside the engine, shared by every
//!   engine that ingests it,
//! - flush and compaction with **byte-accurate accounting**
//!   ([`metrics::StorageMetrics`]): admission control's write-token bucket
//!   derives its refill rate from the flush and L0-compaction throughput of
//!   exactly this instrumentation, and the §5.1.4 `a·x + b` linear
//!   write-amplification models are fitted to these counters.
//!
//! The engine is synchronous and deterministic. A write never flushes or
//! compacts: it appends, applies and at most rotates the memtable, and
//! every flush and compaction is a job its embedder claims and finishes
//! ([`Lsm::begin_flush`], [`Lsm::begin_compaction`]) — the simulated KV
//! node, which charges their bytes against a simulated disk with a real
//! bandwidth limit. The engine is also usable standalone under real
//! threads via [`engine::Engine`]'s internal locking.

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

pub mod bloom;
pub mod engine;
pub mod iter;
pub mod lsm;
pub mod memtable;
pub mod metrics;
pub mod sstable;
pub mod wal;

// The unit tests share the integration tests' maintenance driver, which
// names this crate by its external name.
#[cfg(test)]
extern crate self as crdb_storage;
#[cfg(test)]
#[path = "../tests/support/maintain.rs"]
mod maintain;

pub use engine::Engine;
pub use lsm::{
    CompactionFilter, CompactionJob, CompactionPick, FlushJob, IngestError, Lsm, LsmConfig,
    LsmIter, StallReason,
};
pub use memtable::WriteBatch;
pub use metrics::{StorageMetrics, COMPACT_LEVELS_TRACKED};
pub use sstable::SsTable;
pub use wal::{GroupCommit, WalWriter};

use bytes::Bytes;

/// A storage key: opaque ordered bytes (the KV layer encodes tenant prefix,
/// table keys and MVCC timestamps into it).
pub type Key = Bytes;

/// A storage value. `None` inside the engine denotes a tombstone.
pub type Value = Bytes;
