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

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;

use bytes::Bytes;

/// A storage key: opaque ordered bytes (the KV layer encodes tenant prefix,
/// table keys and MVCC timestamps into it).
pub type Key = Bytes;

/// A storage value. `None` inside the engine denotes a tombstone.
pub type Value = Bytes;

/// One write: a key and its value, or `None` for a tombstone. The
/// [`WriteBatch`] that carries it builds it once, and from then on it is
/// only ever shared: every replica's memtable, the table a flush moves it
/// into and every compaction output it survives into hold a handle to the
/// same allocation. A table built outside the engine holds a run of
/// entries built together instead ([`Entry::run`]). Entries order, compare
/// and borrow as their keys, so a memtable holds them in a `BTreeSet` and
/// looks them up by `&[u8]`.
#[derive(Debug, Clone)]
pub struct Entry(Handle);

// Every replica's memtable pays a slot of this size per entry.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// What an [`Entry`] holds: its key and its value or tombstone.
type Pair = (Key, Option<Value>);

/// Where an [`Entry`] lives.
#[derive(Debug, Clone)]
enum Handle {
    /// In an allocation of its own: a write.
    Own(Arc<Pair>),
    /// At an index into a run: one allocation for a whole table, where a
    /// handle to each entry's own would cost more than the entries.
    InRun(Arc<Box<[Pair]>>, u32),
}

impl Entry {
    /// The entry `key` → `value` (`None` = tombstone).
    pub fn new(key: Key, value: Option<Value>) -> Self {
        Entry(Handle::Own(Arc::new((key, value))))
    }

    /// Handles to `pairs`, in order, which stay in one allocation that
    /// lives as long as any of them: for a table built whole, such as one
    /// to ingest. A run holds at most `u32::MAX` entries.
    pub fn run(pairs: Vec<(Key, Option<Value>)>) -> Vec<Entry> {
        let len = pairs.len();
        let run = Arc::new(pairs.into_boxed_slice());
        (0..len)
            .map_while(|at| u32::try_from(at).ok())
            .map(|at| Entry(Handle::InRun(Arc::clone(&run), at)))
            .collect()
    }

    fn pair(&self) -> &Pair {
        match &self.0 {
            Handle::Own(pair) => pair,
            Handle::InRun(run, at) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`Entry::run` hands out indices inside its run"
                )]
                let pair = &run[*at as usize];
                pair
            }
        }
    }

    /// Its key.
    pub fn key(&self) -> &Key {
        &self.pair().0
    }

    /// Its value; `None` for a tombstone.
    pub fn value(&self) -> Option<&Value> {
        self.pair().1.as_ref()
    }

    /// Key and value bytes: what the caller wrote, before any overhead a
    /// size model adds per entry.
    pub fn payload_len(&self) -> usize {
        self.key().len() + self.value().map_or(0, |v| v.len())
    }

    /// Whether the two are handles to one entry in one allocation.
    #[cfg(test)]
    pub(crate) fn shares_allocation_with(&self, other: &Entry) -> bool {
        match (&self.0, &other.0) {
            (Handle::Own(a), Handle::Own(b)) => Arc::ptr_eq(a, b),
            (Handle::InRun(a, i), Handle::InRun(b, j)) => Arc::ptr_eq(a, b) && i == j,
            _ => false,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(other.key())
    }
}

impl Borrow<[u8]> for Entry {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}
