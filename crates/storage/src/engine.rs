//! A thread-safe engine wrapper.
//!
//! The simulator drives [`crate::Lsm`] single-threaded, but the storage
//! engine is also a standalone library; [`Engine`] wraps it for concurrent
//! use (coarse mutex — Pebble's internal sharding is out of scope, and the
//! simulator never contends).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::lsm::{IngestError, Lsm, LsmConfig};
use crate::memtable::WriteBatch;
use crate::metrics::StorageMetrics;
use crate::sstable::SsTable;
use crate::{Key, Value};

/// A cloneable, thread-safe handle to an LSM engine.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Mutex<Lsm>>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: LsmConfig) -> Self {
        Engine { inner: Arc::new(Mutex::new(Lsm::new(config))) }
    }

    /// Applies a write batch atomically. Returns the batch's WAL sequence
    /// number; the batch is committed by the first [`Engine::group_commit`]
    /// whose group covers that sequence (or by a flush's WAL truncate).
    pub fn apply(&self, batch: &WriteBatch) -> u64 {
        self.inner.lock().apply(batch)
    }

    /// Models one fsync committing every batch appended since the last
    /// one; returns the committed group (see [`Lsm::group_commit`]).
    pub fn group_commit(&self) -> crate::wal::GroupCommit {
        self.inner.lock().group_commit()
    }

    /// WAL sequence number of the last batch applied: what a caller that
    /// just applied reads to learn the number its batches were given.
    pub fn wal_appended_seq(&self) -> u64 {
        self.inner.lock().wal_appended_seq()
    }

    /// WAL sequence number through which every batch is durable. "Is my
    /// append durable" is `wal_synced_seq() >= its sequence number`,
    /// whichever of a group commit or a flush's truncate got there first.
    pub fn wal_synced_seq(&self) -> u64 {
        self.inner.lock().wal_synced_seq()
    }

    /// Ingests a whole sorted table, sharing its entries (see
    /// [`Lsm::ingest_table`]). Returns the level it landed in.
    pub fn ingest_table(&self, table: &SsTable) -> Result<usize, IngestError> {
        self.inner.lock().ingest_table(table)
    }

    /// Current write-stall condition, if any (see [`Lsm::write_stall`]).
    pub fn write_stall(&self) -> Option<crate::lsm::StallReason> {
        self.inner.lock().write_stall()
    }

    /// Writes a single key.
    pub fn put(&self, key: impl Into<Key>, value: impl Into<Value>) {
        self.inner.lock().put(key, value);
    }

    /// Deletes a single key.
    pub fn delete(&self, key: impl Into<Key>) {
        self.inner.lock().delete(key);
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        self.inner.lock().get(key)
    }

    /// Range scan over `[start, end)` with a result limit.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Key, Value)> {
        self.inner.lock().scan(start, end, limit)
    }

    /// Streaming scan: calls `visit` with each live entry in `[start,
    /// end)` in key order until it returns `false` or the span ends. The
    /// engine lock is held for the duration, so `visit` must not call back
    /// into this engine. Early termination pulls nothing further from any
    /// level — this is the bounded-iterator entry point MVCC reads use.
    pub fn scan_visit(&self, start: &[u8], end: &[u8], visit: impl FnMut(&Key, &Value) -> bool) {
        self.inner.lock().scan_visit(start, end, visit)
    }

    /// Streaming scan over several spans in the order given, as one scan
    /// (see [`Lsm::scan_visit_spans`]); the same lock rule as
    /// [`Engine::scan_visit`].
    pub fn scan_visit_spans(
        &self,
        spans: &[(&[u8], &[u8])],
        visit: impl FnMut(&Key, &Value) -> bool,
    ) {
        self.inner.lock().scan_visit_spans(spans, visit)
    }

    /// Cumulative instrumentation counters.
    pub fn metrics(&self) -> StorageMetrics {
        self.inner.lock().metrics()
    }

    /// Runs a closure with exclusive access to the underlying LSM — used
    /// by the simulated KV node for flush/compaction pacing.
    pub fn with_lsm<T>(&self, f: impl FnOnce(&mut Lsm) -> T) -> T {
        f(&mut self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::{keep_all, maintain};
    use bytes::Bytes;

    #[test]
    fn concurrent_writers_and_readers() {
        let engine = Engine::new(LsmConfig::tiny());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        let k = format!("t{t}-key{i:04}");
                        engine.put(Bytes::from(k.clone()), Bytes::from(format!("v{i}")));
                        engine.with_lsm(|lsm| maintain(lsm, keep_all));
                        assert_eq!(engine.get(k.as_bytes()), Some(Bytes::from(format!("v{i}"))));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // All writes from all threads visible.
        for t in 0..4 {
            for i in (0..250u32).step_by(50) {
                let k = format!("t{t}-key{i:04}");
                assert_eq!(engine.get(k.as_bytes()), Some(Bytes::from(format!("v{i}"))));
            }
        }
        assert!(engine.metrics().flush_count > 0);
    }

    #[test]
    fn batch_atomicity_under_concurrency() {
        let engine = Engine::new(LsmConfig::tiny());
        let writer = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for i in 0..200u32 {
                    let mut b = WriteBatch::new();
                    b.put(Bytes::from_static(b"a"), Bytes::from(i.to_string()));
                    b.put(Bytes::from_static(b"b"), Bytes::from(i.to_string()));
                    engine.apply(&b);
                }
            })
        };
        let reader = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let a = engine.get(b"a");
                    let b = engine.get(b"b");
                    if let (Some(_), Some(_)) = (&a, &b) {
                        // Individual gets are not a snapshot, so values can
                        // differ by at most one generation under this
                        // writer; both must always parse.
                        let _: u32 =
                            std::str::from_utf8(a.as_ref().unwrap()).unwrap().parse().unwrap();
                        let _: u32 =
                            std::str::from_utf8(b.as_ref().unwrap()).unwrap().parse().unwrap();
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(engine.get(b"a"), Some(Bytes::from("199")));
        assert_eq!(engine.get(b"b"), Some(Bytes::from("199")));
    }
}
