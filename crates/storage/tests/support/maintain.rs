//! The tests' maintenance driver. An `Lsm` flushes and compacts only
//! through jobs its embedder claims and finishes; in the simulator that is
//! `KvNode::maintain_storage`, which charges each job to a modelled disk.
//! This driver claims the same jobs the same way — one flush at a time,
//! oldest frozen memtable first, and a compaction only where
//! `pick_compaction` finds a level due, merged through the filter built
//! for it when it is claimed — but finishes each at once, on the caller's
//! thread. Storage and KV tests include this file by path, so whatever a
//! test needs done in the background is done by the one path production
//! takes. An includer that uses only part of it says so with an
//! `#[expect(dead_code, reason = …)]` on its `mod` line.

use crdb_storage::{Key, Lsm, Value};

/// Freezes the active memtable and flushes every frozen one into L0: one
/// L0 file per memtable, and nothing compacted.
pub fn flush(lsm: &mut Lsm) {
    lsm.freeze_active();
    while let Some(job) = lsm.begin_flush() {
        lsm.finish_flush(job);
    }
}

/// Flushes every frozen memtable, then runs compactions until no level is
/// due, each through the filter `filter` builds when its job is claimed.
/// The active memtable is left where it is.
pub fn maintain<F>(lsm: &mut Lsm, mut filter: impl FnMut() -> F)
where
    F: FnMut(&Key, Option<&Value>) -> bool,
{
    while let Some(job) = lsm.begin_flush() {
        lsm.finish_flush(job);
    }
    while let Some(pick) = lsm.pick_compaction() {
        let job = lsm.begin_compaction(&pick);
        lsm.finish_compaction(job, Some(&mut filter()));
    }
}

/// The filter of a plain key-value store: it drops nothing.
pub fn keep_all() -> impl FnMut(&Key, Option<&Value>) -> bool {
    |_, _| false
}
