//! The leveled LSM tree.
//!
//! Writes go WAL → memtable; a full memtable is frozen and flushed into
//! **L0**, whose files may overlap in key space (§5.1.3: "Level 0 in LSMs
//! is special in that files can be overlapping … a backlog of files in
//! this level increases read amplification"). When L0 accumulates enough
//! files it is compacted into L1; levels below L1 are non-overlapping
//! sorted runs that compact downward when they exceed their size target
//! (each level 10× larger than the previous).
//!
//! # Write pipeline
//!
//! The write path is structured so foreground writes never wait on
//! background work:
//!
//! - **Group commit** — [`Lsm::apply`] appends to the WAL without syncing;
//!   [`Lsm::group_commit`] models one fsync that commits every batch
//!   appended since the last one, and a flush's WAL truncate covers the
//!   rest.
//! - **Pipelined flushes** — a full active memtable is *frozen* (rotation
//!   is O(1)) and keeps serving reads while [`Lsm::begin_flush`] /
//!   [`Lsm::finish_flush`] move it to L0 as a background job. Reads
//!   consult active → frozen (newest first) → L0 → levels.
//! - **Concurrent per-level compaction** — [`Lsm::pick_compaction`] scores
//!   levels, [`Lsm::begin_compaction`] claims input files and locks the
//!   `{source, target}` level pair, and [`Lsm::finish_compaction`] merges
//!   and installs at job completion. At most one job per level pair runs
//!   at a time; jobs on disjoint level pairs run concurrently. Claimed
//!   files stay readable until the job finishes.
//! - **Write stalls** — [`Lsm::write_stall`] reports frozen-memtable and
//!   L0-depth backpressure so embedders (and admission control) see a real
//!   signal instead of unbounded debt.
//! - **Table ingestion** — [`Lsm::ingest_table`] installs a whole sorted
//!   table built outside the engine (Pebble's ingestion) straight into the
//!   lowest level it may occupy: no WAL record, no memtable, no flush.
//!
//! L0→L1 jobs always claim exactly the *oldest*
//! `l0_compaction_threshold` unclaimed L0 files. Because the L0/L1 level
//! pair serializes those jobs, the k-th L0 job compacts the same files no
//! matter when it runs — which is what makes flush/compaction byte totals
//! identical between a serial and a pipelined execution of the same
//! workload. All flush/compaction byte movement is recorded in
//! [`StorageMetrics`] **at job completion** — that instrumentation is what
//! admission control's write-token capacity estimator consumes.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

use crate::iter::{MergeIter, Source};
use crate::memtable::{Memtable, WriteBatch};
use crate::metrics::{StorageMetrics, COMPACT_LEVELS_TRACKED};
use crate::sstable::{SsTable, TableBuilder};
use crate::wal::{GroupCommit, WalWriter};
use crate::{Entry, Key, Value};

/// Tuning knobs for the LSM tree. Defaults are scaled down from production
/// values so tests exercise flush and compaction quickly.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable size that triggers a rotation (freeze + flush).
    pub memtable_size: usize,
    /// Number of L0 files that triggers an L0→L1 compaction. L0 jobs claim
    /// exactly this many of the oldest unclaimed files.
    pub l0_compaction_threshold: usize,
    /// Size target for L1; level `n` targets `base · multiplier^(n-1)`.
    pub level_base_size: usize,
    /// Growth factor between consecutive levels.
    pub level_size_multiplier: usize,
    /// Target output file size for compactions.
    pub sst_target_size: usize,
    /// Number of levels below L0.
    pub num_levels: usize,
    /// Frozen memtables that trigger a write stall (flush backlog).
    pub max_frozen_memtables: usize,
    /// L0 file count that triggers a write stall (compaction backlog).
    pub l0_stall_threshold: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_size: 4 << 20,
            l0_compaction_threshold: 4,
            level_base_size: 16 << 20,
            level_size_multiplier: 10,
            sst_target_size: 2 << 20,
            num_levels: 6,
            max_frozen_memtables: 2,
            l0_stall_threshold: 12,
        }
    }
}

impl LsmConfig {
    /// A tiny configuration that forces frequent flushes and compactions —
    /// used by tests to exercise the full machinery with little data.
    pub fn tiny() -> Self {
        LsmConfig {
            memtable_size: 1 << 10,
            l0_compaction_threshold: 2,
            level_base_size: 4 << 10,
            level_size_multiplier: 4,
            sst_target_size: 2 << 10,
            num_levels: 4,
            max_frozen_memtables: 2,
            l0_stall_threshold: 8,
        }
    }

    fn level_target(&self, level: usize) -> usize {
        debug_assert!(level >= 1);
        self.level_base_size * self.level_size_multiplier.pow(level as u32 - 1)
    }
}

/// Read-path counters. The read path takes `&self`, so these live in
/// `Cell`s and are folded into the [`StorageMetrics`] snapshot returned by
/// [`Lsm::metrics`].
#[derive(Debug, Default)]
struct ReadCounters {
    point_gets: Cell<u64>,
    tables_probed: Cell<u64>,
    bloom_probes: Cell<u64>,
    bloom_hits: Cell<u64>,
    scans: Cell<u64>,
    scan_entries_pulled: Cell<u64>,
    scan_entries_returned: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// An immutable (frozen) memtable awaiting flush. Still serves reads.
struct FrozenMemtable {
    id: u64,
    mem: Memtable,
}

/// A claimed memtable flush: hand it back via [`Lsm::finish_flush`] once
/// the embedder has charged the modeled disk for it.
#[derive(Debug)]
#[must_use = "a claimed flush holds the engine's only flush slot until `Lsm::finish_flush`"]
pub struct FlushJob {
    frozen_id: u64,
    bytes_estimate: u64,
}

impl FlushJob {
    /// Approximate bytes this flush will write (memtable footprint).
    pub fn bytes_estimate(&self) -> u64 {
        self.bytes_estimate
    }
}

/// A compaction candidate chosen by [`Lsm::pick_compaction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPick {
    /// Source level (0 = L0; `n` compacts into `n + 1`).
    pub level: usize,
    /// Fill score ×1000 (1000 = exactly at trigger). Used to rank levels.
    pub score_milli: u64,
}

/// A claimed compaction: the input/target files are locked in the tree
/// (and stay readable) until [`Lsm::finish_compaction`] merges them.
#[derive(Debug)]
#[must_use = "a claimed compaction locks its level pair until `Lsm::finish_compaction`"]
pub struct CompactionJob {
    level: usize,
    input_nums: Vec<u64>,
    target_nums: Vec<u64>,
    bytes_in: u64,
}

impl CompactionJob {
    /// Source level (0 = L0).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Total input bytes (source + overlapping target files) — what the
    /// embedder charges its modeled disk before finishing the job.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }
}

/// A per-job compaction filter: [`Lsm::finish_compaction`] shows it every
/// entry that survives the merge, in key order (`None` = tombstone), and
/// leaves out of the output each one it answers `true` for. The caller
/// builds one per job, so whatever the verdicts depend on (the KV layer's
/// MVCC GC horizon) is fixed when the job is claimed and the engine stores
/// none of it.
pub type CompactionFilter<'a> = dyn FnMut(&Key, Option<&Value>) -> bool + 'a;

/// Why a write should stall, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Too many frozen memtables waiting on flush.
    MemtableBacklog,
    /// Too many L0 files waiting on compaction.
    L0Backlog,
}

/// Why [`Lsm::ingest_table`] refused a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The table has no entries, so no key bounds to place it by.
    Empty,
    /// A memtable (active or frozen) holds a key inside the table's
    /// bounds. Reads consult memtables before any table, so that older
    /// write would shadow the newer table wherever it went.
    OverlapsMemtable,
}

/// The key span an in-flight compaction's output may cover: from the
/// smallest to the largest key of its inputs and targets.
struct Compacting {
    /// Source level; the job locks it and `level + 1`.
    level: usize,
    min: Key,
    max: Key,
}

impl Compacting {
    fn locks(&self, level: usize) -> bool {
        self.level == level || self.level + 1 == level
    }
}

/// A single-threaded LSM tree. For concurrent access wrap it in
/// [`crate::engine::Engine`].
pub struct Lsm {
    config: LsmConfig,
    wal: WalWriter,
    /// The active (mutable) memtable.
    memtable: Memtable,
    /// Frozen memtables awaiting flush, oldest first. All still readable.
    frozen: VecDeque<FrozenMemtable>,
    next_frozen_id: u64,
    /// Frozen id currently being flushed (at most one flush in flight).
    flush_inflight: Option<u64>,
    /// L0: overlapping files, newest last.
    l0: Vec<SsTable>,
    /// `levels[i]` is L(i+1): non-overlapping files sorted by min key.
    levels: Vec<Vec<SsTable>>,
    /// In-flight compactions, at most one per source level. A job from
    /// level `n` (0 = L0) to `n+1` locks both.
    compacting: Vec<Compacting>,
    /// File numbers of L0 tables claimed by the in-flight L0 job.
    claimed_l0: BTreeSet<u64>,
    next_file_num: u64,
    metrics: StorageMetrics,
    read: ReadCounters,
    /// Round-robin compaction cursors, one per level in `levels`.
    cursors: Vec<usize>,
}

impl Lsm {
    /// Creates an empty LSM.
    pub fn new(config: LsmConfig) -> Self {
        let levels = vec![Vec::new(); config.num_levels];
        let cursors = vec![0; config.num_levels];
        Lsm {
            config,
            wal: WalWriter::default(),
            memtable: Memtable::new(),
            frozen: VecDeque::new(),
            next_frozen_id: 1,
            flush_inflight: None,
            l0: Vec::new(),
            levels,
            compacting: Vec::new(),
            claimed_l0: BTreeSet::new(),
            next_file_num: 1,
            metrics: StorageMetrics::default(),
            read: ReadCounters::default(),
            cursors,
        }
    }

    /// Applies a write batch: WAL append, memtable apply, and a rotation
    /// if that filled the memtable — the only foreground work; flushes
    /// and compactions are jobs the embedder claims. Returns the batch's
    /// WAL sequence number. The batch is not synced here: it is durable
    /// once the [`Lsm::group_commit`] that syncs past it, or the truncate
    /// after a flush, has run.
    pub fn apply(&mut self, batch: &WriteBatch) -> u64 {
        let (seq, rec_bytes) = self.wal.append(batch);
        self.metrics.wal_bytes += rec_bytes;
        self.metrics.wal_batches += 1;
        self.metrics.logical_bytes_written += batch.payload_bytes() as u64;
        self.memtable.apply_batch(batch);
        self.rotate_if_full();
        seq
    }

    /// Ingests a whole sorted table — Pebble's ingestion, CockroachDB's
    /// AddSSTable — with no WAL record, memtable entry or flush: what
    /// built the table recovers it by building it again. Returns the
    /// level it landed in (0 = L0).
    ///
    /// The table is the newest data for its keys, so it goes to the
    /// lowest level that it may occupy with nothing above it in its key
    /// bounds: no L0 file and no file in that level or any level above
    /// it overlaps them. A level locked by an in-flight compaction whose
    /// span overlaps them is passed over: the job's output may span them
    /// once it lands. (It holds none of their keys — every file it reads
    /// is one the search has already found clear — so the search goes on
    /// below.) With no such level the table becomes the newest L0 file:
    /// L0 takes a new file whatever is in flight, as it takes a flush.
    ///
    /// The engine keeps the table's entries and filter shared with
    /// `table` and every other engine that ingests it, under a file
    /// number of its own; the number `table` carries is not used. Its
    /// bytes count as written once, in
    /// [`StorageMetrics::ingest_bytes`].
    pub fn ingest_table(&mut self, table: &SsTable) -> Result<usize, IngestError> {
        let (Some(min), Some(max)) = (table.min_key(), table.max_key()) else {
            return Err(IngestError::Empty);
        };
        if self.memtable.overlaps(min, max) || self.frozen.iter().any(|f| f.mem.overlaps(min, max))
        {
            return Err(IngestError::OverlapsMemtable);
        }
        let level = self.ingest_level(min, max);
        let table = table.renumbered(self.next_file_num);
        self.next_file_num += 1;
        self.metrics.ingest_tables += 1;
        self.metrics.ingest_bytes += table.size() as u64;
        self.metrics.logical_bytes_written += table.payload_bytes() as u64;
        match level.checked_sub(1).and_then(|i| self.levels.get_mut(i)) {
            Some(tables) => {
                let at = first_table_reaching(tables, min);
                tables.insert(at, table);
            }
            None => self.l0.push(table),
        }
        Ok(level)
    }

    /// Where [`Lsm::ingest_table`] puts a table bounded by `[min, max]`.
    fn ingest_level(&self, min: &[u8], max: &[u8]) -> usize {
        if self.l0.iter().any(|t| t.overlaps_bounds(min, max)) {
            return 0;
        }
        let mut target = 0;
        for (i, tables) in self.levels.iter().enumerate() {
            if tables
                .get(first_table_reaching(tables, min))
                .is_some_and(|t| t.overlaps_bounds(min, max))
            {
                break;
            }
            let level = i + 1;
            let locked = self
                .compacting
                .iter()
                .any(|c| c.locks(level) && c.min.as_ref() <= max && c.max.as_ref() >= min);
            if !locked {
                target = level;
            }
        }
        target
    }

    /// Convenience single-key put.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        let mut b = WriteBatch::new();
        b.put(key.into(), value.into());
        self.apply(&b);
    }

    /// Convenience single-key delete.
    pub fn delete(&mut self, key: impl Into<Key>) {
        let mut b = WriteBatch::new();
        b.delete(key.into());
        self.apply(&b);
    }

    /// Models one fsync covering every batch appended since the last one;
    /// returns the committed group: the point at which those batches may
    /// be acknowledged.
    pub fn group_commit(&mut self) -> GroupCommit {
        let group = self.wal.sync_all();
        self.note_group(group);
        group
    }

    fn note_group(&mut self, group: GroupCommit) {
        if group.batches > 0 {
            self.metrics.fsyncs += 1;
            self.metrics.batches_synced += group.batches;
        }
    }

    /// Batches appended but not yet covered by a group commit.
    pub fn wal_unsynced_batches(&self) -> u64 {
        self.wal.unsynced_batches()
    }

    /// WAL sequence number of the last batch applied (see
    /// [`WalWriter::appended_seq`]).
    pub fn wal_appended_seq(&self) -> u64 {
        self.wal.appended_seq()
    }

    /// WAL sequence number through which every batch is durable (see
    /// [`WalWriter::synced_seq`]).
    pub fn wal_synced_seq(&self) -> u64 {
        self.wal.synced_seq()
    }

    /// Point lookup across all levels, newest data first: active memtable,
    /// frozen memtables (newest first), L0 (newest file first), then one
    /// candidate file per level. Each candidate table's bloom filter is
    /// consulted before its entries are searched.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        bump(&self.read.point_gets);
        if let Some(v) = self.memtable.get(key) {
            return v;
        }
        for f in self.frozen.iter().rev() {
            if let Some(v) = f.mem.get(key) {
                return v;
            }
        }
        for table in self.l0.iter().rev() {
            bump(&self.read.bloom_probes);
            if !table.may_contain(key) {
                bump(&self.read.bloom_hits);
                continue;
            }
            bump(&self.read.tables_probed);
            if let Some(v) = table.get(key) {
                return v;
            }
        }
        for level in &self.levels {
            // Non-overlapping: binary search for the file whose range could
            // contain the key.
            if let Some(table) = level.get(first_table_reaching(level, key)) {
                bump(&self.read.bloom_probes);
                if !table.may_contain(key) {
                    bump(&self.read.bloom_hits);
                    continue;
                }
                bump(&self.read.tables_probed);
                if let Some(v) = table.get(key) {
                    return v;
                }
            }
        }
        None
    }

    /// A streaming iterator over the live entries in `[start, end)`:
    /// memtables (active then frozen, newest first), L0 windows and one
    /// lazy cursor per level feed a k-way merge that pulls nothing past
    /// what the caller consumes. Tombstones are elided; shadowed versions
    /// are suppressed.
    pub fn iter<'a>(&'a self, start: &'a [u8], end: &'a [u8]) -> LsmIter<'a> {
        bump(&self.read.scans);
        LsmIter { inner: self.merge(start, end), counters: &self.read, pulled: 0, returned: 0 }
    }

    /// The k-way merge over every source's entries in `[start, end)`.
    fn merge<'a>(&'a self, start: &'a [u8], end: &'a [u8]) -> MergeIter<'a> {
        let mut sources: Vec<Source<'a>> =
            Vec::with_capacity(1 + self.frozen.len() + self.l0.len() + self.levels.len());
        sources.push(Source::Mem(self.memtable.range(start, end)));
        for f in self.frozen.iter().rev() {
            sources.push(Source::Mem(f.mem.range(start, end)));
        }
        for table in self.l0.iter().rev() {
            if table.overlaps(start, end) {
                sources.push(Source::Slice(table.range(start, end)));
            }
        }
        for level in &self.levels {
            // Non-overlapping and sorted: binary-search the first file
            // that could intersect; the cursor walks forward lazily.
            let tables = level.get(first_table_reaching(level, start)..).unwrap_or_default();
            if !tables.is_empty() {
                sources.push(Source::Level { tables, start, end });
            }
        }
        MergeIter::new(sources)
    }

    /// Range scan over `[start, end)` returning up to `limit` live
    /// entries. The limit is pushed down into the merge: once `limit`
    /// live entries have been produced nothing more is pulled from any
    /// source.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut it = self.iter(start, end);
        while out.len() < limit {
            match it.next() {
                Some((k, v)) => out.push((k.clone(), v.clone())),
                None => break,
            }
        }
        out
    }

    /// Streaming scan: calls `visit` for each live entry in `[start, end)`
    /// in key order until it returns `false` or the span is exhausted.
    /// This is the zero-copy early-termination entry point the MVCC layer
    /// builds its version walks on.
    pub fn scan_visit(&self, start: &[u8], end: &[u8], visit: impl FnMut(&Key, &Value) -> bool) {
        self.scan_visit_spans(&[(start, end)], visit);
    }

    /// [`Lsm::scan_visit`] over several spans, one after another in the
    /// order given, each in key order, as one scan: `visit` returning
    /// `false` ends the whole walk, and the read counters see one scan
    /// and every entry pulled from any span.
    pub fn scan_visit_spans<'a>(
        &'a self,
        spans: &[(&'a [u8], &'a [u8])],
        mut visit: impl FnMut(&Key, &Value) -> bool,
    ) {
        let mut spans = spans.iter();
        let Some(&(start, end)) = spans.next() else { return };
        let mut it = self.iter(start, end);
        loop {
            for (k, v) in it.by_ref() {
                if !visit(k, v) {
                    return;
                }
            }
            let Some(&(start, end)) = spans.next() else { return };
            it.inner = self.merge(start, end);
        }
    }

    /// Offers the active memtable's entries in `[start, end)` to `filter`,
    /// in key order, and removes each one it answers `true` for — what
    /// [`Lsm::finish_compaction`] does to a job's output, done to history
    /// that never left memory, and counted the same way. Returns how many
    /// entries went. Frozen memtables and tables are never touched.
    ///
    /// A removed entry leaves no tombstone, so `filter` may answer `true`
    /// only for a key written once: no older entry under it may be left
    /// below for the removal to expose.
    pub fn collect_in_memtable(
        &mut self,
        start: &[u8],
        end: &[u8],
        filter: &mut CompactionFilter<'_>,
    ) -> u64 {
        let removed = self.memtable.remove_where(start, end, filter);
        for entry in &removed {
            count_gc_drop(&mut self.metrics, entry);
        }
        removed.len() as u64
    }

    // ------------------------------------------------------------------
    // Memtable rotation and flush pipeline
    // ------------------------------------------------------------------

    /// Freezes the active memtable if it reached the configured size.
    fn rotate_if_full(&mut self) {
        if self.memtable.approx_bytes() >= self.config.memtable_size {
            self.freeze_active();
        }
    }

    /// Unconditionally freezes a non-empty active memtable: O(1) rotation
    /// that keeps the frozen contents readable while a flush job drains
    /// them. Returns whether anything was frozen.
    pub fn freeze_active(&mut self) -> bool {
        if self.memtable.is_empty() {
            return false;
        }
        let mem = std::mem::take(&mut self.memtable);
        let id = self.next_frozen_id;
        self.next_frozen_id += 1;
        self.frozen.push_back(FrozenMemtable { id, mem });
        true
    }

    /// Claims the oldest frozen memtable for flushing (at most one flush
    /// in flight). The memtable keeps serving reads until
    /// [`Lsm::finish_flush`] installs its L0 table.
    #[must_use = "a claimed flush holds the engine's only flush slot until `Lsm::finish_flush`"]
    pub fn begin_flush(&mut self) -> Option<FlushJob> {
        if self.flush_inflight.is_some() {
            return None;
        }
        let f = self.frozen.front()?;
        self.flush_inflight = Some(f.id);
        Some(FlushJob { frozen_id: f.id, bytes_estimate: f.mem.approx_bytes() as u64 })
    }

    /// Completes a claimed flush: builds the L0 table, retires the frozen
    /// memtable, and attributes the flushed bytes — all at job completion,
    /// which is when a real engine's bytes hit disk.
    pub fn finish_flush(&mut self, job: FlushJob) {
        assert_eq!(
            self.flush_inflight.take(),
            Some(job.frozen_id),
            "finish_flush for a job that is not in flight"
        );
        assert_eq!(
            self.frozen.front().map(|f| f.id),
            Some(job.frozen_id),
            "flushes complete oldest-first"
        );
        let Some(f) = self.frozen.pop_front() else { return };
        let table = SsTable::new(self.next_file_num, f.mem.into_entries());
        self.next_file_num += 1;
        self.metrics.flush_bytes += table.size() as u64;
        self.metrics.flush_count += 1;
        self.l0.push(table);
        if self.memtable.is_empty() && self.frozen.is_empty() {
            // Everything appended is now durable in data files.
            let group = self.wal.truncate();
            self.note_group(group);
        }
    }

    /// Number of frozen memtables awaiting flush.
    pub fn frozen_count(&self) -> usize {
        self.frozen.len()
    }

    /// Whether a flush job is currently claimed.
    pub fn flush_in_flight(&self) -> bool {
        self.flush_inflight.is_some()
    }

    // ------------------------------------------------------------------
    // Compaction scheduler
    // ------------------------------------------------------------------

    /// Scores every unlocked level pair and returns the most urgent
    /// compaction candidate, if any level is at or past its trigger.
    /// Returns `None` while every eligible level is below trigger or the
    /// needed level pairs are locked by in-flight jobs.
    pub fn pick_compaction(&self) -> Option<CompactionPick> {
        let mut best: Option<CompactionPick> = None;
        for level in 0..self.levels.len() {
            if self.is_locked(level) || self.is_locked(level + 1) {
                continue;
            }
            let (score_milli, triggered) = if level == 0 {
                let unclaimed = self.l0.len() - self.claimed_l0.len();
                let score = (unclaimed as u64 * 1000) / self.config.l0_compaction_threshold as u64;
                (score, unclaimed >= self.config.l0_compaction_threshold)
            } else {
                let size: usize = self.level_tables(level).iter().map(|t| t.size()).sum();
                let target = self.config.level_target(level) as u64;
                let score = (size as u64 * 1000) / target;
                (score, size as u64 > target)
            };
            if triggered && best.is_none_or(|b| score_milli > b.score_milli) {
                best = Some(CompactionPick { level, score_milli });
            }
        }
        best
    }

    /// Claims a picked compaction: records the input/target file numbers
    /// and locks the `{level, level+1}` pair. The claimed files stay in
    /// the tree (and readable) until [`Lsm::finish_compaction`].
    pub fn begin_compaction(&mut self, pick: &CompactionPick) -> CompactionJob {
        let level = pick.level;
        assert!(
            !self.is_locked(level) && !self.is_locked(level + 1),
            "level pair {{{level}, {}}} already locked",
            level + 1
        );
        let (input_nums, min, max) = if level == 0 {
            // Claim exactly the oldest T unclaimed files. Oldest-first is
            // load-bearing: the files left behind are newer, so they keep
            // shadowing the L1 output through read precedence.
            let mut unclaimed: Vec<&SsTable> =
                self.l0.iter().filter(|t| !self.claimed_l0.contains(&t.num())).collect();
            unclaimed.sort_by_key(|t| t.num());
            let inputs = unclaimed.get(..self.config.l0_compaction_threshold).unwrap_or_default();
            assert!(!inputs.is_empty(), "L0 claim past available files");
            let min = inputs.iter().filter_map(|t| t.min_key()).min().cloned();
            let max = inputs.iter().filter_map(|t| t.max_key()).max().cloned();
            let nums: Vec<u64> = inputs.iter().map(|t| t.num()).collect();
            self.claimed_l0.extend(nums.iter().copied());
            (nums, min, max)
        } else {
            let tables = self.levels.get(level - 1).map(Vec::as_slice).unwrap_or_default();
            assert!(!tables.is_empty(), "picked an empty level");
            // Round-robin over the level's files.
            let cursor = self.cursors.get_mut(level - 1).map_or(0, |next| {
                let at = *next % tables.len();
                *next = at + 1;
                at
            });
            match tables.get(cursor) {
                Some(file) => (vec![file.num()], file.min_key().cloned(), file.max_key().cloned()),
                None => (Vec::new(), None, None),
            }
        };
        let target_level = self.level_tables(level + 1);
        let target_nums = overlapping_nums(target_level, min.as_deref(), max.as_deref());
        let inputs = self.level_tables(level).iter().filter(|t| input_nums.contains(&t.num()));
        let targets = target_level.iter().filter(|t| target_nums.contains(&t.num()));
        let files: Vec<&SsTable> = inputs.chain(targets).collect();
        let bytes_in = files.iter().map(|t| t.size() as u64).sum();
        let min = files.iter().filter_map(|t| t.min_key()).min().cloned().unwrap_or_default();
        let max = files.iter().filter_map(|t| t.max_key()).max().cloned().unwrap_or_default();
        self.compacting.push(Compacting { level, min, max });
        CompactionJob { level, input_nums, target_nums, bytes_in }
    }

    /// Completes a claimed compaction: detaches the claimed files, merges
    /// them through the streaming [`MergeIter`] straight into the table
    /// builder (which keeps a handle to each surviving entry), installs the
    /// outputs into the target level, attributes the bytes, and unlocks
    /// the level pair.
    ///
    /// Two kinds of entry are left out of the output. A tombstone is
    /// elided when no table in any level below the output level spans its
    /// key (Pebble's rule): everything this job does not hold is then
    /// newer than the tombstone — the output level's overlapping files
    /// are all in the job, the source level's other files are disjoint
    /// from it or, in L0, newer (jobs claim oldest-first) — so there is
    /// nothing left for it to shadow. And whatever `filter` answers `true`
    /// for is dropped and counted in
    /// [`StorageMetrics::gc_versions_dropped`].
    pub fn finish_compaction(
        &mut self,
        job: CompactionJob,
        mut filter: Option<&mut CompactionFilter<'_>>,
    ) {
        let CompactionJob { level, input_nums, target_nums, bytes_in } = job;
        debug_assert!(
            self.compacting.iter().any(|c| c.level == level),
            "finishing a compaction whose level pair is not locked"
        );
        let mut inputs = if level == 0 {
            for n in &input_nums {
                self.claimed_l0.remove(n);
            }
            extract_by_num(&mut self.l0, &input_nums)
        } else {
            let source = self.levels.get_mut(level - 1);
            source.map(|tables| extract_by_num(tables, &input_nums)).unwrap_or_default()
        };
        // Newest first among L0 inputs so key collisions resolve to the
        // most recent claimed version; the target run is older than all of
        // them and non-overlapping within itself.
        inputs.sort_by_key(|t| std::cmp::Reverse(t.num()));
        let target = self.levels.get_mut(level);
        let targets = target.map(|tables| extract_by_num(tables, &target_nums)).unwrap_or_default();
        let below = self.levels.get(level + 1..).unwrap_or_default();
        let mut builder = TableBuilder::new(self.config.sst_target_size, self.next_file_num);
        {
            let sources: Vec<Source<'_>> =
                inputs.iter().chain(targets.iter()).map(|t| Source::Slice(t.entries())).collect();
            for entry in MergeIter::new(sources) {
                let (k, v) = (entry.key(), entry.value());
                if v.is_none() && !below.iter().any(|tables| level_spans(tables, k)) {
                    continue;
                }
                if filter.as_mut().is_some_and(|drops| drops(k, v)) {
                    count_gc_drop(&mut self.metrics, entry);
                    continue;
                }
                builder.add(entry);
            }
        }
        let (tables, next_num) = builder.finish();
        self.next_file_num = next_num;
        let bytes_out: u64 = tables.iter().map(|t| t.size() as u64).sum();
        #[expect(
            clippy::indexing_slicing,
            reason = "`pick_compaction` ranges over `0..levels.len()`; skipping the install would drop the job's outputs"
        )]
        let target = &mut self.levels[level];
        target.extend(tables);
        target.sort_by(|a, b| a.min_key().cmp(&b.min_key()));
        debug_assert!(
            target.is_sorted_by(|a, b| a.max_key() < b.min_key()),
            "level {} must stay non-overlapping",
            level + 1
        );
        self.metrics.compact_bytes_in += bytes_in;
        self.metrics.compact_bytes_out += bytes_out;
        self.metrics.compact_count += 1;
        if level == 0 {
            self.metrics.l0_compact_bytes += bytes_in;
        }
        let per_level = &mut self.metrics.compact_bytes_per_level;
        if let Some(bytes) = per_level.get_mut(level.min(COMPACT_LEVELS_TRACKED - 1)) {
            *bytes += bytes_in;
        }
        self.compacting.retain(|c| c.level != level);
    }

    /// Number of compaction jobs currently claimed.
    pub fn compactions_in_flight(&self) -> usize {
        self.compacting.len()
    }

    /// Whether an in-flight compaction reads or writes `level`.
    fn is_locked(&self, level: usize) -> bool {
        self.compacting.iter().any(|c| c.locks(level))
    }

    fn level_tables(&self, source_level: usize) -> &[SsTable] {
        if source_level == 0 {
            &self.l0
        } else {
            self.levels.get(source_level - 1).map(Vec::as_slice).unwrap_or_default()
        }
    }

    // ------------------------------------------------------------------
    // Backpressure
    // ------------------------------------------------------------------

    /// Whether a write should stall right now, and why: a flush backlog
    /// (frozen memtables piling up) or an L0 backlog (compaction falling
    /// behind). Embedders consult this *before* applying a write; the
    /// signal also reaches admission control via stall metrics.
    pub fn write_stall(&self) -> Option<StallReason> {
        if self.frozen.len() >= self.config.max_frozen_memtables {
            Some(StallReason::MemtableBacklog)
        } else if self.l0.len() >= self.config.l0_stall_threshold {
            Some(StallReason::L0Backlog)
        } else {
            None
        }
    }

    /// Records time a write spent stalled on backpressure.
    pub fn note_stall(&mut self, stalled: Duration) {
        self.metrics.stall_events += 1;
        self.metrics.stall_micros += stalled.as_micros() as u64;
    }

    /// Records how long a finished flush job ran on the embedder's
    /// modeled disk, queueing included — the time base of the §5.1.3
    /// flush-capacity estimate.
    pub fn note_flush_time(&mut self, ran_for: Duration) {
        self.metrics.flush_busy_nanos += ran_for.as_nanos() as u64;
    }

    /// Records how long a finished L0→L1 compaction job ran on the
    /// embedder's modeled disk (see [`Lsm::note_flush_time`]).
    pub fn note_l0_compaction_time(&mut self, ran_for: Duration) {
        self.metrics.l0_compact_busy_nanos += ran_for.as_nanos() as u64;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of files currently in L0.
    pub fn l0_file_count(&self) -> usize {
        self.l0.len()
    }

    /// Sizes of L1.. in bytes.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.iter().map(|t| t.size()).sum()).collect()
    }

    /// Read amplification: number of sorted runs a point read may consult.
    pub fn read_amplification(&self) -> usize {
        1 + self.frozen.len() + self.l0.len() + self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Total bytes across memtables (active + frozen) and all tables.
    pub fn total_bytes(&self) -> usize {
        self.memtable.approx_bytes()
            + self.frozen.iter().map(|f| f.mem.approx_bytes()).sum::<usize>()
            + self.l0.iter().map(|t| t.size()).sum::<usize>()
            + self.level_sizes().iter().sum::<usize>()
    }

    /// Cumulative instrumentation counters, including read-path counters.
    pub fn metrics(&self) -> StorageMetrics {
        let mut m = self.metrics;
        m.point_gets = self.read.point_gets.get();
        m.tables_probed = self.read.tables_probed.get();
        m.bloom_probes = self.read.bloom_probes.get();
        m.bloom_hits = self.read.bloom_hits.get();
        m.scans = self.read.scans.get();
        m.scan_entries_pulled = self.read.scan_entries_pulled.get();
        m.scan_entries_returned = self.read.scan_entries_returned.get();
        m
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }
}

// Each item leaks a claim on purpose, under an expectation the workspace
// lints deny leaving unfulfilled: if `begin_flush`, `FlushJob` or
// `CompactionJob` loses its attribute, the build fails.
#[expect(unused_must_use, reason = "proves a flush claimed and dropped fails the build")]
fn _flush_claim_dropped(lsm: &mut Lsm) {
    lsm.begin_flush();
}

#[expect(unused_must_use, reason = "proves a flush job dropped once claimed fails the build")]
fn _flush_job_dropped(lsm: &mut Lsm) -> Option<()> {
    lsm.begin_flush()?;
    Some(())
}

#[expect(unused_must_use, reason = "proves a compaction claimed and dropped fails the build")]
fn _compaction_claim_dropped(lsm: &mut Lsm, pick: &CompactionPick) {
    lsm.begin_compaction(pick);
}

/// A streaming scan over an [`Lsm`]'s live entries in `[start, end)`.
/// Yields borrowed `(key, value)` pairs in ascending key order; tombstones
/// and shadowed versions never surface. Entries-pulled/returned counts are
/// folded into the engine's [`StorageMetrics`] when the iterator drops.
pub struct LsmIter<'a> {
    inner: MergeIter<'a>,
    counters: &'a ReadCounters,
    pulled: u64,
    returned: u64,
}

impl<'a> Iterator for LsmIter<'a> {
    type Item = (&'a Key, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        for entry in self.inner.by_ref() {
            self.pulled += 1;
            if let Some(v) = entry.value() {
                self.returned += 1;
                return Some((entry.key(), v));
            }
        }
        None
    }
}

impl Drop for LsmIter<'_> {
    fn drop(&mut self) {
        let c = self.counters;
        c.scan_entries_pulled.set(c.scan_entries_pulled.get() + self.pulled);
        c.scan_entries_returned.set(c.scan_entries_returned.get() + self.returned);
    }
}

/// Counts one entry a collector dropped: what [`Lsm::finish_compaction`]
/// left out of its output or [`Lsm::collect_in_memtable`] removed.
fn count_gc_drop(metrics: &mut StorageMetrics, entry: &Entry) {
    metrics.gc_versions_dropped += 1;
    metrics.gc_bytes_dropped += entry.payload_len() as u64;
}

/// Index of the first table of a non-overlapping, sorted level whose key
/// range reaches `key` (its max key is not below it) — the only table of
/// the level that can hold `key`.
fn first_table_reaching(tables: &[SsTable], key: &[u8]) -> usize {
    tables.partition_point(|t| t.max_key().is_some_and(|k| k.as_ref() < key))
}

/// Whether some table of a non-overlapping, sorted level has `key` inside
/// its key bounds.
fn level_spans(tables: &[SsTable], key: &[u8]) -> bool {
    let table = tables.get(first_table_reaching(tables, key));
    table.and_then(|t| t.min_key()).is_some_and(|min| min.as_ref() <= key)
}

/// File numbers in `level` whose key ranges overlap `[min, max]`
/// (inclusive), in level order.
fn overlapping_nums(level: &[SsTable], min: Option<&[u8]>, max: Option<&[u8]>) -> Vec<u64> {
    let (Some(min), Some(max)) = (min, max) else {
        return Vec::new();
    };
    level.iter().filter(|t| t.overlaps_bounds(min, max)).map(|t| t.num()).collect()
}

/// Removes and returns the tables with the given file numbers, preserving
/// the order of `tables`. Panics if any number is missing — a claimed file
/// must still be present at job completion.
fn extract_by_num(tables: &mut Vec<SsTable>, nums: &[u64]) -> Vec<SsTable> {
    let want: BTreeSet<u64> = nums.iter().copied().collect();
    let taken: Vec<SsTable> = tables.extract_if(.., |t| want.contains(&t.num())).collect();
    assert_eq!(taken.len(), nums.len(), "claimed tables must still be present");
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::{flush, keep_all, maintain};
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("key{i:06}"))
    }

    fn value(i: u32) -> Bytes {
        Bytes::from(format!("value-{i:06}-{}", "x".repeat(32)))
    }

    /// A table's entries as owned pairs, for comparing with a literal.
    fn pairs(table: &SsTable) -> Vec<(Key, Option<Value>)> {
        table.entries().iter().map(|e| (e.key().clone(), e.value().cloned())).collect()
    }

    /// A put, then whatever background work it made due.
    fn put_maintained(lsm: &mut Lsm, key: Bytes, value: Bytes) {
        lsm.put(key, value);
        maintain(lsm, keep_all);
    }

    #[test]
    fn put_get_through_flush_and_compaction() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            put_maintained(&mut lsm, key(i), value(i));
        }
        assert!(lsm.metrics().flush_count > 0, "flushes happened");
        assert!(lsm.metrics().compact_count > 0, "compactions happened");
        for i in (0..500).step_by(37) {
            assert_eq!(lsm.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(lsm.get(b"nonexistent"), None);
    }

    #[test]
    fn overwrites_visible_after_compaction() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for round in 0..5u32 {
            for i in 0..100 {
                put_maintained(&mut lsm, key(i), Bytes::from(format!("round{round}-{i}")));
            }
        }
        for i in (0..100).step_by(13) {
            assert_eq!(lsm.get(&key(i)), Some(Bytes::from(format!("round4-{i}"))));
        }
    }

    #[test]
    fn deletes_shadow_older_values() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..200 {
            put_maintained(&mut lsm, key(i), value(i));
        }
        for i in (0..200).step_by(2) {
            lsm.delete(key(i));
            maintain(&mut lsm, keep_all);
        }
        flush(&mut lsm);
        maintain(&mut lsm, keep_all);
        for i in 0..200 {
            let got = lsm.get(&key(i));
            if i % 2 == 0 {
                assert_eq!(got, None, "deleted key {i} resurfaced");
            } else {
                assert_eq!(got, Some(value(i)), "live key {i} lost");
            }
        }
    }

    #[test]
    fn scan_merges_all_levels_in_order() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in (0..300).rev() {
            put_maintained(&mut lsm, key(i), value(i));
        }
        let out = lsm.scan(&key(100), &key(110), 1000);
        assert_eq!(out.len(), 10);
        for (n, (k, v)) in out.iter().enumerate() {
            assert_eq!(k, &key(100 + n as u32));
            assert_eq!(v, &value(100 + n as u32));
        }
    }

    #[test]
    fn scan_respects_limit_and_tombstones() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..50 {
            lsm.put(key(i), value(i));
        }
        lsm.delete(key(0));
        let out = lsm.scan(&key(0), &key(50), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].0, key(1), "tombstoned key skipped");
    }

    #[test]
    fn metrics_account_write_amplification() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..1000 {
            put_maintained(&mut lsm, key(i % 100), value(i));
        }
        let m = lsm.metrics();
        assert!(m.logical_bytes_written > 0);
        assert!(m.wal_bytes >= m.logical_bytes_written, "WAL framing adds bytes");
        assert!(m.write_amplification() > 1.0, "amp={}", m.write_amplification());
        assert!(m.l0_compact_bytes > 0);
        assert_eq!(
            m.compact_bytes_per_level[0], m.l0_compact_bytes,
            "per-level L0 slot mirrors the l0 counter"
        );
    }

    #[test]
    fn manual_maintenance_mode_defers_work() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..200 {
            lsm.put(key(i), value(i));
        }
        assert_eq!(lsm.metrics().flush_count, 0, "no flush until asked");
        assert!(lsm.frozen_count() > 0, "full memtables wait frozen for a flush");
        maintain(&mut lsm, keep_all);
        assert!(lsm.metrics().flush_count > 0);
        assert_eq!(lsm.frozen_count(), 0);
        for i in (0..200).step_by(17) {
            assert_eq!(lsm.get(&key(i)), Some(value(i)));
        }
    }

    #[test]
    fn read_amp_shrinks_after_compaction() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..400 {
            lsm.put(key(i), value(i));
            if i % 20 == 19 {
                flush(&mut lsm);
            }
        }
        let before = lsm.read_amplification();
        maintain(&mut lsm, keep_all);
        let after = lsm.read_amplification();
        assert!(after < before, "read amp {before} -> {after}");
        // What stays in L0 is short of one job: no job claims less.
        assert!(lsm.l0_file_count() < lsm.config().l0_compaction_threshold);
    }

    #[test]
    fn empty_engine_behaves() {
        let lsm = Lsm::new(LsmConfig::default());
        assert_eq!(lsm.get(b"k"), None);
        assert!(lsm.scan(b"a", b"z", 10).is_empty());
        assert_eq!(lsm.read_amplification(), 1);
        assert_eq!(lsm.total_bytes(), 0);
        assert!(lsm.pick_compaction().is_none());
        assert!(lsm.write_stall().is_none());
    }

    #[test]
    fn bloom_filters_cut_point_probes() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        // Disjoint key ranges per L0 file: probes for one range should be
        // filtered out of every other file.
        for file in 0..8u32 {
            for i in 0..20 {
                lsm.put(key(file * 1000 + i), value(i));
            }
            flush(&mut lsm);
        }
        for file in 0..8u32 {
            assert_eq!(lsm.get(&key(file * 1000 + 7)), Some(value(7)));
        }
        let m = lsm.metrics();
        assert_eq!(m.point_gets, 8);
        assert!(m.bloom_probes > 0);
        assert!(m.bloom_hit_rate() > 0.0, "filters skipped non-matching L0 files");
        assert!(
            m.tables_probed_per_get() < lsm.read_amplification() as f64,
            "probed {} of {} runs per get",
            m.tables_probed_per_get(),
            lsm.read_amplification()
        );
    }

    #[test]
    fn scan_limit_pushdown_bounds_pulled_entries() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..2000 {
            put_maintained(&mut lsm, key(i), value(i));
        }
        let before = lsm.metrics();
        let out = lsm.scan(&key(0), &key(2000), 5);
        assert_eq!(out.len(), 5);
        let d = lsm.metrics().delta(&before);
        assert_eq!(d.scans, 1);
        assert_eq!(d.scan_entries_returned, 5);
        // With pushdown a limit-5 scan pulls a handful of entries per
        // source, not the whole 2000-key span.
        assert!(
            d.scan_entries_pulled < 100,
            "pulled {} entries for a limit-5 scan",
            d.scan_entries_pulled
        );
    }

    #[test]
    fn scan_visit_stops_early() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            lsm.put(key(i), value(i));
        }
        let mut seen = Vec::new();
        lsm.scan_visit(&key(0), &key(500), |k, _| {
            seen.push(k.clone());
            seen.len() < 3
        });
        assert_eq!(seen, vec![key(0), key(1), key(2)]);
    }

    #[test]
    fn scan_visit_spans_walks_its_spans_in_the_order_given_as_one_scan() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..10 {
            lsm.put(key(i), value(i));
        }
        let (late, early) = ((key(6), key(8)), (key(1), key(3)));
        let spans: [(&[u8], &[u8]); 2] = [(&late.0, &late.1), (&early.0, &early.1)];
        let before = lsm.metrics();
        let mut seen = Vec::new();
        lsm.scan_visit_spans(&spans, |k, _| {
            seen.push(k.clone());
            true
        });
        assert_eq!(seen, vec![key(6), key(7), key(1), key(2)]);
        let d = lsm.metrics().delta(&before);
        assert_eq!((d.scans, d.scan_entries_pulled, d.scan_entries_returned), (1, 4, 4));
        // `false` ends the whole walk, not only its span.
        seen.clear();
        lsm.scan_visit_spans(&spans, |k, _| {
            seen.push(k.clone());
            seen.len() < 3
        });
        assert_eq!(seen, vec![key(6), key(7), key(1)]);
    }

    #[test]
    fn iter_streams_in_order_across_levels() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in (0..100).rev() {
            lsm.put(key(i), value(i));
            if i % 25 == 0 {
                flush(&mut lsm);
            }
        }
        maintain(&mut lsm, keep_all);
        let start = key(0);
        let end = key(100);
        let collected: Vec<_> =
            lsm.iter(&start, &end).map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(collected.len(), 100);
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0), "ascending key order");
    }

    #[test]
    fn bytes_survive_in_levels() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            put_maintained(&mut lsm, key(i), value(i));
        }
        flush(&mut lsm);
        maintain(&mut lsm, keep_all);
        assert!(lsm.total_bytes() > 0);
        let sizes = lsm.level_sizes();
        assert!(sizes.iter().sum::<usize>() > 0, "{sizes:?}");
    }

    // ------------------------------------------------------------------
    // Write-pipeline tests
    // ------------------------------------------------------------------

    /// Tiny config with a memtable too big to rotate on its own — tests
    /// that drive `freeze_active` by hand need rotation under their
    /// control.
    fn manual_rotation_config() -> LsmConfig {
        LsmConfig { memtable_size: 1 << 20, ..LsmConfig::tiny() }
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..10 {
            lsm.put(key(i), value(i));
        }
        assert_eq!(lsm.metrics().fsyncs, 0, "no sync until the group commits");
        assert_eq!(lsm.wal_unsynced_batches(), 10);
        let g = lsm.group_commit();
        assert_eq!(g.batches, 10);
        let m = lsm.metrics();
        assert_eq!(m.fsyncs, 1);
        assert_eq!(m.batches_synced, 10);
        assert!((m.batches_per_fsync() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_flush_keeps_reads_consistent() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in 0..50 {
            lsm.put(key(i), value(i));
        }
        assert!(lsm.freeze_active());
        // Writes keep landing in the fresh active memtable.
        for i in 50..60 {
            lsm.put(key(i), value(i));
        }
        lsm.put(key(3), b("overwrite"));
        let job = lsm.begin_flush().expect("one frozen memtable");
        assert!(lsm.flush_in_flight());
        assert!(job.bytes_estimate() > 0);
        // Mid-flight: frozen data and newer overwrites both visible.
        assert_eq!(lsm.get(&key(10)), Some(value(10)), "frozen entry readable mid-flush");
        assert_eq!(lsm.get(&key(3)), Some(b("overwrite")), "active shadows frozen");
        assert_eq!(lsm.metrics().flush_bytes, 0, "bytes attributed at completion only");
        lsm.finish_flush(job);
        assert_eq!(lsm.frozen_count(), 0);
        assert_eq!(lsm.l0_file_count(), 1);
        assert!(lsm.metrics().flush_bytes > 0);
        assert_eq!(lsm.get(&key(10)), Some(value(10)), "entry readable from L0");
        assert_eq!(lsm.get(&key(3)), Some(b("overwrite")));
    }

    #[test]
    fn only_one_flush_in_flight() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for round in 0..2 {
            for i in 0..30 {
                lsm.put(key(round * 100 + i), value(i));
            }
            lsm.freeze_active();
        }
        assert_eq!(lsm.frozen_count(), 2);
        let job = lsm.begin_flush().expect("first claim");
        assert!(lsm.begin_flush().is_none(), "second concurrent flush refused");
        lsm.finish_flush(job);
        assert!(lsm.begin_flush().is_some(), "next flush claimable after finish");
    }

    #[test]
    fn l0_jobs_claim_oldest_files_and_leave_newer_readable() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        // Three L0 files over the same key, oldest value first.
        for (n, v) in ["v-old", "v-mid", "v-new"].iter().enumerate() {
            lsm.put(key(1), b(v));
            lsm.put(key(100 + n as u32), value(n as u32));
            lsm.freeze_active();
            let job = lsm.begin_flush().unwrap();
            lsm.finish_flush(job);
        }
        assert_eq!(lsm.l0_file_count(), 3);
        let pick = lsm.pick_compaction().expect("L0 over threshold");
        assert_eq!(pick.level, 0);
        let job = lsm.begin_compaction(&pick);
        // threshold = 2: exactly the two oldest files are claimed.
        assert_eq!(job.input_nums, vec![1, 2], "oldest-first claim");
        assert!(job.bytes_in() > 0);
        // Mid-flight: the newest (unclaimed) file still shadows.
        assert_eq!(lsm.get(&key(1)), Some(b("v-new")));
        lsm.finish_compaction(job, None);
        assert_eq!(lsm.l0_file_count(), 1, "unclaimed file stays in L0");
        assert_eq!(lsm.get(&key(1)), Some(b("v-new")), "newest version survives the merge");
        assert_eq!(lsm.get(&key(100)), Some(value(0)), "compacted data readable from L1");
    }

    #[test]
    fn compactions_on_disjoint_level_pairs_run_concurrently() {
        // Every level below L0 is over its size target once it holds
        // anything, so data pushed down to L2 makes an L2→L3 job due, and
        // two fresh L0 files make an L0→L1 job due beside it.
        let mut lsm = Lsm::new(LsmConfig { level_base_size: 1, ..LsmConfig::tiny() });
        for round in 0..2u32 {
            for i in 0..10 {
                lsm.put(key(round * 10 + i), value(round * 10 + i));
            }
            flush(&mut lsm);
        }
        compact_level(&mut lsm, 0, None);
        while lsm.level_sizes()[0] > 0 {
            compact_level(&mut lsm, 1, None);
        }
        for round in 0..2u32 {
            for i in 0..10 {
                lsm.put(key(10_000 + round * 100 + i), value(i));
            }
            flush(&mut lsm);
        }
        // Claim the deep job first; the L0 job must still be pickable.
        let deep = lsm.pick_compaction().unwrap();
        assert_eq!(deep.level, 2, "deep level over target picked first: {deep:?}");
        let deep_job = lsm.begin_compaction(&deep);
        let l0_pick = lsm.pick_compaction().expect("L0 pair unlocked while deep job runs");
        assert_eq!(l0_pick.level, 0);
        let l0_job = lsm.begin_compaction(&l0_pick);
        assert_eq!(lsm.compactions_in_flight(), 2);
        assert!(lsm.pick_compaction().is_none(), "every other pair overlaps a locked level");
        // Reads stay consistent with both jobs mid-flight.
        assert_eq!(lsm.get(&key(10_000)), Some(value(0)));
        assert_eq!(lsm.get(&key(5)), Some(value(5)));
        // Finish out of claim order: completion order must not matter.
        lsm.finish_compaction(l0_job, None);
        lsm.finish_compaction(deep_job, None);
        assert_eq!(lsm.compactions_in_flight(), 0);
        // Settle fully and verify reads either way.
        maintain(&mut lsm, keep_all);
        for i in 0..20 {
            assert_eq!(lsm.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(lsm.get(&key(10_109)), Some(value(9)));
    }

    #[test]
    fn same_level_pair_is_locked_while_job_runs() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for round in 0..3u32 {
            for i in 0..40 {
                lsm.put(key(round * 100 + i), value(i));
            }
            lsm.freeze_active();
            let job = lsm.begin_flush().unwrap();
            lsm.finish_flush(job);
        }
        let pick = lsm.pick_compaction().expect("L0 triggered");
        let job = lsm.begin_compaction(&pick);
        // L0 still has an unclaimed file but the {0,1} pair is locked.
        assert!(lsm.pick_compaction().is_none(), "L0/L1 locked while the job runs");
        lsm.finish_compaction(job, None);
    }

    #[test]
    fn a_write_never_runs_background_work() {
        // However large the backlog, a write appends, applies and at most
        // rotates: no unlucky write pays for a flush or a compaction, which
        // wait for whoever claims them as jobs.
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..800 {
            lsm.put(key(i), value(i));
            if i % 25 == 24 {
                flush(&mut lsm);
            }
        }
        for i in 800..900 {
            lsm.put(key(i), value(i));
        }
        assert!(
            lsm.l0_file_count() >= 2 * lsm.config().l0_compaction_threshold,
            "backlog built: {} L0 files",
            lsm.l0_file_count()
        );
        assert!(lsm.frozen_count() > 0 && lsm.pick_compaction().is_some());
        let before = lsm.metrics();
        lsm.put(key(9999), value(0));
        let d = lsm.metrics().delta(&before);
        assert_eq!((d.flush_count, d.compact_count), (0, 0), "a write ran background work");
    }

    #[test]
    fn compaction_bytes_attributed_at_completion() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for round in 0..2u32 {
            for i in 0..40 {
                lsm.put(key(i), value(round * 1000 + i));
            }
            lsm.freeze_active();
            let job = lsm.begin_flush().unwrap();
            lsm.finish_flush(job);
        }
        let pick = lsm.pick_compaction().unwrap();
        let job = lsm.begin_compaction(&pick);
        let mid = lsm.metrics();
        assert_eq!(mid.compact_bytes_in, 0, "no bytes before completion");
        assert_eq!(mid.compact_count, 0);
        let expected_in = job.bytes_in();
        lsm.finish_compaction(job, None);
        let done = lsm.metrics();
        assert_eq!(done.compact_bytes_in, expected_in);
        assert_eq!(done.l0_compact_bytes, expected_in);
        assert_eq!(done.compact_bytes_per_level[0], expected_in);
        assert!(done.compact_bytes_out > 0);
        assert_eq!(done.compact_count, 1);
    }

    /// Flushes `keys` (a `None` value = tombstone) as one L0 file.
    fn flush_file(lsm: &mut Lsm, entries: &[(u32, Option<u32>)]) {
        let mut batch = WriteBatch::new();
        for &(k, v) in entries {
            match v {
                Some(v) => batch.put(key(k), value(v)),
                None => batch.delete(key(k)),
            };
        }
        lsm.apply(&batch);
        flush(lsm);
    }

    fn compact_level(lsm: &mut Lsm, level: usize, filter: Option<&mut CompactionFilter<'_>>) {
        let job = lsm.begin_compaction(&CompactionPick { level, score_milli: 0 });
        lsm.finish_compaction(job, filter);
    }

    #[test]
    fn tombstones_are_elided_where_no_lower_table_spans_them() {
        let mut lsm = Lsm::new(manual_rotation_config());
        // Keys 10..=20 go down to L2; nothing else is below L0.
        flush_file(&mut lsm, &[(10, Some(1))]);
        flush_file(&mut lsm, &[(20, Some(1))]);
        compact_level(&mut lsm, 0, None);
        compact_level(&mut lsm, 1, None);
        assert!(lsm.level_sizes()[0] == 0 && lsm.level_sizes()[1] > 0, "{:?}", lsm.level_sizes());
        // One tombstone inside the L2 table's bounds, one outside them,
        // and one over a key whose only value is in this very job.
        flush_file(&mut lsm, &[(5, None), (15, None), (30, Some(7))]);
        flush_file(&mut lsm, &[(30, None), (40, Some(9))]);
        compact_level(&mut lsm, 0, None);
        let l1: Vec<(Key, Option<Value>)> = lsm.levels[0].iter().flat_map(pairs).collect();
        assert_eq!(
            l1,
            vec![(key(15), None), (key(40), Some(value(9)))],
            "only the tombstone a lower table might still need survives"
        );
        // The conservation identity holds whatever was elided.
        let m = lsm.metrics();
        assert_eq!(
            m.flush_bytes + m.compact_bytes_out,
            m.compact_bytes_in + lsm.total_bytes() as u64
        );
        // Pushed into L2 it meets what it could have shadowed and, with
        // nothing below that, goes.
        compact_level(&mut lsm, 1, None);
        let l2: Vec<Key> = lsm.levels[1]
            .iter()
            .flat_map(|t| t.entries().iter().map(|e| e.key().clone()))
            .collect();
        assert_eq!(l2, vec![key(10), key(20), key(40)]);
    }

    #[test]
    fn compaction_filter_sees_survivors_in_order_and_drops_what_it_says() {
        let mut lsm = Lsm::new(manual_rotation_config());
        flush_file(&mut lsm, &[(1, Some(1)), (2, Some(1)), (3, Some(1))]);
        flush_file(&mut lsm, &[(2, Some(2)), (3, None), (4, Some(2))]);
        let mut shown = Vec::new();
        let mut filter = |k: &Key, v: Option<&Value>| {
            shown.push((k.clone(), v.cloned()));
            *k == key(1) || *k == key(4)
        };
        compact_level(&mut lsm, 0, Some(&mut filter));
        // Shadowed versions and the elidable tombstone never reach it.
        assert_eq!(
            shown,
            vec![(key(1), Some(value(1))), (key(2), Some(value(2))), (key(4), Some(value(2)))]
        );
        assert_eq!(lsm.scan(b"", b"z", 10), vec![(key(2), value(2))]);
        let m = lsm.metrics();
        assert_eq!(m.gc_versions_dropped, 2);
        assert_eq!(m.gc_bytes_dropped, 2 * (key(1).len() + value(1).len()) as u64);
        assert_eq!(
            m.flush_bytes + m.compact_bytes_out,
            m.compact_bytes_in + lsm.total_bytes() as u64
        );
    }

    #[test]
    fn collect_in_memtable_drops_what_its_filter_says_in_the_active_memtable_span_only() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in 0..3 {
            lsm.put(key(i), value(i));
        }
        lsm.freeze_active();
        for i in 3..9 {
            lsm.put(key(i), value(i));
        }
        let before = lsm.total_bytes();
        let mut shown = Vec::new();
        let mut odd = |k: &Key, _: Option<&Value>| {
            shown.push(k.clone());
            [key(1), key(3), key(5), key(7)].contains(k)
        };
        // `1` is frozen and `7` outside the span: only `3` and `5` go.
        assert_eq!(lsm.collect_in_memtable(&key(0), &key(6), &mut odd), 2);
        assert_eq!(shown, vec![key(3), key(4), key(5)], "the active memtable's span, in order");
        for (i, kept) in [(1, true), (3, false), (4, true), (5, false), (7, true)] {
            assert_eq!(lsm.get(&key(i)).is_some(), kept, "key {i}");
        }
        let m = lsm.metrics();
        assert_eq!(m.gc_versions_dropped, 2);
        assert_eq!(m.gc_bytes_dropped, (key(3).len() + value(3).len()) as u64 * 2);
        assert!(lsm.total_bytes() < before, "the memtable gave its bytes back");
    }

    // ------------------------------------------------------------------
    // Table ingestion
    // ------------------------------------------------------------------

    /// A table of `keys`, each holding `value(1000 + k)`, for ingestion:
    /// one run of entries, as an embedder builds a table whole.
    fn ingest(keys: &[u32]) -> SsTable {
        SsTable::new(0, Entry::run(keys.iter().map(|&k| (key(k), Some(value(1000 + k)))).collect()))
    }

    /// Pushes `keys`, in two L0 files, down into `level`.
    fn push_down(lsm: &mut Lsm, keys: &[u32], level: usize) {
        let (first, second) = keys.split_at(keys.len() / 2);
        for half in [first, second] {
            let entries: Vec<(u32, Option<u32>)> = half.iter().map(|&k| (k, Some(k))).collect();
            flush_file(lsm, &entries);
        }
        for source in 0..level {
            compact_level(lsm, source, None);
        }
    }

    #[test]
    fn ingest_into_an_empty_tree_lands_in_the_bottom_level() {
        let mut lsm = Lsm::new(manual_rotation_config());
        let table = ingest(&[1, 2, 3]);
        let bottom = lsm.config().num_levels;
        assert_eq!(lsm.ingest_table(&table), Ok(bottom));
        assert_eq!(lsm.levels[bottom - 1][0].num(), 1, "under the engine's own file number");
        for k in 1..=3 {
            assert_eq!(lsm.get(&key(k)), Some(value(1000 + k)));
        }
        let m = lsm.metrics();
        assert_eq!((m.ingest_tables, m.ingest_bytes), (1, table.size() as u64));
        assert_eq!(m.logical_bytes_written, table.payload_bytes() as u64);
        assert_eq!((m.wal_bytes, m.wal_batches, m.flush_count), (0, 0, 0), "no WAL, no flush");
        assert_eq!(m.physical_write_bytes(), table.size() as u64, "written once");
        assert_eq!(lsm.total_bytes(), table.size());
    }

    #[test]
    fn ingest_lands_above_the_first_level_it_overlaps() {
        let mut lsm = Lsm::new(manual_rotation_config());
        push_down(&mut lsm, &[10, 20], 2);
        assert_eq!(lsm.ingest_table(&ingest(&[15])), Ok(1), "L2 spans 15");
        assert_eq!(lsm.ingest_table(&ingest(&[12])), Ok(1), "L1 is still clear of 12");
        assert_eq!(lsm.ingest_table(&ingest(&[30])), Ok(4), "nothing spans 30");
        assert_eq!(lsm.ingest_table(&ingest(&[14, 16])), Ok(0), "L1 spans 15");
        let l1: Vec<Key> = lsm.levels[0].iter().filter_map(|t| t.min_key().cloned()).collect();
        assert_eq!(l1, vec![key(12), key(15)], "L1 stays sorted");
        // An L0 file over its keys puts it in L0, as the newest file.
        flush_file(&mut lsm, &[(40, Some(1))]);
        assert_eq!(lsm.ingest_table(&ingest(&[40])), Ok(0));
        assert_eq!(lsm.get(&key(40)), Some(value(1040)), "newer than the flushed write");
        for k in [10, 20] {
            assert_eq!(lsm.get(&key(k)), Some(value(k)));
        }
        for k in [12, 14, 15, 16, 30] {
            assert_eq!(lsm.get(&key(k)), Some(value(1000 + k)));
        }
        maintain(&mut lsm, keep_all);
        let all: Vec<Key> = lsm.scan(b"", b"z", 100).into_iter().map(|(k, _)| k).collect();
        assert_eq!(all, [10, 12, 14, 15, 16, 20, 30, 40].map(key).to_vec());
    }

    #[test]
    fn ingest_refuses_a_table_a_memtable_overlaps() {
        let mut lsm = Lsm::new(manual_rotation_config());
        lsm.put(key(5), value(5));
        assert_eq!(lsm.ingest_table(&ingest(&[1, 9])), Err(IngestError::OverlapsMemtable));
        lsm.freeze_active();
        assert_eq!(
            lsm.ingest_table(&ingest(&[5])),
            Err(IngestError::OverlapsMemtable),
            "a frozen memtable is read before every table too"
        );
        assert_eq!(lsm.ingest_table(&SsTable::new(0, Vec::new())), Err(IngestError::Empty));
        assert_eq!(lsm.metrics().ingest_tables, 0);
        assert_eq!(lsm.get(&key(5)), Some(value(5)));
        assert_eq!(lsm.ingest_table(&ingest(&[6, 9])), Ok(4), "disjoint from the memtables");
    }

    #[test]
    fn ingest_passes_over_a_level_an_overlapping_compaction_locked() {
        // With only an L0 job in flight, the L1 it writes is passed over
        // and the search goes on: its output holds none of these keys.
        let mut lsm = Lsm::new(manual_rotation_config());
        flush_file(&mut lsm, &[(1, Some(1)), (3, Some(3))]);
        flush_file(&mut lsm, &[(30, Some(30)), (32, Some(32))]);
        let job = lsm.begin_compaction(&CompactionPick { level: 0, score_milli: 0 });
        assert_eq!(lsm.ingest_table(&ingest(&[10])), Ok(4));
        lsm.finish_compaction(job, None);

        // With L2 spanning the keys, the locked L1 leaves only L0.
        let mut lsm = Lsm::new(manual_rotation_config());
        push_down(&mut lsm, &[5, 50], 2);
        flush_file(&mut lsm, &[(1, Some(1)), (3, Some(3))]);
        flush_file(&mut lsm, &[(30, Some(30)), (32, Some(32))]);
        let job = lsm.begin_compaction(&CompactionPick { level: 0, score_milli: 0 });
        // The job's output may span 1..=32 in L1, though no file does yet.
        assert_eq!(lsm.ingest_table(&ingest(&[10])), Ok(0), "L1 locked over 10");
        assert_eq!(lsm.ingest_table(&ingest(&[40])), Ok(1), "the job's span ends at 32");
        lsm.finish_compaction(job, None);
        assert_eq!(lsm.ingest_table(&ingest(&[20])), Ok(0), "L1 now spans 20");
        for k in [10, 20, 40] {
            assert_eq!(lsm.get(&key(k)), Some(value(1000 + k)));
        }
        for k in [1, 3, 5, 30, 32, 50] {
            assert_eq!(lsm.get(&key(k)), Some(value(k)));
        }
    }

    #[test]
    fn engines_that_ingest_one_table_share_it_and_compact_it_apart() {
        let shared = ingest(&[1, 2, 3]);
        let mut engines: Vec<Lsm> = (0..3).map(|_| Lsm::new(manual_rotation_config())).collect();
        for (n, lsm) in engines.iter_mut().enumerate() {
            // Different histories, so different next file numbers.
            for i in 0..n as u32 {
                flush_file(lsm, &[(100 + i, Some(i))]);
            }
            assert_eq!(lsm.ingest_table(&shared), Ok(4));
        }
        let nums: Vec<u64> = engines.iter().map(|l| l.levels[3][0].num()).collect();
        assert_eq!(nums, vec![1, 2, 3], "each engine numbers it");
        assert!(engines.iter().all(|l| l.levels[3][0].shares_allocation_with(&shared)));

        // Engine 0 overwrites a key and merges the table away.
        let (first, others) = engines.split_at_mut(1);
        let lsm = &mut first[0];
        flush_file(lsm, &[(2, Some(7))]);
        flush_file(lsm, &[(200, Some(8))]);
        for source in 0..4 {
            compact_level(lsm, source, None);
        }
        assert!(!lsm.levels[3].iter().any(|t| t.shares_allocation_with(&shared)));
        assert_eq!(lsm.get(&key(2)), Some(value(7)));
        assert_eq!(lsm.get(&key(1)), Some(value(1001)));
        for other in others {
            assert!(other.levels[3][0].shares_allocation_with(&shared));
            for k in 1..=3 {
                assert_eq!(other.get(&key(k)), Some(value(1000 + k)), "copy intact");
            }
        }
        assert_eq!(shared.get(&key(2)), Some(Some(value(1002))));
    }

    #[test]
    fn a_compaction_into_an_ingested_table_merges_it() {
        let mut lsm = Lsm::new(manual_rotation_config());
        assert_eq!(lsm.ingest_table(&ingest(&[1, 2, 3, 4])), Ok(4));
        flush_file(&mut lsm, &[(2, None), (3, Some(3))]);
        flush_file(&mut lsm, &[(5, Some(5))]);
        for source in 0..4 {
            compact_level(&mut lsm, source, None);
        }
        assert_eq!(lsm.levels[3].len(), 1, "one output table");
        let bottom = pairs(&lsm.levels[3][0]);
        assert_eq!(
            bottom,
            vec![
                (key(1), Some(value(1001))),
                (key(3), Some(value(3))),
                (key(4), Some(value(1004))),
                (key(5), Some(value(5))),
            ],
            "newer writes win and the tombstone goes at the bottom"
        );
        let m = lsm.metrics();
        assert_eq!(
            m.flush_bytes + m.ingest_bytes + m.compact_bytes_out,
            m.compact_bytes_in + lsm.total_bytes() as u64,
            "every byte written once is read or still held"
        );
    }

    #[test]
    fn replicas_that_apply_one_batch_hold_one_allocation_per_entry() {
        let mut batch = WriteBatch::new();
        for i in 0..20 {
            batch.put(key(i), value(i));
        }
        // Whatever a replica holds for keys 0..20 must be the batch's own
        // entries, in key order (the batch's order too).
        let shares_batch = |held: Vec<&Entry>| {
            held.len() == batch.len()
                && held.iter().zip(batch.entries()).all(|(h, e)| h.shares_allocation_with(e))
        };
        let mut replicas: Vec<Lsm> = (0..3).map(|_| Lsm::new(manual_rotation_config())).collect();
        for lsm in &mut replicas {
            lsm.apply(&batch);
            assert!(shares_batch(lsm.memtable.range(b"", b"\xff").collect()), "in the memtable");
        }
        for lsm in &mut replicas {
            flush(lsm);
            assert!(shares_batch(lsm.l0[0].entries().iter().collect()), "after its flush");
        }
        for lsm in &mut replicas {
            flush_file(lsm, &[(100, Some(1))]);
            compact_level(lsm, 0, None);
            let out = lsm.levels[0].iter().flat_map(|t| t.entries());
            assert!(shares_batch(out.filter(|e| *e.key() < key(20)).collect()), "compacted");
        }
    }

    #[test]
    fn write_stall_signals_flush_and_l0_backlogs() {
        let mut config = manual_rotation_config();
        config.max_frozen_memtables = 2;
        config.l0_stall_threshold = 3;
        let mut lsm = Lsm::new(config);
        assert!(lsm.write_stall().is_none());
        for round in 0..2u32 {
            for i in 0..20 {
                lsm.put(key(round * 100 + i), value(i));
            }
            lsm.freeze_active();
        }
        assert_eq!(lsm.write_stall(), Some(StallReason::MemtableBacklog));
        // Drain the flush backlog into L0 until the L0 stall trips.
        while let Some(job) = lsm.begin_flush() {
            lsm.finish_flush(job);
        }
        assert!(lsm.write_stall().is_none(), "two L0 files are under the stall threshold");
        for round in 2..4u32 {
            for i in 0..20 {
                lsm.put(key(round * 100 + i), value(i));
            }
            lsm.freeze_active();
            let job = lsm.begin_flush().unwrap();
            lsm.finish_flush(job);
        }
        assert_eq!(lsm.write_stall(), Some(StallReason::L0Backlog));
        lsm.note_stall(Duration::from_micros(250));
        let m = lsm.metrics();
        assert_eq!((m.stall_events, m.stall_micros), (1, 250));
        // Compacting L0 away clears the stall.
        maintain(&mut lsm, keep_all);
        assert!(lsm.write_stall().is_none());
    }

    #[test]
    fn wal_truncates_once_everything_is_flushed() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in 0..30 {
            lsm.put(key(i), value(i));
        }
        assert!(lsm.wal_unsynced_batches() > 0);
        assert_eq!((lsm.wal_appended_seq(), lsm.wal_synced_seq()), (30, 0));
        lsm.freeze_active();
        let job = lsm.begin_flush().unwrap();
        lsm.finish_flush(job);
        // Active and frozen both empty after the flush → WAL truncated,
        // and the unsynced batches were surfaced as durable-via-data.
        assert_eq!(lsm.wal_unsynced_batches(), 0);
        assert_eq!(lsm.wal_synced_seq(), 30, "the durability mark moved with them");
        assert!(lsm.metrics().batches_synced >= 30);
    }
}
