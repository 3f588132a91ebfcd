//! Differential tests for the pipelined write path: any interleaving of
//! group commits, memtable freezes, in-flight flushes and concurrent
//! per-level compactions must leave reads byte-for-byte identical to a
//! serially-maintained engine and to a `BTreeMap` model — including reads
//! taken *mid-flight*, while flush and compaction jobs hold their inputs,
//! and tables ingested whole into whatever level they may occupy.

use bytes::Bytes;
use crdb_storage::{Entry, Lsm, LsmConfig, SsTable, WriteBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "support/maintain.rs"]
mod maintain;
use maintain::{flush, keep_all, maintain};

fn key(k: u32) -> Bytes {
    if k.is_multiple_of(7) {
        Bytes::from(format!("k{}", k / 7)) // short form: prefix of longer keys
    } else {
        Bytes::from(format!("k{k:05}"))
    }
}

fn value(v: u32) -> Bytes {
    Bytes::from(format!("v{v}-{}", "y".repeat((v % 17) as usize)))
}

/// One engine pair under test: `piped` runs manual pipelined maintenance
/// (group commits, jobs held in flight across other operations);
/// `serial` has the maintenance driver run every job due after each write,
/// so no job is ever held.
struct Pair {
    piped: Lsm,
    serial: Lsm,
    model: BTreeMap<Bytes, Bytes>,
    compactions: Vec<crdb_storage::CompactionJob>,
    flush: Option<crdb_storage::FlushJob>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            piped: Lsm::new(LsmConfig::tiny()),
            serial: Lsm::new(LsmConfig::tiny()),
            model: BTreeMap::new(),
            compactions: Vec::new(),
            flush: None,
        }
    }

    fn apply_random_op(&mut self, rng: &mut SmallRng, key_space: u32) {
        match rng.gen_range(0u32..15) {
            // Batched writes dominate, mixing puts and deletes.
            0..=5 => {
                let mut batch = WriteBatch::new();
                for _ in 0..rng.gen_range(1usize..8) {
                    let k = rng.gen_range(0u32..key_space);
                    if rng.gen_range(0u32..4) == 0 {
                        batch.delete(key(k));
                        self.model.remove(&key(k));
                    } else {
                        let v = rng.gen_range(0u32..1000);
                        batch.put(key(k), value(v));
                        self.model.insert(key(k), value(v));
                    }
                }
                self.piped.apply(&batch);
                self.serial.apply(&batch);
                maintain(&mut self.serial, keep_all);
            }
            6 => {
                self.piped.group_commit();
            }
            7 => {
                self.piped.freeze_active();
            }
            8 => {
                if self.flush.is_none() {
                    self.flush = self.piped.begin_flush();
                }
            }
            9 => {
                if let Some(job) = self.flush.take() {
                    self.piped.finish_flush(job);
                }
            }
            10 => {
                if self.compactions.len() < 3 {
                    if let Some(pick) = self.piped.pick_compaction() {
                        self.compactions.push(self.piped.begin_compaction(&pick));
                    }
                }
            }
            11 => {
                // Finish a *random* in-flight compaction — completion
                // order independence is the point of per-level locking.
                if !self.compactions.is_empty() {
                    let i = rng.gen_range(0..self.compactions.len());
                    let job = self.compactions.swap_remove(i);
                    self.piped.finish_compaction(job, None);
                }
            }
            12 => self.ingest_random_table(rng, key_space),
            _ => {
                flush(&mut self.serial);
                maintain(&mut self.serial, keep_all);
            }
        }
    }

    /// Ingests one table of a few keys into both engines, half the time
    /// above the written key space. An engine whose memtable overlaps it
    /// refuses it, and then takes the same entries as a write, as an
    /// embedder would: either way the rows are the newest.
    fn ingest_random_table(&mut self, rng: &mut SmallRng, key_space: u32) {
        let first = rng.gen_range(0u32..key_space * 2);
        let mut entries: Vec<(Bytes, Option<Bytes>)> = (first..first + rng.gen_range(1u32..5))
            .map(|k| (key(k), Some(value(rng.gen_range(0u32..1000)))))
            .collect();
        entries.sort();
        entries.dedup_by(|a, b| a.0 == b.0);
        let mut batch = WriteBatch::new();
        for (k, v) in &entries {
            if let Some(v) = v {
                batch.put(k.clone(), v.clone());
                self.model.insert(k.clone(), v.clone());
            }
        }
        let table = SsTable::new(0, entries.into_iter().map(|(k, v)| Entry::new(k, v)).collect());
        for lsm in [&mut self.piped, &mut self.serial] {
            if lsm.ingest_table(&table).is_err() {
                lsm.apply(&batch);
            }
        }
    }

    /// Point reads and bounded scans on both engines vs the model — taken
    /// with whatever jobs happen to be mid-flight right now.
    fn check(&self, rng: &mut SmallRng, key_space: u32) {
        for _ in 0..12 {
            let k = key(rng.gen_range(0u32..key_space * 2));
            let want = self.model.get(&k).cloned();
            assert_eq!(self.piped.get(&k), want, "pipelined get({k:?}) diverged");
            assert_eq!(self.serial.get(&k), want, "serial get({k:?}) diverged");
        }
        for _ in 0..6 {
            let a = key(rng.gen_range(0u32..key_space));
            let b = key(rng.gen_range(0u32..key_space));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let limit = rng.gen_range(1usize..48);
            let want: Vec<(Bytes, Bytes)> = self
                .model
                .range(lo.clone()..hi.clone())
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(self.piped.scan(&lo, &hi, limit), want, "pipelined scan diverged");
            assert_eq!(self.serial.scan(&lo, &hi, limit), want, "serial scan diverged");
        }
    }

    /// Completes outstanding jobs and drains both engines to a fixpoint.
    fn quiesce(&mut self, rng: &mut SmallRng) {
        if let Some(job) = self.flush.take() {
            self.piped.finish_flush(job);
        }
        while !self.compactions.is_empty() {
            let i = rng.gen_range(0..self.compactions.len());
            let job = self.compactions.swap_remove(i);
            self.piped.finish_compaction(job, None);
        }
        self.piped.group_commit();
        for lsm in [&mut self.piped, &mut self.serial] {
            flush(lsm);
            maintain(lsm, keep_all);
        }
    }
}

fn run_differential(seed: u64, ops: usize, key_space: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pair = Pair::new();
    for i in 0..ops {
        pair.apply_random_op(&mut rng, key_space);
        if i % 20 == 19 {
            pair.check(&mut rng, key_space);
        }
    }
    pair.quiesce(&mut rng);
    // Final exhaustive pass: both engines agree with the model exactly.
    for (k, v) in &pair.model {
        assert_eq!(pair.piped.get(k).as_ref(), Some(v));
        assert_eq!(pair.serial.get(k).as_ref(), Some(v));
    }
    let full = pair.piped.scan(b"", b"z", usize::MAX);
    assert_eq!(full.len(), pair.model.len());
    assert_eq!(full, pair.serial.scan(b"", b"z", usize::MAX));
    // The pipelined engine really pipelined: flushes and compactions ran.
    let m = pair.piped.metrics();
    assert!(m.flush_count > 0, "pipelined run never flushed");
    assert!(m.ingest_tables > 0, "pipelined run never ingested");
    assert!(m.fsyncs < m.wal_batches, "group commit never grouped");
}

#[test]
fn pipelined_interleavings_match_serial_and_model_seed_1() {
    run_differential(0xBADC0DE, 600, 300);
}

#[test]
fn pipelined_interleavings_match_serial_and_model_seed_2() {
    run_differential(0x5EED, 600, 300);
}

#[test]
fn pipelined_interleavings_match_serial_and_model_small_keyspace() {
    // Deep shadowing: every key rewritten and deleted many times, so
    // mid-flight reads constantly cross frozen memtables and claimed L0
    // files.
    run_differential(23, 900, 24);
}

/// Flushes everything buffered, then compacts while the picker still finds
/// a level at trigger — the fixpoint both maintenance styles must share.
fn settle(lsm: &mut Lsm) {
    flush(lsm);
    maintain(lsm, keep_all);
}

#[test]
fn held_jobs_and_serial_maintenance_attribute_identical_bytes() {
    // One seeded workload through an engine whose due jobs all run right
    // after each batch and through one whose flush and compaction jobs are
    // claimed at one batch and finished several batches later: holding
    // the work moves *when* bytes are attributed, never *how many* — the
    // §5.1.3 write-token estimator reads these counters as one quantity.
    let mut rng = SmallRng::seed_from_u64(0xACC0);
    let input: Vec<WriteBatch> = (0..3000)
        .map(|_| {
            let mut b = WriteBatch::new();
            for _ in 0..rng.gen_range(1usize..4) {
                let k = Bytes::from(format!("row{:05}", rng.gen_range(0u32..2048)));
                if rng.gen_range(0u32..12) == 0 {
                    b.delete(k);
                } else {
                    b.put(k, Bytes::from("z".repeat(rng.gen_range(16usize..64))));
                }
            }
            b
        })
        .collect();
    // L0→L1-only shape: the k-th L0 job claims the same files whenever it
    // runs, so the two job multisets are identical by construction.
    let config = LsmConfig { level_base_size: 1 << 30, num_levels: 4, ..LsmConfig::tiny() };
    let mut serial = Lsm::new(config.clone());
    let mut driven = Lsm::new(config);
    let mut flush = None;
    let mut compaction = None;
    let mut applied_with_both_in_flight = 0;
    for batch in &input {
        serial.apply(batch);
        maintain(&mut serial, keep_all);
        driven.apply(batch);
        applied_with_both_in_flight += usize::from(flush.is_some() && compaction.is_some());
        match rng.gen_range(0u32..8) {
            0 if flush.is_none() => flush = driven.begin_flush(),
            1 => {
                if let Some(job) = flush.take() {
                    driven.finish_flush(job);
                }
            }
            2 if compaction.is_none() => {
                compaction = driven.pick_compaction().map(|pick| driven.begin_compaction(&pick));
            }
            3 => {
                if let Some(job) = compaction.take() {
                    driven.finish_compaction(job, None);
                }
            }
            _ => {}
        }
    }
    assert!(applied_with_both_in_flight > 100, "jobs were never held across writes");
    if let Some(job) = flush.take() {
        driven.finish_flush(job);
    }
    if let Some(job) = compaction.take() {
        driven.finish_compaction(job, None);
    }
    driven.group_commit();
    settle(&mut driven);
    settle(&mut serial);

    let (s, d) = (serial.metrics(), driven.metrics());
    assert!(s.compact_count > 10, "the workload never compacted");
    assert_eq!(s.flush_bytes, d.flush_bytes);
    assert_eq!(s.flush_count, d.flush_count);
    assert_eq!(s.compact_bytes_in, d.compact_bytes_in);
    assert_eq!(s.compact_bytes_out, d.compact_bytes_out);
    assert_eq!(s.l0_compact_bytes, d.l0_compact_bytes);
    assert_eq!(s.compact_bytes_per_level, d.compact_bytes_per_level);
    assert_eq!(s.logical_bytes_written, d.logical_bytes_written);
    // Conservation: a table's bytes are attributed once when it is written
    // (flush or compaction output) and once when a compaction consumes it,
    // so what was written and not consumed is exactly what is resident.
    for (lsm, m) in [(&serial, s), (&driven, d)] {
        assert_eq!(
            m.flush_bytes + m.compact_bytes_out,
            m.compact_bytes_in + lsm.total_bytes() as u64
        );
        assert_eq!(m.compact_bytes_per_level.iter().sum::<u64>(), m.compact_bytes_in);
    }
}
