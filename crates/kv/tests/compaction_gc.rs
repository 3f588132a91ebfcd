//! The MVCC collector (`mvcc::compaction_gc`) against a model that never
//! forgets: random histories of puts, deletes, intents and resolutions
//! over a few hot keys, with the clock jumping across whole GC windows,
//! run through an LSM whose flush and compaction jobs are claimed and
//! finished at random points — every compaction merging through the
//! filter with the GC horizon of the instant it was claimed, as
//! `KvNode::maintain_storage` does, and every write collecting in the
//! active memtable at its own horizon, as `mvcc::Applied::replay` does.
//! After every job, every read at or above the horizon must see what the
//! model sees.
//!
//! The randomized test is a loop over fixed seeds; every assertion names
//! its seed. The directed tests below it pin the cases the filter's rules
//! exist for, and what the memtable collection does on each replica.

use std::collections::BTreeMap;

use bytes::Bytes;
use crdb_kv::hlc::Timestamp;
use crdb_kv::mvcc::{self, ReadResult};
use crdb_kv::txn::{TxnRecord, TxnStatus};
use crdb_storage::{CompactionJob, CompactionPick, Engine, FlushJob, LsmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[expect(dead_code, reason = "this test uses only part of the shared maintenance driver")]
#[path = "../../storage/tests/support/maintain.rs"]
mod maintain;

const GC_WINDOW_NANOS: u64 = crdb_kv::timing::GC_WINDOW.as_nanos() as u64;

fn ts(wall: u64) -> Timestamp {
    Timestamp { wall, logical: 0 }
}

/// Few keys, so histories get deep — and chosen to be bad neighbours: one
/// a byte-prefix of another, one that extends another *through* a 0x00
/// byte (its versions sort before the shorter key's, and a span ending
/// at it must walk past its own end to reach those), and two whose
/// *intent* keys end exactly like a version key (0x00, then twelve bytes
/// that decode to a timestamp near zero, below any horizon).
const KEYS: [&[u8]; 7] = [
    b"a",
    b"a\x00b",
    b"ab",
    b"m",
    b"t\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xfe",
    b"t\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
    b"z",
];

/// The storage key of `key`'s version at `at` (the layout in `mvcc`'s
/// module docs), for looking under the MVCC layer.
fn version_key(key: &[u8], at: u64) -> Bytes {
    let mut k = vec![b'v'];
    k.extend_from_slice(key);
    k.push(0x00);
    k.extend_from_slice(&(u64::MAX - at).to_be_bytes());
    k.extend_from_slice(&u32::MAX.to_be_bytes());
    Bytes::from(k)
}

/// A value the model can name by one byte, sized so the tiny memtable
/// rotates every dozen writes.
fn value(b: u8) -> Bytes {
    Bytes::from(vec![b; 24 + usize::from(b % 32)])
}

/// The model's answer: the newest version of a history at or below `at`.
fn visible(history: &[(u64, Option<u8>)], at: u64) -> Option<u8> {
    history.iter().rev().find(|(t, _)| *t <= at).and_then(|(_, v)| *v)
}

/// Freezes and flushes everything buffered into L0.
fn flush(engine: &Engine) {
    engine.with_lsm(maintain::flush);
}

/// Storage key and value of every entry in the active memtable under
/// `key`'s versions, newest first: what write-time collection has left.
fn memtable_versions(engine: &Engine, key: &[u8]) -> Vec<(Bytes, Option<Bytes>)> {
    let (start, mut end) = (version_key(key, u64::MAX), version_key(key, 0).to_vec());
    end.push(0);
    let mut seen = Vec::new();
    engine.with_lsm(|lsm| {
        lsm.collect_in_memtable(&start, &end, &mut |k, v| {
            seen.push((k.clone(), v.cloned()));
            false
        })
    });
    seen
}

/// Claims and finishes the compaction out of `level`, merging through the
/// collector at `horizon`.
fn compact(engine: &Engine, level: usize, horizon: Timestamp) {
    engine.with_lsm(|lsm| {
        let job = lsm.begin_compaction(&CompactionPick { level, score_milli: 0 });
        lsm.finish_compaction(job, Some(&mut mvcc::compaction_gc(horizon)));
    });
}

fn dropped(engine: &Engine) -> u64 {
    engine.metrics().gc_versions_dropped
}

fn read(engine: &Engine, key: &[u8], at: u64) -> Option<u8> {
    match mvcc::get(engine, key, ts(at), None) {
        ReadResult::Value(v) => v.map(|v| v[0]),
        ReadResult::Intent(i) => panic!("unexpected intent {i:?}"),
    }
}

/// One seeded history: the engine, the model, and the jobs in flight.
struct History {
    seed: u64,
    engine: Engine,
    /// key -> versions in timestamp order (`None` = MVCC delete).
    versions: BTreeMap<&'static [u8], Vec<(u64, Option<u8>)>>,
    /// key -> (txn, ts, provisional value); at most one per key.
    intents: BTreeMap<&'static [u8], (u64, u64, Option<u8>)>,
    records: Vec<TxnRecord>,
    now: u64,
    /// The newest horizon any collector has been given so far: a write's
    /// memtable collection, or a compaction when it was claimed. Reads at
    /// or above it are the contract.
    horizon: u64,
    flush: Option<FlushJob>,
    compactions: Vec<(CompactionJob, Timestamp)>,
}

impl History {
    fn new(seed: u64) -> History {
        History {
            seed,
            engine: Engine::new(LsmConfig::tiny()),
            versions: BTreeMap::new(),
            intents: BTreeMap::new(),
            records: Vec::new(),
            now: GC_WINDOW_NANOS,
            horizon: 0,
            flush: None,
            compactions: Vec::new(),
        }
    }

    /// A fresh timestamp, above everything written so far.
    fn tick(&mut self, rng: &mut SmallRng) -> u64 {
        self.now += rng.gen_range(1..20u64);
        self.now
    }

    /// Writes collect in the memtable at the horizon of their own
    /// timestamp.
    fn note_write_gc(&mut self, at: u64) {
        self.horizon = self.horizon.max(mvcc::gc_horizon(ts(at)).wall);
    }

    fn step(&mut self, rng: &mut SmallRng, step: usize) {
        let key = KEYS[rng.gen_range(0..KEYS.len())];
        match rng.gen_range(0..20u32) {
            0..=5 if !self.intents.contains_key(key) => {
                let at = self.tick(rng);
                let v: Option<u8> = rng.gen_bool(0.8).then(|| rng.gen());
                mvcc::put_version(&self.engine, key, ts(at), v.map(value).as_ref());
                self.versions.entry(key).or_default().push((at, v));
                self.note_write_gc(at);
            }
            6 => {
                self.now += [GC_WINDOW_NANOS / 3, GC_WINDOW_NANOS, 2 * GC_WINDOW_NANOS + 7]
                    [rng.gen_range(0..3)];
            }
            7 | 8 if !self.intents.contains_key(key) => {
                let at = self.tick(rng);
                let (txn, v) = (step as u64 + 1, rng.gen_bool(0.8).then(|| rng.gen::<u8>()));
                mvcc::write_intent(&self.engine, key, txn, ts(at), ts(at), v.map(value).as_ref())
                    .unwrap_or_else(|e| panic!("seed {} step {step}: {e:?}", self.seed));
                self.intents.insert(key, (txn, at, v));
            }
            9 | 10 => {
                let Some((txn, _, v)) = self.intents.remove(key) else { return };
                let commit = rng.gen_bool(0.7).then(|| self.tick(rng));
                mvcc::resolve_intent(&self.engine, key, txn, commit.map(ts));
                if let Some(at) = commit {
                    self.versions.entry(key).or_default().push((at, v));
                    self.note_write_gc(at);
                }
            }
            11 => {
                // Takes back the key's newest version while it is still
                // unflushed and leaves an engine tombstone where it was —
                // what a tombstone of the retired write-time GC looks like
                // once a compaction has merged it with its version. No
                // reader sees the version again, so the model forgets it,
                // and no collector may take what is left for a cover. Only
                // a version above every horizon so far can go: one at or
                // below may already have covered, and cost, its elders.
                // And only from the active memtable: a flushed one stays.
                let history = self.versions.entry(key).or_default();
                if let Some(&(at, _)) = history.last().filter(|(at, _)| *at > self.horizon) {
                    let storage_key = version_key(key, at);
                    let mut end = storage_key.to_vec();
                    end.push(0);
                    let taken = self.engine.with_lsm(|lsm| {
                        lsm.collect_in_memtable(&storage_key, &end, &mut |_, _| true)
                    });
                    if taken == 1 {
                        self.engine.delete(storage_key);
                        history.pop();
                    }
                }
            }
            12 => {
                let status =
                    [TxnStatus::Aborted, TxnStatus::Committed(ts(self.now))][rng.gen_range(0..2)];
                let record = TxnRecord { txn_id: 1_000_000 + step as u64, status };
                mvcc::put_txn_record(&self.engine, &record);
                self.records.push(record);
            }
            13 => {
                self.engine.with_lsm(|lsm| lsm.freeze_active());
            }
            14 if self.flush.is_none() => {
                self.flush = self.engine.with_lsm(|lsm| lsm.begin_flush());
            }
            15 => {
                if let Some(job) = self.flush.take() {
                    self.engine.with_lsm(|lsm| lsm.finish_flush(job));
                    self.check(rng, step);
                }
            }
            16 | 17 if self.compactions.len() < 2 => {
                let job = self
                    .engine
                    .with_lsm(|lsm| lsm.pick_compaction().map(|pick| lsm.begin_compaction(&pick)));
                if let Some(job) = job {
                    // The horizon is taken when the job is claimed.
                    let horizon = mvcc::gc_horizon(ts(self.now));
                    self.horizon = self.horizon.max(horizon.wall);
                    self.compactions.push((job, horizon));
                }
            }
            18 | 19 if !self.compactions.is_empty() => {
                let i = rng.gen_range(0..self.compactions.len());
                self.finish_compaction(i);
                self.check(rng, step);
            }
            _ => {}
        }
    }

    fn finish_compaction(&mut self, i: usize) {
        let (job, horizon) = self.compactions.swap_remove(i);
        self.engine.with_lsm(|lsm| {
            lsm.finish_compaction(job, Some(&mut mvcc::compaction_gc(horizon)));
        });
    }

    /// Every timestamp at or above the horizon where some key's answer
    /// could change: the horizon itself, each version and intent
    /// timestamp and the instant before it, and now.
    fn read_points(&self, key: &[u8]) -> Vec<u64> {
        let history = self.versions.get(key).into_iter().flatten().map(|(at, _)| *at);
        let intent = self.intents.get(key).map(|(_, at, _)| *at);
        let mut points: Vec<u64> = history
            .chain(intent)
            .flat_map(|at| [at - 1, at])
            .chain([self.horizon, self.now])
            .filter(|at| *at >= self.horizon)
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    /// `mvcc::get` on every key at every read point, then `mvcc::scan` and
    /// `mvcc::refresh_span` over the whole keyspace and two random spans,
    /// all against the model.
    fn check(&self, rng: &mut SmallRng, step: usize) {
        let ctx =
            format!("seed {} step {step} (horizon {}, now {})", self.seed, self.horizon, self.now);
        for key in KEYS {
            for at in self.read_points(key) {
                let got = mvcc::get(&self.engine, key, ts(at), None);
                let want = match self.intents.get(key) {
                    Some((txn, intent_ts, _)) if *intent_ts <= at => Err(*txn),
                    _ => Ok(self.versions.get(key).and_then(|h| visible(h, at))),
                };
                let got = match got {
                    ReadResult::Value(v) => Ok(v.map(|v| v[0])),
                    ReadResult::Intent(i) => Err(i.txn_id),
                };
                assert_eq!(got, want, "{ctx}: get {key:?} at {at}");
            }
        }
        for span in 0..3 {
            let (a, b) = (rng.gen_range(0..KEYS.len()), rng.gen_range(0..KEYS.len()));
            let (lo, hi): (&[u8], &[u8]) =
                if span == 0 { (&b""[..], &b"zz"[..]) } else { (KEYS[a.min(b)], KEYS[a.max(b)]) };
            let in_span = |k: &[u8]| lo <= k && k < hi;
            for at in [self.horizon, rng.gen_range(self.horizon..=self.now), self.now] {
                let (pairs, intents) = mvcc::scan(&self.engine, lo, hi, ts(at), usize::MAX, None);
                let got: Vec<(&[u8], u8)> = pairs.iter().map(|(k, v)| (&k[..], v[0])).collect();
                let want: Vec<(&[u8], u8)> = self
                    .versions
                    .iter()
                    .filter(|(k, _)| in_span(k))
                    .filter_map(|(k, h)| visible(h, at).map(|v| (*k, v)))
                    .collect();
                assert_eq!(got, want, "{ctx}: scan {lo:?}..{hi:?} at {at}");
                let got: Vec<(&[u8], u64)> =
                    intents.iter().map(|(k, i)| (&k[..], i.txn_id)).collect();
                let want: Vec<(&[u8], u64)> = self
                    .intents
                    .iter()
                    .filter(|(k, (_, intent_ts, _))| in_span(k) && *intent_ts <= at)
                    .map(|(k, (txn, _, _))| (*k, *txn))
                    .collect();
                assert_eq!(got, want, "{ctx}: intents in {lo:?}..{hi:?} at {at}");

                let changed = self.intents.keys().any(|k| in_span(k))
                    || self
                        .versions
                        .iter()
                        .any(|(k, h)| in_span(k) && h.iter().any(|(t, _)| *t > at));
                let refreshed =
                    mvcc::refresh_span(&self.engine, lo, hi, ts(at), ts(self.now), None);
                assert_eq!(refreshed.is_err(), changed, "{ctx}: refresh {lo:?}..{hi:?} since {at}");
            }
        }
        for record in &self.records {
            let got = mvcc::get_txn_record(&self.engine, record.txn_id);
            assert_eq!(got.as_ref(), Some(record), "{ctx}: transaction record");
        }
    }
}

#[test]
fn reads_at_or_above_the_horizon_match_the_model_after_every_job() {
    let (mut jobs, mut collected) = (0, 0);
    for seed in 0..96u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let mut h = History::new(seed);
        let steps = rng.gen_range(100..500);
        for step in 0..steps {
            h.step(rng, step);
        }
        // Quiesce: finish what is in flight, then push everything through
        // one more round of compactions at the final horizon.
        if let Some(job) = h.flush.take() {
            h.engine.with_lsm(|lsm| lsm.finish_flush(job));
        }
        while !h.compactions.is_empty() {
            h.finish_compaction(0);
        }
        flush(&h.engine);
        h.horizon = h.horizon.max(mvcc::gc_horizon(ts(h.now)).wall);
        while let Some(pick) = h.engine.with_lsm(|lsm| lsm.pick_compaction()) {
            compact(&h.engine, pick.level, ts(h.horizon));
            h.check(rng, steps);
        }
        h.check(rng, steps);
        let m = h.engine.metrics();
        jobs += m.compact_count;
        collected += m.gc_versions_dropped;
    }
    // The histories really ran the collector, and it really collected.
    assert!(jobs > 500, "only {jobs} compactions over all seeds");
    assert!(collected > 1_000, "only {collected} versions collected over all seeds");
}

/// Base of the directed tests' clocks: late enough that horizons below it
/// are real timestamps.
const T0: u64 = 10 * GC_WINDOW_NANOS;

#[test]
fn the_version_readable_at_the_horizon_survives_and_what_it_covers_goes() {
    let engine = Engine::new(LsmConfig::tiny());
    // Two L0 files — one job's worth — holding five versions between them.
    for (at, v) in [(T0 - 2, 1), (T0 - 1, 2), (T0, 3), (T0 + 1, 4), (T0 + 2, 5)] {
        mvcc::put_version(&engine, b"k", ts(at), Some(&value(v)));
        if v == 2 || v == 5 {
            flush(&engine);
        }
    }
    // Horizon exactly at the third version: it is the cover, the two
    // below it go, the two above it stay whatever their age.
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 2);
    // Storage key plus stored value (a tag byte and the payload) of each.
    let stored = |v: u8| (version_key(b"k", 0).len() + 1 + value(v).len()) as u64;
    assert_eq!(engine.metrics().gc_bytes_dropped, stored(1) + stored(2));
    for (at, want) in [(T0, 3), (T0 + 1, 4), (T0 + 2, 5), (T0 + 9, 5)] {
        assert_eq!(read(&engine, b"k", at), Some(want), "read at T0+{}", at - T0);
    }
    assert_eq!(read(&engine, b"k", T0 - 1), None, "history below the horizon is gone");
}

#[test]
fn an_mvcc_delete_covers_like_a_value_and_stays() {
    let engine = Engine::new(LsmConfig::tiny());
    mvcc::put_version(&engine, b"k", ts(T0 - 2), Some(&value(1)));
    flush(&engine);
    mvcc::put_version(&engine, b"k", ts(T0 - 1), None);
    flush(&engine);
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 1, "the deleted value is collected");
    assert!(engine.get(&version_key(b"k", T0 - 1)).is_some(), "the delete marker is kept");
    assert_eq!(read(&engine, b"k", T0), None);
}

#[test]
fn a_cover_outside_the_job_drops_nothing() {
    let engine = Engine::new(LsmConfig::tiny());
    mvcc::put_version(&engine, b"k", ts(T0 - 3), Some(&value(1)));
    flush(&engine);
    mvcc::put_version(&engine, b"other", ts(T0 - 2), Some(&value(2)));
    flush(&engine);
    // The newer version stays in the memtable: every read at the horizon
    // returns it, but the job below cannot know that.
    mvcc::put_version(&engine, b"k", ts(T0 - 1), Some(&value(3)));
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 0);
    assert!(engine.get(&version_key(b"k", T0 - 3)).is_some(), "the job's own newest is its cover");
    assert_eq!(read(&engine, b"k", T0), Some(3));
}

#[test]
fn prefix_neighbours_never_cover_each_other() {
    // "a" is a byte-prefix of "ab"; "a" + 0x00 + … extends "a" through
    // the very byte that separates a user key from its timestamp.
    let neighbours: [&[u8]; 4] = [b"a", b"a\x00", b"a\x00b", b"ab"];
    let engine = Engine::new(LsmConfig::tiny());
    for (i, key) in neighbours.iter().enumerate() {
        mvcc::put_version(&engine, key, ts(T0 - 20 + i as u64), Some(&value(i as u8)));
    }
    flush(&engine);
    mvcc::put_version(&engine, b"other", ts(T0 - 10), Some(&value(9)));
    flush(&engine);
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 0, "one version per key: nothing is covered");
    for (i, key) in neighbours.iter().enumerate() {
        assert_eq!(read(&engine, key, T0), Some(i as u8), "{key:?}");
    }
    // A second version of each covers exactly its own first.
    for (i, key) in neighbours.iter().enumerate() {
        mvcc::put_version(&engine, key, ts(T0 - 5 + i as u64), Some(&value(10 + i as u8)));
    }
    flush(&engine);
    mvcc::put_version(&engine, b"other", ts(T0 - 1), Some(&value(19)));
    flush(&engine);
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 5, "four neighbours and `other`, one old version each");
    for (i, key) in neighbours.iter().enumerate() {
        assert_eq!(read(&engine, key, T0), Some(10 + i as u8), "{key:?}");
    }
}

#[test]
fn intents_and_records_that_end_like_version_keys_pass_through() {
    // Intent keys are 'i' + user key: these two end in 0x00 and twelve
    // bytes that read as timestamps 0,1 and 0,0 — two "versions of one
    // key" below any horizon, to a parser that skips the tag.
    let (first, second) = (KEYS[4], KEYS[5]);
    let engine = Engine::new(LsmConfig::tiny());
    mvcc::write_intent(&engine, first, 7, ts(T0 - 9), ts(T0 - 9), Some(&value(1))).unwrap();
    mvcc::write_intent(&engine, second, 8, ts(T0 - 8), ts(T0 - 8), Some(&value(2))).unwrap();
    let record = TxnRecord { txn_id: 7, status: TxnStatus::Committed(ts(T0 - 7)) };
    mvcc::put_txn_record(&engine, &record);
    flush(&engine);
    mvcc::put_version(&engine, b"other", ts(T0 - 6), Some(&value(3)));
    flush(&engine);
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 0);
    for (key, txn) in [(first, 7), (second, 8)] {
        match mvcc::get(&engine, key, ts(T0), None) {
            ReadResult::Intent(i) => assert_eq!(i.txn_id, txn),
            other => panic!("intent on {key:?} lost: {other:?}"),
        }
    }
    assert_eq!(mvcc::get_txn_record(&engine, 7), Some(record));
}

#[test]
fn a_tombstoned_version_is_no_cover() {
    // L1 → L2 is always due, so data can be pushed below the job that
    // matters: an engine tombstone survives a merge only while a lower
    // level still spans its key.
    let engine = Engine::new(LsmConfig { level_base_size: 1, ..LsmConfig::tiny() });
    for key in [&b"a"[..], b"z"] {
        mvcc::put_version(&engine, key, ts(T0 - 30), Some(&value(0)));
        flush(&engine);
    }
    compact(&engine, 0, ts(0));
    compact(&engine, 1, ts(0));
    let sizes = engine.with_lsm(|lsm| lsm.level_sizes());
    assert!(sizes[0] == 0 && sizes[1] > 0, "`a` and `z` sit in L2, spanning `k`: {sizes:?}");

    mvcc::put_version(&engine, b"k", ts(T0 - 20), Some(&value(1)));
    mvcc::put_version(&engine, b"k", ts(T0 - 10), Some(&value(2)));
    flush(&engine);
    // The newest version is taken back with an engine tombstone, as the
    // retired write-time GC did to versions it collected.
    engine.delete(version_key(b"k", T0 - 10));
    flush(&engine);
    compact(&engine, 0, ts(T0));
    assert_eq!(dropped(&engine), 0, "a version the job resolves to a tombstone covers nothing");
    assert_eq!(read(&engine, b"k", T0), Some(1));
}

/// A leaseholder and its followers as the KV node drives them: each write
/// is evaluated on the leaseholder's engine and replayed on every other.
fn write_everywhere(replicas: &[Engine], key: &[u8], at: u64, v: u8) {
    let applied = mvcc::put_version(&replicas[0], key, ts(at), Some(&value(v)));
    for follower in &replicas[1..] {
        applied.replay(follower);
    }
}

#[test]
fn a_hot_key_keeps_at_most_two_versions_in_every_replicas_memtable() {
    // A memtable that never rotates here: without write-time collection
    // all hundred versions would wait in it for a flush.
    let replicas: Vec<Engine> = (0..3).map(|_| Engine::new(LsmConfig::default())).collect();
    for window in 1..=100u64 {
        write_everywhere(&replicas, b"hot", T0 + window * GC_WINDOW_NANOS, window as u8);
        for (r, engine) in replicas.iter().enumerate() {
            let held = memtable_versions(engine, b"hot").len();
            assert!(held <= 2, "replica {r} holds {held} versions after window {window}");
        }
    }
    for engine in &replicas {
        // The newest, and the one it covers for reads a window back.
        assert_eq!(engine.metrics().gc_versions_dropped, 98);
        assert_eq!(engine.metrics().flush_count, 0);
        assert_eq!(read(engine, b"hot", T0 + 99 * GC_WINDOW_NANOS), Some(99));
    }
}

#[test]
fn a_follower_collects_on_replay_what_its_leaseholder_already_flushed() {
    let replicas: Vec<Engine> = (0..2).map(|_| Engine::new(LsmConfig::default())).collect();
    write_everywhere(&replicas, b"k", T0, 1);
    write_everywhere(&replicas, b"k", T0 + 1, 2);
    // Only the leaseholder flushes: its two versions are in L0, the
    // follower's still in its active memtable.
    flush(&replicas[0]);
    // A window later the newest covers the second, which covers the first.
    write_everywhere(&replicas, b"k", T0 + 1 + GC_WINDOW_NANOS, 3);
    let (leaseholder, follower) = (&replicas[0], &replicas[1]);
    assert_eq!(leaseholder.metrics().gc_versions_dropped, 0, "nothing of it left in memory");
    assert_eq!(follower.metrics().gc_versions_dropped, 1);
    let held: Vec<Bytes> = memtable_versions(follower, b"k").into_iter().map(|(k, _)| k).collect();
    assert_eq!(held, vec![version_key(b"k", T0 + 1 + GC_WINDOW_NANOS), version_key(b"k", T0 + 1)]);
    for at in [T0 + 1, T0 + 1 + GC_WINDOW_NANOS] {
        assert_eq!(read(follower, b"k", at), read(leaseholder, b"k", at), "read at {at}");
    }
}
