//! Randomized properties of the MVCC layer: reads match a reference
//! model of versioned maps under random interleavings of writes, reads and
//! scans, while the engine's jobs run as the KV node runs them — flushes,
//! and compactions through the MVCC collector at the horizon of their
//! claim — and every write collects in the memtable; a limited scan
//! returns the model's first rows; intent resolution
//! and read refresh see exactly what they should. Each is a loop over
//! fixed seeds; every assertion names its seed.

use std::collections::BTreeMap;

use bytes::Bytes;
use crdb_kv::hlc::Timestamp;
use crdb_kv::mvcc::{self, ReadResult};
use crdb_storage::{Engine, LsmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[expect(dead_code, reason = "this test uses only part of the shared maintenance driver")]
#[path = "../../storage/tests/support/maintain.rs"]
mod maintain;

const GC_WINDOW_NANOS: u64 = crdb_kv::timing::GC_WINDOW.as_nanos() as u64;

fn ts(wall: u64) -> Timestamp {
    Timestamp { wall, logical: 0 }
}

/// Sixteen keys, so histories get deep and scans overlap writes.
fn key(k: u8) -> Vec<u8> {
    format!("key{:03}", k % 16).into_bytes()
}

/// How far below `now` a read may look: mostly among the latest versions,
/// sometimes anywhere in the GC window (GC keeps the newest version at or
/// below `now - GC_WINDOW`, so such a read is still answerable from what
/// survives).
fn read_back(rng: &mut SmallRng) -> u64 {
    if rng.gen_bool(0.7) {
        rng.gen_range(0..200)
    } else {
        rng.gen_range(0..=GC_WINDOW_NANOS)
    }
}

/// The model's answer: the newest version of a history at or below `at`.
fn visible(history: &[(u64, Option<u8>)], at: u64) -> Option<u8> {
    history.iter().rev().find(|(t, _)| *t <= at).and_then(|(_, v)| *v)
}

/// Reads at any snapshot inside the GC window agree with a model that
/// keeps the whole version history, while the engine flushes, compacts
/// and garbage-collects underneath.
#[test]
fn mvcc_matches_versioned_model() {
    let (mut jobs, mut collected) = (0, 0);
    for seed in 0..128u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        // A memtable a quarter of `tiny`'s, so that short histories flush
        // and compact too.
        let engine = Engine::new(LsmConfig { memtable_size: 256, ..LsmConfig::tiny() });
        // Model: key -> (ts, value) history in timestamp order.
        let mut model: BTreeMap<Vec<u8>, Vec<(u64, Option<u8>)>> = BTreeMap::new();
        let mut now = GC_WINDOW_NANOS;

        for step in 0..rng.gen_range(1..150) {
            match rng.gen_range(0..9) {
                0..=3 => {
                    // Mostly dense history; sometimes a jump that ages
                    // earlier versions out of the GC window.
                    now += [10, 10, 10, GC_WINDOW_NANOS / 3, GC_WINDOW_NANOS][rng.gen_range(0..5)];
                    let (k, v): (u8, Option<u8>) =
                        (rng.gen(), rng.gen_bool(0.8).then(|| rng.gen()));
                    let value = v.map(|b| Bytes::from(vec![b]));
                    mvcc::put_version(&engine, &key(k), ts(now), value.as_ref());
                    model.entry(key(k)).or_default().push((now, v));
                    let horizon = mvcc::gc_horizon(ts(now));
                    engine.with_lsm(|lsm| {
                        maintain::maintain(lsm, || mvcc::compaction_gc(horizon));
                    });
                }
                4..=6 => {
                    let k: u8 = rng.gen();
                    let read_at = now - read_back(rng);
                    let got = match mvcc::get(&engine, &key(k), ts(read_at), None) {
                        ReadResult::Value(v) => v,
                        ReadResult::Intent(i) => panic!("seed {seed} step {step}: intent {i:?}"),
                    };
                    let want = model.get(&key(k)).and_then(|h| visible(h, read_at));
                    assert_eq!(
                        got.as_deref(),
                        want.as_ref().map(std::slice::from_ref),
                        "seed {seed} step {step}: get {} at {read_at} (now {now})",
                        k % 16
                    );
                }
                _ => {
                    let (a, b) = (key(rng.gen()), key(rng.gen()));
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let read_at = now - read_back(rng);
                    // Half the scans are limited, to as few as no rows.
                    let limit = if rng.gen_bool(0.5) { rng.gen_range(0..=8) } else { usize::MAX };
                    let (pairs, intents) = mvcc::scan(&engine, &lo, &hi, ts(read_at), limit, None);
                    assert!(intents.is_empty(), "seed {seed} step {step}: {intents:?}");
                    let got: Vec<(Vec<u8>, u8)> =
                        pairs.iter().map(|(k, v)| (k.to_vec(), v[0])).collect();
                    let want: Vec<(Vec<u8>, u8)> = model
                        .range(lo..hi)
                        .filter_map(|(k, h)| visible(h, read_at).map(|v| (k.clone(), v)))
                        .take(limit)
                        .collect();
                    assert_eq!(
                        got, want,
                        "seed {seed} step {step}: scan at {read_at} limit {limit} (now {now})"
                    );
                }
            }
        }
        let m = engine.metrics();
        jobs += m.compact_count;
        collected += m.gc_versions_dropped;
    }
    // The production collector really ran, at both of its call sites.
    assert!(jobs > 200 && collected > 1_000, "{jobs} compactions, {collected} collected");
}

/// Intents: readers below an intent see around it and readers above run
/// into it; a committed resolution surfaces the value at its commit
/// timestamp, an aborted one never surfaces.
#[test]
fn intent_resolution_visibility() {
    let (old, new) = (Bytes::from_static(b"old"), Bytes::from_static(b"new"));
    for seed in 0..256u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let txn_id = rng.gen_range(1..1000u64);
        let base = rng.gen_range(1_000..2_000u64);
        let commit = rng.gen_bool(0.5);
        let engine = Engine::new(LsmConfig::tiny());
        let k = b"contended";
        let read = |at: u64| mvcc::get(&engine, k, ts(at), None);

        mvcc::put_version(&engine, k, ts(base), Some(&old));
        mvcc::write_intent(&engine, k, txn_id, ts(base + 100), ts(base + 100), Some(&new))
            .unwrap_or_else(|e| panic!("seed {seed}: intent refused: {e:?}"));
        assert_eq!(read(base + 50), ReadResult::Value(Some(old.clone())), "seed {seed}: below");
        assert!(matches!(read(base + 200), ReadResult::Intent(_)), "seed {seed}: above");
        // Another transaction's resolution must leave the intent alone.
        mvcc::resolve_intent(&engine, k, txn_id + 1, Some(ts(base + 150)));
        assert!(matches!(read(base + 200), ReadResult::Intent(_)), "seed {seed}: foreign resolve");

        mvcc::resolve_intent(&engine, k, txn_id, commit.then_some(ts(base + 150)));
        let after = if commit { &new } else { &old };
        assert_eq!(read(base + 200), ReadResult::Value(Some(after.clone())), "seed {seed}: after");
        // Committed at +150, not at the intent's +100.
        assert_eq!(read(base + 120), ReadResult::Value(Some(old.clone())), "seed {seed}: between");
    }
}

/// `refresh_span` fails exactly when the probed span holds a version
/// newer than the snapshot.
#[test]
fn refresh_span_detects_changes() {
    for seed in 0..256u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (changed, probed): (u8, u8) = (rng.gen(), rng.gen());
        let snapshot = 10_000 - rng.gen_range(1..50u64);
        // One write, just before, at, or after the snapshot.
        let written_at = snapshot - 50 + rng.gen_range(0..100u64);
        let engine = Engine::new(LsmConfig::tiny());
        mvcc::put_version(&engine, &key(changed), ts(written_at), Some(&Bytes::from_static(b"x")));

        let mut end = key(probed);
        end.push(0xff);
        let result =
            mvcc::refresh_span(&engine, &key(probed), &end, ts(snapshot), Timestamp::MAX, None);
        let expect_conflict = key(probed) == key(changed) && written_at > snapshot;
        assert_eq!(
            result.is_err(),
            expect_conflict,
            "seed {seed}: wrote {} at {written_at}, probed {} since {snapshot}: {result:?}",
            changed % 16,
            probed % 16
        );
    }
}
