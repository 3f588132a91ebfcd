//! Differential tests for the streaming read path: the lazy merge-iterator
//! `scan` (and `get` through its bloom filters) must agree byte-for-byte
//! with a `BTreeMap` model, under any interleaving of batched writes,
//! deletes, flushes and compactions — including tombstones and keys that
//! are prefixes of other keys or of scan bounds.

use bytes::Bytes;
use crdb_storage::{Lsm, LsmConfig, WriteBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "support/maintain.rs"]
mod maintain;
use maintain::{flush, keep_all, maintain};

/// The key universe deliberately contains prefix pairs (`k12` is a prefix
/// of `k120`–`k129`) so bound handling at prefix boundaries is exercised.
fn key(k: u32) -> Bytes {
    if k.is_multiple_of(7) {
        Bytes::from(format!("k{}", k / 7)) // short form: prefix of longer keys
    } else {
        Bytes::from(format!("k{k:05}"))
    }
}

fn value(v: u32) -> Bytes {
    Bytes::from(format!("v{v}-{}", "x".repeat((v % 13) as usize)))
}

/// Applies one random op to both the LSM and the model.
fn apply_random_op(
    rng: &mut SmallRng,
    lsm: &mut Lsm,
    model: &mut BTreeMap<Bytes, Bytes>,
    key_space: u32,
) {
    match rng.gen_range(0u32..10) {
        // Batched writes dominate, mixing puts and deletes (tombstones).
        0..=5 => {
            let mut batch = WriteBatch::new();
            for _ in 0..rng.gen_range(1usize..8) {
                let k = rng.gen_range(0u32..key_space);
                if rng.gen_range(0u32..4) == 0 {
                    batch.delete(key(k));
                    model.remove(&key(k));
                } else {
                    let v = rng.gen_range(0u32..1000);
                    batch.put(key(k), value(v));
                    model.insert(key(k), value(v));
                }
            }
            lsm.apply(&batch);
        }
        6..=7 => flush(lsm),
        _ => maintain(lsm, keep_all),
    }
}

/// Checks `get` and streaming `scan` against the model over a few random
/// windows and limits.
fn check_equivalence(
    rng: &mut SmallRng,
    lsm: &Lsm,
    model: &BTreeMap<Bytes, Bytes>,
    key_space: u32,
) {
    // Point reads (through the bloom filters) for present and absent keys.
    for _ in 0..16 {
        let k = key(rng.gen_range(0u32..key_space * 2));
        assert_eq!(lsm.get(&k), model.get(&k).cloned(), "get({k:?}) diverged");
    }
    // Range scans with random bounds and limits, including limit ≪ span.
    for _ in 0..8 {
        let a = key(rng.gen_range(0u32..key_space));
        let b = key(rng.gen_range(0u32..key_space));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let limit = match rng.gen_range(0u32..4) {
            0 => usize::MAX,
            1 => rng.gen_range(1usize..4),
            _ => rng.gen_range(1usize..64),
        };
        let streaming = lsm.scan(&lo, &hi, limit);
        let want: Vec<(Bytes, Bytes)> = model
            .range(lo.clone()..hi.clone())
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(streaming, want, "scan({lo:?}..{hi:?}, {limit}) vs model");
    }
}

fn run_differential(seed: u64, ops: usize, key_space: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut lsm = Lsm::new(LsmConfig::tiny());
    let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
    for i in 0..ops {
        apply_random_op(&mut rng, &mut lsm, &mut model, key_space);
        if i % 25 == 24 {
            check_equivalence(&mut rng, &lsm, &model, key_space);
        }
    }
    // Final exhaustive pass: every model key reads back; the full scan is
    // the model.
    for (k, v) in &model {
        assert_eq!(lsm.get(k).as_ref(), Some(v));
    }
    let full = lsm.scan(b"", b"z", usize::MAX);
    assert!(full.iter().map(|(k, v)| (k, v)).eq(model.iter()), "full scan vs model");
    // The read path was genuinely exercised through the filters.
    let m = lsm.metrics();
    assert!(m.point_gets > 0, "differential run never performed a point get");
}

#[test]
fn streaming_reads_match_model_seed_1() {
    run_differential(0xC0FFEE, 400, 300);
}

#[test]
fn streaming_reads_match_model_seed_2() {
    run_differential(0xDECAF, 400, 300);
}

#[test]
fn streaming_reads_match_model_small_keyspace() {
    // A tiny key space forces deep version shadowing across levels: every
    // key is rewritten and deleted many times, so most reads cross
    // memtable + L0 + lower-level tombstones.
    run_differential(7, 600, 24);
}

#[test]
fn prefix_keys_and_bound_edges() {
    // Keys where one is a strict prefix of another, with scan bounds that
    // fall exactly on, just before, and just past the prefix.
    let mut lsm = Lsm::new(LsmConfig::tiny());
    let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
    let keys: Vec<Bytes> = [b"a".as_ref(), b"aa", b"aaa", b"ab", b"b", b"ba", b"b\x00", b"b\xff"]
        .iter()
        .map(|s| Bytes::copy_from_slice(s))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let v = Bytes::from(format!("v{i}"));
        lsm.put(k.clone(), v.clone());
        model.insert(k.clone(), v);
        if i % 3 == 0 {
            flush(&mut lsm);
        }
    }
    // Delete one short key so a tombstone sits under longer live keys.
    lsm.delete(Bytes::from_static(b"a"));
    model.remove(b"a".as_ref());
    flush(&mut lsm);
    maintain(&mut lsm, keep_all);
    let bounds: Vec<&[u8]> = vec![b"", b"a", b"aa", b"aaa\x00", b"ab", b"b", b"b\x00", b"c"];
    for lo in &bounds {
        for hi in &bounds {
            if lo > hi {
                continue;
            }
            for limit in [0usize, 1, 2, usize::MAX] {
                let streaming = lsm.scan(lo, hi, limit);
                let want: Vec<(Bytes, Bytes)> = model
                    .range::<[u8], _>((
                        std::ops::Bound::Included(*lo),
                        std::ops::Bound::Excluded(*hi),
                    ))
                    .take(limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(streaming, want, "bounds {lo:?}..{hi:?} limit {limit} vs model");
            }
        }
    }
}

#[test]
fn tombstones_never_leak_through_limits() {
    // A window of deleted keys in front of live ones: a limited scan must
    // skip every tombstone and still return `limit` live pairs.
    let mut lsm = Lsm::new(LsmConfig::tiny());
    for i in 0..200u32 {
        lsm.put(Bytes::from(format!("k{i:04}")), Bytes::from_static(b"v"));
    }
    flush(&mut lsm);
    for i in 0..150u32 {
        lsm.delete(Bytes::from(format!("k{i:04}")));
    }
    flush(&mut lsm);
    maintain(&mut lsm, keep_all);
    let got = lsm.scan(b"k", b"l", 5);
    let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
    assert_eq!(keys, [b"k0150", b"k0151", b"k0152", b"k0153", b"k0154"]);
    assert!(got.iter().all(|(_, v)| v.as_ref() == b"v"));
}
