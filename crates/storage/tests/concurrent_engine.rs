//! Concurrency stress tests for the standalone storage engine: the
//! simulator drives it single-threaded, but the engine is a real library
//! and must hold up under parallel writers, readers and scanners.

use bytes::Bytes;
use crdb_storage::{Engine, LsmConfig, WriteBatch};

#[expect(dead_code, reason = "this test uses only part of the shared maintenance driver")]
#[path = "support/maintain.rs"]
mod maintain;
use maintain::{keep_all, maintain};

#[test]
fn parallel_disjoint_writers_then_full_verify() {
    let engine = Engine::new(LsmConfig::tiny());
    const THREADS: usize = 6;
    const PER_THREAD: u32 = 400;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = engine.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let mut batch = WriteBatch::new();
                    batch.put(
                        Bytes::from(format!("w{t}/k{i:05}")),
                        Bytes::from(format!("v{t}-{i}")),
                    );
                    // Interleave deletes of earlier keys.
                    if i % 10 == 9 {
                        batch.delete(Bytes::from(format!("w{t}/k{:05}", i - 5)));
                    }
                    engine.apply(&batch);
                    // Each writer runs whatever background work is due
                    // between its writes, under the same lock.
                    engine.with_lsm(|lsm| maintain(lsm, keep_all));
                }
            });
        }
    });

    // Every surviving key readable, every deleted key gone.
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let key = format!("w{t}/k{i:05}");
            let got = engine.get(key.as_bytes());
            let deleted = i % 10 == 4 && i + 5 < PER_THREAD;
            if deleted {
                assert_eq!(got, None, "{key} should be deleted");
            } else {
                assert_eq!(got, Some(Bytes::from(format!("v{t}-{i}"))), "{key}");
            }
        }
        let scanned =
            engine.scan(format!("w{t}/").as_bytes(), format!("w{t}0").as_bytes(), usize::MAX);
        assert_eq!(scanned.len() as u32, PER_THREAD - PER_THREAD / 10, "thread {t} scan");
    }
    assert!(engine.metrics().flush_count > 0, "flushes happened under load");
}

#[test]
fn readers_never_observe_torn_batches() {
    // A writer applies two-key batches that must stay equal; readers and
    // scanners hammer concurrently and verify the invariant per snapshot.
    let engine = Engine::new(LsmConfig::tiny());
    {
        let mut batch = WriteBatch::new();
        batch.put(Bytes::from_static(b"pair/a"), Bytes::from_static(b"0"));
        batch.put(Bytes::from_static(b"pair/b"), Bytes::from_static(b"0"));
        engine.apply(&batch);
    }
    std::thread::scope(|s| {
        let writer = engine.clone();
        s.spawn(move || {
            for i in 1..=500u32 {
                let mut batch = WriteBatch::new();
                batch.put(Bytes::from_static(b"pair/a"), Bytes::from(i.to_string()));
                batch.put(Bytes::from_static(b"pair/b"), Bytes::from(i.to_string()));
                writer.apply(&batch);
            }
        });
        for _ in 0..3 {
            let reader = engine.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    // A scan is one atomic snapshot of the engine: both
                    // keys of the pair must agree within it.
                    let pairs = reader.scan(b"pair/", b"pair0", usize::MAX);
                    assert_eq!(pairs.len(), 2, "both keys present");
                    assert_eq!(pairs[0].1, pairs[1].1, "batch atomicity visible to scans");
                }
            });
        }
    });
    assert_eq!(engine.get(b"pair/a"), Some(Bytes::from("500")));
}
