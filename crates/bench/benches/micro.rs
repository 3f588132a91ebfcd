//! Criterion micro-benchmarks for the hot data structures: the LSM
//! engine, MVCC operations, the admission work queue, the estimated-CPU
//! model, the row codec and the latency histogram.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bytes::Bytes;
use crdb_accounting::model::{EcpuModel, WorkloadFeatures};
use crdb_admission::queue::{Priority, WorkItem, WorkQueue};
use crdb_kv::hlc::Timestamp;
use crdb_kv::mvcc;
use crdb_sql::rowcodec;
use crdb_sql::schema::{Column, TableDescriptor};
use crdb_sql::value::{ColumnType, Datum};
use crdb_storage::bloom::BloomFilter;
use crdb_storage::iter::{merge_runs, Source};
use crdb_storage::{Engine, Lsm, LsmConfig};
use crdb_util::bucket::TokenBucket;
use crdb_util::time::SimTime;
use crdb_util::{Histogram, TenantId};

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v % 10_000_000));
        });
    });
    c.bench_function("histogram/quantile", |b| {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i * 37 % 10_000_000);
        }
        b.iter(|| black_box(h.quantile(black_box(0.99))));
    });
}

fn bench_lsm(c: &mut Criterion) {
    c.bench_function("lsm/put", |b| {
        let mut lsm = Lsm::new(LsmConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            lsm.put(
                Bytes::from(format!("key{:012}", i % 100_000)),
                Bytes::from_static(b"value-payload-0123456789"),
            );
        });
    });
    c.bench_function("lsm/get_hot", |b| {
        let mut lsm = Lsm::new(LsmConfig::default());
        for i in 0..50_000u64 {
            lsm.put(Bytes::from(format!("key{i:012}")), Bytes::from_static(b"v"));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            black_box(lsm.get(format!("key{i:012}").as_bytes()));
        });
    });
    c.bench_function("lsm/scan100", |b| {
        let mut lsm = Lsm::new(LsmConfig::default());
        for i in 0..50_000u64 {
            lsm.put(Bytes::from(format!("key{i:012}")), Bytes::from_static(b"v"));
        }
        b.iter(|| black_box(lsm.scan(b"key000000010000", b"key000000010100", 100)));
    });
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Bytes> = (0..10_000u64).map(|i| Bytes::from(format!("key{i:012}"))).collect();
    c.bench_function("bloom/build_10k", |b| {
        b.iter(|| black_box(BloomFilter::build(black_box(keys.iter().map(|k| k.as_ref())))));
    });
    let filter = BloomFilter::build(keys.iter().map(|k| k.as_ref()));
    c.bench_function("bloom/may_contain_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % keys.len();
            black_box(filter.may_contain(black_box(keys[i].as_ref())));
        });
    });
    c.bench_function("bloom/may_contain_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(filter.may_contain(black_box(format!("absent{i:012}").as_bytes())));
        });
    });
}

fn bench_merge_iter(c: &mut Criterion) {
    // Four sorted runs of 4k entries each, interleaved keys.
    let runs: Vec<Vec<(Bytes, Option<Bytes>)>> = (0..4usize)
        .map(|r| {
            (0..4_000usize)
                .map(|i| {
                    (Bytes::from(format!("key{:08}", i * 4 + r)), Some(Bytes::from_static(b"v")))
                })
                .collect()
        })
        .collect();
    c.bench_function("merge_iter/full_16k", |b| {
        b.iter(|| {
            let sources: Vec<Source> = runs.iter().map(|r| Source::Slice(r)).collect();
            black_box(merge_runs(sources).len())
        });
    });
    c.bench_function("merge_iter/first_10_of_16k", |b| {
        b.iter(|| {
            let sources: Vec<Source> = runs.iter().map(|r| Source::Slice(r)).collect();
            let it = crdb_storage::iter::MergeIter::new(sources);
            black_box(it.take(10).count())
        });
    });
    c.bench_function("lsm/scan_limit10_streaming", |b| {
        let mut lsm = Lsm::new(LsmConfig::default());
        for i in 0..50_000u64 {
            lsm.put(Bytes::from(format!("key{i:012}")), Bytes::from_static(b"v"));
        }
        b.iter(|| black_box(lsm.scan(b"key", b"kez", 10)));
    });
}

fn bench_mvcc(c: &mut Criterion) {
    c.bench_function("mvcc/put_version", |b| {
        let engine = Engine::new(LsmConfig::default());
        let mut i = 0u64;
        let value = Bytes::from_static(b"row-payload");
        b.iter(|| {
            i += 1;
            mvcc::put_version(
                &engine,
                format!("k{:08}", i % 10_000).as_bytes(),
                Timestamp { wall: i, logical: 0 },
                Some(&value),
            );
        });
    });
    c.bench_function("mvcc/get", |b| {
        let engine = Engine::new(LsmConfig::default());
        let value = Bytes::from_static(b"row-payload");
        for i in 0..10_000u64 {
            mvcc::put_version(
                &engine,
                format!("k{i:08}").as_bytes(),
                Timestamp { wall: i + 1, logical: 0 },
                Some(&value),
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 31) % 10_000;
            black_box(mvcc::get(&engine, format!("k{i:08}").as_bytes(), Timestamp::MAX, None));
        });
    });
}

fn bench_admission(c: &mut Criterion) {
    c.bench_function("admission/enqueue_dequeue", |b| {
        let mut q: WorkQueue<u64> = WorkQueue::new(std::time::Duration::from_secs(5));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.enqueue(WorkItem {
                tenant: TenantId(2 + i % 8),
                priority: Priority::Normal,
                txn_start: SimTime::from_nanos(i),
                deadline: SimTime::MAX,
                payload: i,
            });
            black_box(q.dequeue(SimTime::from_nanos(i)));
        });
    });
}

fn bench_ecpu(c: &mut Criterion) {
    let model = EcpuModel::default_model();
    let w = WorkloadFeatures {
        read_batches_per_sec: 12_000.0,
        read_requests_per_batch: 3.0,
        read_bytes_per_batch: 512.0,
        write_batches_per_sec: 4_000.0,
        write_requests_per_batch: 5.0,
        write_bytes_per_batch: 900.0,
        ..Default::default()
    };
    c.bench_function("ecpu/estimate", |b| {
        b.iter(|| black_box(model.estimate_vcpus(black_box(&w))));
    });
}

fn bench_rowcodec(c: &mut Criterion) {
    let table = TableDescriptor {
        id: 101,
        name: "bench".into(),
        columns: vec![
            Column { name: "a".into(), ty: ColumnType::Int, nullable: false },
            Column { name: "b".into(), ty: ColumnType::String, nullable: false },
            Column { name: "c".into(), ty: ColumnType::Float, nullable: true },
        ],
        primary_key: vec![0],
        indexes: vec![],
    };
    let row = vec![Datum::Int(123456), Datum::Str("some-string-value".into()), Datum::Float(3.25)];
    c.bench_function("rowcodec/encode", |b| {
        b.iter(|| {
            let k = rowcodec::primary_key(&table, black_box(&row));
            let v = rowcodec::encode_row_value(&table, &row);
            black_box((k, v))
        });
    });
    let key = rowcodec::primary_key(&table, &row);
    let value = rowcodec::encode_row_value(&table, &row);
    c.bench_function("rowcodec/decode", |b| {
        b.iter(|| black_box(rowcodec::decode_row(&table, black_box(&key), &value)));
    });
}

fn bench_bucket(c: &mut Criterion) {
    c.bench_function("token_bucket/try_take", |b| {
        let mut bucket = TokenBucket::new(1e9, 1e9);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(bucket.try_take(SimTime::from_nanos(i), 10.0).is_ok());
        });
    });
}

criterion_group!(
    benches,
    bench_histogram,
    bench_lsm,
    bench_bloom,
    bench_merge_iter,
    bench_mvcc,
    bench_admission,
    bench_ecpu,
    bench_rowcodec,
    bench_bucket
);
criterion_main!(benches);
