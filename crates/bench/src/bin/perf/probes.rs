//! Host-clock probes (source **P**): public functions of one layer
//! timed in a tight loop on inputs taken from the workload — its
//! statement texts, its row shape, its table size — so a layer's own
//! cost can be set against `host_us_per_txn`. Each probe runs five
//! rounds of at least 200 ms and reports the median round.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use bytes::Bytes;
use crdb_accounting::bucket::{BucketClient, BucketServer, ClientConfig};
use crdb_admission::queue::{Priority, WorkItem, WorkQueue};
use crdb_kv::hlc::Timestamp;
use crdb_kv::mvcc;
use crdb_sim::Sim;
use crdb_sql::schema::TableDescriptor;
use crdb_sql::value::{Datum, Row};
use crdb_sql::{parser, plan, rowcodec};
use crdb_storage::{Engine, LsmConfig, WriteBatch};
use crdb_util::time::{dur, SimTime};
use crdb_util::{SqlInstanceId, TenantId};

use crate::harness::{time_per_call_ns, timed};
use crate::stats::median;
use crate::workloads::Run;

const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(200);
/// Calls between looks at the clock.
const BATCH: u64 = 16;
/// Simulated seconds one round of the idle probe advances.
const IDLE_SIM_SECS: u64 = 20;
/// Simulated seconds before the idle probe: past the 5-minute suspend
/// delay and the autoscaler pass after it.
const SETTLE_SIM_SECS: u64 = 330;

fn time_batched_ns(batch: u64, op: impl FnMut()) -> f64 {
    time_per_call_ns(ROUNDS, ROUND, batch, op)
}

fn time_ns(op: impl FnMut()) -> f64 {
    time_batched_ns(BATCH, op)
}

/// A walk over `0..n` that visits keys in a scattered order.
fn scatter(i: u64, n: u64) -> u64 {
    i.wrapping_mul(7_919) % n.max(1)
}

/// The workload's table shape as storage sees it: `n` encoded primary
/// keys (first key column varied) and one encoded row value.
fn encoded_rows(table: &TableDescriptor, row: &Row, n: u64) -> (Vec<Bytes>, Bytes) {
    let first_pk = table.primary_key.first().copied().unwrap_or(0);
    let keys = (1..=n)
        .map(|i| {
            let mut r = row.clone();
            if let Some(d) = r.get_mut(first_pk) {
                *d = Datum::Int(i as i64);
            }
            rowcodec::primary_key(table, &r)
        })
        .collect();
    (keys, rowcodec::encode_row_value(table, row))
}

fn span_end(keys: &[Bytes]) -> Bytes {
    rowcodec::prefix_span_end(keys.last().unwrap_or(&Bytes::new()))
}

/// Runs every probe against `run`'s live deployment and inputs. Returns
/// values by per-layer metric name.
pub fn run_all(run: &Run) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let inputs = &run.probe_inputs;
    let dep = &run.dep;

    // --- Live deployment: core, serverless, obs ---------------------------
    let resident = dep.connect(run.tenant, "10.3.0.1")?;
    // The fleet's output check has just woken every tenant. Idle time is
    // probed with them suspended again, as they are between sessions;
    // only the probe's own connection keeps its tenant up.
    dep.sim.run_for(dur::secs(SETTLE_SIM_SECS));
    let events_before = dep.sim.events_executed();
    let idle: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let ((), host_s) = timed(|| dep.sim.run_for(dur::secs(IDLE_SIM_SECS)));
            host_s * 1e6 / IDLE_SIM_SECS as f64
        })
        .collect();
    let idle_events = dep.sim.events_executed() - events_before;
    out.insert("core.probe.idle_host_us_per_sim_s", median(&idle));
    out.insert(
        "core.probe.idle_events_per_sim_s",
        idle_events as f64 / (ROUNDS as u64 * IDLE_SIM_SECS) as f64,
    );

    let mut refused = 0u64;
    let connect_ns = time_batched_ns(1, || match dep.connect(run.tenant, "10.3.0.2") {
        Ok(c) => dep.cluster.close(&c),
        Err(_) => refused += 1,
    });
    if refused > 0 {
        return Err(format!("connect probe: {refused} connects refused"));
    }
    out.insert("serverless.probe.connect_close_us", connect_ns / 1e3);

    let snapshot_ns = time_ns(|| {
        black_box(dep.cluster.metrics_snapshot_json());
    });
    out.insert("obs.probe.snapshot_us", snapshot_ns / 1e3);

    // --- sql: front end on the workload's statements, codec on its rows ----
    let texts: Vec<&str> = inputs.statements.iter().map(|(s, _)| s.as_str()).collect();
    let mut parsed = Vec::with_capacity(texts.len());
    for t in &texts {
        parsed.push(parser::parse(t).map_err(|e| format!("probe statement {t:?}: {e}"))?);
    }
    if parsed.is_empty() {
        return Err("probe inputs carry no statements".to_string());
    }
    let mut i = 0usize;
    let parse_ns = time_ns(|| {
        i = (i + 1) % texts.len();
        black_box(parser::parse(texts.get(i).copied().unwrap_or_default()).is_ok());
    });
    out.insert("sql.probe.lex_parse_ns_per_stmt", parse_ns);

    let catalog = resident.node().catalog();
    let plan_ns = time_ns(|| {
        i = (i + 1) % parsed.len();
        if let Some(stmt) = parsed.get(i) {
            black_box(plan::plan_statement(&mut catalog.borrow_mut(), stmt).is_ok());
        }
    });
    out.insert("sql.probe.plan_ns_per_stmt", plan_ns);

    let table = catalog
        .borrow()
        .table(inputs.table)
        .cloned()
        .ok_or_else(|| format!("probe table {} is not in the catalog", inputs.table))?;
    dep.cluster.close(&resident);
    let (keys, value) = encoded_rows(&table, &inputs.row, inputs.rows);
    let first_key = keys.first().cloned().ok_or("probe table has no rows")?;
    out.insert(
        "sql.probe.row_decode_ns",
        time_ns(|| {
            black_box(rowcodec::decode_row(&table, &first_key, &value));
        }),
    );
    out.insert(
        "sql.probe.row_encode_ns",
        time_ns(|| {
            black_box(rowcodec::encode_row_value(&table, &inputs.row));
        }),
    );

    // --- storage: a standalone engine holding the workload's table ---------
    let n = keys.len() as u64;
    let key_at = |i: u64| keys.get(scatter(i, n) as usize).unwrap_or(&first_key);
    let (start, end) = (first_key.clone(), span_end(&keys));
    let engine = Engine::new(LsmConfig::default());
    for k in &keys {
        engine.put(k.clone(), value.clone());
    }
    let mut c = 0u64;
    out.insert(
        "storage.probe.get_ns",
        time_ns(|| {
            c += 1;
            black_box(engine.get(key_at(c)));
        }),
    );
    let mut entries = 0u64;
    let scan_ns = time_batched_ns(1, || {
        engine.scan_visit(&start, &end, |_, _| {
            entries += 1;
            true
        });
    });
    // Every call visits the whole table.
    out.insert("storage.probe.scan_ns_per_entry", scan_ns / n as f64);
    black_box(entries);
    out.insert(
        "storage.probe.apply_ns_per_batch",
        time_ns(|| {
            c += 1;
            let mut batch = WriteBatch::new();
            batch.put(key_at(c).clone(), value.clone());
            black_box(engine.apply(&batch));
        }),
    );

    // --- kv: MVCC over a standalone engine with the same table -------------
    let engine = Engine::new(LsmConfig::default());
    let loaded = Timestamp { wall: 1_000, logical: 0 };
    for k in &keys {
        mvcc::put_version(&engine, k, loaded, Some(&value));
    }
    let read_ts = Timestamp { wall: 2_000, logical: 0 };
    out.insert(
        "kv.probe.mvcc_get_ns",
        time_ns(|| {
            c += 1;
            black_box(mvcc::get(&engine, key_at(c), read_ts, None));
        }),
    );
    let mut rows_seen = 0u64;
    let mut scans = 0u64;
    let mvcc_scan_ns = time_batched_ns(1, || {
        let (pairs, _) = mvcc::scan(&engine, &start, &end, read_ts, usize::MAX, None);
        rows_seen += pairs.len() as u64;
        scans += 1;
    });
    out.insert(
        "kv.probe.mvcc_scan_ns_per_row",
        mvcc_scan_ns * scans as f64 / rows_seen.max(1) as f64,
    );
    let mut wall = 10_000u64;
    let mut conflicts = 0u64;
    out.insert(
        "kv.probe.mvcc_intent_resolve_ns",
        time_ns(|| {
            c += 1;
            wall += 1;
            let ts = Timestamp { wall, logical: 0 };
            let key = key_at(c);
            if mvcc::write_intent(&engine, key, c, ts, ts, Some(&value)).is_err() {
                conflicts += 1;
            }
            mvcc::resolve_intent(&engine, key, c, Some(ts));
        }),
    );
    if conflicts > 0 {
        return Err(format!("intent probe: {conflicts} unexpected conflicts"));
    }

    // --- sim, admission, accounting, workload ------------------------------
    let sim = Sim::new(1);
    for i in 0..100_000u64 {
        sim.schedule_after(dur::secs(3_600 + i % 3_600), || {});
    }
    out.insert(
        "sim.probe.schedule_fire_ns",
        time_ns(|| {
            sim.schedule_after(dur::us(10), || {});
            black_box(sim.step());
        }),
    );

    let mut queue: WorkQueue<u64> = WorkQueue::new(dur::secs(1));
    let item = |c: u64| WorkItem {
        tenant: TenantId(2 + c % 4),
        priority: Priority::Normal,
        txn_start: SimTime::from_nanos(c),
        deadline: SimTime::MAX,
        payload: c,
    };
    for c in 0..64 {
        queue.enqueue(item(c));
    }
    out.insert(
        "admission.probe.enqueue_dequeue_ns",
        time_ns(|| {
            c += 1;
            queue.enqueue(item(c));
            black_box(queue.dequeue(SimTime::from_nanos(c)));
        }),
    );

    let node = SqlInstanceId(1);
    let mut server = BucketServer::new(4.0);
    let mut client = BucketClient::new(node, ClientConfig::default());
    let mut now_us = 0u64;
    out.insert(
        "accounting.probe.bucket_op_ns",
        time_ns(|| {
            now_us += 100_000;
            let now = SimTime::from_nanos(now_us * 1_000);
            if client.try_consume(now, 1.0).is_err() || client.needs_refill(now) {
                let want = client.refill_amount(now);
                let spent = client.take_unbilled(now);
                client.apply_grant(now, server.request(now, node, want, spent));
            }
        }),
    );

    out.insert(
        "workload.probe.gen_ns_per_txn",
        time_ns(|| {
            c += 1;
            (inputs.generate)(c);
        }),
    );
    Ok(out)
}
