//! The metric catalogue: every name `perf` reports, with its unit,
//! clock, direction and (end to end) regression bound — and the code
//! that derives the values from a measured run. `BENCHMARK.json` is
//! generated from this table (`perf benchmark-json`) and a test keeps
//! the committed file equal to it.

use std::collections::BTreeMap;

use crate::harness::Delta;
use crate::spans::SpanProfile;
use crate::stats::{percentile, tail};
use crate::workloads::{Run, Spec};

/// Which clock a number is read from. *Sim* is what the modelled system
/// would take (repeats exactly for a seed); *host* is what the simulator
/// costs to run (noisy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Sim,
    Host,
    /// A count or ratio: no clock.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::None => "-",
        }
    }
}

/// `--seconds` value at which a run has the full-scale sizes of the
/// workload table; also `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 15.0;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// Absolute worsening that must also be exceeded before a change
    /// counts as a regression (0 = none). `fail_frac` has only this.
    pub abs_bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json`, where a bound is a
    /// share of the parent's median (at most a quarter) and ten runs of
    /// one commit must spread less than it. Two metrics cannot be:
    /// `fail_frac`, whose median is 0 on a healthy run (the contract's
    /// `attempted` / `failed` carry it), and `host_us_per_txn`, which on
    /// the shared reference box spreads past a quarter of itself (the
    /// driver measured 24 % and 27 % on `update_heavy`). `perf compare`
    /// judges both all the same.
    pub in_contract: bool,
}

/// A lower-is-better metric with a relative bound.
const fn lower(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        higher_is_better: false,
        bound,
        abs_bound: 0.0,
        in_contract: true,
    }
}

pub const END_TO_END: [EndToEnd; 8] = [
    lower("sim_txn_p50_us", "us", Clock::Sim, 0.02),
    lower("sim_txn_p99_us", "us", Clock::Sim, 0.10),
    // 5 %, not the 2 % of the percentiles: `tpcc`'s heavy-tailed mix over
    // the ~6,800 transactions its window holds spreads these two 1.3-1.5 %
    // across seeds, and a bound should be three such spreads wide.
    EndToEnd { higher_is_better: true, ..lower("sim_throughput_tps", "txn/s", Clock::Sim, 0.05) },
    lower("sim_cpu_ms_per_txn", "ms", Clock::Sim, 0.05),
    EndToEnd {
        abs_bound: 0.002,
        in_contract: false,
        ..lower("fail_frac", "frac", Clock::None, 0.0)
    },
    // On the shared reference box whole runs come out a quarter to a half
    // slower for minutes at a time (neighbours on the memory system), so
    // the driver does not bound this one; `BENCHMARK.json` carries the
    // same number as the per-layer `sim.host_us_per_txn`.
    EndToEnd { in_contract: false, ..lower("host_us_per_txn", "us", Clock::Host, 0.25) },
    lower("peak_rss_mib", "MiB", Clock::Host, 0.10),
    EndToEnd { abs_bound: 0.5, ..lower("setup_s", "s", Clock::Host, 0.25) },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Sim-clock self time per txn of an existing span, traced run.
    Span,
    /// Deterministic count over the measured window.
    Count,
    /// Deterministic simulated time over the measured window (CPU
    /// consumed, a latency percentile of one class).
    SimTime,
    /// Host-clock probe of a public function.
    Probe,
    /// Host-clock figure of the measured window itself.
    Window,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub source: Source,
}

impl Layer {
    pub fn clock(&self) -> Clock {
        match self.source {
            Source::Span | Source::SimTime => Clock::Sim,
            Source::Count => Clock::None,
            Source::Probe | Source::Window => Clock::Host,
        }
    }

    /// The crate the metric belongs to: the name's first segment, or for
    /// spans the layer that opens them.
    pub fn layer(&self) -> &'static str {
        match self.name.strip_prefix("span.") {
            None => self.name.split('.').next().unwrap_or(self.name),
            Some(rest) => SPAN_LAYERS
                .iter()
                .find(|(_, spans)| spans.iter().any(|s| rest.strip_prefix(s) == Some(".self_us")))
                .map_or("obs", |(layer, _)| layer),
        }
    }
}

/// Span names by the layer (crate) that records them.
const SPAN_LAYERS: [(&str, &[&str]); 6] = [
    (
        "sql",
        &[
            "sql.execute",
            "sql.cpu",
            "txn.read",
            "txn.scan",
            "txn.commit",
            "commit.intents",
            "commit.end_txn",
            "commit.resolve",
        ],
    ),
    ("kv", &["kv.send", "kv.rpc", "meta.lookup", "kv.serve", "kv.cpu", "replication.quorum"]),
    ("storage", &["storage.mvcc", "wal.group_commit"]),
    ("admission", &["admission.queue"]),
    ("accounting", &["quota.gate"]),
    (
        "serverless",
        &[
            "proxy.execute",
            "network.hop",
            "proxy.connect",
            "pool.acquire",
            "pod.assignment",
            "cert.delivery",
            "sql.node.start",
            "process.init",
            "systemdb.access",
            "catalog.load",
            "instance.register",
            "session.open",
        ],
    ),
];

const fn span(name: &'static str) -> Layer {
    Layer { name, unit: "us", higher_is_better: false, source: Source::Span }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, higher_is_better: false, source: Source::Count }
}

const fn sim_time(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, higher_is_better: false, source: Source::SimTime }
}

const fn probe(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, higher_is_better: false, source: Source::Probe }
}

/// A host-clock figure of the measured window.
const fn window(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, higher_is_better: false, source: Source::Window }
}

const fn higher(layer: Layer) -> Layer {
    Layer { higher_is_better: true, ..layer }
}

pub const PER_LAYER: [Layer; 95] = [
    // sim
    window("sim.host_us_per_txn", "us"),
    count("sim.events_per_txn", "count"),
    window("sim.host_ns_per_event", "ns"),
    higher(window("sim.events_per_host_s", "1/s")),
    probe("sim.probe.schedule_fire_ns", "ns"),
    // sql
    span("span.sql.execute.self_us"),
    span("span.sql.cpu.self_us"),
    span("span.txn.read.self_us"),
    span("span.txn.scan.self_us"),
    span("span.txn.commit.self_us"),
    span("span.commit.intents.self_us"),
    span("span.commit.end_txn.self_us"),
    span("span.commit.resolve.self_us"),
    count("sql.stmts_per_txn", "count"),
    count("sql.retries_per_txn", "count"),
    count("sql.rows_read_per_row_returned", "ratio"),
    count("sql.rows_read_per_txn", "count"),
    count("sql.rows_written_per_txn", "count"),
    sim_time("sql.cpu_ms_per_txn", "ms"),
    probe("sql.probe.lex_parse_ns_per_stmt", "ns"),
    probe("sql.probe.plan_ns_per_stmt", "ns"),
    probe("sql.probe.row_decode_ns", "ns"),
    probe("sql.probe.row_encode_ns", "ns"),
    // kv
    span("span.kv.send.self_us"),
    span("span.kv.rpc.self_us"),
    span("span.meta.lookup.self_us"),
    span("span.kv.serve.self_us"),
    span("span.kv.cpu.self_us"),
    span("span.replication.quorum.self_us"),
    count("kv.batches_per_txn", "count"),
    count("kv.rpcs_per_txn", "count"),
    count("kv.client_retries_per_txn", "count"),
    count("kv.txn_pushes_per_txn", "count"),
    sim_time("kv.cpu_ms_per_txn", "ms"),
    probe("kv.probe.mvcc_get_ns", "ns"),
    probe("kv.probe.mvcc_intent_resolve_ns", "ns"),
    probe("kv.probe.mvcc_scan_ns_per_row", "ns"),
    // storage
    span("span.storage.mvcc.self_us"),
    span("span.wal.group_commit.self_us"),
    count("storage.point_gets_per_txn", "count"),
    count("storage.tables_probed_per_get", "ratio"),
    higher(count("storage.bloom_hit_rate", "frac")),
    count("storage.scan_read_amp", "ratio"),
    count("storage.scan_entries_per_txn", "count"),
    count("storage.wal_batches_per_txn", "count"),
    count("storage.wal_bytes_per_txn", "bytes"),
    count("storage.fsyncs_per_txn", "count"),
    higher(count("storage.batches_per_fsync", "ratio")),
    count("storage.write_amp", "ratio"),
    count("storage.space_amp", "ratio"),
    count("storage.flushes", "count"),
    count("storage.compactions", "count"),
    sim_time("storage.stall_us_per_txn", "us"),
    probe("storage.probe.get_ns", "ns"),
    probe("storage.probe.apply_ns_per_batch", "ns"),
    probe("storage.probe.scan_ns_per_entry", "ns"),
    // admission
    span("span.admission.queue.self_us"),
    probe("admission.probe.enqueue_dequeue_ns", "ns"),
    // accounting
    span("span.quota.gate.self_us"),
    sim_time("accounting.ecpu_ms_per_txn", "ms"),
    count("accounting.ecpu_over_cpu", "ratio"),
    probe("accounting.probe.bucket_op_ns", "ns"),
    // serverless
    span("span.proxy.execute.self_us"),
    span("span.network.hop.self_us"),
    span("span.proxy.connect.self_us"),
    span("span.pool.acquire.self_us"),
    span("span.pod.assignment.self_us"),
    span("span.cert.delivery.self_us"),
    span("span.sql.node.start.self_us"),
    span("span.process.init.self_us"),
    span("span.systemdb.access.self_us"),
    span("span.catalog.load.self_us"),
    span("span.instance.register.self_us"),
    span("span.session.open.self_us"),
    count("serverless.cold_frac", "frac"),
    count("serverless.pool_miss_frac", "frac"),
    count("serverless.connect_retries", "count"),
    count("serverless.scale_ups", "count"),
    count("serverless.suspensions", "count"),
    count("serverless.migrations", "count"),
    count("serverless.shed_statements", "count"),
    sim_time("serverless.cold_p50_ms.r0", "ms"),
    sim_time("serverless.cold_p50_ms.r1", "ms"),
    sim_time("serverless.cold_p50_ms.r2", "ms"),
    probe("serverless.probe.connect_close_us", "us"),
    // core
    probe("core.probe.idle_host_us_per_sim_s", "us"),
    probe("core.probe.idle_events_per_sim_s", "count"),
    count("core.active_tenants_mean", "count"),
    // workload
    sim_time("workload.read_p50_us", "us"),
    sim_time("workload.update_p50_us", "us"),
    probe("workload.probe.gen_ns_per_txn", "ns"),
    // obs
    window("obs.trace_overhead_frac", "frac"),
    count("obs.spans_per_txn", "count"),
    count("obs.unattributed_frac", "frac"),
    probe("obs.probe.snapshot_us", "us"),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Samples behind a timing (0 = not a sampled timing).
    pub samples: u64,
    /// Set on `sim_txn_p99_us` when fewer than 1,000 samples made it a
    /// p95.
    pub note: Option<&'static str>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The eight end-to-end metrics of `run`.
pub fn end_to_end(run: &Run, setup_s: f64) -> BTreeMap<&'static str, Value> {
    let stats = &run.stats;
    let mut sorted = stats.samples.borrow().clone();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let committed = stats.committed.get() as f64;
    let d = &run.window.delta;
    let (tail_label, tail_ns) = tail(&sorted);
    END_TO_END
        .iter()
        .map(|def| {
            let (value, samples) = match def.name {
                "sim_txn_p50_us" => (percentile(&sorted, 0.5) as f64 / 1e3, n),
                "sim_txn_p99_us" => (tail_ns as f64 / 1e3, n),
                "sim_throughput_tps" => (stats.throughput_tps(), 0),
                "sim_cpu_ms_per_txn" => (ratio((d.kv_cpu_s() + d.sql_cpu_s()) * 1e3, committed), 0),
                "fail_frac" => (ratio(stats.failed() as f64, stats.attempted() as f64), 0),
                "host_us_per_txn" => {
                    (run.window.host_us_per_txn(), run.window.segments.len() as u64)
                }
                "peak_rss_mib" => (run.window.peak_rss_mib, 0),
                "setup_s" => (setup_s, 0),
                _ => (f64::NAN, 0),
            };
            let note = (def.name == "sim_txn_p99_us" && tail_label != "p99").then_some(tail_label);
            (def.name, Value { value, unit: def.unit, clock: def.clock, samples, note })
        })
        .collect()
}

fn storage(d: &Delta, field: &str) -> f64 {
    d.sum(&format!(".storage.{field}"))
}

/// Count- and window-sourced per-layer values of `run` (everything but
/// spans, probes and the trace overhead).
pub fn layer_counts(spec: &Spec, run: &Run) -> BTreeMap<&'static str, f64> {
    let stats = &run.stats;
    let w = &run.window;
    let d = &w.delta;
    let txns = stats.committed.get() as f64;
    let per_txn = |v: f64| ratio(v, txns);
    let events = d.events() as f64;
    let cpu_s = d.kv_cpu_s() + d.sql_cpu_s();
    let ecpu_s = d.sum(".ecpu_seconds");
    let logical = storage(d, "logical_bytes_written");
    let physical =
        storage(d, "wal_bytes") + storage(d, "flush_bytes") + storage(d, "compact_bytes_out");
    let replicas = run.dep.cluster.config().kv.replication_factor as f64;
    let tally = &run.tally;

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.insert("sim.host_us_per_txn", w.host_us_per_txn());
    out.insert("sim.events_per_txn", per_txn(events));
    out.insert("sim.host_ns_per_event", ratio(w.host_ns as f64, events));
    out.insert("sim.events_per_host_s", ratio(events, w.host_ns as f64 / 1e9));

    out.insert("sql.stmts_per_txn", per_txn(tally.statements.get() as f64));
    out.insert("sql.retries_per_txn", per_txn(stats.retries.get() as f64));
    out.insert(
        "sql.rows_read_per_row_returned",
        ratio(tally.rows_read.get() as f64, tally.rows_out.get() as f64),
    );
    out.insert("sql.rows_read_per_txn", per_txn(tally.rows_read.get() as f64));
    out.insert("sql.rows_written_per_txn", per_txn(tally.rows_written.get() as f64));
    out.insert("sql.cpu_ms_per_txn", per_txn(d.sql_cpu_s() * 1e3));

    out.insert("kv.batches_per_txn", per_txn(d.sum(".batches_served")));
    out.insert("kv.client_retries_per_txn", per_txn(d.of("kv.degrade.retries")));
    out.insert("kv.txn_pushes_per_txn", per_txn(d.of("kv.degrade.txn_pushes")));
    out.insert("kv.cpu_ms_per_txn", per_txn(d.kv_cpu_s() * 1e3));

    out.insert("storage.point_gets_per_txn", per_txn(storage(d, "point_gets")));
    out.insert(
        "storage.tables_probed_per_get",
        ratio(storage(d, "tables_probed"), storage(d, "point_gets")),
    );
    out.insert(
        "storage.bloom_hit_rate",
        ratio(storage(d, "bloom_hits"), storage(d, "bloom_probes")),
    );
    out.insert(
        "storage.scan_read_amp",
        ratio(storage(d, "scan_entries_pulled"), storage(d, "scan_entries_returned")),
    );
    out.insert("storage.scan_entries_per_txn", per_txn(storage(d, "scan_entries_returned")));
    out.insert("storage.wal_batches_per_txn", per_txn(storage(d, "wal_batches")));
    out.insert("storage.wal_bytes_per_txn", per_txn(storage(d, "wal_bytes")));
    out.insert("storage.fsyncs_per_txn", per_txn(storage(d, "fsyncs")));
    out.insert(
        "storage.batches_per_fsync",
        ratio(storage(d, "batches_synced"), storage(d, "fsyncs")),
    );
    out.insert("storage.write_amp", ratio(physical, logical));
    out.insert(
        "storage.space_amp",
        ratio(run.dep.cluster.kv.storage_bytes() as f64, run.live_user_bytes * replicas),
    );
    out.insert("storage.flushes", storage(d, "flush_count"));
    out.insert("storage.compactions", storage(d, "compact_count"));
    out.insert("storage.stall_us_per_txn", per_txn(storage(d, "stall_micros")));

    out.insert("accounting.ecpu_ms_per_txn", per_txn(ecpu_s * 1e3));
    out.insert("accounting.ecpu_over_cpu", ratio(ecpu_s, cpu_s));

    out.insert("serverless.pool_miss_frac", ratio(d.of("pool.misses"), d.of("pool.acquired")));
    out.insert("serverless.scale_ups", d.of("autoscaler.scale_ups"));
    out.insert("serverless.suspensions", d.of("autoscaler.suspensions"));
    out.insert("serverless.migrations", d.of("proxy.migrations"));
    out.insert("serverless.shed_statements", d.of("proxy.shed_statements"));
    out.insert("core.active_tenants_mean", w.active_tenants_mean);

    let by_class = stats.by_class.borrow();
    for (class, samples) in by_class.iter().enumerate() {
        let name = match spec.classes.get(class) {
            Some(&"read") => "workload.read_p50_us",
            Some(&"update") => "workload.update_p50_us",
            _ => continue,
        };
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        out.insert(name, percentile(&sorted, 0.5) as f64 / 1e3);
    }
    out.extend(run.extra.iter().map(|(k, v)| (*k, *v)));
    out
}

/// Span-sourced per-layer values from the traced run's profile.
pub fn layer_spans(profile: &SpanProfile) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for def in PER_LAYER.iter().filter(|l| l.source == Source::Span) {
        let span_name = def
            .name
            .strip_prefix("span.")
            .and_then(|s| s.strip_suffix(".self_us"))
            .unwrap_or(def.name);
        out.insert(def.name, profile.self_us_per_txn(span_name));
    }
    out.insert("kv.rpcs_per_txn", profile.count_per_txn("kv.rpc"));
    out.insert("obs.spans_per_txn", ratio(profile.spans as f64, profile.traces as f64));
    out.insert("obs.unattributed_frac", ratio(profile.root_self_ns as f64, profile.root_ns as f64));
    out
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json(command: &[&str], paths: &[&str]) -> String {
    use crate::json::{num, quote};
    let list = |items: Vec<String>| items.join(",\n    ");
    let strings = |v: &[&str]| v.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads = crate::workloads::SPECS
        .iter()
        .map(|s| format!("{{\"name\": {}, \"why\": {}}}", quote(s.name), quote(s.why)))
        .collect();
    let e2e = END_TO_END
        .iter()
        .filter(|m| m.in_contract)
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(better(m.higher_is_better)),
                num(m.bound)
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(better(m.higher_is_better))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        strings(command),
        strings(paths),
        RUN_SECONDS as u64,
        list(workloads),
        list(e2e),
        list(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_contract_shaped() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_span_metric_has_a_layer() {
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Span) {
            assert_ne!(m.layer(), "obs", "{} is in no layer's span list", m.name);
        }
        assert_eq!(PER_LAYER.iter().filter(|m| m.source == Source::Span).count(), 30);
        assert_eq!(PER_LAYER[0].layer(), "sim");
    }
}
