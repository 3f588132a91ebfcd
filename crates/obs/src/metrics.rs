//! Deterministic metrics snapshots.
//!
//! # Naming scheme
//!
//! Metric names are dotted paths, most-general component first:
//! `component[.entity].metric`, e.g. `proxy.cold_starts`,
//! `kv.node.3.storage.flush_bytes`, `tenant.7.bucket.tokens_granted`.
//! Entities (node ids, tenant ids) are embedded in the name so the snapshot
//! stays a flat, sorted map. [`Sampler`] refuses (panics on) a name of any
//! other shape, so a name built with `format!` is checked as it is made.
//!
//! # Determinism contract
//!
//! [`Sampler::snapshot_json`] is byte-identical across two runs of the same
//! seeded simulation. This holds because: names are collected into a
//! `BTreeMap` (no hash-order reaches the output); counter values are exact
//! integers; and gauge/histogram values are `f64`s produced by the
//! deterministic simulation and formatted with Rust's shortest round-trip
//! representation. The chaos soak asserts this byte-for-byte.
//!
//! # Sampling
//!
//! Components keep their own counters (the storage engine's
//! `StorageMetrics`, proxy/autoscaler cells, bucket grant totals, admission
//! queue depths); whoever assembles them reports their current values into
//! a fresh [`Sampler`] whenever a snapshot is taken.

use std::collections::BTreeMap;

use crdb_util::Histogram;

use crate::{json_escape, json_f64};

/// Collects the values reported for one snapshot.
#[derive(Default)]
pub struct Sampler {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistSummary>,
}

#[derive(Clone)]
struct HistSummary {
    count: u64,
    min: u64,
    max: u64,
    mean: f64,
    p50: u64,
    p99: u64,
}

impl From<&Histogram> for HistSummary {
    fn from(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
        }
    }
}

/// Whether `name` has the `component[.entity].metric` shape: two or more
/// dot-separated segments of `[a-z0-9_]`, the first starting with a letter.
fn is_metric_name(name: &str) -> bool {
    let segment_ok = |s: &str| {
        !s.is_empty()
            && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    name.starts_with(|c: char| c.is_ascii_lowercase())
        && name.contains('.')
        && name.split('.').all(segment_ok)
}

/// Records `v` under `name`, which must be well shaped and new to `map`.
fn report<V>(map: &mut BTreeMap<String, V>, name: &str, v: V) {
    assert!(
        is_metric_name(name),
        "metric name {name:?} is not `component[.entity].metric` (lowercase dotted segments)"
    );
    let prev = map.insert(name.to_string(), v);
    assert!(prev.is_none(), "duplicate metric name {name:?}");
}

impl Sampler {
    /// Reports a counter value. Names must be unique within one snapshot.
    pub fn counter(&mut self, name: &str, v: u64) {
        report(&mut self.counters, name, v);
    }

    /// Reports a gauge value. Names must be unique within one snapshot.
    pub fn gauge(&mut self, name: &str, v: f64) {
        report(&mut self.gauges, name, v);
    }

    /// Reports a histogram. Names must be unique within one snapshot.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        report(&mut self.hists, name, HistSummary::from(h));
    }

    /// Serializes the reported values to deterministic JSON, sorted by
    /// metric name. Byte-identical across same-seed runs.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str("\":");
            json_f64(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str(&format!(
                "\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count, h.min, h.max
            ));
            json_f64(h.mean, &mut out);
            out.push_str(&format!(",\"p50\":{},\"p99\":{}}}", h.p50, h.p99));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_by_name() {
        let mut s = Sampler::default();
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        s.histogram("c.lat", &h);
        s.counter("b.count", 3);
        s.counter("a.count", 1);
        s.gauge("a.gauge", 1.5);
        assert_eq!(
            s.snapshot_json(),
            concat!(
                r#"{"counters":{"a.count":1,"b.count":3},"gauges":{"a.gauge":1.5},"#,
                r#""histograms":{"c.lat":{"count":2,"min":100,"max":200,"#,
                r#""mean":150.0,"p50":101,"p99":200}}}"#,
            )
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let mut s = Sampler::default();
        s.counter("a.dup", 0);
        s.counter("a.dup", 1);
    }

    #[test]
    fn metric_shape() {
        assert!(is_metric_name("proxy.cold_starts"));
        assert!(is_metric_name("kv.node.3.storage.flush_bytes"));
        assert!(!is_metric_name("single"));
        assert!(!is_metric_name("Has.Upper"));
        assert!(!is_metric_name("trailing."));
        assert!(!is_metric_name("a..b"));
        assert!(!is_metric_name("3.lead_digit"));
        assert!(!is_metric_name("kv.node-3.x"));
    }

    #[test]
    #[should_panic(expected = "is not `component[.entity].metric`")]
    fn badly_shaped_names_panic() {
        Sampler::default().counter("Kv.Bad", 1);
    }
}
