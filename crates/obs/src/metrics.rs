//! A unified metrics registry.
//!
//! # Naming scheme
//!
//! Metric names are dotted paths, most-general component first:
//! `component[.entity].metric`, e.g. `proxy.cold_starts`,
//! `kv.node.3.storage.flush_bytes`, `tenant.7.bucket.tokens_granted`.
//! Entities (node ids, tenant ids) are embedded in the name so the snapshot
//! stays a flat, sorted map.
//!
//! # Determinism contract
//!
//! [`Registry::snapshot_json`] is byte-identical across two runs of the same
//! seeded simulation. This holds because: names are collected into a
//! `BTreeMap` (no hash-order reaches the output); counter values are exact
//! integers; gauge/histogram values are `f64`s produced by the deterministic
//! simulation and formatted with Rust's shortest round-trip representation;
//! and registered sources are re-sampled at snapshot time, so registration
//! order does not matter. The chaos soak asserts this byte-for-byte.
//!
//! # Sources
//!
//! Components keep their own counters (the storage engine's
//! `StorageMetrics`, proxy/autoscaler cells, bucket grant totals, admission
//! queue depths) and are wired in as pull-based sources: a closure
//! registered once at assembly time that reports current values into a
//! [`Sampler`] whenever a snapshot is taken.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crdb_util::Histogram;

use crate::{json_escape, json_f64};

/// Collects values reported by a pull-based source during a snapshot.
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

impl Sampler {
    /// Reports a counter value. Names must be unique within one snapshot.
    pub fn counter(&mut self, name: &str, v: u64) {
        let prev = self.counters.insert(name.to_string(), v);
        assert!(prev.is_none(), "duplicate metric name {name:?}");
    }

    /// Reports a gauge value. Names must be unique within one snapshot.
    pub fn gauge(&mut self, name: &str, v: f64) {
        let prev = self.gauges.insert(name.to_string(), v);
        assert!(prev.is_none(), "duplicate metric name {name:?}");
    }

    /// Reports a histogram. Names must be unique within one snapshot.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        let prev = self.hists.insert(name.to_string(), HistSummary::from(h));
        assert!(prev.is_none(), "duplicate metric name {name:?}");
    }
}

type Source = Box<dyn Fn(&mut Sampler)>;

/// The unified registry. Cheap to clone; clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    sources: Rc<RefCell<Vec<Source>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a pull-based source, sampled on every snapshot. A source
    /// must report the same metric names on every call (values may change)
    /// and must not collide with other sources.
    pub fn register_source(&self, f: impl Fn(&mut Sampler) + 'static) {
        self.sources.borrow_mut().push(Box::new(f));
    }

    /// Serializes every source to deterministic JSON, sorted by metric
    /// name. Byte-identical across same-seed runs.
    pub fn snapshot_json(&self) -> String {
        let mut s = Sampler::default();
        for src in self.sources.borrow().iter() {
            src(&mut s);
        }

        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in s.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in s.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            out.push_str("\":");
            json_f64(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in s.hists.iter().enumerate() {
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
    use std::cell::Cell;

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.register_source(|s| {
            let mut h = Histogram::new();
            h.record(100);
            h.record(200);
            s.histogram("c.lat", &h);
            s.counter("b.count", 3);
            s.counter("a.count", 1);
            s.gauge("a.gauge", 1.5);
        });
        assert_eq!(
            r.snapshot_json(),
            concat!(
                r#"{"counters":{"a.count":1,"b.count":3},"gauges":{"a.gauge":1.5},"#,
                r#""histograms":{"c.lat":{"count":2,"min":100,"max":200,"#,
                r#""mean":150.0,"p50":101,"p99":200}}}"#,
            )
        );
    }

    #[test]
    fn sources_are_resampled_each_snapshot() {
        let r = Registry::new();
        let v = Rc::new(Cell::new(7u64));
        let v2 = v.clone();
        r.register_source(move |s| s.counter("src.value", v2.get()));
        assert!(r.snapshot_json().contains("\"src.value\":7"));
        v.set(9);
        assert!(r.snapshot_json().contains("\"src.value\":9"));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let r = Registry::new();
        r.register_source(|s| s.counter("dup", 0));
        r.register_source(|s| s.counter("dup", 1));
        let _ = r.snapshot_json();
    }
}
