//! Span self time: how `perf` turns the traced run's span trees into
//! the per-layer `span.<name>.self_us` metrics.
//!
//! Self time of a span = its duration minus the union of its children's
//! intervals, every interval first clipped to its parent's. Clipping
//! makes a child that outlives its parent (an async intent resolve that
//! finishes after the client was acked) count only while the request was
//! still waiting; a child that never ended counts to its parent's end.
//! With no overlapping siblings the self times of a tree sum exactly to
//! the root's duration; siblings that run in parallel (replication
//! fan-out) are each charged, so the sum then exceeds it.

use std::collections::BTreeMap;

use crdb_obs::trace::SpanView;
use crdb_obs::Trace;

/// Per-span self time of one trace, in sim nanoseconds, indexed like
/// `spans`. A root that never ended yields all zeros.
pub fn self_times(spans: &[SpanView]) -> Vec<u64> {
    let n = spans.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in spans.iter().enumerate() {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p)) {
            list.push(i);
        }
    }
    // Clipped [start, end) per span; parents precede children in
    // creation order, so one forward pass resolves every ancestor.
    let mut clipped: Vec<Option<(u64, u64)>> = vec![None; n];
    for (i, s) in spans.iter().enumerate() {
        let start = s.start.as_nanos();
        let own_end = s.end.map(|e| e.as_nanos());
        clipped[i] = match s.parent {
            None => own_end.map(|e| (start, e.max(start))),
            Some(p) => clipped.get(p).copied().flatten().map(|(ps, pe)| {
                let st = start.clamp(ps, pe);
                (st, own_end.unwrap_or(pe).clamp(st, pe))
            }),
        };
    }
    let mut out = vec![0u64; n];
    for i in 0..n {
        let Some((start, end)) = clipped[i] else { continue };
        let mut kids: Vec<(u64, u64)> = children[i].iter().filter_map(|&c| clipped[c]).collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = start;
        for (ks, ke) in kids {
            let ks = ks.max(cursor);
            if ke > ks {
                covered += ke - ks;
                cursor = ke;
            }
        }
        out[i] = (end - start).saturating_sub(covered);
    }
    out
}

/// Self time summed per span name over many traces.
#[derive(Default)]
pub struct SpanProfile {
    /// Traces whose root ended (one per sampled, finished txn).
    pub traces: u64,
    /// Spans recorded across those traces, roots included.
    pub spans: u64,
    /// Σ root duration, ns.
    pub root_ns: u64,
    /// Σ root self time, ns: time inside the request that no span claims.
    pub root_self_ns: u64,
    /// Σ self time over every span, ns (equals `root_ns` when no siblings
    /// overlap).
    pub self_sum_ns: u64,
    /// name → (Σ self ns, occurrences). Roots are not listed here.
    pub by_name: BTreeMap<String, (u64, u64)>,
}

impl SpanProfile {
    pub fn add(&mut self, trace: &Trace) {
        let spans = trace.spans();
        let Some(root) = spans.first() else { return };
        if root.end.is_none() {
            return;
        }
        let selfs = self_times(&spans);
        self.traces += 1;
        self.spans += spans.len() as u64;
        self.root_ns += root.duration().as_nanos() as u64;
        self.root_self_ns += selfs.first().copied().unwrap_or(0);
        self.self_sum_ns += selfs.iter().sum::<u64>();
        for (s, ns) in spans.iter().zip(&selfs).skip(1) {
            // Names repeat hundreds of thousands of times: allocate a key
            // only the first time one is seen.
            if !self.by_name.contains_key(&s.name) {
                self.by_name.insert(s.name.clone(), (0, 0));
            }
            if let Some(e) = self.by_name.get_mut(&s.name) {
                e.0 += ns;
                e.1 += 1;
            }
        }
    }

    /// Mean self time of `name` per traced txn, µs.
    pub fn self_us_per_txn(&self, name: &str) -> f64 {
        let ns = self.by_name.get(name).map_or(0, |e| e.0);
        ns as f64 / 1e3 / self.traces.max(1) as f64
    }

    /// Mean occurrences of `name` per traced txn.
    pub fn count_per_txn(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0, |e| e.1) as f64 / self.traces.max(1) as f64
    }
}

/// Traces written to the trace file; the profile still covers them all.
/// (A TPC-C-lite transaction with retries is ~500 spans, 50 KB of JSON.)
const MAX_WRITTEN: usize = 500;

/// Writes the first [`MAX_WRITTEN`] kept traces as one JSON array.
pub fn write_traces(path: &std::path::Path, traces: &[Trace]) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut put = |s: &str| w.write_all(s.as_bytes()).map_err(|e| e.to_string());
    put("[")?;
    for (i, t) in traces.iter().take(MAX_WRITTEN).enumerate() {
        if i > 0 {
            put(",\n")?;
        }
        put(&t.to_json())?;
    }
    put("]\n")?;
    w.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::clock::ManualClock;
    use crdb_util::time::dur;
    use crdb_util::Clock;

    fn ms(n: u64) -> u64 {
        n * 1_000_000
    }

    #[test]
    fn nested_children_tile_the_root() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        clock.advance(dur::ms(1));
        let a = root.child("a");
        clock.advance(dur::ms(2));
        let b = a.child("b");
        clock.advance(dur::ms(3));
        b.end();
        clock.advance(dur::ms(1));
        a.end();
        clock.advance(dur::ms(4));
        root.end();
        let selfs = self_times(&trace.spans());
        assert_eq!(selfs, vec![ms(5), ms(3), ms(3)]);
        assert_eq!(selfs.iter().sum::<u64>(), ms(11));
    }

    #[test]
    fn overlapping_children_are_unioned_in_the_parent() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        let t0 = clock.now();
        root.child_at("x", t0 + dur::ms(1)).end_at(t0 + dur::ms(6));
        root.child_at("y", t0 + dur::ms(4)).end_at(t0 + dur::ms(8));
        clock.advance(dur::ms(10));
        root.end();
        let selfs = self_times(&trace.spans());
        // Children cover [1, 8): the root keeps 3 ms; each child is
        // charged its own full duration.
        assert_eq!(selfs, vec![ms(3), ms(5), ms(4)]);
    }

    #[test]
    fn open_and_outliving_children_are_clipped_to_the_parent() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        clock.advance(dur::ms(2));
        let _open = root.child("never.ends");
        let late = root.child("ends.late");
        clock.advance(dur::ms(3));
        root.end();
        clock.advance(dur::ms(5));
        late.end();
        let selfs = self_times(&trace.spans());
        assert_eq!(selfs, vec![ms(2), ms(3), ms(3)]);
    }

    #[test]
    fn open_root_contributes_nothing() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        clock.advance(dur::ms(2));
        root.child("c").end();
        assert_eq!(self_times(&trace.spans()), vec![0, 0]);
        let mut p = SpanProfile::default();
        p.add(&trace);
        assert_eq!(p.traces, 0);
    }

    #[test]
    fn profile_reports_per_txn_means() {
        let mut p = SpanProfile::default();
        for _ in 0..2 {
            let clock = ManualClock::new();
            let (trace, root) = Trace::start("req", clock.clone());
            for _ in 0..2 {
                let c = root.child("kv.rpc");
                clock.advance(dur::ms(1));
                c.end();
            }
            clock.advance(dur::ms(1));
            root.end();
            p.add(&trace);
        }
        assert_eq!(p.traces, 2);
        assert_eq!(p.spans, 6);
        assert_eq!(p.self_us_per_txn("kv.rpc"), 2000.0);
        assert_eq!(p.count_per_txn("kv.rpc"), 2.0);
        assert_eq!(p.root_self_ns, ms(2));
        assert_eq!(p.self_sum_ns, p.root_ns);
    }
}
