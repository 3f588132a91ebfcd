//! `perf compare A.json B.json`: applies the benchmark's bounds to two
//! result sets (as `perf set` writes them), one row per end-to-end
//! metric and workload.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::SPECS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// A set's own run-to-run spread is wider than the bound, so a
    /// difference inside the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile distance of `values`, in the metric's own unit.
fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// The change `def`'s bound allows from a median of `median`: its share
/// of the median and its absolute floor, whichever is larger.
fn allowed(def: &EndToEnd, median: f64) -> f64 {
    (def.bound * median.abs()).max(def.abs_bound)
}

/// Classifies baseline values `a` against candidate values `b`. A set
/// whose own spread is wider than the change its bound allows cannot
/// tell such a change from noise.
pub fn classify(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if def.higher_is_better { ma - mb } else { mb - ma };
    if iqr(a) > allowed(def, ma) || iqr(b) > allowed(def, mb) {
        Verdict::Unresolved
    } else if worse_by > allowed(def, ma) {
        Verdict::Regressed
    } else if -worse_by > allowed(def, ma) {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Untraced runs of a set: workload → metric → values, plus each run's
/// digest by (workload, seed).
struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    digests: BTreeMap<(String, u64), String>,
    label: String,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut set = Set {
        values: BTreeMap::new(),
        digests: BTreeMap::new(),
        label: format!(
            "{path} ({} @ {})",
            doc.get("mode").and_then(Json::as_str).unwrap_or("?"),
            doc.get("git_rev").and_then(Json::as_str).unwrap_or("?")
        ),
    };
    for run in runs {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or_default().to_string();
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let digest = run.get("sim_digest").and_then(Json::as_str).unwrap_or_default().to_string();
        set.digests.insert((workload.clone(), seed), digest);
        let metrics = run.get("metrics").and_then(Json::as_obj);
        for (name, m) in metrics.into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                let per_workload = set.values.entry(workload.clone()).or_default();
                per_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("baseline : {}", a.label);
    println!("candidate: {}", b.label);
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "spreadA", "spreadB"
    );
    let mut counts: BTreeMap<&'static str, u32> = BTreeMap::new();
    let empty = Vec::new();
    for spec in SPECS {
        for def in &END_TO_END {
            let va = a.values.get(spec.name).and_then(|m| m.get(def.name)).unwrap_or(&empty);
            let vb = b.values.get(spec.name).and_then(|m| m.get(def.name)).unwrap_or(&empty);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = classify(def, va, vb);
            *counts.entry(verdict.label()).or_default() += 1;
            let (ma, mb) = (median(va), median(vb));
            let change = if ma != 0.0 {
                format!("{:+.2}%", (mb - ma) / ma * 100.0)
            } else {
                format!("{:+.4}", mb - ma)
            };
            // Spreads in the terms of the metric's bound: a share of the
            // median, or absolute where the bound is.
            let own = |v: &[f64]| match def.bound > 0.0 {
                true => format!("{:.2}%", spread(v) * 100.0),
                false => format!("{:.4}", iqr(v)),
            };
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>9} {:>8} {:>8}  {}",
                spec.name,
                def.name,
                ma,
                mb,
                change,
                own(va),
                own(vb),
                verdict.label()
            );
        }
    }
    let shared: Vec<_> = a.digests.iter().filter(|(k, _)| b.digests.contains_key(*k)).collect();
    let same = shared.iter().filter(|(k, d)| b.digests.get(*k) == Some(*d)).count();
    println!(
        "sim_digest: {same} of {} runs with the same (workload, seed) in both sets are identical",
        shared.len()
    );
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("rows: {}", summary.join(", "));
    Ok(counts.get("regressed").copied().unwrap_or(0) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn classifies_ok_regressed_improved_unresolved() {
        let rss = def("peak_rss_mib"); // lower is better, 10 %
        assert_eq!(classify(rss, &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]), Verdict::Ok);
        assert_eq!(
            classify(rss, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        assert_eq!(classify(rss, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]), Verdict::Improved);
        // The baseline's own spread (30 %) is wider than the bound.
        assert_eq!(
            classify(rss, &[100.0, 115.0, 85.0], &[104.0, 105.0, 103.0]),
            Verdict::Unresolved
        );

        let tps = def("sim_throughput_tps"); // higher is better, 5 %
        assert_eq!(classify(tps, &[1000.0; 3], &[960.0; 3]), Verdict::Ok);
        assert_eq!(classify(tps, &[1000.0; 3], &[940.0; 3]), Verdict::Regressed);
        assert_eq!(classify(tps, &[1000.0; 3], &[1060.0; 3]), Verdict::Improved);
    }

    #[test]
    fn absolute_bounds_apply_to_fail_frac_and_setup() {
        let fail = def("fail_frac");
        assert_eq!(classify(fail, &[0.0; 3], &[0.001; 3]), Verdict::Ok);
        assert_eq!(classify(fail, &[0.0; 3], &[0.01; 3]), Verdict::Regressed);
        assert_eq!(classify(fail, &[0.0005; 3], &[0.0004; 3]), Verdict::Ok);
        // Set-up must worsen by 25 % and by half a second.
        let setup = def("setup_s");
        assert_eq!(classify(setup, &[0.2; 3], &[0.5; 3]), Verdict::Ok);
        assert_eq!(classify(setup, &[2.0; 3], &[2.4; 3]), Verdict::Ok);
        assert_eq!(classify(setup, &[2.0; 3], &[2.8; 3]), Verdict::Regressed);
        // A spread of 0.3 s is 30 % of the median but under the half second
        // a regression needs; one of 0.8 s hides such a regression.
        assert_eq!(classify(setup, &[0.9, 1.0, 1.2], &[1.0; 3]), Verdict::Ok);
        assert_eq!(classify(setup, &[1.6, 2.0, 2.4], &[2.0; 3]), Verdict::Unresolved);
    }
}
