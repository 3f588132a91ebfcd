//! One invocation: set up, measure, check, and — for a traced run —
//! measure again with tracing on and probe the layers.

use std::path::PathBuf;
use std::rc::Rc;

use crate::harness::{sim_digest, timed};
use crate::metrics::{end_to_end, layer_counts, layer_spans, RUN_SECONDS};
use crate::report::{out_dir, write_file, Outcome};
use crate::spans::{write_traces, SpanProfile};
use crate::stats::median;
use crate::workloads::{self, Run, Spec};
use crate::{probes, stats};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Opts {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Run length: `RUN_SECONDS` is full scale, sizes shrink in
    /// proportion below it.
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the result document (default: under the target
    /// directory, by mode and workload).
    pub result: Option<PathBuf>,
}

/// Simulated seconds measured for a run of `seconds`: the workload's
/// full-scale window scaled by `seconds / RUN_SECONDS`. A fixed mapping,
/// so the same `--seconds` and seed give the same simulated run on any
/// host.
pub fn sim_secs(spec: &Spec, seconds: f64) -> f64 {
    spec.full_sim_secs * seconds / RUN_SECONDS
}

fn measure(opts: &Opts, trace: bool) -> Result<(Run, f64), String> {
    let (ready, setup_s) = timed(|| workloads::setup(opts.spec.name, opts.seed, trace));
    let run = ready?.run(sim_secs(opts.spec, opts.seconds))?;
    Ok((run, setup_s))
}

fn problems_of(run: &Run) -> Vec<String> {
    let mut problems = run.problems.clone();
    let mismatches = run.stats.mismatches.get();
    if mismatches > 0 {
        let first = run.stats.first_mismatch.borrow().clone().unwrap_or_default();
        problems.push(format!("{mismatches} wrong outputs, first: {first}"));
    }
    if run.stats.attempted() == 0 {
        problems.push("no transaction finished inside the window".to_string());
    }
    problems
}

pub fn run_one(opts: &Opts) -> Result<Outcome, String> {
    // The untraced run comes first in both modes: end-to-end numbers and
    // counts are its, and peak RSS is read before anything else is built.
    let (run, first_setup_s) = measure(opts, false)?;
    let digest = sim_digest(&run.stats, &run.window);
    let mut problems = problems_of(&run);
    let mut per_layer = layer_counts(opts.spec, &run);
    let stats = Rc::clone(&run.stats);

    let setup_s = if opts.trace {
        first_setup_s
    } else {
        let mut setups = vec![first_setup_s];
        for _ in 1..SETUPS {
            let (again, s) = timed(|| workloads::setup(opts.spec.name, opts.seed, false));
            again?;
            setups.push(s);
        }
        median(&setups)
    };
    let e2e = end_to_end(&run, setup_s);
    let slices = run.window.segments.clone();

    if opts.trace {
        let untraced_host_us = run.window.host_us_per_txn();
        drop(run);
        let (traced, _) = measure(opts, true)?;
        let traced_digest = sim_digest(&traced.stats, &traced.window);
        if traced_digest != digest {
            problems.push(format!(
                "traced run's sim_digest {traced_digest:016x} differs from the untraced {digest:016x}: \
                 tracing changed simulated behaviour"
            ));
        }
        problems.extend(problems_of(&traced).into_iter().map(|p| format!("traced run: {p}")));
        let mut profile = SpanProfile::default();
        if let Some(tracer) = &traced.tracer {
            let traces = tracer.traces.borrow();
            for t in traces.iter() {
                profile.add(t);
            }
            let path = out_dir(opts.seconds).join(format!("trace-{}.json", opts.spec.name));
            write_traces(&path, &traces)?;
        }
        per_layer.extend(layer_spans(&profile));
        let overhead = if untraced_host_us > 0.0 {
            traced.window.host_us_per_txn() / untraced_host_us - 1.0
        } else {
            0.0
        };
        per_layer.insert("obs.trace_overhead_frac", overhead);
        per_layer.extend(probes::run_all(&traced)?);
        if profile.traces > 0 {
            println!(
                "traced {} txns: span self times sum to {:.4} of root duration, root {:.3} us per txn",
                profile.traces,
                profile.self_sum_ns as f64 / profile.root_ns.max(1) as f64,
                profile.root_ns as f64 / 1e3 / profile.traces as f64,
            );
        }
    }

    let samples = stats.samples.borrow().len();
    if samples < stats::P99_MIN_SAMPLES && opts.seconds >= RUN_SECONDS {
        problems.push(format!("only {samples} latency samples at full scale"));
    }
    let outcome = Outcome {
        spec: opts.spec,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        sim_secs: sim_secs(opts.spec, opts.seconds),
        problems,
        attempted: stats.attempted(),
        aborted: stats.aborted.get(),
        errored: stats.errored.get(),
        refused: stats.refused.get(),
        retries: stats.retries.get(),
        last_error: stats.last_error.borrow().clone(),
        sim_digest: digest,
        slices,
        end_to_end: e2e,
        per_layer,
    };
    let path = opts.result.clone().unwrap_or_else(|| {
        let suffix = if opts.trace { ".layers" } else { "" };
        out_dir(opts.seconds).join(format!("{}{suffix}.json", opts.spec.name))
    });
    write_file(&path, &outcome.to_json())?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    /// A smoke-scale run of `name`: passes its output checks and reports
    /// all eight end-to-end metrics; with `repeat`, a second run of the
    /// same seed must reproduce its `sim_digest`.
    fn smoke(name: &str, repeat: bool) {
        let dir = std::env::temp_dir().join(format!("perf-smoke-{name}-{}", std::process::id()));
        let opts = Opts {
            spec: workloads::spec(name).unwrap(),
            seed: 11,
            seconds: RUN_SECONDS / 20.0,
            trace: false,
            result: Some(dir.join("result.json")),
        };
        let outcome = run_one(&opts).unwrap();
        assert_eq!(outcome.problems, Vec::<String>::new());
        assert!(outcome.attempted > 0);
        for def in &END_TO_END {
            let v =
                outcome.end_to_end.get(def.name).unwrap_or_else(|| panic!("{} missing", def.name));
            assert!(v.value.is_finite(), "{} = {}", def.name, v.value);
        }
        let line = outcome.contract_line();
        let doc = crate::json::parse(&line).unwrap();
        let listed = doc.get("metrics").and_then(crate::json::Json::as_obj).unwrap();
        assert_eq!(listed.len(), END_TO_END.iter().filter(|m| m.in_contract).count());
        let written = std::fs::read_to_string(dir.join("result.json")).unwrap();
        let written = crate::json::parse(&written).unwrap();
        assert_eq!(written.get("mode").and_then(crate::json::Json::as_str), Some("smoke"));

        std::fs::remove_dir_all(&dir).unwrap();
        if !repeat {
            return;
        }
        let again = workloads::setup(name, 11, false)
            .unwrap()
            .run(sim_secs(opts.spec, opts.seconds))
            .unwrap();
        assert_eq!(sim_digest(&again.stats, &again.window), outcome.sim_digest);
    }

    #[test]
    fn smoke_point_read() {
        smoke("point_read", true);
    }

    #[test]
    fn smoke_update_heavy() {
        smoke("update_heavy", false);
    }

    #[test]
    fn smoke_tpcc() {
        smoke("tpcc", true);
    }

    #[test]
    fn smoke_scan_agg() {
        smoke("scan_agg", true);
    }

    #[test]
    fn smoke_cold_start_fleet() {
        smoke("cold_start_fleet", false);
    }

    #[test]
    fn run_length_scales_the_simulated_window() {
        let spec = workloads::spec("point_read").unwrap();
        assert_eq!(sim_secs(spec, RUN_SECONDS), spec.full_sim_secs);
        assert_eq!(sim_secs(spec, RUN_SECONDS / 20.0), spec.full_sim_secs / 20.0);
    }
}
