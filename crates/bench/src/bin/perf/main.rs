//! `perf`: the whole-stack benchmark. Five workloads through the real
//! `ServerlessCluster` (proxy → quota gate → SQL node → KV client → KV
//! node → LSM on every replica), two clocks, per-layer attribution.
//! See `README.md` beside this file.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run (the benchmark contract)
//! perf trace --workload W [--seed N] [--scale full|smoke]
//! perf set [--scale full|smoke]
//! perf compare A.json B.json
//! perf benchmark-json
//! ```

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, RUN_SECONDS};
use run::Opts;

/// `BENCHMARK.json`'s `command` and `paths`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];
const PATHS: [&str; 1] = ["crates/bench/src/bin/perf"];

const DEFAULT_SEED: u64 = 11;
/// Seeds of a set: three, so a set carries its own spread.
const SET_SEEDS: [u64; 3] = [11, 12, 13];

/// `--key value` flags after an optional leading subcommand, plus bare
/// arguments.
struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
    bare: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { command: None, flags: BTreeMap::new(), bare: Vec::new() };
    let mut first = true;
    while let Some(a) = argv.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = argv.next().ok_or_else(|| format!("--{key} needs a value"))?;
            args.flags.insert(key.to_string(), value);
        } else if first {
            args.command = Some(a);
        } else {
            args.bare.push(a);
        }
        first = false;
    }
    Ok(args)
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    /// Run length from `--seconds`, or from `--scale` (default full).
    fn seconds(&self) -> Result<f64, String> {
        if let Some(s) = self.flag::<f64>("seconds")? {
            return if s > 0.0 { Ok(s) } else { Err("--seconds must be positive".to_string()) };
        }
        match self.flags.get("scale").map(String::as_str) {
            None | Some("full") => Ok(RUN_SECONDS),
            Some("smoke") => Ok(RUN_SECONDS / 20.0),
            Some(other) => Err(format!("--scale: {other:?} is neither full nor smoke")),
        }
    }

    fn opts(&self, trace: bool) -> Result<Opts, String> {
        let name: String = self.flag("workload")?.ok_or("--workload is required")?;
        Ok(Opts {
            spec: workloads::spec(&name)?,
            seed: self.flag("seed")?.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds()?,
            trace,
            result: self.flag::<PathBuf>("result")?,
        })
    }
}

/// One run; the benchmark contract's JSON object is the last line. A
/// run whose output checks failed still prints it, then exits 1.
fn single(opts: &Opts) -> Result<bool, String> {
    let outcome = run::run_one(opts)?;
    outcome.print();
    println!("{}", outcome.contract_line());
    Ok(outcome.correct())
}

/// Every workload at every seed untraced, plus one traced run each, all
/// in child processes so `peak_rss_mib` is a process that ran only that
/// workload. Writes the set file `compare` reads.
fn set(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds()?;
    let dir = report::out_dir(seconds);
    let out = dir.join("set.json");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    let mut all_correct = true;
    for spec in workloads::SPECS {
        let runs = SET_SEEDS.iter().map(|s| (*s, false)).chain([(DEFAULT_SEED, true)]);
        for (seed, trace) in runs {
            let file = dir.join(format!("set-{}-{seed}-{}.json", spec.name, u8::from(trace)));
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                .arg("--result")
                .arg(&file)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            // 1 is a run that finished with wrong outputs: its document
            // says so.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("{} seed {seed} trace {trace}: {status}", spec.name));
            }
            let doc =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            all_correct &= json::parse(&doc)?.get("correct") == Some(&json::Json::Bool(true));
            docs.push(doc.trim_end().to_string());
            std::fs::remove_file(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    let text = format!(
        "{{\"bench\": \"perf\", \"mode\": {}, \"git_rev\": {}, \"runs\": [\n{}\n]}}\n",
        json::quote(&report::mode(seconds)),
        json::quote(&report::git_rev()),
        docs.join(",\n")
    );
    report::write_file(&out, &text)?;
    summarize(&text)?;
    println!("set written to {}", out.display());
    Ok(all_correct)
}

/// Median and spread of each end-to-end metric per workload over a
/// set's untraced runs.
fn summarize(set_json: &str) -> Result<(), String> {
    use json::Json;
    let doc = json::parse(set_json)?;
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or_default();
    println!("\nset summary: median over seeds (spread = interquartile distance / median)");
    for spec in workloads::SPECS {
        let mine: Vec<&Json> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(spec.name))
            .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
            .collect();
        println!("{} ({} runs)", spec.name, mine.len());
        for def in &END_TO_END {
            let metric =
                |r: &&Json, field: &str| r.get("metrics")?.get(def.name)?.get(field)?.as_f64();
            let values: Vec<f64> = mine.iter().filter_map(|r| metric(r, "value")).collect();
            let samples = mine.first().and_then(|r| metric(r, "samples")).unwrap_or(0.0);
            println!(
                "  {:<22} {:>16.4} {:<6} {:<5} spread {:>6.2}%  samples {}",
                def.name,
                stats::median(&values),
                def.unit,
                def.clock.label(),
                stats::spread(&values) * 100.0,
                samples
            );
        }
    }
    Ok(())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_deref() {
        None => {
            let trace = match args.flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
            };
            single(&args.opts(trace)?)
        }
        Some("trace") => single(&args.opts(true)?),
        Some("set") => set(args),
        Some("compare") => match args.bare.as_slice() {
            [a, b] => compare::run(a, b),
            _ => Err("usage: perf compare A.json B.json".to_string()),
        },
        Some("benchmark-json") => {
            print!("{}", metrics::benchmark_json(&COMMAND, &PATHS));
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}; see the README beside main.rs")),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, above either
    /// manifest this file is built from.
    fn committed_benchmark_json() -> String {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        assert_eq!(committed_benchmark_json(), metrics::benchmark_json(&COMMAND, &PATHS));
    }

    #[test]
    fn benchmark_json_is_valid_and_inside_the_contract() {
        let doc = json::parse(&metrics::benchmark_json(&COMMAND, &PATHS)).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let workloads = doc.get("workloads").and_then(json::Json::as_arr).unwrap();
        assert_eq!(workloads.len(), 5);
        for w in workloads {
            let why = w.get("why").and_then(json::Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(doc.get("end_to_end").and_then(json::Json::as_arr).unwrap().len(), 6);
        assert_eq!(doc.get("per_layer").and_then(json::Json::as_arr).unwrap().len(), 95);
    }

    #[test]
    fn arguments_parse_as_the_contract_passes_them() {
        let argv = "--workload tpcc --seed 7 --seconds 15 --trace 1".split(' ').map(String::from);
        let args = parse_args(argv).unwrap();
        assert!(args.command.is_none());
        let opts = args.opts(true).unwrap();
        assert_eq!((opts.spec.name, opts.seed, opts.seconds), ("tpcc", 7, 15.0));
        let args = parse_args("compare a.json b.json".split(' ').map(String::from)).unwrap();
        assert_eq!(args.command.as_deref(), Some("compare"));
        assert_eq!(args.bare, ["a.json", "b.json"]);
        assert!(parse_args(["--seed".to_string()].into_iter()).is_err());
        let smoke = parse_args("set --scale smoke".split(' ').map(String::from)).unwrap();
        assert_eq!(smoke.seconds().unwrap(), RUN_SECONDS / 20.0);
    }
}
