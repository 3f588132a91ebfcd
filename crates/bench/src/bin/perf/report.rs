//! One run's outcome: how it is printed, written to disk, and reduced
//! to the benchmark contract's last line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{num, quote};
use crate::metrics::{Clock, Value, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads::Spec;

/// Everything one invocation measured.
pub struct Outcome {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sim_secs: f64,
    /// Failed output checks, digest mismatches (empty = correct).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub aborted: u64,
    pub errored: u64,
    pub refused: u64,
    pub retries: u64,
    pub last_error: Option<String>,
    pub sim_digest: u64,
    /// Host ns and commits of each slice of the window. A drifting
    /// commit count means the workload was not in a steady state; host
    /// time per commit that jumps between slices is the host, not the
    /// program.
    pub slices: Vec<(u64, u64)>,
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// Per-layer values; in an untraced run only the count-sourced ones.
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.aborted + self.errored + self.refused
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// `full` at the benchmark's run length, `smoke` at a twentieth of it;
/// any other length names itself. The label is a function of the run
/// length alone, so a short run cannot be filed as a full one.
pub fn mode(seconds: f64) -> String {
    if seconds == RUN_SECONDS {
        "full".to_string()
    } else if seconds == RUN_SECONDS / 20.0 {
        "smoke".to_string()
    } else {
        format!("custom-{seconds}s")
    }
}

/// `<target dir>/perf/<mode>`, inside the checkout the run started in.
pub fn out_dir(seconds: f64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf").join(mode(seconds))
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout). No process is started.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn clock_of(name: &str) -> Clock {
    PER_LAYER.iter().find(|l| l.name == name).map_or(Clock::None, |l| l.clock())
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|l| l.name == name).map_or("", |l| l.unit)
}

impl Outcome {
    /// The human-readable report: every metric by name with its unit,
    /// its clock and, for timings, its sample count.
    pub fn print(&self) {
        let s = self.spec;
        let loop_kind = match s.clients {
            0 => "open loop".to_string(),
            n => format!("closed loop, {n} clients"),
        };
        println!(
            "perf {}  seed {}  mode {} ({} s => {} sim s)  trace {}",
            s.name,
            self.seed,
            mode(self.seconds),
            self.seconds,
            self.sim_secs,
            if self.traced { "on" } else { "off" }
        );
        println!("  {loop_kind}; txn = {}", s.txn);
        println!("  why: {}", s.why);
        println!("end to end (measured with tracing off)");
        println!("  {:<22} {:>16} {:<6} {:<5} {:>9}", "name", "value", "unit", "clock", "samples");
        for def in &END_TO_END {
            let Some(v) = self.end_to_end.get(def.name) else { continue };
            let samples = if v.samples > 0 { v.samples.to_string() } else { "-".to_string() };
            let note = v.note.map(|n| format!("  ({n}: under 1000 samples)")).unwrap_or_default();
            println!(
                "  {:<22} {:>16.4} {:<6} {:<5} {:>9}{note}",
                def.name,
                v.value,
                v.unit,
                v.clock.label(),
                samples
            );
        }
        println!(
            "  attempted {}  failed {} (aborted {}, errored {}, refused {})  retries {}",
            self.attempted,
            self.failed(),
            self.aborted,
            self.errored,
            self.refused,
            self.retries
        );
        if let Some(e) = &self.last_error {
            println!("  last error: {e}");
        }
        let commits: Vec<String> = self.slices.iter().map(|(_, n)| n.to_string()).collect();
        println!("  commits per slice: {}", commits.join(" "));
        let host: Vec<String> = self
            .slices
            .iter()
            .map(|(ns, n)| format!("{:.1}", *ns as f64 / 1e3 / (*n).max(1) as f64))
            .collect();
        println!("  host us per commit, per slice: {}", host.join(" "));
        println!("  sim_digest {:016x}", self.sim_digest);
        match self.problems.as_slice() {
            [] => println!("  output checks: ok"),
            problems => {
                println!("  output checks: FAILED");
                for p in problems {
                    println!("    {p}");
                }
            }
        }
        let mut layer = "";
        for def in &PER_LAYER {
            let Some(v) = self.per_layer.get(def.name) else { continue };
            if def.layer() != layer {
                layer = def.layer();
                println!("per layer [{layer}]");
            }
            println!("  {:<40} {:>16.4} {:<6} {}", def.name, v, def.unit, def.clock().label());
        }
        if self.traced {
            let total = self.end_to_end.get("host_us_per_txn").map_or(0.0, |v| v.value);
            println!("host attribution: count x probe cost, of host_us_per_txn = {total:.3} us");
            for (term, us) in self.host_attribution() {
                println!(
                    "  {term:<44} {us:>12.3} us {:>6.1} %",
                    us / total.max(f64::MIN_POSITIVE) * 100.0
                );
            }
        }
    }

    /// `host_us_per_txn` set against what the layers' own counts and
    /// probe costs add up to: (term, host µs per txn). The remainder is
    /// reported as `unexplained`, never fitted away. Background loops are
    /// charged through the idle probe, so the scheduler term covers only
    /// the events beyond the idle rate.
    pub fn host_attribution(&self) -> Vec<(&'static str, f64)> {
        let g = |name: &str| self.per_layer.get(name).copied().unwrap_or(0.0);
        let committed = (self.attempted - self.failed()).max(1) as f64;
        let sim_s_per_txn = self.sim_secs / committed;
        let busy_events = (g("sim.events_per_txn")
            - g("core.probe.idle_events_per_sim_s") * sim_s_per_txn)
            .max(0.0);
        let front_end = g("sql.probe.lex_parse_ns_per_stmt") + g("sql.probe.plan_ns_per_stmt");
        let mut terms = vec![
            (
                "sim: events beyond idle x schedule+fire",
                busy_events * g("sim.probe.schedule_fire_ns") / 1e3,
            ),
            ("sql: statements x (lex+parse + plan)", g("sql.stmts_per_txn") * front_end / 1e3),
            (
                "sql: rows read x row decode",
                g("sql.rows_read_per_txn") * g("sql.probe.row_decode_ns") / 1e3,
            ),
            (
                "sql: rows written x row encode",
                g("sql.rows_written_per_txn") * g("sql.probe.row_encode_ns") / 1e3,
            ),
            (
                "kv: scan entries x mvcc scan per row",
                g("storage.scan_entries_per_txn") * g("kv.probe.mvcc_scan_ns_per_row") / 1e3,
            ),
            (
                "storage: point gets x get",
                g("storage.point_gets_per_txn") * g("storage.probe.get_ns") / 1e3,
            ),
            (
                "storage: WAL batches x apply",
                g("storage.wal_batches_per_txn") * g("storage.probe.apply_ns_per_batch") / 1e3,
            ),
            (
                "admission: kv batches x enqueue+dequeue",
                g("kv.batches_per_txn") * g("admission.probe.enqueue_dequeue_ns") / 1e3,
            ),
            (
                "core: idle cost per sim s x sim s per txn",
                g("core.probe.idle_host_us_per_sim_s") * sim_s_per_txn,
            ),
            ("workload: generator", g("workload.probe.gen_ns_per_txn") / 1e3),
        ];
        let total = self.end_to_end.get("host_us_per_txn").map_or(0.0, |v| v.value);
        let explained: f64 = terms.iter().map(|(_, us)| us).sum();
        terms.push(("unexplained", total - explained));
        terms
    }

    /// The result document written under `target/perf/<mode>/`.
    pub fn to_json(&self) -> String {
        let tail = self.end_to_end.get("sim_txn_p99_us").and_then(|v| v.note).unwrap_or("p99");
        let mut metrics: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(name, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"clock\": {}, \"samples\": {}}}",
                    quote(name),
                    num(v.value),
                    quote(v.unit),
                    quote(v.clock.label()),
                    v.samples
                )
            })
            .collect();
        metrics.extend(self.per_layer.iter().map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"clock\": {}}}",
                quote(name),
                num(*v),
                quote(unit_of(name)),
                quote(clock_of(name).label())
            )
        }));
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"bench\": \"perf\", \"mode\": {}, \"workload\": {}, \"seed\": {}, \"git_rev\": {}, \
             \"seconds\": {}, \"sim_seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"retries\": {}, \"sim_digest\": \"{:016x}\", \"tail_percentile\": {}, \
             \"problems\": [{}],\n \"metrics\": {{\n  {}\n }}}}\n",
            quote(&mode(self.seconds)),
            quote(self.spec.name),
            self.seed,
            quote(&git_rev()),
            num(self.seconds),
            num(self.sim_secs),
            self.traced,
            self.correct(),
            self.attempted,
            self.failed(),
            self.retries,
            self.sim_digest,
            quote(tail),
            problems.join(", "),
            metrics.join(",\n  ")
        )
    }

    /// The benchmark contract's last line: end-to-end metrics of an
    /// untraced run, per-layer metrics of a traced one.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            PER_LAYER
                .iter()
                .map(|def| {
                    let v = self.per_layer.get(def.name).copied().unwrap_or(0.0);
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        quote(def.name),
                        num(v),
                        quote(def.unit)
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|def| def.in_contract)
                .filter_map(|def| self.end_to_end.get(def.name).map(|v| (def, v)))
                .map(|(def, v)| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        quote(def.name),
                        num(v.value),
                        quote(def.unit)
                    )
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_is_a_function_of_run_length() {
        assert_eq!(mode(RUN_SECONDS), "full");
        assert_eq!(mode(RUN_SECONDS / 20.0), "smoke");
        assert_eq!(mode(3.0), "custom-3s");
        assert!(out_dir(RUN_SECONDS / 20.0).ends_with("perf/smoke"));
        assert!(out_dir(RUN_SECONDS).ends_with("perf/full"));
    }
}
