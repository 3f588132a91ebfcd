//! CLI for the determinism & invariant linter.
//!
//! ```text
//! crdb-simlint check [--format text|json] [--show-suppressed] [PATH...]
//! crdb-simlint list [--rule NAME]
//! ```
//!
//! `check` exits 0 only when every finding is suppressed by a valid,
//! reason-carrying `simlint: allow` directive; CI runs it over
//! `crates/`. `list` prints each rule with the historical bug that
//! motivated it. (`--check`/`--list` flag spellings are accepted too.)

#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::path::PathBuf;
use std::process::ExitCode;

use crdb_simlint::{check_paths, rule, to_json, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut format = "text".to_string();
    let mut show_suppressed = false;
    let mut rule_filter: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "--check" => mode = Some("check"),
            "list" | "--list" => mode = Some("list"),
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => return usage("--format requires `text` or `json`"),
            },
            "--show-suppressed" => show_suppressed = true,
            "--rule" => match it.next() {
                Some(r) => rule_filter = Some(r.clone()),
                None => return usage("--rule requires a rule name"),
            },
            "--help" | "-h" => return usage(""),
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    match mode {
        Some("list") => {
            let shown: Vec<_> = match &rule_filter {
                Some(name) => match rule(name) {
                    Some(r) => vec![r],
                    None => {
                        eprintln!(
                            "simlint: unknown rule `{name}` (run `crdb-simlint list` for all {})",
                            RULES.len()
                        );
                        return ExitCode::from(2);
                    }
                },
                None => RULES.iter().collect(),
            };
            for r in shown {
                println!("{:<17} {}", r.name, r.summary);
                println!("{:<17} motivation: {}", "", r.motivation);
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            if paths.is_empty() {
                paths.push(PathBuf::from("crates"));
            }
            let findings = match check_paths(&paths) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("simlint: io error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (active, suppressed): (Vec<_>, Vec<_>) =
                findings.into_iter().partition(|f| f.is_active());
            let shown: Vec<_> = if show_suppressed {
                active.iter().chain(suppressed.iter()).cloned().collect()
            } else {
                active.clone()
            };
            if format == "json" {
                println!("{}", to_json(&shown));
            } else {
                for f in &shown {
                    let tag = match &f.suppress_reason {
                        Some(r) => format!(" (suppressed: {r})"),
                        None => String::new(),
                    };
                    println!("{}:{}: [{}] {}{}", f.path, f.line, f.rule, f.message, tag);
                    println!("    {}", f.snippet);
                }
                eprintln!(
                    "simlint: {} finding(s), {} suppressed with reasons",
                    active.len(),
                    suppressed.len()
                );
            }
            if active.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage("expected a mode: `check` or `list`"),
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("simlint: {err}");
    }
    eprintln!(
        "usage: crdb-simlint check [--format text|json] [--show-suppressed] [PATH...]\n\
         \u{20}      crdb-simlint list [--rule NAME]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
