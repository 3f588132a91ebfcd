//! `crdb-simlint` — the workspace's linter for the invariants a type
//! checker cannot see.
//!
//! The reproduction's value rests on deterministic simulation: same
//! seed ⇒ byte-identical fault logs, traces, and metrics snapshots.
//! What rustc and clippy can see of that contract — hash-ordered
//! collections, ambient entropy, discarded `Result`s, leaked paired
//! claims, panic paths — they enforce (root `clippy.toml`, the workspace
//! lints, each crate root's lint line). This crate keeps the rest: wall
//! clocks and `RefCell` guards held across re-entrant calls. A
//! hand-rolled lexer strips comments and strings, one scope walk per
//! file builds a model, the rules read it, and CI fails on any
//! unsuppressed finding.
//!
//! See `DESIGN.md` §8 for which tool enforces which hazard;
//! `crdb-simlint list` prints each rule with the historical bug that
//! motivated it.

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

pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod xrules;

pub use engine::{analyze_sources, check_paths, Finding};
pub use model::FileModel;
pub use rules::{rule, Rule, RULES};

/// Renders findings as a JSON array (hand-rolled — the workspace is
/// hermetic, so no serde).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"snippet\":{},\"suppressed\":{}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet),
            match &f.suppress_reason {
                Some(r) => json_str(r),
                None => "null".to_string(),
            },
        ));
    }
    out.push_str("\n]");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_array_shape() {
        let f = Finding {
            rule: "wall-clock",
            path: "x.rs".into(),
            line: 3,
            message: "m".into(),
            snippet: "s".into(),
            also_at: None,
            suppress_reason: None,
        };
        let j = to_json(&[f]);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"rule\":\"wall-clock\""));
        assert!(j.contains("\"suppressed\":null"));
    }
}
