//! Per-rule fixture tests: each rule has a known-positive file that
//! must produce findings and a known-negative file that must not
//! (guards against both missed bugs and false-positive regressions).

use std::fs;
use std::path::PathBuf;

use crdb_simlint::{analyze_sources, Finding};

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Runs the linter over a set of fixtures, all treated as product
/// (non-test) files.
fn analyze(names: &[&str]) -> Vec<Finding> {
    let sources: Vec<(String, String, bool)> =
        names.iter().map(|n| (n.to_string(), fixture(n), false)).collect();
    analyze_sources(&sources)
}

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule && f.is_active()).collect()
}

#[test]
fn wall_clock_positive() {
    let f = analyze(&["wall_clock_pos.rs"]);
    assert!(active(&f, "wall-clock").len() >= 3, "got: {f:#?}");
}

#[test]
fn wall_clock_negative() {
    let f = analyze(&["wall_clock_neg.rs"]);
    assert!(active(&f, "wall-clock").is_empty(), "false positives: {f:#?}");
}

#[test]
fn reentrant_borrow_positive_includes_the_pr3_pattern() {
    let src = fixture("reentrant_borrow_pos.rs");
    let f = analyze(&["reentrant_borrow_pos.rs"]);
    // The fixture must carry the literal sql::node pattern PR 3 fixed.
    let pr3_line = src
        .lines()
        .position(|l| l.contains("match plan_statement(&mut self.catalog.borrow_mut(), &stmt)"))
        .expect("fixture lost the literal PR 3 pattern")
        + 1;
    let hits = active(&f, "reentrant-borrow");
    assert!(
        hits.iter().any(|h| h.line == pr3_line),
        "no reentrant-borrow finding at the PR 3 pattern (line {pr3_line}): {hits:#?}"
    );
    // Scrutinee borrow in if-let, and a guard held across a self-call.
    assert!(hits.len() >= 3, "expected >=3 reentrant-borrow findings, got: {hits:#?}");
}

#[test]
fn allow_at_the_guard_declaration_covers_the_call_the_guard_is_held_across() {
    let src = "impl Node {
    fn f(&self) {
        // simlint: allow(reentrant-borrow) — tick() never touches state
        let guard = self.state.borrow_mut();
        let unrelated = 1;
        self.tick();
        drop(guard);
    }
}
";
    let f = analyze_sources(&[("x.rs".to_string(), src.to_string(), false)]);
    let hits: Vec<_> = f.iter().filter(|f| f.rule == "reentrant-borrow").collect();
    assert_eq!(hits.len(), 1, "{f:#?}");
    assert_eq!((hits[0].line, hits[0].also_at), (6, Some(4)));
    assert_eq!(hits[0].suppress_reason.as_deref(), Some("tick() never touches state"));
}

#[test]
fn reentrant_borrow_negative() {
    let f = analyze(&["reentrant_borrow_neg.rs"]);
    assert!(active(&f, "reentrant-borrow").is_empty(), "false positives: {f:#?}");
}

#[test]
fn reasoned_allow_suppresses_and_keeps_the_reason() {
    let f = analyze(&["suppression.rs"]);
    let suppressed: Vec<_> =
        f.iter().filter(|x| x.rule == "wall-clock" && !x.is_active()).collect();
    assert_eq!(suppressed.len(), 1, "got: {f:#?}");
    assert_eq!(
        suppressed[0].suppress_reason.as_deref(),
        Some("progress line on stderr, never in sim output")
    );
}

#[test]
fn reasonless_allow_is_bad_directive_and_suppresses_nothing() {
    let f = analyze(&["suppression.rs"]);
    assert_eq!(active(&f, "bad-directive").len(), 1, "got: {f:#?}");
    // The finding under the reasonless directive stays active.
    assert!(
        active(&f, "wall-clock").iter().any(|h| h.snippet.contains("SystemTime::now")),
        "got: {f:#?}"
    );
}

#[test]
fn doc_comment_directive_is_inert() {
    let f = analyze(&["suppression.rs"]);
    // The Instant::now() under the doc comment must still be reported
    // (the one under the reasoned `allow` is not active).
    assert!(active(&f, "wall-clock").iter().any(|h| h.snippet == "Instant::now()"), "got: {f:#?}");
}

#[test]
fn test_files_are_modeled_but_exempt_from_v2_rules() {
    // The same positive corpus marked as test files must fire nothing.
    let f =
        analyze_sources(&[("wall_clock_pos.rs".to_string(), fixture("wall_clock_pos.rs"), true)]);
    assert!(f.is_empty(), "test file fired: {f:#?}");
}

#[test]
fn allow_file_suppresses_named_rule_only() {
    let f = analyze(&["allow_file.rs"]);
    assert!(active(&f, "wall-clock").is_empty(), "allow-file failed: {f:#?}");
    assert_eq!(
        f.iter().filter(|x| x.rule == "wall-clock" && !x.is_active()).count(),
        2,
        "both wall-clock sites should be recorded as suppressed: {f:#?}"
    );
    // Rules the directive does not name still fire.
    assert_eq!(active(&f, "reentrant-borrow").len(), 1, "got: {f:#?}");
}
