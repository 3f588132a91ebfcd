//! The driver: walks the tree, builds one [`FileModel`] per file, runs
//! the rules over them, then applies suppression and the baseline.
//!
//! Suppression is applied last: a finding survives unless a *valid*
//! (reason-carrying) `simlint: allow` directive covers it on the same
//! line, the line above, the guard's declaration site (for
//! `reentrant-borrow`), or file-wide via `allow-file`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::model::FileModel;
use crate::rules::Directive;

/// One rule violation (or, when `suppress_reason` is set, an
/// acknowledged exception).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    /// 1-based.
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// A second line a directive may sit on to cover this finding:
    /// `reentrant-borrow` names the guard's declaration here.
    pub also_at: Option<usize>,
    /// `Some(reason)` when a valid directive suppresses this finding.
    pub suppress_reason: Option<String>,
    /// True when a committed ratchet baseline grandfathers this finding
    /// (only `panic-path` is baselined; see `baseline.rs`).
    pub baselined: bool,
}

impl Finding {
    pub fn is_active(&self) -> bool {
        self.suppress_reason.is_none() && !self.baselined
    }
}

// ---------------------------------------------------------------------------
// Suppression
// ---------------------------------------------------------------------------

fn suppress(f: &mut Finding, directives: &[Directive]) {
    if f.rule == "bad-directive" {
        return;
    }
    for d in directives {
        if d.problem.is_some() || !d.rules.iter().any(|r| r == f.rule) {
            continue;
        }
        let covers = |line: usize| d.line == line || d.line + 1 == line;
        let hit = d.file_level || covers(f.line) || f.also_at.is_some_and(covers);
        if hit {
            f.suppress_reason = d.reason.clone();
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Filesystem walk
// ---------------------------------------------------------------------------

/// Directories never scanned.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];
/// Directory names whose files are test/bench code: exempt from the
/// product-code contract, but still modeled for cross-file facts
/// (metric lookups live in bench/integration tests).
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];
/// Deliberate-violation corpora: never scanned, never modeled.
const FIXTURE_DIRS: &[&str] = &["fixtures"];

/// Recursively collects `.rs` files under `paths` in sorted
/// (deterministic) order, tagged `(path, is_test)`; build output,
/// vendored stand-ins and fixture corpora are skipped.
fn collect_files(paths: &[PathBuf]) -> std::io::Result<Vec<(PathBuf, bool)>> {
    let mut files = Vec::new();
    for p in paths {
        walk(p, false, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(path: &Path, in_test: bool, out: &mut Vec<(PathBuf, bool)>) -> std::io::Result<()> {
    let meta = fs::metadata(path)?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push((path.to_path_buf(), in_test));
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(path)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if SKIP_DIRS.contains(&name) || FIXTURE_DIRS.contains(&name) {
                continue;
            }
            walk(&entry, in_test || TEST_DIRS.contains(&name), out)?;
        } else if name.ends_with(".rs") {
            out.push((entry, in_test));
        }
    }
    Ok(())
}

/// Runs every rule over in-memory sources `(path, source, is_test)`.
/// Test files contribute cross-file facts — metric registrations and
/// lookups — and only their metric lookups can themselves be findings.
/// Used directly by fixture tests; the filesystem entry point feeds it.
pub fn analyze_sources(sources: &[(String, String, bool)]) -> Vec<Finding> {
    let models: Vec<FileModel> =
        sources.iter().map(|(path, src, is_test)| FileModel::build(path, src, *is_test)).collect();
    let mut findings = crate::xrules::run(&models);
    for f in findings.iter_mut() {
        if let Some(m) = models.iter().find(|m| m.path == f.path) {
            suppress(f, &m.directives);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Runs the full analysis and, when a baseline is given, marks
/// grandfathered `panic-path` findings as `baselined` (inactive).
pub fn check_paths_with_baseline(
    paths: &[PathBuf],
    baseline: Option<&crate::baseline::Baseline>,
) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for (file, is_test) in collect_files(paths)? {
        let src = fs::read_to_string(&file)?;
        sources.push((file.display().to_string(), src, is_test));
    }
    let mut findings = analyze_sources(&sources);
    if let Some(b) = baseline {
        b.apply(&mut findings);
    }
    Ok(findings)
}
