//! The driver: walks the tree, builds one [`FileModel`] per file, runs
//! the rules over them, then applies suppression.
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
}

impl Finding {
    pub fn is_active(&self) -> bool {
        self.suppress_reason.is_none()
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

/// Directories never scanned: build output, vendored stand-ins, test and
/// bench code (exempt from the product-code contract) and fixture
/// corpora of deliberate violations.
const SKIP_DIRS: &[&str] =
    &["target", "vendor", ".git", "tests", "benches", "examples", "fixtures"];

/// Recursively collects the product `.rs` files under `paths` in sorted
/// (deterministic) order.
fn collect_files(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for p in paths {
        walk(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let meta = fs::metadata(path)?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(path)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&entry, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Runs every rule over in-memory sources `(path, source, is_test)`;
/// test files are exempt. Used directly by fixture tests; the filesystem
/// entry point feeds it.
pub fn analyze_sources(sources: &[(String, String, bool)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, src, is_test) in sources {
        if *is_test {
            continue;
        }
        let model = FileModel::build(path, src);
        for mut f in crate::xrules::run(&model) {
            suppress(&mut f, &model.directives);
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Runs the full analysis over every product `.rs` file under `paths`.
pub fn check_paths(paths: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for file in collect_files(paths)? {
        let src = fs::read_to_string(&file)?;
        sources.push((file.display().to_string(), src, false));
    }
    Ok(analyze_sources(&sources))
}
