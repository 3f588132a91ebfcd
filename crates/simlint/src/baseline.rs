//! The ratchet baseline: grandfathered `panic-path` counts.
//!
//! `panic-path` matched hundreds of pre-existing sites when it landed;
//! converting them all at once would drown the PR. Instead the counts
//! are committed to `simlint-baseline.json` at the repo root and
//! *ratcheted*: per rule, per file, the first N findings (line order)
//! are marked `baselined` and don't fail `check`, while finding N+1 in
//! any file does. `simlint ratchet` enforces monotonic shrinkage — it
//! fails when any file's count rises and rewrites the baseline
//! automatically when counts fall, so fixed files can never regress.
//!
//! Format (hand-rolled JSON — the workspace is hermetic, no serde):
//!
//! ```json
//! { "panic-path": { "crates/storage/src/wal.rs": 3, … } }
//! ```
//!
//! Paths are repo-root-relative (relative to the baseline file's parent
//! directory) with `/` separators, so the file is stable regardless of
//! the working directory `check` runs from.

// simlint: allow-file(panic-path) — linter internals slice indices derived from find()/len() on the same in-memory buffer; a panic here is a tool bug caught by the fixture tests, not a simulated chaos path.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::Finding;

/// Rules whose findings are ratcheted rather than hard-failed.
pub const RATCHETED_RULES: &[&str] = &["panic-path"];

/// Per-rule, per-file grandfathered counts, plus the directory the path
/// keys are relative to.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// rule → (repo-root-relative path → count). BTreeMaps keep the
    /// serialized form byte-stable.
    pub counts: BTreeMap<String, BTreeMap<String, usize>>,
    /// Directory path keys are relative to (the baseline file's parent).
    pub root: PathBuf,
}

impl Baseline {
    /// Loads and parses a baseline file. The parent directory of `path`
    /// becomes the root that finding paths are relativized against.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = fs::read_to_string(path)?;
        let counts = parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: malformed baseline: {e}", path.display()),
            )
        })?;
        let root = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        Ok(Baseline { counts, root })
    }

    /// Builds a baseline from the current findings: per ratcheted rule,
    /// the count of unsuppressed findings per (relativized) file.
    pub fn from_findings(findings: &[Finding], root: &Path) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for f in findings {
            if f.suppress_reason.is_some() || !RATCHETED_RULES.contains(&f.rule) {
                continue;
            }
            let key = relativize(&f.path, root);
            *counts.entry(f.rule.to_string()).or_default().entry(key).or_insert(0) += 1;
        }
        Baseline { counts, root: root.to_path_buf() }
    }

    /// Marks the first N unsuppressed findings (line order) of each
    /// ratcheted rule+file as `baselined`. Findings beyond the count —
    /// or in files the baseline doesn't know — stay active.
    pub fn apply(&self, findings: &mut [Finding]) {
        for (rule, files) in &self.counts {
            // Indices of candidate findings, grouped by baseline key.
            let mut by_key: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, f) in findings.iter().enumerate() {
                if f.rule == rule.as_str() && f.suppress_reason.is_none() {
                    by_key.entry(relativize(&f.path, &self.root)).or_default().push(i);
                }
            }
            for (key, mut idxs) in by_key {
                let allowed = files.get(&key).copied().unwrap_or(0);
                idxs.sort_by_key(|&i| findings[i].line);
                for &i in idxs.iter().take(allowed) {
                    findings[i].baselined = true;
                }
            }
        }
    }

    /// Total grandfathered count across all rules and files.
    pub fn total(&self) -> usize {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    /// Serializes back to the committed format (stable key order,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (ri, (rule, files)) in self.counts.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  {:?}: {{", rule));
            for (fi, (path, n)) in files.iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {path:?}: {n}"));
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// The outcome of comparing current findings against a baseline.
#[derive(Debug)]
pub struct RatchetReport {
    /// Files whose current count exceeds the baseline: (rule, path,
    /// baseline count, current count).
    pub regressions: Vec<(String, String, usize, usize)>,
    /// True when any file's count fell (the baseline should be rewritten).
    pub shrunk: bool,
    /// The baseline rebuilt from the current findings.
    pub updated: Baseline,
}

/// Compares current findings against `base`. A regression is any file
/// whose unsuppressed ratcheted-rule count rose (including files the
/// baseline has never seen).
pub fn ratchet(base: &Baseline, findings: &[Finding]) -> RatchetReport {
    let current = Baseline::from_findings(findings, &base.root);
    let mut regressions = Vec::new();
    let mut shrunk = false;
    for rule in RATCHETED_RULES {
        let old = base.counts.get(*rule).cloned().unwrap_or_default();
        let new = current.counts.get(*rule).cloned().unwrap_or_default();
        let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
        for key in keys {
            let was = old.get(key).copied().unwrap_or(0);
            let now = new.get(key).copied().unwrap_or(0);
            if now > was {
                regressions.push((rule.to_string(), key.clone(), was, now));
            } else if now < was {
                shrunk = true;
            }
        }
    }
    RatchetReport { regressions, shrunk, updated: current }
}

/// Relativizes a finding path against the baseline root: strips the
/// root prefix when present (absolute scan paths), then normalizes to
/// `/` separators and drops any leading `./`.
fn relativize(path: &str, root: &Path) -> String {
    let p = Path::new(path);
    let rel = p.strip_prefix(root).unwrap_or(p);
    let s = rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
    s.strip_prefix("./").unwrap_or(&s).to_string()
}

// ---------------------------------------------------------------------------
// JSON parsing (two fixed levels: object of objects of integers)
// ---------------------------------------------------------------------------

fn parse(text: &str) -> Result<BTreeMap<String, BTreeMap<String, usize>>, String> {
    let mut p = Parser { chars: text.chars().collect(), pos: 0 };
    p.skip_ws();
    p.expect('{')?;
    let mut out = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.pos += 1;
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let rule = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        p.expect('{')?;
        let mut files = BTreeMap::new();
        p.skip_ws();
        if p.peek() == Some('}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let path = p.string()?;
                p.skip_ws();
                p.expect(':')?;
                p.skip_ws();
                let n = p.number()?;
                files.insert(path, n);
                p.skip_ws();
                match p.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    other => return Err(format!("expected `,` or `}}`, got {other:?}")),
                }
            }
        }
        out.insert(rule, files);
        p.skip_ws();
        match p.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
    Ok(out)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }
    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }
    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected `{want}`, got {other:?}")),
        }
    }
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }
    fn number(&mut self) -> Result<usize, String> {
        let mut digits = String::new();
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            digits.push(self.next().unwrap());
        }
        digits.parse().map_err(|_| format!("expected a count, got {digits:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: String::new(),
            snippet: String::new(),
            also_at: None,
            suppress_reason: None,
            baselined: false,
        }
    }

    #[test]
    fn round_trip() {
        let text =
            "{\n  \"panic-path\": {\n    \"crates/a.rs\": 2,\n    \"crates/b.rs\": 1\n  }\n}\n";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed["panic-path"]["crates/a.rs"], 2);
        let b = Baseline { counts: parsed, root: PathBuf::from(".") };
        assert_eq!(b.to_json(), text);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse("{}").unwrap().is_empty());
        assert!(parse("{ \"panic-path\": {} }").unwrap()["panic-path"].is_empty());
    }

    #[test]
    fn apply_marks_first_n_by_line() {
        let text = "{\"panic-path\": {\"crates/a.rs\": 2}}";
        let b = Baseline { counts: parse(text).unwrap(), root: PathBuf::from(".") };
        let mut findings = vec![
            f("panic-path", "crates/a.rs", 30),
            f("panic-path", "crates/a.rs", 10),
            f("panic-path", "crates/a.rs", 20),
            f("panic-path", "crates/b.rs", 5),
            f("nondet-iter", "crates/a.rs", 1),
        ];
        b.apply(&mut findings);
        // Lines 10 and 20 grandfathered; line 30 (the newest) stays active.
        assert!(!findings[0].baselined);
        assert!(findings[1].baselined);
        assert!(findings[2].baselined);
        assert!(!findings[3].baselined, "unknown file gets no allowance");
        assert!(!findings[4].baselined, "non-ratcheted rules ignore the baseline");
    }

    #[test]
    fn absolute_paths_relativize_against_root() {
        let text = "{\"panic-path\": {\"crates/a.rs\": 1}}";
        let b = Baseline { counts: parse(text).unwrap(), root: PathBuf::from("/repo") };
        let mut findings = vec![f("panic-path", "/repo/crates/a.rs", 1)];
        b.apply(&mut findings);
        assert!(findings[0].baselined);
    }

    #[test]
    fn ratchet_detects_regression_and_shrink() {
        let base = Baseline {
            counts: parse("{\"panic-path\": {\"a.rs\": 2, \"b.rs\": 1}}").unwrap(),
            root: PathBuf::from("."),
        };
        // a.rs fixed one, b.rs grew one, c.rs is brand new.
        let findings = vec![
            f("panic-path", "a.rs", 1),
            f("panic-path", "b.rs", 1),
            f("panic-path", "b.rs", 2),
            f("panic-path", "c.rs", 1),
        ];
        let report = ratchet(&base, &findings);
        assert!(report.shrunk);
        assert_eq!(report.regressions.len(), 2);
        assert_eq!(report.updated.counts["panic-path"]["a.rs"], 1);
    }

    #[test]
    fn suppressed_findings_do_not_consume_the_allowance() {
        let mut suppressed = f("panic-path", "a.rs", 1);
        suppressed.suppress_reason = Some("reviewed".into());
        let base = Baseline {
            counts: parse("{\"panic-path\": {\"a.rs\": 1}}").unwrap(),
            root: PathBuf::from("."),
        };
        let mut findings = vec![suppressed, f("panic-path", "a.rs", 9)];
        base.apply(&mut findings);
        assert!(!findings[0].baselined);
        assert!(findings[1].baselined);
    }
}
