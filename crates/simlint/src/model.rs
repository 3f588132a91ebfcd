//! The per-file model: the one place a source file is stripped,
//! directive-parsed and scope-walked.
//!
//! Every rule in [`xrules`](crate::xrules) reads a [`FileModel`]: the
//! raw and lexer-stripped lines, the `simlint:` directives, which lines
//! are test code, the brace depth after each line, fn body ranges, and
//! the metric-name strings at registration and lookup sites. Some rules
//! need every file's model at once (a metric lookup must match a
//! registration *anywhere*), so the models are all built before any
//! rule runs.
//!
//! The model is built from the lexer-stripped view (comments/strings
//! blanked, 1:1 per character) plus the raw source (to recover
//! string-literal contents at positions the stripped view proves are
//! inside literals). No Rust parsing: brace-depth walking and
//! identifier scanning only, tuned on the real workspace.

// simlint: allow-file(panic-path) — linter internals slice indices derived from find()/len() on the same in-memory buffer; a panic here is a tool bug caught by the fixture tests, not a simulated chaos path.

use crate::lexer::{is_ident, strip, word_positions};
use crate::rules::{parse_directives, Directive};

/// A function item: name, signature line, and body line range.
#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    /// 1-based line the `fn` keyword appears on.
    pub sig_line: usize,
    /// 1-based inclusive body range (`body_start` holds the opening `{`).
    pub body_start: usize,
    pub body_end: usize,
    /// Whether the fn sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// A metric-name string found at a registration or lookup site.
#[derive(Debug, Clone)]
pub struct MetricString {
    /// 1-based line.
    pub line: usize,
    /// The literal text; format templates have `{…}` holes normalized
    /// to `{}` (each hole matches one or more name segments).
    pub text: String,
    /// True when the literal came out of a `format!` template.
    pub template: bool,
    /// True when the site sits inside a test region or test file.
    pub in_test: bool,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Display path (as passed to the analyzer).
    pub path: String,
    pub raw: Vec<String>,
    pub clean: Vec<String>,
    pub directives: Vec<Directive>,
    /// Per line (0-based index): inside a `#[cfg(test)]`/`#[test]` region.
    pub test_line: Vec<bool>,
    /// Per line (0-based index): brace depth once the line has ended.
    pub depth_after: Vec<i32>,
    /// The whole file is test/bench code (lives under `tests/`, `benches/`,
    /// `examples/` or `fixtures/`): product-code rules skip it entirely.
    pub test_file: bool,
    pub fns: Vec<FnModel>,
    /// Metric names at registration sites (`registry.counter("…")`,
    /// `sampler.gauge("…", v)`, `format!` templates thereof).
    pub metric_regs: Vec<MetricString>,
    /// Metric names at lookup sites (`…snapshot….contains("…")`, `.get("…")`).
    pub metric_lookups: Vec<MetricString>,
}

impl FileModel {
    /// Builds the model for one file. `test_file` marks whole-file test
    /// trees (their lines are all treated as test lines).
    pub fn build(path: &str, source: &str, test_file: bool) -> FileModel {
        let raw: Vec<String> = source.lines().map(str::to_string).collect();
        let clean = strip(source);
        let directives = parse_directives(&raw, &clean);
        let walk = ScopeWalk::run(&clean);
        let test_line: Vec<bool> = walk.test_line.iter().map(|t| *t || test_file).collect();

        let mut fns = walk.fns;
        for f in &mut fns {
            f.in_test = f.in_test || test_file;
        }

        let (metric_regs, metric_lookups) = collect_metric_strings(&raw, &clean, &test_line);

        FileModel {
            path: path.to_string(),
            raw,
            clean,
            directives,
            test_line,
            depth_after: walk.depth_after,
            test_file,
            fns,
            metric_regs,
            metric_lookups,
        }
    }

    /// Whether 1-based `line` is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_line.get(line.saturating_sub(1)).copied().unwrap_or(self.test_file)
    }
}

// ---------------------------------------------------------------------------
// Scope walk: test regions + fn body ranges
// ---------------------------------------------------------------------------

struct ScopeWalk {
    test_line: Vec<bool>,
    depth_after: Vec<i32>,
    fns: Vec<FnModel>,
}

/// An `fn` whose body `{` has not opened yet.
struct PendingFn {
    name: String,
    sig_line: usize,
    in_test: bool,
    /// Paren/bracket depth inside the signature (the body `{` only counts
    /// at depth 0 — `fn f(x: impl Fn() -> T)` must not open early).
    paren: i32,
}

/// An open fn body awaiting its closing `}`.
struct OpenFn {
    model: FnModel,
    open_depth: i32,
}

impl ScopeWalk {
    /// One pass over the stripped source as a flat character stream,
    /// tracking brace depth, `#[cfg(test)]` regions, and fn signatures /
    /// body ranges simultaneously (so nested fns and single-line bodies
    /// fall out of the same stack discipline).
    fn run(clean: &[String]) -> ScopeWalk {
        let mut test_line = vec![false; clean.len()];
        let mut depth_after = vec![0; clean.len()];
        let mut fns: Vec<FnModel> = Vec::new();

        let mut depth: i32 = 0;
        let mut test_regions: Vec<i32> = Vec::new();
        let mut armed_test = false;
        let mut pending: Option<PendingFn> = None;
        let mut open: Vec<OpenFn> = Vec::new();

        for (idx, line) in clean.iter().enumerate() {
            let trimmed = line.trim();
            if trimmed.contains("#[cfg(test)]")
                || trimmed.starts_with("#[test]")
                || trimmed.contains("#[cfg(any(test")
            {
                armed_test = true;
            }
            test_line[idx] = !test_regions.is_empty() || armed_test;

            // Word-boundary byte positions of `fn` keywords on this line,
            // consumed in order as the char walk reaches them.
            let fn_starts: Vec<usize> =
                if pending.is_none() { word_positions(line, "fn") } else { Vec::new() };
            let mut next_fn = 0usize;

            let mut iter = line.char_indices();
            while let Some((byte, c)) = iter.next() {
                // Start a signature at an `fn` keyword (outside one).
                if pending.is_none() && fn_starts.get(next_fn) == Some(&byte) {
                    next_fn += 1;
                    let after = &line[byte + 2..];
                    let name: String =
                        after.trim_start().chars().take_while(|ch| is_ident(*ch)).collect();
                    if !name.is_empty() {
                        pending = Some(PendingFn {
                            name,
                            sig_line: idx + 1,
                            in_test: !test_regions.is_empty() || armed_test,
                            paren: 0,
                        });
                        // Skip past the `fn` keyword itself.
                        iter.next();
                        continue;
                    }
                }

                if let Some(p) = pending.as_mut() {
                    match c {
                        '(' | '[' => p.paren += 1,
                        ')' | ']' => p.paren -= 1,
                        ';' if p.paren == 0 => {
                            // Trait/extern declaration: no body.
                            pending = None;
                            continue;
                        }
                        '{' if p.paren == 0 => {
                            // Body opens.
                            let p = pending.take().unwrap();
                            if armed_test {
                                test_regions.push(depth);
                                armed_test = false;
                            }
                            open.push(OpenFn {
                                model: FnModel {
                                    name: p.name,
                                    sig_line: p.sig_line,
                                    body_start: idx + 1,
                                    body_end: idx + 1,
                                    in_test: p.in_test || !test_regions.is_empty(),
                                },
                                open_depth: depth,
                            });
                            depth += 1;
                            continue;
                        }
                        _ => {}
                    }
                    continue;
                }

                match c {
                    '{' => {
                        if armed_test {
                            test_regions.push(depth);
                            armed_test = false;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if test_regions.last() == Some(&depth) {
                            test_regions.pop();
                        }
                        while let Some(last) = open.last() {
                            if depth <= last.open_depth {
                                let mut done = open.pop().unwrap().model;
                                done.body_end = idx + 1;
                                fns.push(done);
                            } else {
                                break;
                            }
                        }
                    }
                    ';' => armed_test = false,
                    _ => {}
                }
            }
            depth_after[idx] = depth;
        }
        // Unterminated bodies (truncated file): close at EOF.
        while let Some(o) = open.pop() {
            let mut done = o.model;
            done.body_end = clean.len();
            fns.push(done);
        }
        fns.sort_by_key(|f| f.sig_line);
        ScopeWalk { test_line, depth_after, fns }
    }
}

// ---------------------------------------------------------------------------
// Bindings
// ---------------------------------------------------------------------------

/// Extracts `name` from a `let [mut] name [: ty]` prefix.
pub(crate) fn let_bound_name(before: &str) -> Option<String> {
    let let_pos = *word_positions(before, "let").first()?;
    let mut rest = before[let_pos + 3..].trim_start();
    if let Some(r) = rest.strip_prefix("mut ") {
        rest = r.trim_start();
    }
    let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
    if name.is_empty() || name.chars().next().unwrap().is_ascii_digit() {
        return None;
    }
    // Tuple/struct patterns (`let (a, b) = …`) are skipped.
    let after = rest[name.len()..].trim_start();
    if after.is_empty() || after.starts_with(':') || after.starts_with('=') {
        Some(name)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Metric-name strings
// ---------------------------------------------------------------------------

/// Registration call shapes: a metric-name string (or `format!` template)
/// as the first argument of one of these methods.
const REG_METHODS: &[&str] = &[".counter(", ".gauge(", ".histogram("];
/// Lookup call shapes: a metric-name string probed against a snapshot.
const LOOKUP_METHODS: &[&str] = &[".contains(", ".get("];
/// Receiver hints that make a `.contains(`/`.get(` a *metric* lookup
/// rather than an arbitrary string probe.
const LOOKUP_RECEIVER_HINTS: &[&str] = &["snapshot", "metrics", "registry"];

fn collect_metric_strings(
    raw: &[String],
    clean: &[String],
    test_line: &[bool],
) -> (Vec<MetricString>, Vec<MetricString>) {
    let mut regs = Vec::new();
    let mut lookups = Vec::new();
    for (idx, cl) in clean.iter().enumerate() {
        let rw = raw.get(idx).map(String::as_str).unwrap_or("");
        let in_test = test_line.get(idx).copied().unwrap_or(false);
        for m in REG_METHODS {
            for pos in method_positions(cl, m) {
                if let Some((text, template)) = first_string_arg(rw, cl, pos + m.len()) {
                    regs.push(MetricString { line: idx + 1, text, template, in_test });
                }
            }
        }
        for m in LOOKUP_METHODS {
            for pos in method_positions(cl, m) {
                let recv = cl[..pos].to_ascii_lowercase();
                if !LOOKUP_RECEIVER_HINTS.iter().any(|h| recv.contains(h)) {
                    continue;
                }
                if let Some((text, template)) = first_string_arg(rw, cl, pos + m.len()) {
                    if !template && is_metric_shaped(&text) {
                        lookups.push(MetricString { line: idx + 1, text, template, in_test });
                    }
                }
            }
        }
    }
    (regs, lookups)
}

/// Byte positions where `pat` (starting with `.`) occurs with an
/// identifier-boundary before the method name.
fn method_positions(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(rel) = line[start..].find(pat) {
        let pos = start + rel;
        out.push(pos);
        start = pos + pat.len();
    }
    out
}

/// Extracts the first string-literal argument at `from` (a byte offset
/// just past the `(`), following one optional `&format!(`. Returns the
/// literal text (from the raw line — the stripped view blanks it) and
/// whether it was a `format!` template (holes normalized to `{}`).
///
/// The stripped view is 1:1 *per character* with the raw line, so quote
/// positions are located in char space and mapped back into the raw text.
fn first_string_arg(raw: &str, clean: &str, from: usize) -> Option<(String, bool)> {
    let mut rest = clean[from..].trim_start();
    let mut offset = from + (clean.len() - from - rest.len());
    let mut template = false;
    for prefix in ["&format!(", "format!("] {
        if let Some(r) = rest.strip_prefix(prefix) {
            template = true;
            rest = r.trim_start();
            offset = clean.len() - rest.len();
            break;
        }
    }
    if !rest.starts_with('"') {
        return None;
    }
    let open_byte = offset;
    // Char index of the opening quote, then find the closing quote.
    let open_char = clean[..open_byte].chars().count();
    let clean_chars: Vec<char> = clean.chars().collect();
    let mut close_char = None;
    for (j, c) in clean_chars.iter().enumerate().skip(open_char + 1) {
        if *c == '"' {
            close_char = Some(j);
            break;
        }
    }
    let close_char = close_char?;
    let text: String = raw.chars().skip(open_char + 1).take(close_char - open_char - 1).collect();
    let text = if template { normalize_template(&text) } else { text };
    Some((text, template))
}

/// Rewrites `format!` holes (`{p}`, `{}`, `{id:>3}`) to bare `{}`.
fn normalize_template(t: &str) -> String {
    let mut out = String::new();
    let mut chars = t.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' {
            if chars.peek() == Some(&'{') {
                chars.next();
                out.push_str("{{");
                continue;
            }
            for n in chars.by_ref() {
                if n == '}' {
                    break;
                }
            }
            out.push_str("{}");
        } else {
            out.push(c);
        }
    }
    out
}

/// Whether `s` reads like a metric name: two or more dot-separated
/// segments of `[a-z0-9_]` (entity segments may be digits).
pub fn is_metric_shaped(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    if segs.len() < 2 {
        return false;
    }
    segs.iter().all(|seg| {
        !seg.is_empty()
            && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    }) && segs.first().is_some_and(|s| s.chars().next().is_some_and(|c| c.is_ascii_lowercase()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_bodies_and_test_regions() {
        let src = r#"
pub fn alpha(x: u32) -> Result<u32, Err> {
    x + 1
}

#[cfg(test)]
mod tests {
    fn beta() {
        body();
    }
}

fn gamma(f: impl Fn() -> u32) {
    f();
}
"#;
        let m = FileModel::build("x.rs", src, false);
        let names: Vec<(&str, bool)> = m.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(names, vec![("alpha", false), ("beta", true), ("gamma", false)]);
        let alpha = &m.fns[0];
        assert_eq!((alpha.body_start, alpha.body_end), (2, 4));
        // The `{`-free `impl Fn() -> u32` argument must not open gamma early.
        let gamma = m.fns.iter().find(|f| f.name == "gamma").unwrap();
        assert_eq!((gamma.body_start, gamma.body_end), (13, 15));
        assert!(m.is_test_line(9));
        assert!(!m.is_test_line(2));
        assert_eq!(m.depth_after[..4], [0, 1, 1, 0]);
        assert_eq!(m.depth_after[8], 2, "inside `mod tests`, inside `fn beta`");
    }

    #[test]
    fn multiline_signature() {
        let src = "fn multi(\n    a: u32,\n) -> Result<(), E>\n{\n    body();\n}\n";
        let m = FileModel::build("x.rs", src, false);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "multi");
        assert_eq!((m.fns[0].body_start, m.fns[0].body_end), (4, 6));
    }

    #[test]
    fn trait_decl_without_body_is_dropped() {
        let src = "trait T {\n    fn decl(&self) -> Result<(), E>;\n}\n";
        let m = FileModel::build("x.rs", src, false);
        assert!(m.fns.is_empty());
    }

    #[test]
    fn metric_strings_collected() {
        let src = r#"
fn wire(r: &Registry, s: &mut Sampler, id: u32) {
    r.counter("proxy.connects");
    s.gauge(&format!("kv.node.{id}.admission.queue_len"), 1.0);
}
fn probe(snapshot: &str) {
    assert!(snapshot.contains("proxy.connects"));
    assert!(snapshot.contains("not a metric"));
}
"#;
        let m = FileModel::build("x.rs", src, false);
        assert_eq!(m.metric_regs.len(), 2);
        assert_eq!(m.metric_regs[0].text, "proxy.connects");
        assert!(m.metric_regs[1].template);
        assert_eq!(m.metric_regs[1].text, "kv.node.{}.admission.queue_len");
        assert_eq!(m.metric_lookups.len(), 1, "non-metric-shaped strings skipped");
        assert_eq!(m.metric_lookups[0].text, "proxy.connects");
    }

    #[test]
    fn metric_shape() {
        assert!(is_metric_shaped("proxy.cold_starts"));
        assert!(is_metric_shaped("kv.node.3.storage.flush_bytes"));
        assert!(!is_metric_shaped("single"));
        assert!(!is_metric_shaped("Has.Upper"));
        assert!(!is_metric_shaped("trailing."));
        assert!(!is_metric_shaped("3.lead_digit"));
    }
}
