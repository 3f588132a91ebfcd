//! The rule checks. Every one reads [`FileModel`]s and nothing else:
//!
//! - **`wall-clock`** — `Instant::now` / `SystemTime::now` in non-test
//!   product code; simulated components read the sim clock.
//! - **`reentrant-borrow`** — a `RefCell` borrow in a `match` / `if let`
//!   scrutinee (the guard temporary lives for the whole body), or a
//!   bound guard still alive across a direct `self.method(…)` call.
//! - **`panic-path`** — `unwrap()`/`expect(…)`/`panic!`-family macros /
//!   range slice-indexing in non-test product code. Panics on chaos
//!   paths void the harness's degradation contract, so the *count* is
//!   ratcheted via `simlint-baseline.json`: existing occurrences are
//!   grandfathered per file, new ones fail CI, and the baseline only
//!   shrinks (see [`baseline`](crate::baseline)).
//! - **`unit-mismatch`** — arithmetic or comparison mixing identifiers
//!   whose names carry different time units (`_us`/`_micros` vs
//!   `_ms`/`_millis` vs `_secs`), or passing a `_ms`-named value to a
//!   `*_micros(…)`-named call. The simulator's clock is integer
//!   microseconds; a stray ms-as-µs is silent ×1000 drift.
//! - **`metric-name`** — every registered metric name (including
//!   `format!` templates) must match the `component[.entity].metric`
//!   shape, and every lookup string probed against a snapshot must
//!   match a registration *somewhere in the workspace* (templates match
//!   with `{}` holes standing for one or more segments).
//! - **`bad-directive`** — a `simlint:` directive that names no known
//!   rule or gives no reason; it suppresses nothing.
//!
//! Hash-ordered collections, ambient entropy, discarded `Result`s and
//! leaked paired claims are not here: the type checker knows them. Clippy
//! bans the first three (root `clippy.toml`); rustc denies a discarded or
//! never-read `#[must_use]` claim — an LSM job or an open span — through
//! the workspace lints (DESIGN.md §8).

// simlint: allow-file(panic-path) — linter internals slice indices derived from find()/len() on the same in-memory buffer; a panic here is a tool bug caught by the fixture tests, not a simulated chaos path.

use crate::engine::Finding;
use crate::lexer::{is_ident, word_positions};
use crate::model::{is_metric_shaped, let_bound_name, FileModel, MetricString};

/// Runs every rule over the models, returning raw (unsuppressed)
/// findings. Suppression and baselining are applied by the caller
/// (`engine::analyze_sources`).
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !f.test_file {
            bad_directive(f, &mut findings);
            wall_clock(f, &mut findings);
            reentrant_borrow(f, &mut findings);
            panic_path(f, &mut findings);
            unit_mismatch(f, &mut findings);
        }
    }
    metric_name(files, &mut findings);
    findings
}

fn finding(rule: &'static str, f: &FileModel, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: f.path.clone(),
        line,
        message,
        snippet: f.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
        also_at: None,
        suppress_reason: None,
        baselined: false,
    }
}

// ---------------------------------------------------------------------------
// bad-directive, wall-clock
// ---------------------------------------------------------------------------

/// Malformed directives are themselves violations (never suppressible:
/// fixing the directive is the only way out).
fn bad_directive(f: &FileModel, findings: &mut Vec<Finding>) {
    for d in &f.directives {
        if let Some(problem) = &d.problem {
            findings.push(finding(
                "bad-directive",
                f,
                d.line,
                format!("malformed simlint directive: {problem}"),
            ));
        }
    }
}

fn wall_clock(f: &FileModel, findings: &mut Vec<Finding>) {
    for (idx, line) in f.clean.iter().enumerate() {
        if f.is_test_line(idx + 1) {
            continue;
        }
        for pat in ["Instant::now", "SystemTime::now"] {
            if line.contains(pat) {
                findings.push(finding(
                    "wall-clock",
                    f,
                    idx + 1,
                    format!(
                        "`{pat}()` reads the machine clock; simulated components must take \
                         a `Clock` (crdb-util) driven by the sim"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// reentrant-borrow
// ---------------------------------------------------------------------------

/// A live `let name = ….borrow[_mut]();` binding.
struct Guard {
    name: String,
    decl_line: usize,
    decl_depth: i32,
}

fn reentrant_borrow(f: &FileModel, findings: &mut Vec<Finding>) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0;
    for (idx, line) in f.clean.iter().enumerate() {
        if !f.is_test_line(idx + 1) {
            check_scrutinee(f, idx, line, findings);
            check_guards(f, &mut guards, idx + 1, depth, line, findings);
        }
        // Guards whose block closed on this line are gone.
        depth = f.depth_after[idx];
        guards.retain(|g| depth >= g.decl_depth);
    }
}

/// `match <scrutinee> {` / `if let … = <scrutinee> {` with a borrow in
/// the scrutinee: the guard temporary lives for the whole body.
fn check_scrutinee(f: &FileModel, idx: usize, line: &str, findings: &mut Vec<Finding>) {
    let lineno = idx + 1;
    let mut starts: Vec<(usize, &'static str)> = Vec::new();
    for pos in word_positions(line, "match") {
        starts.push((pos + "match".len(), "match"));
    }
    for kw in ["if let", "while let", "else if let"] {
        let mut search = 0;
        while let Some(rel) = line[search..].find(kw) {
            let pos = search + rel;
            // `=` introduces the scrutinee of a let-binding.
            if let Some(eq) = line[pos..].find('=') {
                starts.push((pos + eq + 1, "if-let"));
            }
            search = pos + kw.len();
        }
    }
    for (start, kind) in starts {
        if let Some(scrutinee) = scrutinee_text(&f.clean, idx, start) {
            if [".borrow(", ".borrow_mut(", ".try_borrow"].iter().any(|pat| scrutinee.contains(pat))
            {
                findings.push(finding(
                    "reentrant-borrow",
                    f,
                    lineno,
                    format!(
                        "RefCell borrow in a `{kind}` scrutinee is held for the \
                         whole body (any re-entrant borrow panics) — bind the \
                         result to a local *before* matching"
                    ),
                ));
                // One report per line, even with nested scrutinees.
                break;
            }
        }
    }
}

/// Collects scrutinee text from `(idx, col)` forward until the body
/// `{` at bracket depth 0 (spanning up to 8 lines).
fn scrutinee_text(clean: &[String], idx: usize, col: usize) -> Option<String> {
    let mut text = String::new();
    let mut bracket = 0i32;
    for (n, line) in clean.iter().enumerate().skip(idx).take(8) {
        let s = if n == idx { &line[col.min(line.len())..] } else { line.as_str() };
        for c in s.chars() {
            match c {
                '(' | '[' => bracket += 1,
                ')' | ']' => bracket -= 1,
                '{' if bracket == 0 => return Some(text),
                ';' if bracket <= 0 => return None,
                _ => {}
            }
            text.push(c);
        }
        text.push(' ');
    }
    None
}

/// Flags a direct `self.method(…)` call while a bound guard is alive,
/// then updates the live guards for this line (`drop(name)`, new `let`).
fn check_guards(
    f: &FileModel,
    guards: &mut Vec<Guard>,
    lineno: usize,
    depth: i32,
    line: &str,
    findings: &mut Vec<Finding>,
) {
    if let Some(g) = guards.last() {
        if let Some(method) = first_self_method_call(line) {
            let message = format!(
                "RefCell guard `{}` (bound at line {}) is still alive across \
                 `self.{method}(...)`; a re-entrant borrow inside panics — \
                 narrow the guard's scope or drop() it first",
                g.name, g.decl_line
            );
            let at_call = finding("reentrant-borrow", f, lineno, message);
            findings.push(Finding { also_at: Some(g.decl_line), ..at_call });
        }
    }

    // Explicit drop ends a guard early.
    if let Some(pos) = line.find("drop(") {
        let arg: String = line[pos + 5..].chars().take_while(|c| is_ident(*c)).collect();
        guards.retain(|g| g.name != arg);
    }

    // New guard: `let [mut] name = <expr>.borrow[_mut]();` — the borrow
    // must be the final call, otherwise the temporary already dropped.
    let trimmed = line.trim();
    if (trimmed.ends_with(".borrow();") || trimmed.ends_with(".borrow_mut();"))
        && word_positions(trimmed, "let").first() == Some(&0)
    {
        if let Some(eq) = trimmed.find('=') {
            if let Some(name) = let_bound_name(&trimmed[..eq]) {
                guards.push(Guard { name, decl_line: lineno, decl_depth: depth });
            }
        }
    }
}

/// Methods that cannot synchronously re-enter `self` and re-borrow
/// (duplicating or reading the handle, not running component logic).
const NON_REENTERING: &[&str] =
    &["clone", "to_owned", "borrow", "borrow_mut", "try_borrow", "try_borrow_mut"];

/// The first direct method call on `self` — `self.method(`, not
/// `self.field.method(` — that could re-enter.
fn first_self_method_call(line: &str) -> Option<String> {
    let mut search = 0;
    while let Some(rel) = line[search..].find("self.") {
        let pos = search + rel;
        search = pos + 5;
        if line[..pos].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &line[pos + 5..];
        let method: String = rest.chars().take_while(|c| is_ident(*c)).collect();
        if !method.is_empty()
            && rest[method.len()..].starts_with('(')
            && !NON_REENTERING.contains(&method.as_str())
        {
            return Some(method);
        }
    }
    None
}
// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

/// Macros that abort the process on a supposedly-unreachable path.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_path(f: &FileModel, findings: &mut Vec<Finding>) {
    for (idx, line) in f.clean.iter().enumerate() {
        if f.is_test_line(idx + 1) {
            continue;
        }
        let lineno = idx + 1;
        let mut hits = 0usize;
        let mut start = 0;
        while let Some(rel) = line[start..].find(".unwrap()") {
            start += rel + ".unwrap()".len();
            hits += 1;
            findings.push(finding(
                "panic-path",
                f,
                lineno,
                "`unwrap()` panics on the failure path; return a typed error or handle it"
                    .to_string(),
            ));
        }
        for pos in word_positions(line, "expect") {
            let before_dot = line[..pos].ends_with('.');
            let after = &line[pos + "expect".len()..];
            if before_dot && after.starts_with('(') {
                hits += 1;
                findings.push(finding(
                    "panic-path",
                    f,
                    lineno,
                    "`expect(…)` panics on the failure path; return a typed error or handle it"
                        .to_string(),
                ));
            }
        }
        for mac in PANIC_MACROS {
            for pos in word_positions(line, mac) {
                let after = &line[pos + mac.len()..];
                if after.starts_with("!(") || after.starts_with("!{") {
                    hits += 1;
                    findings.push(finding(
                        "panic-path",
                        f,
                        lineno,
                        format!(
                            "`{mac}!` aborts the simulation; chaos paths must degrade, not die"
                        ),
                    ));
                }
            }
        }
        // Range slice-indexing (`buf[pos..pos + 4]`): out-of-bounds panics
        // are exactly the torn-record decode hazard. Plain `v[i]` indexing
        // is left to the (much larger) baseline of explicit panics.
        if hits == 0 {
            for (pos, text) in range_index_sites(line) {
                let _ = (pos, text);
                findings.push(finding(
                    "panic-path",
                    f,
                    lineno,
                    "range slice-indexing panics when the slice is short; use `.get(a..b)` \
                     and handle the miss"
                        .to_string(),
                ));
            }
        }
    }
}

/// `ident[…..…]` sites: byte position of the `[` plus the bracket body.
fn range_index_sites(line: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(is_ident(prev) || prev == ')' || prev == ']') {
            continue; // array literal / attribute / type position
        }
        // Attribute lines (`#[cfg(…)]`) never have ident-adjacent `[`.
        let mut depth = 1i32;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue;
        }
        let body = &line[i + 1..j - 1];
        if body.contains("..") {
            out.push((i, body.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unit-mismatch
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Nanos,
    Micros,
    Millis,
    Secs,
}

impl Unit {
    fn label(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Micros => "µs",
            Unit::Millis => "ms",
            Unit::Secs => "s",
        }
    }
}

/// The time unit an identifier's name advertises, if any. Matches
/// suffixes (`deadline_ms`, `as_micros`) and bare unit words (`micros`).
fn unit_of(ident: &str) -> Option<Unit> {
    let suffixes: &[(&str, Unit)] = &[
        ("_nanos", Unit::Nanos),
        ("_ns", Unit::Nanos),
        ("_us", Unit::Micros),
        ("_usec", Unit::Micros),
        ("_usecs", Unit::Micros),
        ("_micros", Unit::Micros),
        ("_micro", Unit::Micros),
        ("_ms", Unit::Millis),
        ("_msec", Unit::Millis),
        ("_msecs", Unit::Millis),
        ("_millis", Unit::Millis),
        ("_sec", Unit::Secs),
        ("_secs", Unit::Secs),
        ("_seconds", Unit::Secs),
    ];
    for (suf, u) in suffixes {
        if let Some(stem) = ident.strip_suffix(suf) {
            if !stem.is_empty() {
                return Some(*u);
            }
        }
    }
    match ident {
        "nanos" => Some(Unit::Nanos),
        "micros" => Some(Unit::Micros),
        "millis" => Some(Unit::Millis),
        "secs" => Some(Unit::Secs),
        _ => None,
    }
}

/// Binary operators whose operands must share a unit.
const MIX_OPS: &[&str] = &["+", "-", "<", ">", "<=", ">=", "==", "!=", "+=", "-=", "%"];

fn unit_mismatch(f: &FileModel, findings: &mut Vec<Finding>) {
    for (idx, line) in f.clean.iter().enumerate() {
        if f.is_test_line(idx + 1) {
            continue;
        }
        let lineno = idx + 1;
        // A visible ×1000-family conversion factor (or a PER_ constant)
        // on the line means the mixing is deliberate unit conversion.
        let lower = line.to_ascii_lowercase();
        if lower.contains("1000") || lower.contains("1_000") || lower.contains("per_") {
            continue;
        }
        let tokens = path_tokens(line);
        // `a_us <op> b_ms` between adjacent path tokens.
        for w in tokens.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let (Some(ua), Some(ub)) = (a.unit, b.unit) else { continue };
            if ua == ub {
                continue;
            }
            let between = &line[a.end..b.start];
            let between = between.replace("()", "");
            let between = between.trim();
            if MIX_OPS.contains(&between) {
                findings.push(finding(
                    "unit-mismatch",
                    f,
                    lineno,
                    format!(
                        "`{}` ({}) is combined with `{}` ({}) without a conversion; the \
                         sim clock is integer µs — convert explicitly",
                        a.last,
                        ua.label(),
                        b.last,
                        ub.label()
                    ),
                ));
            }
        }
        // `from_micros(x_ms)`-style: a unit-named call fed a single
        // identifier of a different unit.
        for t in &tokens {
            let Some(fu) = t.unit else { continue };
            let after = &line[t.end..];
            if !after.starts_with('(') {
                continue;
            }
            let Some(close) = matching_paren(after) else { continue };
            let arg = after[1..close].trim();
            if arg.is_empty() || !arg.chars().all(|c| is_ident(c) || c == '.' || c == ':') {
                continue;
            }
            let last_seg = arg.rsplit(['.', ':']).next().unwrap_or(arg);
            let Some(au) = unit_of(last_seg) else { continue };
            if au != fu {
                findings.push(finding(
                    "unit-mismatch",
                    f,
                    lineno,
                    format!(
                        "`{}` expects {} but is passed `{}` ({}); convert explicitly",
                        t.last,
                        fu.label(),
                        last_seg,
                        au.label()
                    ),
                ));
            }
        }
    }
}

/// A maximal path expression (`self.x.deadline_ms`, `t.as_micros`) on a
/// line: byte span, last segment, and the unit the last segment carries.
struct PathToken {
    start: usize,
    end: usize,
    last: String,
    unit: Option<Unit>,
}

fn path_tokens(line: &str) -> Vec<PathToken> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if is_ident(c) && !c.is_ascii_digit() {
            let start = i;
            let mut last_start = i;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if is_ident(ch) {
                    i += 1;
                } else if ch == '.'
                    && i + 1 < bytes.len()
                    && is_ident(bytes[i + 1] as char)
                    && !(bytes[i + 1] as char).is_ascii_digit()
                {
                    i += 1;
                    last_start = i;
                } else if ch == ':'
                    && i + 2 < bytes.len()
                    && bytes[i + 1] == b':'
                    && is_ident(bytes[i + 2] as char)
                {
                    i += 2;
                    last_start = i;
                } else {
                    break;
                }
            }
            let last = line[last_start..i].to_string();
            let unit = unit_of(&last);
            out.push(PathToken { start, end: i, last, unit });
        } else if is_ident(c) {
            // Digit-led run (numeric literal): skip it whole.
            while i < bytes.len() && is_ident(bytes[i] as char) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Byte offset of the `)` matching the `(` at offset 0 of `s`.
fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// metric-name
// ---------------------------------------------------------------------------

fn metric_name(files: &[FileModel], findings: &mut Vec<Finding>) {
    // Shape-check product registrations; collect every registration
    // (test ones too — obs unit tests register names their own lookups
    // probe) as the match universe.
    let mut universe: Vec<&MetricString> = Vec::new();
    for f in files {
        for reg in &f.metric_regs {
            universe.push(reg);
            if reg.in_test || f.test_file {
                continue;
            }
            let shape_probe =
                if reg.template { reg.text.replace("{}", "x") } else { reg.text.clone() };
            if !is_metric_shaped(&shape_probe) {
                findings.push(finding(
                    "metric-name",
                    f,
                    reg.line,
                    format!(
                        "registered metric name {:?} does not match `component[.entity].metric` \
                         (lowercase dotted segments, ≥ 2)",
                        reg.text
                    ),
                ));
            }
        }
    }
    // Every lookup string must match a registration somewhere.
    for f in files {
        for lk in &f.metric_lookups {
            let matched =
                universe.iter().any(|reg| metric_matches(&reg.text, reg.template, &lk.text));
            if !matched {
                findings.push(finding(
                    "metric-name",
                    f,
                    lk.line,
                    format!(
                        "metric lookup {:?} matches no registration anywhere in the workspace \
                         (typo, or the metric was renamed)",
                        lk.text
                    ),
                ));
            }
        }
    }
}

/// Whether lookup `name` matches registration `reg` (a literal, or a
/// template whose `{}` holes each stand for one or more segments).
fn metric_matches(reg: &str, template: bool, name: &str) -> bool {
    if !template {
        return reg == name;
    }
    let rsegs: Vec<&str> = reg.split('.').collect();
    let nsegs: Vec<&str> = name.split('.').collect();
    match_segments(&rsegs, &nsegs)
}

fn match_segments(reg: &[&str], name: &[&str]) -> bool {
    match (reg.first(), name.first()) {
        (None, None) => true,
        (None, Some(_)) | (Some(_), None) => false,
        (Some(r), Some(_)) => {
            if r.contains("{}") {
                // A hole eats 1..=N segments.
                (1..=name.len()).any(|n| match_segments(&reg[1..], &name[n..]))
            } else if *r == name[0] {
                match_segments(&reg[1..], &name[1..])
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units() {
        assert_eq!(unit_of("deadline_ms"), Some(Unit::Millis));
        assert_eq!(unit_of("as_micros"), Some(Unit::Micros));
        assert_eq!(unit_of("x_secs"), Some(Unit::Secs));
        assert_eq!(unit_of("plain"), None);
        assert_eq!(unit_of("_ms"), None, "bare suffix is not a unit name");
    }

    #[test]
    fn template_matching() {
        assert!(metric_matches(
            "kv.node.{}.storage.flush_bytes",
            true,
            "kv.node.3.storage.flush_bytes"
        ));
        assert!(metric_matches("{}.storage.flush_bytes", true, "kv.node.3.storage.flush_bytes"));
        assert!(!metric_matches("{}.storage.flush_bytes", true, "kv.node.3.storage.flush_byte"));
        assert!(metric_matches("proxy.connects", false, "proxy.connects"));
        assert!(!metric_matches("proxy.connects", false, "proxy.connect"));
    }

    #[test]
    fn range_index_detection() {
        assert_eq!(range_index_sites("let x = buf[pos..pos + 4];").len(), 1);
        assert!(range_index_sites("let x = buf[pos];").is_empty(), "plain index exempt");
        assert!(range_index_sites("#[cfg(test)]").is_empty());
        assert!(range_index_sites("let a: [u8; 4] = x;").is_empty());
    }
}
