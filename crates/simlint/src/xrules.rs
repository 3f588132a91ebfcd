//! The rule checks. Every one reads a [`FileModel`] and nothing else:
//!
//! - **`wall-clock`** — `Instant::now` / `SystemTime::now` in non-test
//!   product code; simulated components read the sim clock.
//! - **`reentrant-borrow`** — a `RefCell` borrow in a `match` / `if let`
//!   scrutinee (the guard temporary lives for the whole body), or a
//!   bound guard still alive across a direct `self.method(…)` call.
//! - **`bad-directive`** — a `simlint:` directive that names no known
//!   rule or gives no reason; it suppresses nothing.
//!
//! Everything else the type checker knows (DESIGN.md §8). Clippy bans
//! hash-ordered collections, ambient entropy, discarded `Result`s and
//! panic paths (root `clippy.toml`, each crate root's lint line); rustc
//! denies a leaked `#[must_use]` claim; time crosses function boundaries
//! as `Duration`; `obs::Sampler` refuses a badly shaped metric name.

use crate::engine::Finding;
use crate::lexer::{is_ident, word_positions};
use crate::model::{let_bound_name, FileModel};

/// Runs every rule over one product file's model, returning raw
/// (unsuppressed) findings. Suppression is applied by the caller
/// (`engine::analyze_sources`).
pub fn run(f: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    bad_directive(f, &mut findings);
    wall_clock(f, &mut findings);
    reentrant_borrow(f, &mut findings);
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
    for (idx, (line, &after)) in f.clean.iter().zip(&f.depth_after).enumerate() {
        if !f.is_test_line(idx + 1) {
            check_scrutinee(f, idx, line, findings);
            check_guards(f, &mut guards, idx + 1, depth, line, findings);
        }
        // Guards whose block closed on this line are gone.
        depth = after;
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
