//! The per-file model: the one place a source file is stripped,
//! directive-parsed and scope-walked.
//!
//! Every rule in [`xrules`](crate::xrules) reads a [`FileModel`]: the
//! raw and lexer-stripped lines, the `simlint:` directives, which lines
//! are test code, the brace depth after each line, and fn body ranges.
//!
//! The model is built from the lexer-stripped view (comments/strings
//! blanked, 1:1 per character). No Rust parsing: brace-depth walking and
//! identifier scanning only, tuned on the real workspace.

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
    pub fns: Vec<FnModel>,
}

impl FileModel {
    /// Builds the model for one product file.
    pub fn build(path: &str, source: &str) -> FileModel {
        let raw: Vec<String> = source.lines().map(str::to_string).collect();
        let clean = strip(source);
        let directives = parse_directives(&raw, &clean);
        let walk = ScopeWalk::run(&clean);
        FileModel {
            path: path.to_string(),
            raw,
            clean,
            directives,
            test_line: walk.test_line,
            depth_after: walk.depth_after,
            fns: walk.fns,
        }
    }

    /// Whether 1-based `line` is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_line.get(line.saturating_sub(1)).copied().unwrap_or(false)
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
        let mut test_line = Vec::with_capacity(clean.len());
        let mut depth_after = Vec::with_capacity(clean.len());
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
            test_line.push(!test_regions.is_empty() || armed_test);

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

                if let Some(mut p) = pending.take() {
                    match c {
                        '(' | '[' => p.paren += 1,
                        ')' | ']' => p.paren -= 1,
                        // Trait/extern declaration: no body.
                        ';' if p.paren == 0 => continue,
                        '{' if p.paren == 0 => {
                            // Body opens.
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
                    pending = Some(p);
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
                        while let Some(done) = open.pop_if(|o| depth <= o.open_depth) {
                            fns.push(FnModel { body_end: idx + 1, ..done.model });
                        }
                    }
                    ';' => armed_test = false,
                    _ => {}
                }
            }
            depth_after.push(depth);
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
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
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
        let m = FileModel::build("x.rs", src);
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
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "multi");
        assert_eq!((m.fns[0].body_start, m.fns[0].body_end), (4, 6));
    }

    #[test]
    fn trait_decl_without_body_is_dropped() {
        let src = "trait T {\n    fn decl(&self) -> Result<(), E>;\n}\n";
        let m = FileModel::build("x.rs", src);
        assert!(m.fns.is_empty());
    }
}
