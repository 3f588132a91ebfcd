//! Rule registry and suppression directives.
//!
//! Every rule is grounded in a bug an earlier PR fixed by hand; the
//! linter exists so the next instance is caught by machine instead of
//! by a reviewer re-deriving the determinism contract from scratch.

use crate::lexer::is_ident;

/// A lint rule: stable name, what it matches, and the historical bug
/// that motivated it (shown by `crdb-simlint list`).
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    pub motivation: &'static str,
}

/// All shipped rules, in stable (alphabetical) order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "bad-directive",
        summary: "malformed simlint directive (unknown rule, or allow(...) without a reason)",
        motivation: "an unexplained suppression is indistinguishable from a silenced bug; \
                     PR reviews kept asking 'why is this exempt?' — now the answer is inline",
    },
    Rule {
        name: "reentrant-borrow",
        summary: "RefCell borrow guard bound in a match/if-let scrutinee or held across a \
                  self.-method call",
        motivation: "PR 3: sql::node planning held the catalog RefMut in a match scrutinee \
                     across a synchronous catalog-refresh retry and panicked under chaos; \
                     PR 1 fixed the same class in the kv range cache",
    },
    Rule {
        name: "wall-clock",
        summary: "Instant::now / SystemTime::now outside the clock adapter and bench harness",
        motivation: "all simulated components must read the sim clock; wall time leaks \
                     real-machine jitter into traces and makes runs unreproducible",
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// A parsed `simlint:` comment directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the directive appears on.
    pub line: usize,
    /// Rules the directive names (validated against [`RULES`]).
    pub rules: Vec<String>,
    /// `allow-file(...)` suppresses for the whole file; `allow(...)` only
    /// for its own line and the line directly below it.
    pub file_level: bool,
    /// The mandatory justification. `None` means the directive is
    /// malformed and suppresses nothing.
    pub reason: Option<String>,
    /// Why the directive is malformed, if it is.
    pub problem: Option<String>,
}

/// Extracts `simlint:` directives from the file's lines. `raw_lines` is
/// the original source, `clean_lines` the lexer-stripped view (used to
/// tell comments apart from string literals). Accepted forms, in plain
/// (non-doc) `//` or `/* */` comments:
///
/// ```text
/// ... code ...        (directive text: "simlint:" then "allow(wall-clock) — why")
/// ```
///
/// i.e. `allow(rule[, rule…])` or `allow-file(rule[, rule…])`, then a
/// separator (em-dash, `--`, `-`, or `:`) and a mandatory reason. A
/// directive without a non-empty reason, or naming an unknown rule, is
/// itself a `bad-directive` violation and suppresses nothing. Doc
/// comments (`///`, `//!`) never carry directives, so prose and examples
/// stay inert.
pub fn parse_directives(raw_lines: &[String], clean_lines: &[String]) -> Vec<Directive> {
    let mut out = Vec::new();
    for (idx, raw) in raw_lines.iter().enumerate() {
        let Some(pos) = raw.find("simlint:") else { continue };
        // Only honor the marker inside a *comment*: in the stripped view
        // the marker text must be blanked, and it must not sit inside a
        // string literal (delimiters survive stripping, so an odd number
        // of quotes to the left means "inside a string").
        let clean = clean_lines.get(idx).map(String::as_str).unwrap_or("");
        let clean_at = clean.get(pos..pos + "simlint:".len()).unwrap_or("");
        if !clean_at.trim().is_empty() {
            continue; // marker survived stripping => it is code, not comment
        }
        if clean.get(..pos).unwrap_or("").matches('"').count() % 2 == 1 {
            continue; // inside a string literal
        }
        // Doc comments are documentation, not directives.
        let lead = raw.trim_start();
        if lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        let line = idx + 1;
        let rest = raw[pos + "simlint:".len()..].trim_start();
        let file_level = rest.starts_with("allow-file");
        let rest = rest
            .strip_prefix("allow-file")
            .or_else(|| rest.strip_prefix("allow"))
            .map(str::trim_start);
        let Some(rest) = rest else {
            out.push(Directive {
                line,
                rules: Vec::new(),
                file_level: false,
                reason: None,
                problem: Some("expected `allow(...)` or `allow-file(...)`".into()),
            });
            continue;
        };
        let (rules_str, tail) = match rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|end| (&r[..end], &r[end + 1..])))
        {
            Some(parts) => parts,
            None => {
                out.push(Directive {
                    line,
                    rules: Vec::new(),
                    file_level,
                    reason: None,
                    problem: Some("missing `(rule, ...)` list".into()),
                });
                continue;
            }
        };
        let rules: Vec<String> =
            rules_str.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
        let unknown: Vec<&String> = rules.iter().filter(|r| rule(r).is_none()).collect();
        let problem = if rules.is_empty() {
            Some("empty rule list".to_string())
        } else if !unknown.is_empty() {
            Some(format!(
                "unknown rule(s): {}",
                unknown.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            ))
        } else {
            None
        };
        let reason = parse_reason(tail);
        let problem = problem.or_else(|| {
            if reason.is_none() {
                Some("missing reason (write `— <why this is safe>`)".to_string())
            } else {
                None
            }
        });
        out.push(Directive {
            line,
            rules,
            file_level,
            reason: if problem.is_some() { None } else { reason },
            problem,
        });
    }
    out
}

/// Parses the mandatory reason after the rule list: a separator (em-dash,
/// `--`, `-`, or `:`) followed by non-empty prose.
fn parse_reason(tail: &str) -> Option<String> {
    let t = tail.trim_start();
    let body = t
        .strip_prefix('\u{2014}') // em-dash
        .or_else(|| t.strip_prefix("--"))
        .or_else(|| t.strip_prefix('-'))
        .or_else(|| t.strip_prefix(':'))?;
    let body = body.trim().trim_end_matches("*/").trim();
    // Require something that reads like prose, not a stray token.
    if body.chars().filter(|c| is_ident(*c)).count() >= 3 {
        Some(body.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &[&str]) -> Vec<Directive> {
        let raw: Vec<String> = src.iter().map(|s| s.to_string()).collect();
        let clean = crate::lexer::strip(&raw.join("\n"));
        parse_directives(&raw, &clean)
    }

    #[test]
    fn parses_valid_allow() {
        let d = parse(&["let x = 1; // simlint: allow(wall-clock) — host-side progress line"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rules, vec!["wall-clock"]);
        assert!(!d[0].file_level);
        assert_eq!(d[0].reason.as_deref(), Some("host-side progress line"));
        assert!(d[0].problem.is_none());
    }

    #[test]
    fn parses_multi_rule_and_ascii_dash() {
        let d = parse(&["// simlint: allow(wall-clock, reentrant-borrow) -- bench arg parsing"]);
        assert_eq!(d[0].rules.len(), 2);
        assert!(d[0].problem.is_none());
    }

    #[test]
    fn file_level_form() {
        let d = parse(&[
            "// simlint: allow-file(wall-clock) — bench harness measures real elapsed time",
        ]);
        assert!(d[0].file_level);
        assert!(d[0].problem.is_none());
    }

    #[test]
    fn reasonless_directive_is_malformed() {
        let d = parse(&["// simlint: allow(wall-clock)"]);
        assert!(d[0].problem.is_some());
        assert!(d[0].reason.is_none());
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let d = parse(&["// simlint: allow(no-such-rule) — because"]);
        assert!(d[0].problem.as_deref().unwrap().contains("unknown rule"));
    }

    #[test]
    fn marker_in_string_is_ignored() {
        let d = parse(&[r#"let s = "simlint: allow(wall-clock)";"#]);
        assert!(d.is_empty());
    }
}
