//! Comment- and string-stripping lexer.
//!
//! The workspace is hermetic (no `syn`, no `proc-macro2`), so `simlint`
//! does not parse Rust. Instead it reduces a source file to a shape the
//! line- and scope-aware rule engine can match textually without false
//! positives from prose: every comment and every string/char-literal
//! *body* is blanked to spaces (delimiters are kept), while code,
//! newlines, and column positions survive unchanged. Nested block
//! comments, raw strings (`r#"…"#`), byte strings, and the
//! lifetime-vs-char-literal ambiguity (`'a` vs `'a'`) are handled.

/// Strips comments and string/char-literal contents from `source`,
/// preserving line and column structure (stripped characters become
/// spaces; string delimiters are kept so quoting stays visible).
pub fn strip(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }

    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut i = 0;

    // Emits `c` if it is a newline (structure must survive), else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while let Some(&c) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    // A quote in code state: check for a raw/byte-string
                    // prefix directly before it (`r`, `br`, with hashes).
                    let before = chars.get(..i).unwrap_or_default();
                    let hashes = before.iter().rev().take_while(|&&ch| ch == '#').count();
                    let mut prefix = before.iter().rev().skip(hashes).copied();
                    let is_raw = prefix.next() == Some('r')
                        && match prefix.next() {
                            None => true,
                            Some('b') => prefix.next().is_none_or(|ch| !is_ident(ch)),
                            Some(ch) => !is_ident(ch),
                        };
                    st = if is_raw { St::RawStr(hashes) } else { St::Str };
                    out.push('"');
                    i += 1;
                }
                '\'' => {
                    // Lifetime or char literal? `'\…'` and `'x'` are
                    // literals; `'ident` (no closing quote right after one
                    // ident char) is a lifetime.
                    if next == Some('\\') {
                        st = St::Char;
                        out.push('\'');
                        i += 1;
                    } else if let (Some(n), Some('\'')) = (next, chars.get(i + 2).copied()) {
                        out.push('\'');
                        blank(&mut out, n);
                        out.push('\'');
                        i += 3;
                    } else {
                        // Lifetime (or `'static`): keep as code.
                        out.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    blank(&mut out, c);
                }
                i += 1;
            }
            St::Block(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    blank(&mut out, c);
                    if let Some(n) = next {
                        blank(&mut out, n);
                        i += 1;
                    }
                    i += 1;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push(' ');
                        }
                        st = St::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                blank(&mut out, c);
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    blank(&mut out, c);
                    if let Some(n) = next {
                        blank(&mut out, n);
                        i += 1;
                    }
                    i += 1;
                } else if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
        }
    }

    out.lines().map(|l| l.to_string()).collect()
}

/// Whether `c` can appear in a Rust identifier.
pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds every occurrence of `word` in `line` that sits on identifier
/// boundaries, returning byte offsets.
pub fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(rel) = line[start..].find(word) {
        let pos = start + rel;
        let before_ok = pos == 0 || !is_ident(line[..pos].chars().next_back().unwrap_or(' '));
        let after = line[pos + word.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            found.push(pos);
        }
        start = pos + word.len().max(1);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip1(s: &str) -> String {
        strip(s).join("\n")
    }

    #[test]
    fn strips_line_comments() {
        assert_eq!(strip1("let x = 1; // HashMap here"), "let x = 1;                ");
    }

    #[test]
    fn strips_nested_block_comments() {
        assert_eq!(strip1("a /* x /* y */ z */ b"), "a                   b");
    }

    #[test]
    fn strips_string_contents_keeps_quotes() {
        assert_eq!(strip1("f(\"HashMap.iter()\")"), "f(\"              \")");
    }

    #[test]
    fn handles_escaped_quote_in_string() {
        assert_eq!(strip1(r#"f("a\"b") + g()"#), r#"f("    ") + g()"#);
    }

    #[test]
    fn handles_raw_strings() {
        // `r#` prefix survives as code, body is blanked, closing hash blanked.
        let got = strip1(r##"f(r#"Instant::now()"#)"##);
        assert_eq!(got, format!("f(r#\"{}\" )", " ".repeat(14)));
    }

    #[test]
    fn keeps_lifetimes_blanks_char_literals() {
        assert_eq!(
            strip1("fn f<'a>(x: &'a str, c: char) { if c == 'x' {} }"),
            "fn f<'a>(x: &'a str, c: char) { if c == ' ' {} }"
        );
    }

    #[test]
    fn multiline_string_preserves_line_count() {
        let src = "let s = \"a\nb\";\nlet t = 1;";
        let lines = strip(src);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "let t = 1;");
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(word_positions("HashMap MyHashMap HashMapX", "HashMap"), vec![0]);
        assert_eq!(word_positions("m.iter() xiter iter_m", "iter"), vec![2]);
    }
}
