//! SQL tokenizer.

use std::fmt;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser; identifiers are lower-cased here).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `$n` prepared-statement parameter (1-based).
    Param(usize),
    /// Punctuation or operator.
    Sym(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            // A whole float keeps its `.0`, or it would lex back as an int.
            Token::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Token::Float(x) => write!(f, "{x}"),
            // Embedded quotes are doubled, as the lexer reads them.
            Token::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Token::Param(n) => write!(f, "${n}"),
            Token::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// `input[from..to]`. Every token starts and ends at an ASCII byte, so the
/// bounds are character boundaries; were one not, the statement is
/// refused rather than the process aborted.
fn text(input: &str, from: usize, to: usize) -> Result<&str, String> {
    input.get(from..to).ok_or_else(|| "token boundary inside a character".to_string())
}

/// Tokenizes SQL text. Returns an error message on malformed input.
pub fn tokenize(input: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let c = b as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while bytes.get(i).is_some_and(|&b| b != b'\n') {
                    i += 1;
                }
            }
            '\'' => {
                // Copied a run at a time, between quotes: a quote is one
                // ASCII byte, so every run is whole UTF-8 characters.
                let mut s = String::new();
                i += 1;
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => return Err("unterminated string literal".into()),
                        Some(b'\'') => {
                            s.push_str(text(input, run, i)?);
                            if bytes.get(i + 1) != Some(&b'\'') {
                                i += 1;
                                break;
                            }
                            s.push('\'');
                            i += 2;
                            run = i;
                        }
                        Some(_) => i += 1,
                    }
                }
                out.push(Token::Str(s));
            }
            '$' => {
                let start = i + 1;
                let mut j = start;
                while bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    j += 1;
                }
                if j == start {
                    return Err("bare $".into());
                }
                let n: usize = text(input, start, j)?.parse().map_err(|_| "bad param")?;
                if n == 0 {
                    return Err("params are 1-based".into());
                }
                out.push(Token::Param(n));
                i = j;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                let mut is_float = false;
                while let Some(&b) = bytes.get(j) {
                    if b == b'.' && !is_float {
                        is_float = true;
                    } else if !b.is_ascii_digit() {
                        break;
                    }
                    j += 1;
                }
                let number = text(input, start, j)?;
                if is_float {
                    out.push(Token::Float(number.parse().map_err(|_| "bad float")?));
                } else {
                    out.push(Token::Int(number.parse().map_err(|_| "bad int")?));
                }
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                let mut j = i;
                while bytes.get(j).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_') {
                    j += 1;
                }
                out.push(Token::Ident(text(input, start, j)?.to_ascii_lowercase()));
                i = j;
            }
            '<' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Sym("<="));
                i += 2;
            }
            '>' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Sym(">="));
                i += 2;
            }
            '<' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Token::Sym("!="));
                i += 2;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Sym("!="));
                i += 2;
            }
            '=' => {
                out.push(Token::Sym("="));
                i += 1;
            }
            '<' => {
                out.push(Token::Sym("<"));
                i += 1;
            }
            '>' => {
                out.push(Token::Sym(">"));
                i += 1;
            }
            '(' | ')' | ',' | '*' | '+' | '-' | '/' | '%' | '.' | ';' => {
                let sym = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    '.' => ".",
                    _ => ";",
                };
                out.push(Token::Sym(sym));
                i += 1;
            }
            _ => {
                // `c` is one byte; name the whole character it starts.
                let other = text(input, i, input.len())?.chars().next().unwrap_or(c);
                return Err(format!("unexpected character {other:?}"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 10").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("select".into()),
                Token::Ident("a".into()),
                Token::Sym(","),
                Token::Ident("b".into()),
                Token::Ident("from".into()),
                Token::Ident("t".into()),
                Token::Ident("where".into()),
                Token::Ident("a".into()),
                Token::Sym(">="),
                Token::Int(10),
            ]
        );
    }

    #[test]
    fn literals() {
        let toks = tokenize("1 2.5 'it''s' $3").unwrap();
        assert_eq!(
            toks,
            vec![Token::Int(1), Token::Float(2.5), Token::Str("it's".into()), Token::Param(3),]
        );
    }

    #[test]
    fn non_ascii_text_survives_in_literals_and_is_refused_outside() {
        let toks = tokenize("'naïve ''日本'' 𝄞' -- commentaire é\n'ß'").unwrap();
        assert_eq!(toks, vec![Token::Str("naïve '日本' 𝄞".into()), Token::Str("ß".into())]);
        assert_eq!(tokenize("sélect").unwrap_err(), "unexpected character 'é'");
        assert_eq!(tokenize("$１").unwrap_err(), "bare $");
        assert!(tokenize("1２").is_err());
        assert!(tokenize("'日本").is_err());
    }

    #[test]
    fn operators_and_comments() {
        let toks = tokenize("a <> b -- trailing\n c != d <= e >= f").unwrap();
        let syms: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Sym(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["!=", "!=", "<=", ">="]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("$0").is_err());
        assert!(tokenize("$").is_err());
        assert!(tokenize("#").is_err());
    }

    #[test]
    fn identifiers_lowercased() {
        let toks = tokenize("SeLeCt FooBar").unwrap();
        assert_eq!(toks[1], Token::Ident("foobar".into()));
    }
}
