//! PromQL lexer.

use crate::error::ParseError;
use serde::{Deserialize, Serialize};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Token {
    /// Identifier or keyword (`sum`, `rate`, `metric_name`, `by`, …).
    Ident(String),
    /// Numeric literal (including `1e9`, `.5`, `0x1f` is not supported).
    Number(f64),
    /// String literal (single or double quoted), unescaped.
    Str(String),
    /// Duration literal, milliseconds (e.g. `5m` → 300000).
    Duration(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `^`
    Caret,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Gte,
    /// `<=`
    Lte,
    /// `=`
    Assign,
    /// `=~`
    ReMatch,
    /// `!~`
    NotReMatch,
    /// `:` (subquery step separator; colons *inside* identifiers stay
    /// part of the identifier, as in recording-rule names)
    Colon,
}

/// A token plus its byte offset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// Tokenise a PromQL expression.
pub(crate) fn lex(input: &str) -> Result<Vec<SpannedToken>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        // Decode the full char so multi-byte UTF-8 is either handled
        // (strings) or rejected cleanly (everywhere else) without ever
        // slicing inside a code point.
        let c = input[i..].chars().next().expect("i is a char boundary");
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(SpannedToken { token: Token::LParen, offset: start });
                i += 1;
            }
            ')' => {
                out.push(SpannedToken { token: Token::RParen, offset: start });
                i += 1;
            }
            '{' => {
                out.push(SpannedToken { token: Token::LBrace, offset: start });
                i += 1;
            }
            '}' => {
                out.push(SpannedToken { token: Token::RBrace, offset: start });
                i += 1;
            }
            '[' => {
                out.push(SpannedToken { token: Token::LBracket, offset: start });
                i += 1;
            }
            ']' => {
                out.push(SpannedToken { token: Token::RBracket, offset: start });
                i += 1;
            }
            ',' => {
                out.push(SpannedToken { token: Token::Comma, offset: start });
                i += 1;
            }
            '+' => {
                out.push(SpannedToken { token: Token::Plus, offset: start });
                i += 1;
            }
            '-' => {
                out.push(SpannedToken { token: Token::Minus, offset: start });
                i += 1;
            }
            '*' => {
                out.push(SpannedToken { token: Token::Star, offset: start });
                i += 1;
            }
            '/' => {
                out.push(SpannedToken { token: Token::Slash, offset: start });
                i += 1;
            }
            '%' => {
                out.push(SpannedToken { token: Token::Percent, offset: start });
                i += 1;
            }
            '^' => {
                out.push(SpannedToken { token: Token::Caret, offset: start });
                i += 1;
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken { token: Token::EqEq, offset: start });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'~' {
                    out.push(SpannedToken { token: Token::ReMatch, offset: start });
                    i += 2;
                } else {
                    out.push(SpannedToken { token: Token::Assign, offset: start });
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken { token: Token::NotEq, offset: start });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'~' {
                    out.push(SpannedToken { token: Token::NotReMatch, offset: start });
                    i += 2;
                } else {
                    return Err(ParseError::new("unexpected '!'", start));
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken { token: Token::Gte, offset: start });
                    i += 2;
                } else {
                    out.push(SpannedToken { token: Token::Gt, offset: start });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken { token: Token::Lte, offset: start });
                    i += 2;
                } else {
                    out.push(SpannedToken { token: Token::Lt, offset: start });
                    i += 1;
                }
            }
            '"' | '\'' => {
                let quote = c;
                let mut s = String::new();
                i += 1;
                let mut closed = false;
                // Char-aware scan: string literals may contain arbitrary
                // UTF-8 (label values are free-form).
                let mut chars = input[i..].char_indices().peekable();
                while let Some((off, ch)) = chars.next() {
                    if ch == '\\' {
                        match chars.next() {
                            Some((esc_off, esc)) => {
                                s.push(match esc {
                                    'n' => '\n',
                                    't' => '\t',
                                    '\\' => '\\',
                                    '"' => '"',
                                    '\'' => '\'',
                                    other => other,
                                });
                                let _ = esc_off;
                            }
                            None => break,
                        }
                    } else if ch == quote {
                        closed = true;
                        i += off + ch.len_utf8();
                        break;
                    } else {
                        s.push(ch);
                    }
                }
                if !closed {
                    return Err(ParseError::new("unterminated string literal", start));
                }
                out.push(SpannedToken { token: Token::Str(s), offset: start });
            }
            '0'..='9' | '.' => {
                let (tok, next) = lex_number_or_duration(input, i)?;
                out.push(SpannedToken { token: tok, offset: start });
                i = next;
            }
            ':' => {
                out.push(SpannedToken { token: Token::Colon, offset: start });
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    let ch = bytes[j];
                    if ch.is_ascii_alphanumeric() || ch == b'_' || ch == b':' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(SpannedToken {
                    token: Token::Ident(input[i..j].to_string()),
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(ParseError::new(format!("unexpected character '{other}'"), start));
            }
        }
    }
    Ok(out)
}

/// Parse a number, or a duration when a unit suffix follows.
fn lex_number_or_duration(input: &str, start: usize) -> Result<(Token, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    // Mantissa digits and dot.
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
        i += 1;
    }
    // Exponent.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let num: f64 = input[start..i]
                .parse()
                .map_err(|_| ParseError::new("invalid number", start))?;
            return Ok((Token::Number(num), i));
        }
    }
    // Duration suffix?
    if i < bytes.len() {
        let rest = &input[i..];
        for (suffix, ms) in [
            ("ms", 1i64),
            ("s", 1000),
            ("m", 60_000),
            ("h", 3_600_000),
            ("d", 86_400_000),
            ("w", 604_800_000),
            ("y", 31_536_000_000),
        ] {
            if rest.starts_with(suffix) {
                // Ensure the suffix isn't the start of an identifier
                // (`5months` is invalid, not a duration).
                let after = i + suffix.len();
                let next_ok = after >= bytes.len()
                    || !( (bytes[after] as char).is_ascii_alphanumeric() || bytes[after] == b'_');
                // Longest match: check "ms" before "m" — ordering in the
                // array handles that.
                if next_ok {
                    let num: f64 = input[start..i]
                        .parse()
                        .map_err(|_| ParseError::new("invalid duration", start))?;
                    return Ok((Token::Duration((num * ms as f64) as i64), after));
                }
            }
        }
    }
    let text = &input[start..i];
    if text == "." {
        return Err(ParseError::new("lone '.' is not a number", start));
    }
    let num: f64 = text
        .parse()
        .map_err(|_| ParseError::new("invalid number", start))?;
    Ok((Token::Number(num), i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        lex(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_selector_with_matchers() {
        assert_eq!(
            toks(r#"metric{nf="amf",proc=~"auth.*"}"#),
            vec![
                Token::Ident("metric".into()),
                Token::LBrace,
                Token::Ident("nf".into()),
                Token::Assign,
                Token::Str("amf".into()),
                Token::Comma,
                Token::Ident("proc".into()),
                Token::ReMatch,
                Token::Str("auth.*".into()),
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn lexes_durations() {
        assert_eq!(toks("[5m]"), vec![Token::LBracket, Token::Duration(300_000), Token::RBracket]);
        assert_eq!(toks("30s"), vec![Token::Duration(30_000)]);
        assert_eq!(toks("100ms"), vec![Token::Duration(100)]);
        assert_eq!(toks("1h"), vec![Token::Duration(3_600_000)]);
        assert_eq!(toks("2d"), vec![Token::Duration(172_800_000)]);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42"), vec![Token::Number(42.0)]);
        assert_eq!(toks("4.25"), vec![Token::Number(4.25)]);
        assert_eq!(toks("1e9"), vec![Token::Number(1e9)]);
        assert_eq!(toks("2.5e-3"), vec![Token::Number(2.5e-3)]);
        assert_eq!(toks(".5"), vec![Token::Number(0.5)]);
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks("a + b - c * d / e % f ^ g"),
            vec![
                Token::Ident("a".into()),
                Token::Plus,
                Token::Ident("b".into()),
                Token::Minus,
                Token::Ident("c".into()),
                Token::Star,
                Token::Ident("d".into()),
                Token::Slash,
                Token::Ident("e".into()),
                Token::Percent,
                Token::Ident("f".into()),
                Token::Caret,
                Token::Ident("g".into()),
            ]
        );
    }

    #[test]
    fn lexes_comparisons() {
        assert_eq!(
            toks("a == b != c >= d <= e > f < g"),
            vec![
                Token::Ident("a".into()),
                Token::EqEq,
                Token::Ident("b".into()),
                Token::NotEq,
                Token::Ident("c".into()),
                Token::Gte,
                Token::Ident("d".into()),
                Token::Lte,
                Token::Ident("e".into()),
                Token::Gt,
                Token::Ident("f".into()),
                Token::Lt,
                Token::Ident("g".into()),
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\"b""#), vec![Token::Str("a\"b".into())]);
        assert_eq!(toks(r#"'x\n'"#), vec![Token::Str("x\n".into())]);
    }

    #[test]
    fn errors_on_unterminated_string() {
        assert!(lex(r#""abc"#).is_err());
    }

    #[test]
    fn errors_on_bad_char() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(err.position, 2);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(toks("a # comment\n+ b"), vec![
            Token::Ident("a".into()),
            Token::Plus,
            Token::Ident("b".into()),
        ]);
    }

    #[test]
    fn identifier_with_colon_for_recording_rules() {
        assert_eq!(toks("job:rate:5m"), vec![Token::Ident("job:rate:5m".into())]);
    }

    #[test]
    fn duration_not_confused_with_identifier() {
        // `5months` must not lex as the duration 5m + `onths`; the
        // suffix check falls back to Number(5) + Ident("months"),
        // which the parser then rejects as adjacent tokens.
        assert_eq!(
            toks("5months"),
            vec![Token::Number(5.0), Token::Ident("months".into())]
        );
        assert!(crate::parser::parse("5months").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let ts = lex("ab + cd").unwrap();
        assert_eq!(ts[0].offset, 0);
        assert_eq!(ts[1].offset, 3);
        assert_eq!(ts[2].offset, 5);
    }
}
