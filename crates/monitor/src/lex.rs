//! Tokenizer for the monitor spec language.
//!
//! Line-and-column spans are tracked per token (1-based) so every parse and
//! type error can point at the offending spot; the workspace's golden
//! tests in `tests/spec_errors.rs` pin the exact rendered positions down.

use crate::SpecError;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier (stream, field or event-kind name).
    Ident(String),
    /// Double-quoted string literal (trigger names, message templates).
    Str(String),
    /// Unsigned integer literal (fits i64).
    Int(i64),
    /// `input`
    KwInput,
    /// `map`
    KwMap,
    /// `counter`
    KwCounter,
    /// `hold`
    KwHold,
    /// `window`
    KwWindow,
    /// `trigger`
    KwTrigger,
    /// `when`
    KwWhen,
    /// `on`
    KwOn,
    /// `remove`
    KwRemove,
    /// `add`
    KwAdd,
    /// `sub`
    KwSub,
    /// `reset`
    KwReset,
    /// `init`
    KwInit,
    /// `over`
    KwOver,
    /// `in`
    KwIn,
    /// `tumbling`
    KwTumbling,
    /// `count`
    KwCount,
    /// `sum`
    KwSum,
    /// `size`
    KwSize,
    /// `message`
    KwMessage,
    /// `warn`
    KwWarn,
    /// `error`
    KwError,
    /// `true`
    True,
    /// `false`
    False,
    /// `:=`
    Assign,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `!`
    Bang,
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
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

impl Tok {
    /// How the token reads in an error message.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("'{s}'"),
            Tok::Str(_) => "string literal".to_owned(),
            Tok::Int(n) => format!("'{n}'"),
            Tok::Eof => "end of spec".to_owned(),
            other => format!("'{}'", other.glyph()),
        }
    }

    fn glyph(&self) -> &'static str {
        match self {
            Tok::KwInput => "input",
            Tok::KwMap => "map",
            Tok::KwCounter => "counter",
            Tok::KwHold => "hold",
            Tok::KwWindow => "window",
            Tok::KwTrigger => "trigger",
            Tok::KwWhen => "when",
            Tok::KwOn => "on",
            Tok::KwRemove => "remove",
            Tok::KwAdd => "add",
            Tok::KwSub => "sub",
            Tok::KwReset => "reset",
            Tok::KwInit => "init",
            Tok::KwOver => "over",
            Tok::KwIn => "in",
            Tok::KwTumbling => "tumbling",
            Tok::KwCount => "count",
            Tok::KwSum => "sum",
            Tok::KwSize => "size",
            Tok::KwMessage => "message",
            Tok::KwWarn => "warn",
            Tok::KwError => "error",
            Tok::True => "true",
            Tok::False => "false",
            Tok::Assign => ":=",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Comma => ",",
            Tok::Bang => "!",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::EqEq => "==",
            Tok::Ne => "!=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Ident(_) | Tok::Str(_) | Tok::Int(_) | Tok::Eof => unreachable!(),
        }
    }
}

/// A token plus the 1-based position of its first character.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "input" => Tok::KwInput,
        "map" => Tok::KwMap,
        "counter" => Tok::KwCounter,
        "hold" => Tok::KwHold,
        "window" => Tok::KwWindow,
        "trigger" => Tok::KwTrigger,
        "when" => Tok::KwWhen,
        "on" => Tok::KwOn,
        "remove" => Tok::KwRemove,
        "add" => Tok::KwAdd,
        "sub" => Tok::KwSub,
        "reset" => Tok::KwReset,
        "init" => Tok::KwInit,
        "over" => Tok::KwOver,
        "in" => Tok::KwIn,
        "tumbling" => Tok::KwTumbling,
        "count" => Tok::KwCount,
        "sum" => Tok::KwSum,
        "size" => Tok::KwSize,
        "message" => Tok::KwMessage,
        "warn" => Tok::KwWarn,
        "error" => Tok::KwError,
        "true" => Tok::True,
        "false" => Tok::False,
        _ => return None,
    })
}

/// Tokenizes `src`, ending the stream with an [`Tok::Eof`] token.
///
/// `#` starts a comment running to end of line. Offsets in the returned
/// tokens are relative to `(base_line, base col 1)` so templates embedded in
/// strings can be re-lexed with their own origin.
pub fn lex(src: &str, base_line: u32) -> Result<Vec<Token>, SpecError> {
    let mut out = Vec::new();
    let mut line = base_line;
    let mut col: u32 = 1;
    let mut chars = src.chars().peekable();
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }
    loop {
        let (tline, tcol) = (line, col);
        let Some(&c) = chars.peek() else {
            out.push(Token { tok: Tok::Eof, line, col });
            return Ok(out);
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match chars.peek() {
                        None | Some('\n') => {
                            return Err(SpecError::at(tline, tcol, "unterminated string literal"))
                        }
                        Some('"') => {
                            bump!();
                            break;
                        }
                        Some(&c) => {
                            s.push(c);
                            bump!();
                        }
                    }
                }
                out.push(Token { tok: Tok::Str(s), line: tline, col: tcol });
            }
            c if c.is_ascii_digit() => {
                let mut n: i64 = 0;
                while let Some(&c) = chars.peek() {
                    let Some(d) = c.to_digit(10) else { break };
                    n = n.checked_mul(10).and_then(|n| n.checked_add(i64::from(d))).ok_or_else(
                        || SpecError::at(tline, tcol, "integer literal does not fit in i64"),
                    )?;
                    bump!();
                }
                out.push(Token { tok: Tok::Int(n), line: tline, col: tcol });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        word.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                let tok = keyword(&word).unwrap_or(Tok::Ident(word));
                out.push(Token { tok, line: tline, col: tcol });
            }
            _ => {
                bump!();
                let next = chars.peek().copied();
                let tok = match c {
                    ':' if next == Some('=') => {
                        bump!();
                        Tok::Assign
                    }
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    ',' => Tok::Comma,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '*' => Tok::Star,
                    '/' => Tok::Slash,
                    '%' => Tok::Percent,
                    '!' if next == Some('=') => {
                        bump!();
                        Tok::Ne
                    }
                    '!' => Tok::Bang,
                    '<' if next == Some('=') => {
                        bump!();
                        Tok::Le
                    }
                    '<' => Tok::Lt,
                    '>' if next == Some('=') => {
                        bump!();
                        Tok::Ge
                    }
                    '>' => Tok::Gt,
                    '=' if next == Some('=') => {
                        bump!();
                        Tok::EqEq
                    }
                    '&' if next == Some('&') => {
                        bump!();
                        Tok::AndAnd
                    }
                    '|' if next == Some('|') => {
                        bump!();
                        Tok::OrOr
                    }
                    other => {
                        return Err(SpecError::at(
                            tline,
                            tcol,
                            format!("unexpected character '{other}'"),
                        ))
                    }
                };
                out.push(Token { tok, line: tline, col: tcol });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("input x := marked\n  when a >= 3 # c\n", 1).unwrap();
        assert_eq!(toks[0].tok, Tok::KwInput);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!(toks[1].tok, Tok::Ident("x".into()));
        assert_eq!((toks[1].line, toks[1].col), (1, 7));
        assert_eq!(toks[2].tok, Tok::Assign);
        let when = toks.iter().find(|t| t.tok == Tok::KwWhen).unwrap();
        assert_eq!((when.line, when.col), (2, 3));
        let ge = toks.iter().find(|t| t.tok == Tok::Ge).unwrap();
        assert_eq!(ge.col, 10);
        assert_eq!(toks.last().unwrap().tok, Tok::Eof);
    }

    #[test]
    fn bad_characters_are_rejected_with_position() {
        let err = lex("a $ b", 1).unwrap_err();
        assert_eq!(err.to_string(), "1:3: unexpected character '$'");
    }

    #[test]
    fn strings_and_ints() {
        let toks = lex("\"hi {x}\" 42", 1).unwrap();
        assert_eq!(toks[0].tok, Tok::Str("hi {x}".into()));
        assert_eq!(toks[1].tok, Tok::Int(42));
        assert!(lex("\"open", 1).is_err());
        assert!(lex("99999999999999999999", 1).is_err());
    }
}
