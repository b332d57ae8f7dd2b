//! Tokenizer for the monitor spec language.
//!
//! Line-and-column spans are tracked per token (1-based) so every parse and
//! type error can point at the offending spot; the workspace's golden
//! tests in `tests/spec_errors.rs` pin the exact rendered positions down.

use crate::ast::BinOp;
use crate::SpecError;

/// Declares [`Tok`] from one `Variant "text"` entry per fixed token: the
/// variants, their text ([`Tok::glyph`]) and the lookup from text to token
/// ([`Tok::fixed`]), which serves words and symbols alike. The binary
/// operators are not entries: they lex to [`Tok::Bin`] through [`BinOp`]'s
/// own table.
macro_rules! tokens {
    ($($tok:ident $text:literal,)*) => {
        /// One lexical token.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Tok {
            /// Identifier (stream, field or event-kind name).
            Ident(String),
            /// Double-quoted string literal (trigger names, message templates).
            Str(String),
            /// Unsigned integer literal (fits i64).
            Int(i64),
            /// A binary operator; `-` in prefix position is unary minus.
            Bin(BinOp),
            $(#[doc = concat!("`", $text, "`")] $tok,)*
            /// End of input.
            Eof,
        }

        impl Tok {
            fn glyph(&self) -> &'static str {
                match self {
                    $(Tok::$tok => $text,)*
                    Tok::Bin(op) => op.glyph(),
                    Tok::Ident(_) | Tok::Str(_) | Tok::Int(_) | Tok::Eof => unreachable!(),
                }
            }

            /// The fixed token spelled `text`: a word, a symbol or a binary
            /// operator.
            fn fixed(text: &str) -> Option<Tok> {
                Some(match text {
                    $($text => Tok::$tok,)*
                    _ => return BinOp::parse(text).map(Tok::Bin),
                })
            }
        }
    };
}

tokens! {
    KwInput "input",
    KwMap "map",
    KwCounter "counter",
    KwHold "hold",
    KwWindow "window",
    KwTrigger "trigger",
    KwWhen "when",
    KwOn "on",
    KwRemove "remove",
    KwAdd "add",
    KwSub "sub",
    KwReset "reset",
    KwInit "init",
    KwOver "over",
    KwIn "in",
    KwTumbling "tumbling",
    KwCount "count",
    KwSum "sum",
    KwSize "size",
    KwMessage "message",
    KwWarn "warn",
    KwError "error",
    True "true",
    False "false",
    Assign ":=",
    LBracket "[",
    RBracket "]",
    LParen "(",
    RParen ")",
    Comma ",",
    Bang "!",
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

/// Tokenizes `src`, ending the stream with an [`Tok::Eof`] token.
///
/// `#` starts a comment running to end of line. Offsets in the returned
/// tokens are relative to `(base_line, base col 1)` so templates embedded in
/// strings can be re-lexed with their own origin.
pub fn lex(src: &str, base_line: u32) -> Result<Vec<Token>, SpecError> {
    let mut out = Vec::new();
    let (mut line, mut col) = (base_line, 1);
    let mut rest = src;
    while let Some(c) = rest.chars().next() {
        let here = |message: &str| SpecError::at(line, col, message);
        // The token's length in bytes, and the token (none for blanks and
        // comments).
        let (len, tok) = match c {
            ' ' | '\t' | '\r' | '\n' => (1, None),
            '#' => (rest.find('\n').unwrap_or(rest.len()), None),
            '"' => {
                let end = rest[1..].find(['"', '\n']).map(|i| i + 1);
                let end = end.filter(|&i| rest[i..].starts_with('"'));
                let end = end.ok_or_else(|| here("unterminated string literal"))?;
                (end + 1, Some(Tok::Str(rest[1..end].to_owned())))
            }
            c if c.is_ascii_digit() => {
                let len = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
                let n =
                    rest[..len].parse().map_err(|_| here("integer literal does not fit in i64"))?;
                (len, Some(Tok::Int(n)))
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
                let len = rest.find(|c| !word(c)).unwrap_or(rest.len());
                let text = &rest[..len];
                (len, Some(Tok::fixed(text).unwrap_or_else(|| Tok::Ident(text.to_owned()))))
            }
            _ => {
                // A symbol: the longest of its two- and one-character texts
                // that spells a token.
                let one = c.len_utf8();
                let two = rest[one..].chars().next().map_or(one, |d| one + d.len_utf8());
                let Some((len, tok)) =
                    [two, one].into_iter().find_map(|len| Some((len, Tok::fixed(&rest[..len])?)))
                else {
                    return Err(here(&format!("unexpected character '{c}'")));
                };
                (len, Some(tok))
            }
        };
        if let Some(tok) = tok {
            out.push(Token { tok, line, col });
        }
        for c in rest[..len].chars() {
            (line, col) = if c == '\n' { (line + 1, 1) } else { (line, col + 1) };
        }
        rest = &rest[len..];
    }
    out.push(Token { tok: Tok::Eof, line, col });
    Ok(out)
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
        let ge = toks.iter().find(|t| t.tok == Tok::Bin(BinOp::Ge)).unwrap();
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
