//! Recursive-descent parser: token stream → untyped [`ADecl`] list.
//!
//! Expressions use Pratt-style precedence climbing:
//! `||` < `&&` < comparisons < `+ -` < `* / %` < unary `! -`.
//!
//! Every parenthesis, index bracket, unary operator and chained binary
//! operator nests the expression tree one level deeper. Past
//! [`MAX_NESTING`] levels the spec is rejected at the token that would go
//! deeper, so no spec can overflow the stack of this parser or of the
//! passes that walk its tree.

use crate::ast::{ACounterArm, ADecl, AExpr, AInit, AValueArm, BinOp, Severity, Sp, UnOp};
use crate::lex::{Tok, Token};
use crate::SpecError;

/// How deeply an expression may nest.
const MAX_NESTING: usize = 256;

pub(crate) struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
}

impl Parser {
    pub(crate) fn new(toks: Vec<Token>) -> Parser {
        Parser { toks, pos: 0, depth: 0 }
    }

    /// Opens one nesting level at the current token, or rejects the spec
    /// there when [`MAX_NESTING`] levels are already open.
    fn nest(&mut self) -> Result<(), SpecError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_here(format!("expression nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if &self.peek().tok == tok {
            self.advance();
            true
        } else {
            false
        }
    }

    fn err_here(&self, message: impl Into<String>) -> SpecError {
        let t = self.peek();
        SpecError::at(t.line, t.col, message)
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<Token, SpecError> {
        if &self.peek().tok == tok {
            Ok(self.advance())
        } else {
            Err(self.err_here(format!("expected {what}, found {}", self.peek().tok.describe())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Sp<String>, SpecError> {
        let t = self.peek().clone();
        if let Tok::Ident(name) = t.tok {
            self.advance();
            Ok(Sp::new(name, t.line, t.col))
        } else {
            Err(self.err_here(format!("expected {what}, found {}", t.tok.describe())))
        }
    }

    fn string(&mut self, what: &str) -> Result<Sp<String>, SpecError> {
        let t = self.peek().clone();
        if let Tok::Str(s) = t.tok {
            self.advance();
            Ok(Sp::new(s, t.line, t.col))
        } else {
            Err(self.err_here(format!("expected {what}, found {}", t.tok.describe())))
        }
    }

    /// Parses the whole token stream into declarations.
    pub(crate) fn spec(&mut self) -> Result<Vec<ADecl>, SpecError> {
        let mut decls = Vec::new();
        loop {
            match self.peek().tok {
                Tok::Eof => return Ok(decls),
                Tok::KwInput => decls.push(self.input()?),
                Tok::KwMap => decls.push(self.map()?),
                Tok::KwCounter => decls.push(self.counter()?),
                Tok::KwHold => decls.push(self.hold()?),
                Tok::KwWindow => decls.push(self.window()?),
                Tok::KwTrigger => decls.push(self.trigger()?),
                _ => {
                    return Err(self.err_here(format!(
                        "expected a declaration (input, map, counter, hold, window or trigger), \
                         found {}",
                        self.peek().tok.describe()
                    )))
                }
            }
        }
    }

    fn input(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let name = self.ident("stream name after 'input'")?;
        self.expect(&Tok::Assign, "':=' after stream name")?;
        let kind = self.ident("an event kind")?;
        let guard = if self.eat(&Tok::KwWhen) { Some(self.expr()?) } else { None };
        Ok(ADecl::Input { name, kind, guard })
    }

    /// Parses `[k1, k2]` after a state name; empty when absent.
    fn key_list(&mut self) -> Result<Vec<Sp<AExpr>>, SpecError> {
        let mut keys = Vec::new();
        if self.eat(&Tok::LBracket) {
            loop {
                keys.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBracket, "']' after key list")?;
        }
        Ok(keys)
    }

    fn on_input(&mut self) -> Result<Sp<String>, SpecError> {
        self.expect(&Tok::KwOn, "'on'")?;
        self.ident("an input stream name after 'on'")
    }

    fn map(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let name = self.ident("stream name after 'map'")?;
        let keys = self.key_list()?;
        self.expect(&Tok::Assign, "':=' after stream name")?;
        let mut arms = Vec::new();
        let mut removes = Vec::new();
        loop {
            if self.eat(&Tok::KwRemove) {
                removes.push(self.on_input()?);
            } else {
                let value = self.expr()?;
                let input = self.on_input()?;
                arms.push(AValueArm { value, input });
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(ADecl::Map { name, keys, arms, removes })
    }

    fn counter(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let name = self.ident("stream name after 'counter'")?;
        let keys = self.key_list()?;
        self.expect(&Tok::Assign, "':=' after stream name")?;
        let mut arms = Vec::new();
        let mut resets = Vec::new();
        loop {
            if self.eat(&Tok::KwReset) {
                resets.push(self.on_input()?);
            } else {
                let neg = match &self.peek().tok {
                    Tok::KwAdd => false,
                    Tok::KwSub => true,
                    other => {
                        return Err(self.err_here(format!(
                            "expected 'add', 'sub' or 'reset' in counter arm, found {}",
                            other.describe()
                        )))
                    }
                };
                self.advance();
                let value = self.expr()?;
                let input = self.on_input()?;
                arms.push(ACounterArm { neg, value, input });
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(ADecl::Counter { name, keys, arms, resets })
    }

    fn hold(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let name = self.ident("stream name after 'hold'")?;
        self.expect(&Tok::Assign, "':=' after stream name")?;
        let mut arms = Vec::new();
        loop {
            let value = self.expr()?;
            let input = self.on_input()?;
            arms.push(AValueArm { value, input });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let init = if self.eat(&Tok::KwInit) {
            let (line, col) = (self.peek().line, self.peek().col);
            let lit = match self.peek().tok.clone() {
                Tok::Int(n) => {
                    self.advance();
                    AInit::Int(n)
                }
                Tok::Minus => {
                    self.advance();
                    let Tok::Int(n) = self.peek().tok.clone() else {
                        return Err(self.err_here(format!(
                            "expected an integer after '-', found {}",
                            self.peek().tok.describe()
                        )));
                    };
                    self.advance();
                    AInit::Int(-n)
                }
                Tok::True => {
                    self.advance();
                    AInit::Bool(true)
                }
                Tok::False => {
                    self.advance();
                    AInit::Bool(false)
                }
                other => {
                    return Err(self.err_here(format!(
                        "expected a literal after 'init', found {}",
                        other.describe()
                    )))
                }
            };
            Some(Sp::new(lit, line, col))
        } else {
            None
        };
        Ok(ADecl::Hold { name, arms, init })
    }

    fn window(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let name = self.ident("stream name after 'window'")?;
        let keys = self.key_list()?;
        self.expect(&Tok::Assign, "':=' after stream name")?;
        let sum = match &self.peek().tok {
            Tok::KwCount => {
                self.advance();
                None
            }
            Tok::KwSum => {
                self.advance();
                Some(self.expr()?)
            }
            other => {
                return Err(self.err_here(format!(
                    "expected 'count' or 'sum' in window declaration, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(&Tok::KwOver, "'over'")?;
        let input = self.ident("an input stream name after 'over'")?;
        self.expect(&Tok::KwIn, "'in'")?;
        let t = self.peek().clone();
        let Tok::Int(n) = t.tok else {
            return Err(self.err_here(format!(
                "expected a window length in cycles, found {}",
                t.tok.describe()
            )));
        };
        self.advance();
        let len = Sp::new(n, t.line, t.col);
        let tumbling = self.eat(&Tok::KwTumbling);
        Ok(ADecl::Window { name, keys, sum, input, len, tumbling })
    }

    fn trigger(&mut self) -> Result<ADecl, SpecError> {
        self.advance();
        let severity = match &self.peek().tok {
            Tok::KwWarn => Severity::Warn,
            Tok::KwError => Severity::Error,
            other => {
                return Err(self.err_here(format!(
                    "expected 'warn' or 'error' after 'trigger', found {}",
                    other.describe()
                )))
            }
        };
        self.advance();
        let name = self.string("a quoted trigger name")?;
        let input = self.on_input()?;
        self.expect(&Tok::KwWhen, "'when'")?;
        let cond = self.expr()?;
        let message = if self.eat(&Tok::KwMessage) {
            Some(self.string("a quoted message template")?)
        } else {
            None
        };
        Ok(ADecl::Trigger { severity, name, input, cond, message })
    }

    /// Parses one expression (entry point also used for message-template holes).
    pub(crate) fn expr(&mut self) -> Result<Sp<AExpr>, SpecError> {
        self.bin_expr(0)
    }

    /// The binary operator at the current token and its binding power.
    fn bin_op(&self) -> Option<(BinOp, u8)> {
        Some(match &self.peek().tok {
            Tok::OrOr => (BinOp::Or, 1),
            Tok::AndAnd => (BinOp::And, 2),
            Tok::Lt => (BinOp::Lt, 3),
            Tok::Le => (BinOp::Le, 3),
            Tok::Gt => (BinOp::Gt, 3),
            Tok::Ge => (BinOp::Ge, 3),
            Tok::EqEq => (BinOp::Eq, 3),
            Tok::Ne => (BinOp::Ne, 3),
            Tok::Plus => (BinOp::Add, 4),
            Tok::Minus => (BinOp::Sub, 4),
            Tok::Star => (BinOp::Mul, 5),
            Tok::Slash => (BinOp::Div, 5),
            Tok::Percent => (BinOp::Mod, 5),
            _ => return None,
        })
    }

    fn bin_expr(&mut self, min_bp: u8) -> Result<Sp<AExpr>, SpecError> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Some((bin, bp)) = self.bin_op().filter(|&(_, bp)| bp >= min_bp) {
            // Each operator nests the tree built so far one level deeper.
            self.nest()?;
            self.advance();
            let rhs = self.bin_expr(bp + 1)?;
            let (line, col) = (lhs.line, lhs.col);
            lhs = Sp::new(AExpr::Bin(bin, Box::new(lhs), Box::new(rhs)), line, col);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Sp<AExpr>, SpecError> {
        let t = self.peek().clone();
        let op = match t.tok {
            Tok::Bang => UnOp::Not,
            Tok::Minus => UnOp::Neg,
            _ => return self.primary(),
        };
        self.nest()?;
        self.advance();
        let inner = self.unary()?;
        self.depth -= 1;
        Ok(Sp::new(AExpr::Un(op, Box::new(inner)), t.line, t.col))
    }

    fn primary(&mut self) -> Result<Sp<AExpr>, SpecError> {
        let t = self.peek().clone();
        match t.tok {
            Tok::Int(n) => {
                self.advance();
                Ok(Sp::new(AExpr::Int(n), t.line, t.col))
            }
            Tok::True => {
                self.advance();
                Ok(Sp::new(AExpr::Bool(true), t.line, t.col))
            }
            Tok::False => {
                self.advance();
                Ok(Sp::new(AExpr::Bool(false), t.line, t.col))
            }
            Tok::LParen => {
                self.nest()?;
                self.advance();
                let inner = self.expr()?;
                self.depth -= 1;
                self.expect(&Tok::RParen, "')'")?;
                Ok(inner)
            }
            Tok::KwSize => {
                self.advance();
                self.expect(&Tok::LParen, "'(' after 'size'")?;
                let name = self.ident("a stream name inside size(..)")?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(Sp::new(AExpr::Size(name), t.line, t.col))
            }
            Tok::Ident(name) => {
                self.advance();
                if self.peek().tok == Tok::LBracket {
                    self.nest()?;
                    self.advance();
                    let mut keys = Vec::new();
                    loop {
                        keys.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.depth -= 1;
                    self.expect(&Tok::RBracket, "']' after key list")?;
                    Ok(Sp::new(AExpr::Index(name, keys), t.line, t.col))
                } else {
                    Ok(Sp::new(AExpr::Name(name), t.line, t.col))
                }
            }
            other => {
                Err(self.err_here(format!("expected an expression, found {}", other.describe())))
            }
        }
    }

    /// True when every token has been consumed (used for template holes).
    pub(crate) fn at_eof(&self) -> bool {
        self.peek().tok == Tok::Eof
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> Result<Vec<ADecl>, SpecError> {
        Parser::new(lex(src, 1)?).spec()
    }

    #[test]
    fn parses_each_declaration_form() {
        let decls = parse(
            "input enq := enqueued when !write\n\
             map row_of[request] := row on enq, remove on enq\n\
             counter marks[thread, bank] := add 1 on enq, sub 2 on enq, reset on enq\n\
             hold cap := cap on enq init 0\n\
             window svc[thread] := count over enq in 10000 tumbling\n\
             trigger error \"x-y\" on enq when 1 + 2 * 3 == 7 message \"t={thread}\"\n",
        )
        .unwrap();
        assert_eq!(decls.len(), 6);
        let ADecl::Trigger { cond, .. } = &decls[5] else { panic!("trigger") };
        // Precedence: 1 + (2 * 3) == 7.
        let AExpr::Bin(BinOp::Eq, lhs, _) = &cond.node else { panic!("== at top") };
        let AExpr::Bin(BinOp::Add, _, mul) = &lhs.node else { panic!("+ under ==") };
        assert!(matches!(mul.node, AExpr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn reports_positions_in_parse_errors() {
        let err = parse("map x := 1 over y").unwrap_err();
        assert_eq!(err.to_string(), "1:12: expected 'on', found 'over'");
        let err = parse("trigger info \"x\" on y when true").unwrap_err();
        assert_eq!(
            err.to_string(),
            "1:9: expected 'warn' or 'error' after 'trigger', found 'info'"
        );
        let err = parse("input x := ").unwrap_err();
        assert_eq!(err.to_string(), "1:12: expected an event kind, found end of spec");
    }

    /// The error of `input x := enqueued when ` followed by `guard`.
    fn guard_error(guard: &str) -> String {
        parse(&format!("input x := enqueued when {guard}")).unwrap_err().to_string()
    }

    #[test]
    fn deep_nesting_fails_with_the_position_instead_of_overflowing() {
        // `(unit, k)`: the guard repeats `unit`, whose `k`-th character
        // opens a nesting level. The guard starts at column 26, so the
        // level past the limit opens at column 26 + MAX_NESTING * len + k.
        let limit = format!("expression nests deeper than {MAX_NESTING} levels");
        for (unit, k) in [("(", 0), ("!", 0), ("-", 0), ("a[", 1), ("1+", 1)] {
            let e = guard_error(&format!("{}1", unit.repeat(100_000)));
            let col = 26 + MAX_NESTING * unit.len() + k;
            assert_eq!(e, format!("1:{col}: {limit}"), "{unit}");
        }
        // At the limit the expression still parses.
        let deepest = format!("{}1{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        parse(&format!("input x := enqueued when {deepest}")).unwrap();
        parse(&format!("input x := enqueued when {}true", "!".repeat(MAX_NESTING))).unwrap();
    }
}
