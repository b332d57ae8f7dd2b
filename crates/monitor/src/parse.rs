//! Recursive-descent parser: token stream → untyped [`ADecl`] list.
//!
//! Expressions use Pratt-style precedence climbing on each operator's
//! [`BinOp::binding_power`]: `||` < `&&` < comparisons < `+ -` < `* / %`
//! < unary `! -`.
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

    fn advance(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        let found = &self.peek().tok == tok;
        if found {
            self.advance();
        }
        found
    }

    fn err_here(&self, message: impl Into<String>) -> SpecError {
        let t = self.peek();
        SpecError::at(t.line, t.col, message)
    }

    /// The error at a token that is not `what`.
    fn unexpected(&self, what: &str) -> SpecError {
        self.err_here(format!("expected {what}, found {}", self.peek().tok.describe()))
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), SpecError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Consumes the current token when `pick` accepts it, with its position;
    /// otherwise fails expecting `what`.
    fn take<T>(
        &mut self,
        what: &str,
        pick: impl FnOnce(&Tok) -> Option<T>,
    ) -> Result<Sp<T>, SpecError> {
        let t = self.peek();
        let Some(node) = pick(&t.tok) else { return Err(self.unexpected(what)) };
        let node = Sp::new(node, t.line, t.col);
        self.advance();
        Ok(node)
    }

    fn ident(&mut self, what: &str) -> Result<Sp<String>, SpecError> {
        self.take(what, |t| if let Tok::Ident(name) = t { Some(name.clone()) } else { None })
    }

    fn string(&mut self, what: &str) -> Result<Sp<String>, SpecError> {
        self.take(what, |t| if let Tok::Str(s) = t { Some(s.clone()) } else { None })
    }

    /// One `item`, then one more after each comma.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let mut items = vec![item(self)?];
        while self.eat(&Tok::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Parses the whole token stream into declarations.
    pub(crate) fn spec(&mut self) -> Result<Vec<ADecl>, SpecError> {
        let mut decls = Vec::new();
        loop {
            let decl = match self.peek().tok {
                Tok::Eof => return Ok(decls),
                Tok::KwInput => Self::input,
                Tok::KwMap => Self::map,
                Tok::KwCounter => Self::counter,
                Tok::KwHold => Self::hold,
                Tok::KwWindow => Self::window,
                Tok::KwTrigger => Self::trigger,
                _ => {
                    return Err(self.unexpected(
                        "a declaration (input, map, counter, hold, window or trigger)",
                    ))
                }
            };
            self.advance();
            decls.push(decl(self)?);
        }
    }

    /// A declaration's head after its keyword: the stream name (`what`
    /// when missing), a keyed declaration's `[k1, k2]` and `:=`.
    fn head(&mut self, what: &str, keyed: bool) -> Result<(Sp<String>, Vec<Sp<AExpr>>), SpecError> {
        let name = self.ident(what)?;
        let mut keys = Vec::new();
        if keyed && self.eat(&Tok::LBracket) {
            keys = self.list(Self::expr)?;
            self.expect(&Tok::RBracket, "']' after key list")?;
        }
        self.expect(&Tok::Assign, "':=' after stream name")?;
        Ok((name, keys))
    }

    fn on_input(&mut self) -> Result<Sp<String>, SpecError> {
        self.expect(&Tok::KwOn, "'on'")?;
        self.ident("an input stream name after 'on'")
    }

    /// `value on input`.
    fn value_arm(&mut self) -> Result<AValueArm, SpecError> {
        let value = self.expr()?;
        Ok(AValueArm { value, input: self.on_input()? })
    }

    fn input(&mut self) -> Result<ADecl, SpecError> {
        let (name, _) = self.head("stream name after 'input'", false)?;
        let kind = self.ident("an event kind")?;
        let guard = if self.eat(&Tok::KwWhen) { Some(self.expr()?) } else { None };
        Ok(ADecl::Input { name, kind, guard })
    }

    fn map(&mut self) -> Result<ADecl, SpecError> {
        let (name, keys) = self.head("stream name after 'map'", true)?;
        let (mut arms, mut removes) = (Vec::new(), Vec::new());
        self.list(|p| {
            if p.eat(&Tok::KwRemove) {
                removes.push(p.on_input()?);
            } else {
                arms.push(p.value_arm()?);
            }
            Ok(())
        })?;
        Ok(ADecl::Map { name, keys, arms, removes })
    }

    fn counter(&mut self) -> Result<ADecl, SpecError> {
        let (name, keys) = self.head("stream name after 'counter'", true)?;
        let (mut arms, mut resets) = (Vec::new(), Vec::new());
        self.list(|p| {
            if p.eat(&Tok::KwReset) {
                resets.push(p.on_input()?);
                return Ok(());
            }
            let neg = p.take("'add', 'sub' or 'reset' in counter arm", |t| match t {
                Tok::KwAdd => Some(false),
                Tok::KwSub => Some(true),
                _ => None,
            })?;
            let AValueArm { value, input } = p.value_arm()?;
            arms.push(ACounterArm { neg: neg.node, value, input });
            Ok(())
        })?;
        Ok(ADecl::Counter { name, keys, arms, resets })
    }

    fn hold(&mut self) -> Result<ADecl, SpecError> {
        let (name, _) = self.head("stream name after 'hold'", false)?;
        let arms = self.list(Self::value_arm)?;
        let init = if self.eat(&Tok::KwInit) { Some(self.init()?) } else { None };
        Ok(ADecl::Hold { name, arms, init })
    }

    /// The literal after `init`: an integer, possibly negated, or a boolean.
    fn init(&mut self) -> Result<Sp<AInit>, SpecError> {
        let (line, col) = (self.peek().line, self.peek().col);
        let lit = if self.eat(&Tok::Bin(BinOp::Sub)) {
            self.take("an integer after '-'", |t| match *t {
                Tok::Int(n) => Some(AInit::Int(-n)),
                _ => None,
            })?
        } else {
            self.take("a literal after 'init'", |t| match *t {
                Tok::Int(n) => Some(AInit::Int(n)),
                Tok::True => Some(AInit::Bool(true)),
                Tok::False => Some(AInit::Bool(false)),
                _ => None,
            })?
        };
        Ok(Sp::new(lit.node, line, col))
    }

    fn window(&mut self) -> Result<ADecl, SpecError> {
        let (name, keys) = self.head("stream name after 'window'", true)?;
        let sum = self.take("'count' or 'sum' in window declaration", |t| match t {
            Tok::KwCount => Some(false),
            Tok::KwSum => Some(true),
            _ => None,
        })?;
        let sum = if sum.node { Some(self.expr()?) } else { None };
        self.expect(&Tok::KwOver, "'over'")?;
        let input = self.ident("an input stream name after 'over'")?;
        self.expect(&Tok::KwIn, "'in'")?;
        let len = self.take("a window length in cycles", |t| match *t {
            Tok::Int(n) => Some(n),
            _ => None,
        })?;
        let tumbling = self.eat(&Tok::KwTumbling);
        Ok(ADecl::Window { name, keys, sum, input, len, tumbling })
    }

    fn trigger(&mut self) -> Result<ADecl, SpecError> {
        let severity = self.take("'warn' or 'error' after 'trigger'", |t| match t {
            Tok::KwWarn => Some(Severity::Warn),
            Tok::KwError => Some(Severity::Error),
            _ => None,
        })?;
        let name = self.string("a quoted trigger name")?;
        let input = self.on_input()?;
        self.expect(&Tok::KwWhen, "'when'")?;
        let cond = self.expr()?;
        let message = if self.eat(&Tok::KwMessage) {
            Some(self.string("a quoted message template")?)
        } else {
            None
        };
        Ok(ADecl::Trigger { severity: severity.node, name, input, cond, message })
    }

    /// Parses one expression (entry point also used for message-template holes).
    pub(crate) fn expr(&mut self) -> Result<Sp<AExpr>, SpecError> {
        self.bin_expr(0)
    }

    fn bin_expr(&mut self, min_bp: u8) -> Result<Sp<AExpr>, SpecError> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Tok::Bin(op) = self.peek().tok {
            if op.binding_power() < min_bp {
                break;
            }
            // Each operator nests the tree built so far one level deeper.
            self.nest()?;
            self.advance();
            let rhs = self.bin_expr(op.binding_power() + 1)?;
            let (line, col) = (lhs.line, lhs.col);
            lhs = Sp::new(AExpr::Bin(op, Box::new(lhs), Box::new(rhs)), line, col);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Sp<AExpr>, SpecError> {
        let (line, col) = (self.peek().line, self.peek().col);
        let op = match self.peek().tok {
            Tok::Bang => UnOp::Not,
            Tok::Bin(BinOp::Sub) => UnOp::Neg,
            _ => return self.primary(),
        };
        self.nest()?;
        self.advance();
        let inner = self.unary()?;
        self.depth -= 1;
        Ok(Sp::new(AExpr::Un(op, Box::new(inner)), line, col))
    }

    fn primary(&mut self) -> Result<Sp<AExpr>, SpecError> {
        let t = self.peek().clone();
        let node = match t.tok {
            Tok::Int(n) => AExpr::Int(n),
            Tok::True | Tok::False => AExpr::Bool(t.tok == Tok::True),
            Tok::LParen => {
                self.nest()?;
                self.advance();
                let inner = self.expr()?;
                self.depth -= 1;
                self.expect(&Tok::RParen, "')'")?;
                return Ok(inner);
            }
            Tok::KwSize => {
                self.advance();
                self.expect(&Tok::LParen, "'(' after 'size'")?;
                let name = self.ident("a stream name inside size(..)")?;
                self.expect(&Tok::RParen, "')'")?;
                return Ok(Sp::new(AExpr::Size(name), t.line, t.col));
            }
            Tok::Ident(name) => {
                self.advance();
                if self.peek().tok != Tok::LBracket {
                    return Ok(Sp::new(AExpr::Name(name), t.line, t.col));
                }
                self.nest()?;
                self.advance();
                let keys = self.list(Self::expr)?;
                self.depth -= 1;
                self.expect(&Tok::RBracket, "']' after key list")?;
                return Ok(Sp::new(AExpr::Index(name, keys), t.line, t.col));
            }
            _ => return Err(self.unexpected("an expression")),
        };
        self.advance();
        Ok(Sp::new(node, t.line, t.col))
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
