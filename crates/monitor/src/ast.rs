//! Untyped syntax tree produced by the parser, consumed by the checker.
//!
//! Every node carries the 1-based line/column of its first token so the
//! checker can report resolution and type errors at the exact source spot.

use crate::fields::Ty;

/// A node plus the position of its first token.
#[derive(Debug, Clone, PartialEq)]
pub struct Sp<T> {
    /// The wrapped node.
    pub node: T,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl<T> Sp<T> {
    /// Wraps `node` with a position.
    pub fn new(node: T, line: u32, col: u32) -> Self {
        Sp { node, line, col }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Integer negation (`-`).
    Neg,
    /// Boolean negation (`!`).
    Not,
}

/// Declares [`BinOp`] from one `Variant "text" binding-power operand ->
/// result` line per operator: its text (lexer and error messages), how
/// tightly it binds (parser), and the type both operands must have and the
/// type it yields (checker). An operand type of `_` means the operands need
/// only agree.
macro_rules! bin_ops {
    ($($(#[$doc:meta])* $op:ident $text:literal $bp:literal $operand:tt -> $result:ident,)*) => {
        /// Binary operators.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum BinOp {
            $(#[doc = concat!("`", $text, "`")] $(#[$doc])* $op,)*
        }

        impl BinOp {
            /// The operator spelled `text`.
            pub(crate) fn parse(text: &str) -> Option<BinOp> {
                Some(match text {
                    $($text => BinOp::$op,)*
                    _ => return None,
                })
            }

            /// The operator's text.
            pub(crate) fn glyph(self) -> &'static str {
                match self {
                    $(BinOp::$op => $text,)*
                }
            }

            /// How tightly the operator binds; higher binds tighter.
            pub(crate) fn binding_power(self) -> u8 {
                match self {
                    $(BinOp::$op => $bp,)*
                }
            }

            /// The type both operands must have; `None` when they need only
            /// agree.
            pub(crate) fn operands(self) -> Option<Ty> {
                match self {
                    $(BinOp::$op => bin_ops!(@ty $operand),)*
                }
            }

            /// The type of the result.
            pub(crate) fn result(self) -> Ty {
                match self {
                    $(BinOp::$op => Ty::$result,)*
                }
            }
        }
    };
    (@ty _) => { None };
    (@ty $ty:ident) => { Some(Ty::$ty) };
}

bin_ops! {
    Add "+" 4 Int -> Int,
    /// In prefix position, unary minus.
    Sub "-" 4 Int -> Int,
    Mul "*" 5 Int -> Int,
    /// Division by zero yields 0.
    Div "/" 5 Int -> Int,
    /// Modulo by zero yields 0.
    Mod "%" 5 Int -> Int,
    Lt "<" 3 Int -> Bool,
    Le "<=" 3 Int -> Bool,
    Gt ">" 3 Int -> Bool,
    Ge ">=" 3 Int -> Bool,
    Eq "==" 3 _ -> Bool,
    Ne "!=" 3 _ -> Bool,
    /// Short-circuits.
    And "&&" 2 Bool -> Bool,
    /// Short-circuits.
    Or "||" 1 Bool -> Bool,
}

/// An unresolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Bare name: an event field or a 0-key stream (field shadows stream).
    Name(String),
    /// Keyed stream read: `name[k1, k2]`.
    Index(String, Vec<Sp<AExpr>>),
    /// `size(name)` — number of live entries in a keyed map or counter.
    Size(Sp<String>),
    /// Unary operation.
    Un(UnOp, Box<Sp<AExpr>>),
    /// Binary operation.
    Bin(BinOp, Box<Sp<AExpr>>, Box<Sp<AExpr>>),
}

/// One `value on input` arm of a map or hold declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct AValueArm {
    /// Value to store when the input fires.
    pub value: Sp<AExpr>,
    /// Input stream that drives this arm.
    pub input: Sp<String>,
}

/// One `add expr on input` / `sub expr on input` arm of a counter.
#[derive(Debug, Clone, PartialEq)]
pub struct ACounterArm {
    /// True for `sub`, false for `add`.
    pub neg: bool,
    /// Delta to apply when the input fires.
    pub value: Sp<AExpr>,
    /// Input stream that drives this arm.
    pub input: Sp<String>,
}

/// Hold initial value: integer or boolean literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AInit {
    /// Integer literal initial value.
    Int(i64),
    /// Boolean literal initial value.
    Bool(bool),
}

/// Trigger severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Advisory; does not fail [`crate::Monitor::ok`].
    Warn,
    /// A violation; fails [`crate::Monitor::ok`].
    Error,
}

impl Severity {
    /// Lower-case name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum ADecl {
    /// `input name := event_kind [when guard]`
    Input {
        /// Stream name.
        name: Sp<String>,
        /// Event kind name (checked against the catalog later).
        kind: Sp<String>,
        /// Optional guard; the input fires only when it holds.
        guard: Option<Sp<AExpr>>,
    },
    /// `map name[keys] := v on i, ..., remove on j`
    Map {
        /// Stream name.
        name: Sp<String>,
        /// Key expressions (may be empty for a scalar map).
        keys: Vec<Sp<AExpr>>,
        /// Value arms in declaration order.
        arms: Vec<AValueArm>,
        /// Inputs whose firing removes the entry at the evaluated keys.
        removes: Vec<Sp<String>>,
    },
    /// `counter name[keys] := add v on i, sub w on j, reset on k`
    Counter {
        /// Stream name.
        name: Sp<String>,
        /// Key expressions (may be empty for a scalar counter).
        keys: Vec<Sp<AExpr>>,
        /// Add/sub arms in declaration order.
        arms: Vec<ACounterArm>,
        /// Inputs whose firing clears the whole table.
        resets: Vec<Sp<String>>,
    },
    /// `hold name := v on i [init lit]`
    Hold {
        /// Stream name.
        name: Sp<String>,
        /// Value arms in declaration order.
        arms: Vec<AValueArm>,
        /// Value before any arm fires (default `0` / `false`).
        init: Option<Sp<AInit>>,
    },
    /// `window name[keys] := count|sum v over i in N [tumbling]`
    Window {
        /// Stream name.
        name: Sp<String>,
        /// Key expressions (may be empty for a global window).
        keys: Vec<Sp<AExpr>>,
        /// `None` for `count`, `Some(expr)` for `sum expr`.
        sum: Option<Sp<AExpr>>,
        /// Input stream whose firings populate the window.
        input: Sp<String>,
        /// Window length in cycles.
        len: Sp<i64>,
        /// Tumbling (bucketed) instead of sliding.
        tumbling: bool,
    },
    /// `trigger warn|error "name" on i when cond [message "..."]`
    Trigger {
        /// Severity of raised alarms.
        severity: Severity,
        /// Trigger name (quoted; may contain hyphens).
        name: Sp<String>,
        /// Input stream whose firings evaluate the condition.
        input: Sp<String>,
        /// Boolean condition.
        cond: Sp<AExpr>,
        /// Optional message template with `{expr}` holes.
        message: Option<Sp<String>>,
    },
}
