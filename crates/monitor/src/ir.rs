//! Typed, name-resolved intermediate representation a compiled spec
//! evaluates from. Produced by `check`, consumed by `eval`.
//!
//! Evaluation contract (two phases per event, see `eval`):
//!
//! 1. Inputs are matched (kind + guard) against **pre-update** state.
//! 2. [`Step`]s run in declaration order — state updates and trigger
//!    evaluations interleave, so a trigger declared after a counter arm
//!    sees the post-update value (this is what gives the Marking-Cap
//!    trigger its increment-then-check semantics).
//! 3. [`Removal`]s run last, so same-event readers (e.g. a `sub` arm
//!    keyed through a map the event also removes from) still see the
//!    entry.

use crate::ast::{BinOp, Severity, UnOp};
use crate::fields::{EventKind, Field, Ty};

/// A resolved, typed expression.
#[derive(Debug, Clone)]
pub(crate) enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Event field projection.
    Field(Field),
    /// Read of state `state` at the evaluated keys (empty for scalars).
    Read { state: usize, keys: Vec<Expr> },
    /// Number of live entries of a keyed map or counter.
    Size(usize),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation (short-circuit for `&&` / `||`).
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// A matched input stream: an event kind plus an optional guard.
#[derive(Debug, Clone)]
pub(crate) struct InputDef {
    pub name: String,
    pub kind: EventKind,
    pub guard: Option<Expr>,
}

/// Backing storage shape of a state stream.
#[derive(Debug, Clone)]
pub(crate) enum StateKind {
    /// Maps, counters and holds: key tuple → value, absent = `default`.
    Table { default: i64 },
    /// Sliding window: per key, the events of the last `len` cycles.
    Sliding { len: u64 },
    /// Tumbling window: per key, a running total reset every `len` cycles.
    Tumbling { len: u64 },
}

/// One declared state stream.
#[derive(Debug, Clone)]
pub(crate) struct StateDef {
    pub name: String,
    pub arity: usize,
    pub ty: Ty,
    pub kind: StateKind,
}

/// A phase-1 action, bound to the input whose firing executes it.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Store `value` at `keys` (maps, holds).
    Set { state: usize, keys: Vec<Expr>, value: Expr },
    /// Add (`neg` = subtract) `value` at `keys` (counters).
    Add { state: usize, keys: Vec<Expr>, value: Expr, neg: bool },
    /// Append `(at, value)` at `keys` (windows; `count` pushes 1).
    Push { state: usize, keys: Vec<Expr>, value: Expr },
    /// Evaluate trigger `trigger`'s condition; raise an alarm if true.
    Fire { trigger: usize },
}

/// One phase-1 step.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub input: usize,
    pub action: Action,
}

/// A phase-2 removal.
#[derive(Debug, Clone)]
pub(crate) enum Removal {
    /// Drop the entry at the evaluated keys (`remove on` arms).
    Entry { input: usize, state: usize, keys: Vec<Expr> },
    /// Drop every entry (`reset on` arms).
    Clear { input: usize, state: usize },
}

/// One fragment of a rendered alarm message.
#[derive(Debug, Clone)]
pub(crate) enum Part {
    /// Literal text.
    Lit(String),
    /// `{expr}` hole; `Ty` picks integer vs `true`/`false` rendering.
    Expr(Expr, Ty),
}

/// One compiled trigger.
#[derive(Debug, Clone)]
pub(crate) struct TriggerDef {
    pub severity: Severity,
    pub name: String,
    pub cond: Expr,
    pub message: Vec<Part>,
}

/// A fully compiled spec.
#[derive(Debug, Clone)]
pub(crate) struct SpecIr {
    pub inputs: Vec<InputDef>,
    pub states: Vec<StateDef>,
    pub steps: Vec<Step>,
    pub removals: Vec<Removal>,
    pub triggers: Vec<TriggerDef>,
    /// Non-fatal observations (unused streams, very large windows) for
    /// `parbs-sim check-spec`.
    pub lints: Vec<String>,
}
