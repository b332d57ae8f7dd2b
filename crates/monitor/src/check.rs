//! Name resolution and type checking: [`ADecl`] list → [`SpecIr`].
//!
//! Two passes. Pass 1 registers every stream name (inputs and states share
//! one namespace) and resolves event kinds. Pass 2 walks declarations in
//! order, resolving expressions against the event kind of the input each
//! arm fires on — a bare name resolves to an event **field first**, then to
//! a 0-key state stream (field shadows state), so `cap` means the payload
//! field inside a `batch_formed` arm and the hold elsewhere.

use std::collections::HashMap;
use std::collections::HashSet;

use parbs_obs::EventKind;

use crate::ast::{ADecl, AExpr, AInit, Sp, UnOp};
use crate::fields::{self, Ty};
use crate::ir::{
    Action, Expr, InputDef, Part, Plan, Removal, SpecIr, StateDef, StateKind, Step, TriggerDef,
    MAX_KEYS,
};
use crate::lex::lex;
use crate::parse::Parser;
use crate::SpecError;

/// Compiles spec source to IR.
pub(crate) fn compile(src: &str) -> Result<SpecIr, SpecError> {
    let decls = Parser::new(lex(src, 1)?).spec()?;
    let plans = vec![Plan::default(); EventKind::ALL.len()];
    Checker { plans, ..Checker::default() }.run(decls)
}

/// Pass-1 metadata for one state stream; `ty` stays `None` for a hold with
/// no `init` until its own declaration is checked.
struct StateMeta {
    name: String,
    arity: usize,
    ty: Option<Ty>,
    kind: StateKind,
}

#[derive(Default)]
struct Checker {
    inputs: Vec<InputDef>,
    input_names: HashMap<String, usize>,
    states: Vec<StateMeta>,
    state_names: HashMap<String, usize>,
    plans: Vec<Plan>,
    triggers: Vec<TriggerDef>,
    read_states: HashSet<usize>,
    used_inputs: HashSet<usize>,
}

fn err(line: u32, col: u32, message: impl Into<String>) -> SpecError {
    SpecError::at(line, col, message)
}

impl Checker {
    fn run(mut self, decls: Vec<ADecl>) -> Result<SpecIr, SpecError> {
        self.declare(&decls)?;
        for decl in &decls {
            self.resolve_decl(decl)?;
        }
        let lints = self.lints();
        let states = self
            .states
            .into_iter()
            .map(|m| StateDef {
                name: m.name,
                arity: m.arity,
                ty: m.ty.unwrap_or(Ty::Int),
                kind: m.kind,
            })
            .collect();
        Ok(SpecIr {
            inputs: self.inputs,
            states,
            plans: self.plans,
            triggers: self.triggers,
            lints,
        })
    }

    /// Pass 1: register every name; resolve event kinds and window shapes.
    fn declare(&mut self, decls: &[ADecl]) -> Result<(), SpecError> {
        for decl in decls {
            let (name, arity, ty, kind) = match decl {
                ADecl::Input { name, kind, .. } => {
                    self.fresh(name)?;
                    let Some(kind_id) = EventKind::parse(&kind.node) else {
                        return Err(err(
                            kind.line,
                            kind.col,
                            format!(
                                "unknown event kind '{}' (expected one of {})",
                                kind.node,
                                EventKind::ALL.map(EventKind::name).join(", ")
                            ),
                        ));
                    };
                    self.input_names.insert(name.node.clone(), self.inputs.len());
                    self.plans[kind_id as usize].inputs.push(self.inputs.len());
                    self.inputs.push(InputDef {
                        name: name.node.clone(),
                        kind: kind_id,
                        guard: None,
                    });
                    continue;
                }
                ADecl::Map { name, keys, .. } | ADecl::Counter { name, keys, .. } => {
                    (name, keys.len(), Some(Ty::Int), StateKind::Table { default: 0 })
                }
                ADecl::Hold { name, init, .. } => {
                    let (ty, default) = match init.as_ref().map(|i| i.node) {
                        Some(AInit::Int(n)) => (Some(Ty::Int), n),
                        Some(AInit::Bool(b)) => (Some(Ty::Bool), i64::from(b)),
                        None => (None, 0),
                    };
                    (name, 0, ty, StateKind::Table { default })
                }
                ADecl::Window { name, keys, len, tumbling, .. } => {
                    let Ok(cycles @ 1..) = u64::try_from(len.node) else {
                        return Err(err(
                            len.line,
                            len.col,
                            format!("window '{}' length must be positive", name.node),
                        ));
                    };
                    let kind = if *tumbling {
                        StateKind::Tumbling { len: cycles }
                    } else {
                        StateKind::Sliding { len: cycles }
                    };
                    (name, keys.len(), Some(Ty::Int), kind)
                }
                ADecl::Trigger { .. } => continue,
            };
            self.fresh(name)?;
            if arity > MAX_KEYS {
                let message = format!("'{}' has {arity} keys; the limit is {MAX_KEYS}", name.node);
                return Err(err(name.line, name.col, message));
            }
            self.state_names.insert(name.node.clone(), self.states.len());
            self.states.push(StateMeta { name: name.node.clone(), arity, ty, kind });
        }
        Ok(())
    }

    fn fresh(&mut self, name: &Sp<String>) -> Result<(), SpecError> {
        if self.input_names.contains_key(&name.node) || self.state_names.contains_key(&name.node) {
            return Err(err(name.line, name.col, format!("duplicate stream name '{}'", name.node)));
        }
        Ok(())
    }

    fn plan(&mut self, input: usize) -> &mut Plan {
        &mut self.plans[self.inputs[input].kind as usize]
    }

    /// Resolves an `on <input>` target, marking the input used.
    fn input_idx(&mut self, name: &Sp<String>) -> Result<usize, SpecError> {
        if let Some(&i) = self.input_names.get(&name.node) {
            self.used_inputs.insert(i);
            return Ok(i);
        }
        if self.state_names.contains_key(&name.node) {
            return Err(err(
                name.line,
                name.col,
                format!("'{}' is not an input stream", name.node),
            ));
        }
        Err(err(name.line, name.col, format!("unknown input '{}'", name.node)))
    }

    /// Pass 2: resolve one declaration's expressions and emit IR.
    fn resolve_decl(&mut self, decl: &ADecl) -> Result<(), SpecError> {
        match decl {
            ADecl::Input { name, guard, .. } => {
                if let Some(g) = guard {
                    let idx = self.input_names[&name.node];
                    let guard = self.typed(g, self.inputs[idx].kind, Ty::Bool, "input guard")?;
                    self.inputs[idx].guard = Some(guard);
                }
            }
            ADecl::Map { name, keys, arms, removes } => {
                let state = self.state_names[&name.node];
                for arm in arms {
                    self.update(&arm.input, keys, Some(&arm.value), "map value", |keys, value| {
                        Action::Set { state, keys, value }
                    })?;
                }
                for target in removes {
                    let input = self.input_idx(target)?;
                    let keys = self.resolve_keys(keys, self.inputs[input].kind)?;
                    self.plan(input).removals.push(Removal::Entry { input, state, keys });
                }
            }
            ADecl::Counter { name, keys, arms, resets } => {
                let state = self.state_names[&name.node];
                for arm in arms {
                    self.update(
                        &arm.input,
                        keys,
                        Some(&arm.value),
                        "counter delta",
                        |keys, value| Action::Add { state, keys, value, neg: arm.neg },
                    )?;
                }
                for target in resets {
                    let input = self.input_idx(target)?;
                    self.plan(input).removals.push(Removal::Clear { input, state });
                }
            }
            ADecl::Hold { name, arms, .. } => {
                let state = self.state_names[&name.node];
                for arm in arms {
                    let input = self.input_idx(&arm.input)?;
                    let kind = self.inputs[input].kind;
                    let (value, ty) = self.resolve(&arm.value, kind)?;
                    match self.states[state].ty {
                        None => self.states[state].ty = Some(ty),
                        Some(expected) if expected != ty => {
                            return Err(err(
                                arm.value.line,
                                arm.value.col,
                                format!(
                                    "hold '{}' is {}, found {}",
                                    name.node,
                                    expected.name(),
                                    ty.name()
                                ),
                            ));
                        }
                        Some(_) => {}
                    }
                    self.plan(input).steps.push(Step {
                        input,
                        action: Action::Set { state, keys: Vec::new(), value },
                    });
                }
            }
            ADecl::Window { name, keys, sum, input, .. } => {
                let state = self.state_names[&name.node];
                self.update(input, keys, sum.as_ref(), "window sum", |keys, value| Action::Push {
                    state,
                    keys,
                    value,
                })?;
            }
            ADecl::Trigger { severity, name, input, cond, message } => {
                let input = self.input_idx(input)?;
                let kind = self.inputs[input].kind;
                let cond = self.typed(cond, kind, Ty::Bool, "trigger condition")?;
                let parts = match message {
                    Some(template) => self.template(template, kind)?,
                    None => vec![Part::Lit(name.node.clone())],
                };
                let trigger = self.triggers.len();
                self.triggers.push(TriggerDef {
                    severity: *severity,
                    name: name.node.clone(),
                    cond,
                    message: parts,
                    thread: fields::lookup(kind, "thread").map(|f| f.get),
                });
                self.plan(input).steps.push(Step { input, action: Action::Fire { trigger } });
            }
        }
        Ok(())
    }

    /// Resolves one Int-valued update arm — its input, the stream's `keys`
    /// on that input's event kind and its `value` (1 when absent; `what`
    /// names it in a type error) — and pushes the step `action` builds.
    fn update(
        &mut self,
        input: &Sp<String>,
        keys: &[Sp<AExpr>],
        value: Option<&Sp<AExpr>>,
        what: &str,
        action: impl FnOnce(Vec<Expr>, Expr) -> Action,
    ) -> Result<(), SpecError> {
        let input = self.input_idx(input)?;
        let kind = self.inputs[input].kind;
        let keys = self.resolve_keys(keys, kind)?;
        let value = match value {
            Some(v) => self.typed(v, kind, Ty::Int, what)?,
            None => Expr::Int(1),
        };
        self.plan(input).steps.push(Step { input, action: action(keys, value) });
        Ok(())
    }

    fn resolve_keys(
        &mut self,
        keys: &[Sp<AExpr>],
        kind: EventKind,
    ) -> Result<Vec<Expr>, SpecError> {
        keys.iter().map(|k| self.typed(k, kind, Ty::Int, "stream keys")).collect()
    }

    /// Resolves `e`, which must be of type `want`; `what` names it in the
    /// error.
    fn typed(
        &mut self,
        e: &Sp<AExpr>,
        kind: EventKind,
        want: Ty,
        what: &str,
    ) -> Result<Expr, SpecError> {
        let (expr, ty) = self.resolve(e, kind)?;
        if ty != want {
            let message = format!("{what} must be {}, found {}", want.name(), ty.name());
            return Err(err(e.line, e.col, message));
        }
        Ok(expr)
    }

    fn resolve(&mut self, e: &Sp<AExpr>, kind: EventKind) -> Result<(Expr, Ty), SpecError> {
        match &e.node {
            AExpr::Int(n) => Ok((Expr::Int(*n), Ty::Int)),
            AExpr::Bool(b) => Ok((Expr::Bool(*b), Ty::Bool)),
            AExpr::Name(n) => {
                if let Some(field) = fields::lookup(kind, n) {
                    return Ok((Expr::Field(field.get), field.ty));
                }
                if let Some(&si) = self.state_names.get(n) {
                    let (arity, ty) = (self.states[si].arity, self.states[si].ty);
                    if arity != 0 {
                        return Err(err(e.line, e.col, format!("'{n}' expects {arity} key(s)")));
                    }
                    let Some(ty) = ty else {
                        return Err(err(
                            e.line,
                            e.col,
                            format!(
                                "hold '{n}' is read before its type is known (declare it \
                                 earlier or give it an 'init')"
                            ),
                        ));
                    };
                    self.read_states.insert(si);
                    return Ok((Expr::Read { state: si, keys: Vec::new() }, ty));
                }
                if self.input_names.contains_key(n) {
                    return Err(err(
                        e.line,
                        e.col,
                        format!("'{n}' is an input stream, not a value"),
                    ));
                }
                Err(err(
                    e.line,
                    e.col,
                    format!("unknown name '{n}' on event kind '{}'", kind.name()),
                ))
            }
            AExpr::Index(n, keys) => {
                let Some(&si) = self.state_names.get(n) else {
                    if fields::lookup(kind, n).is_some() {
                        return Err(err(
                            e.line,
                            e.col,
                            format!("'{n}' is an event field, not a keyed stream"),
                        ));
                    }
                    return Err(err(e.line, e.col, format!("unknown stream '{n}'")));
                };
                let (arity, ty) = (self.states[si].arity, self.states[si].ty);
                if arity != keys.len() {
                    return Err(err(
                        e.line,
                        e.col,
                        format!("'{n}' expects {arity} key(s), got {}", keys.len()),
                    ));
                }
                self.read_states.insert(si);
                let rkeys = self.resolve_keys(keys, kind)?;
                Ok((Expr::Read { state: si, keys: rkeys }, ty.unwrap_or(Ty::Int)))
            }
            AExpr::Size(name) => {
                let Some(&si) = self.state_names.get(&name.node) else {
                    return Err(err(
                        name.line,
                        name.col,
                        format!("unknown stream '{}'", name.node),
                    ));
                };
                // Only keyed maps and counters (keyed tables) have a size.
                let state = &self.states[si];
                if state.arity == 0 || !matches!(state.kind, StateKind::Table { .. }) {
                    return Err(err(
                        name.line,
                        name.col,
                        format!(
                            "size() expects a keyed map or counter, '{}' is not one",
                            name.node
                        ),
                    ));
                }
                self.read_states.insert(si);
                Ok((Expr::Size(si), Ty::Int))
            }
            AExpr::Un(op, inner) => {
                let (ie, ty) = self.resolve(inner, kind)?;
                let (want, what) = match op {
                    UnOp::Not => (Ty::Bool, "'!' expects a Bool operand"),
                    UnOp::Neg => (Ty::Int, "unary '-' expects an Int operand"),
                };
                if ty != want {
                    return Err(err(e.line, e.col, format!("{what}, found {}", ty.name())));
                }
                Ok((Expr::Un(*op, Box::new(ie)), ty))
            }
            AExpr::Bin(op, lhs, rhs) => {
                let (le, lty) = self.resolve(lhs, kind)?;
                let (re, rty) = self.resolve(rhs, kind)?;
                let message = match op.operands() {
                    None if lty != rty => {
                        format!("cannot compare {} with {}", lty.name(), rty.name())
                    }
                    Some(want) if lty != want || rty != want => {
                        let bad = if lty == want { rty } else { lty };
                        format!(
                            "'{}' expects {} operands, found {}",
                            op.glyph(),
                            want.name(),
                            bad.name()
                        )
                    }
                    _ => return Ok((Expr::Bin(*op, Box::new(le), Box::new(re)), op.result())),
                };
                Err(err(e.line, e.col, message))
            }
        }
    }

    /// Splits a message template into literal and `{expr}` parts; hole
    /// errors are re-reported at the template string's position.
    fn template(&mut self, s: &Sp<String>, kind: EventKind) -> Result<Vec<Part>, SpecError> {
        let wrap = |inner: SpecError| {
            err(s.line, s.col, format!("in message template: {}", inner.message()))
        };
        let mut parts = Vec::new();
        let mut lit = String::new();
        let mut chars = s.node.chars();
        while let Some(c) = chars.next() {
            if c != '{' {
                lit.push(c);
                continue;
            }
            let mut hole = String::new();
            loop {
                match chars.next() {
                    None => return Err(err(s.line, s.col, "unterminated '{' in message template")),
                    Some('}') => break,
                    Some(c) => hole.push(c),
                }
            }
            if !lit.is_empty() {
                parts.push(Part::Lit(std::mem::take(&mut lit)));
            }
            let aexpr = (|| {
                let mut parser = Parser::new(lex(&hole, 1)?);
                let aexpr = parser.expr()?;
                if !parser.at_eof() {
                    return Err(SpecError::at(1, 1, "trailing tokens after expression"));
                }
                Ok(aexpr)
            })()
            .map_err(wrap)?;
            let (expr, ty) = self.resolve(&aexpr, kind).map_err(wrap)?;
            parts.push(Part::Expr(expr, ty));
        }
        if !lit.is_empty() {
            parts.push(Part::Lit(lit));
        }
        Ok(parts)
    }

    /// Non-fatal observations for `check-spec`.
    fn lints(&self) -> Vec<String> {
        let mut lints = Vec::new();
        if self.triggers.is_empty() {
            lints.push("spec declares no triggers; it can never raise an alarm".to_owned());
        }
        for (i, input) in self.inputs.iter().enumerate() {
            if !self.used_inputs.contains(&i) {
                lints.push(format!("input '{}' is never used", input.name));
            }
        }
        for (i, state) in self.states.iter().enumerate() {
            if !self.read_states.contains(&i) {
                lints.push(format!("stream '{}' is never read", state.name));
            }
            if let StateKind::Sliding { len: len @ 1_000_000.. } = state.kind {
                lints.push(format!(
                    "window '{}' spans {len} cycles; sliding windows buffer every event in \
                     the span, consider a tumbling window",
                    state.name
                ));
            }
        }
        lints
    }
}
