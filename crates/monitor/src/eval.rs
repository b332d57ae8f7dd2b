//! The incremental evaluator: a [`Monitor`] instantiates a compiled
//! [`Spec`](crate::Spec) and consumes events as a `parbs_obs::EventSink`,
//! so it drops into every simulator entry point that takes a sink.
//!
//! Per event, evaluation runs its kind's plan in two phases (the order is
//! load-bearing for the invariant prelude's verdicts — see `ir.rs`):
//!
//! 1. match the kind's inputs against **pre-update** state (guards),
//! 2. run updates and triggers interleaved in declaration order,
//! 3. run removals and resets last.
//!
//! Keyed state lives in hash tables keyed by a zero-padded `[i64; MAX_KEYS]`
//! built on the stack, so no read or update allocates. A table keeps more
//! than live keys: a counter keeps a key at 0 until `reset`, and a sliding
//! window keeps a key's buffer until that key is next read or pushed.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

use parbs_obs::{Event, EventSink};

use crate::ast::{BinOp, Severity, UnOp};
use crate::fields::Ty;
use crate::ir::{Action, Expr, Part, Removal, StateDef, StateKind, MAX_KEYS};
use crate::Spec;

/// One raised trigger instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Severity declared by the trigger.
    pub severity: Severity,
    /// The trigger's quoted name.
    pub name: String,
    /// Cycle of the event that fired the trigger.
    pub at: u64,
    /// The thread the firing event concerns, when it names exactly one
    /// (part of the `(name, cycle, thread)` verdict the identity tests
    /// compare).
    pub thread: Option<usize>,
    /// Rendered message template.
    pub message: String,
}

impl std::fmt::Display for Alarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} cycle {}: {}", self.severity, self.name, self.at, self.message)
    }
}

/// A key tuple, zero-padded: a stream's arity is fixed, so no keys collide.
type Key = [i64; MAX_KEYS];

/// FxHash, word by word: no monitor table is iterated, so it moves no verdict,
/// and keys a replayed trace crafts to collide can only slow the replay.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let word = word.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// Sliding-window state for one key: the retained events and their total.
#[derive(Debug, Default)]
struct SlideBuf {
    buf: VecDeque<(u64, i64)>,
    total: i64,
}

/// Runtime storage for one state stream.
#[derive(Debug)]
enum Cell {
    Table { map: KeyMap<i64>, default: i64 },
    Sliding { len: u64, per_key: KeyMap<SlideBuf> },
    Tumbling { len: u64, per_key: KeyMap<(u64, i64)> },
}

impl Cell {
    fn new(def: &StateDef) -> Cell {
        match def.kind {
            StateKind::Table { default } => Cell::Table { map: KeyMap::default(), default },
            StateKind::Sliding { len } => Cell::Sliding { len, per_key: KeyMap::default() },
            StateKind::Tumbling { len } => Cell::Tumbling { len, per_key: KeyMap::default() },
        }
    }
}

/// Drops sliding-window entries outside `(now - len, now]`.
fn prune(s: &mut SlideBuf, len: u64, now: u64) {
    while let Some(&(t, v)) = s.buf.front() {
        if t.saturating_add(len) <= now {
            s.total = s.total.wrapping_sub(v);
            s.buf.pop_front();
        } else {
            break;
        }
    }
}

fn read_cell(cell: &mut Cell, keys: &Key, now: u64) -> i64 {
    match cell {
        Cell::Table { map, default } => map.get(keys).copied().unwrap_or(*default),
        Cell::Sliding { len, per_key } => per_key.get_mut(keys).map_or(0, |s| {
            prune(s, *len, now);
            s.total
        }),
        Cell::Tumbling { len, per_key } => {
            per_key
                .get(keys)
                .map_or(0, |&(bucket, total)| if now / *len == bucket { total } else { 0 })
        }
    }
}

fn eval_keys(keys: &[Expr], event: &Event, at: u64, cells: &mut [Cell]) -> Key {
    std::array::from_fn(|i| keys.get(i).map_or(0, |k| eval(k, event, at, cells)))
}

/// Evaluates an expression to `i64` (booleans as 0/1). Reads may prune
/// sliding windows, hence `&mut` cells.
fn eval(e: &Expr, event: &Event, at: u64, cells: &mut [Cell]) -> i64 {
    match e {
        Expr::Int(n) => *n,
        Expr::Bool(b) => i64::from(*b),
        Expr::Field(get) => get(event),
        Expr::Read { state, keys } => {
            let k = eval_keys(keys, event, at, cells);
            read_cell(&mut cells[*state], &k, at)
        }
        Expr::Size(state) => match &cells[*state] {
            Cell::Table { map, .. } => i64::try_from(map.len()).unwrap_or(i64::MAX),
            Cell::Sliding { .. } | Cell::Tumbling { .. } => 0,
        },
        Expr::Un(UnOp::Not, a) => i64::from(eval(a, event, at, cells) == 0),
        Expr::Un(UnOp::Neg, a) => eval(a, event, at, cells).wrapping_neg(),
        Expr::Bin(BinOp::And, a, b) => {
            if eval(a, event, at, cells) == 0 {
                0
            } else {
                i64::from(eval(b, event, at, cells) != 0)
            }
        }
        Expr::Bin(BinOp::Or, a, b) => {
            if eval(a, event, at, cells) != 0 {
                1
            } else {
                i64::from(eval(b, event, at, cells) != 0)
            }
        }
        Expr::Bin(op, a, b) => {
            let x = eval(a, event, at, cells);
            let y = eval(b, event, at, cells);
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                BinOp::Mod => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                BinOp::Lt => i64::from(x < y),
                BinOp::Le => i64::from(x <= y),
                BinOp::Gt => i64::from(x > y),
                BinOp::Ge => i64::from(x >= y),
                BinOp::Eq => i64::from(x == y),
                BinOp::Ne => i64::from(x != y),
                BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
            }
        }
    }
}

/// An online evaluator for one compiled spec over one event stream.
///
/// Implements [`EventSink`], so it attaches anywhere a `JsonlSink` does:
/// `run_observed`, the flow driver, sweeps, or offline replay of a recorded
/// JSONL trace.
#[derive(Debug)]
pub struct Monitor {
    spec: Spec,
    cells: Vec<Cell>,
    matched: Vec<bool>,
    alarms: Vec<Alarm>,
    counts: Vec<u64>,
    /// Total events observed.
    pub events: u64,
}

impl Monitor {
    /// Creates a fresh evaluator for `spec`.
    #[must_use]
    pub fn new(spec: &Spec) -> Monitor {
        let ir = spec.ir();
        Monitor {
            spec: spec.clone(),
            cells: ir.states.iter().map(Cell::new).collect(),
            matched: vec![false; ir.inputs.len()],
            alarms: Vec::new(),
            counts: vec![0; ir.triggers.len()],
            events: 0,
        }
    }

    /// The alarms raised so far, in firing order.
    #[must_use]
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// True when no **error**-severity alarm has fired (warnings are
    /// advisory and do not fail the verdict).
    #[must_use]
    pub fn ok(&self) -> bool {
        self.alarms.iter().all(|a| a.severity != Severity::Error)
    }

    /// Per-trigger firing counts, in declaration order.
    #[must_use]
    pub fn trigger_counts(&self) -> Vec<(&str, Severity, u64)> {
        self.spec
            .ir()
            .triggers
            .iter()
            .zip(&self.counts)
            .map(|(t, &n)| (t.name.as_str(), t.severity, n))
            .collect()
    }

    /// One-line verdict for CLI output.
    #[must_use]
    pub fn summary(&self) -> String {
        let errors = self.alarms.iter().filter(|a| a.severity == Severity::Error).count();
        let warns = self.alarms.len() - errors;
        if self.alarms.is_empty() {
            format!("{} events monitored, 0 alarms", self.events)
        } else {
            format!(
                "{} events monitored, {} ALARM(S) ({errors} error, {warns} warn)",
                self.events,
                self.alarms.len()
            )
        }
    }
}

impl EventSink for Monitor {
    fn record(&mut self, event: &Event) {
        // A split borrow: the compiled IR stays borrowed from `spec` while
        // the evaluation state is updated.
        let Monitor { spec, cells, matched, alarms, counts, events } = self;
        *events += 1;
        let ir = spec.ir();
        let plan = &ir.plans[event.kind() as usize];
        let at = event.at();

        // Guards see pre-update state. The other kinds' inputs keep stale
        // slots, which no step or removal of this plan reads.
        for &i in &plan.inputs {
            matched[i] = ir.inputs[i].guard.as_ref().is_none_or(|g| eval(g, event, at, cells) != 0);
        }

        for step in &plan.steps {
            if !matched[step.input] {
                continue;
            }
            match &step.action {
                Action::Set { state, keys, value } => {
                    let v = eval(value, event, at, cells);
                    let k = eval_keys(keys, event, at, cells);
                    if let Cell::Table { map, .. } = &mut cells[*state] {
                        map.insert(k, v);
                    }
                }
                Action::Add { state, keys, value, neg } => {
                    let mut v = eval(value, event, at, cells);
                    if *neg {
                        v = v.wrapping_neg();
                    }
                    let k = eval_keys(keys, event, at, cells);
                    if let Cell::Table { map, .. } = &mut cells[*state] {
                        let slot = map.entry(k).or_insert(0);
                        *slot = slot.wrapping_add(v);
                    }
                }
                Action::Push { state, keys, value } => {
                    let v = eval(value, event, at, cells);
                    let k = eval_keys(keys, event, at, cells);
                    match &mut cells[*state] {
                        Cell::Sliding { len, per_key } => {
                            let s = per_key.entry(k).or_default();
                            prune(s, *len, at);
                            s.buf.push_back((at, v));
                            s.total = s.total.wrapping_add(v);
                        }
                        Cell::Tumbling { len, per_key } => {
                            let bucket = at / *len;
                            let slot = per_key.entry(k).or_insert((bucket, 0));
                            if slot.0 != bucket {
                                *slot = (bucket, 0);
                            }
                            slot.1 = slot.1.wrapping_add(v);
                        }
                        Cell::Table { .. } => {}
                    }
                }
                Action::Fire { trigger } => {
                    let def = &ir.triggers[*trigger];
                    if eval(&def.cond, event, at, cells) == 0 {
                        continue;
                    }
                    let mut message = String::new();
                    for part in &def.message {
                        match part {
                            Part::Lit(s) => message.push_str(s),
                            Part::Expr(e, ty) => {
                                let v = eval(e, event, at, cells);
                                match ty {
                                    Ty::Bool => {
                                        message.push_str(if v != 0 { "true" } else { "false" });
                                    }
                                    Ty::Int => message.push_str(&v.to_string()),
                                }
                            }
                        }
                    }
                    counts[*trigger] += 1;
                    alarms.push(Alarm {
                        severity: def.severity,
                        name: def.name.clone(),
                        at,
                        thread: def.thread.and_then(|get| usize::try_from(get(event)).ok()),
                        message,
                    });
                }
            }
        }

        for removal in &plan.removals {
            match removal {
                Removal::Entry { input, state, keys } => {
                    if matched[*input] {
                        let k = eval_keys(keys, event, at, cells);
                        if let Cell::Table { map, .. } = &mut cells[*state] {
                            map.remove(&k);
                        }
                    }
                }
                Removal::Clear { input, state } => {
                    if matched[*input] {
                        if let Cell::Table { map, .. } = &mut cells[*state] {
                            map.clear();
                        }
                    }
                }
            }
        }
    }
}
