//! # parbs-monitor — declarative stream monitoring over the obs event bus
//!
//! A small RTLola-style specification language of named streams over
//! [`parbs_obs::Event`]: **input** streams filter the event bus, derived
//! state streams (**map**s, **counter**s, **hold**s, sliding/tumbling
//! **window**s in cycles) aggregate it incrementally in hash tables keyed by
//! up to four integers, and **trigger**s raise alarms with severity and
//! message templates. Specs compile through a hand-rolled parser to a
//! typed IR; a [`Monitor`] evaluates the IR as a `parbs_obs::EventSink`,
//! so the same spec runs **online** (attached to a live simulation) or
//! **offline** (replayed over a recorded JSONL trace) with identical
//! verdicts.
//!
//! ## The language, by example
//!
//! ```text
//! # inputs filter the bus by event kind plus an optional guard
//! input enq  := enqueued when !write
//! input done := completed
//! input bus  := bus_sample
//!
//! # keyed state (at most 4 keys): maps set and remove, counters add/sub/reset
//! map row_of[request] := row on enq, remove on done
//! counter inflight := add 1 on enq, sub 1 on done
//!
//! # scalars and windows
//! hold last_seen := at on done init 0
//! window lat[thread] := sum latency over done in 10000
//!
//! # triggers raise alarms; {exprs} interpolate into the message
//! trigger warn "deep-queue" on bus when queued_reads > 64 message "queue at {queued_reads}"
//! ```
//!
//! Bare names resolve to the firing event's **fields first**, then to
//! 0-key streams (field shadows stream). Expressions are `Int`/`Bool`
//! typed; division by zero yields 0. Per event, updates and triggers run
//! interleaved in declaration order against pre-update guards, and
//! `remove`/`reset` arms run last — the exact semantics the
//! [`prelude::INVARIANTS`] spec's four PAR-BS batching checks rely on.
//!
//! A table holds every key written since it was last removed or reset, not
//! only live ones: a counter keeps a key at 0 until a `reset` (the
//! invariant prelude's `marked_queued[bank, row]` ends a 10,000-requester
//! flow trace of 462,715 events holding 11,935 keys, every one at 0), and
//! a sliding window keeps a key's buffer until that key is next read or
//! pushed. A stream declares at most four keys; a fifth is a compile error
//! at the stream's name.
//!
//! ## One vocabulary
//!
//! Spec inputs name the kinds of `parbs_obs::EventKind`, which the same
//! table as the JSONL writer and reader declares. The readable fields
//! are that table's integer and boolean fields, under their Rust names,
//! plus a few derived ones; each is a type and a projection the checker
//! picks by name at compile time, so the compiled expression holds the
//! projection and a trigger holds its kind's `thread` projection for its
//! alarms. A replayed record that repeats a key is a parse error, never a
//! silently chosen value.
//!
//! ## Entry points
//!
//! - [`Spec::compile`] — parse + typecheck; errors carry `line:col`.
//! - [`Spec::monitor`] / [`Monitor`] — incremental online evaluation.
//! - [`replay_jsonl`] — offline evaluation of a `JsonlSink` trace, streamed
//!   from any `BufRead` one line at a time.
//! - [`prelude`] — built-in specs (`invariants`, `qos`).

mod ast;
mod check;
mod eval;
mod fields;
mod ir;
mod lex;
mod parse;
pub mod prelude;
mod replay;

use std::sync::Arc;

pub use ast::Severity;
pub use eval::{Alarm, Monitor};
pub use replay::{replay_jsonl, ReplayError};

/// A compile error, positioned at a 1-based `line:col` in the spec source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    line: u32,
    col: u32,
    message: String,
}

impl SpecError {
    pub(crate) fn at(line: u32, col: u32, message: impl Into<String>) -> SpecError {
        SpecError { line, col, message: message.into() }
    }

    /// 1-based source line of the error.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// 1-based source column of the error.
    #[must_use]
    pub fn col(&self) -> u32 {
        self.col
    }

    /// The description, without the position prefix.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A compiled monitor spec.
///
/// Cheap to clone (`Arc`-backed) and `Send + Sync`, so one compiled spec
/// can fan out to per-channel [`Monitor`]s across parallel sweep workers.
#[derive(Debug, Clone)]
pub struct Spec {
    ir: Arc<ir::SpecIr>,
}

impl Spec {
    /// Parses and type-checks `src`.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, resolution or type error,
    /// positioned at its 1-based `line:col`.
    pub fn compile(src: &str) -> Result<Spec, SpecError> {
        Ok(Spec { ir: Arc::new(check::compile(src)?) })
    }

    /// Creates a fresh online evaluator for this spec.
    #[must_use]
    pub fn monitor(&self) -> Monitor {
        Monitor::new(self)
    }

    /// Non-fatal observations from compilation (unused streams, very
    /// large sliding windows, trigger-free specs).
    #[must_use]
    pub fn lints(&self) -> &[String] {
        &self.ir.lints
    }

    /// Declared triggers as `(name, severity)`, in declaration order.
    #[must_use]
    pub fn triggers(&self) -> Vec<(String, Severity)> {
        self.ir.triggers.iter().map(|t| (t.name.clone(), t.severity)).collect()
    }

    /// Declared state streams rendered one per line, for `check-spec`
    /// output: `name[arity] : ty (shape)`.
    #[must_use]
    pub fn streams(&self) -> Vec<String> {
        self.ir
            .states
            .iter()
            .map(|s| {
                let shape = match s.kind {
                    ir::StateKind::Table { .. } => "table".to_owned(),
                    ir::StateKind::Sliding { len } => format!("sliding window, {len} cycles"),
                    ir::StateKind::Tumbling { len } => format!("tumbling window, {len} cycles"),
                };
                format!("{}[{} key(s)] : {} ({shape})", s.name, s.arity, s.ty.name())
            })
            .collect()
    }

    /// One-line shape description for `check-spec` output.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} input(s), {} state stream(s), {} trigger(s)",
            self.ir.inputs.len(),
            self.ir.states.len(),
            self.ir.triggers.len()
        )
    }

    pub(crate) fn ir(&self) -> &ir::SpecIr {
        &self.ir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_obs::{Event, EventSink};

    fn spec(src: &str) -> Spec {
        Spec::compile(src).expect("spec compiles")
    }

    fn bus(at: u64, reads: u32, writes: u32) -> Event {
        Event::BusSample { at, busy_banks: 0, queued_reads: reads, queued_writes: writes }
    }

    #[test]
    fn spec_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Spec>();
    }

    #[test]
    fn triggers_render_message_templates() {
        let s = spec(
            "input bus := bus_sample\n\
             trigger warn \"deep\" on bus when queued_reads > 2 \
             message \"reads={queued_reads} writes={queued_writes} deep={queued_reads > 2}\"",
        );
        let mut m = s.monitor();
        m.record(&bus(5, 1, 0));
        m.record(&bus(6, 7, 3));
        assert_eq!(m.events, 2);
        assert_eq!(m.alarms().len(), 1);
        let alarm = &m.alarms()[0];
        assert_eq!(alarm.message, "reads=7 writes=3 deep=true");
        assert_eq!(alarm.at, 6);
        assert_eq!(alarm.severity, Severity::Warn);
        assert!(m.ok(), "warnings do not fail the verdict");
        assert_eq!(m.trigger_counts(), vec![("deep", Severity::Warn, 1)]);
    }

    #[test]
    fn counters_maps_and_removals_follow_two_phase_order() {
        // On `done`, the sub arm reads row_of BEFORE its removal purges it.
        let s = spec(
            "input enq := enqueued when !write\n\
             input done := completed\n\
             map row_of[request] := row on enq, remove on done\n\
             counter per_row[row_of[request]] := add 1 on enq, sub 1 on done\n\
             trigger error \"lingering\" on done when per_row[row_of[request]] > 0 message \"x\"",
        );
        let mut m = s.monitor();
        let enq = |at, request, row| Event::Enqueued {
            at,
            request,
            thread: 0,
            write: false,
            rank: 0,
            bank: 0,
            row,
        };
        let done = |at, request| Event::Completed {
            at,
            request,
            thread: 0,
            write: false,
            arrival: 0,
            finish: at,
        };
        m.record(&enq(0, 1, 9));
        m.record(&enq(1, 2, 9));
        m.record(&done(2, 1));
        // per_row[9] was 2, the sub arm (phase 1) dropped it to 1 before the
        // trigger read it, and row_of[1] was still alive for the keying.
        assert_eq!(m.alarms().len(), 1);
        m.record(&done(3, 2));
        assert_eq!(m.alarms().len(), 1, "second completion empties the row");
    }

    #[test]
    fn sliding_and_tumbling_windows_age_out() {
        let s = spec(
            "input bus := bus_sample\n\
             window slide := sum queued_reads over bus in 10\n\
             window tumble := sum queued_reads over bus in 10 tumbling\n\
             trigger warn \"s\" on bus when slide > 10 message \"{slide}\"\n\
             trigger warn \"t\" on bus when tumble > 10 message \"{tumble}\"",
        );
        let mut m = s.monitor();
        m.record(&bus(1, 8, 0)); // slide 8, tumble 8 (bucket 0)
        m.record(&bus(9, 4, 0)); // slide 12, tumble 12 -> both fire
        m.record(&bus(12, 1, 0)); // slide: entry@1 aged out -> 5; tumble: bucket 1 -> 1
        let fired: Vec<(&str, u64)> = m.alarms().iter().map(|a| (a.name.as_str(), a.at)).collect();
        assert_eq!(fired, vec![("s", 9), ("t", 9)]);
        let slide_msgs: Vec<&str> = m.alarms().iter().map(|a| a.message.as_str()).collect();
        assert_eq!(slide_msgs, vec!["12", "12"]);
    }

    #[test]
    fn guards_see_pre_update_state() {
        // The guard compares against the hold's value from BEFORE this
        // event's own update arm runs.
        let s = spec(
            "input bus := bus_sample when queued_reads > high\n\
             hold high := queued_reads on bus init 0\n\
             trigger warn \"new-high\" on bus when true message \"{queued_reads}\"",
        );
        let mut m = s.monitor();
        m.record(&bus(0, 5, 0)); // 5 > 0: fires, high := 5
        m.record(&bus(1, 3, 0)); // 3 > 5: no
        m.record(&bus(2, 9, 0)); // 9 > 5: fires
        let highs: Vec<&str> = m.alarms().iter().map(|a| a.message.as_str()).collect();
        assert_eq!(highs, vec!["5", "9"]);
    }

    #[test]
    fn size_counts_live_entries() {
        let s = spec(
            "input enq := enqueued\n\
             input done := completed\n\
             map live[request] := 1 on enq, remove on done\n\
             trigger warn \"depth\" on enq when size(live) >= 2 message \"{size(live)}\"",
        );
        let mut m = s.monitor();
        let enq = |at, request| Event::Enqueued {
            at,
            request,
            thread: 0,
            write: false,
            rank: 0,
            bank: 0,
            row: 0,
        };
        m.record(&enq(0, 1));
        m.record(&enq(1, 2));
        assert_eq!(m.alarms().len(), 1);
        assert_eq!(m.alarms()[0].message, "2");
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let s = spec(
            "input bus := bus_sample\n\
             trigger warn \"d\" on bus when queued_reads / queued_writes == 0 && queued_reads % queued_writes == 0 message \"x\"",
        );
        let mut m = s.monitor();
        m.record(&bus(0, 5, 0));
        assert_eq!(m.alarms().len(), 1);
    }
}
