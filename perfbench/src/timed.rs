//! Timing decorators: each wraps one layer's trait object, delegates every
//! trait method (defaulted ones included) to the real implementation, and
//! adds a timer and a call counter. The counters live in a shared
//! [`Tracer`], which also knows whether the call happened inside a timed
//! `Controller::tick` or `Core::tick`, elsewhere in a cycle loop, or
//! outside the loops, so the loops can subtract nested time and report
//! self times.

use std::cell::Cell;
use std::cmp::Ordering;
use std::rc::Rc;
use std::time::Instant;

use parbs_cpu::{Instr, InstructionStream};
use parbs_dram::{
    Command, KeyLayout, LivenessContract, MemoryScheduler, Request, SchedView, ThreadId,
};
use parbs_obs::{Event, EventSink};
use parbs_snap::{SnapError, SnapReader, SnapWriter};
use parbs_workloads::{RequestSource, SourcedRequest};

/// A timed call site of a decorated layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `MemoryScheduler::priority_key`.
    Key,
    /// `MemoryScheduler::pre_schedule`.
    PreSchedule,
    /// `on_arrival`, `on_command`, `on_complete` and `on_stall_cycles`.
    Hook,
    /// Every other `MemoryScheduler` method.
    SchedOther,
    /// `InstructionStream::next_instr`.
    NextInstr,
    /// `InstructionStream` checkpoint methods.
    StreamOther,
    /// `RequestSource::poll`.
    FlowPoll,
    /// `RequestSource::on_complete`.
    FlowComplete,
    /// `RequestSource::requesters` and `exhausted`.
    SourceOther,
    /// `EventSink::record`.
    Record,
}

const SPANS: usize = 10;

/// The cycle-loop call a decorated call can be nested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Inside `Controller::tick`.
    Ctrl,
    /// Inside `Core::tick`.
    Core,
}

/// Shared accumulators of one traced run: nanoseconds and calls per
/// [`Span`], nested decorator time per [`Tick`], and the cycle-loop
/// counters the bench-side loop copies fill in.
#[derive(Debug, Default)]
pub struct Tracer {
    ns: [Cell<u64>; SPANS],
    calls: [Cell<u64>; SPANS],
    /// `pre_schedule` calls that returned `true`.
    pub dirty: Cell<u64>,
    inside: Cell<Option<Tick>>,
    nested_ns: [Cell<u64>; 2],
    in_loop: Cell<bool>,
    glue_nested_ns: Cell<u64>,
    /// Wall time of the cycle loops.
    pub loop_ns: Cell<u64>,
    /// Time inside `Controller::tick`.
    pub ctrl_tick_ns: Cell<u64>,
    /// `Controller::tick` calls.
    pub ctrl_ticks: Cell<u64>,
    /// Time inside `Core::tick`.
    pub core_tick_ns: Cell<u64>,
    /// `Core::tick` calls.
    pub core_ticks: Cell<u64>,
    /// Processor cycles the loops executed.
    pub cycles: Cell<u64>,
    /// Cycles with no commit, no enqueue and no DRAM command.
    pub quiet_cycles: Cell<u64>,
    /// Sum of `Controller::reads().len()` over DRAM-cycle samples.
    pub read_q_sum: Cell<u64>,
    /// DRAM-cycle samples of the read queue.
    pub read_q_samples: Cell<u64>,
    /// DRAM commands issued (refreshes included).
    pub commands: Cell<u64>,
    /// All-bank refreshes issued.
    pub refreshes: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// Nanoseconds since `t0`.
#[must_use]
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A fresh tracer behind the `Rc` the decorators share.
    #[must_use]
    pub fn shared() -> Rc<Tracer> {
        Rc::new(Tracer::default())
    }

    /// Times `f` as one call of `span`.
    pub fn time<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let dt = ns_since(t0);
        add(&self.ns[span as usize], dt);
        add(&self.calls[span as usize], 1);
        if let Some(tick) = self.inside.get() {
            add(&self.nested_ns[tick as usize], dt);
        } else if self.in_loop.get() {
            add(&self.glue_nested_ns, dt);
        }
        r
    }

    /// Marks the start of a timed cycle loop.
    #[must_use]
    pub fn enter_loop(&self) -> Instant {
        self.in_loop.set(true);
        Instant::now()
    }

    /// Marks the end of the cycle loop started at `t0` and adds its time.
    pub fn leave_loop(&self, t0: Instant) {
        add(&self.loop_ns, ns_since(t0));
        self.in_loop.set(false);
    }

    /// Times `f` as one cycle-loop call of `tick`, marking decorated calls
    /// made meanwhile as nested in it.
    pub fn tick<R>(&self, tick: Tick, f: impl FnOnce() -> R) -> R {
        self.inside.set(Some(tick));
        let t0 = Instant::now();
        let r = f();
        let dt = ns_since(t0);
        self.inside.set(None);
        let (ns, calls) = match tick {
            Tick::Ctrl => (&self.ctrl_tick_ns, &self.ctrl_ticks),
            Tick::Core => (&self.core_tick_ns, &self.core_ticks),
        };
        add(ns, dt);
        add(calls, 1);
        r
    }

    /// Nanoseconds spent in `span`.
    #[must_use]
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize].get()
    }

    /// Calls of `span`.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize].get()
    }

    /// Decorated-call nanoseconds nested inside `tick`.
    #[must_use]
    pub fn nested_ns(&self, tick: Tick) -> u64 {
        self.nested_ns[tick as usize].get()
    }

    /// Decorated-call nanoseconds inside a cycle loop but outside
    /// `Controller::tick` and `Core::tick`: calls the glue makes itself.
    #[must_use]
    pub fn glue_nested_ns(&self) -> u64 {
        self.glue_nested_ns.get()
    }

    /// Adds `n` to a loop counter.
    pub fn count(cell: &Cell<u64>, n: u64) {
        add(cell, n);
    }
}

/// A [`MemoryScheduler`] that times every call into the wrapped policy.
pub struct TimedScheduler {
    inner: Box<dyn MemoryScheduler>,
    tracer: Rc<Tracer>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn MemoryScheduler>, tracer: Rc<Tracer>) -> Self {
        TimedScheduler { inner, tracer }
    }
}

impl MemoryScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.tracer.time(Span::SchedOther, || self.inner.name())
    }

    fn on_arrival(&mut self, req: &Request, now: u64) {
        self.tracer.time(Span::Hook, || self.inner.on_arrival(req, now));
    }

    fn on_complete(&mut self, req: &Request, now: u64) {
        self.tracer.time(Span::Hook, || self.inner.on_complete(req, now));
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let dirty = self.tracer.time(Span::PreSchedule, || self.inner.pre_schedule(queue, view));
        Tracer::count(&self.tracer.dirty, u64::from(dirty));
        dirty
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        self.tracer.time(Span::Key, || self.inner.priority_key(req, view))
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        self.tracer.time(Span::SchedOther, || self.inner.compare(a, b, view))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        self.tracer.time(Span::SchedOther, || self.inner.key_layout())
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        self.tracer.time(Span::SchedOther, || self.inner.liveness_contract())
    }

    fn on_stall_cycles(&mut self, stall_cycles: &[u64], now: u64) {
        self.tracer.time(Span::Hook, || self.inner.on_stall_cycles(stall_cycles, now));
    }

    fn on_command(&mut self, cmd: &Command, req: &Request, now: u64) {
        self.tracer.time(Span::Hook, || self.inner.on_command(cmd, req, now));
    }

    fn set_thread_weight(&mut self, thread: ThreadId, weight: f64) {
        self.tracer.time(Span::SchedOther, || self.inner.set_thread_weight(thread, weight));
    }

    fn debug_summary(&self) -> String {
        self.tracer.time(Span::SchedOther, || self.inner.debug_summary())
    }

    fn set_observing(&mut self, enabled: bool) {
        self.tracer.time(Span::SchedOther, || self.inner.set_observing(enabled));
    }

    fn drain_events(&mut self, out: &mut Vec<Event>) {
        self.tracer.time(Span::SchedOther, || self.inner.drain_events(out));
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.tracer.time(Span::SchedOther, || self.inner.save_state(w));
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tracer.time(Span::SchedOther, || self.inner.restore_state(r))
    }
}

/// An [`InstructionStream`] that times every call into the wrapped stream.
pub struct TimedStream {
    inner: Box<dyn InstructionStream>,
    tracer: Rc<Tracer>,
}

impl TimedStream {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn InstructionStream>, tracer: Rc<Tracer>) -> Self {
        TimedStream { inner, tracer }
    }
}

impl InstructionStream for TimedStream {
    fn next_instr(&mut self) -> Instr {
        self.tracer.time(Span::NextInstr, || self.inner.next_instr())
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.tracer.time(Span::StreamOther, || self.inner.save_state(w));
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tracer.time(Span::StreamOther, || self.inner.restore_state(r))
    }
}

/// A [`RequestSource`] that times every call into the wrapped source.
pub struct TimedSource<S> {
    /// The real source, reachable for its own result accessors.
    pub inner: S,
    tracer: Rc<Tracer>,
}

impl<S: RequestSource> TimedSource<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: S, tracer: Rc<Tracer>) -> Self {
        TimedSource { inner, tracer }
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn requesters(&self) -> usize {
        self.tracer.time(Span::SourceOther, || self.inner.requesters())
    }

    fn poll(&mut self, now: u64, out: &mut Vec<SourcedRequest>) {
        self.tracer.time(Span::FlowPoll, || self.inner.poll(now, out));
    }

    fn on_complete(&mut self, token: u64, now: u64) {
        self.tracer.time(Span::FlowComplete, || self.inner.on_complete(token, now));
    }

    fn exhausted(&self) -> bool {
        self.tracer.time(Span::SourceOther, || self.inner.exhausted())
    }
}

/// An [`EventSink`] that times every event delivered to the wrapped sink.
pub struct TimedSink<K> {
    /// The real sink, reachable for its verdicts after the run.
    pub inner: K,
    tracer: Rc<Tracer>,
}

impl<K: EventSink> TimedSink<K> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: K, tracer: Rc<Tracer>) -> Self {
        TimedSink { inner, tracer }
    }
}

impl<K: EventSink> EventSink for TimedSink<K> {
    fn record(&mut self, event: &Event) {
        self.tracer.time(Span::Record, || self.inner.record(event));
    }
}
