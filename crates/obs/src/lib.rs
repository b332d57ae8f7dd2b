//! # parbs-obs — structured observability for the PAR-BS simulator
//!
//! The paper argues through per-cycle service-order evidence: which bank
//! serves which thread's request on which cycle, when batches form and
//! drain, how threads are ranked. This crate turns those occurrences into a
//! typed [`Event`] stream that instrumented components (the DRAM controller,
//! the schedulers, the sim runner) push into a pluggable [`EventSink`].
//!
//! ## Shipped sinks
//!
//! - [`CounterSink`] — a one-line rollup (event count, thread and bank
//!   spans, batches, read latency) over a `parbs-metrics` histogram.
//! - [`ChromeTraceSink`] — `chrome://tracing` / Perfetto JSON with one track
//!   per bank, one per thread, and batch spans on a scheduler track.
//! - [`JsonlSink`] — one JSON object per event, for streaming logs.
//!
//! Online checking of the PAR-BS batching invariants lives in
//! `parbs-monitor`: its `prelude::invariants()` spec compiles to a monitor
//! that attaches as one more sink.
//!
//! Plus structural helpers: [`CollectSink`] (buffer everything) and
//! [`FanoutSink`] (broadcast to several sinks).
//!
//! ## Cost contract
//!
//! Emitters keep the sink behind an `Option`; when no sink is attached the
//! only cost on the hot path is one branch on `Option::is_some` — no event
//! is constructed, no allocation happens. This is the
//! zero-overhead-when-disabled contract the `sched_hotpath` benchmark gate
//! enforces.
//!
//! This crate is a leaf: events carry plain scalars (request ids, thread
//! and bank indices, cycles), so the DRAM substrate and schedulers can emit
//! without any dependency cycle.

mod chrome;
mod counter;
mod event;
mod json;
mod jsonl;
mod sink;

pub use chrome::ChromeTraceSink;
pub use counter::CounterSink;
pub use event::{CmdKind, Event, RankEntry, ServiceClass};
pub use json::{parse_jsonl, ParseEventError};
pub use jsonl::JsonlSink;
pub use sink::{downcast_sink, CollectSink, EventSink, FanoutSink};
