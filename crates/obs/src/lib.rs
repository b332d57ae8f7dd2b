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
//! ## One table
//!
//! Each event kind is declared once, in one table: its variant, its JSONL
//! `type` tag and its payload fields, each with its JSONL key and codec.
//! The table generates [`Event`], [`EventKind`], [`Event::to_json`] and
//! [`Event::from_json`], and [`EventKind::field`] gives `parbs-monitor`
//! every integer and boolean field, by its Rust name, as a [`Field`]
//! projection. A new kind or field is one table line. The JSONL reader
//! rejects a record that repeats a key instead of letting the last value
//! win.
//!
//! ## Cost contract
//!
//! Emitters keep the sink behind an `Option`; when no sink is attached the
//! only cost on the hot path is one branch on `Option::is_some` — no event
//! is constructed, no allocation happens. The `sched_hotpath` gate never
//! builds a controller, so it does not check this. perfbench's untraced
//! `cs1_zoo` runs attach no sink, and the `BENCHMARK.json` bounds on them
//! catch a regression end to end.
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
pub use event::{CmdKind, Event, EventKind, Field, RankEntry, ServiceClass};
pub use json::{parse_jsonl, read_jsonl, JsonlError, ParseEventError};
pub use jsonl::JsonlSink;
pub use sink::{downcast_sink, CollectSink, EventSink, FanoutSink};
