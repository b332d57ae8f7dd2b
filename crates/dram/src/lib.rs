//! Cycle-level shared-DRAM substrate for memory-scheduler research.
//!
//! This crate models the DRAM system of Mutlu & Moscibroda,
//! *Parallelism-Aware Batch Scheduling* (ISCA 2008), Table 2: a DDR2-800
//! SDRAM channel with 8 banks, 2 KB row buffers, open-page policy, a
//! 128-entry read request buffer and a 64-entry write buffer, with reads
//! prioritized over writes. All times are **processor cycles** at 4 GHz;
//! one DRAM cycle is [`DRAM_CYCLE`] = 10 processor cycles and the
//! controller makes at most one command decision per DRAM cycle per channel.
//!
//! The shape of the DRAM system — channels, ranks per channel, banks per
//! rank, rows, columns — is an explicit [`Geometry`] value that flows from
//! [`DramConfig`] through the [`Channel`], [`Controller`], protocol checker
//! and [`AddressMapper`]; the address-bit layout is selected by a
//! [`MappingPolicy`]. Multi-rank channels model per-rank activate windows
//! (tRRD/tFAW), per-rank refresh (tRFC) and the rank-to-rank data-bus
//! switch penalty (tRTRS).
//!
//! The scheduling policy is pluggable through the [`MemoryScheduler`] trait:
//! per decision slot the controller walks the queued read requests in
//! descending order of their cached [`MemoryScheduler::priority_key`] and
//! issues the next required DRAM command (precharge / activate / read) of
//! the first request in that order whose command is *ready* — the
//! "first-ready" discipline of FR-FCFS generalized to arbitrary priority
//! orders. Reads and writes live in one request-buffer type whose keys are
//! recomputed only when an event can change them, and re-sorted only then
//! or when a request leaves; writes are keyed FR-FCFS. The scheduler's
//! pairwise `compare` is the reference order the read keys must reproduce;
//! the controller's comparator-sort path is kept only to cross-check them.
//! Per-request state the paper keeps in the request buffer — the marked
//! bit and the thread's priority level — rides on each [`Request`].
//!
//! A [`ProtocolChecker`] can observe every issued command and verify that no
//! DRAM timing constraint is ever violated; the property-based tests use it
//! to validate the controller under random schedulers and request streams.
//! It is the one interpreter of the declarative [`TIMING_RULES`] table, and
//! its earliest-issue answer is what `parbs_sim::analyze`'s differential
//! model checker compares [`Channel::can_issue`] with.
//!
//! For observability, attach any [`parbs_obs::EventSink`] with
//! [`Controller::set_event_sink`]: the controller then emits the full
//! structured event stream (enqueues, batch formation/marking/ranking,
//! command issue with row hit/closed/conflict classification, completions,
//! write-drain windows, refreshes, bus samples). [`CommandTraceSink`]
//! rebuilds the `(cycle, Command)` trace from that stream, and
//! [`render_timeline`] draws the ASCII service-order diagrams from it. With
//! no sink attached the instrumentation costs one branch per site.
//!
//! # Examples
//!
//! ```
//! use parbs_dram::{Controller, DramConfig, FcfsScheduler, LineAddr, Request, RequestKind, ThreadId};
//!
//! let config = DramConfig::default();
//! let mut ctrl = Controller::new(config.clone(), Box::new(FcfsScheduler::new()));
//! let addr = LineAddr { channel: 0, bank: 2, row: 7, col: 3 };
//! ctrl.try_enqueue(Request::new(0, ThreadId(0), addr, RequestKind::Read, 0)).unwrap();
//! let mut done = Vec::new();
//! for now in 0..10_000 {
//!     ctrl.tick(now, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! // Uncontended row-closed access: activate + read + burst + front-end.
//! assert!(done[0].finish >= 160);
//! ```

mod address;
mod bank;
mod channel;
mod checker;
mod command;
mod config;
mod contract;
mod controller;
mod geometry;
mod keys;
mod request;
mod rules;
mod scheduler;
mod stats;
mod timeline;
mod timing;
mod trace_sink;

pub use address::{AddressMapper, LineAddr, MappingPolicy};
pub use bank::{Bank, BankState};
pub use channel::Channel;
pub use checker::{ProtocolChecker, ProtocolViolation};
pub use command::{Command, CommandKind};
pub use config::DramConfig;
pub use contract::{LivenessContract, LivenessPolicy, StarvationClaim};
pub use controller::{Completion, Controller, EnqueueError};
pub use geometry::{Geometry, GeometryError};
pub use keys::{f64_total_order_bits, FieldSemantic, KeyField, KeyLayout};
pub use request::{Request, RequestId, RequestKind, ThreadId};
pub use rules::{
    data_interval, CmdClass, EventClass, FromTime, RuleKind, RuleScope, TimingParam, TimingRule,
    ToTime, TIMING_RULES,
};
pub use scheduler::{FcfsScheduler, MemoryScheduler, SchedView};
pub use stats::{BlpTracker, ControllerStats};
pub use timeline::render_timeline;
pub use timing::{TimingParams, DRAM_CYCLE};
pub use trace_sink::{obs_cmd_kind, CommandTraceSink};
