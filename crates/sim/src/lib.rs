//! Full-system CMP + shared-DRAM simulator and the experiment harness that
//! regenerates every table and figure of the PAR-BS paper.
//!
//! A [`System`] couples N [`parbs_cpu::Core`]s (one thread each) to one
//! [`parbs_dram::Controller`] per DRAM channel, routes requests by the
//! XOR-permuted address mapping, and feeds per-thread stall cycles back to
//! stall-time-aware schedulers (STFM).
//!
//! Measurement has one shape. A comparison is a list of labeled rows — a
//! label, a [`SchedulerKind`] and the [`EvalOverrides`] it runs with —
//! crossed with workload mixes. [`experiments::SweepPlan::new`] builds it
//! over a flat [`EvalPlan`] of [`EvalJob`]s; a `Send + Sync` [`Harness`]
//! runs that plan with [`Harness::run_plan`], serially or fanned across
//! worker threads, calling [`Harness::evaluate`] once per job; and
//! [`experiments::SweepPlan::run`] collates the results into one labeled
//! row per plan row. Each evaluation measures every thread both **shared**
//! (in the multiprogrammed mix) and **alone** on the same memory system.
//! The two measurements yield the paper's memory slowdown, unfairness,
//! weighted/hmean speedup and AST/req metrics. A harness is one memory
//! system, so its alone baselines are memoized in a concurrent
//! single-flight cache keyed by benchmark and scheduler, and results are
//! identical at every `jobs` level.
//!
//! The [`analyze`] module holds the static analysis: the differential
//! timing model checker, the key-contract and liveness checks of every
//! scheduler in [`SchedulerKind::all`], and the refresh-deadline check.
//!
//! The [`experiments`] module holds the comparisons of Section 8 in that
//! shape: scheduler comparisons and case studies, the Marking-Cap,
//! batching-mode and within-batch ranking sweeps and the thread-priority
//! plans; and the memory systems of the geometry/mapping and
//! system-parameter sweeps, each run on its own harness.
//!
//! # Examples
//!
//! ```
//! use parbs_sim::experiments::{named_rows, SweepPlan};
//! use parbs_sim::{Harness, SchedulerKind, SimConfig};
//! use parbs_workloads::case_study_3;
//!
//! // A fast, scaled-down run of Case Study III (4 copies of lbm) under
//! // two schedulers, executed on two worker threads.
//! let cfg = SimConfig { target_instructions: 2_000, ..SimConfig::for_cores(4) };
//! let harness = Harness::new(cfg);
//! let kinds = [SchedulerKind::FrFcfs, SchedulerKind::ParBs(Default::default())];
//! let rows = SweepPlan::new(&[case_study_3()], &named_rows(kinds)).run(&harness, 2);
//! assert_eq!(rows[1].label, "PAR-BS");
//! assert_eq!(rows[0].evaluations[0].metrics.slowdowns.len(), 4);
//! ```

pub mod analyze;
mod checkpoint;
mod config;
mod executor;
pub mod experiments;
mod flow;
mod harness;
mod memory;
mod observe;
mod plan;
mod sched_kind;
mod system;

pub use checkpoint::{CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use config::SimConfig;
pub use executor::default_jobs;
pub use flow::{drive_source, run_flow, run_flow_sweep, FlowRunResult, SourceDriveResult};
pub use harness::{CacheStats, Harness, MixEvaluation};
pub use observe::{run_observed, MonitorReport, ObserveOptions, ObservedRun, TraceFormat};
pub use plan::{EvalJob, EvalOverrides, EvalPlan};
pub use sched_kind::{SchedulerKind, UnknownScheduler};
pub use system::{RunProgress, RunResult, System, ThreadRunStats};
