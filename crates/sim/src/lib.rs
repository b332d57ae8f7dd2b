//! Full-system CMP + shared-DRAM simulator and the experiment harness that
//! regenerates every table and figure of the PAR-BS paper.
//!
//! A [`System`] couples N [`parbs_cpu::Core`]s (one thread each) to one
//! [`parbs_dram::Controller`] per DRAM channel, routes requests by the
//! XOR-permuted address mapping, and feeds per-thread stall cycles back to
//! stall-time-aware schedulers (STFM).
//!
//! Measurement is **plan-based**: an [`EvalPlan`] is an immutable list of
//! [`EvalJob`]s (mix × scheduler × [`EvalOverrides`]), and a `Send + Sync`
//! [`Harness`] executes plans — serially or fanned across worker threads
//! with [`Harness::run_plan`] — measuring each thread both **shared** (in a
//! multiprogrammed mix) and **alone** on the same memory system. The two
//! measurements yield the paper's memory slowdown, unfairness,
//! weighted/hmean speedup and AST/req metrics; alone baselines are memoized
//! in a concurrent single-flight cache keyed by [`AloneKey`], so results
//! are identical at every `jobs` level.
//!
//! The [`experiments`] module encodes the parameter sweeps of Section 8
//! (scheduler comparisons, Marking-Cap sweep, batching-mode sweep,
//! within-batch ranking sweep, thread priorities) as plan builders.
//!
//! # Examples
//!
//! ```
//! use parbs_sim::{EvalJob, EvalPlan, Harness, SchedulerKind, SimConfig};
//! use parbs_workloads::case_study_3;
//!
//! // A fast, scaled-down run of Case Study III (4 copies of lbm) under
//! // two schedulers, executed on two worker threads.
//! let cfg = SimConfig { target_instructions: 2_000, ..SimConfig::for_cores(4) };
//! let harness = Harness::new(cfg);
//! let mut plan = EvalPlan::new();
//! plan.push(EvalJob::new(case_study_3(), SchedulerKind::FrFcfs));
//! plan.push(EvalJob::new(case_study_3(), SchedulerKind::ParBs(Default::default())));
//! let rows = harness.run_plan(&plan, 2);
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0].metrics.slowdowns.len(), 4);
//! ```

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
pub use harness::{AloneKey, CacheStats, Harness, MixEvaluation};
pub use observe::{run_observed, MonitorReport, ObserveOptions, ObservedRun, TraceFormat};
pub use plan::{EvalJob, EvalOverrides, EvalPlan};
pub use sched_kind::{SchedulerKind, UnknownScheduler};
pub use system::{RunProgress, RunResult, System, ThreadRunStats};
