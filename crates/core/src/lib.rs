//! **PAR-BS** — Parallelism-Aware Batch Scheduling for shared DRAM systems.
//!
//! This crate implements the DRAM scheduler of Mutlu & Moscibroda,
//! *Parallelism-Aware Batch Scheduling: Enhancing both Performance and
//! Fairness of Shared DRAM Systems* (ISCA 2008), on top of the
//! [`parbs_dram`] substrate. The scheduler combines two ideas:
//!
//! 1. **Request batching (BS)** — outstanding requests are grouped into
//!    batches; requests of the current batch ("marked" requests) are always
//!    prioritized over newer requests, so no thread can starve another's
//!    requests beyond one batch (Rule 1, [`BatchingMode`], `Marking-Cap`).
//! 2. **Parallelism-aware within-batch scheduling (PAR)** — within a batch,
//!    requests are prioritized *marked-first, row-hit-first,
//!    higher-rank-first, oldest-first* (Rule 2), where thread ranks follow
//!    the shortest-job-first **Max-Total** rule (Rule 3): the thread whose
//!    heaviest bank queue is shortest is ranked highest, so its requests are
//!    serviced in parallel across banks and it leaves the batch quickly.
//!
//! [`ParBsConfig`] selects the Marking-Cap, the Section 4.4 batching and
//! ranking alternatives, and the adaptive Marking-Cap the paper sketches
//! in §8.3.1, which steers the cap toward a fixed batch duration.
//!
//! System-software thread priorities are supported via priority-based
//! marking (a priority-X thread joins every Xth batch) and an extra
//! within-batch rule; a special lowest level gives **purely opportunistic**
//! service ([`ThreadPriority::Opportunistic`]). The scheduler reads each
//! request's level from [`parbs_dram::Request::priority_level`], where the
//! code that enqueues it puts [`ThreadPriority::period`].
//!
//! The crate also provides the paper's hardware-cost model (Table 1 — 1412
//! extra bits for an 8-core, 128-entry, 8-bank configuration) and the
//! abstract within-batch scheduling model of Figure 3.
//!
//! # Examples
//!
//! ```
//! use parbs::{ParBsConfig, ParBsScheduler};
//! use parbs_dram::{Controller, DramConfig};
//!
//! let sched = ParBsScheduler::new(ParBsConfig::default());
//! let ctrl = Controller::new(DramConfig::default(), Box::new(sched));
//! assert_eq!(ctrl.scheduler_name(), "PAR-BS");
//! ```

mod abstract_model;
mod config;
mod hw_cost;
mod priority;
mod ranking;
mod scheduler;

pub use abstract_model::{AbstractBatch, AbstractPolicy, AbstractRequest};
pub use config::{BatchingMode, ParBsConfig, Ranking, ThreadPriority};
pub use hw_cost::{parbs_extra_state_bits, HwCostBreakdown};
pub use priority::PriorityValue;
pub use ranking::{compute_ranks, ThreadLoad};
pub use scheduler::{ParBsScheduler, ParBsStats};
