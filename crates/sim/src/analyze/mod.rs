//! Static analysis of the PAR-BS model.
//!
//! Simulation results are only as trustworthy as the DRAM model and the
//! scheduler priority encodings underneath them, and both are implemented
//! more than once in this workspace (an imperative hot path plus a
//! declarative specification). This module closes the loop between the
//! copies:
//!
//! * [`TimingOracle`] — an independent earliest-legal-time evaluator built
//!   from the declarative [`parbs_dram::TIMING_RULES`] table by log
//!   scanning (no incremental state to get wrong);
//! * [`run_differential`] — a differential bounded model checker that
//!   exhaustively enumerates command sequences on tiny geometries and
//!   requires [`parbs_dram::Channel::can_issue`], the oracle and
//!   [`parbs_dram::ProtocolChecker`] to agree on the earliest-legal cycle
//!   of **every** command of the alphabet at **every** reached state,
//!   reporting any divergence with a minimal command prefix;
//! * [`check_scheduler_keys`] — a key-contract analyzer that validates each
//!   scheduler's declared [`parbs_dram::KeyLayout`] structurally and
//!   cross-checks the packed `priority_key` bits, field semantics and
//!   ordering against the scheduler's own `compare`;
//! * [`check_scheduler_liveness`] — a liveness model checker that, per
//!   scheduler, either **proves** a concrete starvation bound ("every
//!   enqueued request is serviced within K other services") by exhaustive
//!   exploration of the controller+scheduler state space on a tiny
//!   geometry, or emits a minimal lasso witness of unbounded starvation —
//!   with a symmetry-reduction layer (quotient by the geometry's
//!   automorphism group, see the `symmetry` module docs) that shrinks the
//!   state space by an order of magnitude or more;
//! * [`check_refresh`] — the same engine style pointed at the `tREFI`
//!   deadline rule: per-rank refresh compliance is model-checked against
//!   the rule table, and a dropped refresh rule is caught at the
//!   analytically minimal counterexample depth.
//!
//! The schedulers under analysis are the ones [`crate::SchedulerKind::all`]
//! lists, built with [`crate::SchedulerKind::build`]. `parbs-sim` exposes
//! the checks as CI-runnable commands: `check-timing` (including
//! `--refresh`), `check-keys`, `check-liveness`, `check-spec` and `report`.

mod keycheck;
mod liveness;
mod mc;
mod oracle;
mod refresh;
mod symmetry;

pub use keycheck::{check_scheduler_keys, KeyReport};
pub use liveness::{
    check_scheduler_liveness, LivenessConfig, LivenessReport, LivenessVerdict, Move, Witness,
};
pub use mc::{run_differential, run_differential_with_rules, Disagreement, McConfig, McStats};
pub use oracle::{TimingOracle, Verdict};
pub use refresh::{
    check_refresh, check_refresh_with_rules, RefreshConfig, RefreshReport, RefreshVerdict,
};
