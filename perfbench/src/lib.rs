//! The repository benchmark: two canonical simulator workloads measured
//! end to end from an untraced run, and split by layer from a separate
//! traced run that times calls into each layer from outside the program.
//!
//! * [`workloads`] sets up and runs each workload through the simulator's
//!   own entry points (`Harness::run_plan`, `System` checkpoint/resume,
//!   `run_flow`).
//! * [`timed`] holds the timing decorators for `MemoryScheduler`,
//!   `InstructionStream`, `RequestSource` and `EventSink`.
//! * [`loops`] holds the bench-side copies of `System::tick` and
//!   `drive_source` that the traced run drives.
//! * [`digest`] hashes every simulation's output and holds the digests
//!   recorded at the seed commit.

pub mod digest;
pub mod layers;
pub mod loops;
pub mod timed;
pub mod workloads;

/// One benchmark workload. Both are batch: each reports work done per host
/// second at a fixed input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Case Study 1 (libquantum, mcf, GemsFDTD, xalancbmk) on the 4-core
    /// system under all seven schedulers, each job one shared run plus four
    /// alone baselines through `Harness::run_plan` at one worker, then one
    /// more PAR-BS shared run checkpointed once half its threads reached the
    /// target and finished in a fresh system resumed from the checkpoint.
    /// DRAM reads count the reads each thread issued by its snapshot.
    Cs1Zoo,
    /// `run_flow` with 10,000 open-loop requesters under PAR-BS with the
    /// `prelude:invariants` monitor attached. DRAM reads count the reads
    /// completed.
    Flow10kMon,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Cs1Zoo, Workload::Flow10kMon];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cs1Zoo => "cs1_zoo",
            Workload::Flow10kMon => "flow10k_mon",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Per-thread instruction target of `cs1_zoo`.
    pub cs1_target: u64,
    /// Requesters (flows) of `flow10k_mon`.
    pub flow_requesters: usize,
}

impl Scale {
    /// The benchmark's fixed input size; the recorded digests are for it.
    pub const BENCH: Scale = Scale { cs1_target: 5_000, flow_requesters: 10_000 };

    /// A run length small enough for tests.
    pub const TINY: Scale = Scale { cs1_target: 1_000, flow_requesters: 200 };
}
