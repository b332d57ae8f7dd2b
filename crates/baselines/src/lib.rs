//! The four baseline DRAM schedulers PAR-BS is evaluated against
//! (Mutlu & Moscibroda, ISCA 2008, §8):
//!
//! * **FCFS** — strict arrival order (re-exported from `parbs-dram`);
//! * **FR-FCFS** — first-ready, first-come-first-serve: row hits first, then
//!   oldest first (Rixner et al., Zuravleff & Robinson). Maximizes DRAM data
//!   throughput, but unfairly favors threads with high row-buffer locality
//!   and high memory intensity;
//! * **NFQ** — network-fair-queueing scheduler (Nesbit et al., MICRO 2006):
//!   earliest virtual-finish-time first (FQ-VFTF) with the priority-inversion
//!   prevention optimization;
//! * **STFM** — stall-time fair memory scheduler (Mutlu & Moscibroda,
//!   MICRO 2007): estimates per-thread slowdown online and switches to a
//!   fairness-oriented policy when estimated unfairness exceeds α.
//!
//! Plus two post-PAR-BS "scheduler zoo" members that bracket it from the
//! other side of history:
//!
//! * **BLISS** — the blacklisting scheduler (Subramanian et al., ICCD
//!   2014): demotes threads that get long streaks of consecutive service,
//!   clearing the blacklist periodically. Most of the fairness of ranking
//!   schemes at a fraction of the hardware cost;
//! * **ATLAS** — adaptive per-thread least-attained-service scheduling
//!   (Kim et al., HPCA 2010): ranks threads each quantum by long-term
//!   attained memory service, favoring the least-served.
//!
//! All implement [`parbs_dram::MemoryScheduler`]; none of the four paper
//! baselines preserve intra-thread bank-level parallelism, which is the gap
//! PAR-BS fills.
//!
//! Each runs at its authors' published settings (STFM's α and aging
//! interval, BLISS's threshold and clearing interval, ATLAS's quantum,
//! scaled to this simulator's run lengths), kept as constants beside the
//! code that reads them. ATLAS, STFM and NFQ are built for the DRAM timing
//! they schedule: it prices each command's service or interference
//! ([`parbs_dram::TimingParams::command_latency`]) and gives NFQ its
//! quantum (the row-closed latency) and capture window (tRAS).

mod atlas;
mod bliss;
mod frfcfs;
mod nfq;
mod stfm;

pub use atlas::AtlasScheduler;
pub use bliss::BlissScheduler;
pub use frfcfs::FrFcfsScheduler;
pub use nfq::NfqScheduler;
pub use parbs_dram::FcfsScheduler;
pub use stfm::StfmScheduler;
