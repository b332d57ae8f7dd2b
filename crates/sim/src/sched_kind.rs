//! Scheduler selection: the five policies of the paper's evaluation, the
//! post-PAR-BS zoo members (BLISS, ATLAS) and STFQ.

use parbs::{ParBsConfig, ParBsScheduler};
use parbs_baselines::{
    AtlasConfig, AtlasScheduler, BlissConfig, BlissScheduler, FcfsScheduler, FrFcfsScheduler,
    NfqScheduler, StfmScheduler,
};
use parbs_dram::{MemoryScheduler, ThreadId};

use crate::SimConfig;

/// One of the evaluated scheduling policies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-come-first-serve.
    Fcfs,
    /// First-ready FCFS (the baseline controller).
    FrFcfs,
    /// Network fair queueing (FQ-VFTF).
    Nfq,
    /// Start-time fair queueing (Rafique et al., PACT 2007) — the NFQ
    /// improvement referenced in the paper's related work.
    Stfq,
    /// Stall-time fair memory scheduling.
    Stfm,
    /// Parallelism-aware batch scheduling with the given configuration.
    ParBs(ParBsConfig),
    /// Blacklisting scheduling (Subramanian et al.) with the given
    /// threshold and clearing interval.
    Bliss(BlissConfig),
    /// Adaptive per-thread least-attained-service scheduling (Kim et al.)
    /// with the given quantum.
    Atlas(AtlasConfig),
}

impl SchedulerKind {
    /// Every name [`SchedulerKind::from_str`](std::str::FromStr) accepts, as
    /// usage text.
    pub const NAMES: &'static str = "FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|BLISS|ATLAS";

    /// The five schedulers of Figures 5-10 in paper order, with PAR-BS in
    /// its default (Marking-Cap 5, full batching, Max-Total) configuration.
    #[must_use]
    pub fn paper_five() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::FrFcfs,
            SchedulerKind::Fcfs,
            SchedulerKind::Nfq,
            SchedulerKind::Stfm,
            SchedulerKind::ParBs(ParBsConfig::default()),
        ]
    }

    /// The full scheduler zoo: the paper's five followed by BLISS and ATLAS
    /// in their default configurations.
    #[must_use]
    pub fn zoo_seven() -> Vec<SchedulerKind> {
        let mut kinds = Self::paper_five();
        kinds.push(SchedulerKind::Bliss(BlissConfig::default()));
        kinds.push(SchedulerKind::Atlas(AtlasConfig::default()));
        kinds
    }

    /// Every shipped scheduler: the seven-scheduler zoo followed by STFQ.
    /// The static analysis, the gate benchmarks and every suite that
    /// claims to cover all schedulers iterate this list.
    #[must_use]
    pub fn all() -> Vec<SchedulerKind> {
        let mut kinds = Self::zoo_seven();
        kinds.push(SchedulerKind::Stfq);
        kinds
    }

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::Nfq => "NFQ",
            SchedulerKind::Stfq => "STFQ",
            SchedulerKind::Stfm => "STFM",
            SchedulerKind::ParBs(_) => "PAR-BS",
            SchedulerKind::Bliss(_) => "BLISS",
            SchedulerKind::Atlas(_) => "ATLAS",
        }
    }

    /// Instantiates a scheduler for one memory controller, applying the
    /// per-thread weights (NFQ/STFQ/STFM) in `cfg`. PAR-BS needs no
    /// per-thread setup: it reads each request's priority level, which the
    /// memory side sets from `cfg` as the request enters the buffer.
    #[must_use]
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn MemoryScheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
            SchedulerKind::FrFcfs => Box::new(FrFcfsScheduler::new()),
            SchedulerKind::Nfq => {
                let mut s = NfqScheduler::new();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::Stfq => {
                let mut s = NfqScheduler::stfq();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::Stfm => {
                let mut s = StfmScheduler::new();
                for t in 0..cfg.cores {
                    s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
                }
                Box::new(s)
            }
            SchedulerKind::ParBs(pc) => Box::new(ParBsScheduler::new(*pc)),
            SchedulerKind::Bliss(bc) => Box::new(BlissScheduler::with_config(*bc)),
            SchedulerKind::Atlas(ac) => Box::new(AtlasScheduler::with_config(*ac)),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = UnknownScheduler;

    /// Parses a [`SchedulerKind::name`] back into its kind, in the default
    /// configuration. Case is ignored, and the dash of FR-FCFS and PAR-BS
    /// may be left out.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_uppercase().as_str() {
            "FCFS" => Ok(SchedulerKind::Fcfs),
            "FR-FCFS" | "FRFCFS" => Ok(SchedulerKind::FrFcfs),
            "NFQ" => Ok(SchedulerKind::Nfq),
            "STFQ" => Ok(SchedulerKind::Stfq),
            "STFM" => Ok(SchedulerKind::Stfm),
            "PAR-BS" | "PARBS" => Ok(SchedulerKind::ParBs(ParBsConfig::default())),
            "BLISS" => Ok(SchedulerKind::Bliss(BlissConfig::default())),
            "ATLAS" => Ok(SchedulerKind::Atlas(AtlasConfig::default())),
            _ => Err(UnknownScheduler(name.to_owned())),
        }
    }
}

/// A scheduler name that names no [`SchedulerKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler(pub String);

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheduler '{}'; expected {}", self.0, SchedulerKind::NAMES)
    }
}

impl std::error::Error for UnknownScheduler {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_five_in_figure_order() {
        let names: Vec<&str> =
            SchedulerKind::paper_five().iter().map(super::SchedulerKind::name).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS"]);
    }

    #[test]
    fn zoo_seven_extends_the_paper_order() {
        let names: Vec<&str> =
            SchedulerKind::zoo_seven().iter().map(super::SchedulerKind::name).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS", "BLISS", "ATLAS"]);
    }

    #[test]
    fn all_is_the_zoo_then_stfq() {
        let names: Vec<&str> =
            SchedulerKind::all().iter().map(super::SchedulerKind::name).collect();
        assert_eq!(names, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS", "BLISS", "ATLAS", "STFQ"]);
    }

    #[test]
    fn build_produces_matching_names() {
        let cfg = SimConfig::for_cores(4);
        for kind in SchedulerKind::all() {
            assert_eq!(kind.build(&cfg).name(), kind.name());
        }
    }

    #[test]
    fn every_name_parses_back_to_its_kind() {
        for kind in SchedulerKind::all() {
            assert_eq!(kind.name().parse::<SchedulerKind>(), Ok(kind.clone()));
            assert!(SchedulerKind::NAMES.split('|').any(|n| n == kind.name()), "{kind} is listed");
        }
        assert_eq!("parbs".parse::<SchedulerKind>(), "PAR-BS".parse());
        let err = "PAR_BS".parse::<SchedulerKind>().unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("unknown scheduler 'PAR_BS'; expected {}", SchedulerKind::NAMES)
        );
    }
}
