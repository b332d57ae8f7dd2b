//! Scheduler selection: the five policies of the paper's evaluation, the
//! post-PAR-BS zoo members (BLISS, ATLAS) and STFQ.

use parbs::{ParBsConfig, ParBsScheduler};
use parbs_baselines::{
    AtlasScheduler, BlissScheduler, FcfsScheduler, FrFcfsScheduler, NfqScheduler, StfmScheduler,
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
    /// Blacklisting scheduling (Subramanian et al.).
    Bliss,
    /// Adaptive per-thread least-attained-service scheduling (Kim et al.).
    Atlas,
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

    /// The full scheduler zoo: the paper's five followed by BLISS and ATLAS.
    #[must_use]
    pub fn zoo_seven() -> Vec<SchedulerKind> {
        let mut kinds = Self::paper_five();
        kinds.extend([SchedulerKind::Bliss, SchedulerKind::Atlas]);
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
            SchedulerKind::Bliss => "BLISS",
            SchedulerKind::Atlas => "ATLAS",
        }
    }

    /// Instantiates a scheduler for one memory controller of `cfg`: ATLAS,
    /// STFM, NFQ and STFQ read its DRAM timing, and NFQ, STFQ and STFM its
    /// per-thread weights (the others ignore them). PAR-BS reads each
    /// request's priority level instead, which the memory side sets from
    /// `cfg` as the request enters the buffer.
    #[must_use]
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn MemoryScheduler> {
        let timing = &cfg.dram.timing;
        let mut s: Box<dyn MemoryScheduler> = match self {
            SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
            SchedulerKind::FrFcfs => Box::new(FrFcfsScheduler::new()),
            SchedulerKind::Nfq => Box::new(NfqScheduler::new(timing)),
            SchedulerKind::Stfq => Box::new(NfqScheduler::stfq(timing)),
            SchedulerKind::Stfm => Box::new(StfmScheduler::new(timing)),
            SchedulerKind::ParBs(pc) => Box::new(ParBsScheduler::new(*pc)),
            SchedulerKind::Bliss => Box::new(BlissScheduler::new()),
            SchedulerKind::Atlas => Box::new(AtlasScheduler::new(timing)),
        };
        for t in 0..cfg.cores {
            s.set_thread_weight(ThreadId(t), cfg.weight_of(t));
        }
        s
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
            "BLISS" => Ok(SchedulerKind::Bliss),
            "ATLAS" => Ok(SchedulerKind::Atlas),
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
    use parbs_dram::{Channel, Command, CommandKind, LineAddr, Request, RequestKind, SchedView};
    use parbs_obs::Event;

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

    /// The baseline 4-core system with slower DRAM than DDR2-800 in the
    /// parameters ATLAS, STFM and NFQ read: tRCD 150 (60), tCL 100 (60)
    /// and tRAS 300 (180). The row-closed latency is 290 cycles (160).
    fn slow_dram() -> SimConfig {
        let mut cfg = SimConfig::for_cores(4);
        let t = &mut cfg.dram.timing;
        (t.t_rcd, t.t_cl, t.t_ras) = (150, 100, 300);
        t.t_rc = t.t_ras + t.t_rp;
        t.validate().expect("consistent timing");
        cfg
    }

    fn build(name: &str, cfg: &SimConfig) -> Box<dyn MemoryScheduler> {
        name.parse::<SchedulerKind>().expect("a scheduler name").build(cfg)
    }

    fn req(id: u64, thread: usize, bank: usize, row: u64) -> Request {
        let addr = LineAddr { channel: 0, bank, row, col: 0 };
        Request::new(id, ThreadId(thread), addr, RequestKind::Read, 0)
    }

    fn command(kind: CommandKind, r: &Request) -> Command {
        Command { kind, rank: 0, bank: r.addr.bank, row: r.addr.row, col: 0, request: r.id }
    }

    #[test]
    fn atlas_attains_the_configured_command_latencies() {
        let cfg = slow_dram();
        let mut atlas = build("ATLAS", &cfg);
        atlas.set_observing(true);
        let ch = Channel::new(8, cfg.dram.timing);
        let r = req(0, 0, 0, 1);
        let mut q = vec![r.clone()];
        atlas.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        atlas.on_command(&command(CommandKind::Activate, &r), &r, 0);
        atlas.on_command(&command(CommandKind::Read, &r), &r, 150);
        // Far past the first quantum: the rollover ages and reports the
        // attained service, an activate plus a read.
        atlas.pre_schedule(&mut q, &SchedView { channel: &ch, now: 1_000_000 });
        let mut events = Vec::new();
        atlas.drain_events(&mut events);
        let ranking = events.iter().find_map(|e| match e {
            Event::QuantumRolled { ranking, .. } => Some(ranking.clone()),
            _ => None,
        });
        assert_eq!(ranking, Some(vec![(0, 0, 290)]), "tRCD + tCL + burst of the configured DRAM");
    }

    #[test]
    fn stfm_estimates_slowdown_from_the_configured_command_latencies() {
        // Both threads stalled 1000 cycles; thread 1 waits on the bank that
        // thread 0 activates, so its slowdown estimate is 1000 / (1000 -
        // tRCD): 1000/850 = 1.18 crosses α = 1.10 and STFM boosts thread 1,
        // where DDR2-800's 1000/940 = 1.06 would not.
        let cfg = slow_dram();
        let mut stfm = build("STFM", &cfg);
        let ch = Channel::new(8, cfg.dram.timing);
        let view = SchedView { channel: &ch, now: 0 };
        let (a, b) = (req(0, 0, 3, 1), req(1, 1, 3, 2));
        let mut q = vec![a.clone(), b.clone()];
        stfm.on_stall_cycles(&[1_000, 1_000], 0);
        assert!(!stfm.pre_schedule(&mut q, &view), "equal slowdowns: FR-FCFS mode");
        stfm.on_command(&command(CommandKind::Activate, &a), &a, 0);
        assert!(stfm.pre_schedule(&mut q, &view), "thread 1's slowdown crosses alpha");
        assert!(stfm.priority_key(&b, &view) > stfm.priority_key(&a, &view), "thread 1 boosted");
    }

    #[test]
    fn fair_queueing_quantum_is_the_configured_row_closed_latency() {
        // Thread 0 queues two requests to bank 0 at cycle 0, thread 1 one
        // at cycle 200. Thread 1's tag (start 200, finish 200 + Q) beats
        // thread 0's second one (start Q, finish 2Q) exactly when the
        // quantum Q exceeds 200: 290 here, 160 under DDR2-800.
        let cfg = slow_dram();
        let ch = Channel::new(8, cfg.dram.timing);
        let view = SchedView { channel: &ch, now: 200 };
        for name in ["NFQ", "STFQ"] {
            let mut s = build(name, &cfg);
            let (first, second, late) = (req(0, 0, 0, 1), req(1, 0, 0, 2), req(2, 1, 1, 1));
            s.on_arrival(&first, 0);
            s.on_arrival(&second, 0);
            s.on_arrival(&late, 200);
            assert!(s.priority_key(&late, &view) > s.priority_key(&second, &view), "{name}");
        }
    }

    #[test]
    fn fair_queueing_capture_window_is_the_configured_t_ras() {
        // A row hit with a later tag beats an earlier-tagged request only
        // while its row has been open for less than tRAS (300 here, 180
        // under DDR2-800).
        let cfg = slow_dram();
        let (early, hit) = (req(0, 1, 1, 1), req(1, 0, 0, 5));
        let mut ch = Channel::new(8, cfg.dram.timing);
        ch.issue(&command(CommandKind::Activate, &hit), ThreadId(0), 0);
        let inside = SchedView { channel: &ch, now: 299 };
        let outside = SchedView { channel: &ch, now: 300 };
        for name in ["NFQ", "STFQ"] {
            let mut s = build(name, &cfg);
            s.on_arrival(&early, 0);
            s.on_arrival(&hit, 100);
            assert!(s.priority_key(&hit, &inside) > s.priority_key(&early, &inside), "{name}");
            assert!(s.priority_key(&hit, &outside) < s.priority_key(&early, &outside), "{name}");
        }
    }
}
