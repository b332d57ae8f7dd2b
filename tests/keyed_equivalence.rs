//! End-to-end equivalence of the controller's two selection paths: the
//! cached-priority-key hot path must reproduce, command for command and
//! cycle for cycle, the retired full-queue comparator sort it replaced —
//! under every shipped scheduler, with the DRAM protocol checker enabled.
//!
//! The workload is a fig08-style 4-core mix: four threads with different
//! intensities and row localities, reads and writes, bursty arrivals —
//! enough to exercise batch formation (PAR-BS), capture-window expiry
//! (NFQ/STFQ), fairness-mode switches (STFM, via synthetic stall reports),
//! write drains, and refresh. Each mix runs twice: with sparse stall reports,
//! and with a report every DRAM cycle as `System` sends them, which the
//! controller forwards without invalidating its cached keys. A two-rank
//! run, with refresh every 3,000 cycles, compares a refresh that re-keys
//! only its own rank's requests under every scheduler.

use std::cell::Cell;
use std::cmp::Ordering;
use std::rc::Rc;

use parbs::{BatchingMode, ParBsConfig, ParBsScheduler};
use parbs_baselines::{
    AtlasScheduler, BlissScheduler, FrFcfsScheduler, NfqScheduler, StfmScheduler,
};
use parbs_dram::{
    Command, CommandKind, CommandTraceSink, Completion, Controller, DramConfig, FcfsScheduler,
    LineAddr, MemoryScheduler, Request, RequestKind, SchedView, ThreadId, TimingParams, DRAM_CYCLE,
};
use parbs_obs::downcast_sink;
use parbs_sim::{SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled arrival of the synthetic mix.
struct Arrival {
    at: u64,
    req: Request,
}

/// A deterministic 4-thread mix over `banks` banks: thread 0 is intensive
/// with high row locality, thread 1 is intensive with random rows
/// (mcf-like), thread 2 is moderate, thread 3 is light and bursty. ~15%
/// writes.
fn mix(seed: u64, count: u64, banks: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut now = 0u64;
    let mut hot_rows = [0u64; 4];
    for id in 0..count {
        let thread = match rng.gen_range(0u32..10) {
            0..=3 => 0usize,
            4..=6 => 1,
            7..=8 => 2,
            _ => 3,
        };
        // Per-thread arrival pacing; thread 3 arrives in far-apart bursts.
        now += match thread {
            0 | 1 => rng.gen_range(0u64..6),
            2 => rng.gen_range(0u64..20),
            _ => {
                if rng.gen_bool(0.2) {
                    rng.gen_range(100u64..400)
                } else {
                    0
                }
            }
        };
        // Row locality: thread 0 mostly re-hits its current row; thread 1
        // almost never does.
        let hit_chance = [0.85, 0.05, 0.5, 0.5][thread];
        if !rng.gen_bool(hit_chance) {
            hot_rows[thread] = rng.gen_range(0u64..32);
        }
        let kind = if rng.gen_bool(0.15) { RequestKind::Write } else { RequestKind::Read };
        let addr = LineAddr {
            channel: 0,
            bank: rng.gen_range(0usize..banks),
            row: hot_rows[thread],
            col: rng.gen_range(0u64..64),
        };
        arrivals
            .push(Arrival { at: now, req: Request::new(id, ThreadId(thread), addr, kind, now) });
    }
    arrivals
}

/// How `run` feeds per-thread stall cycles to the scheduler, which
/// STFM turns into fairness-mode switches.
#[derive(Debug, Clone, Copy)]
enum StallReports {
    /// Fixed synthetic reports every 1000 cycles, before the tick.
    Sparse,
    /// A report every DRAM cycle after the tick, the cadence `System` uses.
    /// The most-stalled thread rotates every 2000 cycles.
    EveryDramCycle,
}

/// The per-thread stall increments of the [`StallReports::EveryDramCycle`]
/// report at `now`: one thread stalls for the whole DRAM cycle, the others
/// for a varying few cycles.
fn rotating_stalls(now: u64) -> [u64; 4] {
    let stalled = (now / 2_000) as usize % 4;
    let slot = now / DRAM_CYCLE;
    std::array::from_fn(|t| if t == stalled { DRAM_CYCLE } else { (slot + t as u64) % 3 })
}

/// Drives one controller through the mix and returns its full command trace.
/// Enqueues retry while the request buffer is full; stall cycles are
/// reported as `reports` says.
fn run(
    mut ctrl: Controller,
    arrivals: &[Arrival],
    reports: StallReports,
) -> (Vec<(u64, Command)>, usize) {
    ctrl.set_event_sink(Box::new(CommandTraceSink::new()));
    let mut out: Vec<Completion> = Vec::new();
    let mut completed = 0usize;
    let mut now = 0u64;
    let mut next = 0usize;
    let mut pending: Option<Request> = None;
    let stalls = [[37u64, 0, 0, 0], [0, 911, 13, 0], [5, 5, 5, 450]];
    while next < arrivals.len() || pending.is_some() {
        if matches!(reports, StallReports::Sparse) && now.is_multiple_of(1_000) && now > 0 {
            let s = stalls[(now / 1_000) as usize % stalls.len()];
            ctrl.report_stall_cycles(&s, now);
        }
        if let Some(req) = pending.take() {
            if ctrl.try_enqueue(req.clone()).is_err() {
                pending = Some(req);
            }
        }
        while pending.is_none() && next < arrivals.len() && arrivals[next].at <= now {
            let req = arrivals[next].req.clone();
            if ctrl.try_enqueue(req.clone()).is_err() {
                pending = Some(req);
            }
            next += 1;
        }
        ctrl.tick(now, &mut out);
        if matches!(reports, StallReports::EveryDramCycle) && now.is_multiple_of(DRAM_CYCLE) {
            ctrl.report_stall_cycles(&rotating_stalls(now), now);
        }
        completed += out.len();
        out.clear();
        now += 1;
    }
    let done = ctrl.run_to_drain(&mut now, 10_000_000);
    completed += done.len();
    let sink = ctrl.take_event_sink().expect("sink attached above");
    let Ok(sink) = downcast_sink::<CommandTraceSink>(sink) else {
        panic!("the attached sink is a CommandTraceSink");
    };
    (sink.into_trace(), completed)
}

/// The default mix: 600 arrivals over the default 8 banks.
fn default_mix() -> Vec<Arrival> {
    mix(0xC0FFEE, 600, 8)
}

/// [`assert_paths_agree_on`] the default mix.
fn assert_paths_agree(name: &str, make: &dyn Fn() -> Box<dyn MemoryScheduler>) {
    assert_paths_agree_on(name, &default_mix(), make);
}

/// [`paths_agree`] on the default configuration under both stall-report
/// cadences.
fn assert_paths_agree_on(
    name: &str,
    arrivals: &[Arrival],
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
) {
    for reports in [StallReports::Sparse, StallReports::EveryDramCycle] {
        paths_agree(name, &DramConfig::default(), arrivals, reports, make);
    }
}

/// Runs `arrivals` through the keyed and comparator paths on `cfg` under
/// `reports`, asserts the traces are identical and returns the trace.
fn paths_agree(
    name: &str,
    cfg: &DramConfig,
    arrivals: &[Arrival],
    reports: StallReports,
    make: &dyn Fn() -> Box<dyn MemoryScheduler>,
) -> Vec<(u64, Command)> {
    let keyed = Controller::with_checker(cfg.clone(), make());
    let mut comparator = Controller::with_checker(cfg.clone(), make());
    comparator.set_comparator_path(true);
    let (trace_k, done_k) = run(keyed, arrivals, reports);
    let (trace_c, done_c) = run(comparator, arrivals, reports);
    let name = format!("{name} ({reports:?} stall reports)");
    assert_eq!(done_k, arrivals.len(), "{name}: keyed path must drain the whole mix");
    assert_eq!(done_c, arrivals.len(), "{name}: comparator path must drain the whole mix");
    assert_eq!(trace_k.len(), trace_c.len(), "{name}: command counts differ");
    for (i, (k, c)) in trace_k.iter().zip(&trace_c).enumerate() {
        assert_eq!(k, c, "{name}: traces diverge at command {i}");
    }
    trace_k
}

/// STFM counting the slots in which `pre_schedule` switched its
/// fairness-mode thread.
struct CountingStfm {
    inner: StfmScheduler,
    switches: Rc<Cell<u32>>,
}

impl MemoryScheduler for CountingStfm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, req: &Request, now: u64) {
        self.inner.on_arrival(req, now);
    }

    fn on_complete(&mut self, req: &Request, now: u64) {
        self.inner.on_complete(req, now);
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let switched = self.inner.pre_schedule(queue, view);
        self.switches.set(self.switches.get() + u32::from(switched));
        switched
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        self.inner.priority_key(req, view)
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        self.inner.compare(a, b, view)
    }

    fn on_stall_cycles(&mut self, stall_cycles: &[u64], now: u64) {
        self.inner.on_stall_cycles(stall_cycles, now);
    }

    fn on_command(&mut self, cmd: &Command, req: &Request, now: u64) {
        self.inner.on_command(cmd, req, now);
    }
}

#[test]
fn fcfs_keyed_path_matches_comparator() {
    assert_paths_agree("FCFS", &|| Box::new(FcfsScheduler::new()));
}

#[test]
fn frfcfs_keyed_path_matches_comparator() {
    assert_paths_agree("FR-FCFS", &|| Box::new(FrFcfsScheduler::new()));
}

#[test]
fn parbs_keyed_path_matches_comparator() {
    assert_paths_agree("PAR-BS", &|| Box::new(ParBsScheduler::new(ParBsConfig::default())));
}

#[test]
fn parbs_eslot_priority_levels_keyed_path_matches_comparator() {
    // Empty-slot batching re-marks every slot and the priority levels give
    // threads different marking cadences — the hardest key-staleness case.
    // The levels ride on the requests: thread 2 at level 2, thread 3
    // opportunistic.
    let mut arrivals = default_mix();
    for a in &mut arrivals {
        a.req.priority_level = match a.req.thread.0 {
            2 => Some(2),
            3 => None,
            _ => Some(1),
        };
    }
    assert_paths_agree_on("PAR-BS/eslot", &arrivals, &|| {
        let cfg = ParBsConfig {
            batching: BatchingMode::EmptySlot,
            marking_cap: Some(3),
            ..ParBsConfig::default()
        };
        Box::new(ParBsScheduler::new(cfg))
    });
}

#[test]
fn nfq_keyed_path_matches_comparator() {
    assert_paths_agree("NFQ", &|| Box::new(NfqScheduler::new(&TimingParams::ddr2_800())));
}

#[test]
fn stfq_keyed_path_matches_comparator() {
    assert_paths_agree("STFQ", &|| Box::new(NfqScheduler::stfq(&TimingParams::ddr2_800())));
}

#[test]
fn stfm_keyed_path_matches_comparator() {
    assert_paths_agree("STFM", &|| Box::new(StfmScheduler::new(&TimingParams::ddr2_800())));
}

#[test]
fn per_cycle_stall_reports_switch_stfms_fairness_mode_often() {
    // The cadence the STFM equivalence above checks must actually move its
    // priorities: every switch is a key change reported only by
    // `pre_schedule`, never by the stall report that caused it.
    let switches = Rc::new(Cell::new(0));
    let stfm = CountingStfm {
        inner: StfmScheduler::new(&TimingParams::ddr2_800()),
        switches: Rc::clone(&switches),
    };
    let ctrl = Controller::with_checker(DramConfig::default(), Box::new(stfm));
    run(ctrl, &default_mix(), StallReports::EveryDramCycle);
    assert!(switches.get() >= 100, "only {} fairness-mode switches", switches.get());
}

#[test]
fn bliss_keyed_path_matches_comparator() {
    // Blacklist state mutates on column commands (between pre_schedules),
    // so this exercises the dirty-flag staleness reporting.
    assert_paths_agree("BLISS", &|| Box::new(BlissScheduler::new()));
}

#[test]
fn atlas_keyed_path_matches_comparator() {
    // Quantum rollovers re-rank all threads mid-run; the keyed path must
    // pick the rank changes up on the same cycle the comparator does.
    assert_paths_agree("ATLAS", &|| Box::new(AtlasScheduler::new(&TimingParams::ddr2_800())));
}

#[test]
fn every_scheduler_agrees_on_two_ranks_with_rank_scoped_refresh() {
    // The default geometry has one rank, where every refresh closes every
    // bank; here a refresh re-keys only the requests to its own rank.
    let mut cfg = DramConfig::default();
    cfg.geometry.ranks_per_channel = 2;
    cfg.timing.t_refi = 3_000;
    let arrivals = mix(0xC0FFEE, 250, cfg.banks_per_channel());
    for kind in SchedulerKind::all() {
        let make = || kind.build(&SimConfig::for_cores(4));
        let trace = paths_agree(kind.name(), &cfg, &arrivals, StallReports::EveryDramCycle, &make);
        for rank in 0..2 {
            assert!(
                trace.iter().any(|(_, c)| c.kind == CommandKind::Refresh && c.rank == rank),
                "{kind}: rank {rank} never refreshed"
            );
        }
    }
}
