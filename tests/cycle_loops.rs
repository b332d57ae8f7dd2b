//! The two cycle loops skip cycles in which nothing can change: `System`
//! while every core sleeps, `drive_source` until the memory side's or the
//! source's next event. Skipping must be invisible: these tests compare
//! each loop against stepping every cycle.

use parbs_sim::{drive_source, EvalOverrides, Harness, SchedulerKind, SimConfig, System};
use parbs_workloads::{
    BoundedPareto, FlowConfig, FlowSource, MixSpec, RequestSource, SourcedRequest,
};

const MIXES: [[&str; 4]; 2] =
    [["libquantum", "mcf", "GemsFDTD", "xalancbmk"], ["mcf", "libquantum", "lbm", "hmmer"]];

fn system(cfg: SimConfig, mix: &[&str], kind: &SchedulerKind) -> System {
    Harness::new(cfg).shared_system(
        &MixSpec::from_names("loops", mix),
        kind,
        &EvalOverrides::none(),
    )
}

fn config(target: u64) -> SimConfig {
    SimConfig { target_instructions: target, ..SimConfig::for_cores(4) }
}

/// Runs `sys` one [`System::step_cycle`] call per cycle.
fn one_cycle_at_a_time(mut sys: System) -> parbs_sim::RunResult {
    let mut progress = sys.begin_run();
    while sys.step_cycle(&mut progress) {}
    sys.finish_run(progress)
}

#[test]
fn run_equals_a_loop_of_step_cycle_for_every_scheduler() {
    for mix in MIXES {
        for kind in SchedulerKind::all() {
            let run = system(config(1_500), &mix, &kind).run();
            let stepped = one_cycle_at_a_time(system(config(1_500), &mix, &kind));
            assert_eq!(run, stepped, "{} on {mix:?}", kind.name());
        }
    }
}

#[test]
fn a_run_cut_by_max_cycles_ends_on_the_same_cycle() {
    // 3_337 is no DRAM edge: a jump that ignored the cap would overshoot.
    let cfg = SimConfig { max_cycles: 3_337, ..config(50_000) };
    for kind in [SchedulerKind::ParBs(Default::default()), SchedulerKind::Stfm] {
        let run = system(cfg.clone(), &MIXES[0], &kind).run();
        assert!(run.timed_out);
        assert_eq!(run.cycles, 3_337);
        assert_eq!(run, one_cycle_at_a_time(system(cfg.clone(), &MIXES[0], &kind)));
    }
}

#[test]
fn step_cycles_stops_at_its_budget() {
    let kind = SchedulerKind::ParBs(Default::default());
    let mut sys = system(config(1_500), &MIXES[0], &kind);
    let mut progress = sys.begin_run();
    for budget in [1u64, 2, 3, 5, 7, 13, 101].into_iter().cycle() {
        let before = progress.cycles();
        let consumed = sys.step_cycles(&mut progress, budget);
        assert!(consumed <= budget, "consumed {consumed} of a {budget}-cycle budget");
        assert_eq!(progress.cycles() - before, consumed);
        if consumed < budget {
            assert_eq!(progress.threads_remaining(), 0, "stopped short of its budget mid-run");
            break;
        }
    }
    let stepped = one_cycle_at_a_time(system(config(1_500), &MIXES[0], &kind));
    assert_eq!(sys.finish_run(progress), stepped);
}

/// A [`FlowSource`] that counts its polls and either forwards
/// [`RequestSource::next_event`] or keeps the default, which asks to be
/// polled every cycle.
struct Polled {
    inner: FlowSource,
    forward: bool,
    polls: u64,
}

impl RequestSource for Polled {
    fn requesters(&self) -> usize {
        self.inner.requesters()
    }

    fn poll(&mut self, now: u64, out: &mut Vec<SourcedRequest>) {
        self.polls += 1;
        self.inner.poll(now, out);
    }

    fn next_event(&self, now: u64) -> u64 {
        if self.forward {
            self.inner.next_event(now)
        } else {
            now
        }
    }

    fn on_complete(&mut self, token: u64, now: u64) {
        self.inner.on_complete(token, now);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

fn flows() -> FlowConfig {
    FlowConfig {
        requesters: 200,
        arrival_rate: 0.01,
        size: BoundedPareto { alpha: 1.2, min: 2, max: 16 },
        ..FlowConfig::default()
    }
}

/// The drive's outcome, rendered for comparison.
fn drive(cfg: &SimConfig, kind: &SchedulerKind, source: &mut dyn RequestSource) -> String {
    format!("{:?}", drive_source(cfg, kind, source, false, None))
}

#[test]
fn drive_source_jumps_match_polling_every_cycle_for_every_scheduler() {
    let cfg = SimConfig::for_cores(4);
    for kind in SchedulerKind::all() {
        let mut direct = FlowSource::new(flows());
        let got = drive(&cfg, &kind, &mut direct);
        let mut every = Polled { inner: FlowSource::new(flows()), forward: false, polls: 0 };
        let want = drive(&cfg, &kind, &mut every);
        assert_eq!(got, want, "{}", kind.name());
        assert_eq!(direct.take_completed(), every.inner.take_completed(), "{}", kind.name());

        let mut jumping = Polled { inner: FlowSource::new(flows()), forward: true, polls: 0 };
        assert_eq!(drive(&cfg, &kind, &mut jumping), want, "{}", kind.name());
        assert!(
            jumping.polls * 2 < every.polls,
            "{}: {} polls with jumps, {} without",
            kind.name(),
            jumping.polls,
            every.polls
        );
    }
}

#[test]
fn a_drive_cut_by_max_cycles_ends_on_the_same_cycle() {
    let cfg = SimConfig { max_cycles: 5_003, ..SimConfig::for_cores(4) };
    let kind = SchedulerKind::ParBs(Default::default());
    let got = drive(&cfg, &kind, &mut FlowSource::new(flows()));
    let mut every = Polled { inner: FlowSource::new(flows()), forward: false, polls: 0 };
    assert_eq!(got, drive(&cfg, &kind, &mut every));
    assert_eq!(every.polls, 5_003, "one poll per cycle up to the cap");
    assert!(got.contains("cycles: 5003, timed_out: true"), "{got}");
}
