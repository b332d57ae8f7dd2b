//! Property-based validation: under random request streams and adversarial
//! (but total-order) scheduling policies, the controller never violates a
//! DRAM timing constraint and always drains every request; and along long
//! random command walks, the protocol checker's earliest-issue answer
//! matches `Channel::can_issue` and `Channel::earliest_issue` after every
//! command.

use std::cmp::Ordering;

use parbs_dram::{
    Channel, Command, CommandKind, Controller, DramConfig, FcfsScheduler, MemoryScheduler,
    ProtocolChecker, Request, RequestId, RequestKind, SchedView, ThreadId, TimingParams,
    DRAM_CYCLE,
};
use proptest::prelude::*;

/// Services youngest requests first — a deliberately pathological order that
/// still must produce a legal command stream.
#[derive(Debug, Default)]
struct LifoScheduler;

impl MemoryScheduler for LifoScheduler {
    fn name(&self) -> &str {
        "LIFO"
    }
    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        u128::from(req.id.0)
    }
    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        b.id.cmp(&a.id)
    }
}

/// Orders requests by a keyed hash — arbitrary but stable total order.
#[derive(Debug)]
struct HashOrderScheduler {
    key: u64,
}

impl MemoryScheduler for HashOrderScheduler {
    fn name(&self) -> &str {
        "HASH"
    }
    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        // Smaller hash wins under `compare`, so invert for the packed key.
        let h = (req.id.0 ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (u128::from(!h) << 64) | u128::from(u64::MAX - req.id.0)
    }
    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        let h = |r: &Request| (r.id.0 ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h(a).cmp(&h(b)).then(a.id.cmp(&b.id))
    }
}

#[derive(Debug, Clone)]
struct ReqSpec {
    thread: u8,
    bank: u8,
    row: u8,
    col: u8,
    write: bool,
    gap: u16,
}

fn req_spec() -> impl Strategy<Value = ReqSpec> {
    (0u8..4, 0u8..8, 0u8..4, 0u8..32, any::<bool>(), 0u16..200).prop_map(
        |(thread, bank, row, col, write, gap)| ReqSpec { thread, bank, row, col, write, gap },
    )
}

fn run_stream(specs: &[ReqSpec], scheduler: Box<dyn MemoryScheduler>) -> (usize, usize) {
    let cfg = DramConfig::default();
    let mapper = cfg.mapper();
    let mut ctrl = Controller::with_checker(cfg, scheduler);
    let mut out = Vec::new();
    let mut now = 0u64;
    let mut expected_reads = 0;
    let mut expected_writes = 0;
    for (i, s) in specs.iter().enumerate() {
        // Advance time by the spec's gap, ticking the controller.
        for _ in 0..s.gap {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        let addr = mapper.decode(mapper.encode(parbs_dram::LineAddr {
            channel: 0,
            bank: s.bank as usize,
            row: s.row as u64,
            col: s.col as u64,
        }));
        let kind = if s.write { RequestKind::Write } else { RequestKind::Read };
        let req = Request::new(i as u64, ThreadId(s.thread as usize), addr, kind, now);
        if ctrl.try_enqueue(req).is_ok() {
            if s.write {
                expected_writes += 1;
            } else {
                expected_reads += 1;
            }
        }
    }
    out.extend(ctrl.run_to_drain(&mut now, 10_000_000));
    let done = out;
    let reads = done.iter().filter(|c| c.kind == RequestKind::Read).count();
    let writes = done.iter().filter(|c| c.kind == RequestKind::Write).count();
    assert_eq!(reads, expected_reads, "every accepted read must complete");
    assert_eq!(writes, expected_writes, "every accepted write must complete");
    (reads, writes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fcfs_never_violates_protocol(specs in proptest::collection::vec(req_spec(), 1..120)) {
        // `Controller::with_checker` panics on the first protocol violation.
        run_stream(&specs, Box::new(FcfsScheduler::new()));
    }

    #[test]
    fn lifo_never_violates_protocol(specs in proptest::collection::vec(req_spec(), 1..120)) {
        run_stream(&specs, Box::new(LifoScheduler));
    }

    #[test]
    fn hash_order_never_violates_protocol(
        specs in proptest::collection::vec(req_spec(), 1..120),
        key in any::<u64>(),
    ) {
        run_stream(&specs, Box::new(HashOrderScheduler { key }));
    }

    #[test]
    fn latencies_are_bounded_below_by_row_hit_minimum(
        specs in proptest::collection::vec(req_spec(), 1..40),
    ) {
        let cfg = DramConfig::default();
        let t = cfg.timing;
        let mut ctrl = Controller::with_checker(cfg, Box::new(FcfsScheduler::new()));
        let mut now = 0u64;
        for (i, s) in specs.iter().enumerate() {
            let addr = parbs_dram::LineAddr {
                channel: 0, bank: s.bank as usize, row: s.row as u64, col: s.col as u64,
            };
            let _ = ctrl.try_enqueue(Request::new(
                i as u64, ThreadId(s.thread as usize), addr, RequestKind::Read, now,
            ));
        }
        let done = ctrl.run_to_drain(&mut now, 10_000_000);
        let min = t.t_cl + t.t_burst + t.front_latency;
        for c in &done {
            prop_assert!(c.latency() >= min, "latency {} below physical minimum {min}", c.latency());
        }
    }
}

/// The tFAW-stress timing of the differential model-check tests: small
/// tRRD/tRC so five activates fit well inside the four-activate window.
fn faw_stress_timing() -> TimingParams {
    let mut t = TimingParams::ddr2_800();
    t.t_rcd = 10;
    t.t_cl = 20;
    t.t_cwl = 10;
    t.t_rp = 10;
    t.t_ras = 20;
    t.t_rc = 30;
    t.t_burst = 10;
    t.t_ccd = 10;
    t.t_rrd = 10;
    t.t_wr = 10;
    t.t_rtp = 10;
    t.t_wtr = 10;
    t.t_faw = 150;
    t.t_rfc = 50;
    t.t_rtrs = 10;
    t.validate().expect("stress timing self-consistent");
    t
}

/// Every command of a `ranks` x `banks_per_rank` x 2-row channel.
fn alphabet(ranks: usize, banks_per_rank: usize) -> Vec<Command> {
    let mut cmds = Vec::new();
    for bank in 0..ranks * banks_per_rank {
        let rank = bank / banks_per_rank;
        let cmd = |kind, row| Command { kind, rank, bank, row, col: 0, request: RequestId(0) };
        for row in 0..2 {
            cmds.extend(
                [CommandKind::Activate, CommandKind::Read, CommandKind::Write].map(|k| cmd(k, row)),
            );
        }
        cmds.push(cmd(CommandKind::Precharge, 0));
    }
    cmds.extend((0..ranks).map(|rank| Command::refresh(rank, RequestId(u64::MAX))));
    cmds
}

/// Walks `steps` random legal commands on a fresh channel and checker. Each
/// step picks a command the checker admits (`choice` modulo their number) and
/// issues it `delay` DRAM cycles after its earliest cycle. Before every
/// issue, each command's first cycle `Channel::can_issue` accepts must equal
/// the checker's `earliest_issue`, both clamped to one DRAM cycle after the
/// previous issue; a command either rules out must stay illegal past every
/// single wait the timing admits. `Channel::earliest_issue`, rounded up to
/// the command clock and clamped the same way, must give the same answer.
fn walk(
    ranks: usize,
    banks_per_rank: usize,
    t: TimingParams,
    steps: &[(u16, u64)],
) -> Result<(), TestCaseError> {
    let mut channel = Channel::with_ranks(ranks, banks_per_rank, t);
    let mut checker = ProtocolChecker::with_ranks(ranks, banks_per_rank, t);
    let alphabet = alphabet(ranks, banks_per_rank);
    let slack = t.t_rfc
        + t.t_rc
        + t.t_faw
        + t.t_cl
        + t.t_cwl
        + t.t_burst
        + t.t_wtr
        + t.t_wr
        + t.t_rtrs
        + DRAM_CYCLE;
    let mut base = 0;
    for (i, &(choice, delay)) in steps.iter().enumerate() {
        let horizon = base + slack;
        let mut legal = Vec::new();
        for cmd in &alphabet {
            let checker_says = checker.earliest_issue(cmd).map(|e| e.max(base));
            let channel_says = (base..=horizon)
                .step_by(DRAM_CYCLE as usize)
                .find(|&at| channel.can_issue(cmd, at));
            prop_assert_eq!(
                channel_says,
                checker_says,
                "{} rank(s) x {} bank(s), tRFC {}, step {}: {:?}",
                ranks,
                banks_per_rank,
                t.t_rfc,
                i,
                cmd
            );
            let channel_bound =
                channel.earliest_issue(cmd).map(|e| e.next_multiple_of(DRAM_CYCLE).max(base));
            prop_assert_eq!(
                channel_bound,
                checker_says,
                "earliest_issue, {} rank(s) x {} bank(s), tRFC {}, step {}: {:?}",
                ranks,
                banks_per_rank,
                t.t_rfc,
                i,
                cmd
            );
            legal.extend(checker_says.map(|at| (*cmd, at)));
        }
        let (cmd, earliest) = legal[usize::from(choice) % legal.len()];
        let at = earliest + delay * DRAM_CYCLE;
        channel.issue(&cmd, ThreadId(0), at);
        checker.observe(&cmd, at).expect("the checker admitted this command");
        base = at + DRAM_CYCLE;
    }
    prop_assert!(base > 20 * 610, "the walk spans many times the checker's reach");
    Ok(())
}

/// A walk step: which admitted command, and how many DRAM cycles past its
/// earliest cycle it issues (mostly none, sometimes up to 60).
fn walk_steps() -> impl Strategy<Value = Vec<(u16, u64)>> {
    proptest::collection::vec((any::<u16>(), prop_oneof![3 => Just(0u64), 1 => 0u64..60]), 300..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn long_walks_keep_the_checker_and_the_channel_in_step(steps in walk_steps()) {
        for t in [TimingParams::ddr2_800(), faw_stress_timing()] {
            walk(1, 2, t, &steps)?;
            walk(2, 1, t, &steps)?;
        }
    }
}
