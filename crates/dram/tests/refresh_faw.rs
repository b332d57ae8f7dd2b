//! Tests for the four-activate window and all-bank refresh.

use parbs_dram::{
    Channel, Command, CommandKind, Controller, DramConfig, FcfsScheduler, LineAddr,
    ProtocolChecker, Request, RequestId, RequestKind, ThreadId, TimingParams,
};

fn act(bank: usize, row: u64) -> Command {
    Command { kind: CommandKind::Activate, rank: 0, bank, row, col: 0, request: RequestId(0) }
}

#[test]
fn tfaw_blocks_fifth_activate() {
    let t = TimingParams::ddr2_800();
    assert!(t.t_faw > 4 * t.t_rrd, "test assumes tFAW is the binding constraint");
    let mut ch = Channel::new(8, t);
    // Four activates at tRRD spacing.
    for (i, now) in (0..4).map(|i| (i, i as u64 * t.t_rrd)) {
        assert!(ch.can_issue(&act(i, 1), now), "activate {i} should be legal");
        ch.issue(&act(i, 1), ThreadId(0), now);
    }
    let after_rrd = 4 * t.t_rrd;
    assert!(!ch.can_issue(&act(4, 1), after_rrd), "fifth activate within tFAW must be blocked");
    assert!(
        ch.can_issue(&act(4, 1), t.t_faw + 10),
        "fifth activate after the window must be legal"
    );
}

#[test]
fn checker_accepts_refresh_and_blocks_act_during_trfc() {
    let t = TimingParams::ddr2_800();
    let mut c = ProtocolChecker::new(8, t);
    c.observe(&Command::refresh(0, RequestId(u64::MAX)), 0).unwrap();
    let err = c.observe(&act(0, 1), t.t_rfc - 10).unwrap_err();
    assert_eq!(err.rule, "tRFC");
    let mut c = ProtocolChecker::new(8, t);
    c.observe(&Command::refresh(0, RequestId(u64::MAX)), 0).unwrap();
    c.observe(&act(0, 1), t.t_rfc).unwrap();
}

#[test]
fn refresh_closes_open_rows() {
    let t = TimingParams::ddr2_800();
    let mut ch = Channel::new(8, t);
    ch.issue(&act(0, 5), ThreadId(0), 0);
    assert_eq!(ch.bank(0).open_row(), Some(5));
    ch.refresh_rank(0, 1_000);
    assert_eq!(ch.bank(0).open_row(), None);
    assert!(ch.refresh_until_rank(0) >= 1_000 + t.t_rfc);
    // Nothing can issue during the refresh.
    assert!(!ch.can_issue(&act(0, 5), 1_000 + t.t_rfc - 10));
    assert!(ch.can_issue(&act(0, 5), 1_000 + t.t_rfc));
}

#[test]
fn controller_refreshes_periodically() {
    let cfg = DramConfig::default();
    let t_refi = cfg.timing.t_refi;
    assert!(t_refi > 0);
    let mut ctrl = Controller::with_checker(cfg, Box::new(FcfsScheduler::new()));
    // Keep a trickle of reads flowing so the controller is active.
    let mut out = Vec::new();
    let mut id = 0u64;
    let horizon = 4 * t_refi;
    for now in 0..horizon {
        if now % 500 == 0 && ctrl.can_accept_read() {
            let addr = LineAddr { channel: 0, bank: (id % 8) as usize, row: id % 7, col: 0 };
            ctrl.try_enqueue(Request::new(id, ThreadId(0), addr, RequestKind::Read, now)).unwrap();
            id += 1;
        }
        ctrl.tick(now, &mut out);
    }
    let refreshes = ctrl.stats().refreshes;
    // One refresh per interval, ± the deferral slack.
    assert!(
        (3..=4).contains(&refreshes),
        "expected ~{} refreshes over {horizon} cycles, got {refreshes}",
        horizon / t_refi
    );
    assert!(!out.is_empty(), "reads still complete alongside refreshes");
}

#[test]
fn refresh_disabled_when_trefi_zero() {
    let mut cfg = DramConfig::default();
    cfg.timing.t_refi = 0;
    let mut ctrl = Controller::with_checker(cfg, Box::new(FcfsScheduler::new()));
    let mut out = Vec::new();
    for now in 0..100_000 {
        ctrl.tick(now, &mut out);
    }
    assert_eq!(ctrl.stats().refreshes, 0);
}

#[test]
fn checker_detects_tfaw_violation() {
    let t = TimingParams::ddr2_800();
    let mut c = ProtocolChecker::new(8, t);
    for i in 0..4u64 {
        c.observe(&act(i as usize, 1), i * t.t_rrd).unwrap();
    }
    let err = c.observe(&act(4, 1), 4 * t.t_rrd).unwrap_err();
    assert_eq!(err.rule, "tFAW");
    // After the window, a fresh checker run at legal spacing passes.
    let mut c = ProtocolChecker::new(8, t);
    for i in 0..6u64 {
        c.observe(&act(i as usize, 1), i * (t.t_faw / 3)).unwrap();
    }
}
