//! Differential model-checker tests: `Channel::can_issue` and the protocol
//! checker agree on the shipped rule table, and a rule mutation seeded into
//! the checker is caught with a minimal-length witness prefix.

use parbs_dram::{CommandKind, TimingParams, TIMING_RULES};
use parbs_sim::analyze::{run_differential, run_differential_with_rules, McConfig, Verdict};

/// Keep exhaustive-enumeration depth affordable under `cargo test` (debug
/// builds); the CI `analyze` job drives the release binary at depth ≥ 6.
fn test_depth() -> u32 {
    if cfg!(debug_assertions) {
        4
    } else {
        6
    }
}

#[test]
fn one_rank_tiny_geometry_agrees() {
    let stats = run_differential(&McConfig::tiny(1, test_depth()))
        .unwrap_or_else(|d| panic!("implementations diverged:\n{d}"));
    assert!(stats.states > 100, "enumeration must actually branch (got {} states)", stats.states);
    assert_eq!(stats.depth, test_depth());
}

#[test]
fn two_rank_tiny_geometry_agrees() {
    let stats = run_differential(&McConfig::tiny(2, test_depth()))
        .unwrap_or_else(|d| panic!("implementations diverged:\n{d}"));
    assert!(stats.states > 100, "enumeration must actually branch (got {} states)", stats.states);
}

/// Timing where tFAW binds quickly: small tRRD/tRC so five activates fit
/// well inside the four-activate window.
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

#[test]
fn dropped_tfaw_rule_is_caught_with_minimal_prefix() {
    // The checker runs without the tFAW rule; the channel's gating keeps
    // it. The shortest possible witness is four activates (filling the
    // window) followed by a fifth-activate candidate — iterative deepening
    // must find exactly that shape.
    let mutated: Vec<_> = TIMING_RULES.iter().filter(|r| r.id != "tFAW").copied().collect();
    let cfg =
        McConfig { ranks: 1, banks_per_rank: 5, rows: 1, depth: 4, timing: faw_stress_timing() };
    let d = *run_differential_with_rules(&cfg, &mutated)
        .expect_err("a dropped tFAW rule must produce a divergence");
    assert_eq!(d.prefix.len(), 4, "minimal witness is the four window-filling activates:\n{d}");
    assert!(
        d.prefix.iter().all(|(c, _)| c.kind == CommandKind::Activate),
        "witness prefix must be pure activates:\n{d}"
    );
    assert_eq!(d.candidate.kind, CommandKind::Activate, "disputed command is the fifth activate");
    // The mutated checker is still self-consistent; only the channel
    // enforces the window.
    assert_eq!(d.checker, d.check, "earliest_issue and check read one table:\n{d}");
    let (Verdict::At(full), Verdict::At(early)) = (d.channel, d.checker) else {
        panic!("fifth activate is eventually legal on both sides:\n{d}")
    };
    assert!(early < full, "the mutated checker must claim an earlier cycle:\n{d}");
}

#[test]
fn dropped_twtr_rule_is_caught_with_minimal_prefix() {
    let mutated: Vec<_> = TIMING_RULES.iter().filter(|r| r.id != "tWTR").copied().collect();
    let cfg = McConfig {
        ranks: 1,
        banks_per_rank: 2,
        rows: 1,
        depth: 2,
        timing: TimingParams::ddr2_800(),
    };
    let d = *run_differential_with_rules(&cfg, &mutated)
        .expect_err("a dropped tWTR rule must produce a divergence");
    assert_eq!(d.prefix.len(), 2, "minimal witness is activate + write:\n{d}");
    assert_eq!(d.prefix[0].0.kind, CommandKind::Activate, "the activate opens the row:\n{d}");
    assert_eq!(d.prefix[1].0.kind, CommandKind::Write, "the write arms the turnaround:\n{d}");
    assert!(d.candidate.kind.is_column(), "disputed command is the following column:\n{d}");
    assert_eq!(d.checker, d.check, "earliest_issue and check read one table:\n{d}");
    let (Verdict::At(full), Verdict::At(early)) = (d.channel, d.checker) else {
        panic!("the column is eventually legal on both sides:\n{d}")
    };
    assert!(early < full, "the mutated checker must claim an earlier cycle:\n{d}");
}

#[test]
fn mutated_runs_agree_when_the_mutation_is_unreachable() {
    // Dropping tFAW is invisible on a 2-bank rank under DDR2-800: tRC keeps
    // any four activates from crowding the window, so the differential
    // check must stay green — divergence detection is evidence-based, not
    // rule-diff-based.
    let mutated: Vec<_> = TIMING_RULES.iter().filter(|r| r.id != "tFAW").copied().collect();
    let cfg = McConfig {
        ranks: 1,
        banks_per_rank: 2,
        rows: 2,
        depth: 3,
        timing: TimingParams::ddr2_800(),
    };
    run_differential_with_rules(&cfg, &mutated)
        .unwrap_or_else(|d| panic!("unreachable mutation must not diverge:\n{d}"));
}
