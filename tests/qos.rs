//! QoS integration: thread priorities, opportunistic service, and
//! NFQ/STFM weights (Section 5 / Fig. 14 behaviours).

use parbs::{ParBsConfig, ThreadPriority};
use parbs_sim::{experiments, EvalJob, EvalOverrides, Harness, SchedulerKind, SimConfig};
use parbs_workloads::MixSpec;

fn harness(target: u64) -> Harness {
    Harness::new(SimConfig { target_instructions: target, ..SimConfig::for_cores(4) })
}

#[test]
fn opportunistic_threads_yield_to_the_important_one() {
    let h = harness(6_000);
    let evals = h.run_plan(experiments::priority_opportunistic_plan().plan(), 2);
    let parbs = evals.iter().find(|e| e.scheduler == "PAR-BS").unwrap();
    // Thread 2 (omnetpp) is the important one.
    let omnetpp = parbs.metrics.slowdowns[2];
    for (i, sl) in parbs.metrics.slowdowns.iter().enumerate() {
        if i != 2 {
            assert!(
                omnetpp < *sl,
                "important thread ({omnetpp:.2}) must be less slowed than opportunistic {i} ({sl:.2})"
            );
        }
    }
    // And it should be barely slowed at all.
    assert!(omnetpp < 2.0, "high-priority omnetpp slowdown {omnetpp:.2}");
}

#[test]
fn parbs_priority_levels_order_service() {
    // Four identical lbm copies with priorities 1, 1, 2, 8: the level-8
    // thread must be the most slowed, the level-1 threads the least.
    let h = harness(6_000);
    let evals = h.run_plan(experiments::priority_weighted_plan().plan(), 2);
    let parbs = evals.iter().find(|e| e.scheduler == "PAR-BS").unwrap();
    let sl = &parbs.metrics.slowdowns;
    assert!(sl[3] > sl[0], "level-8 thread ({}) vs level-1 ({})", sl[3], sl[0]);
    assert!(sl[3] > sl[1]);
    assert!(sl[3] > sl[2], "level-8 ({}) vs level-2 ({})", sl[3], sl[2]);
}

#[test]
fn nfq_weights_shift_bandwidth() {
    // Same mix, one thread with 8x the share: it must be less slowed than
    // the weight-1 copies.
    let h = harness(6_000);
    let mix = MixSpec::from_names("lbm4", &["lbm", "lbm", "lbm", "lbm"]);
    let shares = EvalOverrides { weights: vec![8.0, 1.0, 1.0, 1.0], ..EvalOverrides::none() };
    let e = h.evaluate(&EvalJob { mix, kind: SchedulerKind::Nfq, overrides: shares });
    let sl = &e.metrics.slowdowns;
    assert!(
        sl[0] < sl[1] && sl[0] < sl[2] && sl[0] < sl[3],
        "weight-8 thread should be least slowed: {sl:?}"
    );
}

#[test]
fn stfm_weights_shift_priority() {
    let h = harness(6_000);
    let mix = MixSpec::from_names("lbm4", &["lbm", "lbm", "lbm", "lbm"]);
    let shares = EvalOverrides { weights: vec![8.0, 1.0, 1.0, 1.0], ..EvalOverrides::none() };
    let e = h.evaluate(&EvalJob { mix, kind: SchedulerKind::Stfm, overrides: shares });
    let sl = &e.metrics.slowdowns;
    assert!(
        sl[0] < sl[1] && sl[0] < sl[2] && sl[0] < sl[3],
        "weight-8 thread should be least slowed: {sl:?}"
    );
}

#[test]
fn priority_levels_do_not_break_starvation_freedom() {
    // Even the level-8 thread finishes its run (no livelock) under
    // protocol checking.
    let cfg = SimConfig {
        target_instructions: 3_000,
        check_protocol: true,
        thread_priorities: vec![
            ThreadPriority::Level1,
            ThreadPriority::Level1,
            ThreadPriority::Level(2),
            ThreadPriority::Level(8),
        ],
        ..SimConfig::for_cores(4)
    };
    let h = Harness::new(cfg);
    let mix = MixSpec::from_names("lbm4", &["lbm", "lbm", "lbm", "lbm"]);
    let parbs = SchedulerKind::ParBs(ParBsConfig::default());
    let r = h.shared_system(&mix, &parbs, &EvalOverrides::none()).run();
    assert!(!r.timed_out, "every thread must finish");
    for t in &r.threads {
        assert!(t.instructions >= 3_000);
    }
}
