//! Cross-crate integration: full-system runs with protocol checking,
//! metric sanity, and determinism.

use parbs_sim::{experiments, EvalJob, Harness, SchedulerKind, SimConfig};
use parbs_workloads::{case_study_1, random_mixes};

fn checked_cfg(cores: usize, target: u64) -> SimConfig {
    SimConfig { target_instructions: target, check_protocol: true, ..SimConfig::for_cores(cores) }
}

#[test]
fn all_five_schedulers_run_protocol_clean() {
    // `check_protocol` panics on any DRAM timing violation.
    for kind in SchedulerKind::paper_five() {
        let harness = Harness::new(checked_cfg(4, 2_000));
        let eval = harness.evaluate(&EvalJob::new(case_study_1(), kind.clone()));
        assert_eq!(eval.metrics.slowdowns.len(), 4, "{}", kind.name());
        assert!(eval.metrics.unfairness >= 1.0, "{}", kind.name());
        assert!(
            eval.metrics.weighted_speedup > 0.0 && eval.metrics.weighted_speedup <= 4.0 + 1e-9,
            "{}: ws = {}",
            kind.name(),
            eval.metrics.weighted_speedup
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let harness = Harness::new(checked_cfg(4, 2_000));
        harness.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::ParBs(Default::default())))
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics.slowdowns, b.metrics.slowdowns);
    assert_eq!(a.worst_case_latency, b.worst_case_latency);
}

#[test]
fn slowdowns_exceed_one_under_heavy_sharing() {
    // Four memory-intensive threads on one channel: every thread must be
    // measurably slowed relative to running alone.
    let harness = Harness::new(checked_cfg(4, 3_000));
    let eval = harness.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::FrFcfs));
    for (name, s) in eval.thread_names.iter().zip(&eval.metrics.slowdowns) {
        assert!(*s > 1.2, "{name} slowdown {s} suspiciously low");
    }
}

#[test]
fn eight_and_sixteen_core_systems_run() {
    for cores in [8usize, 16] {
        let harness = Harness::new(checked_cfg(cores, 1_000));
        let mix = &random_mixes(cores, 1, 7)[0];
        let eval =
            harness.evaluate(&EvalJob::new(mix.clone(), SchedulerKind::ParBs(Default::default())));
        assert_eq!(eval.metrics.slowdowns.len(), cores);
        assert!(eval.metrics.weighted_speedup > 0.0);
    }
}

#[test]
fn alone_cache_consistent_across_equal_queries() {
    let harness = Harness::new(checked_cfg(4, 2_000));
    let job = EvalJob::new(case_study_1(), SchedulerKind::Stfm);
    let a = harness.evaluate(&job);
    let b = harness.evaluate(&job);
    assert_eq!(a.metrics.slowdowns, b.metrics.slowdowns);
}

#[test]
fn micro_experiments_have_expected_direction() {
    let (overlapped, serialized) = experiments::micro::fig1_overlap();
    assert!(overlapped < serialized);
    let (conv, parbs) = experiments::micro::fig2_stall_times();
    assert!(parbs[0] + parbs[1] < conv[0] + conv[1]);
}
