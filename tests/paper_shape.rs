//! The paper's qualitative results, as executable assertions. Absolute
//! numbers differ from the paper (scaled-down synthetic substrate), but
//! these orderings are the claims the reproduction stands on.

use parbs::{AbstractBatch, AbstractPolicy};
use parbs_sim::experiments::{self, named_rows, SweepPlan};
use parbs_sim::{EvalJob, Harness, SchedulerKind, SimConfig};
use parbs_workloads::case_study_1;

fn harness(target: u64) -> Harness {
    Harness::new(SimConfig { target_instructions: target, ..SimConfig::for_cores(4) })
}

#[test]
fn figure3_numbers_are_exact() {
    let b = AbstractBatch::figure3_example();
    assert_eq!(b.completion_times(AbstractPolicy::Fcfs), vec![4.0, 4.0, 5.0, 7.0]);
    assert_eq!(b.completion_times(AbstractPolicy::FrFcfs), vec![5.5, 3.0, 4.5, 4.5]);
    assert_eq!(b.completion_times(AbstractPolicy::ParBs), vec![1.0, 2.0, 4.0, 5.5]);
}

#[test]
fn table1_hardware_cost_is_exact() {
    assert_eq!(parbs::parbs_extra_state_bits(8, 128, 8).total(), 1412);
}

#[test]
fn parbs_beats_frfcfs_on_throughput_and_fairness_in_cs1() {
    let h = harness(8_000);
    let sweep = SweepPlan::new(&[case_study_1()], &named_rows(SchedulerKind::paper_five()));
    let evals = h.run_plan(sweep.plan(), 2);
    let by = |name: &str| evals.iter().find(|e| e.scheduler == name).unwrap();
    let frfcfs = by("FR-FCFS");
    let parbs = by("PAR-BS");
    assert!(
        parbs.metrics.weighted_speedup > frfcfs.metrics.weighted_speedup,
        "PAR-BS ws {} must beat FR-FCFS {}",
        parbs.metrics.weighted_speedup,
        frfcfs.metrics.weighted_speedup
    );
    assert!(
        parbs.metrics.unfairness < frfcfs.metrics.unfairness,
        "PAR-BS unfairness {} must beat FR-FCFS {}",
        parbs.metrics.unfairness,
        frfcfs.metrics.unfairness
    );
    assert!(parbs.metrics.ast_per_req < frfcfs.metrics.ast_per_req);
}

#[test]
fn frfcfs_favors_the_high_locality_intensive_thread() {
    // Fig. 5: libquantum (98% row-buffer locality, intensive) is the least
    // slowed thread under FR-FCFS.
    let h = harness(8_000);
    let eval = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::FrFcfs));
    let lib = eval.metrics.slowdowns[0];
    for (i, sl) in eval.metrics.slowdowns.iter().enumerate().skip(1) {
        assert!(lib < *sl, "libquantum ({lib:.2}) should be least slowed; thread {i} = {sl:.2}");
    }
}

#[test]
fn parbs_preserves_mcf_bank_parallelism_better_than_stfm() {
    // §8.1.1: STFM is parallelism-unaware and serializes mcf's concurrent
    // accesses; PAR-BS keeps mcf's AST/req lower.
    let h = harness(8_000);
    let stfm = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::Stfm));
    let parbs = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::ParBs(Default::default())));
    let mcf = 1; // thread index in CS1
    assert!(
        parbs.shared[mcf].ast_per_req() < stfm.shared[mcf].ast_per_req(),
        "PAR-BS mcf AST {} vs STFM {}",
        parbs.shared[mcf].ast_per_req(),
        stfm.shared[mcf].ast_per_req()
    );
}

#[test]
fn batching_bounds_worst_case_latency_vs_stfm() {
    // Table 4: STFM can delay individual requests for a long time to enforce
    // fairness; PAR-BS's batch bound keeps worst-case latency lower.
    let h = harness(8_000);
    let stfm = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::Stfm));
    let parbs = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::ParBs(Default::default())));
    assert!(
        parbs.worst_case_latency < stfm.worst_case_latency,
        "PAR-BS wc {} vs STFM wc {}",
        parbs.worst_case_latency,
        stfm.worst_case_latency
    );
}

#[test]
fn shortest_job_first_ranking_beats_random_within_batch() {
    // Fig. 13: Max-Total ranking yields better average throughput than
    // random ranking over a handful of mixes.
    let h = harness(4_000);
    let mixes = parbs_workloads::random_mixes(4, 6, 9);
    let rows = SweepPlan::new(&mixes, &experiments::ranking_kinds()).run(&h, 2);
    let ws =
        |label: &str| rows.iter().find(|r| r.label == label).unwrap().summary().weighted_speedup;
    assert!(
        ws("max-total(PAR-BS)") > ws("random"),
        "max-total {} vs random {}",
        ws("max-total(PAR-BS)"),
        ws("random")
    );
}

#[test]
fn marking_cap_controls_unfairness() {
    // Fig. 11: a very large cap (no-c) is less fair than a small cap. The
    // effect needs runs long enough for batch-level fairness to dominate
    // warmup noise, hence the larger instruction target than the other
    // sweeps here.
    let h = harness(6_000);
    let mixes = parbs_workloads::random_mixes(4, 8, 9);
    let rows = SweepPlan::new(&mixes, &experiments::marking_cap_kinds(&[Some(1), None])).run(&h, 2);
    let unf = |label: &str| rows.iter().find(|r| r.label == label).unwrap().summary().unfairness;
    assert!(
        unf("c=1") < unf("no-c"),
        "c=1 {} should be fairer than no-c {}",
        unf("c=1"),
        unf("no-c")
    );
}
