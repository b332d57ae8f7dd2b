//! Integration tests for the experiment harness itself: labels, row
//! alignment, Table 3 coverage, and the plan/collation plumbing the figure
//! binaries rely on.

use parbs_sim::experiments::{
    batching_kinds, marking_cap_kinds, named_rows, ranking_kinds, table3_rows, SweepPlan,
};
use parbs_sim::{Harness, SchedulerKind, SimConfig};
use parbs_workloads::{all_benchmarks, random_mixes};

fn quick_harness() -> Harness {
    Harness::new(SimConfig { target_instructions: 800, ..SimConfig::for_cores(4) })
}

#[test]
fn sweep_rows_align_with_mixes_and_kinds() {
    let h = quick_harness();
    let mixes = random_mixes(4, 3, 5);
    let kinds = named_rows(SchedulerKind::paper_five());
    let sweep = SweepPlan::new(&mixes, &kinds);
    assert_eq!(sweep.job_count(), mixes.len() * kinds.len());
    let rows = sweep.run(&h, 4);
    assert_eq!(rows.len(), kinds.len());
    for (row, (label, _, _)) in rows.iter().zip(&kinds) {
        assert_eq!(&row.label, label);
        assert_eq!(row.evaluations.len(), mixes.len());
        for (eval, mix) in row.evaluations.iter().zip(&mixes) {
            assert_eq!(eval.mix, mix.name);
            assert_eq!(eval.thread_names.len(), 4);
        }
    }
}

#[test]
fn marking_cap_sweep_labels_follow_paper() {
    let h = quick_harness();
    let mixes = random_mixes(4, 1, 5);
    let rows = SweepPlan::new(&mixes, &marking_cap_kinds(&[Some(1), Some(20), None])).run(&h, 2);
    let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["c=1", "c=20", "no-c"]);
}

#[test]
fn batching_sweep_has_nine_variants() {
    let h = quick_harness();
    let mixes = random_mixes(4, 1, 5);
    let rows = SweepPlan::new(&mixes, &batching_kinds()).run(&h, 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "st-400", "st-800", "st-1600", "st-3200", "st-6400", "st-12800", "st-25600", "eslot",
            "full"
        ]
    );
}

#[test]
fn ranking_kinds_cover_figure13() {
    let labels: Vec<String> = ranking_kinds().into_iter().map(|(l, _, _)| l).collect();
    assert_eq!(labels.len(), 7);
    assert!(labels.contains(&"max-total(PAR-BS)".to_owned()));
    assert!(labels.contains(&"no-rank(FCFS)".to_owned()));
    assert!(labels.contains(&"STFM".to_owned()));
}

#[test]
fn table3_covers_all_28_benchmarks_in_order() {
    let h = quick_harness();
    let rows = table3_rows(&h, 4);
    assert_eq!(rows.len(), 28);
    for (row, bench) in rows.iter().zip(all_benchmarks()) {
        assert_eq!(row.bench.number, bench.number);
        assert!(row.mpki >= 0.0);
        assert!((0.0..=1.0).contains(&row.rb_hit));
    }
    // The intensity ordering survives measurement at even a tiny scale:
    // mcf must be far more intensive than gromacs.
    let mcf = rows.iter().find(|r| r.bench.name == "mcf").unwrap();
    let gromacs = rows.iter().find(|r| r.bench.name == "gromacs").unwrap();
    assert!(mcf.mpki > 20.0 * gromacs.mpki.max(0.01));
}

#[test]
fn summaries_aggregate_consistently() {
    let h = quick_harness();
    let mixes = random_mixes(4, 2, 5);
    let rows = SweepPlan::new(&mixes, &named_rows(SchedulerKind::paper_five())).run(&h, 4);
    for row in &rows {
        let summary = row.summary();
        assert_eq!(summary.name, row.label);
        assert!(summary.unfairness >= 1.0);
        let max_wc = row.evaluations.iter().map(|e| e.worst_case_latency).max().unwrap();
        assert_eq!(summary.worst_case_latency, max_wc);
    }
}
