//! Acceptance check for the streaming-accelerator agent class: a GPU-like
//! streamer (very high MPKI, very high row-buffer locality) sharing DRAM
//! with CPU threads must *measurably degrade CPU-thread fairness* under
//! row-hit-first FR-FCFS — the streamer's open-row bursts starve the CPUs
//! while it barely slows down itself — whereas blacklisting (BLISS) and
//! request batching (PAR-BS) contain the damage.

use parbs_metrics::{class_fairness, ClassFairness};
use parbs_sim::{EvalJob, Harness, MixEvaluation, SchedulerKind, SimConfig};
use parbs_workloads::{accel_case_study, MixSpec};

fn evaluate(mix: &MixSpec, kind: SchedulerKind) -> MixEvaluation {
    let cfg = SimConfig { target_instructions: 10_000, ..SimConfig::for_cores(mix.cores()) };
    Harness::new(cfg).evaluate(&EvalJob::new(mix.clone(), kind))
}

fn class_split(mix: &MixSpec, eval: &MixEvaluation) -> ClassFairness {
    class_fairness(&eval.metrics.slowdowns, &mix.accel_mask())
}

#[test]
fn accelerator_degrades_cpu_fairness_under_frfcfs_but_not_bliss_or_parbs() {
    let with_accel = accel_case_study();
    let cpu_names: Vec<&str> = with_accel.benchmarks.iter().take(3).map(|b| b.name).collect();
    let cpus_only = MixSpec::from_names("cpus-only", &cpu_names);

    let baseline = evaluate(&cpus_only, SchedulerKind::FrFcfs);
    let frfcfs = evaluate(&with_accel, SchedulerKind::FrFcfs);
    let bliss = evaluate(&with_accel, SchedulerKind::Bliss);
    let parbs = evaluate(&with_accel, SchedulerKind::ParBs(Default::default()));

    // Adding the streamer must blow up FR-FCFS unfairness: the CPUs pay,
    // the streamer does not.
    assert!(
        frfcfs.metrics.unfairness > 2.0 * baseline.metrics.unfairness,
        "streamer must degrade FR-FCFS fairness: {:.2} with accel vs {:.2} without",
        frfcfs.metrics.unfairness,
        baseline.metrics.unfairness
    );
    let split = class_split(&with_accel, &frfcfs);
    assert!(
        split.cpu_max_slowdown > 3.0 * split.accel_max_slowdown,
        "FR-FCFS serves the streamer's row hits while CPUs starve \
         (cpu max {:.2}, accel {:.2})",
        split.cpu_max_slowdown,
        split.accel_max_slowdown
    );

    // BLISS and PAR-BS contain the streamer: lower system unfairness and a
    // lower worst CPU slowdown than FR-FCFS on the same mix.
    for (name, eval) in [("BLISS", &bliss), ("PAR-BS", &parbs)] {
        assert!(
            eval.metrics.unfairness < frfcfs.metrics.unfairness,
            "{name} must beat FR-FCFS unfairness: {:.2} vs {:.2}",
            eval.metrics.unfairness,
            frfcfs.metrics.unfairness
        );
        let s = class_split(&with_accel, eval);
        assert!(
            s.cpu_max_slowdown < split.cpu_max_slowdown,
            "{name} must shrink the worst CPU slowdown: {:.2} vs FR-FCFS {:.2}",
            s.cpu_max_slowdown,
            split.cpu_max_slowdown
        );
    }
}
