//! The benchmark's own checks, at a tiny run length.

use parbs_perfbench::timed::Tracer;
use parbs_perfbench::workloads::{prepare, run, run_traced, Outcome};
use parbs_perfbench::{Scale, Workload};

fn untraced(workload: Workload, seed: u64) -> Outcome {
    run(prepare(workload, seed, &Scale::TINY))
}

#[test]
fn every_workload_runs_without_failures() {
    for workload in Workload::ALL {
        let out = untraced(workload, 3);
        assert!(!out.sims.is_empty(), "{}", workload.name());
        assert!(out.sims.iter().all(|s| s.ok), "{}: {:?}", workload.name(), out.sims);
        assert!(out.cycles > 0 && out.dram_reads > 0, "{}", workload.name());
    }
}

#[test]
fn two_invocations_give_equal_digests() {
    for workload in Workload::ALL {
        assert_eq!(untraced(workload, 5).sims, untraced(workload, 5).sims, "{}", workload.name());
    }
}

#[test]
fn seeds_change_the_inputs() {
    for workload in Workload::ALL {
        assert_ne!(untraced(workload, 5).sims, untraced(workload, 6).sims, "{}", workload.name());
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_digests() {
    // On cs1_zoo this covers all seven schedulers, each with its shared run
    // and four alone baselines.
    for workload in Workload::ALL {
        let tracer = Tracer::shared();
        let traced = run_traced(prepare(workload, 7, &Scale::TINY), &tracer);
        assert_eq!(traced.sims, untraced(workload, 7).sims, "{}", workload.name());
        assert_eq!(traced.cycles, tracer.cycles.get(), "{}", workload.name());
        assert!(tracer.loop_ns.get() > 0 && tracer.commands.get() > 0, "{}", workload.name());
    }
}
