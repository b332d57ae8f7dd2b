//! Tier-1 determinism guarantee of the parallel executor: a plan run at
//! any `--jobs` level produces identical output, row for row, because the
//! simulation is deterministic, alone baselines are keyed (not
//! order-dependent), and results are collated in plan order.

use parbs::{ParBsConfig, ParBsScheduler};
use parbs_dram::{Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_obs::{downcast_sink, ChromeTraceSink};
use parbs_sim::experiments::{named_rows, priority_weighted_plan, SweepPlan};
use parbs_sim::{EvalJob, EvalPlan, Harness, SchedulerKind, SimConfig};
use parbs_workloads::{accel_case_study, case_study_1, cpu_accel_mixes, fig9_8core, random_mixes};

fn quick_cfg() -> SimConfig {
    SimConfig { target_instructions: 800, ..SimConfig::for_cores(4) }
}

#[test]
fn two_mix_five_scheduler_plan_is_identical_at_jobs_1_and_4() {
    // The ISSUE-mandated grid: 2 mixes x 5 schedulers = 10 jobs. Fresh
    // harness per run so neither path starts with a warm alone cache.
    let mixes = random_mixes(4, 2, 7);
    let sweep = SweepPlan::new(&mixes, &named_rows(SchedulerKind::paper_five()));
    assert_eq!(sweep.job_count(), 10);

    let serial = Harness::new(quick_cfg()).run_plan(sweep.plan(), 1);
    let parallel = Harness::new(quick_cfg()).run_plan(sweep.plan(), 4);

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "row {i} diverged between jobs=1 and jobs=4");
    }
    // Belt and braces: the full vectors compare equal in one shot (same
    // order, `==` rows), and even their Debug renderings are identical.
    assert_eq!(serial, parallel);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn zoo_sweep_is_identical_at_jobs_1_and_4() {
    // The seven-scheduler zoo (paper five + BLISS + ATLAS) over mixed
    // CPU/accelerator workloads: BLISS's blacklist clearing and ATLAS's
    // quantum rollovers are driven purely by simulated cycles, so the
    // trace — and the collated table — must be byte-identical at any
    // worker count.
    let mut mixes = vec![accel_case_study()];
    mixes.extend(cpu_accel_mixes(4, 1, 7));
    let sweep = SweepPlan::new(&mixes, &named_rows(SchedulerKind::zoo_seven()));
    assert_eq!(sweep.job_count(), 14);

    let serial = Harness::new(quick_cfg()).run_plan(sweep.plan(), 1);
    let parallel = Harness::new(quick_cfg()).run_plan(sweep.plan(), 4);
    assert_eq!(serial, parallel);
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn override_jobs_are_deterministic_across_jobs_levels() {
    // Weight/priority overrides travel inside the job, not via config
    // mutation, so they cannot leak between concurrently running jobs.
    let sweep = priority_weighted_plan();
    let serial = Harness::new(quick_cfg()).run_plan(sweep.plan(), 1);
    let parallel = Harness::new(quick_cfg()).run_plan(sweep.plan(), 4);
    assert_eq!(serial, parallel);
}

/// The Figure 3 micro-example on the cycle-level controller, traced: a
/// light thread with one request on each of banks 0-2 and a heavy thread
/// with five requests on bank 3, drained under default PAR-BS.
fn fig3_chrome_trace() -> String {
    let mut ctrl = Controller::new(
        DramConfig::default(),
        Box::new(ParBsScheduler::new(ParBsConfig::default())),
    );
    ctrl.set_event_sink(Box::new(ChromeTraceSink::new()));
    let reqs = [
        (1usize, 3usize, 10u64),
        (0, 0, 1),
        (1, 3, 11),
        (0, 1, 1),
        (1, 3, 12),
        (0, 2, 1),
        (1, 3, 13),
        (1, 3, 14),
    ];
    for (i, (thread, bank, row)) in reqs.iter().enumerate() {
        let addr = LineAddr { channel: 0, bank: *bank, row: *row, col: 0 };
        ctrl.try_enqueue(Request::new(i as u64, ThreadId(*thread), addr, RequestKind::Read, 0))
            .unwrap();
    }
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), reqs.len());
    // A straggler after the drain opens batch 2, which closes batch 1 and
    // gets its formation→drain span into the trace.
    let addr = LineAddr { channel: 0, bank: 0, row: 2, col: 0 };
    ctrl.try_enqueue(Request::new(99, ThreadId(0), addr, RequestKind::Read, now)).unwrap();
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), 1);
    let sink = ctrl.take_event_sink().expect("sink attached above");
    let Ok(sink) = downcast_sink::<ChromeTraceSink>(sink) else {
        panic!("the attached sink is a ChromeTraceSink");
    };
    sink.finish()
}

#[test]
fn chrome_trace_of_fig3_micro_example_is_byte_identical_across_jobs_levels() {
    // Generate the golden trace next to a jobs=1 plan run and the candidate
    // next to a jobs=4 run of the same plan: neither parallel plan
    // execution nor harness state may perturb a traced run's bytes.
    let mixes = random_mixes(4, 1, 7);
    let sweep = SweepPlan::new(&mixes, &named_rows(SchedulerKind::paper_five()));
    let golden = {
        let _rows = Harness::new(quick_cfg()).run_plan(sweep.plan(), 1);
        fig3_chrome_trace()
    };
    let candidate = {
        let _rows = Harness::new(quick_cfg()).run_plan(sweep.plan(), 4);
        fig3_chrome_trace()
    };
    assert_eq!(golden, candidate, "trace bytes diverged between jobs=1 and jobs=4 contexts");
    // Golden-shape assertions: Perfetto-loadable JSON with per-bank and
    // per-thread tracks, the batch span, and the ranking instant.
    assert!(golden.starts_with("{\"displayTimeUnit\""));
    assert!(golden.ends_with("]}\n"));
    for needle in
        ["\"bank 3\"", "\"thread 0\"", "\"thread 1\"", "\"batch 1\"", "\"rank\"", "process_name"]
    {
        assert!(golden.contains(needle), "golden trace lacks {needle}");
    }
}

#[test]
fn checkpoint_resume_matches_uninterrupted_run_through_the_harness_seam() {
    // Save at an arbitrary mid-run cycle, rebuild the system from scratch,
    // resume from the blob, and finish: the result must be byte-identical
    // to the never-interrupted run, for every scheduler, on one channel of
    // one rank, on two ranks (per-rank activate windows and refresh
    // deadlines) and on two channels (a second controller).
    let mut two_ranks = quick_cfg();
    two_ranks.dram.geometry.ranks_per_channel = 2;
    let two_channels = SimConfig { target_instructions: 800, ..SimConfig::for_cores(8) };
    assert_eq!(two_channels.dram.channels(), 2);
    let systems =
        [(quick_cfg(), case_study_1()), (two_ranks, case_study_1()), (two_channels, fig9_8core())];
    for (cfg, mix) in systems {
        let (channels, ranks) = (cfg.dram.channels(), cfg.dram.ranks_per_channel());
        let shape = format!("{}, {channels} channel(s) x {ranks} rank(s)", mix.name);
        let harness = Harness::new(cfg);
        for kind in SchedulerKind::all() {
            let mut straight = harness.shared_system(&mix, &kind, &Default::default());
            let expected = straight.run();

            let mut first = harness.shared_system(&mix, &kind, &Default::default());
            let mut progress = first.begin_run();
            for _ in 0..3_000 {
                if !first.step_cycle(&mut progress) {
                    break;
                }
            }
            assert!(
                progress.threads_remaining() > 0,
                "{shape}: {} finished before the cut",
                kind.name()
            );
            let blob = first.save_checkpoint(&progress, &mix.name).expect("checkpointable system");
            drop(first);

            let mut second = harness.shared_system(&mix, &kind, &Default::default());
            let mut progress = second.resume(&blob, &mix.name).expect("fingerprint matches");
            // State the rest of the run happens not to read must come back
            // too: saving again reproduces the blob.
            let again = second.save_checkpoint(&progress, &mix.name).expect("checkpointable");
            assert!(again == blob, "{shape}: {} save -> resume -> save drifted", kind.name());
            while second.step_cycle(&mut progress) {}
            let resumed = second.finish_run(progress);
            assert_eq!(expected, resumed, "{shape}: {} diverged after resume", kind.name());
            assert_eq!(format!("{expected:?}"), format!("{resumed:?}"));
        }
    }
}

#[test]
fn warm_cache_does_not_change_results() {
    // Re-running a plan on the same harness hits the alone cache for every
    // baseline and must return the exact same rows.
    let harness = Harness::new(quick_cfg());
    let mut plan = EvalPlan::new();
    plan.push(EvalJob::new(case_study_1(), SchedulerKind::FrFcfs));
    plan.push(EvalJob::new(case_study_1(), SchedulerKind::Stfm));
    let cold = harness.run_plan(&plan, 2);
    let misses_after_cold = harness.cache_stats().misses;
    let warm = harness.run_plan(&plan, 2);
    assert_eq!(cold, warm);
    assert_eq!(
        harness.cache_stats().misses,
        misses_after_cold,
        "second run must not simulate any new baselines"
    );
}
