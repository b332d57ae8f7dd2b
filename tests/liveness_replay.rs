//! Cross-validation of the liveness model checker against the simulator's
//! observability stack: the witness traces `parbs-sim check-liveness`
//! emits are replayed through the obs event bus into the *same*
//! `prelude:invariants` monitor spec that judges real simulated runs. A
//! clean replay means the abstract model's serves speak the exact event
//! protocol the simulator emits (marking, batch formation, completion
//! accounting) — so a bound proved on the model is a statement about the
//! same discipline the simulator implements, not a private re-definition.

use parbs_monitor::prelude;
use parbs_obs::EventSink;
use parbs_sim::analyze::{
    check_scheduler_liveness, LivenessConfig, LivenessReport, LivenessVerdict,
};
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig};
use parbs_workloads::case_study_1;

/// Model-checks the liveness contract of `kind` on `cfg`.
fn check(kind: &SchedulerKind, cfg: &LivenessConfig) -> LivenessReport {
    check_scheduler_liveness(&*kind.build(&SimConfig::for_cores(4)), cfg)
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

/// Replays `events` through a fresh `prelude:invariants` monitor and
/// returns it for inspection.
fn monitored(events: &[parbs_obs::Event]) -> parbs_monitor::Monitor {
    let mut mon = prelude::invariants().monitor();
    for e in events {
        mon.record(e);
    }
    mon
}

#[test]
fn every_scheduler_witness_replays_clean_through_the_invariant_spec() {
    let cfg = LivenessConfig::tiny();
    for kind in SchedulerKind::all() {
        let name = kind.name();
        let report = check(&kind, &cfg);
        assert!(report.claim_verified(), "{report}");
        let witness = report.witness.as_ref().expect("closed explorations carry a witness");
        let events = witness.to_events(&report.policy, &cfg);
        assert!(!events.is_empty(), "{name} witness must produce events");
        let mon = monitored(&events);
        assert!(
            mon.ok(),
            "{name} witness replay tripped invariants: {} / {:?}",
            mon.summary(),
            mon.alarms()
        );
    }
}

#[test]
fn the_starvation_lasso_is_observable_on_the_event_bus() {
    // The FR-FCFS lasso unrolls into a concrete event stream: the victim
    // is enqueued and never completes, while the hammering adversary's
    // requests complete forever — visible, protocol-clean starvation.
    let cfg = LivenessConfig::tiny();
    let report = check(&SchedulerKind::FrFcfs, &cfg);
    assert!(matches!(report.verdict, LivenessVerdict::Unbounded));
    let witness = report.witness.as_ref().unwrap();
    assert!(!witness.cycle.is_empty(), "a lasso has a cycle");
    let events = witness.to_events(&report.policy, &cfg);
    let mon = monitored(&events);
    assert!(mon.ok(), "{} / {:?}", mon.summary(), mon.alarms());
    // The victim (thread 0) is enqueued but never completed.
    let victim_enqueued =
        events.iter().any(|e| matches!(e, parbs_obs::Event::Enqueued { thread: 0, .. }));
    let victim_completed =
        events.iter().any(|e| matches!(e, parbs_obs::Event::Completed { thread: 0, .. }));
    assert!(victim_enqueued && !victim_completed, "the lasso starves the victim observably");
}

#[test]
fn the_same_spec_judges_model_witnesses_and_simulated_runs() {
    // One spec, two worlds: a real PAR-BS simulation must be clean under
    // `prelude:invariants`, and so must the model checker's PAR-BS
    // witness — the cross-validation that makes the proved bound about
    // the same discipline the simulator implements.
    let mix = case_study_1();
    let sim_cfg = SimConfig { target_instructions: 1_500, ..SimConfig::for_cores(mix.cores()) };
    let opts =
        ObserveOptions { check_invariants: false, trace: None, spec: Some(prelude::invariants()) };
    let obs = run_observed(sim_cfg, &mix, &SchedulerKind::ParBs(Default::default()), &opts);
    assert_eq!(obs.alarm_count, 0, "{:?}", obs.monitors);
    assert!(obs.monitors.iter().all(|m| m.ok));

    let cfg = LivenessConfig::tiny();
    let report = check(&SchedulerKind::ParBs(Default::default()), &cfg);
    let events = report.witness.as_ref().unwrap().to_events(&report.policy, &cfg);
    let mon = monitored(&events);
    assert!(mon.ok(), "{} / {:?}", mon.summary(), mon.alarms());
}
