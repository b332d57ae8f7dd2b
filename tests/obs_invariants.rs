//! Tier-1 observability suite: the PAR-BS batching invariants hold on every
//! shipped mix, and the `prelude::invariants()` monitor behind
//! `--check-invariants` actually detects a scheduler that breaks them.
//!
//! The invariants are checked *from the event stream alone* (Rule 1/2
//! marked-first service, Marking-Cap, batch exclusivity, Max-Total rank
//! order), so a clean report here means the cycle-level controller and the
//! scheduler agree about what a batch is — not just that the scheduler's
//! internal counters are self-consistent.

mod common;

use common::RuleTwoInverted;
use parbs_dram::{Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_monitor::{prelude, Monitor};
use parbs_obs::downcast_sink;
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::{case_study_1, case_study_2, case_study_3, random_mixes, MixSpec};

fn assert_clean(mix: &MixSpec, kind: &SchedulerKind, target: u64) {
    let cfg = SimConfig { target_instructions: target, ..SimConfig::for_cores(mix.cores()) };
    let opts = ObserveOptions { check_invariants: true, trace: None, spec: None };
    let obs = run_observed(cfg, mix, kind, &opts);
    assert_eq!(
        obs.violation_count,
        0,
        "{} on '{}' violated batching invariants:\n{}",
        kind.name(),
        mix.name,
        obs.invariants.iter().flat_map(|r| r.alarms.iter()).cloned().collect::<Vec<_>>().join("\n")
    );
    assert!(!obs.invariants.is_empty(), "every channel must have been checked");
}

#[test]
fn parbs_is_clean_on_the_case_studies() {
    for mix in [case_study_1(), case_study_2(), case_study_3()] {
        assert_clean(&mix, &SchedulerKind::ParBs(Default::default()), 1_200);
    }
}

#[test]
fn parbs_is_clean_on_random_mixes() {
    for mix in random_mixes(4, 2, 7) {
        assert_clean(&mix, &SchedulerKind::ParBs(Default::default()), 1_000);
    }
}

#[test]
fn baselines_are_trivially_clean() {
    // Non-batching schedulers emit no marking events, so the batching
    // invariants hold vacuously — but the monitor must still run and
    // report. BLISS and ATLAS additionally stream their own events
    // (blacklist set/clear, quantum rollover) through the same monitor,
    // which must ignore them without tripping.
    let mix = case_study_1();
    for kind in
        [SchedulerKind::FrFcfs, SchedulerKind::Stfm, SchedulerKind::Bliss, SchedulerKind::Atlas]
    {
        assert_clean(&mix, &kind, 1_000);
    }
}

/// Drains `ctrl` and returns the invariants monitor attached to it.
fn drain_monitored(mut ctrl: Controller, requests: usize) -> Box<Monitor> {
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), requests);
    let sink = ctrl.take_event_sink().expect("monitor attached");
    let Ok(mon) = downcast_sink::<Monitor>(sink) else {
        panic!("the attached sink is a monitor");
    };
    mon
}

#[test]
fn invariants_monitor_catches_a_rule_two_violation() {
    let mut ctrl = Controller::new(DramConfig::default(), Box::new(RuleTwoInverted::default()));
    ctrl.set_event_sink(Box::new(prelude::invariants().monitor()));
    // Two reads to the same (bank, row): id 0 gets marked, id 1 does not,
    // and the broken priority serves id 1 first.
    for id in 0..2u64 {
        let addr = LineAddr { channel: 0, bank: 0, row: 5, col: id };
        ctrl.try_enqueue(Request::new(id, ThreadId(id as usize), addr, RequestKind::Read, 0))
            .unwrap();
    }
    let mon = drain_monitored(ctrl, 2);
    let verdicts: Vec<(&str, u64, Option<usize>)> =
        mon.alarms().iter().map(|a| (a.name.as_str(), a.at, a.thread)).collect();
    assert_eq!(verdicts, [("marked-first", 60, Some(1))], "{:?}", mon.alarms());
    let report = mon.alarms()[0].to_string();
    assert!(report.contains("marked-first") && report.contains("req 1"), "{report}");
}

#[test]
fn a_well_behaved_parbs_controller_run_stays_clean_at_the_dram_level() {
    use parbs::{ParBsConfig, ParBsScheduler};
    let mut ctrl = Controller::new(
        DramConfig::default(),
        Box::new(ParBsScheduler::new(ParBsConfig::default())),
    );
    ctrl.set_event_sink(Box::new(prelude::invariants().monitor()));
    // An adversarial-ish shape: two threads interleaved on the same bank
    // plus a third spread across banks.
    let mut id = 0u64;
    for round in 0..6u64 {
        for (thread, bank, row) in [(0usize, 0usize, 1u64), (1, 0, 2), (2, round as usize % 8, 3)] {
            let addr = LineAddr { channel: 0, bank, row, col: id };
            ctrl.try_enqueue(Request::new(id, ThreadId(thread), addr, RequestKind::Read, 0))
                .unwrap();
            id += 1;
        }
    }
    let mon = drain_monitored(ctrl, 18);
    assert!(mon.ok(), "alarms: {:?}", mon.alarms());
    assert!(
        mon.summary().contains("0 alarms"),
        "summary mentions the clean outcome: {}",
        mon.summary()
    );
}

#[test]
fn jsonl_and_chrome_payloads_come_from_the_same_run_shape() {
    // Sanity: both formats serialize without error on a real mix and the
    // chrome payload is JSON-shaped with per-bank and per-thread tracks.
    let mix = case_study_1();
    let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
    let opts =
        ObserveOptions { check_invariants: false, trace: Some(TraceFormat::Chrome), spec: None };
    let obs = run_observed(cfg, &mix, &SchedulerKind::ParBs(Default::default()), &opts);
    let chrome = obs.trace.expect("chrome payload");
    assert!(chrome.contains("\"bank 0\"") && chrome.contains("\"thread 0\""), "named tracks");
    assert!(chrome.contains("process_name"), "track metadata present");
}
