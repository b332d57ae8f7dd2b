//! Verdict identity: the `prelude::invariants()` monitor reaches the same
//! verdicts — including the offending cycle and thread — online over live
//! controller event streams and offline over a JSONL replay of the same
//! trace.
//!
//! Pass-side identity runs every scheduler of `SchedulerKind::all()` over the
//! paper case studies and random mixes; violation-side identity uses a
//! deliberately broken batching scheduler (Rule 2 inverted) whose verdicts
//! are pinned to recorded `(rule, cycle, thread)` triples.

mod common;

use common::RuleTwoInverted;
use parbs_dram::{Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_monitor::{prelude, replay_jsonl, Spec};
use parbs_obs::{downcast_sink, FanoutSink, JsonlSink};
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::{case_study_1, case_study_2, case_study_3, random_mixes, MixSpec};

/// The identity of one verdict: (rule/trigger name, offending cycle,
/// offending thread).
type Verdict = (String, u64, Option<usize>);

fn monitor_verdicts(mon: &parbs_monitor::Monitor) -> Vec<Verdict> {
    let mut v: Vec<Verdict> =
        mon.alarms().iter().map(|a| (a.name.clone(), a.at, a.thread)).collect();
    v.sort();
    v
}

fn assert_identical_and_clean(mix: &MixSpec, kind: &SchedulerKind, spec: &Spec) {
    let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
    let channels = cfg.dram.channels();
    let opts = ObserveOptions {
        check_invariants: false,
        trace: Some(TraceFormat::Jsonl),
        spec: Some(spec.clone()),
    };
    let obs = run_observed(cfg, mix, kind, &opts);
    let label = format!("{} on '{}'", kind.name(), mix.name);
    // Online: every channel's monitor reaches a clean verdict.
    assert_eq!(obs.alarm_count, 0, "{label}: monitor alarms: {:?}", obs.monitors);
    assert_eq!(obs.monitors.len(), channels, "{label}: every channel monitored");
    // Offline: replaying channel 0's JSONL trace must reproduce channel 0's
    // online verdict event for event.
    let trace = obs.trace.expect("jsonl trace requested");
    let replayed = replay_jsonl(spec, trace.as_bytes()).expect("round-trip trace replays");
    let ch0 = obs.monitors.iter().find(|m| m.channel == 0).expect("channel 0 monitored");
    assert_eq!(replayed.events, ch0.events, "{label}: replay saw the online event stream");
    assert_eq!(monitor_verdicts(&replayed), Vec::<Verdict>::new(), "{label}: replay is clean");
}

#[test]
fn zoo_verdicts_match_on_the_case_studies() {
    let spec = prelude::invariants();
    for kind in SchedulerKind::all() {
        for mix in [case_study_1(), case_study_2(), case_study_3()] {
            assert_identical_and_clean(&mix, &kind, &spec);
        }
    }
}

#[test]
fn zoo_verdicts_match_on_random_mixes() {
    let spec = prelude::invariants();
    for kind in SchedulerKind::all() {
        for mix in random_mixes(4, 2, 13) {
            assert_identical_and_clean(&mix, &kind, &spec);
        }
    }
}

#[test]
fn qos_spec_runs_clean_across_the_zoo() {
    // The QoS prelude is advisory (warn-only); it must run everywhere
    // without error-severity alarms and replay to the same trigger counts.
    let spec = prelude::qos();
    let mix = case_study_1();
    for kind in SchedulerKind::all() {
        let cfg = SimConfig { target_instructions: 800, ..SimConfig::for_cores(mix.cores()) };
        let opts = ObserveOptions {
            check_invariants: false,
            trace: Some(TraceFormat::Jsonl),
            spec: Some(spec.clone()),
        };
        let obs = run_observed(cfg, &mix, &kind, &opts);
        assert!(obs.monitors.iter().all(|m| m.ok), "{}: {:?}", kind.name(), obs.monitors);
        let replayed =
            replay_jsonl(&spec, obs.trace.expect("jsonl trace").as_bytes()).expect("replays");
        let ch0 = obs.monitors.iter().find(|m| m.channel == 0).expect("channel 0");
        let online: Vec<(String, parbs_monitor::Severity, u64)> = ch0.trigger_counts.clone();
        let offline: Vec<(String, parbs_monitor::Severity, u64)> =
            replayed.trigger_counts().into_iter().map(|(n, s, k)| (n.to_owned(), s, k)).collect();
        assert_eq!(online, offline, "{}: trigger counts replay identically", kind.name());
    }
}

/// The verdicts the broken scheduler drew from the hand-written
/// event-stream checker that preceded the invariant prelude, recorded
/// before that checker was retired. The prelude must keep reproducing them.
const RECORDED_BROKEN_VERDICTS: [(&str, u64, Option<usize>); 3] =
    [("marked-first", 60, Some(1)), ("marked-first", 100, Some(0)), ("marked-first", 140, Some(2))];

#[test]
fn broken_scheduler_verdicts_are_identical_online_and_offline() {
    let spec = prelude::invariants();
    let mut ctrl = Controller::new(DramConfig::default(), Box::new(RuleTwoInverted::default()));
    let mut fan = FanoutSink::new();
    fan.push(Box::new(spec.monitor()));
    fan.push(Box::new(JsonlSink::new(Vec::new())));
    ctrl.set_event_sink(Box::new(fan));
    // Three same-(bank,row) read pairs across threads: even ids get marked,
    // odd ids do not, and the broken priority serves the unmarked ones first.
    for id in 0..6u64 {
        let addr = LineAddr { channel: 0, bank: (id / 2) as usize, row: 5, col: id };
        ctrl.try_enqueue(Request::new(id, ThreadId(id as usize % 3), addr, RequestKind::Read, 0))
            .unwrap();
    }
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    assert_eq!(done.len(), 6);

    let sink = ctrl.take_event_sink().expect("sink attached above");
    let Ok(fan) = downcast_sink::<FanoutSink>(sink) else { panic!("fanout attached") };
    let mut sinks = fan.into_sinks().into_iter();
    let Some(Ok(mon)) = sinks.next().map(downcast_sink::<parbs_monitor::Monitor>) else {
        panic!("monitor pushed first");
    };
    let Some(Ok(jsonl)) = sinks.next().map(downcast_sink::<JsonlSink<Vec<u8>>>) else {
        panic!("jsonl sink pushed second");
    };

    let recorded: Vec<Verdict> =
        RECORDED_BROKEN_VERDICTS.iter().map(|&(n, at, t)| (n.to_owned(), at, t)).collect();
    assert_eq!(monitor_verdicts(&mon), recorded, "online verdicts match the recorded triples");

    // Offline replay of the same trace reproduces the same verdicts again.
    let replayed = replay_jsonl(&spec, jsonl.into_string().as_bytes()).expect("trace replays");
    assert_eq!(monitor_verdicts(&replayed), recorded, "offline replay reaches the same verdicts");
}
