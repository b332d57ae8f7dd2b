//! The identity corpus: one digest per canonical simulation, checked
//! against the committed `tests/golden/identity.txt`.
//!
//! Each case hashes a result's `parbs-snap` encoding (or the raw bytes of
//! a checkpoint or trace) with [`Fingerprint`], the way perfbench digests
//! its workloads. A fast path or refactor that moves any output fails here
//! with the name of the case and both digests. The cases cover every
//! scheduler on the three case studies (STFM reads the stall reports, so
//! it is the most sensitive to how stall cycles are counted), a 16-core
//! mix, every scheduler's checkpoint and its resumed run, the open-loop
//! flow driver under every scheduler, and Case Study 1's event traces. Unequal priorities
//! and shares are covered by the rows of Fig. 14 (PAR-BS levels 1-1-2-8,
//! opportunistic threads, NFQ/STFM weights), by NFQ and STFQ at shares
//! 8-1-1-1, where the two schedule differently, and by the checkpoints of
//! NFQ, STFQ and STFM at those shares, whose bytes encode the weights: on
//! the checkpoint mix and on Case Study 3, whose four intensive threads make
//! STFQ's resumed run depend on the weights too. The traces are Chrome
//! under PAR-BS and JSONL under PAR-BS, BLISS and ATLAS, which together
//! emit every event kind; the `prelude:invariants` and `prelude:qos`
//! verdicts on Case Study 1 are digested online and on replay of its
//! JSONL trace. The static analyses are digested too: every scheduler's
//! `check-keys` report, its `check-liveness` report and witness on the
//! tiny geometry, and the states and commands of `check-timing`'s
//! depth-4 differential check on the 1- and 2-rank tiny geometries.
//! The PAR-BS variants and extensions are covered row by row: the
//! Marking-Cap sweep of Fig. 11, the batching and ranking choices of
//! Figs. 12 and 13 and the `ext_schedulers` rows (STFQ and the adaptive
//! Marking-Cap), each plan on Case Study 1 through one [`Harness`]. So are
//! the memory systems the sensitivity studies vary: every row of
//! `mapping-sweep` (mapping, XOR permutation and rank count under the
//! seven-scheduler zoo) and FR-FCFS and PAR-BS at every point of
//! `ext_param_sweep`, on Case Study 1.
//!
//! `PARBS_RECORD_IDENTITY=1 cargo test --test identity` rewrites the file.
//! Re-record only when a change is meant to move output, and name every
//! re-recorded case, with the reason, in CHANGES.md.

use std::collections::BTreeMap;

use parbs_monitor::{prelude, replay_jsonl, Spec};
use parbs_sim::analyze::{
    check_scheduler_keys, check_scheduler_liveness, run_differential, LivenessConfig, McConfig,
};
use parbs_sim::experiments::{
    batching_kinds, ext_scheduler_kinds, fig11_caps, mapping_sweep_systems, marking_cap_kinds,
    named_rows, param_sweep_axes, priority_opportunistic_plan, priority_weighted_plan,
    ranking_kinds, PlanRow, SweepPlan,
};
use parbs_sim::{
    run_flow, run_observed, EvalJob, EvalOverrides, FlowRunResult, Harness, MixEvaluation,
    ObserveOptions, RunResult, SchedulerKind, SimConfig, TraceFormat,
};
use parbs_snap::{Fingerprint, SnapWriter};
use parbs_workloads::{
    case_study_1, case_study_2, case_study_3, random_mixes, BoundedPareto, FlowConfig, MixSpec,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/identity.txt");

/// The variable that rewrites [`GOLDEN`] instead of checking it.
const RECORD: &str = "PARBS_RECORD_IDENTITY";

fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(bytes);
    fp.digest()
}

fn digest(w: SnapWriter) -> u64 {
    digest_bytes(&w.into_bytes())
}

/// A [`Harness::evaluate`] result: the metrics, the shared-run snapshots
/// and the shared run's worst-case latency and row-hit rate.
fn evaluation(e: &MixEvaluation) -> u64 {
    let mut w = SnapWriter::new();
    let m = &e.metrics;
    w.put(&m.slowdowns);
    w.put(&m.speedups);
    w.f64(m.unfairness);
    w.f64(m.weighted_speedup);
    w.f64(m.hmean_speedup);
    w.f64(m.ast_per_req);
    w.put(&e.shared);
    w.u64(e.worst_case_latency);
    w.f64(e.row_hit_rate);
    digest(w)
}

fn run(r: &RunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.put(&r.threads);
    w.u64(r.cycles);
    w.f64(r.row_hit_rate);
    w.u64(r.worst_case_latency);
    w.bool(r.timed_out);
    w.put(&r.read_latency);
    digest(w)
}

/// A flow run: the flow summary and the drive counters.
fn flow(r: &FlowRunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.usize(r.requesters);
    w.usize(r.completed);
    let s = &r.summary;
    w.u64(s.flows);
    w.u64(s.fct_p50);
    w.u64(s.fct_p95);
    w.u64(s.fct_p99);
    w.f64(s.fct_mean);
    w.f64(s.slowdown_p50);
    w.f64(s.slowdown_p99);
    w.f64(s.slowdown_rate);
    let d = &r.drive;
    w.u64(d.cycles);
    w.bool(d.timed_out);
    w.u64(d.reads_completed);
    w.put(&d.read_latency);
    w.usize(d.peak_backlog);
    w.usize(d.invariant_violations);
    w.usize(d.monitor_alarms);
    digest(w)
}

fn config(cores: usize, target: u64) -> SimConfig {
    SimConfig { target_instructions: target, ..SimConfig::for_cores(cores) }
}

/// Every row of a plan on Case Study 1, run through one [`Harness`] on
/// `cfg` as the regenerations run them, named `plan/<plan>/<row>`.
fn plan_cases(plan: &str, cfg: SimConfig, rows: &[PlanRow]) -> Vec<(String, u64)> {
    let harness = Harness::new(cfg);
    SweepPlan::new(&[case_study_1()], rows)
        .run(&harness, 1)
        .iter()
        .map(|row| (format!("plan/{plan}/{}", row.label), evaluation(&row.evaluations[0])))
        .collect()
}

/// The checkpoint cases' system: a 4-core run, cut at a fixed cycle.
const CHECKPOINT_MIX: [&str; 4] = ["mcf", "libquantum", "lbm", "hmmer"];
const CHECKPOINT_CYCLE: u64 = 8_000;

fn checkpoint_mix() -> MixSpec {
    MixSpec::from_names("ckpt", &CHECKPOINT_MIX)
}

/// Shares 8-1-1-1: the weights under which NFQ, STFQ and STFM schedule
/// differently from their equal-share runs and from each other.
fn shares_8111() -> EvalOverrides {
    EvalOverrides { weights: vec![8.0, 1.0, 1.0, 1.0], ..EvalOverrides::none() }
}

/// The checkpoint bytes of a run of `mix` under `kind` with `overrides` at
/// [`CHECKPOINT_CYCLE`], and the result of resuming from them in a fresh
/// system, named `checkpoint/<prefix><SCHED>/…`.
fn checkpoint_cases(
    prefix: &str,
    mix: &MixSpec,
    kind: &SchedulerKind,
    overrides: &EvalOverrides,
) -> Vec<(String, u64)> {
    let harness = Harness::new(config(4, 3_000));
    let mut sys = harness.shared_system(mix, kind, overrides);
    let mut progress = sys.begin_run();
    for _ in 0..CHECKPOINT_CYCLE {
        assert!(sys.step_cycle(&mut progress), "the run outlasts the checkpoint cycle");
    }
    let blob = sys.save_checkpoint(&progress, "ckpt").expect("checkpointable");
    let mut fresh = harness.shared_system(mix, kind, overrides);
    let mut progress = fresh.resume(&blob, "ckpt").expect("self-resume succeeds");
    while fresh.step_cycle(&mut progress) {}
    let resumed = fresh.finish_run(progress);
    vec![
        (format!("checkpoint/{prefix}{}/bytes", kind.name()), digest_bytes(&blob)),
        (format!("checkpoint/{prefix}{}/resumed", kind.name()), run(&resumed)),
    ]
}

/// `kind`'s `check-keys` report line and its `check-liveness` report, with
/// any witness, on the tiny geometry, as `parbs-sim` builds the scheduler.
fn analysis_cases(kind: &SchedulerKind) -> Vec<(String, u64)> {
    let build = || kind.build(&SimConfig::for_cores(4));
    let keys = check_scheduler_keys(&build).expect("the key contract holds");
    let keys = format!(
        "{}: {} field(s) verified over {} state(s), {} key(s), {} pair(s)\n",
        keys.scheduler, keys.fields, keys.states, keys.keys, keys.pairs
    );
    let liveness =
        check_scheduler_liveness(&*build(), &LivenessConfig::tiny()).expect("a contract");
    let mut text = format!("{liveness}\n");
    if let Some(w) = &liveness.witness {
        text.push_str(&w.describe());
    }
    vec![
        (format!("check-keys/{}", kind.name()), digest_bytes(keys.as_bytes())),
        (format!("check-liveness/tiny/{}", kind.name()), digest_bytes(text.as_bytes())),
    ]
}

/// `check-timing`'s differential model check at depth 4 on the tiny
/// `ranks`-rank geometry: the states and commands it compared.
fn differential_case(ranks: usize) -> (String, u64) {
    let stats = run_differential(&McConfig::tiny(ranks, 4))
        .unwrap_or_else(|d| panic!("the differential check diverged:\n{d}"));
    let mut w = SnapWriter::new();
    w.u64(stats.states);
    w.u64(stats.commands);
    (format!("check-timing/depth4/{ranks}-rank"), digest(w))
}

/// Case Study 1's channel-0 event trace in `format` under `kind`.
fn cs1_trace(kind: &SchedulerKind, format: TraceFormat) -> (String, u64) {
    let opts = ObserveOptions { check_invariants: false, trace: Some(format), spec: None };
    let obs = run_observed(config(4, 2_000), &case_study_1(), kind, &opts);
    let trace = obs.trace.expect("a trace was requested");
    let case = format!("trace/CS1/{}/{}", kind.name(), format.name());
    (case, digest_bytes(trace.as_bytes()))
}

/// A monitor verdict: its summary line, every alarm and each trigger's
/// fire count.
fn verdict<'a>(
    summary: &str,
    alarms: impl Iterator<Item = String>,
    counts: impl Iterator<Item = (&'a str, parbs_monitor::Severity, u64)>,
) -> u64 {
    let mut text = format!("{summary}\n");
    for alarm in alarms {
        text.push_str(&format!("{alarm}\n"));
    }
    for (name, severity, n) in counts {
        text.push_str(&format!("{name} {severity} {n}\n"));
    }
    digest_bytes(text.as_bytes())
}

/// The verdict of `spec` on Case Study 1 under PAR-BS: channel 0's online
/// verdict, and the verdict of replaying channel 0's JSONL trace.
fn cs1_verdicts(name: &str, spec: &Spec) -> Vec<(String, u64)> {
    let opts = ObserveOptions {
        check_invariants: false,
        trace: Some(TraceFormat::Jsonl),
        spec: Some(spec.clone()),
    };
    let kind = SchedulerKind::ParBs(Default::default());
    let obs = run_observed(config(4, 2_000), &case_study_1(), &kind, &opts);
    let ch0 = obs.monitors.iter().find(|m| m.channel == 0).expect("channel 0 is monitored");
    let online = verdict(
        &ch0.summary,
        ch0.alarms.iter().cloned(),
        ch0.trigger_counts.iter().map(|(n, s, k)| (n.as_str(), *s, *k)),
    );
    let trace = obs.trace.expect("a JSONL trace was requested");
    let replayed = replay_jsonl(spec, &trace).expect("the trace replays");
    let offline = verdict(
        &replayed.summary(),
        replayed.alarms().iter().map(ToString::to_string),
        replayed.trigger_counts().into_iter(),
    );
    vec![
        (format!("verdict/CS1/PAR-BS/{name}/online"), online),
        (format!("verdict/CS1/PAR-BS/{name}/replay"), offline),
    ]
}

/// One unit of work: it computes one or more named digests.
type Case = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    let base = config(4, 1_000);
    for (plan, rows) in [
        ("fig11", marking_cap_kinds(&fig11_caps())),
        ("fig12", batching_kinds()),
        ("fig13", ranking_kinds()),
        ("ext_schedulers", ext_scheduler_kinds()),
    ] {
        let cfg = base.clone();
        cases.push(Box::new(move || plan_cases(plan, cfg.clone(), &rows)));
    }
    for (system, cfg) in mapping_sweep_systems(&base) {
        let plan = format!("mapping-sweep/{system}");
        let rows = named_rows(SchedulerKind::zoo_seven());
        cases.push(Box::new(move || plan_cases(&plan, cfg.clone(), &rows)));
    }
    let param_rows = named_rows([SchedulerKind::FrFcfs, SchedulerKind::ParBs(Default::default())]);
    for (_, points) in param_sweep_axes(&base) {
        for (label, cfg) in points {
            // Golden lines split at the first space.
            let plan = format!("ext_param_sweep/{}", label.replace(' ', "-"));
            let rows = param_rows.clone();
            cases.push(Box::new(move || plan_cases(&plan, cfg.clone(), &rows)));
        }
    }
    for mix in [case_study_1(), case_study_2(), case_study_3()] {
        for kind in SchedulerKind::all() {
            let mix = mix.clone();
            cases.push(Box::new(move || {
                let e = Harness::new(config(4, 3_000))
                    .evaluate(&EvalJob::new(mix.clone(), kind.clone()));
                vec![(format!("evaluate/{}/{}", mix.name, kind.name()), evaluation(&e))]
            }));
        }
    }
    for plan in [priority_weighted_plan(), priority_opportunistic_plan()] {
        for job in plan.plan() {
            let job = job.clone();
            cases.push(Box::new(move || {
                let e = Harness::new(config(4, 3_000)).evaluate(&job);
                vec![(format!("evaluate/{}/{}", job.mix.name, job.kind.name()), evaluation(&e))]
            }));
        }
    }
    for kind in [SchedulerKind::Nfq, SchedulerKind::Stfq] {
        cases.push(Box::new(move || {
            let job = EvalJob { mix: case_study_3(), kind: kind.clone(), overrides: shares_8111() };
            let e = Harness::new(config(4, 3_000)).evaluate(&job);
            vec![(format!("evaluate/CS3-shares-8111/{}", kind.name()), evaluation(&e))]
        }));
    }
    for kind in [SchedulerKind::ParBs(Default::default()), SchedulerKind::FrFcfs] {
        cases.push(Box::new(move || {
            let mix = random_mixes(16, 1, 42).remove(0);
            let harness = Harness::new(config(16, 1_000));
            let e = harness.evaluate(&EvalJob::new(mix.clone(), kind.clone()));
            vec![(format!("evaluate/16core-{}/{}", mix.name, kind.name()), evaluation(&e))]
        }));
    }
    for kind in SchedulerKind::all() {
        cases.push(Box::new(move || {
            checkpoint_cases("", &checkpoint_mix(), &kind, &EvalOverrides::none())
        }));
    }
    for kind in [SchedulerKind::Nfq, SchedulerKind::Stfq, SchedulerKind::Stfm] {
        let cs3 = kind.clone();
        cases.push(Box::new(move || {
            checkpoint_cases("shares-8111/", &checkpoint_mix(), &kind, &shares_8111())
        }));
        cases.push(Box::new(move || {
            checkpoint_cases("CS3-shares-8111/", &case_study_3(), &cs3, &shares_8111())
        }));
    }
    for ranks in [1, 2] {
        cases.push(Box::new(move || vec![differential_case(ranks)]));
    }
    for kind in SchedulerKind::all() {
        cases.push(Box::new(move || analysis_cases(&kind)));
    }
    for kind in SchedulerKind::all() {
        cases.push(Box::new(move || {
            let flows = FlowConfig {
                requesters: 500,
                arrival_rate: 0.01,
                size: BoundedPareto { alpha: 1.2, min: 2, max: 32 },
                ..FlowConfig::default()
            };
            let r = run_flow(&SimConfig::for_cores(4), &kind, &flows, false, None);
            vec![(format!("flow/500/{}", kind.name()), flow(&r))]
        }));
    }
    let parbs = SchedulerKind::ParBs(Default::default());
    let bliss = SchedulerKind::Bliss;
    let atlas = SchedulerKind::Atlas;
    for (kind, format) in [
        (parbs.clone(), TraceFormat::Jsonl),
        (parbs, TraceFormat::Chrome),
        (bliss, TraceFormat::Jsonl),
        (atlas, TraceFormat::Jsonl),
    ] {
        cases.push(Box::new(move || vec![cs1_trace(&kind, format)]));
    }
    cases.push(Box::new(|| cs1_verdicts("invariants", &prelude::invariants())));
    cases.push(Box::new(|| cs1_verdicts("qos", &prelude::qos())));
    cases
}

/// Every case's digests, computed on two worker threads.
fn compute() -> BTreeMap<String, u64> {
    let cases = cases();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out = BTreeMap::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(case) = cases.get(i) else { break };
                        got.extend(case());
                    }
                    got
                })
            })
            .collect();
        for w in workers {
            out.extend(w.join().expect("an identity case panicked"));
        }
    });
    out
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (case, hex) = l.split_once(' ').unwrap_or_else(|| panic!("bad golden line: {l}"));
            let hex = hex.trim().trim_start_matches("0x");
            let d = u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("{l}: {e}"));
            (case.to_owned(), d)
        })
        .collect()
}

fn render(digests: &BTreeMap<String, u64>) -> String {
    let mut text = format!(
        "# One `case digest` line per identity case (tests/identity.rs).\n\
         # Rewrite with {RECORD}=1 only when output is meant to change.\n"
    );
    for (case, d) in digests {
        text.push_str(&format!("{case} {d:#018x}\n"));
    }
    text
}

#[test]
fn identity_corpus_matches_the_golden_file() {
    let got = compute();
    if std::env::var_os(RECORD).is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, render(&got)).expect("golden file is writable");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e}; record it with {RECORD}=1"));
    let want = parse(&text);
    let mut mismatches = Vec::new();
    for (case, &d) in &got {
        match want.get(case) {
            Some(&w) if w == d => {}
            Some(&w) => mismatches.push(format!("{case}: golden {w:#018x}, got {d:#018x}")),
            None => mismatches.push(format!("{case}: not in the golden file, got {d:#018x}")),
        }
    }
    for case in want.keys().filter(|c| !got.contains_key(*c)) {
        mismatches.push(format!("{case}: in the golden file but no longer computed"));
    }
    assert!(mismatches.is_empty(), "identity corpus moved:\n{}", mismatches.join("\n"));
}
