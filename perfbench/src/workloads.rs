//! The two benchmark workloads: set-up (everything before the first
//! simulated cycle), the untraced measured section through the simulator's
//! own entry points, and the traced re-run through the bench-side loops.

use std::rc::Rc;
use std::time::Instant;

use parbs::ParBsConfig;
use parbs_cpu::InstructionStream;
use parbs_metrics::{evaluate, FlowMetrics, MetricsRow, ThreadComparison, ThreadMeasurement};
use parbs_monitor::Spec;
use parbs_sim::{
    drive_source, EvalOverrides, EvalPlan, FlowRunResult, Harness, RunResult, SchedulerKind,
    SimConfig, System, ThreadRunStats,
};
use parbs_workloads::{
    case_study_1, BoundedPareto, CompletedFlow, FlowConfig, FlowSource, MixSpec, RequestSource,
    SourcedRequest, SyntheticStream,
};

use crate::loops::{traced_drive, TracedSystem};
use crate::timed::{ns_since, TimedSource, Tracer};
use crate::{digest, Scale, Workload};

/// Inputs of one workload run, built before the first simulated cycle.
pub enum Prepared {
    /// `cs1_zoo`: a fresh harness (empty alone cache), the 7-job plan and
    /// the PAR-BS shared system of the checkpointed run.
    Cs1 {
        /// Case Study 1 on the 4-core Table 2 system.
        harness: Harness,
        /// Case Study 1 under every scheduler of the zoo.
        plan: EvalPlan,
        /// Case Study 1.
        mix: MixSpec,
        /// The PAR-BS shared system the checkpointed run starts from.
        system: Box<System>,
    },
    /// `flow10k_mon`: the flow population and the compiled monitor.
    Flow {
        /// The 4-core Table 2 memory system.
        cfg: SimConfig,
        /// Open-loop flow population.
        flows: FlowConfig,
        /// `prelude:invariants`.
        spec: Spec,
    },
}

/// One simulation's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sim {
    /// Digest of the simulation's output (0 when it raised an error).
    pub digest: u64,
    /// False if it timed out, raised an error-severity alarm or an error.
    pub ok: bool,
}

/// Checkpoint cost of one `cs1_zoo` run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapCost {
    /// Host time in `System::save_checkpoint`.
    pub save_ns: u64,
    /// Host time in `System::resume`.
    pub resume_ns: u64,
    /// Checkpoint bytes written.
    pub bytes: u64,
}

/// What one measured section did.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// One entry per simulation, in workload order.
    pub sims: Vec<Sim>,
    /// Simulated processor cycles, summed over the simulations.
    pub cycles: u64,
    /// DRAM reads (see [`Workload`] for what each workload counts).
    pub dram_reads: u64,
    /// Host time of the measured section.
    pub wall_ns: u64,
    /// The same time split at fixed simulated cycles: one segment for
    /// `cs1_zoo`, and for `flow10k_mon` one per [`SEGMENT_CYCLES`] of the
    /// drive plus its set-up and its reduction. Each segment does the same
    /// work in every run of an input.
    pub segments_ns: Vec<u64>,
    /// Checkpoint cost (`cs1_zoo` only).
    pub snap: SnapCost,
}

fn parbs() -> SchedulerKind {
    SchedulerKind::ParBs(ParBsConfig::default())
}

/// Builds the workload's inputs from `seed`.
#[must_use]
pub fn prepare(workload: Workload, seed: u64, scale: &Scale) -> Prepared {
    match workload {
        Workload::Cs1Zoo => {
            let cfg = SimConfig {
                target_instructions: scale.cs1_target,
                seed,
                ..SimConfig::for_cores(4)
            };
            let mix = case_study_1();
            let plan = EvalPlan::product(std::slice::from_ref(&mix), &SchedulerKind::zoo_seven());
            let harness = Harness::new(cfg);
            let system = Box::new(harness.shared_system(&mix, &parbs(), &EvalOverrides::none()));
            Prepared::Cs1 { harness, plan, mix, system }
        }
        Workload::Flow10kMon => {
            let cfg = SimConfig { seed, ..SimConfig::for_cores(4) };
            let flows = FlowConfig {
                requesters: scale.flow_requesters,
                arrival_rate: 0.002,
                size: BoundedPareto { alpha: 1.2, min: 2, max: 256 },
                seed,
                ..FlowConfig::default()
            };
            Prepared::Flow { cfg, flows, spec: parbs_monitor::prelude::invariants() }
        }
    }
}

fn measurement(s: &ThreadRunStats) -> ThreadMeasurement {
    ThreadMeasurement {
        instructions: s.instructions,
        cycles: s.cycles,
        mem_stall_cycles: s.mem_stall_cycles,
        dram_reads: s.dram_reads,
    }
}

/// The metrics `Harness` derives from a shared run and its alone
/// baselines.
fn cs1_metrics(shared: &[ThreadRunStats], alone: &[ThreadRunStats]) -> MetricsRow {
    let comparisons: Vec<ThreadComparison> = shared
        .iter()
        .zip(alone)
        .map(|(s, a)| ThreadComparison { shared: measurement(s), alone: measurement(a) })
        .collect();
    evaluate(&comparisons)
}

/// The `cs1_zoo` verdict of one evaluation. A single-thread alone run ends
/// the cycle its thread reaches the target, and a shared run the cycle its
/// last thread does, so the snapshot cycles are also the simulated cycles.
fn cs1_sim(
    target: u64,
    metrics: &MetricsRow,
    shared: &[ThreadRunStats],
    alone: &[ThreadRunStats],
    out: &mut Outcome,
) -> Sim {
    out.cycles += shared.iter().map(|t| t.cycles).max().unwrap_or(0);
    out.cycles += alone.iter().map(|t| t.cycles).sum::<u64>();
    out.dram_reads += shared.iter().chain(alone).map(|t| t.dram_reads).sum::<u64>();
    let ok = shared.iter().chain(alone).all(|t| t.instructions >= target);
    Sim { digest: digest::evaluation(metrics, shared), ok }
}

fn flow_result(
    kind: &SchedulerKind,
    flows: &FlowConfig,
    drive: parbs_sim::SourceDriveResult,
    completed: &[CompletedFlow],
) -> FlowRunResult {
    // The reduction `run_flow` applies after its `drive_source` call.
    let base_latency = if drive.read_latency.count() == 0 { 1 } else { drive.read_latency.min() };
    let mut metrics = FlowMetrics::default();
    for f in completed {
        metrics.record(f.fct(), (f.size - 1) * flows.request_gap.max(1) + base_latency);
    }
    FlowRunResult {
        scheduler: kind.name(),
        requesters: flows.requesters,
        completed: completed.len(),
        summary: metrics.summary(),
        drive,
    }
}

fn flow_sim(r: &FlowRunResult, error_alarms: usize, out: &mut Outcome) -> Sim {
    out.cycles += r.drive.cycles;
    out.dram_reads += r.drive.reads_completed;
    let ok = !r.drive.timed_out && r.completed == r.requesters && error_alarms == 0;
    Sim { digest: digest::flow(r), ok }
}

/// Simulated cycles per timed segment of a `flow10k_mon` drive: a few
/// hundredths of a second of host time, short enough that most runs of
/// the benchmark catch each segment at least once while no other tenant
/// slows it.
pub const SEGMENT_CYCLES: u64 = 1 << 16;

/// A flow source that notes the host time at the start of every
/// [`SEGMENT_CYCLES`] cycles, when `drive_source` polls it, and otherwise
/// only delegates. One clock read per segment leaves the drive's cost
/// unchanged.
struct ClockedSource {
    inner: FlowSource,
    t0: Instant,
    marks: Vec<u64>,
}

impl RequestSource for ClockedSource {
    fn requesters(&self) -> usize {
        self.inner.requesters()
    }

    fn poll(&mut self, now: u64, out: &mut Vec<SourcedRequest>) {
        if now.is_multiple_of(SEGMENT_CYCLES) {
            self.marks.push(ns_since(self.t0));
        }
        self.inner.poll(now, out);
    }

    fn on_complete(&mut self, token: u64, now: u64) {
        self.inner.on_complete(token, now);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// The measured section: runs the prepared workload through the
/// simulator's own entry points (for `flow10k_mon`, the `drive_source`
/// call and the reduction `run_flow` makes, around a [`ClockedSource`]).
#[must_use]
pub fn run(prepared: Prepared) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    match prepared {
        Prepared::Cs1 { harness, plan, mix, mut system } => {
            let evals = harness.run_plan(&plan, 1);
            let checkpointed = checkpointed_run(&harness, &mix, &mut system, &mut out);
            out.wall_ns = ns_since(t0);
            out.segments_ns = vec![out.wall_ns];
            let target = harness.config().target_instructions;
            for (job, e) in plan.jobs().iter().zip(&evals) {
                // Memo hits: the plan already simulated every baseline.
                let alone: Vec<ThreadRunStats> =
                    job.mix.benchmarks.iter().map(|b| harness.alone(b, &job.kind)).collect();
                let sim = cs1_sim(target, &e.metrics, &e.shared, &alone, &mut out);
                out.sims.push(sim);
            }
            out.sims.push(checkpointed);
        }
        Prepared::Flow { cfg, flows, spec } => {
            let kind = parbs();
            let mut source = ClockedSource { inner: FlowSource::new(flows), t0, marks: Vec::new() };
            let drive = drive_source(&cfg, &kind, &mut source, false, Some(&spec));
            let r = flow_result(&kind, &flows, drive, &source.inner.take_completed());
            out.wall_ns = ns_since(t0);
            source.marks.push(out.wall_ns);
            let mut start = 0;
            for &mark in &source.marks {
                out.segments_ns.push(mark - start);
                start = mark;
            }
            // Every `prelude:invariants` trigger has error severity.
            let sim = flow_sim(&r, r.drive.monitor_alarms, &mut out);
            out.sims.push(sim);
        }
    }
    out
}

/// Runs `sys` to the cycle half its threads have reached the target,
/// checkpoints it, resumes the checkpoint in a fresh system and finishes
/// the run there.
fn checkpointed_run(harness: &Harness, mix: &MixSpec, sys: &mut System, out: &mut Outcome) -> Sim {
    let failed = Sim { digest: 0, ok: false };
    let half = harness.config().cores / 2;
    let mut progress = sys.begin_run();
    while progress.threads_remaining() > half && sys.step_cycle(&mut progress) {}
    let t = Instant::now();
    let Ok(blob) = sys.save_checkpoint(&progress, &mix.name) else { return failed };
    out.snap.save_ns += ns_since(t);
    out.snap.bytes += blob.len() as u64;
    let mut fresh = harness.shared_system(mix, &parbs(), &EvalOverrides::none());
    let t = Instant::now();
    let Ok(mut progress) = fresh.resume(&blob, &mix.name) else { return failed };
    out.snap.resume_ns += ns_since(t);
    while fresh.step_cycle(&mut progress) {}
    let r = fresh.finish_run(progress);
    run_sim(&r, out)
}

/// The verdict of a checkpointed run, counted the way `cs1_sim` counts.
fn run_sim(r: &RunResult, out: &mut Outcome) -> Sim {
    out.cycles += r.cycles;
    out.dram_reads += r.threads.iter().map(|t| t.dram_reads).sum::<u64>();
    Sim { digest: digest::run(r), ok: !r.timed_out }
}

fn streams(cfg: &SimConfig, mix: &MixSpec) -> Vec<Box<dyn InstructionStream>> {
    mix.benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            Box::new(SyntheticStream::new(b, cfg.geometry(), cfg.seed, i as u64))
                as Box<dyn InstructionStream>
        })
        .collect()
}

/// Re-runs the prepared workload through the bench-side loop copies with
/// every layer decorated, accumulating into `tracer`. Returns the outcome,
/// whose digests must equal the untraced run's.
#[must_use]
pub fn run_traced(prepared: Prepared, tracer: &Rc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    match prepared {
        Prepared::Cs1 { harness, plan, mix, .. } => {
            let cfg = harness.config();
            for job in plan.jobs() {
                let shared =
                    TracedSystem::new(cfg.clone(), streams(cfg, &job.mix), &job.kind, tracer).run();
                // The alone baselines `Harness` runs: one core, no QoS.
                let alone_cfg = SimConfig {
                    cores: 1,
                    thread_weights: Vec::new(),
                    thread_priorities: Vec::new(),
                    ..cfg.clone()
                };
                let alone: Vec<ThreadRunStats> =
                    job.mix
                        .benchmarks
                        .iter()
                        .map(|b| {
                            let stream: Box<dyn InstructionStream> = Box::new(
                                SyntheticStream::new(b, alone_cfg.geometry(), alone_cfg.seed, 0),
                            );
                            TracedSystem::new(alone_cfg.clone(), vec![stream], &job.kind, tracer)
                                .run()
                                .threads[0]
                        })
                        .collect();
                let metrics = cs1_metrics(&shared.threads, &alone);
                let sim =
                    cs1_sim(cfg.target_instructions, &metrics, &shared.threads, &alone, &mut out);
                out.sims.push(sim);
            }
            // A resumed run reproduces the uninterrupted one, so the traced
            // copy of the checkpointed run runs straight through.
            let r = TracedSystem::new(cfg.clone(), streams(cfg, &mix), &parbs(), tracer).run();
            let sim = run_sim(&r, &mut out);
            out.sims.push(sim);
        }
        Prepared::Flow { cfg, flows, spec } => {
            let kind = parbs();
            let mut source = TimedSource::new(FlowSource::new(flows), Rc::clone(tracer));
            let (drive, error_alarms) = traced_drive(&cfg, &kind, &mut source, Some(&spec), tracer);
            let r = flow_result(&kind, &flows, drive, &source.inner.take_completed());
            let sim = flow_sim(&r, error_alarms, &mut out);
            out.sims.push(sim);
        }
    }
    out.wall_ns = ns_since(t0);
    out
}
