//! The comparisons of Section 8 as immutable plans.
//!
//! Every comparison has one shape: labeled rows — a label, a scheduler and
//! the [`EvalOverrides`] it runs with ([`PlanRow`]) — crossed with a list
//! of mixes. [`SweepPlan::new`] builds it; [`SweepPlan::run`] executes its
//! flat job list with [`Harness::run_plan`], at any worker count and with
//! identical output at every `jobs` level, and collates the results into
//! one labeled [`SweepRow`] per row. A case study is a sweep over one mix;
//! a scheduler comparison labels its kinds by name ([`named_rows`]); the
//! Marking-Cap, batching and ranking sweeps, the extension comparison and
//! the two Fig. 14 plans are named row lists. A study that varies the
//! memory system — the geometry/mapping sweep and the system-parameter
//! sweep — is a list of labeled [`SimConfig`]s, each run on its own
//! [`Harness`]. The `parbs-sim` regeneration commands (`fig05_case1`,
//! `table4_summary`, ...) print the rows in the shape of the paper's
//! tables and figures, reading each row's label.

use parbs::{BatchingMode, ParBsConfig, Ranking, ThreadPriority};
use parbs_dram::MappingPolicy;
use parbs_metrics::{class_fairness, ClassFairness, SchedulerSummary};
use parbs_workloads::{all_benchmarks, classify, BenchmarkProfile, MixSpec};

use crate::{EvalJob, EvalOverrides, EvalPlan, Harness, MixEvaluation, SchedulerKind, SimConfig};

/// One labeled row of a [`SweepPlan`]: the row label, the scheduler, and
/// the overrides every job of the row runs with.
pub type PlanRow = (String, SchedulerKind, EvalOverrides);

/// Labels each kind by its display name, with no overrides: the rows of a
/// plain scheduler comparison.
#[must_use]
pub fn named_rows(kinds: impl IntoIterator<Item = SchedulerKind>) -> Vec<PlanRow> {
    plain_rows(kinds.into_iter().map(|k| (k.name(), k)))
}

/// Rows with no overrides, under the given labels.
fn plain_rows<L: Into<String>>(rows: impl IntoIterator<Item = (L, SchedulerKind)>) -> Vec<PlanRow> {
    rows.into_iter().map(|(label, kind)| (label.into(), kind, EvalOverrides::none())).collect()
}

/// All evaluations of one labeled row of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Row label.
    pub label: String,
    /// One evaluation per workload, in workload order.
    pub evaluations: Vec<MixEvaluation>,
}

impl SweepRow {
    /// Aggregates this row the way the paper's Table 4 does.
    #[must_use]
    pub fn summary(&self) -> SchedulerSummary {
        let rows: Vec<parbs_metrics::MetricsRow> =
            self.evaluations.iter().map(|e| e.metrics.clone()).collect();
        let wc: Vec<u64> = self.evaluations.iter().map(|e| e.worst_case_latency).collect();
        SchedulerSummary::aggregate(&self.label, &rows, &wc)
    }
}

/// A comparison as an immutable plan: labeled rows crossed with mixes. The
/// flat job list is row-major (every mix under the first row, then every
/// mix under the second, ...), the order of the serial sweeps; the plan
/// also keeps the recipe to collate the flat results back into one
/// [`SweepRow`] per row.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    labels: Vec<String>,
    mixes_per_row: usize,
    plan: EvalPlan,
}

impl SweepPlan {
    /// Builds the plan for every mix under every labeled row.
    #[must_use]
    pub fn new(mixes: &[MixSpec], rows: &[PlanRow]) -> Self {
        let plan = rows
            .iter()
            .flat_map(|(_, kind, overrides)| {
                mixes.iter().map(|mix| EvalJob {
                    mix: mix.clone(),
                    kind: kind.clone(),
                    overrides: overrides.clone(),
                })
            })
            .collect();
        SweepPlan {
            labels: rows.iter().map(|(label, _, _)| label.clone()).collect(),
            mixes_per_row: mixes.len(),
            plan,
        }
    }

    /// The flat job list (row-major).
    #[must_use]
    pub fn plan(&self) -> &EvalPlan {
        &self.plan
    }

    /// The row labels, in row order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Total number of jobs in the sweep.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.plan.len()
    }

    /// Executes the sweep on `harness` with up to `jobs` worker threads
    /// ([`Harness::run_plan`]) and collates the plan-order results into
    /// labeled rows.
    #[must_use]
    pub fn run(&self, harness: &Harness, jobs: usize) -> Vec<SweepRow> {
        let mut evals = harness.run_plan(&self.plan, jobs).into_iter();
        self.labels
            .iter()
            .map(|label| SweepRow {
                label: label.clone(),
                evaluations: evals.by_ref().take(self.mixes_per_row).collect(),
            })
            .collect()
    }
}

/// The memory systems of the geometry/mapping sensitivity study (paper
/// Section 6): mapping policy (row/line-interleaved) × XOR bank
/// permutation on/off × ranks per channel ∈ {1, 2, 4}, each `base` with
/// its mapping and rank count replaced, labeled `row/r1`, `row/r2`, …,
/// `line-noxor/r4`. `mapping-sweep` runs the seven-scheduler zoo on each
/// system through its own [`Harness`]. The paper's Section 6 expectation:
/// turning the XOR permutation off hurts FR-FCFS most and PAR-BS least,
/// because batch-level parallelism recovery compensates for the extra row
/// conflicts.
#[must_use]
pub fn mapping_sweep_systems(base: &SimConfig) -> Vec<(String, SimConfig)> {
    let mut systems = Vec::new();
    for policy in [
        MappingPolicy::RowInterleaved { xor_permute: true },
        MappingPolicy::LineInterleaved { xor_permute: true },
    ] {
        for xor in [true, false] {
            let mapping = policy.with_xor(xor);
            for ranks in [1usize, 2, 4] {
                let mut cfg = base.clone();
                cfg.dram.mapping = mapping;
                cfg.dram.geometry.ranks_per_channel = ranks;
                systems.push((format!("{}/r{ranks}", mapping.label()), cfg));
            }
        }
    }
    systems
}

/// One axis of the system-parameter sweep: its heading and its points,
/// each a label and the varied configuration.
pub type ParamAxis = (&'static str, Vec<(String, SimConfig)>);

/// The points of the system-parameter sweep (`ext_param_sweep`): `base`
/// varied in bank count, channel count, row-buffer size, the open-row
/// grace of this model's controller, and request-buffer size, one axis at
/// a time. The paper's extended technical report varies system
/// parameters; the grace axis ablates a policy of this model.
#[must_use]
pub fn param_sweep_axes(base: &SimConfig) -> Vec<ParamAxis> {
    let axis = |heading: &'static str,
                values: &[u64],
                label: fn(u64) -> String,
                vary: fn(&mut SimConfig, u64)| {
        let points = values
            .iter()
            .map(|&v| {
                let mut cfg = base.clone();
                vary(&mut cfg, v);
                (label(v), cfg)
            })
            .collect();
        (heading, points)
    };
    vec![
        axis(
            "banks per channel",
            &[4, 8, 16],
            |b| format!("{b} banks"),
            |c, b| c.dram.geometry.banks_per_rank = b as usize,
        ),
        axis(
            "channels (4 cores)",
            &[1, 2, 4],
            |n| format!("{n} channel(s)"),
            |c, n| c.dram.geometry.channels = n as usize,
        ),
        axis(
            "row-buffer size (lines per row)",
            &[16, 32, 64],
            |cols| format!("{} B rows", cols * 64),
            |c, cols| c.dram.geometry.cols_per_row = cols,
        ),
        axis(
            "open-row grace ablation (controller policy of this model)",
            &[0, 100, 200, 400],
            |g| format!("grace {g}"),
            |c, g| c.dram.timing.t_row_grace = g,
        ),
        axis(
            "request-buffer size",
            &[32, 64, 128],
            |n| format!("{n} entries"),
            |c, n| c.dram.request_buffer_cap = n as usize,
        ),
    ]
}

/// One scheduler's line of the zoo comparison: the overall sweep row plus
/// the CPU-vs-accelerator fairness split averaged over the sweep's mixes.
#[derive(Debug, Clone)]
pub struct ZooRow {
    /// The underlying sweep row (label + per-mix evaluations).
    pub row: SweepRow,
    /// Geometric mean of per-mix CPU-thread unfairness.
    pub cpu_unfairness: f64,
    /// Maximum CPU-thread slowdown over all mixes.
    pub cpu_max_slowdown: f64,
    /// Maximum accelerator slowdown over all mixes.
    pub accel_max_slowdown: f64,
}

/// Splits each sweep row's fairness by agent class. `mixes` must be the
/// slice the plan was built from (same order); each evaluation is scored
/// against its mix's [`MixSpec::accel_mask`].
///
/// # Panics
///
/// Panics if a row's evaluation count differs from `mixes.len()`.
#[must_use]
pub fn zoo_rows(rows: Vec<SweepRow>, mixes: &[MixSpec]) -> Vec<ZooRow> {
    rows.into_iter()
        .map(|row| {
            assert_eq!(row.evaluations.len(), mixes.len(), "one evaluation per sweep mix");
            let splits: Vec<ClassFairness> = row
                .evaluations
                .iter()
                .zip(mixes)
                .map(|(e, mix)| class_fairness(&e.metrics.slowdowns, &mix.accel_mask()))
                .collect();
            let gmean = |f: fn(&ClassFairness) -> f64| {
                let log_sum: f64 = splits.iter().map(|s| f(s).max(f64::MIN_POSITIVE).ln()).sum();
                (log_sum / splits.len().max(1) as f64).exp()
            };
            ZooRow {
                cpu_unfairness: gmean(|s| s.cpu_unfairness),
                cpu_max_slowdown: splits.iter().map(|s| s.cpu_max_slowdown).fold(0.0, f64::max),
                accel_max_slowdown: splits.iter().map(|s| s.accel_max_slowdown).fold(0.0, f64::max),
                row,
            }
        })
        .collect()
}

/// The Marking-Cap values of Fig. 11: 1 to 10, 20, and no cap.
#[must_use]
pub fn fig11_caps() -> Vec<Option<u32>> {
    (1..=10).map(Some).chain([Some(20), None]).collect()
}

/// The labeled rows of the Fig. 11 Marking-Cap sweep. `caps` are the cap
/// values (`None` = no cap); labels follow the paper ("c=1".."c=20",
/// "no-c").
#[must_use]
pub fn marking_cap_kinds(caps: &[Option<u32>]) -> Vec<PlanRow> {
    plain_rows(caps.iter().map(|cap| {
        let label = match cap {
            Some(c) => format!("c={c}"),
            None => "no-c".to_owned(),
        };
        (label, SchedulerKind::ParBs(ParBsConfig { marking_cap: *cap, ..ParBsConfig::default() }))
    }))
}

/// The labeled rows of the Fig. 12 batching-choice sweep: time-based
/// static batching with the paper's durations, empty-slot batching, and
/// full batching.
#[must_use]
pub fn batching_kinds() -> Vec<PlanRow> {
    let parbs = |batching| SchedulerKind::ParBs(ParBsConfig { batching, ..ParBsConfig::default() });
    let mut rows: Vec<_> = [400u64, 800, 1_600, 3_200, 6_400, 12_800, 25_600]
        .iter()
        .map(|&d| (format!("st-{d}"), parbs(BatchingMode::Static { duration: d })))
        .collect();
    rows.push(("eslot".to_owned(), parbs(BatchingMode::EmptySlot)));
    rows.push(("full".to_owned(), SchedulerKind::ParBs(ParBsConfig::default())));
    plain_rows(rows)
}

/// The labeled rows of Fig. 13: the within-batch ranking alternatives, the
/// rank-free variants, and STFM for reference.
#[must_use]
pub fn ranking_kinds() -> Vec<PlanRow> {
    let parbs = |ranking| SchedulerKind::ParBs(ParBsConfig { ranking, ..ParBsConfig::default() });
    plain_rows([
        ("max-total(PAR-BS)", parbs(Ranking::MaxTotal)),
        ("total-max", parbs(Ranking::TotalMax)),
        ("random", parbs(Ranking::Random)),
        ("round-robin", parbs(Ranking::RoundRobin)),
        ("no-rank(FR-FCFS)", SchedulerKind::ParBs(ParBsConfig::no_rank_frfcfs())),
        ("no-rank(FCFS)", SchedulerKind::ParBs(ParBsConfig::no_rank_fcfs())),
        ("STFM", SchedulerKind::Stfm),
    ])
}

/// The labeled rows of the extension comparison: the paper's five with
/// STFQ (start-time fair queueing, Rafique et al., §9 related work) after
/// NFQ, then PAR-BS with the adaptive Marking-Cap the paper proposes as
/// future work (§8.3.1).
#[must_use]
pub fn ext_scheduler_kinds() -> Vec<PlanRow> {
    let mut kinds = SchedulerKind::paper_five();
    kinds.insert(3, SchedulerKind::Stfq);
    let adaptive = ParBsConfig { adaptive_cap: true, ..ParBsConfig::default() };
    let mut rows = named_rows(kinds);
    rows.extend(plain_rows([("PAR-BS(adaptive)", SchedulerKind::ParBs(adaptive))]));
    rows
}

/// The plan behind Fig. 14 (left): four copies of lbm with unequal
/// importance — NFQ/STFM weights 8-8-4-1, PAR-BS priorities 1-1-2-8.
#[must_use]
pub fn priority_weighted_plan() -> SweepPlan {
    priority_plan(
        MixSpec::from_names("lbm-pri", &["lbm", "lbm", "lbm", "lbm"]),
        vec![8.0, 8.0, 4.0, 1.0],
        vec![
            ThreadPriority::Level1,
            ThreadPriority::Level1,
            ThreadPriority::Level(2),
            ThreadPriority::Level(8),
        ],
    )
}

/// The plan behind Fig. 14 (right): omnetpp is the only important thread;
/// the other three run opportunistically (PAR-BS) or with a tiny share
/// (weight 1 vs. 8192 for NFQ/STFM, approximating "opportunistic" as the
/// paper does).
#[must_use]
pub fn priority_opportunistic_plan() -> SweepPlan {
    priority_plan(
        MixSpec::from_names("omnetpp-pri", &["libquantum", "milc", "omnetpp", "astar"]),
        vec![1.0, 1.0, 8192.0, 1.0],
        vec![
            ThreadPriority::Opportunistic,
            ThreadPriority::Opportunistic,
            ThreadPriority::Level1,
            ThreadPriority::Opportunistic,
        ],
    )
}

/// A Fig. 14 comparison of `mix`, one row per scheme in the order FR-FCFS,
/// NFQ, STFM, PAR-BS, each labeled by its scheduler's name: NFQ and STFM
/// run with the share `weights`, PAR-BS with the `priorities`.
fn priority_plan(mix: MixSpec, weights: Vec<f64>, priorities: Vec<ThreadPriority>) -> SweepPlan {
    let weighted = EvalOverrides { weights, ..EvalOverrides::none() };
    let prioritized = EvalOverrides { priorities, ..EvalOverrides::none() };
    let rows = [
        (SchedulerKind::FrFcfs, EvalOverrides::none()),
        (SchedulerKind::Nfq, weighted.clone()),
        (SchedulerKind::Stfm, weighted),
        (SchedulerKind::ParBs(ParBsConfig::default()), prioritized),
    ]
    .map(|(kind, overrides)| (kind.name().to_owned(), kind, overrides));
    SweepPlan::new(&[mix], &rows)
}

/// One row of the regenerated Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The benchmark (paper targets included).
    pub bench: &'static BenchmarkProfile,
    /// Measured memory cycles per instruction (alone).
    pub mcpi: f64,
    /// Measured misses per kilo-instruction.
    pub mpki: f64,
    /// Measured row-buffer hit rate.
    pub rb_hit: f64,
    /// Measured bank-level parallelism.
    pub blp: f64,
    /// Measured average stall per request.
    pub ast_per_req: f64,
    /// Category computed from the measured values.
    pub measured_category: u8,
}

/// Measures one benchmark of Table 3: `bench` alone on one core of the
/// memory system `cfg` describes (its core count is replaced by 1) under
/// FR-FCFS.
#[must_use]
pub fn table3_row(cfg: &SimConfig, bench: &'static BenchmarkProfile) -> Table3Row {
    let harness = Harness::new(SimConfig { cores: 1, ..cfg.clone() });
    let mix = MixSpec { name: bench.name.to_owned(), benchmarks: vec![bench] };
    let result = harness.shared_system(&mix, &SchedulerKind::FrFcfs, &EvalOverrides::none()).run();
    let t = result.threads[0];
    Table3Row {
        bench,
        mcpi: t.mcpi(),
        mpki: t.mpki(),
        rb_hit: result.row_hit_rate,
        blp: t.blp,
        ast_per_req: t.ast_per_req(),
        measured_category: classify(t.mcpi(), result.row_hit_rate, t.blp),
    }
}

/// Regenerates Table 3: [`table3_row`] for every benchmark on `harness`'s
/// base configuration, fanned over up to `jobs` worker threads.
#[must_use]
pub fn table3_rows(harness: &Harness, jobs: usize) -> Vec<Table3Row> {
    let benches: Vec<&'static BenchmarkProfile> = all_benchmarks().iter().collect();
    crate::executor::scope_map(&benches, jobs, |&bench| table3_row(harness.config(), bench))
}

/// Micro-experiments behind the motivation figures (Figs. 1 and 2).
pub mod micro {
    use parbs::{ParBsConfig, ParBsScheduler};
    use parbs_dram::{Completion, FcfsScheduler, LineAddr, MemoryScheduler, RequestKind, ThreadId};

    use crate::memory::MemorySide;
    use crate::SimConfig;

    /// Serves `reads` — `(thread, bank, row)`, all arriving at cycle 0 in
    /// this order — on one protocol-checked channel under `scheduler` and
    /// returns their completions.
    fn serve(
        scheduler: &dyn Fn() -> Box<dyn MemoryScheduler>,
        reads: &[(usize, usize, u64)],
    ) -> Vec<Completion> {
        let cfg = SimConfig { check_protocol: true, ..SimConfig::for_cores(4) };
        let mut memory = MemorySide::new(&cfg, &|_| scheduler());
        for &(thread, bank, row) in reads {
            let addr = LineAddr { channel: 0, bank, row, col: 0 };
            let kind = RequestKind::Read;
            assert!(memory.enqueue(ThreadId(thread), addr, kind, 0, Default::default(), Some(())));
        }
        let mut done = Vec::new();
        let mut now = 0;
        while memory.reads_in_flight() {
            memory.tick(now, |(), c| done.push(*c));
            now += 1;
        }
        done
    }

    /// Figure 1: one thread's two requests to **different banks** overlap,
    /// while two requests to **different rows of one bank** serialize.
    /// Returns `(overlapped_finish, serialized_finish)` — the cycle at
    /// which the thread's second request completes in each scenario.
    #[must_use]
    pub fn fig1_overlap() -> (u64, u64) {
        let run = |banks: [usize; 2], rows: [u64; 2]| {
            let reads = [(0, banks[0], rows[0]), (0, banks[1], rows[1])];
            let done = serve(&|| Box::new(FcfsScheduler::new()), &reads);
            done.iter().map(|c| c.finish).max().unwrap()
        };
        (run([0, 1], [1, 1]), run([0, 0], [1, 2]))
    }

    /// Figure 2: two threads, two banks, two requests each, arrival order
    /// interleaved (T0→B0, T1→B1, T1→B0, T0→B1). Returns the per-thread
    /// stall times `[T0, T1]` under a conventional (FCFS) scheduler and
    /// under PAR-BS; the averages show ~2 vs ~1.5 bank latencies.
    #[must_use]
    pub fn fig2_stall_times() -> ([u64; 2], [u64; 2]) {
        let run = |scheduler: &dyn Fn() -> Box<dyn MemoryScheduler>| {
            // Arrival order from the figure: each thread's two concurrent
            // requests interleave with the other thread's.
            let done = serve(scheduler, &[(0, 0, 1), (1, 1, 2), (1, 0, 3), (0, 1, 4)]);
            let mut stall = [0u64; 2];
            for c in &done {
                stall[c.thread.0] = stall[c.thread.0].max(c.finish);
            }
            stall
        };
        (
            run(&|| Box::new(FcfsScheduler::new())),
            run(&|| Box::new(ParBsScheduler::new(ParBsConfig::default()))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use parbs_workloads::case_study_1;

    fn quick_harness() -> Harness {
        Harness::new(SimConfig { target_instructions: 1_000, ..SimConfig::for_cores(4) })
    }

    #[test]
    fn paper_five_comparison_returns_five() {
        let h = quick_harness();
        let sweep = SweepPlan::new(&[case_study_1()], &named_rows(SchedulerKind::paper_five()));
        let evals = h.run_plan(sweep.plan(), 2);
        assert_eq!(evals.len(), 5);
        assert_eq!(evals[0].scheduler, "FR-FCFS");
        assert_eq!(evals[4].scheduler, "PAR-BS");
    }

    #[test]
    fn mapping_sweep_systems_cover_the_ablation_grid() {
        let base = SimConfig::for_cores(4);
        let systems = mapping_sweep_systems(&base);
        // 2 policies × XOR on/off × 3 rank counts.
        let labels: Vec<&str> = systems.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "row/r1",
                "row/r2",
                "row/r4",
                "row-noxor/r1",
                "row-noxor/r2",
                "row-noxor/r4",
                "line/r1",
                "line/r2",
                "line/r4",
                "line-noxor/r1",
                "line-noxor/r2",
                "line-noxor/r4"
            ]
        );
        let mut shapes = std::collections::HashSet::new();
        for (label, cfg) in &systems {
            cfg.dram.validate().expect("every swept system is valid");
            assert!(shapes.insert((cfg.dram.mapping, cfg.dram.ranks_per_channel())), "{label}");
            let mut unshaped = cfg.clone();
            unshaped.dram.mapping = base.dram.mapping;
            unshaped.dram.geometry.ranks_per_channel = 1;
            assert_eq!(unshaped.dram, base.dram, "{label} varies only mapping and ranks");
        }
        assert_eq!(systems[0].1.dram, base.dram, "row/r1 is the baseline system");
    }

    #[test]
    fn zoo_sweep_splits_fairness_by_agent_class() {
        let h = quick_harness();
        let mixes = [parbs_workloads::accel_case_study()];
        let sweep = SweepPlan::new(&mixes, &named_rows(SchedulerKind::zoo_seven()));
        assert_eq!(sweep.job_count(), 7);
        let rows = zoo_rows(sweep.run(&h, 2), &mixes);
        let labels: Vec<&str> = rows.iter().map(|r| r.row.label.as_str()).collect();
        assert_eq!(labels, ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS", "BLISS", "ATLAS"]);
        for r in &rows {
            assert!(r.cpu_unfairness >= 1.0, "{}: unfairness is max/min", r.row.label);
            assert!(r.cpu_max_slowdown >= 1.0, "{}", r.row.label);
            assert!(r.accel_max_slowdown >= 1.0, "{}", r.row.label);
        }
    }

    #[test]
    fn shaped_systems_are_deterministic_at_any_jobs_level() {
        // The r2 slice of the ablation under FR-FCFS and PAR-BS: small
        // enough for a unit test, still running every mapping on a 2-rank
        // system end to end.
        let kinds = [SchedulerKind::FrFcfs, SchedulerKind::ParBs(Default::default())];
        let sweep = SweepPlan::new(&[case_study_1()], &named_rows(kinds));
        let base = quick_harness().config().clone();
        let systems: Vec<_> =
            mapping_sweep_systems(&base).into_iter().filter(|(l, _)| l.ends_with("/r2")).collect();
        assert_eq!(systems.len(), 4);
        for (label, cfg) in systems {
            let serial = sweep.run(&Harness::new(cfg.clone()), 1);
            let parallel = sweep.run(&Harness::new(cfg), 4);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.evaluations, b.evaluations, "{label}/{}", a.label);
            }
        }
    }

    #[test]
    fn fig1_overlap_hides_second_access() {
        let (overlapped, serialized) = micro::fig1_overlap();
        assert!(
            overlapped + 100 < serialized,
            "different banks ({overlapped}) must overlap vs same bank ({serialized})"
        );
    }

    #[test]
    fn fig2_parbs_beats_conventional_on_average() {
        let (conv, parbs) = micro::fig2_stall_times();
        let avg = |s: [u64; 2]| (s[0] + s[1]) as f64 / 2.0;
        assert!(
            avg(parbs) < avg(conv),
            "parallelism-aware avg stall {parbs:?} must beat conventional {conv:?}"
        );
        // One thread's stall shrinks toward a single bank latency (the
        // "Saved cycles" of Fig. 2) without penalizing the other thread.
        assert!(parbs.iter().min() < conv.iter().min());
        assert!(parbs.iter().max() <= conv.iter().max());
    }

    #[test]
    fn marking_cap_sweep_labels() {
        let h = quick_harness();
        let mixes = [case_study_1()];
        let sweep = SweepPlan::new(&mixes, &marking_cap_kinds(&[Some(1), Some(5), None]));
        assert_eq!(sweep.job_count(), 3);
        let rows = sweep.run(&h, 3);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["c=1", "c=5", "no-c"]);
        for row in &rows {
            assert_eq!(row.evaluations.len(), 1);
        }
    }

    #[test]
    fn table3_rows_parallel_matches_serial() {
        let h = quick_harness();
        let serial = table3_rows(&h, 1);
        let parallel = table3_rows(&h, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), all_benchmarks().len());
    }
}
