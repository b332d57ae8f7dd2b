//! Experiment harness: the parameter sweeps and case studies of Section 8,
//! expressed as **plan builders**.
//!
//! Each `*_plan` function returns an immutable description of the work —
//! an [`EvalPlan`] (flat job list) or a [`SweepPlan`] (jobs plus the
//! collation recipe back into labeled [`SweepRow`]s). Execute a plan on a
//! [`Harness`] with [`Harness::run_plan`] / [`SweepPlan::run`], choosing
//! any worker count; output is identical at every `jobs` level. The
//! `parbs-sim` regeneration commands (`fig05_case1`, `table4_summary`, ...)
//! print the results in the shape of the paper's tables and figures.

use parbs::{BatchingMode, ParBsConfig, Ranking, ThreadPriority};
use parbs_dram::{Geometry, MappingPolicy};
use parbs_metrics::{class_fairness, ClassFairness, SchedulerSummary};
use parbs_workloads::{all_benchmarks, classify, BenchmarkProfile, MixSpec};

use crate::{EvalJob, EvalOverrides, EvalPlan, Harness, MixEvaluation, SchedulerKind, SimConfig};

/// The plan behind Figs. 5, 6, 7 and 9: one mix under the paper's five
/// schedulers, in figure order.
#[must_use]
pub fn compare_plan(mix: &MixSpec) -> EvalPlan {
    SchedulerKind::paper_five().into_iter().map(|k| EvalJob::new(mix.clone(), k)).collect()
}

/// All evaluations of a multi-workload sweep for one scheduler.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Scheduler label.
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

/// A labeled (mixes × kinds) sweep as an immutable plan: the flat job list
/// (kind-major, matching the serial sweeps) plus the recipe to collate the
/// flat results back into one [`SweepRow`] per labeled kind.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    labels: Vec<String>,
    mixes_per_row: usize,
    plan: EvalPlan,
}

impl SweepPlan {
    /// Builds the plan for every mix under every labeled kind.
    #[must_use]
    pub fn new(mixes: &[MixSpec], kinds: &[(String, SchedulerKind)]) -> Self {
        let rows: Vec<(String, SchedulerKind, EvalOverrides)> =
            kinds.iter().map(|(l, k)| (l.clone(), k.clone(), EvalOverrides::none())).collect();
        SweepPlan::with_overrides(mixes, &rows)
    }

    /// Builds the plan for every mix under every labeled job template —
    /// a scheduler kind plus the [`EvalOverrides`] its row runs with (the
    /// seam the geometry/mapping ablations use).
    #[must_use]
    pub fn with_overrides(
        mixes: &[MixSpec],
        rows: &[(String, SchedulerKind, EvalOverrides)],
    ) -> Self {
        let mut plan = EvalPlan::new();
        for (_, kind, overrides) in rows {
            for mix in mixes {
                plan.push(
                    EvalJob::new(mix.clone(), kind.clone()).with_overrides(overrides.clone()),
                );
            }
        }
        SweepPlan {
            labels: rows.iter().map(|(l, _, _)| l.clone()).collect(),
            mixes_per_row: mixes.len(),
            plan,
        }
    }

    /// The flat job list (kind-major).
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

    /// Collates flat plan-order results into labeled rows.
    ///
    /// # Panics
    ///
    /// Panics if `evals` does not hold exactly one evaluation per job.
    #[must_use]
    pub fn collate(&self, evals: Vec<MixEvaluation>) -> Vec<SweepRow> {
        assert_eq!(evals.len(), self.plan.len(), "one evaluation per planned job");
        let mut evals = evals.into_iter();
        self.labels
            .iter()
            .map(|label| SweepRow {
                label: label.clone(),
                evaluations: evals.by_ref().take(self.mixes_per_row).collect(),
            })
            .collect()
    }

    /// Executes the sweep on `harness` with up to `jobs` worker threads
    /// and collates the results.
    #[must_use]
    pub fn run(&self, harness: &Harness, jobs: usize) -> Vec<SweepRow> {
        self.collate(harness.run_plan(&self.plan, jobs))
    }
}

/// The plan behind Figs. 8 and 10 and Table 4: every mix under every
/// labeled scheduler kind.
#[must_use]
pub fn sweep_plan(mixes: &[MixSpec], kinds: &[(String, SchedulerKind)]) -> SweepPlan {
    SweepPlan::new(mixes, kinds)
}

/// The labeled job templates of the geometry/mapping sensitivity study
/// (paper Section 6): mapping policy (row/line-interleaved) × XOR bank
/// permutation on/off × ranks per channel ∈ {1, 2, 4}, each under the
/// full seven-scheduler zoo. Non-rank geometry fields inherit `base`.
/// Labels read `row/r2/PAR-BS`, `line-noxor/r4/BLISS`, ...
#[must_use]
pub fn mapping_sweep_rows(base: Geometry) -> Vec<(String, SchedulerKind, EvalOverrides)> {
    let mut rows = Vec::new();
    for policy in [
        MappingPolicy::RowInterleaved { xor_permute: true },
        MappingPolicy::LineInterleaved { xor_permute: true },
    ] {
        for xor in [true, false] {
            let mapping = policy.with_xor(xor);
            for ranks in [1usize, 2, 4] {
                let geometry = Geometry { ranks_per_channel: ranks, ..base };
                for kind in SchedulerKind::zoo_seven() {
                    let label = format!("{}/r{}/{}", mapping.label(), ranks, kind.name());
                    rows.push((label, kind, EvalOverrides::shaped(Some(geometry), Some(mapping))));
                }
            }
        }
    }
    rows
}

/// The plan of the geometry/mapping ablation: every mix under every
/// [`mapping_sweep_rows`] template. The paper's Section 6 expectation:
/// turning the XOR permutation off hurts FR-FCFS most and PAR-BS least,
/// because batch-level parallelism recovery compensates for the extra row
/// conflicts.
#[must_use]
pub fn mapping_sweep_plan(mixes: &[MixSpec], base: Geometry) -> SweepPlan {
    SweepPlan::with_overrides(mixes, &mapping_sweep_rows(base))
}

/// The five paper schedulers as labeled sweep inputs.
#[must_use]
pub fn paper_five_labeled() -> Vec<(String, SchedulerKind)> {
    SchedulerKind::paper_five().into_iter().map(|k| (k.name().to_owned(), k)).collect()
}

/// The full seven-scheduler zoo as labeled sweep inputs (paper five plus
/// BLISS and ATLAS).
#[must_use]
pub fn zoo_seven_labeled() -> Vec<(String, SchedulerKind)> {
    SchedulerKind::zoo_seven().into_iter().map(|k| (k.name().to_owned(), k)).collect()
}

/// The scheduler-zoo comparison plan: every mixed CPU/accelerator workload
/// under all seven schedulers. Collate its rows with [`zoo_rows`] to get
/// the per-class fairness split the streaming agent is designed to stress.
#[must_use]
pub fn zoo_sweep_plan(mixes: &[MixSpec]) -> SweepPlan {
    SweepPlan::new(mixes, &zoo_seven_labeled())
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

/// The labeled kinds of the Fig. 11 Marking-Cap sweep. `caps` are the cap
/// values (`None` = no cap); labels follow the paper ("c=1".."c=20",
/// "no-c").
#[must_use]
pub fn marking_cap_kinds(caps: &[Option<u32>]) -> Vec<(String, SchedulerKind)> {
    caps.iter()
        .map(|cap| {
            let label = match cap {
                Some(c) => format!("c={c}"),
                None => "no-c".to_owned(),
            };
            (
                label,
                SchedulerKind::ParBs(ParBsConfig { marking_cap: *cap, ..ParBsConfig::default() }),
            )
        })
        .collect()
}

/// The plan behind Fig. 11: the Marking-Cap sweep.
#[must_use]
pub fn marking_cap_plan(mixes: &[MixSpec], caps: &[Option<u32>]) -> SweepPlan {
    SweepPlan::new(mixes, &marking_cap_kinds(caps))
}

/// The labeled kinds of the Fig. 12 batching-choice sweep: time-based
/// static batching with the paper's durations, empty-slot batching, and
/// full batching.
#[must_use]
pub fn batching_kinds() -> Vec<(String, SchedulerKind)> {
    let mut kinds: Vec<(String, SchedulerKind)> =
        [400u64, 800, 1_600, 3_200, 6_400, 12_800, 25_600]
            .iter()
            .map(|&d| {
                (
                    format!("st-{d}"),
                    SchedulerKind::ParBs(ParBsConfig {
                        batching: BatchingMode::Static { duration: d },
                        ..ParBsConfig::default()
                    }),
                )
            })
            .collect();
    kinds.push((
        "eslot".to_owned(),
        SchedulerKind::ParBs(ParBsConfig {
            batching: BatchingMode::EmptySlot,
            ..ParBsConfig::default()
        }),
    ));
    kinds.push(("full".to_owned(), SchedulerKind::ParBs(ParBsConfig::default())));
    kinds
}

/// The plan behind Fig. 12: the batching-choice sweep.
#[must_use]
pub fn batching_plan(mixes: &[MixSpec]) -> SweepPlan {
    SweepPlan::new(mixes, &batching_kinds())
}

/// The labeled scheduler list of Fig. 13: the within-batch ranking
/// alternatives, the rank-free variants, and STFM for reference.
#[must_use]
pub fn ranking_kinds() -> Vec<(String, SchedulerKind)> {
    let parbs = |ranking| SchedulerKind::ParBs(ParBsConfig { ranking, ..ParBsConfig::default() });
    vec![
        ("max-total(PAR-BS)".to_owned(), parbs(Ranking::MaxTotal)),
        ("total-max".to_owned(), parbs(Ranking::TotalMax)),
        ("random".to_owned(), parbs(Ranking::Random)),
        ("round-robin".to_owned(), parbs(Ranking::RoundRobin)),
        ("no-rank(FR-FCFS)".to_owned(), SchedulerKind::ParBs(ParBsConfig::no_rank_frfcfs())),
        ("no-rank(FCFS)".to_owned(), SchedulerKind::ParBs(ParBsConfig::no_rank_fcfs())),
        ("STFM".to_owned(), SchedulerKind::Stfm),
    ]
}

/// The plan behind Fig. 13: the within-batch scheduling sweep.
#[must_use]
pub fn ranking_plan(mixes: &[MixSpec]) -> SweepPlan {
    SweepPlan::new(mixes, &ranking_kinds())
}

/// The plan behind Fig. 14 (left): four copies of lbm with unequal
/// importance — NFQ/STFM weights 8-8-4-1, PAR-BS priorities 1-1-2-8. One
/// job per scheme in the order FR-FCFS, NFQ, STFM, PAR-BS.
#[must_use]
pub fn priority_weighted_plan() -> EvalPlan {
    let mix = MixSpec::from_names("lbm-pri", &["lbm", "lbm", "lbm", "lbm"]);
    let weights = vec![8.0, 8.0, 4.0, 1.0];
    let priorities = vec![
        ThreadPriority::Level1,
        ThreadPriority::Level1,
        ThreadPriority::Level(2),
        ThreadPriority::Level(8),
    ];
    let mut plan = EvalPlan::new();
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::FrFcfs));
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::Nfq).with_weights(weights.clone()));
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::Stfm).with_weights(weights));
    plan.push(
        EvalJob::new(mix, SchedulerKind::ParBs(ParBsConfig::default())).with_priorities(priorities),
    );
    plan
}

/// The plan behind Fig. 14 (right): omnetpp is the only important thread;
/// the other three run opportunistically (PAR-BS) or with a tiny share
/// (weight 1 vs. 8192 for NFQ/STFM, approximating "opportunistic" as the
/// paper does).
#[must_use]
pub fn priority_opportunistic_plan() -> EvalPlan {
    let mix = MixSpec::from_names("omnetpp-pri", &["libquantum", "milc", "omnetpp", "astar"]);
    let weights = vec![1.0, 1.0, 8192.0, 1.0];
    let priorities = vec![
        ThreadPriority::Opportunistic,
        ThreadPriority::Opportunistic,
        ThreadPriority::Level1,
        ThreadPriority::Opportunistic,
    ];
    let mut plan = EvalPlan::new();
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::FrFcfs));
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::Nfq).with_weights(weights.clone()));
    plan.push(EvalJob::new(mix.clone(), SchedulerKind::Stfm).with_weights(weights));
    plan.push(
        EvalJob::new(mix, SchedulerKind::ParBs(ParBsConfig::default())).with_priorities(priorities),
    );
    plan
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

/// Regenerates Table 3: every benchmark alone on the baseline system under
/// FR-FCFS, fanned over up to `jobs` worker threads. `harness` supplies
/// the base configuration (its core count is replaced by 1).
#[must_use]
pub fn table3_rows(harness: &Harness, jobs: usize) -> Vec<Table3Row> {
    let alone = Harness::new(SimConfig { cores: 1, ..harness.config().clone() });
    let benches: Vec<&'static BenchmarkProfile> = all_benchmarks().iter().collect();
    crate::executor::scope_map(&benches, jobs, |&bench| {
        let mix = MixSpec { name: bench.name.to_owned(), benchmarks: vec![bench] };
        let result = alone.run_shared(&mix, &SchedulerKind::FrFcfs, &EvalOverrides::none());
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
    })
}

/// Micro-experiments behind the motivation figures (Figs. 1 and 2).
pub mod micro {
    use parbs::{ParBsConfig, ParBsScheduler};
    use parbs_dram::{
        Controller, DramConfig, FcfsScheduler, LineAddr, Request, RequestKind, ThreadId,
    };

    fn read(id: u64, thread: usize, bank: usize, row: u64) -> Request {
        Request::new(
            id,
            ThreadId(thread),
            LineAddr { channel: 0, bank, row, col: 0 },
            RequestKind::Read,
            0,
        )
    }

    /// Figure 1: one thread's two requests to **different banks** overlap,
    /// while two requests to **different rows of one bank** serialize.
    /// Returns `(overlapped_finish, serialized_finish)` — the cycle at
    /// which the thread's second request completes in each scenario.
    #[must_use]
    pub fn fig1_overlap() -> (u64, u64) {
        let run = |banks: [usize; 2], rows: [u64; 2]| {
            let mut ctrl =
                Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
            ctrl.try_enqueue(read(0, 0, banks[0], rows[0])).unwrap();
            ctrl.try_enqueue(read(1, 0, banks[1], rows[1])).unwrap();
            let mut now = 0;
            let done = ctrl.run_to_drain(&mut now, 1_000_000);
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
        let run = |parbs: bool| {
            let sched: Box<dyn parbs_dram::MemoryScheduler> = if parbs {
                Box::new(ParBsScheduler::new(ParBsConfig::default()))
            } else {
                Box::new(FcfsScheduler::new())
            };
            let mut ctrl = Controller::with_checker(DramConfig::default(), sched);
            // Arrival order from the figure: each thread's two concurrent
            // requests interleave with the other thread's.
            ctrl.try_enqueue(read(0, 0, 0, 1)).unwrap();
            ctrl.try_enqueue(read(1, 1, 1, 2)).unwrap();
            ctrl.try_enqueue(read(2, 1, 0, 3)).unwrap();
            ctrl.try_enqueue(read(3, 0, 1, 4)).unwrap();
            let mut now = 0;
            let done = ctrl.run_to_drain(&mut now, 1_000_000);
            let mut stall = [0u64; 2];
            for c in &done {
                stall[c.thread.0] = stall[c.thread.0].max(c.finish);
            }
            stall
        };
        (run(false), run(true))
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
    fn compare_plan_returns_five() {
        let h = quick_harness();
        let evals = h.run_plan(&compare_plan(&case_study_1()), 2);
        assert_eq!(evals.len(), 5);
        assert_eq!(evals[0].scheduler, "FR-FCFS");
        assert_eq!(evals[4].scheduler, "PAR-BS");
    }

    #[test]
    fn mapping_sweep_covers_the_ablation_grid() {
        let base = Geometry::table2();
        let rows = mapping_sweep_rows(base);
        // 2 policies × XOR on/off × 3 rank counts × 7 schedulers.
        assert_eq!(rows.len(), 84);
        let labels: Vec<&str> = rows.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(labels[0], "row/r1/FR-FCFS");
        assert!(labels.contains(&"row-noxor/r2/PAR-BS"));
        assert!(labels.contains(&"line-noxor/r4/FCFS"));
        assert!(labels.contains(&"line-noxor/r4/BLISS"));
        assert!(labels.contains(&"row/r1/ATLAS"));
        for (_, _, o) in &rows {
            assert!(!o.is_none(), "every row pins its geometry and mapping");
            o.geometry.unwrap().validate().expect("every swept geometry is valid");
        }
        let plan = mapping_sweep_plan(&[case_study_1()], base);
        assert_eq!(plan.job_count(), 84);
        assert_eq!(plan.labels().len(), 84);
    }

    #[test]
    fn zoo_sweep_splits_fairness_by_agent_class() {
        let h = quick_harness();
        let mixes = [parbs_workloads::accel_case_study()];
        let sweep = zoo_sweep_plan(&mixes);
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
    fn shaped_sweep_rows_are_deterministic_at_any_jobs_level() {
        let h = quick_harness();
        let mixes = [case_study_1()];
        // The r2 PAR-BS slice of the ablation: small enough for a unit
        // test, still exercising geometry+mapping overrides end to end.
        let rows: Vec<_> = mapping_sweep_rows(h.config().dram.geometry)
            .into_iter()
            .filter(|(l, _, _)| l.contains("/r2/") && l.ends_with("PAR-BS"))
            .collect();
        assert_eq!(rows.len(), 4);
        let sweep = SweepPlan::with_overrides(&mixes, &rows);
        let serial = sweep.run(&h, 1);
        let parallel = sweep.run(&h, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.evaluations, b.evaluations);
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
    fn marking_cap_plan_labels() {
        let h = quick_harness();
        let mixes = [case_study_1()];
        let sweep = marking_cap_plan(&mixes, &[Some(1), Some(5), None]);
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
