//! The immutable measurement harness: shared runs vs. concurrently memoized
//! alone runs, combined into the paper's metrics.
//!
//! A [`Harness`] is one memory system: its configuration is fixed at
//! construction, and per-job weight/priority changes travel as
//! [`EvalOverrides`] instead of mutating shared state, so any number of
//! worker threads can evaluate jobs against one harness (it is
//! `Send + Sync`). A study that varies the memory system builds one
//! harness per system. Alone runs clear weights and priorities, so an
//! alone baseline depends only on the benchmark and the scheduler: the
//! memo is keyed on that pair and is **single-flight** — two workers that
//! need the same alone baseline never simulate it twice; the second blocks
//! until the first finishes and reuses its result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use parbs_cpu::InstructionStream;
use parbs_metrics::{evaluate, MetricsRow, ThreadComparison, ThreadMeasurement};
use parbs_workloads::{BenchmarkProfile, MixSpec, SyntheticStream};

use crate::{EvalJob, EvalOverrides, SchedulerKind, SimConfig, System, ThreadRunStats};

/// The evaluated result of one (mix, scheduler) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEvaluation {
    /// Scheduler display name.
    pub scheduler: String,
    /// Mix display name.
    pub mix: String,
    /// Benchmark name per thread.
    pub thread_names: Vec<String>,
    /// Unfairness / weighted speedup / hmean speedup / AST / slowdowns.
    pub metrics: MetricsRow,
    /// Shared-run snapshots per thread.
    pub shared: Vec<ThreadRunStats>,
    /// Worst-case read latency of the shared run.
    pub worst_case_latency: u64,
    /// Row-buffer hit rate of the shared run.
    pub row_hit_rate: f64,
}

/// Counters of the alone-run memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups satisfied without simulating (including waits on an
    /// in-flight simulation of the same key).
    pub hits: u64,
    /// Lookups that simulated a new baseline.
    pub misses: u64,
    /// Distinct baselines currently cached.
    pub entries: usize,
}

/// An alone baseline's memo key: the benchmark name and the scheduler.
type BaselineKey = (&'static str, SchedulerKind);

/// Concurrent single-flight memo of alone baselines, keyed by benchmark
/// name and scheduler. The map holds one cell per key; the brief lock
/// covers only the map lookup, never a simulation.
/// `OnceLock::get_or_init` provides the single-flight: among racing
/// workers exactly one runs the simulation while the rest block on the
/// cell and then read its value.
#[derive(Default)]
struct AloneCache {
    map: Mutex<HashMap<BaselineKey, Arc<OnceLock<ThreadRunStats>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AloneCache {
    fn get_or_run(&self, key: BaselineKey, run: impl FnOnce() -> ThreadRunStats) -> ThreadRunStats {
        let cell = {
            let mut map = self.map.lock().expect("alone-cache lock poisoned");
            match map.entry(key) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(OnceLock::new()))),
            }
        };
        let mut simulated = false;
        let stats = *cell.get_or_init(|| {
            simulated = true;
            run()
        });
        if simulated {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        stats
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("alone-cache lock poisoned").len(),
        }
    }
}

/// The immutable experiment harness: one memory system's configuration,
/// a stream factory, and the concurrent alone-run memo. All methods take
/// `&self`; share one harness across worker threads (or pass it to
/// [`Harness::run_plan`]) to evaluate an [`crate::EvalPlan`] in parallel.
pub struct Harness {
    cfg: SimConfig,
    alone: AloneCache,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("cores", &self.cfg.cores)
            .field("cached_alone_runs", &self.alone.stats().entries)
            .finish()
    }
}

impl Harness {
    /// Creates a harness for the memory system `cfg` describes. Per-job
    /// weight/priority overrides are passed as [`EvalOverrides`]; the
    /// configuration is never mutated afterwards.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Harness { cfg, alone: AloneCache::default() }
    }

    /// The configuration every job runs on.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current counters of the alone-run memo.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.alone.stats()
    }

    fn stream_for(
        cfg: &SimConfig,
        bench: &'static BenchmarkProfile,
        salt: u64,
    ) -> Box<dyn InstructionStream> {
        Box::new(SyntheticStream::new(bench, cfg.geometry(), cfg.seed, salt))
    }

    /// Runs `bench` alone on this memory system under `kind`, memoizing
    /// the result. Safe to call from any number of threads; concurrent
    /// requests for the same baseline simulate it exactly once.
    pub fn alone(&self, bench: &'static BenchmarkProfile, kind: &SchedulerKind) -> ThreadRunStats {
        self.alone.get_or_run((bench.name, kind.clone()), || {
            let cfg = SimConfig {
                cores: 1,
                thread_weights: Vec::new(),
                thread_priorities: Vec::new(),
                ..self.cfg.clone()
            };
            let stream = Self::stream_for(&cfg, bench, 0);
            System::new(cfg, vec![stream], kind).run().threads[0]
        })
    }

    /// Evaluates one [`EvalJob`]: the shared run of its mix, the alone
    /// baseline of each of its threads, and the paper's metrics over both.
    /// QoS overrides (NFQ/STFM weights, PAR-BS priorities — the Section 5 /
    /// Fig. 14 experiments) apply to the shared run only: alone baselines
    /// are single-thread runs and always clear them.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from the harness's — alone
    /// baselines and streams must target the same memory system, so use
    /// one harness per system.
    pub fn evaluate(&self, job: &EvalJob) -> MixEvaluation {
        let EvalJob { mix, kind, overrides } = job;
        let shared = self.shared_system(mix, kind, overrides).run();
        let comparisons: Vec<ThreadComparison> = mix
            .benchmarks
            .iter()
            .zip(&shared.threads)
            .map(|(bench, s)| ThreadComparison {
                shared: to_measurement(s),
                alone: to_measurement(&self.alone(bench, kind)),
            })
            .collect();
        MixEvaluation {
            scheduler: kind.name().to_owned(),
            mix: mix.name.clone(),
            thread_names: mix.benchmarks.iter().map(|b| b.name.to_owned()).collect(),
            metrics: evaluate(&comparisons),
            shared: shared.threads,
            worst_case_latency: shared.worst_case_latency,
            row_hit_rate: shared.row_hit_rate,
        }
    }

    /// Builds (without running) the shared-run [`System`] for `mix` under
    /// `kind` on this harness's configuration with `overrides` applied (a
    /// non-empty override vector replaces the configured one) — the seam
    /// checkpointed single runs are driven through, and `.run()` on it
    /// gives a job's full shared-run result.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from the harness's.
    #[must_use]
    pub fn shared_system(
        &self,
        mix: &MixSpec,
        kind: &SchedulerKind,
        overrides: &EvalOverrides,
    ) -> System {
        assert_eq!(
            mix.cores(),
            self.cfg.cores,
            "mix '{}' needs a {}-core harness",
            mix.name,
            mix.cores()
        );
        let mut cfg = self.cfg.clone();
        if !overrides.weights.is_empty() {
            cfg.thread_weights = overrides.weights.clone();
        }
        if !overrides.priorities.is_empty() {
            cfg.thread_priorities = overrides.priorities.clone();
        }
        let streams: Vec<Box<dyn InstructionStream>> = mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| Self::stream_for(&cfg, b, i as u64))
            .collect();
        System::new(cfg, streams, kind)
    }
}

fn to_measurement(s: &ThreadRunStats) -> ThreadMeasurement {
    ThreadMeasurement {
        instructions: s.instructions,
        cycles: s.cycles,
        mem_stall_cycles: s.mem_stall_cycles,
        dram_reads: s.dram_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::{by_name, case_study_1, case_study_3};

    fn quick_cfg() -> SimConfig {
        SimConfig { target_instructions: 1_500, ..SimConfig::for_cores(4) }
    }

    #[test]
    fn harness_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Harness>();
        assert_send_sync::<EvalJob>();
    }

    #[test]
    fn alone_runs_are_cached() {
        let h = Harness::new(quick_cfg());
        let b = by_name("mcf").unwrap();
        let a1 = h.alone(b, &SchedulerKind::FrFcfs);
        let a2 = h.alone(b, &SchedulerKind::FrFcfs);
        assert_eq!(a1, a2);
        let stats = h.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn alone_runs_use_the_harness_memory_system() {
        // Each harness is one memory system: halving the banks or slowing
        // a nested timing field gives a different baseline.
        let b = by_name("mcf").unwrap();
        let base = Harness::new(quick_cfg()).alone(b, &SchedulerKind::FrFcfs);
        let mut four_banks = quick_cfg();
        four_banks.dram.geometry.banks_per_rank = 4;
        let mut slow_rcd = quick_cfg();
        slow_rcd.dram.timing.t_rcd += 1;
        for cfg in [four_banks, slow_rcd] {
            assert_ne!(Harness::new(cfg).alone(b, &SchedulerKind::FrFcfs), base);
        }
    }

    #[test]
    fn alone_runs_ignore_thread_qos_settings() {
        // Alone runs clear weights and priorities: a weighted job shares
        // its baselines with an unweighted one, and a harness configured
        // with weights measures the same baselines as one without.
        let b = by_name("mcf").unwrap();
        let mut weighted = quick_cfg();
        weighted.thread_weights = vec![8.0, 1.0, 1.0, 1.0];
        let base = Harness::new(quick_cfg()).alone(b, &SchedulerKind::Nfq);
        assert_eq!(Harness::new(weighted).alone(b, &SchedulerKind::Nfq), base);
        let h = Harness::new(quick_cfg());
        let job = EvalJob::new(case_study_1(), SchedulerKind::Nfq);
        let _ = h.evaluate(&EvalJob {
            overrides: EvalOverrides { weights: vec![8.0, 1.0, 1.0, 1.0], ..EvalOverrides::none() },
            ..job.clone()
        });
        let misses = h.cache_stats().misses;
        let _ = h.evaluate(&job);
        assert_eq!(h.cache_stats().misses, misses, "the unweighted job reuses every baseline");
    }

    #[test]
    fn evaluate_produces_full_metrics() {
        let h = Harness::new(quick_cfg());
        let e = h.evaluate(&EvalJob::new(case_study_1(), SchedulerKind::FrFcfs));
        assert_eq!(e.metrics.slowdowns.len(), 4);
        assert!(e.metrics.unfairness >= 1.0);
        assert!(e.metrics.weighted_speedup > 0.0 && e.metrics.weighted_speedup <= 4.0 + 1e-9);
        for sl in &e.metrics.slowdowns {
            assert!(*sl > 0.5, "slowdown {sl} out of plausible range");
        }
    }

    #[test]
    fn overrides_do_not_touch_the_base_config() {
        let h = Harness::new(quick_cfg());
        let _ = h.evaluate(&EvalJob {
            mix: case_study_1(),
            kind: SchedulerKind::Nfq,
            overrides: EvalOverrides {
                weights: vec![8.0, 1.0, 1.0, 1.0],
                priorities: vec![parbs::ThreadPriority::Opportunistic; 4],
            },
        });
        assert!(h.config().thread_weights.is_empty(), "base config must stay untouched");
        assert!(h.config().thread_priorities.is_empty());
    }

    #[test]
    fn identical_threads_have_similar_slowdowns() {
        let h = Harness::new(quick_cfg());
        let e = h.evaluate(&EvalJob::new(case_study_3(), SchedulerKind::FrFcfs));
        // 4 copies of lbm: unfairness should be near 1 (Fig. 7).
        assert!(
            e.metrics.unfairness < 1.5,
            "uniform mix should be roughly fair, got {}",
            e.metrics.unfairness
        );
    }
}
