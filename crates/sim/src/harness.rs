//! The immutable measurement harness: shared runs vs. concurrently memoized
//! alone runs, combined into the paper's metrics.
//!
//! A [`Harness`] is `Send + Sync`: its configuration is fixed at
//! construction and per-job weight/priority changes travel as
//! [`EvalOverrides`] instead of mutating shared state, so any number of
//! worker threads can evaluate jobs against one harness. The alone-run
//! memo is keyed on a structured [`AloneKey`] and is **single-flight**: two
//! workers that need the same alone baseline never simulate it twice — the
//! second blocks until the first finishes and reuses its result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use parbs_cpu::{CoreConfig, InstructionStream};
use parbs_dram::{Geometry, MappingPolicy, TimingParams};
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

/// Cache key of one alone-run baseline. The baseline depends on the
/// benchmark, the scheduler, and **every** DRAM and run-shape parameter
/// (geometry, mapping policy, timing, queue depths, run length, seed, ...)
/// — keying on a subset would silently reuse a baseline across different
/// memory systems. Thread weights and priorities are excluded
/// deliberately: alone runs always clear them (a single thread has nothing
/// to compete with).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AloneKey {
    bench: &'static str,
    kind: SchedulerKind,
    cores: usize,
    geometry: Geometry,
    mapping: MappingPolicy,
    request_buffer_cap: usize,
    write_buffer_cap: usize,
    /// Bit pattern of the write-drain watermark (`f64` itself is not
    /// `Hash`/`Eq`; the exact bits are what the simulator sees).
    write_drain_watermark_bits: u64,
    timing: TimingParams,
    core: CoreConfig,
    target_instructions: u64,
    max_cycles: u64,
    seed: u64,
    check_protocol: bool,
}

impl AloneKey {
    /// Builds the key for `bench` running alone under `kind` on the system
    /// described by `cfg`. Every DRAM and run-shape field of `cfg` is
    /// captured; `cfg.thread_weights` / `cfg.thread_priorities` are not.
    #[must_use]
    pub fn new(bench: &'static str, kind: &SchedulerKind, cfg: &SimConfig) -> Self {
        AloneKey {
            bench,
            kind: kind.clone(),
            cores: cfg.cores,
            geometry: cfg.dram.geometry,
            mapping: cfg.dram.mapping,
            request_buffer_cap: cfg.dram.request_buffer_cap,
            write_buffer_cap: cfg.dram.write_buffer_cap,
            write_drain_watermark_bits: cfg.dram.write_drain_watermark.to_bits(),
            timing: cfg.dram.timing,
            core: cfg.core,
            target_instructions: cfg.target_instructions,
            max_cycles: cfg.max_cycles,
            seed: cfg.seed,
            check_protocol: cfg.check_protocol,
        }
    }
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

/// Concurrent single-flight memo of alone baselines. The map holds one
/// cell per key; the brief lock covers only the map lookup, never a
/// simulation. `OnceLock::get_or_init` provides the single-flight: among
/// racing workers exactly one runs the simulation while the rest block on
/// the cell and then read its value.
#[derive(Default)]
struct AloneCache {
    map: Mutex<HashMap<AloneKey, Arc<OnceLock<ThreadRunStats>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AloneCache {
    fn get_or_run(&self, key: AloneKey, run: impl FnOnce() -> ThreadRunStats) -> ThreadRunStats {
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

/// The immutable experiment harness: a base configuration, a stream
/// factory, and the concurrent alone-run memo. All methods take `&self`;
/// share one harness across worker threads (or pass it to
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
    /// Creates a harness with the given base configuration. Per-job
    /// weight/priority overrides are passed as [`EvalOverrides`]; the base
    /// configuration is never mutated afterwards.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Harness { cfg, alone: AloneCache::default() }
    }

    /// The base configuration.
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

    /// The job configuration: the base config with non-empty / `Some`
    /// override fields replaced (see [`EvalOverrides`]).
    fn job_config(&self, overrides: &EvalOverrides) -> SimConfig {
        let mut cfg = self.cfg.clone();
        if !overrides.weights.is_empty() {
            cfg.thread_weights = overrides.weights.clone();
        }
        if !overrides.priorities.is_empty() {
            cfg.thread_priorities = overrides.priorities.clone();
        }
        if let Some(geometry) = overrides.geometry {
            cfg.dram.geometry = geometry;
        }
        if let Some(mapping) = overrides.mapping {
            cfg.dram.mapping = mapping;
        }
        cfg
    }

    /// Runs `bench` alone on the same memory system under `kind`,
    /// memoizing the result. Safe to call from any number of threads;
    /// concurrent requests for the same baseline simulate it exactly once.
    pub fn alone(&self, bench: &'static BenchmarkProfile, kind: &SchedulerKind) -> ThreadRunStats {
        self.alone_under(bench, kind, &self.cfg)
    }

    /// Memoized alone run on the memory system described by `base` (the
    /// seam that keeps geometry-overridden jobs comparing against alone
    /// baselines on the *same* overridden system).
    fn alone_under(
        &self,
        bench: &'static BenchmarkProfile,
        kind: &SchedulerKind,
        base: &SimConfig,
    ) -> ThreadRunStats {
        let mut cfg = base.clone();
        cfg.cores = 1;
        cfg.thread_weights = Vec::new();
        cfg.thread_priorities = Vec::new();
        let key = AloneKey::new(bench.name, kind, &cfg);
        self.alone.get_or_run(key, || {
            let stream = Self::stream_for(&cfg, bench, 0);
            let mut sys = System::new(cfg.clone(), vec![stream], kind);
            sys.run().threads[0]
        })
    }

    /// Evaluates one [`EvalJob`]: the shared run of its mix, the alone
    /// baseline of each of its threads, and the paper's metrics over both.
    /// QoS overrides (NFQ/STFM weights, PAR-BS priorities — the Section 5 /
    /// Fig. 14 experiments) apply to the shared run only: alone baselines
    /// are single-thread runs and always clear them. Geometry and mapping
    /// overrides apply to both, so slowdowns compare against the memory
    /// system the mix actually ran on.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from the harness's — alone
    /// baselines and streams must target the same DRAM geometry, so use one
    /// harness per system size.
    pub fn evaluate(&self, job: &EvalJob) -> MixEvaluation {
        let EvalJob { mix, kind, overrides } = job;
        let shared = self.shared_system(mix, kind, overrides).run();
        let job_cfg = self.job_config(overrides);
        let comparisons: Vec<ThreadComparison> = mix
            .benchmarks
            .iter()
            .zip(&shared.threads)
            .map(|(bench, s)| ThreadComparison {
                shared: to_measurement(s),
                alone: to_measurement(&self.alone_under(bench, kind, &job_cfg)),
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
    /// `kind` on this harness's base configuration with `overrides`
    /// applied — the seam checkpointed single runs are driven through, and
    /// `.run()` on it gives a job's full shared-run result.
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
        let cfg = self.job_config(overrides);
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
        assert_send_sync::<AloneKey>();
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
    fn alone_cache_distinguishes_dram_shapes() {
        // Regression: an earlier cache key covered only the channel count
        // and run length, so systems differing in any other DRAM parameter
        // (here: bank count) would alias to one entry and reuse a baseline
        // from the wrong memory system.
        let b = by_name("mcf").unwrap();
        let eight = Harness::new(quick_cfg());
        let mut four_cfg = quick_cfg();
        four_cfg.dram.geometry.banks_per_rank = 4;
        let four = Harness::new(four_cfg.clone());
        let eight_banks = eight.alone(b, &SchedulerKind::FrFcfs);
        let four_banks = four.alone(b, &SchedulerKind::FrFcfs);
        assert_ne!(eight_banks, four_banks, "halving the banks must change the baseline");
        let k8 = AloneKey::new(b.name, &SchedulerKind::FrFcfs, &quick_cfg());
        let k4 = AloneKey::new(b.name, &SchedulerKind::FrFcfs, &four_cfg);
        assert_ne!(k8, k4, "different bank counts must key separately");
    }

    #[test]
    fn alone_key_distinguishes_nested_timing_fields() {
        // Two configs differing ONLY in a nested DRAM timing field must get
        // distinct keys — the regression the Debug-string key was prone to
        // if a field ever fell out of the rendering.
        let b = by_name("mcf").unwrap();
        let base = quick_cfg();
        let mut tweaked = base.clone();
        tweaked.dram.timing.t_rcd += 1;
        let k1 = AloneKey::new(b.name, &SchedulerKind::FrFcfs, &base);
        let k2 = AloneKey::new(b.name, &SchedulerKind::FrFcfs, &tweaked);
        assert_ne!(k1, k2, "nested timing fields must be part of the key");
        let mut set = std::collections::HashSet::new();
        set.insert(k1);
        set.insert(k2);
        assert_eq!(set.len(), 2, "keys must also hash distinctly");
    }

    #[test]
    fn alone_key_ignores_thread_qos_settings() {
        // Alone runs clear weights/priorities, so two configs differing
        // only in them share one baseline.
        let b = by_name("mcf").unwrap();
        let base = quick_cfg();
        let mut weighted = base.clone();
        weighted.thread_weights = vec![8.0, 1.0, 1.0, 1.0];
        assert_eq!(
            AloneKey::new(b.name, &SchedulerKind::Nfq, &base),
            AloneKey::new(b.name, &SchedulerKind::Nfq, &weighted),
        );
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
                geometry: Some(Geometry { ranks_per_channel: 2, ..Geometry::table2() }),
                mapping: Some(MappingPolicy::LineInterleaved { xor_permute: false }),
            },
        });
        assert!(h.config().thread_weights.is_empty(), "base config must stay untouched");
        assert!(h.config().thread_priorities.is_empty());
        assert_eq!(h.config().dram.ranks_per_channel(), 1, "geometry must not leak either");
        assert_eq!(h.config().dram.mapping, MappingPolicy::baseline());
    }

    #[test]
    fn geometry_overrides_rebase_the_alone_baselines() {
        // A job that overrides the DRAM shape must compare its shared run
        // against alone runs on the *same* shape — and those baselines must
        // key separately from the base system's.
        let h = Harness::new(quick_cfg());
        let job = EvalJob::new(case_study_1(), SchedulerKind::FrFcfs);
        let base = h.evaluate(&job);
        let entries_after_base = h.cache_stats().entries;
        let shaped = EvalJob {
            overrides: EvalOverrides {
                geometry: Some(Geometry { ranks_per_channel: 2, ..Geometry::table2() }),
                ..EvalOverrides::none()
            },
            ..job
        };
        let two_rank = h.evaluate(&shaped);
        assert!(
            h.cache_stats().entries > entries_after_base,
            "the 2-rank system must get its own alone baselines"
        );
        assert_ne!(base.shared, two_rank.shared, "adding a rank must change the shared run");
        // Re-running the same overridden job hits the memo.
        let misses = h.cache_stats().misses;
        let _ = h.evaluate(&shaped);
        assert_eq!(h.cache_stats().misses, misses, "second overridden run reuses its baselines");
    }

    #[test]
    fn a_mapping_override_reaches_its_evaluation() {
        // The override must change the shared run and rebase the alone
        // baselines exactly as the same mapping in the base config would,
        // and `EvalOverrides::none()` afterwards must reproduce the base
        // evaluation bit for bit.
        let h = Harness::new(quick_cfg());
        let job = EvalJob::new(case_study_1(), SchedulerKind::FrFcfs);
        let base = h.evaluate(&job);
        let entries_after_base = h.cache_stats().entries;
        let line = MappingPolicy::LineInterleaved { xor_permute: false };
        let remapped = h.evaluate(&EvalJob {
            overrides: EvalOverrides { mapping: Some(line), ..EvalOverrides::none() },
            ..job.clone()
        });
        assert_ne!(base.shared, remapped.shared, "the mapping must change the shared run");
        assert_eq!(
            h.cache_stats().entries,
            entries_after_base + job.mix.benchmarks.len(),
            "each thread gets an alone baseline on the remapped system"
        );
        let mut line_cfg = quick_cfg();
        line_cfg.dram.mapping = line;
        assert_eq!(Harness::new(line_cfg).evaluate(&job), remapped, "override == base config");
        assert_eq!(h.evaluate(&job), base, "no override reproduces the base evaluation");
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
