//! Snapshot benchmark of the parallel sweep engine: one 4-mix x 5-scheduler
//! evaluation plan executed on a fresh harness at jobs=1 and jobs=4, wall
//! clocks compared, outputs asserted byte-identical. Emits
//! `BENCH_parallel_sweep.json` in the working directory.
//!
//! Run with: `cargo run --release -p parbs-bench --bin parallel_sweep`
//! (`--quick` shrinks the per-thread instruction target for CI; any other
//! argument exits 2).
//!
//! The >=2x speedup assertion only fires on hosts with at least 4 available
//! cores — on smaller machines (or under CPU quotas) the run still checks
//! determinism and records the honest numbers.

use std::fmt::Write as _;
use std::time::Instant;

use parbs_sim::experiments::{paper_five_labeled, sweep_plan};
use parbs_sim::{Harness, MixEvaluation, SimConfig};
use parbs_workloads::random_mixes;

struct Run {
    jobs: usize,
    wall_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    evals: Vec<MixEvaluation>,
}

fn timed_run(target: u64, jobs: usize) -> Run {
    // Fresh harness per level: both runs pay the full alone-baseline cost,
    // so the comparison measures the executor, not a warm cache.
    let harness =
        Harness::new(SimConfig { target_instructions: target, ..SimConfig::for_cores(4) });
    let mixes = random_mixes(4, 4, 42);
    let sweep = sweep_plan(&mixes, &paper_five_labeled());
    let start = Instant::now();
    let evals = harness.run_plan(sweep.plan(), jobs);
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let stats = harness.cache_stats();
    Run { jobs, wall_ms, cache_hits: stats.hits, cache_misses: stats.misses, evals }
}

fn main() {
    let quick = parbs_bench::quick_flag();
    let target = if quick { 4_000 } else { 30_000 };
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let serial = timed_run(target, 1);
    let parallel = timed_run(target, 4);

    let identical = serial.evals == parallel.evals
        && format!("{:?}", serial.evals) == format!("{:?}", parallel.evals);
    assert!(identical, "jobs=4 output diverged from jobs=1 on the same plan");

    let speedup = serial.wall_ms / parallel.wall_ms;
    for r in [&serial, &parallel] {
        println!(
            "jobs={}: {} evaluations in {:>8.1} ms (alone-cache {} hits / {} misses)",
            r.jobs,
            r.evals.len(),
            r.wall_ms,
            r.cache_hits,
            r.cache_misses
        );
    }
    println!("speedup {speedup:.2}x on a host with {host_parallelism} available core(s)");

    let mut json = String::from("{\n  \"benchmark\": \"parallel_sweep\",\n");
    let _ = write!(
        json,
        "  \"plan\": \"4 mixes x 5 schedulers (random_mixes(4, 4, 42), target {target})\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \"runs\": [\n"
    );
    for (i, r) in [&serial, &parallel].iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"jobs\": {}, \"wall_ms\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}}}{}",
            r.jobs,
            r.wall_ms,
            r.cache_hits,
            r.cache_misses,
            if i == 1 { "\n" } else { ",\n" }
        );
    }
    let _ = write!(json, "  ],\n  \"speedup\": {speedup:.2},\n  \"identical_output\": true\n}}\n");
    std::fs::write("BENCH_parallel_sweep.json", &json).expect("write BENCH_parallel_sweep.json");
    println!("wrote BENCH_parallel_sweep.json");

    if host_parallelism >= 4 {
        assert!(
            speedup >= 2.0,
            "parallel-sweep regression: jobs=4 must be >= 2x faster than jobs=1 on a \
             >=4-core host (got {speedup:.2}x)"
        );
    } else {
        println!(
            "note: skipping the >=2x speedup assertion — only {host_parallelism} core(s) \
             available"
        );
    }
}
