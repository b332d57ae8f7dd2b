//! Scaling benchmark for the sparse per-thread state (`ThreadTable`)
//! migration: the cost of one steady-state scheduling decision as the
//! **registered requester population** grows 16 → 1 000 → 10 000 while the
//! live working set stays capped (≤ 1 024 threads with real per-thread
//! state, 128-entry decision queue).
//!
//! With the old dense `Vec`-per-thread state this curve was linear in the
//! largest thread id; with `ThreadTable` it must be flat. The trailing
//! assert gates exactly that: the worst per-scheduler ratio of
//! 10k-population decision cost to 16-population decision cost stays
//! within 2x. Emits `BENCH_many_threads.json` in the working directory.
//!
//! Run with: `cargo run --release -p parbs-bench --bin many_threads`
//! (`--quick` shrinks the sample count for CI; any other argument exits 2).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use parbs_bench::hotpath;
use parbs_dram::SchedView;

/// Registered-population scales: the baseline and the two sparse extremes.
const POPULATIONS: [usize; 3] = [16, 1_000, 10_000];
/// Cap on threads carrying live scheduler state at any population.
const ACTIVE_CAP: usize = 1_024;
/// Decision-queue length for every measurement.
const QUEUE_LEN: u64 = 128;

/// Median nanoseconds per call of `f`, over `samples` samples of `iters`
/// timed iterations each.
fn median_ns(samples: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

struct Row {
    scheduler: &'static str,
    population: usize,
    active: usize,
    decision_ns: f64,
}

fn main() {
    let quick = parbs_bench::quick_flag();
    let (samples, iters) = if quick { (15, 100) } else { (50, 1_000) };
    let mut rows: Vec<Row> = Vec::new();
    for kind in hotpath::all_schedulers() {
        for population in POPULATIONS {
            let active = population.min(ACTIVE_CAP);
            let (mut sched, mut q, channel) =
                hotpath::warmed_sparse(&kind, QUEUE_LEN, population, active);
            let view = SchedView { channel: &channel, now: 100 };
            let mut keys = Vec::new();
            // One steady-state decision slot: the event-driven
            // `pre_schedule` pass, a full key refresh, and the max-scan.
            let decision_ns = median_ns(samples, iters, || {
                sched.pre_schedule(black_box(&mut q), &view);
                hotpath::compute_keys(&*sched, &q, &view, &mut keys);
                black_box(hotpath::decide_by_key_scan(&keys));
            });
            println!(
                "{:8} population={population:<6} active={active:<5} decision {decision_ns:>9.1} ns",
                kind.name()
            );
            rows.push(Row { scheduler: kind.name(), population, active, decision_ns });
        }
    }

    let mut json = String::from(
        "{\n  \"benchmark\": \"many_threads\",\n  \"unit\": \"ns_per_decision\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheduler\": \"{}\", \"population\": {}, \"active\": {}, \
             \"decision_ns\": {:.1}}}{}",
            r.scheduler,
            r.population,
            r.active,
            r.decision_ns,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    // Per scheduler: decision cost at the 10k population relative to the
    // 16-thread baseline. Flat (≈1.0) is the sparse-state promise.
    let mut worst_ratio = 0.0f64;
    let mut worst_name = "";
    for kind in hotpath::all_schedulers() {
        let at = |pop: usize| {
            rows.iter()
                .find(|r| r.scheduler == kind.name() && r.population == pop)
                .map(|r| r.decision_ns)
                .expect("row exists")
        };
        let ratio = at(10_000) / at(16);
        if ratio > worst_ratio {
            worst_ratio = ratio;
            worst_name = kind.name();
        }
    }
    let _ = write!(json, "  ],\n  \"worst_ratio_10k_vs_16\": {worst_ratio:.2}\n}}\n");
    std::fs::write("BENCH_many_threads.json", &json).expect("write BENCH_many_threads.json");
    println!(
        "\nwrote BENCH_many_threads.json (worst 10k/16 decision-cost ratio {worst_ratio:.2}x, \
         {worst_name})"
    );
    assert!(
        worst_ratio <= 2.0,
        "sparse-state regression: {worst_name}'s decision cost at a 10k-requester population \
         is {worst_ratio:.2}x its 16-thread baseline (must stay within 2x)"
    );
}
