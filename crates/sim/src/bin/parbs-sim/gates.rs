//! The gate benchmarks: `sched_hotpath` (the controller's keyed decision
//! against the retired comparator sort), `many_threads` (decision cost as
//! the registered requester population grows) and `parallel_sweep` (the
//! sweep executor's speedup and jobs-level identity).
//!
//! `sched_hotpath` and `many_threads` measure every scheduler of
//! [`SchedulerKind::all`]. Each gate writes a `BENCH_*.json` snapshot in
//! the working directory and panics if its gate does not hold. `--quick`
//! shrinks the sample count (or the instruction target) for CI.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use parbs_dram::{
    Channel, Command, CommandKind, LineAddr, MemoryScheduler, Request, RequestKind, SchedView,
    ThreadId, TimingParams,
};
use parbs_sim::experiments::{paper_five_labeled, sweep_plan};
use parbs_sim::{Harness, MixEvaluation, SchedulerKind, SimConfig};
use parbs_workloads::random_mixes;

use crate::Args;

/// Median nanoseconds per call of `f`, over `samples` samples of `iters`
/// timed iterations each (after one untimed warmup sample).
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

/// An `n`-request read queue spread over 4 threads and 8 banks with a mix
/// of row-hit and row-conflict addresses.
fn queue(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let addr =
                LineAddr { channel: 0, bank: (i % 8) as usize, row: i * 7 % 13, col: i % 32 };
            Request::new(i, ThreadId((i % 4) as usize), addr, RequestKind::Read, i / 4)
        })
        .collect()
}

/// A warmed scheduler over `queue(n)`: arrivals announced and one
/// `pre_schedule` pass applied (forms the PAR-BS batch, assigns NFQ
/// deadlines), so a decision measured afterwards is a steady-state slot.
fn warmed(kind: &SchedulerKind, n: u64) -> (Box<dyn MemoryScheduler>, Vec<Request>, Channel) {
    let channel = Channel::new(8, TimingParams::ddr2_800());
    let mut sched = kind.build(&SimConfig::for_cores(4));
    let mut q = queue(n);
    for r in &q {
        sched.on_arrival(r, r.arrival);
    }
    sched.pre_schedule(&mut q, &SchedView { channel: &channel, now: 100 });
    (sched, q, channel)
}

/// One decision via the retired path: sort the whole queue with the
/// scheduler's comparator and take the head.
fn decide_by_sort(sched: &dyn MemoryScheduler, q: &[Request], view: &SchedView<'_>) -> usize {
    let mut order: Vec<usize> = (0..q.len()).collect();
    order.sort_by(|&i, &j| sched.compare(&q[i], &q[j], view));
    order[0]
}

/// Fills `keys` with the packed priority key of each queued request — the
/// cache-refresh cost, paid only on priority-changing events.
fn compute_keys(
    sched: &dyn MemoryScheduler,
    q: &[Request],
    view: &SchedView<'_>,
    keys: &mut Vec<u128>,
) {
    keys.clear();
    keys.extend(q.iter().map(|r| sched.priority_key(r, view)));
}

/// One decision via the hot path: a single max-scan over cached keys.
fn decide_by_key_scan(keys: &[u128]) -> usize {
    let mut best = 0;
    for (i, &k) in keys.iter().enumerate() {
        if k > keys[best] {
            best = i;
        }
    }
    best
}

/// The `active` thread ids of the sparse-population benchmark: strided
/// evenly across the id space `0..population`, so the largest id grows with
/// `population` while the count stays fixed.
fn strided_ids(population: usize, active: usize) -> Vec<usize> {
    let active = active.min(population).max(1);
    let stride = (population / active).max(1);
    (0..active).map(|k| k * stride).collect()
}

/// A `queue_len`-entry read queue round-robining over exactly 16 distinct
/// thread ids subsampled from `strided_ids(population, active)`. Keeping
/// the *distinct-thread count* of the queue constant across populations is
/// what makes decision costs comparable: several schedulers legitimately
/// pay O(distinct queued threads) per decision (STFM's fairness scan,
/// ATLAS's ranking), and the benchmark's question is whether cost grows
/// with the *registered population*, not with queue composition.
fn sparse_queue(queue_len: u64, population: usize, active: usize) -> Vec<Request> {
    let ids = strided_ids(population, active);
    let queue_ids: Vec<usize> =
        ids.iter().copied().step_by((ids.len() / 16).max(1)).take(16).collect();
    (0..queue_len)
        .map(|i| {
            let addr =
                LineAddr { channel: 0, bank: (i % 8) as usize, row: i * 7 % 13, col: i % 32 };
            let t = queue_ids[(i as usize) % queue_ids.len()];
            Request::new(i, ThreadId(t), addr, RequestKind::Read, i / 4)
        })
        .collect()
}

/// A scheduler carrying live per-thread state for every id in
/// `strided_ids(population, active)`, warmed over a [`sparse_queue`]
/// measurement queue.
///
/// Registration gives each active thread the full footprint a long run
/// would: a share weight (NFQ/STFM), attained service and a blacklist entry
/// (ATLAS/BLISS, via four consecutive column commands), and a ranking pass
/// over a queue naming every id (ATLAS/PAR-BS). A decision measured
/// afterwards therefore pays whatever per-thread state the scheduler keeps
/// — the point of the benchmark is that this cost tracks `active`, never
/// `population`.
fn warmed_sparse(
    kind: &SchedulerKind,
    queue_len: u64,
    population: usize,
    active: usize,
) -> (Box<dyn MemoryScheduler>, Vec<Request>, Channel) {
    let channel = Channel::new(8, TimingParams::ddr2_800());
    let mut sched = kind.build(&SimConfig::for_cores(4));
    let ids = strided_ids(population, active);
    let mut reg: Vec<Request> = Vec::with_capacity(ids.len());
    for (k, &t) in ids.iter().enumerate() {
        sched.set_thread_weight(ThreadId(t), 1.0);
        let addr =
            LineAddr { channel: 0, bank: k % 8, row: (k % 13) as u64 + 1, col: k as u64 % 32 };
        let r = Request::new(k as u64, ThreadId(t), addr, RequestKind::Read, 0);
        let cmd = Command {
            kind: CommandKind::Read,
            rank: 0,
            bank: addr.bank,
            row: addr.row,
            col: addr.col,
            request: r.id,
        };
        for _ in 0..4 {
            sched.on_command(&cmd, &r, 0);
        }
        reg.push(r);
    }
    sched.pre_schedule(&mut reg, &SchedView { channel: &channel, now: 50 });
    let mut q = sparse_queue(queue_len, population, active);
    for r in &q {
        sched.on_arrival(r, r.arrival);
    }
    sched.pre_schedule(&mut q, &SchedView { channel: &channel, now: 100 });
    (sched, q, channel)
}

/// Writes `json` to `path` in the working directory.
fn write_snapshot(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The controller's scheduling hot path: the retired full-queue comparator
/// sort vs. the cached-priority-key max-scan, per scheduler, at
/// 32/64/128-entry queues. Gate: the 128-entry keyed decision is at least
/// 2x faster than the sort for every scheduler.
pub fn sched_hotpath(args: &Args) {
    struct Row {
        scheduler: &'static str,
        queue_len: u64,
        sort_ns: f64,
        keyed_ns: f64,
        refresh_ns: f64,
    }
    let (samples, iters) = if args.has("--quick") { (15, 200) } else { (50, 2_000) };
    let mut rows: Vec<Row> = Vec::new();
    for kind in SchedulerKind::all() {
        for n in [32u64, 64, 128] {
            let (sched, queue, channel) = warmed(&kind, n);
            let view = SchedView { channel: &channel, now: 100 };
            let sort_ns = median_ns(samples, iters, || {
                black_box(decide_by_sort(&*sched, black_box(&queue), &view));
            });
            let mut keys = Vec::new();
            compute_keys(&*sched, &queue, &view, &mut keys);
            let keyed_ns = median_ns(samples, iters, || {
                black_box(decide_by_key_scan(black_box(&keys)));
            });
            let refresh_ns = median_ns(samples, iters, || {
                compute_keys(&*sched, black_box(&queue), &view, &mut keys);
                black_box(keys.len());
            });
            println!(
                "{:8} n={n:<4} sort {sort_ns:>9.1} ns  keyed {keyed_ns:>7.1} ns  \
                 refresh {refresh_ns:>8.1} ns  speedup {:>5.1}x",
                kind.name(),
                sort_ns / keyed_ns
            );
            rows.push(Row { scheduler: kind.name(), queue_len: n, sort_ns, keyed_ns, refresh_ns });
        }
    }

    let mut json = String::from(
        "{\n  \"benchmark\": \"sched_hotpath\",\n  \"unit\": \"ns_per_decision\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheduler\": \"{}\", \"queue_len\": {}, \"sort_ns\": {:.1}, \
             \"keyed_ns\": {:.1}, \"key_refresh_ns\": {:.1}, \"speedup\": {:.2}}}{}",
            r.scheduler,
            r.queue_len,
            r.sort_ns,
            r.keyed_ns,
            r.refresh_ns,
            r.sort_ns / r.keyed_ns,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    let worst_128 = rows
        .iter()
        .filter(|r| r.queue_len == 128)
        .map(|r| r.sort_ns / r.keyed_ns)
        .fold(f64::INFINITY, f64::min);
    let _ = write!(json, "  ],\n  \"min_speedup_128\": {worst_128:.2}\n}}\n");
    write_snapshot("BENCH_sched_hotpath.json", &json);
    println!("\nwrote BENCH_sched_hotpath.json (min 128-entry speedup {worst_128:.1}x)");
    assert!(
        worst_128 >= 2.0,
        "hot-path regression: 128-entry keyed decision must be >= 2x faster than the sort \
         (got {worst_128:.2}x)"
    );
}

/// The cost of one steady-state scheduling decision as the **registered
/// requester population** grows 16 → 1 000 → 10 000 while the live working
/// set stays capped (at most 1 024 threads with real per-thread state,
/// 128-entry decision queue). Gate: the worst per-scheduler ratio of
/// 10k-population decision cost to 16-population decision cost stays
/// within 2x — sparse per-thread state keeps the curve flat.
pub fn many_threads(args: &Args) {
    /// Registered-population scales: the baseline and the two sparse
    /// extremes.
    const POPULATIONS: [usize; 3] = [16, 1_000, 10_000];
    /// Cap on threads carrying live scheduler state at any population.
    const ACTIVE_CAP: usize = 1_024;
    /// Decision-queue length for every measurement.
    const QUEUE_LEN: u64 = 128;
    struct Row {
        scheduler: &'static str,
        population: usize,
        active: usize,
        decision_ns: f64,
    }
    let (samples, iters) = if args.has("--quick") { (15, 100) } else { (50, 1_000) };
    let mut rows: Vec<Row> = Vec::new();
    for kind in SchedulerKind::all() {
        for population in POPULATIONS {
            let active = population.min(ACTIVE_CAP);
            let (mut sched, mut q, channel) = warmed_sparse(&kind, QUEUE_LEN, population, active);
            let view = SchedView { channel: &channel, now: 100 };
            let mut keys = Vec::new();
            // One steady-state decision slot: the event-driven
            // `pre_schedule` pass, a full key refresh, and the max-scan.
            let decision_ns = median_ns(samples, iters, || {
                sched.pre_schedule(black_box(&mut q), &view);
                compute_keys(&*sched, &q, &view, &mut keys);
                black_box(decide_by_key_scan(&keys));
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
    for kind in SchedulerKind::all() {
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
    write_snapshot("BENCH_many_threads.json", &json);
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

/// The parallel sweep engine: one 4-mix x 5-scheduler evaluation plan
/// executed on a fresh harness at jobs=1 and jobs=4, wall clocks compared,
/// outputs asserted identical. The >=2x speedup gate only fires on hosts
/// with at least 4 available cores; on smaller machines (or under CPU
/// quotas) the run still checks determinism and records the honest numbers.
pub fn parallel_sweep(args: &Args) {
    struct Run {
        jobs: usize,
        wall_ms: f64,
        cache_hits: u64,
        cache_misses: u64,
        evals: Vec<MixEvaluation>,
    }
    let timed_run = |target: u64, jobs: usize| {
        // Fresh harness per level: both runs pay the full alone-baseline
        // cost, so the comparison measures the executor, not a warm cache.
        let harness =
            Harness::new(SimConfig { target_instructions: target, ..SimConfig::for_cores(4) });
        let mixes = random_mixes(4, 4, 42);
        let sweep = sweep_plan(&mixes, &paper_five_labeled());
        let start = Instant::now();
        let evals = harness.run_plan(sweep.plan(), jobs);
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let stats = harness.cache_stats();
        Run { jobs, wall_ms, cache_hits: stats.hits, cache_misses: stats.misses, evals }
    };
    let target = if args.has("--quick") { 4_000 } else { 30_000 };
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
    write_snapshot("BENCH_parallel_sweep.json", &json);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_and_key_scan_pick_the_same_request() {
        for kind in SchedulerKind::all() {
            let (sched, q, channel) = warmed(&kind, 64);
            let view = SchedView { channel: &channel, now: 100 };
            let mut keys = Vec::new();
            compute_keys(&*sched, &q, &view, &mut keys);
            assert_eq!(
                decide_by_sort(&*sched, &q, &view),
                decide_by_key_scan(&keys),
                "{kind}: both paths must pick the same head request"
            );
        }
    }
}
