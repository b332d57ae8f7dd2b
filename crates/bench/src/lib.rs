//! Shared harness for the per-figure/table regeneration binaries and the
//! Criterion microbenchmarks.
//!
//! Every binary accepts:
//!
//! * `--quick` — a fast smoke-test scale (short runs, few workloads);
//! * `--target <N>` — instructions per thread before snapshot;
//! * `--mixes <N>` — number of random 4-core workloads (where applicable);
//! * `--jobs <N>` — worker threads fanning the evaluation plan (default:
//!   all available cores; results are identical at any jobs level).
//!
//! The default scale (30 000 instructions per thread; 100/16/12 workloads
//! for 4/8/16 cores) regenerates every figure in a few minutes on a laptop.
//! Absolute numbers are not expected to match the paper — the substrate is a
//! scaled-down simulator — but the *shape* (ordering of schedulers,
//! direction of gaps, sweet spots) is; see `EXPERIMENTS.md`.

use parbs_sim::experiments::SweepRow;
use parbs_sim::{Harness, MixEvaluation, SimConfig};

/// Run scale parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions each thread commits before its snapshot.
    pub target: u64,
    /// Random 4-core workloads for the averaged experiments.
    pub mixes4: usize,
    /// Random 8-core workloads.
    pub mixes8: usize,
    /// Random 16-core workloads.
    pub mixes16: usize,
    /// Seed for workload-mix construction.
    pub seed: u64,
    /// Worker threads the evaluation plan fans across.
    pub jobs: usize,
}

impl Scale {
    /// The paper-shaped default scale.
    #[must_use]
    pub fn paper() -> Self {
        Scale {
            target: 30_000,
            mixes4: 100,
            mixes8: 16,
            mixes16: 12,
            seed: 42,
            jobs: parbs_sim::default_jobs(),
        }
    }

    /// A smoke-test scale for CI and quick looks.
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            target: 6_000,
            mixes4: 10,
            mixes8: 4,
            mixes16: 3,
            seed: 42,
            jobs: parbs_sim::default_jobs(),
        }
    }

    /// Parses `--quick`, `--target N`, `--mixes N`, `--seed N`, `--jobs N`
    /// from argv.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(&args)
    }

    /// Parses the flags from an explicit argument slice (testable core of
    /// [`Scale::from_args`]).
    #[must_use]
    pub fn from_arg_slice(args: &[String]) -> Self {
        let mut scale =
            if args.iter().any(|a| a == "--quick") { Self::quick() } else { Self::paper() };
        let value_of = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<u64>().ok())
        };
        if let Some(t) = value_of("--target") {
            scale.target = t.max(100);
        }
        if let Some(m) = value_of("--mixes") {
            scale.mixes4 = m as usize;
        }
        if let Some(s) = value_of("--seed") {
            scale.seed = s;
        }
        if let Some(j) = value_of("--jobs") {
            scale.jobs = (j as usize).max(1);
        }
        scale
    }

    /// A measurement harness for a `cores`-core system at this scale. Fan
    /// plans across workers with [`Harness::run_plan`] and `self.jobs`.
    #[must_use]
    pub fn harness(&self, cores: usize) -> Harness {
        Harness::new(SimConfig { target_instructions: self.target, ..SimConfig::for_cores(cores) })
    }
}

/// Prints a case-study block (Figs. 5, 6, 7, 9, 14): per-thread memory
/// slowdowns, the unfairness line, and the system-throughput bars.
pub fn print_case_study(title: &str, evals: &[MixEvaluation]) {
    println!("## {title}");
    if let Some(first) = evals.first() {
        print!("{:22}", "scheduler");
        for name in &first.thread_names {
            print!(" {name:>11}");
        }
        println!(
            " {:>10} {:>8} {:>8} {:>8} {:>8}",
            "unfairness", "wspeed", "hspeed", "ast", "wc-lat"
        );
    }
    for e in evals {
        print!("{:22}", e.scheduler);
        for s in &e.metrics.slowdowns {
            print!(" {s:>11.2}");
        }
        println!(
            " {:>10.2} {:>8.3} {:>8.3} {:>8.1} {:>8}",
            e.metrics.unfairness,
            e.metrics.weighted_speedup,
            e.metrics.hmean_speedup,
            e.metrics.ast_per_req,
            e.worst_case_latency
        );
    }
    println!();
}

/// Prints the aggregate block of a sweep (Figs. 8, 10-13; Table 4 rows).
pub fn print_summaries(title: &str, rows: &[SweepRow]) {
    println!("## {title}");
    println!(
        "{:22} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "scheduler", "unfairness", "wspeed", "hspeed", "ast", "wc-lat"
    );
    for row in rows {
        let s = row.summary();
        println!(
            "{:22} {:>10.3} {:>8.3} {:>8.3} {:>8.1} {:>8}",
            s.name,
            s.unfairness,
            s.weighted_speedup,
            s.hmean_speedup,
            s.ast_per_req,
            s.worst_case_latency
        );
    }
    println!();
}

/// Prints per-workload unfairness for a set of sample workloads plus the
/// whole-suite geometric mean (the shape of Fig. 8 left / Fig. 10 left).
pub fn print_unfairness_by_workload(title: &str, rows: &[SweepRow], samples: usize) {
    println!("## {title}");
    let Some(first) = rows.first() else {
        return;
    };
    print!("{:22}", "workload");
    for row in rows {
        print!(" {:>18}", row.label);
    }
    println!();
    for (i, eval) in first.evaluations.iter().enumerate().take(samples) {
        print!("{:22}", eval.mix);
        for row in rows {
            print!(" {:>18.2}", row.evaluations[i].metrics.unfairness);
        }
        println!();
    }
    print!("{:22}", "GMEAN(all)");
    for row in rows {
        print!(" {:>18.3}", row.summary().unfairness);
    }
    println!("\n");
}

/// Harness for the scheduling hot-path comparison: the cost of one
/// controller decision slot over an n-entry read queue, measured as the
/// retired full-queue comparator sort versus a single-pass scan of cached
/// priority keys (what `Controller::try_issue` now does).
pub mod hotpath {
    use parbs_dram::{
        Channel, LineAddr, MemoryScheduler, Request, RequestKind, SchedView, ThreadId, TimingParams,
    };
    use parbs_sim::{SchedulerKind, SimConfig};

    /// The scheduler kinds covered by the hot-path benchmarks: the full
    /// seven-scheduler zoo plus STFQ — every policy shipped with the
    /// repository.
    #[must_use]
    pub fn all_schedulers() -> Vec<SchedulerKind> {
        let mut kinds = SchedulerKind::zoo_seven();
        kinds.push(SchedulerKind::Stfq);
        kinds
    }

    /// An `n`-request read queue spread over 4 threads and 8 banks with a
    /// mix of row-hit and row-conflict addresses.
    #[must_use]
    pub fn queue(n: u64) -> Vec<Request> {
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
    #[must_use]
    pub fn warmed(
        kind: &SchedulerKind,
        n: u64,
    ) -> (Box<dyn MemoryScheduler>, Vec<Request>, Channel) {
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
    #[must_use]
    pub fn decide_by_sort(
        sched: &dyn MemoryScheduler,
        q: &[Request],
        view: &SchedView<'_>,
    ) -> usize {
        let mut order: Vec<usize> = (0..q.len()).collect();
        order.sort_by(|&i, &j| sched.compare(&q[i], &q[j], view));
        order[0]
    }

    /// Fills `keys` with the packed priority key of each queued request —
    /// the cache-refresh cost, paid only on priority-changing events.
    pub fn compute_keys(
        sched: &dyn MemoryScheduler,
        q: &[Request],
        view: &SchedView<'_>,
        keys: &mut Vec<u128>,
    ) {
        keys.clear();
        keys.extend(q.iter().map(|r| sched.priority_key(r, view)));
    }

    /// One decision via the hot path: a single max-scan over cached keys.
    #[must_use]
    pub fn decide_by_key_scan(keys: &[u128]) -> usize {
        let mut best = 0;
        for (i, &k) in keys.iter().enumerate() {
            if k > keys[best] {
                best = i;
            }
        }
        best
    }

    /// The `active` thread ids used by the sparse-population benchmarks:
    /// strided evenly across the id space `0..population`, so the largest
    /// id grows with `population` while the count stays fixed.
    #[must_use]
    pub fn strided_ids(population: usize, active: usize) -> Vec<usize> {
        let active = active.min(population).max(1);
        let stride = (population / active).max(1);
        (0..active).map(|k| k * stride).collect()
    }

    /// A `queue_len`-entry read queue round-robining over exactly 16
    /// distinct thread ids subsampled from `strided_ids(population,
    /// active)`. Keeping the *distinct-thread count* of the queue constant
    /// across populations is what makes decision costs comparable: several
    /// schedulers legitimately pay O(distinct queued threads) per decision
    /// (STFM's fairness scan, ATLAS's ranking), and the benchmark's
    /// question is whether cost grows with the *registered population*,
    /// not with queue composition.
    #[must_use]
    pub fn sparse_queue(queue_len: u64, population: usize, active: usize) -> Vec<Request> {
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
    /// `strided_ids(population, active)`, warmed over a
    /// [`sparse_queue`] measurement queue.
    ///
    /// Registration gives each active thread the full footprint a long run
    /// would: a share weight (NFQ/STFM), attained service and a blacklist
    /// entry (ATLAS/BLISS, via four consecutive column commands), and a
    /// ranking pass over a queue naming every id (ATLAS/PAR-BS). A
    /// decision measured afterwards therefore pays whatever per-thread
    /// state the scheduler keeps — the point of the benchmark is that this
    /// cost tracks `active`, never `population`.
    #[must_use]
    pub fn warmed_sparse(
        kind: &SchedulerKind,
        queue_len: u64,
        population: usize,
        active: usize,
    ) -> (Box<dyn MemoryScheduler>, Vec<Request>, Channel) {
        use parbs_dram::{Command, CommandKind};
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn hotpath_sort_and_key_scan_pick_the_same_request() {
        for kind in hotpath::all_schedulers() {
            let (sched, q, channel) = hotpath::warmed(&kind, 64);
            let view = parbs_dram::SchedView { channel: &channel, now: 100 };
            let mut keys = Vec::new();
            hotpath::compute_keys(&*sched, &q, &view, &mut keys);
            assert_eq!(
                hotpath::decide_by_sort(&*sched, &q, &view),
                hotpath::decide_by_key_scan(&keys),
                "{}: both paths must pick the same head request",
                kind.name()
            );
        }
    }

    #[test]
    fn default_scale_is_paper() {
        assert_eq!(Scale::from_arg_slice(&[]), Scale::paper());
    }

    #[test]
    fn quick_flag_switches_base() {
        let s = Scale::from_arg_slice(&args(&["--quick"]));
        assert_eq!(s, Scale::quick());
    }

    #[test]
    fn explicit_flags_override() {
        let s = Scale::from_arg_slice(&args(&[
            "--quick", "--target", "9000", "--mixes", "7", "--seed", "3",
        ]));
        assert_eq!(s.target, 9_000);
        assert_eq!(s.mixes4, 7);
        assert_eq!(s.seed, 3);
        assert_eq!(s.mixes8, Scale::quick().mixes8, "unset fields keep the base");
    }

    #[test]
    fn jobs_flag_overrides_and_is_clamped() {
        let s = Scale::from_arg_slice(&args(&["--jobs", "6"]));
        assert_eq!(s.jobs, 6);
        let s = Scale::from_arg_slice(&args(&["--jobs", "0"]));
        assert_eq!(s.jobs, 1, "jobs=0 clamps to one worker");
        let s = Scale::from_arg_slice(&[]);
        assert_eq!(s.jobs, parbs_sim::default_jobs());
    }

    #[test]
    fn tiny_target_is_clamped() {
        let s = Scale::from_arg_slice(&args(&["--target", "1"]));
        assert_eq!(s.target, 100);
    }

    #[test]
    fn malformed_values_are_ignored() {
        let s = Scale::from_arg_slice(&args(&["--target", "abc"]));
        assert_eq!(s.target, Scale::paper().target);
    }
}
