//! Shared code of the gate benchmarks: `sched_hotpath` (the controller's
//! keyed decision against the retired comparator sort), `many_threads`
//! (decision cost as the registered requester population grows) and
//! `parallel_sweep` (the sweep executor's speedup and jobs-level identity).
//! Each writes a `BENCH_*.json` snapshot and fails if its gate does not
//! hold. The paper's figures and tables regenerate through `parbs-sim`.

/// Reads a gate benchmark's command line: `--quick` (fewer samples, for CI)
/// or nothing. Any other argument exits 2 naming it, so a typo such as
/// `--quik` cannot silently run the full-size measurement.
#[must_use]
pub fn quick_flag() -> bool {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg != "--quick" {
            eprintln!("unknown argument {arg}; the only flag is --quick");
            std::process::exit(2);
        }
        quick = true;
    }
    quick
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
}
