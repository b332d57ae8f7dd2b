//! ATLAS: the Adaptive per-Thread Least-Attained-Service memory scheduler
//! of Kim et al. (HPCA 2010) — long-term attained-service ranking over
//! scheduling quanta, optimizing system throughput by favoring threads the
//! memory system has served least.
//!
//! Time is divided into fixed quanta. During a quantum each thread
//! accumulates *attained service* — DRAM time spent on its commands. At
//! every quantum boundary the long-term totals are aged with an exponential
//! moving average (`total ← (1 − 1/8)·total + quantum_service`, the paper's
//! α = 0.875 as pure integer arithmetic) and threads are ranked ascending by
//! total: the least-served thread gets rank 0 and strict priority for the
//! whole next quantum. Within a rank level, row hits first, then oldest
//! first.

use std::cmp::Ordering;
use std::collections::HashMap;

use parbs_dram::{
    Command, FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy, MemoryScheduler,
    Request, SchedView, StarvationClaim, ThreadId, TimingParams,
};
use parbs_obs::Event;

/// ATLAS's key: the inverted least-attained-service rank first (rank 0
/// packs largest), then row hits, then the inverted request id.
pub(crate) const ATLAS_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "las_rank", semantic: FieldSemantic::Rank, lo: 65, width: 16 },
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

/// Widest representable rank — also the key value packed for rank 0 after
/// inversion.
const RANK_MAX: u64 = (1 << 16) - 1;

/// Quantum length in cycles. The paper uses very long quanta (10M cycles);
/// this one is scaled down to this simulator's run lengths so rankings
/// actually roll over within a run.
const QUANTUM: u64 = 10_000;

#[derive(Debug, Clone, Copy, Default)]
struct ThreadService {
    /// EWMA of per-quantum attained service (updated at quantum boundaries).
    total: u64,
    /// Attained service accumulated during the current quantum.
    in_quantum: u64,
    /// Rank assigned at the last recomputation (0 = least attained service).
    rank: u64,
}

/// The ATLAS scheduler.
///
/// Attained service accrues in [`MemoryScheduler::on_command`] (command
/// latencies attributed to the owning thread), but ranks only change at
/// quantum boundaries or when a new thread appears — both detected in
/// [`MemoryScheduler::pre_schedule`], which reports `true` exactly when the
/// rank assignment changed (the key-caching contract: quantum rollover is
/// time-based, so the controller cannot see it through arrival/bank events).
#[derive(Debug, Clone)]
pub struct AtlasScheduler {
    /// The DRAM timing that prices each command's attained service.
    timing: TimingParams,
    /// Per-thread service state, sparse: only threads that have actually
    /// appeared (arrival, queue presence, or command) hold an entry, so the
    /// per-slot cost is O(active threads) however large the id space.
    /// Its hash order reaches no output: ranking sorts `(total, id)`, and
    /// the quantum report sorts by rank.
    threads: HashMap<ThreadId, ThreadService>,
    /// Scratch: sorted thread ids of the current queue, for the
    /// retire-on-idle sweep at quantum boundaries.
    queued_scratch: Vec<usize>,
    /// Cycle the current quantum started at.
    quantum_start: u64,
    /// 1-based count of completed quanta.
    quanta_rolled: u64,
    observing: bool,
    obs_events: Vec<Event>,
}

impl AtlasScheduler {
    /// Creates an ATLAS scheduler that charges each command its latency
    /// under `timing`.
    #[must_use]
    pub fn new(timing: &TimingParams) -> Self {
        AtlasScheduler {
            timing: *timing,
            threads: HashMap::new(),
            queued_scratch: Vec::new(),
            quantum_start: 0,
            quanta_rolled: 0,
            observing: false,
            obs_events: Vec::new(),
        }
    }

    /// The rank currently assigned to a thread (0 = highest priority;
    /// threads never seen rank below any seen thread only by id order).
    #[must_use]
    pub fn rank_of(&self, t: ThreadId) -> u64 {
        self.threads.get(&t).map_or_else(|| (t.0 as u64).min(RANK_MAX), |s| s.rank)
    }

    /// The long-term attained-service total of a thread (for tests).
    #[must_use]
    pub fn attained_service(&self, t: ThreadId) -> u64 {
        self.threads.get(&t).map_or(0, |s| s.total)
    }

    fn ensure_thread(&mut self, t: ThreadId) -> bool {
        if self.threads.contains_key(&t) {
            return false;
        }
        self.threads.insert(t, ThreadService::default());
        true
    }

    /// Re-ranks all registered threads ascending by `(total, thread id)`;
    /// returns whether any rank changed. O(registered log registered), run
    /// only at quantum boundaries and registrations — never per decision.
    fn recompute_ranks(&mut self) -> bool {
        let mut order: Vec<(u64, usize)> =
            self.threads.iter().map(|(t, s)| (s.total, t.0)).collect();
        order.sort_unstable();
        let mut changed = false;
        for (rank, &(_, id)) in order.iter().enumerate() {
            let rank = (rank as u64).min(RANK_MAX);
            let s = self.threads.get_mut(&ThreadId(id)).expect("just iterated");
            if s.rank != rank {
                s.rank = rank;
                changed = true;
            }
        }
        changed
    }
}

impl MemoryScheduler for AtlasScheduler {
    fn name(&self) -> &str {
        "ATLAS"
    }

    fn on_arrival(&mut self, req: &Request, _now: u64) {
        self.ensure_thread(req.thread);
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let mut grew = false;
        for r in queue.iter() {
            grew |= self.ensure_thread(r.thread);
        }
        let mut changed = false;
        if view.now.saturating_sub(self.quantum_start) >= QUANTUM {
            self.quantum_start = view.now;
            self.quanta_rolled += 1;
            for t in self.threads.values_mut() {
                // α = 0.875 EWMA in integer arithmetic.
                t.total = t.total - t.total / 8 + std::mem::take(&mut t.in_quantum);
            }
            // Retire-on-idle: a thread with no long-term service, nothing
            // accrued this quantum, and no queued request holds exactly the
            // default state, so dropping it is unobservable — it re-registers
            // with that same state if it ever returns. This keeps the table
            // bounded by the recently-active set under open-loop flows.
            let mut queued = std::mem::take(&mut self.queued_scratch);
            queued.clear();
            queued.extend(queue.iter().map(|r| r.thread.0));
            queued.sort_unstable();
            self.threads.retain(|t, s| {
                s.total > 0 || s.in_quantum > 0 || queued.binary_search(&t.0).is_ok()
            });
            self.queued_scratch = queued;
            changed = self.recompute_ranks();
            if self.observing {
                let mut ranking: Vec<(usize, u32, u64)> = self
                    .threads
                    .iter()
                    .map(|(t, s)| (t.0, u32::try_from(s.rank).unwrap_or(u32::MAX), s.total))
                    .collect();
                ranking.sort_unstable_by_key(|&(thread, rank, _)| (rank, thread));
                self.obs_events.push(Event::QuantumRolled {
                    at: view.now,
                    quantum: self.quanta_rolled,
                    ranking,
                });
            }
        } else if grew {
            // A thread appeared mid-quantum: give it a rank now (zero
            // attained service ranks it ahead of every served thread).
            changed = self.recompute_ranks();
        }
        changed
    }

    fn on_command(&mut self, cmd: &Command, req: &Request, _now: u64) {
        let latency = self.timing.command_latency(cmd.kind);
        self.threads.entry(req.thread).or_default().in_quantum += latency;
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        let inv_rank = RANK_MAX - self.rank_of(req.thread).min(RANK_MAX);
        (u128::from(inv_rank) << 65)
            | (u128::from(view.is_row_hit(req)) << 64)
            | u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        let rank_a = self.rank_of(a.thread);
        let rank_b = self.rank_of(b.thread);
        let hit_a = view.is_row_hit(a);
        let hit_b = view.is_row_hit(b);
        rank_a.cmp(&rank_b).then(hit_b.cmp(&hit_a)).then(a.id.cmp(&b.id))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&ATLAS_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // Least-attained-service ranking: a starved thread has the least
        // attained service by construction, so it holds the top rank until
        // serviced.
        Some(LivenessContract {
            policy: LivenessPolicy::LeastAttained { saturation: 3 },
            claim: StarvationClaim::Bounded,
        })
    }

    parbs_snap::snap_state!(threads, quantum_start, quanta_rolled);

    fn set_observing(&mut self, enabled: bool) {
        self.observing = enabled;
        if !enabled {
            self.obs_events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.obs_events);
    }
}

parbs_snap::snap!(ThreadService { total, in_quantum, rank });

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{Channel, CommandKind, LineAddr, RequestKind};

    fn req(id: u64, thread: usize, bank: usize, row: u64) -> Request {
        Request::new(
            id,
            ThreadId(thread),
            LineAddr { channel: 0, bank, row, col: 0 },
            RequestKind::Read,
            0,
        )
    }

    fn col_cmd(r: &Request) -> Command {
        Command {
            kind: CommandKind::Read,
            rank: 0,
            bank: r.addr.bank,
            row: r.addr.row,
            col: 0,
            request: r.id,
        }
    }

    #[test]
    fn fresh_threads_rank_by_id() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 1, 0, 1), req(1, 0, 1, 1)];
        assert!(s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 }));
        assert_eq!(s.rank_of(ThreadId(0)), 0);
        assert_eq!(s.rank_of(ThreadId(1)), 1);
    }

    #[test]
    fn served_thread_sinks_in_rank_at_the_quantum_boundary() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        // Only thread 0 gets serviced this quantum.
        let r = req(0, 0, 0, 1);
        for _ in 0..10 {
            s.on_command(&col_cmd(&r), &r, 100);
        }
        assert_eq!(s.rank_of(ThreadId(0)), 0, "ranks hold mid-quantum");
        let rolled = SchedView { channel: &ch, now: 10_000 };
        assert!(s.pre_schedule(&mut q, &rolled), "rank change is reported");
        assert_eq!(s.rank_of(ThreadId(0)), 1, "served thread loses priority");
        assert_eq!(s.rank_of(ThreadId(1)), 0, "starved thread is promoted");
        assert!(s.attained_service(ThreadId(0)) > 0);
    }

    #[test]
    fn ewma_ages_old_service() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        let r = req(0, 0, 0, 1);
        s.on_command(&col_cmd(&r), &r, 0);
        let first = {
            s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 10_000 });
            s.attained_service(ThreadId(0))
        };
        assert!(first > 0);
        // Two idle quanta: the total decays by 1/8 each rollover.
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 20_000 });
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 30_000 });
        let aged = s.attained_service(ThreadId(0));
        assert!(aged < first, "EWMA decays without new service: {aged} < {first}");
    }

    #[test]
    fn rank_dominates_row_hits_and_age() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1), req(5, 1, 1, 1)];
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        // Service thread 0 heavily, roll the quantum: thread 1 outranks it.
        let r = req(0, 0, 0, 1);
        for _ in 0..10 {
            s.on_command(&col_cmd(&r), &r, 100);
        }
        let rolled = SchedView { channel: &ch, now: 10_000 };
        s.pre_schedule(&mut q, &rolled);
        assert_eq!(
            s.compare(&q[1], &q[0], &rolled),
            Ordering::Less,
            "higher-ranked thread's younger request wins"
        );
        assert!(s.priority_key(&q[1], &rolled) > s.priority_key(&q[0], &rolled));
    }

    #[test]
    fn stable_ranks_do_not_report_changes() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        assert!(
            !s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 100 }),
            "mid-quantum, same threads: keys are not stale"
        );
        assert!(
            !s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 10_000 }),
            "rollover with identical totals keeps the same ranks"
        );
    }

    #[test]
    fn quantum_rollover_emits_a_ranking_event_when_observing() {
        let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
        s.set_observing(true);
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
        let r = req(0, 0, 0, 1);
        s.on_command(&col_cmd(&r), &r, 5);
        s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 10_000 });
        let mut out = Vec::new();
        s.drain_events(&mut out);
        let rolled = out
            .iter()
            .find_map(|e| match e {
                Event::QuantumRolled { at, quantum, ranking } => Some((at, quantum, ranking)),
                _ => None,
            })
            .expect("rollover event emitted");
        assert_eq!(*rolled.0, 10_000);
        assert_eq!(*rolled.1, 1);
        assert_eq!(rolled.2[0], (1, 0, 0), "starved thread 1 ranks first");
        assert_eq!(rolled.2[1].0, 0, "served thread 0 ranks last");
        assert!(rolled.2[1].2 > 0, "event carries the attained-service total");
    }
}
