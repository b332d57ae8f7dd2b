//! STFM: the stall-time fair memory scheduler of Mutlu & Moscibroda
//! (MICRO 2007) — the strongest prior baseline in the PAR-BS evaluation.

use std::cmp::Ordering;
use std::collections::HashMap;

use parbs_dram::{
    Command, FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy, MemoryScheduler,
    Request, SchedView, StarvationClaim, ThreadId, TimingParams,
};

/// STFM's key: the fairness-mode ("boosted") thread first, then row hits,
/// then the inverted request id.
pub(crate) const STFM_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "boosted", semantic: FieldSemantic::Boosted, lo: 65, width: 1 },
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

/// Fairness threshold α: fairness-oriented scheduling kicks in when the
/// estimated `max slowdown / min slowdown` exceeds it (1.10, the PAR-BS
/// paper's §7.2 value).
const ALPHA: f64 = 1.10;

/// Counter-aging interval in cycles (2²⁴, as in §7.2): Tshared and
/// Tinterference are halved every interval so the estimate tracks phase
/// changes.
const AGING_INTERVAL: u64 = 1 << 24;

#[derive(Debug, Clone, Copy, Default)]
struct ThreadState {
    /// Measured memory stall time while sharing (fed by the cores).
    t_shared: f64,
    /// Estimated extra stall time caused by other threads.
    t_interference: f64,
    /// Importance weight: the thread's slowdown estimate is multiplied by
    /// it, so a weight-8 thread is treated as 8x as slowed and is
    /// prioritized accordingly (approximating the original's weighted
    /// slowdown support).
    weight: f64,
    /// Whether the thread currently has requests queued (updated each slot).
    active: bool,
    /// Number of distinct banks with queued requests (BLP estimate γ).
    bank_parallelism: u32,
}

impl ThreadState {
    fn slowdown(&self) -> f64 {
        let alone = (self.t_shared - self.t_interference).max(1.0);
        let w = if self.weight > 0.0 { self.weight } else { 1.0 };
        (self.t_shared / alone).max(1.0) * w
    }
}

/// Stall-Time Fair Memory scheduler.
///
/// Per thread it tracks the measured shared-mode stall time `Tshared`
/// (reported by the cores through
/// [`MemoryScheduler::on_stall_cycles`]) and an online estimate of the
/// interference-induced extra stall `Tinterference`; the thread's slowdown
/// estimate is `S = Tshared / (Tshared − Tinterference)`. When
/// `max S / min S > α` the scheduler prioritizes the most-slowed thread's
/// requests; otherwise it behaves like FR-FCFS.
///
/// `Tinterference` accounting: whenever a request of thread *i* is serviced,
/// every other thread *j* with a queued request **to the same bank** accrues
/// `command latency / γ_j`, where `γ_j` is *j*'s instantaneous bank
/// parallelism (interference hurts a high-BLP thread less per bank, but the
/// estimate is systematically coarse — exactly the inaccuracy the PAR-BS
/// paper exploits when STFM underestimates mcf's slowdown); column commands
/// additionally charge the bus-transfer time to every other active thread.
#[derive(Debug, Clone)]
pub struct StfmScheduler {
    /// The DRAM timing that prices each command's interference.
    timing: TimingParams,
    /// Sparse per-thread stall/interference state; a thread occupies an
    /// entry only once it stalls, accrues interference, is weighted, or
    /// queues a request.
    threads: HashMap<ThreadId, ThreadState>,
    /// Thread estimated most slowed in the current slot (fairness mode).
    prioritized: Option<ThreadId>,
    /// Threads with a queued request per bank, rebuilt each slot by
    /// `pre_schedule` before `on_command` reads it, so never checkpointed.
    bank_threads: Vec<Vec<ThreadId>>,
    /// Distinct queued threads as of the last slot, ascending by id — the
    /// fairness scan and the interference charge walk this instead of the
    /// whole id space, so both stay O(active threads).
    active_threads: Vec<ThreadId>,
    last_aging: u64,
}

impl StfmScheduler {
    /// Creates an STFM scheduler with the paper's parameters (α = 1.10,
    /// interval 2²⁴) that charges interference in command latencies under
    /// `timing`.
    #[must_use]
    pub fn new(timing: &TimingParams) -> Self {
        StfmScheduler {
            timing: *timing,
            threads: HashMap::new(),
            prioritized: None,
            bank_threads: Vec::new(),
            active_threads: Vec::new(),
            last_aging: 0,
        }
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        self.threads.entry(t).or_default()
    }

    /// The current slowdown estimate for a thread (for tests/telemetry).
    #[must_use]
    pub fn slowdown_estimate(&self, t: ThreadId) -> f64 {
        self.threads.get(&t).map_or(1.0, ThreadState::slowdown)
    }

    /// The thread being prioritized by fairness mode, if any.
    #[must_use]
    pub fn fairness_mode_thread(&self) -> Option<ThreadId> {
        self.prioritized
    }

    /// Estimated unfairness (`max slowdown / min slowdown`) among active
    /// threads with measured service, and the most-slowed such thread.
    ///
    /// Degenerate cases are pinned down explicitly: with fewer than two
    /// eligible threads there is no one to be unfair *to*, so the estimate
    /// is 1.0 and no thread is singled out; threads with `Tshared == 0`
    /// (no measured stall time yet) are skipped entirely, since their
    /// vacuous slowdown-1.0 estimates would otherwise anchor the minimum
    /// and inflate the ratio. A non-finite ratio (impossible with clamped
    /// weights, but cheap to guard) also reports 1.0.
    fn fairness_scan(&self) -> (f64, Option<ThreadId>) {
        let mut max: Option<(f64, ThreadId)> = None;
        let mut min: Option<f64> = None;
        let mut eligible = 0u32;
        // `active_threads` is ascending by id, so ties on the maximum resolve
        // to the lowest thread id — the same winner a dense 0..n scan picks.
        for &i in &self.active_threads {
            let Some(t) = self.threads.get(&i) else { continue };
            if !t.active || t.t_shared <= 0.0 {
                continue;
            }
            eligible += 1;
            let s = t.slowdown();
            if max.is_none_or(|(m, _)| s > m) {
                max = Some((s, i));
            }
            min = Some(min.map_or(s, |m: f64| m.min(s)));
        }
        let (Some((max_s, max_thread)), Some(min_s)) = (max, min) else {
            return (1.0, None);
        };
        if eligible < 2 || min_s <= 0.0 {
            return (1.0, None);
        }
        let ratio = max_s / min_s;
        if ratio.is_finite() {
            (ratio, Some(max_thread))
        } else {
            (1.0, None)
        }
    }

    /// The current estimated unfairness among active threads (1.0 when
    /// fewer than two threads have measured service).
    #[must_use]
    pub fn estimated_unfairness(&self) -> f64 {
        self.fairness_scan().0
    }
}

impl MemoryScheduler for StfmScheduler {
    fn name(&self) -> &str {
        "STFM"
    }

    fn set_thread_weight(&mut self, thread: ThreadId, weight: f64) {
        self.thread_mut(thread).weight = weight.max(1e-6);
    }

    fn on_stall_cycles(&mut self, stall_cycles: &[u64], _now: u64) {
        for (t, &cycles) in stall_cycles.iter().enumerate() {
            // A zero report adds nothing; skipping it keeps never-stalled
            // threads out of the table entirely.
            if cycles > 0 {
                self.thread_mut(ThreadId(t)).t_shared += cycles as f64;
            }
        }
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let was_prioritized = self.prioritized;
        // Counter aging — the one sweep that touches every registered entry,
        // amortized over the (long) aging interval. The same sweep retires
        // idle entries whose state is exactly default: an unregistered thread
        // and a default entry are observationally identical (slowdown 1.0,
        // skipped by the fairness scan, re-registered on the next touch), so
        // dropping them cannot change any scheduling decision.
        let now = view.now;
        if now.saturating_sub(self.last_aging) >= AGING_INTERVAL {
            self.last_aging = now;
            for t in self.threads.values_mut() {
                t.t_shared *= 0.5;
                t.t_interference *= 0.5;
            }
            self.threads.retain(|_, t| {
                t.active || t.t_shared != 0.0 || t.t_interference != 0.0 || t.weight != 0.0
            });
        }
        // Rebuild the bank-occupancy snapshot and per-thread BLP estimate,
        // touching only last slot's active threads and the current queue.
        let banks = view.channel.bank_count();
        self.bank_threads.clear();
        self.bank_threads.resize(banks, Vec::new());
        for &t in &self.active_threads {
            if let Some(st) = self.threads.get_mut(&t) {
                st.active = false;
                st.bank_parallelism = 0;
            }
        }
        self.active_threads.clear();
        for req in queue.iter() {
            let list = &mut self.bank_threads[req.addr.bank];
            if !list.contains(&req.thread) {
                list.push(req.thread);
            }
        }
        let bank_threads = std::mem::take(&mut self.bank_threads);
        let mut active = std::mem::take(&mut self.active_threads);
        for list in &bank_threads {
            for &t in list {
                let st = self.thread_mut(t);
                if !st.active {
                    active.push(t);
                }
                st.active = true;
                st.bank_parallelism += 1;
            }
        }
        self.bank_threads = bank_threads;
        self.active_threads = active;
        self.active_threads.sort_unstable_by_key(|t| t.0);
        // Fairness decision: estimated unfairness among active threads.
        let (unfairness, max_thread) = self.fairness_scan();
        self.prioritized = if unfairness > ALPHA { max_thread } else { None };
        // Only the fairness-mode thread feeds request priorities; the
        // slowdown bookkeeping above does not. Report a key-relevant change
        // exactly when the prioritized thread switched.
        self.prioritized != was_prioritized
    }

    fn on_command(&mut self, cmd: &Command, req: &Request, _now: u64) {
        // Interference accounting: servicing `req` (thread i) delays every
        // other thread waiting on the same bank; column commands also hold
        // the shared data bus.
        let latency = self.timing.command_latency(cmd.kind) as f64;
        let bus = if cmd.kind.is_column() { self.timing.t_burst as f64 } else { 0.0 };
        let same_bank = self.bank_threads.get(cmd.bank).map_or(&[][..], Vec::as_slice);
        for t in self.active_threads.iter().filter(|&&t| t != req.thread) {
            let Some(st) = self.threads.get_mut(t) else { continue };
            let gamma = f64::from(st.bank_parallelism.max(1));
            if same_bank.contains(t) {
                st.t_interference += latency / gamma;
            } else if bus > 0.0 {
                st.t_interference += bus / gamma;
            }
        }
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        // Fairness-mode thread first, then row hits, then oldest-first.
        let boosted = self.prioritized == Some(req.thread);
        (u128::from(boosted) << 65)
            | (u128::from(view.is_row_hit(req)) << 64)
            | u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        if let Some(p) = self.prioritized {
            // Fairness mode: the most-slowed thread's requests first
            // (row hits first within it), then FR-FCFS among the rest.
            let pa = a.thread == p;
            let pb = b.thread == p;
            if pa != pb {
                return pb.cmp(&pa);
            }
        }
        let hit_a = view.is_row_hit(a);
        let hit_b = view.is_row_hit(b);
        hit_b.cmp(&hit_a).then(a.id.cmp(&b.id))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&STFM_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // Fairness mode: a thread whose slowdown crosses alpha is boosted
        // over all row hits. In the abstract model the slowdown estimate is
        // a saturating went-unserved counter; crossing the threshold is the
        // unfairness trip point.
        Some(LivenessContract {
            policy: LivenessPolicy::FairnessThreshold { threshold: 3 },
            claim: StarvationClaim::Bounded,
        })
    }

    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.threads);
        w.put(&self.prioritized);
        w.put(&self.active_threads);
        w.u64(self.last_aging);
    }

    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        self.threads = r.get()?;
        self.prioritized = r.get()?;
        self.active_threads = r.get()?;
        self.last_aging = r.u64()?;
        Ok(())
    }
}

impl parbs_snap::Snap for ThreadState {
    fn save(&self, w: &mut parbs_snap::SnapWriter) {
        w.f64(self.t_shared);
        w.f64(self.t_interference);
        w.f64(self.weight);
        w.bool(self.active);
        w.u32(self.bank_parallelism);
    }

    fn load(r: &mut parbs_snap::SnapReader<'_>) -> Result<Self, parbs_snap::SnapError> {
        Ok(ThreadState {
            t_shared: r.f64()?,
            t_interference: r.f64()?,
            weight: r.f64()?,
            active: r.bool()?,
            bank_parallelism: r.u32()?,
        })
    }
}

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

    fn view(ch: &Channel) -> SchedView<'_> {
        SchedView { channel: ch, now: 0 }
    }

    #[test]
    fn starts_in_frfcfs_mode() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch));
        assert!(s.fairness_mode_thread().is_none());
        assert_eq!(s.compare(&q[0], &q[1], &view(&ch)), Ordering::Less);
    }

    #[test]
    fn unfairness_triggers_fairness_mode() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        // Thread 1 stalls a lot and is heavily interfered with.
        s.on_stall_cycles(&[1_000, 100_000], 0);
        s.thread_mut(ThreadId(1)).t_interference = 60_000.0;
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch));
        assert_eq!(s.fairness_mode_thread(), Some(ThreadId(1)));
        // Thread 1's request now outranks thread 0's older request.
        assert_eq!(s.compare(&q[1], &q[0], &view(&ch)), Ordering::Less);
    }

    #[test]
    fn slowdown_estimate_grows_with_interference() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        s.on_stall_cycles(&[10_000], 0);
        assert!((s.slowdown_estimate(ThreadId(0)) - 1.0).abs() < 1e-9);
        s.thread_mut(ThreadId(0)).t_interference = 5_000.0;
        assert!((s.slowdown_estimate(ThreadId(0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interference_charged_to_same_bank_victims() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 3, 1), req(1, 1, 3, 2)];
        s.pre_schedule(&mut q, &view(&ch));
        let cmd = Command {
            kind: CommandKind::Activate,
            rank: 0,
            bank: 3,
            row: 1,
            col: 0,
            request: q[0].id,
        };
        s.on_command(&cmd, &q[0], 0);
        let interference = |s: &StfmScheduler, t: usize| s.threads[&ThreadId(t)].t_interference;
        assert!(interference(&s, 1) > 0.0, "thread 1 waits on bank 3");
        assert_eq!(interference(&s, 0), 0.0, "no self-interference");
    }

    #[test]
    fn high_blp_threads_accrue_less_interference_per_event() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        // Thread 1 waits on 4 banks (high BLP), thread 2 on one bank.
        let mut q = vec![
            req(0, 0, 0, 1),
            req(1, 1, 0, 2),
            req(2, 1, 1, 2),
            req(3, 1, 2, 2),
            req(4, 1, 3, 2),
            req(5, 2, 0, 3),
        ];
        s.pre_schedule(&mut q, &view(&ch));
        let cmd = Command {
            kind: CommandKind::Activate,
            rank: 0,
            bank: 0,
            row: 1,
            col: 0,
            request: q[0].id,
        };
        s.on_command(&cmd, &q[0], 0);
        let interference = |s: &StfmScheduler, t: usize| s.threads[&ThreadId(t)].t_interference;
        assert!(
            interference(&s, 1) < interference(&s, 2),
            "gamma scaling: high-BLP thread is charged less per event"
        );
    }

    #[test]
    fn aging_halves_counters() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        s.on_stall_cycles(&[8_000], 0);
        s.thread_mut(ThreadId(0)).t_interference = 4_000.0;
        let mut q = vec![req(0, 0, 0, 1)];
        let v = SchedView { channel: &ch, now: 1 << 24 };
        s.pre_schedule(&mut q, &v);
        let t0 = &s.threads[&ThreadId(0)];
        assert!((t0.t_shared - 4_000.0).abs() < 1e-9);
        assert!((t0.t_interference - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_active_threads_report_unit_unfairness() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        s.on_stall_cycles(&[50_000, 1_000], 0);
        s.thread_mut(ThreadId(0)).t_interference = 40_000.0;
        // Empty queue: no thread is active, so there is no unfairness.
        let mut q: Vec<Request> = vec![];
        assert!(!s.pre_schedule(&mut q, &view(&ch)));
        assert!((s.estimated_unfairness() - 1.0).abs() < 1e-12);
        assert!(s.fairness_mode_thread().is_none());
    }

    #[test]
    fn a_single_active_thread_cannot_trigger_fairness_mode() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        s.on_stall_cycles(&[50_000], 0);
        s.thread_mut(ThreadId(0)).t_interference = 40_000.0; // slowdown 5.0
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch));
        assert!((s.estimated_unfairness() - 1.0).abs() < 1e-12, "nobody to be unfair to");
        assert!(s.fairness_mode_thread().is_none());
    }

    #[test]
    fn zero_service_threads_are_skipped_by_the_scan() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        // Thread 0 is genuinely slowed; thread 1 is active but has reported
        // no stall time yet. Its vacuous slowdown of 1.0 must not anchor
        // the minimum and fake an unfairness of 5.0.
        s.on_stall_cycles(&[50_000, 0], 0);
        s.thread_mut(ThreadId(0)).t_interference = 40_000.0;
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch));
        assert!((s.estimated_unfairness() - 1.0).abs() < 1e-12);
        assert!(s.fairness_mode_thread().is_none());
    }

    #[test]
    fn weights_scale_slowdown() {
        let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
        s.set_thread_weight(ThreadId(0), 8.0);
        s.on_stall_cycles(&[10_000], 0);
        s.thread_mut(ThreadId(0)).t_interference = 5_000.0;
        // Raw slowdown 2.0, importance weight 8 → treated as 16x slowed.
        assert!((s.slowdown_estimate(ThreadId(0)) - 16.0).abs() < 1e-9);
    }
}
