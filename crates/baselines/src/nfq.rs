//! NFQ: the network-fair-queueing memory scheduler of Nesbit et al.
//! (MICRO 2006), in its best variant FQ-VFTF (fair queueing based on virtual
//! finish times, with priority-inversion prevention).

use std::cmp::Ordering;
use std::collections::HashMap;

use parbs_dram::{
    f64_total_order_bits, FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy,
    MemoryScheduler, Request, RequestId, SchedView, StarvationClaim, ThreadId, TimingParams,
};

/// Which virtual timestamp orders requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VirtualTimePolicy {
    /// Earliest virtual **finish** time first — Nesbit et al.'s FQ-VFTF,
    /// the paper's NFQ baseline.
    FinishTime,
    /// Earliest virtual **start** time first — the STFQ improvement of
    /// Rafique et al. (PACT 2007), referenced in the paper's §9: start-time
    /// fair queueing is less sensitive to the idleness problem because a
    /// backlogged thread's pending request carries its (small) start tag
    /// rather than an inflated finish tag.
    StartTime,
}

/// Fair-queueing scheduler: each thread owns a share of the memory system;
/// each request receives a **virtual finish time** (VFT) from its thread's
/// per-bank virtual clock, and the earliest VFT wins.
///
/// Behavioural notes the PAR-BS paper relies on (§8.1.1):
///
/// * the per-(thread, bank) virtual clocks are **uncoordinated across
///   banks**, so a thread's concurrent accesses to different banks can be
///   serviced out of sync — NFQ destroys intra-thread bank-parallelism;
/// * an *idle* thread's virtual clock lags real time, so when a bursty
///   thread wakes up its requests get early deadlines and jump ahead (the
///   "idleness problem").
///
/// Both effects emerge naturally from this implementation.
#[derive(Debug, Clone)]
pub struct NfqScheduler {
    /// Start-time vs. finish-time ordering.
    policy: VirtualTimePolicy,
    /// Virtual cost of servicing one request (the fair-queueing quantum):
    /// the uncontended row-closed access latency, in cycles.
    service_quantum: f64,
    /// Priority-inversion prevention threshold, tRAS: a row-hit request may
    /// jump ahead of an earlier virtual deadline only while its bank's row
    /// has been open for less than this many cycles (the paper's "tRAS
    /// threshold").
    capture_window: u64,
    /// Virtual clock per (thread, bank).
    clocks: HashMap<(ThreadId, usize), f64>,
    /// Virtual finish time assigned to each queued request.
    deadlines: HashMap<RequestId, f64>,
    /// Per-thread share weights; absent threads get the default 1.0, so
    /// only explicitly weighted threads occupy state.
    weights: HashMap<ThreadId, f64>,
    /// Bitmask of banks whose open row is still inside its capture window
    /// (`now - last_activate < capture_window`), as of the last
    /// `pre_schedule`. A capture window *expiring* changes priorities with
    /// no command being issued, so `pre_schedule` recomputes this mask and
    /// reports the change to the controller's key cache.
    recent_banks: u64,
}

impl NfqScheduler {
    /// Creates an NFQ scheduler with equal shares for DRAM with `timing`.
    #[must_use]
    pub fn new(timing: &TimingParams) -> Self {
        Self::with_policy(VirtualTimePolicy::FinishTime, timing)
    }

    /// Creates the start-time fair queueing variant (Rafique et al.).
    #[must_use]
    pub fn stfq(timing: &TimingParams) -> Self {
        Self::with_policy(VirtualTimePolicy::StartTime, timing)
    }

    fn with_policy(policy: VirtualTimePolicy, timing: &TimingParams) -> Self {
        NfqScheduler {
            policy,
            service_quantum: timing.row_closed_latency() as f64,
            capture_window: timing.t_ras,
            clocks: HashMap::new(),
            deadlines: HashMap::new(),
            weights: HashMap::new(),
            recent_banks: 0,
        }
    }

    /// True if `r` is a row hit whose bank is still inside the capture
    /// window (priority-inversion prevention).
    fn recent_hit(&self, r: &Request, view: &SchedView<'_>) -> bool {
        view.is_row_hit(r)
            && view.now.saturating_sub(view.channel.bank(r.addr.bank).last_activate_at())
                < self.capture_window
    }

    /// The share weight of a thread (1.0 unless overridden).
    #[must_use]
    pub fn thread_weight(&self, thread: ThreadId) -> f64 {
        self.weights.get(&thread).copied().unwrap_or(1.0)
    }

    fn weight(&self, thread: ThreadId) -> f64 {
        self.thread_weight(thread)
    }

    /// The virtual finish time assigned to a queued request (for tests).
    #[must_use]
    pub fn deadline_of(&self, id: RequestId) -> Option<f64> {
        self.deadlines.get(&id).copied()
    }

    /// Installs an arbitrary deadline, bypassing the virtual clocks — test
    /// hook for exercising the key encoding on values the clock arithmetic
    /// cannot produce (subnormals, exact ties, extremes).
    #[cfg(test)]
    fn set_deadline_for_tests(&mut self, id: RequestId, dl: f64) {
        self.deadlines.insert(id, dl);
    }
}

/// NFQ's key: capture-window row hit, then the inverted total-order
/// embedding of the virtual deadline (earlier deadlines pack larger), then
/// inverted request id. Request ids are bounded by the 63-bit age field
/// (asserted in `priority_key`).
pub(crate) const NFQ_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "recent_hit", semantic: FieldSemantic::RecentRowHit, lo: 127, width: 1 },
        KeyField { name: "deadline", semantic: FieldSemantic::Deadline, lo: 63, width: 64 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 63 },
    ],
};

impl MemoryScheduler for NfqScheduler {
    fn name(&self) -> &str {
        match self.policy {
            VirtualTimePolicy::FinishTime => "NFQ",
            VirtualTimePolicy::StartTime => "STFQ",
        }
    }

    fn set_thread_weight(&mut self, thread: ThreadId, weight: f64) {
        self.weights.insert(thread, weight.max(1e-6));
    }

    fn on_arrival(&mut self, req: &Request, now: u64) {
        // Virtual start = max(thread's bank clock, real arrival time); the
        // max() with real time is what lets idle threads re-enter with
        // competitive deadlines.
        let key = (req.thread, req.addr.bank);
        let clock = self.clocks.get(&key).copied().unwrap_or(0.0);
        let start = clock.max(now as f64);
        let finish = start + self.service_quantum / self.weight(req.thread);
        self.clocks.insert(key, finish);
        let tag = match self.policy {
            VirtualTimePolicy::FinishTime => finish,
            VirtualTimePolicy::StartTime => start,
        };
        self.deadlines.insert(req.id, tag);
    }

    fn on_complete(&mut self, req: &Request, _now: u64) {
        self.deadlines.remove(&req.id);
    }

    fn pre_schedule(&mut self, _queue: &mut [Request], view: &SchedView<'_>) -> bool {
        // Row-capture windows expire by the mere passage of time; the
        // controller cannot see that, so detect it here per the key-caching
        // contract. A window *opens* only with an activate, which already
        // re-keys the requests to its bank, so only windows that closed are
        // reported: reporting an opening would re-key the whole queue after
        // every activate. The full mask is kept, so a window is reported
        // once it closes.
        let mut mask = 0u64;
        for bank in 0..view.channel.bank_count() {
            let b = view.channel.bank(bank);
            if b.open_row().is_some()
                && view.now.saturating_sub(b.last_activate_at()) < self.capture_window
            {
                mask |= 1 << bank;
            }
        }
        std::mem::replace(&mut self.recent_banks, mask) & !mask != 0
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        // Capture-window row hits first, then the earliest virtual deadline,
        // then oldest-first. The deadline field inverts the sign-magnitude
        // total-order embedding, so smaller (earlier) deadlines pack larger
        // for *every* f64 — ties, subnormals, negatives and infinities all
        // order exactly as `total_cmp` in `compare` does.
        let dl = self.deadlines.get(&req.id).copied().unwrap_or(f64::MAX);
        debug_assert!(req.id.0 < 1 << 63, "request id fits 63 key bits");
        (u128::from(self.recent_hit(req, view)) << 127)
            | (u128::from(!f64_total_order_bits(dl)) << 63)
            | u128::from(((1u64 << 63) - 1) - req.id.0)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&NFQ_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // Earliest virtual deadline first: a starved thread's virtual clock
        // falls ever further behind, so its requests eventually outrank any
        // hammer stream — the least-attained-service mechanism with the
        // clock read as attained service.
        Some(LivenessContract {
            policy: LivenessPolicy::LeastAttained { saturation: 3 },
            claim: StarvationClaim::Bounded,
        })
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        // Priority-inversion prevention: row hits go first, but a row may
        // only be "captured" for capture_window cycles after its activate.
        let hit_a = self.recent_hit(a, view);
        let hit_b = self.recent_hit(b, view);
        let dl = |r: &Request| self.deadlines.get(&r.id).copied().unwrap_or(f64::MAX);
        hit_b.cmp(&hit_a).then_with(|| dl(a).total_cmp(&dl(b))).then_with(|| a.id.cmp(&b.id))
    }

    parbs_snap::snap_state!(clocks, deadlines, weights, recent_banks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{Channel, LineAddr, RequestKind};

    fn req(id: u64, thread: usize, bank: usize, row: u64, at: u64) -> Request {
        Request::new(
            id,
            ThreadId(thread),
            LineAddr { channel: 0, bank, row, col: 0 },
            RequestKind::Read,
            at,
        )
    }

    #[test]
    fn deadlines_accumulate_per_thread_bank() {
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        let r0 = req(0, 0, 0, 1, 0);
        let r1 = req(1, 0, 0, 2, 0);
        s.on_arrival(&r0, 0);
        s.on_arrival(&r1, 0);
        let d0 = s.deadline_of(r0.id).unwrap();
        let d1 = s.deadline_of(r1.id).unwrap();
        assert!(d1 > d0, "same (thread,bank): second request has later VFT");
        assert!((d1 - 2.0 * d0).abs() < 1e-9, "quantum accumulates linearly");
    }

    #[test]
    fn idle_thread_gets_competitive_deadline() {
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        // Thread 0 is intensive: many requests pile up its virtual clock.
        for i in 0..50 {
            s.on_arrival(&req(i, 0, 0, 1, 0), 0);
        }
        // Thread 1 wakes up late: its clock restarts from real time.
        let late = req(100, 1, 0, 7, 1_000);
        s.on_arrival(&late, 1_000);
        let d_busy_tail = s.deadline_of(RequestId(parbs_dram::RequestId(49).0)).unwrap();
        let d_late = s.deadline_of(late.id).unwrap();
        assert!(
            d_late < d_busy_tail,
            "bursty thread jumps ahead (idleness problem): {d_late} vs {d_busy_tail}"
        );
    }

    #[test]
    fn higher_weight_gets_earlier_deadlines() {
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        s.set_thread_weight(ThreadId(0), 1.0);
        s.set_thread_weight(ThreadId(1), 8.0);
        let a = req(0, 0, 0, 1, 0);
        let b = req(1, 1, 1, 1, 0);
        s.on_arrival(&a, 0);
        s.on_arrival(&b, 0);
        assert!(s.deadline_of(b.id).unwrap() < s.deadline_of(a.id).unwrap());
    }

    #[test]
    fn earliest_deadline_wins_without_hits() {
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let a = req(0, 0, 0, 1, 0);
        s.on_arrival(&a, 0);
        let b = req(1, 0, 0, 2, 0); // same thread+bank → later VFT
        s.on_arrival(&b, 0);
        let view = SchedView { channel: &ch, now: 0 };
        assert_eq!(s.compare(&a, &b, &view), Ordering::Less);
    }

    #[test]
    fn stfq_uses_start_tags() {
        let mut nfq = NfqScheduler::new(&TimingParams::ddr2_800());
        let mut stfq = NfqScheduler::stfq(&TimingParams::ddr2_800());
        assert_eq!(stfq.name(), "STFQ");
        let r = req(0, 0, 0, 1, 0);
        nfq.on_arrival(&r, 0);
        stfq.on_arrival(&r, 0);
        // First request: start tag 0, finish tag = one quantum.
        assert_eq!(stfq.deadline_of(r.id).unwrap(), 0.0);
        assert!(nfq.deadline_of(r.id).unwrap() > 0.0);
    }

    #[test]
    fn stfq_is_less_punishing_to_backlogged_threads() {
        // Thread 0 has a deep backlog; thread 1 arrives fresh. Under
        // finish-time tags, thread 0's next request carries k+1 quanta;
        // under start tags it carries k quanta — one quantum friendlier.
        let mut nfq = NfqScheduler::new(&TimingParams::ddr2_800());
        let mut stfq = NfqScheduler::stfq(&TimingParams::ddr2_800());
        for i in 0..10 {
            nfq.on_arrival(&req(i, 0, 0, 1, 0), 0);
            stfq.on_arrival(&req(i, 0, 0, 1, 0), 0);
        }
        let d_nfq = nfq.deadline_of(RequestId(9)).unwrap();
        let d_stfq = stfq.deadline_of(RequestId(9)).unwrap();
        assert!(d_stfq < d_nfq);
    }

    #[test]
    fn deadline_key_orders_like_total_cmp_on_hard_values() {
        // The satellite fix: the key's deadline field must order like
        // `total_cmp` even for ties, subnormals and huge deadlines (the old
        // raw-bits inversion was only correct for non-negative values and
        // is now replaced by the sign-magnitude total-order embedding).
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let view = SchedView { channel: &ch, now: 0 };
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        let deadlines: &[f64] = &[
            0.0,
            f64::from_bits(1), // smallest positive subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0, // tie with the previous — age must break it
            1.5e18,
            9.9e307,
            f64::MAX,
        ];
        let reqs: Vec<Request> = (0..deadlines.len()).map(|i| req(i as u64, 0, 0, 1, 0)).collect();
        for (r, &dl) in reqs.iter().zip(deadlines) {
            s.set_deadline_for_tests(r.id, dl);
        }
        for a in &reqs {
            for b in &reqs {
                let by_key = s.priority_key(b, &view).cmp(&s.priority_key(a, &view));
                assert_eq!(
                    by_key,
                    s.compare(a, b, &view),
                    "key vs comparator mismatch for deadlines {:?} vs {:?}",
                    s.deadline_of(a.id),
                    s.deadline_of(b.id)
                );
            }
        }
    }

    #[test]
    fn completion_clears_deadline() {
        let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
        let a = req(0, 0, 0, 1, 0);
        s.on_arrival(&a, 0);
        s.on_complete(&a, 100);
        assert!(s.deadline_of(a.id).is_none());
    }
}
