//! The pluggable memory-scheduler interface.
//!
//! A scheduler imposes a priority order on the queued read requests; the
//! controller issues the next required DRAM command of the highest-priority
//! request whose command is ready. This mirrors how "modern FR-FCFS based
//! controllers already implement prioritization policies — each DRAM request
//! is assigned a priority and the DRAM command belonging to the highest
//! priority request is scheduled among all ready commands" (Section 6), which
//! is exactly the hook PAR-BS, NFQ and STFM extend.

use std::cmp::Ordering;

use crate::{
    Channel, Command, FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy,
    Request, StarvationClaim, ThreadId,
};

/// Read-only view of the channel state handed to schedulers during
/// prioritization.
#[derive(Debug)]
pub struct SchedView<'a> {
    /// The channel whose requests are being scheduled.
    pub channel: &'a Channel,
    /// Current processor cycle.
    pub now: u64,
}

impl SchedView<'_> {
    /// True if `req` would currently be a row hit.
    #[must_use]
    pub fn is_row_hit(&self, req: &Request) -> bool {
        self.channel.bank(req.addr.bank).is_row_hit(req.addr.row)
    }

    /// The row currently open in `bank`, if any.
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        self.channel.bank(bank).open_row()
    }
}

/// A DRAM scheduling policy.
///
/// Implementations are driven by the [`crate::Controller`]:
///
/// 1. [`MemoryScheduler::on_arrival`] /
///    [`MemoryScheduler::on_complete`] track buffer contents;
/// 2. once per DRAM cycle, [`MemoryScheduler::pre_schedule`] may mutate
///    policy metadata stored on the requests (e.g. PAR-BS marking) and
///    recompute internal state (ranks, virtual times, slowdowns);
/// 3. [`MemoryScheduler::priority_key`] assigns each request a packed
///    priority; the controller caches the keys and services the
///    highest-keyed ready request. [`MemoryScheduler::compare`] is the
///    equivalent pairwise order, retained as the reference/verification
///    path.
///
/// # Key-caching contract
///
/// The controller recomputes cached keys only on events: a request arrival,
/// a bank-state-changing command (activate, precharge, refresh), external
/// scheduler mutation, and whenever `pre_schedule` returns `true`. A policy
/// whose priorities can change for any *other* reason — the passage of time
/// (e.g. a row-capture window expiring) or state mutated in
/// [`MemoryScheduler::on_command`] / [`MemoryScheduler::on_complete`] that
/// feeds `priority_key` — MUST detect that change in its next
/// `pre_schedule` call and return `true` there, or the controller will keep
/// scheduling on stale keys.
///
/// The controller never reorders writes through this trait; reads are
/// prioritized over writes and writes drain in FR-FCFS order (Section 7.2).
pub trait MemoryScheduler {
    /// Short display name ("FR-FCFS", "PAR-BS", ...).
    fn name(&self) -> &str;

    /// A new read request entered the request buffer.
    fn on_arrival(&mut self, req: &Request, now: u64) {
        let _ = (req, now);
    }

    /// A read request left the buffer (its column command issued).
    fn on_complete(&mut self, req: &Request, now: u64) {
        let _ = (req, now);
    }

    /// Called once per scheduling slot before prioritization. `queue` is the
    /// read request buffer; schedulers may mutate per-request policy state
    /// (such as the `marked` bit) but must not add or remove requests.
    ///
    /// Returns `true` if request priorities may have changed since the last
    /// call for any reason the controller cannot observe itself (per-request
    /// metadata mutated here, internal rank/mode recomputation, a
    /// time-dependent priority window expiring). Returning `true`
    /// conservatively is always correct; returning `false` after a change is
    /// a staleness bug. The default does nothing and reports no change.
    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let _ = (queue, view);
        false
    }

    /// The packed scheduling priority of one queued read request: the
    /// controller services the request with the **largest** key whose DRAM
    /// command is ready.
    ///
    /// Must order exactly like [`MemoryScheduler::compare`]
    /// (`key(a) > key(b)` ⇔ `compare(a, b) == Ordering::Less`) and must be
    /// injective over distinct queued requests (embed the request id, or a
    /// strictly-id-derived field, in the low bits) so the order is total.
    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128;

    /// Priority order between two queued read requests: `Ordering::Less`
    /// means `a` is scheduled **before** `b` (i.e. `a` has higher priority),
    /// matching the contract of `slice::sort_by`. Must be a total order for
    /// the current scheduler state and must agree with
    /// [`MemoryScheduler::priority_key`].
    ///
    /// The controller only calls this on its comparator reference path
    /// (see `Controller::set_comparator_path`), which exists to validate
    /// keyed selection; the hot path uses cached keys.
    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        self.priority_key(b, view).cmp(&self.priority_key(a, view))
    }

    /// The declared bit layout of [`MemoryScheduler::priority_key`], for
    /// static analysis: `parbs-sim check-keys` validates the structural
    /// invariants ([`KeyLayout::validate`]) and cross-checks the packed key
    /// against the declaration over enumerated scheduler states. Returning
    /// `None` (the default) opts the policy out of key analysis; every
    /// shipped scheduler declares its layout.
    fn key_layout(&self) -> Option<&'static KeyLayout> {
        None
    }

    /// The declared liveness contract of this policy, for static analysis:
    /// `parbs-sim check-liveness` model-checks the declared
    /// [`StarvationClaim`] under the declared [`LivenessPolicy`] class on a
    /// tiny geometry, proving a concrete starvation bound or exhibiting a
    /// minimal starvation lasso. Returning `None` (the default) opts the
    /// policy out of liveness analysis; every shipped scheduler declares a
    /// contract. Unlike [`MemoryScheduler::key_layout`] the value is built
    /// per call — policy parameters (the Marking-Cap, the blacklist
    /// threshold) live in runtime configuration, not statics.
    fn liveness_contract(&self) -> Option<LivenessContract> {
        None
    }

    /// Feedback from the cores: `stall_cycles[t]` processor cycles of
    /// memory-related stall accrued by thread `t` since the previous call.
    /// Used by stall-time-based policies (STFM); default is to ignore it.
    fn on_stall_cycles(&mut self, stall_cycles: &[u64], now: u64) {
        let _ = (stall_cycles, now);
    }

    /// A DRAM command was issued for `req`. Policies that track interference
    /// (STFM) or bank ownership (NFQ) observe the command stream here.
    fn on_command(&mut self, cmd: &Command, req: &Request, now: u64) {
        let _ = (cmd, req, now);
    }

    /// Per-thread share/weight configuration (NFQ shares, STFM weights,
    /// PAR-BS priority levels are set per-request instead). Default: ignore.
    fn set_thread_weight(&mut self, thread: ThreadId, weight: f64) {
        let _ = (thread, weight);
    }

    /// One-line, human-readable internal state summary for diagnostics
    /// (e.g. PAR-BS batch statistics). Default: empty.
    fn debug_summary(&self) -> String {
        String::new()
    }

    /// Enables or disables observability-event buffering. The controller
    /// calls this when an event sink is attached to or removed from it;
    /// while enabled, policies with observable internal transitions (batch
    /// formation, marking, ranking) buffer [`parbs_obs::Event`]s for the
    /// controller to collect via [`MemoryScheduler::drain_events`]. The
    /// default (for policies with nothing to report) ignores it.
    fn set_observing(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves any buffered observability events into `out`, preserving
    /// emission order. Called by the controller once per scheduling slot
    /// (after [`MemoryScheduler::pre_schedule`]) while a sink is attached.
    /// The default has nothing to drain.
    fn drain_events(&mut self, out: &mut Vec<parbs_obs::Event>) {
        let _ = out;
    }

    /// Serializes the policy's mutable state for checkpointing. Stateless
    /// policies (FR-FCFS, FCFS) write nothing — the default. Stateful
    /// policies must write every field that influences future decisions
    /// (virtual clocks, ranks, blacklists, RNG state) in a canonical order.
    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        let _ = w;
    }

    /// Restores state captured by [`MemoryScheduler::save_state`] into a
    /// freshly configured policy of the same kind. The default (for
    /// stateless policies) reads nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`parbs_snap::SnapError`] when the snapshot is truncated or
    /// inconsistent with this policy's configuration.
    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// The FCFS baseline: requests are serviced strictly in arrival order,
/// ignoring row-buffer state. Simple, starvation-free at the request level,
/// but exploits no locality and no parallelism (Section 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsScheduler(());

impl FcfsScheduler {
    /// Creates an FCFS scheduler.
    #[must_use]
    pub fn new() -> Self {
        FcfsScheduler(())
    }
}

/// FCFS packs one field: the inverted request id (oldest first).
pub(crate) const FCFS_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 }],
};

impl MemoryScheduler for FcfsScheduler {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, _view: &SchedView<'_>) -> Ordering {
        a.id.cmp(&b.id)
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&FCFS_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // Strict arrival order: the oldest request is always next, so the
        // bound is simply the number of older queued requests.
        Some(LivenessContract { policy: LivenessPolicy::Fifo, claim: StarvationClaim::Bounded })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineAddr, RequestKind, TimingParams};

    #[test]
    fn fcfs_orders_by_id_only() {
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let view = SchedView { channel: &ch, now: 0 };
        let old = Request::new(1, ThreadId(0), LineAddr::default(), RequestKind::Read, 0);
        let young = Request::new(2, ThreadId(1), LineAddr::default(), RequestKind::Read, 5);
        let s = FcfsScheduler::new();
        assert_eq!(s.compare(&old, &young, &view), Ordering::Less);
        assert_eq!(s.compare(&young, &old, &view), Ordering::Greater);
    }
}
