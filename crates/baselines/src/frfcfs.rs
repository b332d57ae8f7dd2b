//! FR-FCFS: the throughput-oriented industry-standard baseline.

use std::cmp::Ordering;

use parbs_dram::{
    FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy, MemoryScheduler, Request,
    SchedView, StarvationClaim,
};

/// First-Ready First-Come-First-Serve (Rixner et al., ISCA 2000; Zuravleff
/// & Robinson, US patent 5,630,096): among ready commands, prioritize (1) row-hit requests
/// over others and (2) older requests over younger ones.
///
/// For single-threaded systems FR-FCFS maximizes DRAM throughput; with
/// multiple threads it unfairly favors high-row-locality and
/// memory-intensive threads and can starve others for long periods
/// (Section 3 of the PAR-BS paper).
///
/// # Examples
///
/// ```
/// use parbs_baselines::FrFcfsScheduler;
/// use parbs_dram::{Controller, DramConfig};
///
/// let ctrl = Controller::new(DramConfig::default(), Box::new(FrFcfsScheduler::new()));
/// assert_eq!(ctrl.scheduler_name(), "FR-FCFS");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfsScheduler(());

impl FrFcfsScheduler {
    /// Creates an FR-FCFS scheduler.
    #[must_use]
    pub fn new() -> Self {
        FrFcfsScheduler(())
    }
}

/// FR-FCFS packs row-hit first (the "first-ready" criterion), then the
/// inverted request id (oldest first).
pub(crate) const FRFCFS_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

impl MemoryScheduler for FrFcfsScheduler {
    fn name(&self) -> &str {
        "FR-FCFS"
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        // Row hit in the high bit, then oldest-first via the inverted id.
        (u128::from(view.is_row_hit(req)) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        let hit_a = view.is_row_hit(a);
        let hit_b = view.is_row_hit(b);
        hit_b.cmp(&hit_a).then(a.id.cmp(&b.id))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&FRFCFS_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // The textbook starvation case (Section 3): a stream of row hits
        // outranks an older row-conflict request indefinitely, so FR-FCFS
        // honestly claims unbounded starvation and the model checker must
        // find the hammering lasso.
        Some(LivenessContract { policy: LivenessPolicy::FrFcfs, claim: StarvationClaim::Unbounded })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{
        Channel, Command, CommandKind, LineAddr, RequestId, RequestKind, ThreadId, TimingParams,
    };

    fn req(id: u64, bank: usize, row: u64) -> Request {
        Request::new(
            id,
            ThreadId(0),
            LineAddr { channel: 0, bank, row, col: 0 },
            RequestKind::Read,
            0,
        )
    }

    #[test]
    fn row_hits_beat_older_conflicts() {
        let mut ch = Channel::new(8, TimingParams::ddr2_800());
        ch.issue(
            &Command {
                kind: CommandKind::Activate,
                rank: 0,
                bank: 0,
                row: 5,
                col: 0,
                request: RequestId(9),
            },
            ThreadId(0),
            0,
        );
        let view = SchedView { channel: &ch, now: 100 };
        let s = FrFcfsScheduler::new();
        let old_conflict = req(1, 0, 6);
        let young_hit = req(2, 0, 5);
        assert_eq!(s.compare(&young_hit, &old_conflict, &view), Ordering::Less);
    }

    #[test]
    fn age_breaks_ties_between_equal_hit_status() {
        let ch = Channel::new(8, TimingParams::ddr2_800());
        let view = SchedView { channel: &ch, now: 0 };
        let s = FrFcfsScheduler::new();
        let a = req(1, 0, 5);
        let b = req(2, 1, 5);
        assert_eq!(s.compare(&a, &b, &view), Ordering::Less);
        assert_eq!(s.compare(&b, &a, &view), Ordering::Greater);
    }
}
