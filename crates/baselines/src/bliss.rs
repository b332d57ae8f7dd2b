//! BLISS: the Blacklisting memory scheduler of Subramanian et al.
//! (ICCD 2014 / TPDS 2016) — most of the fairness of application-aware
//! ranking schemes at a fraction of the hardware cost.
//!
//! The observation: interference-causing threads are exactly the ones that
//! get *streaks* of consecutive service (high row locality and high
//! intensity keep winning FR-FCFS arbitration). BLISS therefore tracks only
//! the last-serviced thread and a streak counter; a thread whose streak
//! reaches the blacklisting threshold is demoted below every non-blacklisted
//! thread until the periodic clearing interval wipes the blacklist. No
//! per-thread ranking, no slowdown estimation.

use std::cmp::Ordering;
use std::collections::HashSet;

use parbs_dram::{
    Command, FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy, MemoryScheduler,
    Request, SchedView, StarvationClaim, ThreadId,
};
use parbs_obs::Event;

/// BLISS's key: non-blacklisted threads first, then row hits, then the
/// inverted request id.
pub(crate) const BLISS_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField {
            name: "not_blacklisted",
            semantic: FieldSemantic::NotBlacklisted,
            lo: 65,
            width: 1,
        },
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

/// Blacklisting threshold: a thread is blacklisted once this many of its
/// requests are serviced consecutively (the paper's N = 4).
const BLACKLIST_THRESHOLD: u32 = 4;

/// Clearing interval in cycles: the whole blacklist is emptied every
/// interval, giving blacklisted threads a fresh start (the paper's 10,000
/// cycles).
const CLEAR_INTERVAL: u64 = 10_000;

/// The Blacklisting scheduler.
///
/// [`MemoryScheduler::on_command`] counts consecutive column commands per
/// thread and blacklists streak offenders; because the controller's key
/// cache is *not* invalidated by column commands, every blacklist mutation
/// sets a dirty flag that the next [`MemoryScheduler::pre_schedule`] reports
/// (the key-caching contract). The periodic clear is time-based and is
/// likewise detected — and reported — in `pre_schedule`.
#[derive(Debug, Clone)]
pub struct BlissScheduler {
    /// The blacklisted threads. The periodic clear drops every entry at
    /// once, so the set never outlives one clearing interval's offenders —
    /// O(active blacklisted threads), independent of the id space.
    blacklisted: HashSet<ThreadId>,
    /// Thread whose request was serviced by the most recent column command.
    last_serviced: Option<ThreadId>,
    /// Length of the current consecutive-service streak.
    streak: u32,
    /// Cycle the blacklist was last cleared at.
    last_clear: u64,
    /// Set when `on_command` changed blacklist membership since the last
    /// `pre_schedule` — the keys are stale and must be recomputed.
    dirty: bool,
    observing: bool,
    obs_events: Vec<Event>,
}

impl BlissScheduler {
    /// Creates a BLISS scheduler with the paper's parameters
    /// (threshold 4, clearing interval 10 000 cycles).
    #[must_use]
    pub fn new() -> Self {
        BlissScheduler {
            blacklisted: HashSet::new(),
            last_serviced: None,
            streak: 0,
            last_clear: 0,
            dirty: false,
            observing: false,
            obs_events: Vec::new(),
        }
    }

    /// Whether a thread is currently blacklisted (for tests/telemetry).
    #[must_use]
    pub fn is_blacklisted(&self, t: ThreadId) -> bool {
        self.blacklisted.contains(&t)
    }

    /// Number of currently blacklisted threads.
    #[must_use]
    pub fn blacklist_len(&self) -> usize {
        self.blacklisted.len()
    }
}

impl Default for BlissScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryScheduler for BlissScheduler {
    fn name(&self) -> &str {
        "BLISS"
    }

    fn pre_schedule(&mut self, _queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let mut changed = std::mem::take(&mut self.dirty);
        if view.now.saturating_sub(self.last_clear) >= CLEAR_INTERVAL {
            self.last_clear = view.now;
            let cleared = u32::try_from(self.blacklist_len()).expect("thread count fits in u32");
            if cleared > 0 {
                self.blacklisted.clear();
                changed = true;
                if self.observing {
                    self.obs_events.push(Event::BlacklistCleared { at: view.now, cleared });
                }
            }
        }
        changed
    }

    fn on_command(&mut self, cmd: &Command, req: &Request, now: u64) {
        // Only column commands represent actual service (data movement);
        // activates/precharges are preparation and don't extend a streak.
        if !cmd.kind.is_column() {
            return;
        }
        if self.last_serviced == Some(req.thread) {
            self.streak += 1;
        } else {
            self.last_serviced = Some(req.thread);
            self.streak = 1;
        }
        if self.streak >= BLACKLIST_THRESHOLD && self.blacklisted.insert(req.thread) {
            // Column commands don't invalidate the controller's key
            // cache; flag the change for the next pre_schedule.
            self.dirty = true;
            if self.observing {
                self.obs_events.push(Event::BlacklistSet {
                    at: now,
                    thread: req.thread.0,
                    consecutive: self.streak,
                });
            }
        }
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        (u128::from(!self.is_blacklisted(req.thread)) << 65)
            | (u128::from(view.is_row_hit(req)) << 64)
            | u128::from(u64::MAX - req.id.0)
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        let ok_a = !self.is_blacklisted(a.thread);
        let ok_b = !self.is_blacklisted(b.thread);
        let hit_a = view.is_row_hit(a);
        let hit_b = view.is_row_hit(b);
        ok_b.cmp(&ok_a).then(hit_b.cmp(&hit_a)).then(a.id.cmp(&b.id))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&BLISS_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // A lone hammering thread is blacklisted after
        // `BLACKLIST_THRESHOLD` consecutive services, but the streak counts
        // only the last-serviced thread: two threads that take turns
        // hammering an open row reset each other's streak, are never
        // blacklisted, and starve an older row conflict forever. BLISS as
        // published behaves this way. (The periodic clearing interval is
        // not modeled; see [`LivenessPolicy::Blacklist`].)
        Some(LivenessContract {
            policy: LivenessPolicy::Blacklist { threshold: BLACKLIST_THRESHOLD },
            claim: StarvationClaim::Unbounded,
        })
    }

    parbs_snap::snap_state!(blacklisted, last_serviced, streak, last_clear, dirty);

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

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{Channel, CommandKind, LineAddr, RequestId, RequestKind, TimingParams};

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

    fn view(ch: &Channel) -> SchedView<'_> {
        SchedView { channel: ch, now: 0 }
    }

    #[test]
    fn streak_of_threshold_column_commands_blacklists_the_thread() {
        let mut s = BlissScheduler::new();
        let r = req(0, 1, 0, 5);
        for _ in 0..3 {
            s.on_command(&col_cmd(&r), &r, 10);
            assert!(!s.is_blacklisted(ThreadId(1)));
        }
        s.on_command(&col_cmd(&r), &r, 10);
        assert!(s.is_blacklisted(ThreadId(1)), "4th consecutive service blacklists");
    }

    #[test]
    fn an_interleaved_thread_resets_the_streak() {
        let mut s = BlissScheduler::new();
        let a = req(0, 0, 0, 5);
        let b = req(1, 1, 1, 5);
        for _ in 0..3 {
            s.on_command(&col_cmd(&a), &a, 0);
        }
        s.on_command(&col_cmd(&b), &b, 0);
        s.on_command(&col_cmd(&a), &a, 0);
        assert!(!s.is_blacklisted(ThreadId(0)), "streak was broken by thread 1");
        assert!(!s.is_blacklisted(ThreadId(1)));
    }

    #[test]
    fn activates_do_not_count_as_service() {
        let mut s = BlissScheduler::new();
        let r = req(0, 0, 0, 5);
        let act = Command {
            kind: CommandKind::Activate,
            rank: 0,
            bank: 0,
            row: 5,
            col: 0,
            request: RequestId(0),
        };
        for _ in 0..10 {
            s.on_command(&act, &r, 0);
        }
        assert!(!s.is_blacklisted(ThreadId(0)));
    }

    #[test]
    fn blacklist_mutation_is_reported_by_the_next_pre_schedule() {
        let mut s = BlissScheduler::new();
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let mut q = vec![req(0, 0, 0, 1)];
        assert!(!s.pre_schedule(&mut q, &view(&ch)), "nothing changed yet");
        let r = req(0, 0, 0, 5);
        for _ in 0..4 {
            s.on_command(&col_cmd(&r), &r, 0);
        }
        assert!(s.pre_schedule(&mut q, &view(&ch)), "blacklisting dirtied the keys");
        assert!(!s.pre_schedule(&mut q, &view(&ch)), "reported exactly once");
    }

    #[test]
    fn clearing_interval_empties_the_blacklist_and_reports_a_change() {
        let mut s = BlissScheduler::new();
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let r = req(0, 0, 0, 5);
        for _ in 0..4 {
            s.on_command(&col_cmd(&r), &r, 0);
        }
        let mut q = vec![req(1, 1, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch));
        assert!(s.is_blacklisted(ThreadId(0)));
        let late = SchedView { channel: &ch, now: 10_000 };
        assert!(s.pre_schedule(&mut q, &late), "the clear changes priorities");
        assert!(!s.is_blacklisted(ThreadId(0)));
    }

    #[test]
    fn blacklisted_thread_loses_to_younger_non_blacklisted_requests() {
        let mut s = BlissScheduler::new();
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let old = req(0, 0, 0, 5);
        let young = req(7, 1, 1, 5);
        assert_eq!(s.compare(&old, &young, &view(&ch)), Ordering::Less, "older wins normally");
        for _ in 0..4 {
            s.on_command(&col_cmd(&old), &old, 0);
        }
        assert_eq!(
            s.compare(&old, &young, &view(&ch)),
            Ordering::Greater,
            "blacklisted thread is demoted"
        );
        let v = view(&ch);
        assert!(s.priority_key(&young, &v) > s.priority_key(&old, &v), "key order matches compare");
    }

    #[test]
    fn events_are_emitted_only_while_observing() {
        let mut s = BlissScheduler::new();
        let ch = Channel::new(4, TimingParams::ddr2_800());
        let r = req(0, 0, 0, 5);
        for _ in 0..4 {
            s.on_command(&col_cmd(&r), &r, 0);
        }
        let mut out = Vec::new();
        s.drain_events(&mut out);
        assert!(out.is_empty(), "not observing: no events buffered");

        s.set_observing(true);
        let r2 = req(1, 1, 1, 5);
        for _ in 0..4 {
            s.on_command(&col_cmd(&r2), &r2, 42);
        }
        let mut q = vec![req(2, 0, 0, 1)];
        let late = SchedView { channel: &ch, now: 10_000 };
        s.pre_schedule(&mut q, &late);
        s.drain_events(&mut out);
        assert!(
            out.iter()
                .any(|e| matches!(e, Event::BlacklistSet { at: 42, thread: 1, consecutive: 4 })),
            "{out:?}"
        );
        assert!(
            out.iter().any(|e| matches!(e, Event::BlacklistCleared { cleared: 2, .. })),
            "{out:?}"
        );
    }
}
