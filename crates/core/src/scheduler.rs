//! The PAR-BS memory scheduler.

use std::cmp::Ordering;

use parbs_dram::{
    FieldSemantic, KeyField, KeyLayout, LivenessContract, LivenessPolicy, MemoryScheduler, Request,
    SchedView, StarvationClaim, ThreadId, ThreadTable,
};
use parbs_obs::{Event, RankEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    compute_ranks, BatchingMode, ParBsConfig, PriorityValue, Ranking, ThreadLoad, ThreadPriority,
};

/// Telemetry counters of one PAR-BS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ParBsStats {
    /// Batches formed so far.
    pub batches_formed: u64,
    /// Requests marked over all batches.
    pub requests_marked: u64,
    /// Sum of batch durations (formation → drain), for averaging.
    pub total_batch_cycles: u64,
    /// Completed batches (those whose drain has been observed).
    pub batches_completed: u64,
}

impl ParBsStats {
    /// Mean requests per batch.
    #[must_use]
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches_formed == 0 {
            0.0
        } else {
            self.requests_marked as f64 / self.batches_formed as f64
        }
    }

    /// Mean cycles from batch formation to batch drain.
    #[must_use]
    pub fn avg_batch_cycles(&self) -> f64 {
        if self.batches_completed == 0 {
            0.0
        } else {
            self.total_batch_cycles as f64 / self.batches_completed as f64
        }
    }
}

/// Parallelism-Aware Batch Scheduler (Rules 1-3 of the paper plus the
/// Section 4.4 design alternatives and the Section 5 priority extensions).
///
/// Plug it into a [`parbs_dram::Controller`]; it maintains batches by
/// mutating the `marked` bit of queued requests in
/// [`MemoryScheduler::pre_schedule`] and orders requests with the packed
/// [`PriorityValue`] of Figure 4.
#[derive(Debug)]
pub struct ParBsScheduler {
    cfg: ParBsConfig,
    /// Rank of each thread in the current batch; unregistered = not in the
    /// current batch (lowest, `u32::MAX`).
    ranks: ThreadTable<u32>,
    /// System-software priority per thread (unregistered = level 1).
    priorities: ThreadTable<ThreadPriority>,
    /// Marking budget already granted this batch, per bank. Cleared (entries
    /// retired) at each batch boundary, so only the threads of the current
    /// batch hold state.
    granted: ThreadTable<Vec<u32>>,
    /// Scratch for [`ParBsScheduler::mark`]: `(id, queue index)` of unmarked
    /// eligible requests. Reused so the per-slot eslot/static re-mark checks
    /// allocate nothing.
    mark_scratch: Vec<(u64, usize)>,
    /// Scratch for [`ParBsScheduler::loads`]: `(thread, bank)` of marked
    /// requests.
    load_pairs: Vec<(usize, usize)>,
    /// The batch index marking eligibility was last refreshed for
    /// (priority-based marking: a level-X thread joins every Xth batch).
    eligible_batch_no: u64,
    batch_formed_at: u64,
    batch_open: bool,
    /// Cap currently in force (tracks `cfg.marking_cap` unless adaptive).
    current_cap: Option<u32>,
    last_static_marking: Option<u64>,
    rng: StdRng,
    stats: ParBsStats,
    /// Whether an event sink is attached downstream (controller-driven via
    /// [`MemoryScheduler::set_observing`]). When false, no events are built.
    observing: bool,
    /// Banks per rank of the channel being scheduled, learned from the
    /// [`SchedView`] each `pre_schedule` so emitted `Marked` events can
    /// carry the rank coordinate.
    banks_per_rank: usize,
    /// Buffered scheduler events; the controller drains these once per
    /// decision slot with [`MemoryScheduler::drain_events`].
    obs_events: Vec<Event>,
}

impl ParBsScheduler {
    /// Creates a PAR-BS scheduler.
    #[must_use]
    pub fn new(cfg: ParBsConfig) -> Self {
        ParBsScheduler {
            cfg,
            ranks: ThreadTable::new(),
            priorities: ThreadTable::new(),
            granted: ThreadTable::new(),
            mark_scratch: Vec::new(),
            load_pairs: Vec::new(),
            eligible_batch_no: 0,
            batch_formed_at: 0,
            batch_open: false,
            current_cap: cfg
                .adaptive_cap
                .map(|a| cfg.marking_cap.unwrap_or(a.max).clamp(a.min, a.max))
                .or(cfg.marking_cap),
            last_static_marking: None,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: ParBsStats::default(),
            observing: false,
            banks_per_rank: 1,
            obs_events: Vec::new(),
        }
    }

    /// Sets a thread's system-software priority (Section 5). Level 1 is the
    /// default; [`ThreadPriority::Opportunistic`] requests are never marked
    /// and yield to everything else.
    pub fn set_thread_priority(&mut self, thread: ThreadId, priority: ThreadPriority) {
        self.priorities.insert(thread, priority);
    }

    /// Telemetry counters.
    #[must_use]
    pub fn stats(&self) -> &ParBsStats {
        &self.stats
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ParBsConfig {
        &self.cfg
    }

    /// Current rank of a thread (0 = highest; `u32::MAX` = unranked).
    #[must_use]
    pub fn rank_of(&self, thread: ThreadId) -> u32 {
        self.ranks.get(thread).copied().unwrap_or(u32::MAX)
    }

    fn priority_of(&self, thread: usize) -> ThreadPriority {
        self.priorities.get(ThreadId(thread)).copied().unwrap_or_default()
    }

    /// Marking eligibility of `thread` for the batch the cadence was last
    /// refreshed for: a level-X thread joins every Xth batch, opportunistic
    /// threads never join (Section 5).
    fn is_eligible(&self, thread: usize) -> bool {
        match self.priority_of(thread).period() {
            Some(period) => self.eligible_batch_no.is_multiple_of(period),
            None => false,
        }
    }

    /// The marking budget already spent by `(thread, bank)` this batch,
    /// registering the thread on demand.
    fn granted_slot(&mut self, thread: usize, bank: usize) -> &mut u32 {
        let row = self.granted.get_or_default(ThreadId(thread));
        if row.len() <= bank {
            row.resize(bank + 1, 0);
        }
        &mut row[bank]
    }

    /// Marks up to `Marking-Cap` oldest unmarked requests per (thread, bank)
    /// for threads in `eligible`, honoring budget already granted this
    /// batch. Returns the number of requests marked.
    ///
    /// Runs in O(k log k) over the k unmarked requests using reusable
    /// scratch — this is called once per scheduling slot in the eslot and
    /// static batching modes, where k is almost always 0.
    fn mark(&mut self, queue: &mut [Request], now: u64) -> u64 {
        let cap = self.current_cap.unwrap_or(u32::MAX);
        let mut scratch = std::mem::take(&mut self.mark_scratch);
        scratch.clear();
        scratch.extend(queue.iter().enumerate().filter_map(|(i, r)| {
            (!r.marked && self.is_eligible(r.thread.0)).then_some((r.id.0, i))
        }));
        if scratch.is_empty() {
            self.mark_scratch = scratch;
            return 0;
        }
        // Walking candidates oldest-first and charging each against its
        // (thread, bank) budget marks exactly the per-group oldest-within-cap
        // set, since budgets of distinct groups are independent.
        scratch.sort_unstable();
        let mut marked = 0;
        for &(_, i) in &scratch {
            let r = &mut queue[i];
            let used = self.granted_slot(r.thread.0, r.addr.bank);
            if *used < cap {
                *used += 1;
                r.marked = true;
                marked += 1;
                if self.observing {
                    self.obs_events.push(Event::Marked {
                        at: now,
                        request: r.id.0,
                        thread: r.thread.0,
                        rank: r.addr.bank / self.banks_per_rank.max(1),
                        bank: r.addr.bank,
                    });
                }
            }
        }
        scratch.clear();
        self.mark_scratch = scratch;
        self.stats.requests_marked += marked;
        marked
    }

    /// Computes Rule 3 thread loads over the currently marked requests,
    /// sorted by thread id. Sort-and-scan over reusable scratch; no maps.
    fn loads(&mut self, queue: &[Request]) -> Vec<ThreadLoad> {
        let mut pairs = std::mem::take(&mut self.load_pairs);
        pairs.clear();
        pairs.extend(queue.iter().filter(|r| r.marked).map(|r| (r.thread.0, r.addr.bank)));
        pairs.sort_unstable();
        let mut loads: Vec<ThreadLoad> = Vec::new();
        let mut run = 0u32; // length of the current (thread, bank) run
        for i in 0..pairs.len() {
            run += 1;
            let last_of_bank = pairs.get(i + 1) != Some(&pairs[i]);
            if last_of_bank {
                let thread = pairs[i].0;
                if loads.last().map(|l| l.thread) != Some(thread) {
                    loads.push(ThreadLoad { thread, max_bank_load: 0, total_load: 0 });
                }
                let e = loads.last_mut().expect("pushed above");
                e.max_bank_load = e.max_bank_load.max(run);
                e.total_load += run;
                run = 0;
            }
        }
        pairs.clear();
        self.load_pairs = pairs;
        loads
    }

    fn recompute_ranks(&mut self, queue: &[Request], now: u64) {
        let loads = self.loads(queue);
        let ranked =
            compute_ranks(self.cfg.ranking, &loads, self.stats.batches_formed, &mut self.rng);
        self.ranks.clear();
        for &(thread, rank) in &ranked {
            self.ranks.insert(ThreadId(thread), rank);
        }
        if self.observing && !ranked.is_empty() {
            // `loads` is sorted by thread id; join each ranked thread with
            // its Rule 3 load figures and report in rank order.
            let mut entries: Vec<RankEntry> = ranked
                .iter()
                .map(|&(thread, rank)| {
                    let l = loads.iter().find(|l| l.thread == thread);
                    RankEntry {
                        thread,
                        rank,
                        max_bank_load: l.map_or(0, |l| l.max_bank_load),
                        total_load: l.map_or(0, |l| l.total_load),
                    }
                })
                .collect();
            entries.sort_by_key(|e| e.rank);
            self.obs_events.push(Event::RankComputed {
                at: now,
                batch: self.stats.batches_formed,
                max_total: self.cfg.ranking == Ranking::MaxTotal,
                entries,
            });
        }
    }

    fn form_batch(&mut self, queue: &mut [Request], now: u64) {
        if self.batch_open {
            let duration = now.saturating_sub(self.batch_formed_at);
            self.stats.total_batch_cycles += duration;
            self.stats.batches_completed += 1;
            if self.observing {
                self.obs_events.push(Event::BatchDrained {
                    at: now,
                    id: self.stats.batches_formed,
                    formed_at: self.batch_formed_at,
                });
            }
            self.adapt_cap(duration);
        }
        // Retire the previous batch's budget entries: only this batch's
        // threads will re-register, so the table stays O(active threads).
        self.granted.clear();
        self.eligible_batch_no = self.stats.batches_formed;
        let pre_mark_idx = self.obs_events.len();
        let marked = self.mark(queue, now);
        // Only batches that actually open count: a formation attempt that
        // marks nothing (e.g. a queue of only opportunistic requests) must
        // not advance the priority-cadence / ranking batch index or skew
        // avg_batch_size.
        if marked > 0 {
            self.stats.batches_formed += 1;
            if self.observing {
                // Summarize the Marked events just pushed and slot the
                // BatchFormed announcement in front of them, so downstream
                // sinks see the batch before its members. Sort-and-run-length
                // aggregation: O(k log k) in the k marked requests, however
                // sparse the thread ids.
                let mut marked_threads: Vec<usize> = self.obs_events[pre_mark_idx..]
                    .iter()
                    .filter_map(|e| match e {
                        Event::Marked { thread, .. } => Some(*thread),
                        _ => None,
                    })
                    .collect();
                marked_threads.sort_unstable();
                let mut per_thread: Vec<(usize, u32)> = Vec::new();
                for thread in marked_threads {
                    match per_thread.last_mut() {
                        Some((t, n)) if *t == thread => *n += 1,
                        _ => per_thread.push((thread, 1)),
                    }
                }
                self.obs_events.insert(
                    pre_mark_idx,
                    Event::BatchFormed {
                        at: now,
                        id: self.stats.batches_formed,
                        marked: marked as u32,
                        cap: self.current_cap,
                        // Static batching renews marks on a timer while older
                        // marked requests are still in flight, so batches are
                        // not exclusive there (Section 4.4).
                        exclusive: !matches!(self.cfg.batching, BatchingMode::Static { .. }),
                        per_thread,
                    },
                );
            }
        }
        self.recompute_ranks(queue, now);
        self.batch_formed_at = now;
        self.batch_open = marked > 0;
    }

    /// Adjusts the Marking-Cap toward the target batch duration (§8.3.1's
    /// adaptive-cap extension): shrink after an over-long batch, grow after
    /// a comfortably short one.
    fn adapt_cap(&mut self, last_batch_cycles: u64) {
        let Some(a) = self.cfg.adaptive_cap else { return };
        let cap = self.current_cap.unwrap_or(a.max).clamp(a.min, a.max);
        let next = if last_batch_cycles > a.target_batch_cycles {
            cap.saturating_sub(1).max(a.min)
        } else if last_batch_cycles < a.target_batch_cycles / 2 {
            (cap + 1).min(a.max)
        } else {
            cap
        };
        self.current_cap = Some(next);
    }

    /// The Marking-Cap currently in force (`None` = uncapped).
    #[must_use]
    pub fn current_cap(&self) -> Option<u32> {
        self.current_cap
    }

    fn priority_value(&self, r: &Request, view: &SchedView<'_>) -> PriorityValue {
        let level_key = self.priority_of(r.thread.0).sort_key();
        let row_hit = self.cfg.row_hit_first && view.is_row_hit(r);
        let rank = if self.cfg.ranking == Ranking::None { 0 } else { self.rank_of(r.thread) };
        PriorityValue::pack(r.marked, level_key, row_hit, rank, r.id.0)
    }
}

/// PAR-BS packs Rule 3.2's order exactly (Figure 4): marked bit, inverted
/// thread priority level, row-hit bit, inverted within-batch rank, inverted
/// request id. Mirrors [`PriorityValue::pack`]; `parbs_sim::analyze` cross-checks
/// the two.
pub(crate) const PARBS_KEY_LAYOUT: KeyLayout = KeyLayout {
    fields: &[
        KeyField { name: "marked", semantic: FieldSemantic::Marked, lo: 113, width: 1 },
        KeyField { name: "level", semantic: FieldSemantic::PriorityLevel, lo: 97, width: 16 },
        KeyField { name: "row_hit", semantic: FieldSemantic::RowHit, lo: 96, width: 1 },
        KeyField { name: "rank", semantic: FieldSemantic::Rank, lo: 64, width: 32 },
        KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
    ],
};

impl MemoryScheduler for ParBsScheduler {
    fn name(&self) -> &str {
        "PAR-BS"
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        self.banks_per_rank = view.channel.banks_per_rank();
        match self.cfg.batching {
            BatchingMode::Full => {
                if !queue.is_empty() && !queue.iter().any(|r| r.marked) {
                    // Batch formation rewrites marks and ranks even when it
                    // marks nothing (stale ranks are cleared).
                    self.form_batch(queue, view.now);
                    return true;
                }
                false
            }
            BatchingMode::EmptySlot => {
                if !queue.is_empty() && !queue.iter().any(|r| r.marked) {
                    self.form_batch(queue, view.now);
                    true
                } else if self.batch_open {
                    // Late arrivals may fill unused (thread, bank) slots.
                    self.mark(queue, view.now) > 0
                } else {
                    false
                }
            }
            BatchingMode::Static { duration } => {
                let due = match self.last_static_marking {
                    None => !queue.is_empty(),
                    Some(t) => view.now.saturating_sub(t) >= duration,
                };
                if due {
                    self.last_static_marking = Some(view.now);
                    // Static batching renews the marking budget each period;
                    // already-marked requests stay marked.
                    self.form_batch(queue, view.now);
                }
                due
            }
        }
    }

    fn priority_key(&self, req: &Request, view: &SchedView<'_>) -> u128 {
        self.priority_value(req, view).bits()
    }

    fn compare(&self, a: &Request, b: &Request, view: &SchedView<'_>) -> Ordering {
        // Larger packed priority value = scheduled first = Ordering::Less.
        self.priority_value(b, view).cmp(&self.priority_value(a, view))
    }

    fn key_layout(&self) -> Option<&'static KeyLayout> {
        Some(&PARBS_KEY_LAYOUT)
    }

    fn liveness_contract(&self) -> Option<LivenessContract> {
        // The paper's central liveness argument (Section 4.1): batching
        // with the Marking-Cap bounds any request's delay by a function of
        // the cap and the buffer size. Uncapped marking is still batch
        // marking — every queued request joins the next batch — so the
        // effective cap is "unlimited" rather than a different mechanism.
        Some(LivenessContract {
            policy: LivenessPolicy::BatchMarking { cap: self.current_cap.unwrap_or(u32::MAX) },
            claim: StarvationClaim::Bounded,
        })
    }

    fn debug_summary(&self) -> String {
        format!(
            "batches={} avg_size={:.1} avg_cycles={:.0}",
            self.stats.batches_formed,
            self.stats.avg_batch_size(),
            self.stats.avg_batch_cycles()
        )
    }

    fn set_observing(&mut self, enabled: bool) {
        self.observing = enabled;
        if !enabled {
            self.obs_events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.obs_events);
    }

    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.ranks);
        w.put(&self.priorities);
        w.put(&self.granted);
        w.u64(self.eligible_batch_no);
        w.u64(self.batch_formed_at);
        w.bool(self.batch_open);
        w.put(&self.current_cap);
        w.put(&self.last_static_marking);
        w.put(&self.rng.state());
        w.put(&self.stats);
        w.usize(self.banks_per_rank);
    }

    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        self.ranks = r.get()?;
        self.priorities = r.get()?;
        self.granted = r.get()?;
        self.eligible_batch_no = r.u64()?;
        self.batch_formed_at = r.u64()?;
        self.batch_open = r.bool()?;
        self.current_cap = r.get()?;
        self.last_static_marking = r.get()?;
        self.rng = StdRng::from_state(r.get()?);
        self.stats = r.get()?;
        self.banks_per_rank = r.usize()?;
        Ok(())
    }
}

impl parbs_snap::Snap for ParBsStats {
    fn save(&self, w: &mut parbs_snap::SnapWriter) {
        w.u64(self.batches_formed);
        w.u64(self.requests_marked);
        w.u64(self.total_batch_cycles);
        w.u64(self.batches_completed);
    }

    fn load(r: &mut parbs_snap::SnapReader<'_>) -> Result<Self, parbs_snap::SnapError> {
        Ok(ParBsStats {
            batches_formed: r.u64()?,
            requests_marked: r.u64()?,
            total_batch_cycles: r.u64()?,
            batches_completed: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{Channel, LineAddr, RequestKind, TimingParams};

    fn req(id: u64, thread: usize, bank: usize, row: u64) -> Request {
        Request::new(
            id,
            ThreadId(thread),
            LineAddr { channel: 0, bank, row, col: 0 },
            RequestKind::Read,
            id,
        )
    }

    fn channel() -> Channel {
        Channel::new(8, TimingParams::ddr2_800())
    }

    fn view(ch: &Channel, now: u64) -> SchedView<'_> {
        SchedView { channel: ch, now }
    }

    #[test]
    fn batch_forms_when_no_marked_requests() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert!(q.iter().all(|r| r.marked), "all requests within cap get marked");
        assert_eq!(s.stats().batches_formed, 1);
    }

    #[test]
    fn no_new_batch_while_marked_requests_remain() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        // A newcomer arrives while the batch is outstanding: not marked.
        q.push(req(1, 1, 1, 1));
        s.pre_schedule(&mut q, &view(&ch, 10));
        assert!(!q[1].marked, "Rule 1: new batch only when previous drained");
        assert_eq!(s.stats().batches_formed, 1);
    }

    #[test]
    fn marking_cap_limits_marks_per_thread_bank() {
        let cfg = ParBsConfig { marking_cap: Some(2), ..ParBsConfig::default() };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q: Vec<Request> = (0..5).map(|i| req(i, 0, 3, i)).collect();
        s.pre_schedule(&mut q, &view(&ch, 0));
        let marked = q.iter().filter(|r| r.marked).count();
        assert_eq!(marked, 2, "Marking-Cap = 2 marks the 2 oldest");
        assert!(q[0].marked && q[1].marked);
    }

    #[test]
    fn no_cap_marks_everything() {
        let cfg = ParBsConfig { marking_cap: None, ..ParBsConfig::default() };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q: Vec<Request> = (0..40).map(|i| req(i, 0, 0, i)).collect();
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert!(q.iter().all(|r| r.marked));
    }

    #[test]
    fn marked_requests_beat_unmarked_row_hits() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        let mut ch = channel();
        // Open row 5 on bank 0 so the unmarked request is a row hit.
        ch.issue(
            &parbs_dram::Command {
                kind: parbs_dram::CommandKind::Activate,
                rank: 0,
                bank: 0,
                row: 5,
                col: 0,
                request: parbs_dram::RequestId(99),
            },
            ThreadId(0),
            0,
        );
        let mut q = vec![req(0, 0, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        let unmarked_hit = req(5, 1, 0, 5);
        q.push(unmarked_hit.clone());
        assert_eq!(
            s.compare(&q[0], &unmarked_hit, &view(&ch, 100)),
            Ordering::Less,
            "BS rule dominates RH rule"
        );
    }

    #[test]
    fn max_total_ranking_prioritizes_light_threads() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        let ch = channel();
        // Thread 0: 1 request. Thread 1: 4 requests to one bank.
        let mut q = vec![
            req(10, 0, 0, 1),
            req(1, 1, 1, 2),
            req(2, 1, 1, 3),
            req(3, 1, 1, 4),
            req(4, 1, 1, 5),
        ];
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert_eq!(s.rank_of(ThreadId(0)), 0);
        assert_eq!(s.rank_of(ThreadId(1)), 1);
        // Thread 0's *younger* request outranks thread 1's older one.
        assert_eq!(s.compare(&q[0], &q[1], &view(&ch, 0)), Ordering::Less);
    }

    #[test]
    fn opportunistic_threads_are_never_marked_and_always_last() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        s.set_thread_priority(ThreadId(1), ThreadPriority::Opportunistic);
        let ch = channel();
        let mut q = vec![req(0, 1, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert!(!q[0].marked, "opportunistic requests never join a batch");
        // Against any normal thread's unmarked request it still loses.
        let normal = req(7, 0, 1, 1);
        assert_eq!(s.compare(&normal, &q[0], &view(&ch, 0)), Ordering::Less);
    }

    #[test]
    fn priority_levels_mark_every_xth_batch() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        s.set_thread_priority(ThreadId(1), ThreadPriority::Level(2));
        let ch = channel();
        // Batch 1 (batches_formed = 0 at decision time): level-2 thread is
        // eligible (0 % 2 == 0).
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        let first_batch_marked = q[1].marked;
        // Drain and form the next batch: now 1 % 2 == 1 → not eligible.
        for r in &mut q {
            r.marked = false;
        }
        q[0] = req(2, 0, 0, 2);
        q[1] = req(3, 1, 1, 2);
        s.pre_schedule(&mut q, &view(&ch, 1_000));
        let second_batch_marked = q[1].marked;
        assert!(
            first_batch_marked != second_batch_marked,
            "a level-2 thread joins alternate batches"
        );
        assert!(q[0].marked, "level-1 thread joins every batch");
    }

    #[test]
    fn eslot_batching_admits_latecomers_within_cap() {
        let cfg = ParBsConfig {
            batching: BatchingMode::EmptySlot,
            marking_cap: Some(2),
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert!(q[0].marked);
        // Thread 0 used 1 of 2 slots on bank 0: a latecomer fills it.
        q.push(req(1, 0, 0, 2));
        s.pre_schedule(&mut q, &view(&ch, 50));
        assert!(q[1].marked, "eslot: latecomer fills the empty slot");
        // A third request exceeds the cap and must wait.
        q.push(req(2, 0, 0, 3));
        s.pre_schedule(&mut q, &view(&ch, 60));
        assert!(!q[2].marked, "cap exhausted for (thread 0, bank 0)");
    }

    #[test]
    fn static_batching_marks_on_a_period() {
        let cfg = ParBsConfig {
            batching: BatchingMode::Static { duration: 1_000 },
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        assert!(q[0].marked);
        // Mid-period arrival stays unmarked even though the "batch" drained.
        q.push(req(1, 1, 1, 1));
        s.pre_schedule(&mut q, &view(&ch, 500));
        assert!(!q[1].marked);
        // After the period elapses it gets marked.
        s.pre_schedule(&mut q, &view(&ch, 1_000));
        assert!(q[1].marked);
    }

    #[test]
    fn no_rank_fcfs_orders_by_age_only() {
        let mut s = ParBsScheduler::new(ParBsConfig::no_rank_fcfs());
        let mut ch = channel();
        ch.issue(
            &parbs_dram::Command {
                kind: parbs_dram::CommandKind::Activate,
                rank: 0,
                bank: 0,
                row: 9,
                col: 0,
                request: parbs_dram::RequestId(99),
            },
            ThreadId(0),
            0,
        );
        let mut q = vec![req(0, 0, 1, 1), req(1, 1, 0, 9)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        // q[1] is a row hit, but FCFS-within-batch ignores hits.
        assert_eq!(s.compare(&q[0], &q[1], &view(&ch, 10)), Ordering::Less);
    }

    #[test]
    fn adaptive_cap_shrinks_after_long_batches() {
        let cfg = ParBsConfig {
            adaptive_cap: Some(crate::AdaptiveCap { min: 1, max: 8, target_batch_cycles: 500 }),
            marking_cap: Some(5),
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        assert_eq!(s.current_cap(), Some(5));
        // Batch 1 forms at t=0 and "drains" slowly: next formation at 10_000.
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        q[0].marked = false;
        q[0] = req(1, 0, 0, 2);
        s.pre_schedule(&mut q, &view(&ch, 10_000));
        assert_eq!(s.current_cap(), Some(4), "over-long batch shrinks the cap");
    }

    #[test]
    fn adaptive_cap_grows_after_short_batches() {
        let cfg = ParBsConfig {
            adaptive_cap: Some(crate::AdaptiveCap { min: 1, max: 8, target_batch_cycles: 5_000 }),
            marking_cap: Some(5),
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        q[0].marked = false;
        q[0] = req(1, 0, 0, 2);
        s.pre_schedule(&mut q, &view(&ch, 100));
        assert_eq!(s.current_cap(), Some(6), "short batch grows the cap");
    }

    #[test]
    fn adaptive_cap_respects_bounds() {
        let cfg = ParBsConfig {
            adaptive_cap: Some(crate::AdaptiveCap { min: 2, max: 3, target_batch_cycles: 500 }),
            marking_cap: Some(2),
            ..ParBsConfig::default()
        };
        let mut s = ParBsScheduler::new(cfg);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        let mut now = 0;
        for i in 1..6 {
            s.pre_schedule(&mut q, &view(&ch, now));
            q[0].marked = false;
            q[0] = req(i, 0, 0, i);
            now += 10_000; // every batch over-long → keeps shrinking
        }
        assert_eq!(s.current_cap(), Some(2), "cap clamps at min");
    }

    #[test]
    fn empty_batches_are_not_counted() {
        // Regression: a formation attempt that marks nothing (here: only an
        // opportunistic thread is queued) used to increment batches_formed
        // anyway, advancing the priority cadence and deflating
        // avg_batch_size with phantom batches.
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        s.set_thread_priority(ThreadId(0), ThreadPriority::Opportunistic);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        for now in [0, 100, 200] {
            s.pre_schedule(&mut q, &view(&ch, now));
        }
        assert!(!q[0].marked);
        assert_eq!(s.stats().batches_formed, 0, "no batch opened, none counted");
        // A markable thread arrives: the next formation is batch #1 and the
        // level-2 cadence starts from it.
        q.push(req(1, 1, 1, 1));
        s.pre_schedule(&mut q, &view(&ch, 300));
        assert!(q[1].marked);
        assert_eq!(s.stats().batches_formed, 1);
        assert!((s.stats().avg_batch_size() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observing_emits_batch_formed_before_marked_then_ranks() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        s.set_observing(true);
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1), req(1, 1, 1, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        let mut events = Vec::new();
        s.drain_events(&mut events);
        let names: Vec<&str> = events.iter().map(Event::name).collect();
        assert_eq!(names, ["batch_formed", "marked", "marked", "rank_computed"]);
        let Event::BatchFormed { id, marked, exclusive, ref per_thread, .. } = events[0] else {
            panic!("first event is the batch announcement");
        };
        assert_eq!((id, marked, exclusive), (1, 2, true));
        assert_eq!(per_thread, &[(0, 1), (1, 1)]);
        let Event::RankComputed { max_total, ref entries, .. } = events[3] else {
            panic!("last event carries the ranking");
        };
        assert!(max_total);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].rank < entries[1].rank, "entries reported in rank order");

        // Drain the batch; the next formation reports the drain first.
        for r in &mut q {
            r.marked = false;
        }
        q[0] = req(2, 0, 0, 2);
        q[1] = req(3, 1, 1, 2);
        s.pre_schedule(&mut q, &view(&ch, 500));
        events.clear();
        s.drain_events(&mut events);
        assert_eq!(events[0].name(), "batch_drained");
        let Event::BatchDrained { at, id, formed_at } = events[0] else { unreachable!() };
        assert_eq!((at, id, formed_at), (500, 1, 0));

        // Disabling observation clears the buffer and stops emission.
        s.set_observing(false);
        for r in &mut q {
            r.marked = false;
        }
        s.pre_schedule(&mut q, &view(&ch, 1_000));
        events.clear();
        s.drain_events(&mut events);
        assert!(events.is_empty(), "no events while not observing");
    }

    #[test]
    fn batch_formed_per_thread_handles_sparse_thread_ids() {
        // Open-loop flow sources produce thread ids like 40_000 next to 0;
        // the per-thread batch summary must aggregate them in O(active)
        // without materializing anything dense, and still report ascending.
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        s.set_observing(true);
        let ch = channel();
        let mut q = vec![
            req(0, 40_000, 0, 1),
            req(1, 0, 1, 1),
            req(2, 7, 2, 1),
            req(3, 0, 3, 1),
            req(4, 40_000, 4, 1),
        ];
        s.pre_schedule(&mut q, &view(&ch, 0));
        let mut events = Vec::new();
        s.drain_events(&mut events);
        let Event::BatchFormed { marked, ref per_thread, .. } = events[0] else {
            panic!("first event is the batch announcement");
        };
        assert_eq!(marked, 5);
        assert_eq!(per_thread, &[(0, 2), (7, 1), (40_000, 2)]);
        // Ranks are likewise keyed sparsely: every queued thread got one.
        assert_ne!(s.rank_of(ThreadId(40_000)), u32::MAX);
        assert_ne!(s.rank_of(ThreadId(0)), u32::MAX);
        assert_eq!(s.rank_of(ThreadId(39_999)), u32::MAX, "untouched id holds no state");
    }

    #[test]
    fn batch_stats_accumulate() {
        let mut s = ParBsScheduler::new(ParBsConfig::default());
        let ch = channel();
        let mut q = vec![req(0, 0, 0, 1)];
        s.pre_schedule(&mut q, &view(&ch, 0));
        // Drain the batch, then a new one forms at t=2000.
        q[0].marked = false;
        q[0] = req(1, 0, 0, 2);
        s.pre_schedule(&mut q, &view(&ch, 2_000));
        assert_eq!(s.stats().batches_formed, 2);
        assert_eq!(s.stats().batches_completed, 1);
        assert!((s.stats().avg_batch_cycles() - 2_000.0).abs() < 1e-9);
        assert!(s.stats().avg_batch_size() >= 1.0);
    }
}
