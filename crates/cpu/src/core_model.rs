//! The window-based core model.

use std::collections::VecDeque;

use crate::{Instr, InstructionStream};

/// Identifier of an outstanding L2 miss within one core. The driver maps
/// `MissId`s to DRAM request ids; multiple loads to the same line merge into
/// one miss (MSHR semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MissId(pub u64);

/// Microarchitectural parameters (the processor rows of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Instruction window capacity (128).
    pub window_size: usize,
    /// Instructions fetched per cycle (3); at most one may be a memory op.
    pub fetch_width: usize,
    /// Instructions committed per cycle (3), in order.
    pub commit_width: usize,
    /// Maximum outstanding L2 misses (32 MSHRs).
    pub mshrs: usize,
    /// Store-queue capacity (64); fetch stalls when it is full.
    pub store_queue: usize,
}

impl CoreConfig {
    /// The paper's Table 2 processor configuration.
    #[must_use]
    pub fn table2() -> Self {
        CoreConfig { window_size: 128, fetch_width: 3, commit_width: 3, mshrs: 32, store_queue: 64 }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// Counters accumulated by a [`Core`] over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreStats {
    /// Cycles the core has been ticked.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Cycles in which nothing committed because the oldest instruction was
    /// an outstanding DRAM load — the numerator of the paper's MCPI.
    pub mem_stall_cycles: u64,
    /// Distinct DRAM read requests generated (after MSHR merging).
    pub dram_reads: u64,
    /// DRAM write requests generated.
    pub dram_writes: u64,
}

impl CoreStats {
    /// Instructions per cycle so far.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Compute,
    /// A load miss; `miss` indexes the core's miss table, `done` flips when
    /// the miss data returns.
    Load {
        miss: MissId,
        done: bool,
    },
    Store,
}

/// An outstanding miss: a later load to its line merges into it until it
/// completes and leaves the table.
#[derive(Debug, Clone)]
struct Miss {
    id: MissId,
    line: u64,
    issued: bool,
    /// Dependence episode this miss belongs to (incremented at each fence).
    episode: u64,
}

/// One processor core: fetches from its [`InstructionStream`], tracks the
/// instruction window, issues DRAM reads/writes through a pull interface,
/// and commits in order.
///
/// Drive it one cycle at a time with [`Core::tick`]; between ticks, forward
/// [`Core::pending_read`] / [`Core::pending_write`] operations to the memory
/// system (respecting its back-pressure) and deliver completions with
/// [`Core::complete_read`].
pub struct Core {
    cfg: CoreConfig,
    stream: Box<dyn InstructionStream>,
    window: VecDeque<Slot>,
    misses: Vec<Miss>,
    next_miss: u64,
    store_queue: VecDeque<u64>,
    stats: CoreStats,
    /// One-instruction fetch buffer: an instruction pulled from the stream
    /// that could not be accepted this cycle (second memory op in a fetch
    /// group, or a store facing a full store queue).
    lookahead: Option<Instr>,
    /// Current dependence-episode counter (bumped by each fence load).
    episode: u64,
    /// Set by [`Core::sleep_if_blocked`], cleared by
    /// [`Core::complete_read`]: derived state, never checkpointed.
    asleep: bool,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("window", &self.window.len())
            .field("misses", &self.misses.len())
            .field("committed", &self.stats.committed)
            .finish()
    }
}

impl Core {
    /// Creates a core with the given configuration and instruction supply.
    ///
    /// # Panics
    ///
    /// Panics if any capacity in `cfg` is zero.
    #[must_use]
    pub fn new(cfg: CoreConfig, stream: Box<dyn InstructionStream>) -> Self {
        assert!(cfg.window_size > 0 && cfg.fetch_width > 0 && cfg.commit_width > 0);
        assert!(cfg.mshrs > 0 && cfg.store_queue > 0);
        Core {
            cfg,
            stream,
            window: VecDeque::new(),
            misses: Vec::new(),
            next_miss: 0,
            store_queue: VecDeque::new(),
            stats: CoreStats::default(),
            lookahead: None,
            episode: 0,
            asleep: false,
        }
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Number of outstanding (unmerged) misses, issued or not.
    #[must_use]
    pub fn outstanding_misses(&self) -> usize {
        self.misses.len()
    }

    /// Puts the core to sleep if it is blocked. A core is blocked when four
    /// things hold: its oldest instruction is an outstanding load, its
    /// window is full, its store queue is empty, and
    /// [`Core::pending_read`] has nothing to issue. Then nothing but a
    /// completed read can change it: every [`Core::tick`] until
    /// [`Core::complete_read`] only counts a cycle and a memory-stall
    /// cycle, and the driver need not offer it memory.
    ///
    /// Call it after the cycle's issue step: a core whose oldest unissued
    /// read only lacks room in the memory system stays awake and retries.
    pub fn sleep_if_blocked(&mut self) {
        self.asleep = self.window.len() == self.cfg.window_size
            && matches!(self.window.front(), Some(Slot::Load { done: false, .. }))
            && self.store_queue.is_empty()
            && self.pending_read().is_none();
    }

    /// True while the core sleeps (see [`Core::sleep_if_blocked`]).
    #[must_use]
    pub fn is_asleep(&self) -> bool {
        self.asleep
    }

    /// Counts `cycles` asleep ticks at once: that many cycles and as many
    /// memory-stall cycles, exactly what as many [`Core::tick`] calls of a
    /// sleeping core add.
    ///
    /// # Panics
    ///
    /// Panics if the core is awake.
    pub fn sleep_for(&mut self, cycles: u64) {
        assert!(self.asleep, "sleep_for: the core is awake");
        self.stats.cycles += cycles;
        self.stats.mem_stall_cycles += cycles;
    }

    /// The oldest un-issued miss, if the MSHR budget and dependence chain
    /// allow issuing it: `(line address, miss id)`. Call
    /// [`Core::read_issued`] once the memory system accepts it; calling
    /// `pending_read` again before that returns the same miss.
    ///
    /// Dependence model: [`Instr::DependentLoad`] starts a new *episode*;
    /// the misses within an episode are independent and issue together, but
    /// an episode may not issue until every miss of earlier episodes has
    /// completed — the serialization that makes a thread's bank-level
    /// parallelism equal its episode width.
    #[must_use]
    pub fn pending_read(&self) -> Option<(u64, MissId)> {
        let mut in_flight = 0usize;
        let mut oldest_outstanding_episode = u64::MAX;
        for m in &self.misses {
            if m.issued {
                in_flight += 1;
                oldest_outstanding_episode = oldest_outstanding_episode.min(m.episode);
                continue;
            }
            if m.episode >= oldest_outstanding_episode.saturating_add(1) {
                // Dependence: this miss (and everything younger) waits.
                return None;
            }
            if in_flight >= self.cfg.mshrs {
                return None;
            }
            return Some((m.line, m.id));
        }
        None
    }

    /// Marks the miss as accepted by the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already issued.
    pub fn read_issued(&mut self, id: MissId) {
        let m = self.misses.iter_mut().find(|m| m.id == id).expect("read_issued: unknown miss id");
        assert!(!m.issued, "read_issued: miss already issued");
        m.issued = true;
    }

    /// The oldest queued writeback line, if any. Call
    /// [`Core::write_issued`] once the memory system accepts it.
    #[must_use]
    pub fn pending_write(&self) -> Option<u64> {
        self.store_queue.front().copied()
    }

    /// Pops the writeback returned by [`Core::pending_write`].
    ///
    /// # Panics
    ///
    /// Panics if the store queue is empty.
    pub fn write_issued(&mut self) {
        self.store_queue.pop_front().expect("write_issued: empty store queue");
    }

    /// Delivers read data for a previously issued miss, waking every merged
    /// load and the core itself. Unknown ids are ignored (the miss may
    /// belong to another core).
    pub fn complete_read(&mut self, id: MissId) {
        self.asleep = false;
        let Some(pos) = self.misses.iter().position(|m| m.id == id) else {
            return;
        };
        for slot in &mut self.window {
            if let Slot::Load { miss, done } = slot {
                if *miss == id {
                    *done = true;
                }
            }
        }
        self.misses.remove(pos);
    }

    /// Advances the core by one cycle: commit (in order, up to commit
    /// width), then fetch (up to fetch width, at most one memory op). A
    /// sleeping core only counts the cycle as a memory stall: its head
    /// load blocks commit and its full window blocks fetch.
    pub fn tick(&mut self, _now: u64) {
        self.stats.cycles += 1;
        if self.asleep {
            self.stats.mem_stall_cycles += 1;
            return;
        }
        self.commit();
        self.fetch();
    }

    fn commit(&mut self) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            match self.window.front() {
                None => break,
                Some(Slot::Compute) => {
                    self.window.pop_front();
                    self.stats.committed += 1;
                    n += 1;
                }
                Some(Slot::Store) => {
                    self.window.pop_front();
                    self.stats.committed += 1;
                    n += 1;
                }
                Some(Slot::Load { done: true, .. }) => {
                    self.window.pop_front();
                    self.stats.committed += 1;
                    n += 1;
                }
                Some(Slot::Load { done: false, .. }) => {
                    if n == 0 {
                        // Nothing committed this cycle and the head is an
                        // outstanding DRAM load: a memory stall cycle.
                        self.stats.mem_stall_cycles += 1;
                    }
                    break;
                }
            }
        }
    }

    fn fetch(&mut self) {
        let mut fetched = 0;
        let mut mem_ops = 0;
        while fetched < self.cfg.fetch_width && self.window.len() < self.cfg.window_size {
            let instr = match self.lookahead.take() {
                Some(i) => i,
                None => self.stream.next_instr(),
            };
            match instr {
                Instr::Compute => {
                    self.window.push_back(Slot::Compute);
                }
                Instr::Load(line) | Instr::DependentLoad(line) => {
                    if mem_ops == 1 {
                        // Only one memory operation per fetch group; hold
                        // the instruction for the next cycle.
                        self.lookahead = Some(instr);
                        break;
                    }
                    mem_ops += 1;
                    let fence = matches!(instr, Instr::DependentLoad(_));
                    let id = self.note_load(line, fence);
                    self.window.push_back(Slot::Load { miss: id, done: false });
                }
                Instr::Store(line) => {
                    if mem_ops == 1 || self.store_queue.len() >= self.cfg.store_queue {
                        // Second memory op, or store-queue back-pressure.
                        self.lookahead = Some(instr);
                        break;
                    }
                    mem_ops += 1;
                    self.store_queue.push_back(line);
                    self.stats.dram_writes += 1;
                    self.window.push_back(Slot::Store);
                }
            }
            fetched += 1;
        }
    }

    /// Records a load miss, merging with an outstanding miss to the same
    /// line if one exists (a merged dependent load keeps the existing miss's
    /// position; its data dependence is already satisfied by that miss).
    fn note_load(&mut self, line: u64, fence: bool) -> MissId {
        if fence {
            self.episode += 1;
        }
        if let Some(m) = self.misses.iter().find(|m| m.line == line) {
            return m.id;
        }
        let id = MissId(self.next_miss);
        self.next_miss += 1;
        self.misses.push(Miss { id, line, issued: false, episode: self.episode });
        self.stats.dram_reads += 1;
        id
    }
}

parbs_snap::snap!(MissId { 0 });
parbs_snap::snap!(CoreStats { cycles, committed, mem_stall_cycles, dram_reads, dram_writes });
parbs_snap::snap!(enum Slot as "window slot" { 0 => Compute, 1 => Load { miss, done }, 2 => Store });
parbs_snap::snap!(Miss { id, line, issued, episode });

impl Core {
    /// Serializes the core's mutable state: instruction window, miss table,
    /// store queue, statistics, fetch lookahead, dependence-episode counter,
    /// and the instruction stream's own state. The configuration is not
    /// written — a restored core is rebuilt from the same [`CoreConfig`]
    /// and stream constructor first — and neither is the sleep flag, which
    /// a restored core derives again on its first cycle.
    pub fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.window);
        w.put(&self.misses);
        w.u64(self.next_miss);
        w.put(&self.store_queue);
        w.put(&self.stats);
        w.put(&self.lookahead);
        w.u64(self.episode);
        self.stream.save_state(w);
    }

    /// Restores state captured by [`Core::save_state`] into a core built
    /// with the same configuration and stream kind.
    ///
    /// # Errors
    ///
    /// [`parbs_snap::SnapError::Mismatch`] when the snapshot exceeds this
    /// core's window or store-queue capacity, or its miss ids are out of
    /// allocation order; decoding errors propagate.
    pub fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let window: std::collections::VecDeque<Slot> = r.get()?;
        if window.len() > self.cfg.window_size {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "core window occupancy",
                expected: self.cfg.window_size as u64,
                found: window.len() as u64,
            });
        }
        let misses: Vec<Miss> = r.get()?;
        let next_miss = r.u64()?;
        // Misses are allocated ascending from `next_miss`: a repeated id
        // would be issued twice.
        let mut lowest = 0;
        for m in &misses {
            if m.id.0 < lowest || m.id.0 >= next_miss {
                return Err(parbs_snap::SnapError::Mismatch {
                    what: "core miss id, ascending and below the next miss id",
                    expected: lowest,
                    found: m.id.0,
                });
            }
            lowest = m.id.0 + 1;
        }
        let store_queue: std::collections::VecDeque<u64> = r.get()?;
        if store_queue.len() > self.cfg.store_queue {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "core store-queue occupancy",
                expected: self.cfg.store_queue as u64,
                found: store_queue.len() as u64,
            });
        }
        self.window = window;
        self.misses = misses;
        self.next_miss = next_miss;
        self.store_queue = store_queue;
        self.stats = r.get()?;
        self.lookahead = r.get()?;
        self.episode = r.u64()?;
        self.asleep = false;
        self.stream.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStream;

    fn compute_only() -> Box<dyn InstructionStream> {
        Box::new(TraceStream::new(vec![Instr::Compute]))
    }

    #[test]
    fn restore_rejects_miss_ids_out_of_allocation_order() {
        let trace = vec![Instr::Load(1), Instr::Load(2), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace.clone())));
        core.tick(0);
        core.tick(1);
        assert_eq!(core.misses.len(), 2);
        // A repeated id would be issued twice; an id at or past the next
        // one would be handed out again.
        for (first, next) in [(1, 2), (0, 1)] {
            core.misses[0].id = MissId(first);
            core.next_miss = next;
            let mut w = parbs_snap::SnapWriter::new();
            core.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut fresh =
                Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace.clone())));
            let err = fresh.restore_state(&mut parbs_snap::SnapReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, parbs_snap::SnapError::Mismatch { what, .. } if what.starts_with("core miss id")),
                "{err}"
            );
        }
    }

    #[test]
    fn compute_stream_reaches_full_width_ipc() {
        let mut core = Core::new(CoreConfig::table2(), compute_only());
        for now in 0..1_000 {
            core.tick(now);
        }
        // Window fill takes one cycle; thereafter 3 IPC.
        assert!(core.stats().ipc() > 2.9, "ipc = {}", core.stats().ipc());
        assert_eq!(core.stats().mem_stall_cycles, 0);
    }

    #[test]
    fn lone_load_stalls_until_completed() {
        let trace = vec![Instr::Load(1), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        core.tick(0);
        let (line, id) = core.pending_read().expect("load should want to issue");
        assert_eq!(line, 1);
        core.read_issued(id);
        assert!(core.pending_read().is_none(), "issued miss should not reappear");
        for now in 1..100 {
            core.tick(now);
        }
        // Head loads block commit; every cycle with the pending head load
        // and zero commits is a memory stall. (The trace alternates loads,
        // and later loads merge or wait, so stalls accumulate.)
        assert!(core.stats().mem_stall_cycles > 50);
        let stalls_before = core.stats().mem_stall_cycles;
        core.complete_read(id);
        core.tick(100);
        assert!(core.stats().committed >= 1);
        // The next head load (a different line) stalls again eventually, but
        // the completed one must have committed without further stall.
        assert!(core.stats().mem_stall_cycles <= stalls_before + 1);
    }

    #[test]
    fn independent_loads_overlap_in_window() {
        // Loads to two lines: both should be outstanding simultaneously.
        let trace = vec![Instr::Load(1), Instr::Load(2), Instr::Compute, Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        core.tick(0);
        core.tick(1);
        let mut issued = Vec::new();
        while let Some((line, id)) = core.pending_read() {
            core.read_issued(id);
            issued.push(line);
        }
        assert!(issued.len() >= 2, "both misses should issue: {issued:?}");
    }

    #[test]
    fn duplicate_loads_merge_into_one_miss() {
        let trace = vec![Instr::Load(42), Instr::Load(42), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        for now in 0..5 {
            core.tick(now);
        }
        assert_eq!(core.outstanding_misses(), 1, "same line must merge");
        assert_eq!(core.stats().dram_reads, 1, "merged loads make one DRAM read");
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        core.complete_read(id);
        let committed_before = core.stats().committed;
        core.tick(6);
        assert!(core.stats().committed > committed_before);
    }

    #[test]
    fn stores_do_not_block_commit() {
        let trace = vec![Instr::Store(7), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        let mut writes = 0;
        for now in 0..100 {
            core.tick(now);
            // Drain the store queue like an always-ready write buffer.
            while core.pending_write().is_some() {
                core.write_issued();
                writes += 1;
            }
        }
        assert_eq!(core.stats().mem_stall_cycles, 0, "posted stores must not stall commit");
        // One store per fetch group limits fetch (and thus IPC) to ~2.
        assert!(core.stats().ipc() > 1.8, "ipc = {}", core.stats().ipc());
        assert!(writes > 50);
    }

    #[test]
    fn write_issued_pops_store_queue() {
        let trace = vec![Instr::Store(7), Instr::Store(8), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        for now in 0..10 {
            core.tick(now);
        }
        assert_eq!(core.pending_write(), Some(7));
        core.write_issued();
        assert_eq!(core.pending_write(), Some(8));
    }

    #[test]
    fn window_never_exceeds_capacity() {
        let trace = vec![Instr::Load(1)]; // one line: merges, head blocks
        let cfg = CoreConfig { window_size: 16, ..CoreConfig::table2() };
        let mut core = Core::new(cfg, Box::new(TraceStream::new(trace)));
        for now in 0..200 {
            core.tick(now);
            assert!(core.window.len() <= 16);
        }
    }

    /// A core with a 4-slot window, ticked until the window is full behind
    /// its head load, which has not been issued yet.
    fn blocked_behind_a_load(trace: Vec<Instr>) -> Core {
        let cfg = CoreConfig { window_size: 4, ..CoreConfig::table2() };
        let mut core = Core::new(cfg, Box::new(TraceStream::new(trace)));
        let mut now = 0;
        while core.window.len() < 4 {
            core.tick(now);
            now += 1;
        }
        assert!(matches!(core.window.front(), Some(Slot::Load { done: false, .. })));
        core
    }

    #[test]
    fn a_blocked_core_falls_asleep_after_the_issue_step() {
        let mut core = blocked_behind_a_load(vec![Instr::Load(1), Instr::Compute]);
        // Before the issue step its read can still go: it stays awake.
        let (_, id) = core.pending_read().expect("the head load wants to issue");
        core.sleep_if_blocked();
        assert!(!core.is_asleep(), "an issuable read keeps the core awake");
        core.read_issued(id);
        core.sleep_if_blocked();
        assert!(core.is_asleep());
    }

    #[test]
    fn an_asleep_tick_adds_one_cycle_and_one_stall_cycle() {
        let mut core = blocked_behind_a_load(vec![Instr::Load(1), Instr::Compute]);
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        core.sleep_if_blocked();
        assert!(core.is_asleep());
        let before = *core.stats();
        let window = core.window.len();
        core.tick(100);
        let after = *core.stats();
        let expected = CoreStats {
            cycles: before.cycles + 1,
            mem_stall_cycles: before.mem_stall_cycles + 1,
            ..before
        };
        assert_eq!(after, expected, "one cycle, one stall cycle, nothing else");
        assert_eq!(core.window.len(), window, "nothing fetched or committed");
        core.sleep_for(7);
        assert_eq!(core.stats().cycles, after.cycles + 7);
        assert_eq!(core.stats().mem_stall_cycles, after.mem_stall_cycles + 7);
    }

    #[test]
    fn an_asleep_tick_matches_an_awake_one() {
        let trace = vec![Instr::Load(1), Instr::Compute, Instr::Load(2), Instr::Compute];
        let mut asleep = blocked_behind_a_load(trace.clone());
        let mut awake = blocked_behind_a_load(trace);
        for core in [&mut asleep, &mut awake] {
            while let Some((_, id)) = core.pending_read() {
                core.read_issued(id);
            }
        }
        asleep.sleep_if_blocked();
        assert!(asleep.is_asleep());
        for now in 100..110 {
            asleep.tick(now);
            awake.tick(now);
        }
        assert_eq!(asleep.stats(), awake.stats());
        assert_eq!(asleep.window.len(), awake.window.len());
    }

    #[test]
    fn complete_read_wakes_the_core() {
        let mut core = blocked_behind_a_load(vec![Instr::Load(1), Instr::Compute]);
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        core.sleep_if_blocked();
        assert!(core.is_asleep());
        core.complete_read(id);
        assert!(!core.is_asleep());
        let committed = core.stats().committed;
        core.tick(100);
        assert!(core.stats().committed > committed, "the woken core commits its head load");
    }

    #[test]
    fn a_queued_store_keeps_the_core_awake() {
        let mut core = blocked_behind_a_load(vec![Instr::Load(1), Instr::Store(9), Instr::Compute]);
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        assert_eq!(core.pending_write(), Some(9));
        core.sleep_if_blocked();
        assert!(!core.is_asleep(), "a queued writeback keeps the core awake");
        core.write_issued();
        core.sleep_if_blocked();
        assert!(core.is_asleep());
    }

    #[test]
    fn a_core_with_window_room_stays_awake() {
        let cfg = CoreConfig { window_size: 8, ..CoreConfig::table2() };
        let mut core = Core::new(cfg, Box::new(TraceStream::new(vec![Instr::Load(1)])));
        core.tick(0);
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        assert!(core.window.len() < 8);
        core.sleep_if_blocked();
        assert!(!core.is_asleep(), "a core that can still fetch stays awake");
    }

    #[test]
    #[should_panic(expected = "the core is awake")]
    fn an_awake_core_cannot_be_credited_sleep() {
        let mut core = Core::new(CoreConfig::table2(), compute_only());
        core.sleep_for(1);
    }

    #[test]
    fn full_store_queue_backpressures_fetch() {
        let cfg = CoreConfig { store_queue: 2, ..CoreConfig::table2() };
        let trace = vec![Instr::Store(1), Instr::Store(2), Instr::Store(3), Instr::Store(4)];
        let mut core = Core::new(cfg, Box::new(TraceStream::new(trace)));
        for now in 0..50 {
            core.tick(now);
        }
        // Only two writebacks fit; fetch stalls on the third store.
        assert_eq!(core.stats().dram_writes, 2);
        core.write_issued();
        core.tick(50);
        assert_eq!(core.stats().dram_writes, 3, "draining the queue unblocks fetch");
    }

    #[test]
    fn merged_load_shares_completion() {
        // Two loads to the same line: one completion commits both.
        let trace = vec![Instr::Load(9), Instr::Compute, Instr::Load(9), Instr::Compute];
        let mut core = Core::new(CoreConfig::table2(), Box::new(TraceStream::new(trace)));
        for now in 0..3 {
            core.tick(now);
        }
        let (_, id) = core.pending_read().unwrap();
        core.read_issued(id);
        assert!(core.pending_read().is_none(), "second load merged, nothing to issue");
        core.complete_read(id);
        let before = core.stats().committed;
        for now in 3..6 {
            core.tick(now);
        }
        assert!(core.stats().committed >= before + 4, "both loads commit after one fill");
    }

    #[test]
    fn complete_unknown_miss_is_ignored() {
        let mut core = Core::new(CoreConfig::table2(), compute_only());
        core.complete_read(MissId(999));
        assert_eq!(core.outstanding_misses(), 0);
    }
}
