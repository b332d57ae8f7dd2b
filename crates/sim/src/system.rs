//! The cycle-driven full system: closed-loop cores on the memory side.

use parbs_cpu::{Core, InstructionStream, MissId};
use parbs_dram::{RequestKind, ThreadId, DRAM_CYCLE};

use crate::memory::{Detached, MemorySide};
use crate::{SchedulerKind, SimConfig};

/// Per-thread measurement snapshot, taken the cycle the thread commits its
/// target instruction count (contention continues afterwards so slower
/// threads keep experiencing realistic interference).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThreadRunStats {
    /// Instructions committed at snapshot time.
    pub instructions: u64,
    /// Cycles elapsed at snapshot time.
    pub cycles: u64,
    /// Memory stall cycles at snapshot time.
    pub mem_stall_cycles: u64,
    /// DRAM read requests issued at snapshot time.
    pub dram_reads: u64,
    /// DRAM write requests issued at snapshot time.
    pub dram_writes: u64,
    /// Average bank-level parallelism observed for the thread.
    pub blp: f64,
    /// Read row-buffer hit rate of the thread.
    pub read_hit_rate: f64,
    /// Worst-case read latency observed for the thread (cycles).
    pub worst_case_latency: u64,
}

impl ThreadRunStats {
    /// Memory cycles per instruction.
    #[must_use]
    pub fn mcpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem_stall_cycles as f64 / self.instructions as f64
        }
    }

    /// L2 misses per kilo-instruction.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.dram_reads as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Average stall time per DRAM read.
    #[must_use]
    pub fn ast_per_req(&self) -> f64 {
        if self.dram_reads == 0 {
            0.0
        } else {
            self.mem_stall_cycles as f64 / self.dram_reads as f64
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Per-thread snapshots, in core order.
    pub threads: Vec<ThreadRunStats>,
    /// Total cycles simulated (until the last thread hit its target).
    pub cycles: u64,
    /// Row-buffer hit rate over all serviced requests, all channels.
    pub row_hit_rate: f64,
    /// Worst-case read latency over all threads.
    pub worst_case_latency: u64,
    /// True if the run hit `max_cycles` before every thread finished.
    pub timed_out: bool,
    /// Distribution of read latencies across all channels.
    pub read_latency: parbs_metrics::LatencyHistogram,
}

/// Cursor of an in-progress run: which threads have been snapshotted, the
/// cycle about to execute, and whether the cycle cap fired. Produced by
/// [`System::begin_run`], advanced by [`System::step_cycle`] or
/// [`System::step_cycles`], and redeemed by [`System::finish_run`] — the
/// seam that lets checkpointing freeze a run mid-flight. The instruction
/// target is the system's configuration's.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProgress {
    /// Per-thread snapshot, filled the cycle the thread hits the target.
    snapshots: Vec<Option<ThreadRunStats>>,
    /// Threads still short of the target: the open snapshot slots.
    remaining: usize,
    /// The next cycle to execute.
    now: u64,
    /// Whether `max_cycles` fired before every thread finished.
    timed_out: bool,
}

impl RunProgress {
    /// Cycles executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.now
    }

    /// Threads still short of their instruction target.
    #[must_use]
    pub fn threads_remaining(&self) -> usize {
        self.remaining
    }

    /// Whether the cycle cap fired before every thread finished.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Writes the snapshots, the cycle and the timed-out flag; the
    /// remaining-thread count is the open snapshot slots.
    pub(crate) fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.snapshots);
        w.u64(self.now);
        w.bool(self.timed_out);
    }

    /// Loads a progress saved by [`RunProgress::save_state`] for a run of
    /// the same shape as `fresh`. Rejects a thread count other than
    /// `fresh`'s, which would index past the system's cores.
    pub(crate) fn load_state(
        r: &mut parbs_snap::SnapReader<'_>,
        fresh: &RunProgress,
    ) -> Result<Self, parbs_snap::SnapError> {
        let snapshots: Vec<Option<ThreadRunStats>> = r.get()?;
        if snapshots.len() != fresh.snapshots.len() {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "run progress thread count",
                expected: fresh.snapshots.len() as u64,
                found: snapshots.len() as u64,
            });
        }
        let remaining = snapshots.iter().filter(|s| s.is_none()).count();
        Ok(RunProgress { snapshots, remaining, now: r.u64()?, timed_out: r.bool()? })
    }
}

/// A CMP system: one core per thread, one controller per DRAM channel.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    /// The controllers; an in-flight read carries its (core, miss) back.
    memory: MemorySide<(usize, MissId)>,
    prev_stall: Vec<u64>,
    /// Reusable buffer for the per-thread stall increments reported each
    /// DRAM cycle.
    stalls: Vec<u64>,
    thread_worst_case: Vec<u64>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("channels", &self.cfg.dram.channels())
            .finish()
    }
}

impl System {
    /// Builds a system with one instruction stream per core and fresh
    /// instances of `scheduler` on every channel controller.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cfg.cores` or the DRAM configuration is
    /// invalid.
    #[must_use]
    pub fn new(
        cfg: SimConfig,
        streams: Vec<Box<dyn InstructionStream>>,
        scheduler: &SchedulerKind,
    ) -> Self {
        let factory = |cfg: &SimConfig| scheduler.build(cfg);
        Self::with_scheduler_factory(cfg, streams, &factory)
    }

    /// Like [`System::new`] but with an arbitrary scheduler factory — the
    /// extension seam for custom [`parbs_dram::MemoryScheduler`]
    /// implementations. The factory is called once per DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cfg.cores` or the DRAM configuration is
    /// invalid.
    #[must_use]
    pub fn with_scheduler_factory(
        cfg: SimConfig,
        streams: Vec<Box<dyn InstructionStream>>,
        factory: &dyn Fn(&SimConfig) -> Box<dyn parbs_dram::MemoryScheduler>,
    ) -> Self {
        assert_eq!(streams.len(), cfg.cores, "one stream per core");
        let cores: Vec<Core> = streams.into_iter().map(|s| Core::new(cfg.core, s)).collect();
        let n = cfg.cores;
        System {
            cores,
            memory: MemorySide::new(&cfg, factory),
            prev_stall: vec![0; n],
            stalls: vec![0; n],
            thread_worst_case: vec![0; n],
            cfg,
        }
    }

    /// Per channel, the packed priority key of every queued read evaluated
    /// at `now` — the scheduler-observable queue state. Introspection hook
    /// for checkpoint validation: a resume must reproduce these bit for
    /// bit, or the restored scheduler would make different decisions than
    /// the one that was saved.
    pub fn priority_keys(&mut self, now: u64) -> Vec<Vec<u128>> {
        self.memory.priority_keys(now)
    }

    /// Attaches one run's observers before its first cycle (see
    /// [`MemorySide::observe`]).
    pub(crate) fn observe(
        &mut self,
        check_invariants: bool,
        spec: Option<&parbs_monitor::Spec>,
        channel0: Vec<Box<dyn parbs_obs::EventSink>>,
    ) {
        self.memory.observe(check_invariants, spec, channel0);
    }

    /// Takes off what [`System::observe`] attached.
    pub(crate) fn detach(&mut self) -> Detached {
        self.memory.detach()
    }

    /// Runs until every thread has committed `target_instructions` (or
    /// `max_cycles` elapse) and returns the per-thread snapshots.
    ///
    /// Equivalent to [`System::begin_run`] + [`System::step_cycle`] until
    /// exhaustion + [`System::finish_run`] — the decomposition
    /// checkpointing builds on — but steps with [`System::step_cycles`],
    /// which skips the cycles in which every core sleeps.
    pub fn run(&mut self) -> RunResult {
        let mut progress = self.begin_run();
        self.step_cycles(&mut progress, u64::MAX);
        self.finish_run(progress)
    }

    /// Starts a run: the cursor a caller threads through
    /// [`System::step_cycle`] calls until it returns `false`, then redeems
    /// with [`System::finish_run`].
    #[must_use]
    pub fn begin_run(&self) -> RunProgress {
        let n = self.cores.len();
        RunProgress { snapshots: vec![None; n], remaining: n, now: 0, timed_out: false }
    }

    /// Advances the system by exactly one processor cycle, snapshotting any
    /// thread that reached its instruction target this cycle. Returns `true`
    /// while the run has more cycles to execute; once it returns `false`
    /// (every thread snapshotted, or `max_cycles` reached) further calls are
    /// no-ops and the caller redeems `progress` with
    /// [`System::finish_run`].
    pub fn step_cycle(&mut self, progress: &mut RunProgress) -> bool {
        if progress.remaining == 0 || progress.timed_out {
            return false;
        }
        if progress.now >= self.cfg.max_cycles {
            progress.timed_out = true;
            return false;
        }
        self.tick(progress.now);
        for (t, slot) in progress.snapshots.iter_mut().enumerate() {
            if slot.is_none() && self.cores[t].stats().committed >= self.cfg.target_instructions {
                *slot = Some(self.snapshot_at(t, progress.now + 1));
                progress.remaining -= 1;
            }
        }
        progress.now += 1;
        progress.remaining > 0
    }

    /// Advances the run by `budget` cycles, or until it ends, and returns
    /// the cycles it advanced: fewer than `budget` only when the run ended.
    /// The result is that of as many [`System::step_cycle`] calls. It
    /// steps one cycle at a time, except that once every core sleeps (see
    /// [`parbs_cpu::Core::sleep_if_blocked`]) nothing can change before the
    /// memory side's next DRAM edge or completion, so it jumps there and
    /// credits every core the skipped stall cycles in bulk. It never jumps
    /// past `budget` or `max_cycles`.
    pub fn step_cycles(&mut self, progress: &mut RunProgress, budget: u64) -> u64 {
        let start = progress.now;
        let end = start.saturating_add(budget).min(self.cfg.max_cycles);
        while progress.now - start < budget && self.step_cycle(progress) {
            if self.cores.iter().all(Core::is_asleep) {
                let to = self.memory.next_event(progress.now).min(end);
                if to > progress.now {
                    for core in &mut self.cores {
                        core.sleep_for(to - progress.now);
                    }
                    progress.now = to;
                }
            }
        }
        progress.now - start
    }

    /// Completes a run started with [`System::begin_run`], filling in
    /// snapshots for threads that never reached the target and aggregating
    /// system-wide statistics.
    #[must_use]
    pub fn finish_run(&mut self, mut progress: RunProgress) -> RunResult {
        let n = self.cores.len();
        let now = progress.now;
        let threads: Vec<ThreadRunStats> = (0..n)
            .map(|t| {
                progress.snapshots[t].take().unwrap_or_else(|| self.snapshot_at(t, now.max(1)))
            })
            .collect();
        RunResult {
            worst_case_latency: self.thread_worst_case.iter().copied().max().unwrap_or(0),
            threads,
            cycles: now,
            row_hit_rate: self.memory.row_hit_rate(),
            timed_out: progress.timed_out,
            read_latency: self.memory.read_latency(),
        }
    }

    fn snapshot_at(&self, t: usize, cycles: u64) -> ThreadRunStats {
        let s = self.cores[t].stats();
        ThreadRunStats {
            instructions: s.committed,
            cycles,
            mem_stall_cycles: s.mem_stall_cycles,
            dram_reads: s.dram_reads,
            dram_writes: s.dram_writes,
            blp: self.memory.blp_of(ThreadId(t)),
            read_hit_rate: self.memory.read_hit_rate_of(ThreadId(t)),
            worst_case_latency: self.thread_worst_case[t],
        }
    }

    /// One processor cycle: controllers, completion routing, cores, memory
    /// issue (after which a blocked core falls asleep, and a sleeping one
    /// is not offered memory until one of its reads completes), and (on
    /// DRAM-cycle boundaries) stall feedback.
    fn tick(&mut self, now: u64) {
        let System { memory, cores, thread_worst_case, .. } = self;
        // Core `core` runs thread `core`; `restore_state` rejects any
        // in-flight read whose core is out of range.
        memory.tick(now, |(core, miss), c| {
            cores[core].complete_read(miss);
            let wc = &mut thread_worst_case[core];
            *wc = (*wc).max(c.latency());
        });
        for core in &mut self.cores {
            core.tick(now);
        }
        for t in 0..self.cores.len() {
            if !self.cores[t].is_asleep() {
                self.issue_memory_ops(t, now);
                self.cores[t].sleep_if_blocked();
            }
        }
        if now.is_multiple_of(DRAM_CYCLE) {
            let System { cores, prev_stall, stalls, memory, .. } = self;
            for ((core, prev), delta) in
                cores.iter().zip(prev_stall.iter_mut()).zip(stalls.iter_mut())
            {
                let total = core.stats().mem_stall_cycles;
                *delta = total - *prev;
                *prev = total;
            }
            memory.report_stall_cycles(stalls, now);
        }
    }

    fn issue_memory_ops(&mut self, t: usize, now: u64) {
        let thread = ThreadId(t);
        // Reads: issue as many ready misses as MSHRs and buffers allow.
        while let Some((line, miss)) = self.cores[t].pending_read() {
            let (addr, priority) = (self.memory.decode(line), self.cfg.priority_of(t));
            if !self.memory.enqueue(thread, addr, RequestKind::Read, now, priority, Some((t, miss)))
            {
                break;
            }
            self.cores[t].read_issued(miss);
        }
        // Writes: drain the store queue into the write buffers.
        while let Some(line) = self.cores[t].pending_write() {
            let (addr, priority) = (self.memory.decode(line), self.cfg.priority_of(t));
            if !self.memory.enqueue(thread, addr, RequestKind::Write, now, priority, None) {
                break;
            }
            self.cores[t].write_issued();
        }
    }
}

impl System {
    /// FNV-1a digest over everything that must match for a snapshot to be
    /// restorable into this system: the full configuration, the scheduler
    /// on each channel, and the caller-supplied workload label.
    pub(crate) fn state_fingerprint(&self, label: &str) -> u64 {
        let mut fp = parbs_snap::Fingerprint::new();
        fp.update_str(&format!("{:?}", self.cfg));
        for name in self.memory.scheduler_names() {
            fp.update_str(name);
        }
        fp.update_str(label);
        fp.digest()
    }

    /// Serializes the full mutable state of the system: per-thread stall
    /// feedback and worst-case latency, every core, then the memory side.
    /// Fails with [`parbs_snap::SnapError::Unsupported`] when a controller
    /// has a protocol checker or event sink attached.
    pub(crate) fn save_state(
        &self,
        w: &mut parbs_snap::SnapWriter,
    ) -> Result<(), parbs_snap::SnapError> {
        w.put(&self.prev_stall);
        w.put(&self.thread_worst_case);
        for core in &self.cores {
            core.save_state(w);
        }
        self.memory.save_state(w)
    }

    /// Restores state saved by [`System::save_state`] into a freshly built
    /// system of the same shape (same config, streams, and scheduler).
    /// Rejects per-thread tables whose length is not the core count, stall
    /// feedback ahead of a core's stall count, in-flight reads of a core
    /// this system does not have, and queued requests of a thread it does
    /// not have: each would index out of range or underflow later in the
    /// run.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let n = self.cores.len();
        let mismatch = |what, found: usize| parbs_snap::SnapError::Mismatch {
            what,
            expected: n as u64,
            found: found as u64,
        };
        let prev_stall: Vec<u64> = r.get()?;
        if prev_stall.len() != n {
            return Err(mismatch("system core count", prev_stall.len()));
        }
        let thread_worst_case: Vec<u64> = r.get()?;
        if thread_worst_case.len() != n {
            return Err(mismatch("per-thread worst-case latency count", thread_worst_case.len()));
        }
        for core in &mut self.cores {
            core.restore_state(r)?;
        }
        // Stall feedback reports each core's count since the last report.
        for (core, &prev) in self.cores.iter().zip(&prev_stall) {
            let total = core.stats().mem_stall_cycles;
            if prev > total {
                let what = "memory stall cycles of a core, at least the last reported";
                return Err(parbs_snap::SnapError::Mismatch { what, expected: total, found: prev });
            }
        }
        self.prev_stall = prev_stall;
        self.thread_worst_case = thread_worst_case;
        self.memory.restore_state(r, n)?;
        match self.memory.carried().map(|&(core, _)| core).find(|&core| core >= n) {
            Some(core) => {
                Err(mismatch("core count implied by an in-flight read", core.saturating_add(1)))
            }
            None => Ok(()),
        }
    }
}

parbs_snap::snap!(ThreadRunStats {
    instructions,
    cycles,
    mem_stall_cycles,
    dram_reads,
    dram_writes,
    blp,
    read_hit_rate,
    worst_case_latency,
});

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::{by_name, SyntheticStream};

    fn quick_cfg(cores: usize, target: u64) -> SimConfig {
        SimConfig { target_instructions: target, ..SimConfig::for_cores(cores) }
    }

    fn streams(names: &[&str], cfg: &SimConfig) -> Vec<Box<dyn InstructionStream>> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(SyntheticStream::new(
                    by_name(n).unwrap(),
                    cfg.geometry(),
                    cfg.seed,
                    i as u64,
                )) as Box<dyn InstructionStream>
            })
            .collect()
    }

    #[test]
    fn single_thread_run_completes() {
        let cfg = quick_cfg(1, 3_000);
        let s = streams(&["mcf"], &cfg);
        let mut sys = System::new(cfg, s, &SchedulerKind::FrFcfs);
        let r = sys.run();
        assert!(!r.timed_out);
        assert!(r.threads[0].instructions >= 3_000);
        assert!(r.threads[0].dram_reads > 100, "mcf is memory intensive");
        assert!(r.threads[0].blp > 2.0, "mcf has high BLP alone: {}", r.threads[0].blp);
    }

    #[test]
    fn four_thread_shared_run_completes() {
        let cfg = quick_cfg(4, 2_000);
        let s = streams(&["libquantum", "mcf", "GemsFDTD", "xalancbmk"], &cfg);
        let mut sys = System::new(cfg, s, &SchedulerKind::FrFcfs);
        let r = sys.run();
        assert!(!r.timed_out);
        assert_eq!(r.threads.len(), 4);
        for t in &r.threads {
            assert!(t.instructions >= 2_000);
            assert!(t.mem_stall_cycles > 0);
        }
        assert!(r.worst_case_latency > 0);
        assert!(r.row_hit_rate > 0.0 && r.row_hit_rate < 1.0);
    }

    #[test]
    fn shared_run_is_slower_than_alone() {
        let alone_cfg = quick_cfg(1, 3_000);
        let mut alone =
            System::new(alone_cfg.clone(), streams(&["mcf"], &alone_cfg), &SchedulerKind::FrFcfs);
        let ra = alone.run();
        let shared_cfg = quick_cfg(4, 3_000);
        let mut shared = System::new(
            shared_cfg.clone(),
            streams(&["mcf", "libquantum", "matlab", "lbm"], &shared_cfg),
            &SchedulerKind::FrFcfs,
        );
        let rs = shared.run();
        assert!(
            rs.threads[0].mcpi() > ra.threads[0].mcpi(),
            "interference must slow mcf down: shared {} vs alone {}",
            rs.threads[0].mcpi(),
            ra.threads[0].mcpi()
        );
    }

    #[test]
    fn all_five_schedulers_run_a_mix() {
        for kind in SchedulerKind::paper_five() {
            let cfg = quick_cfg(4, 1_000);
            let s = streams(&["libquantum", "mcf", "hmmer", "h264ref"], &cfg);
            let mut sys = System::new(cfg, s, &kind);
            let r = sys.run();
            assert!(!r.timed_out, "{} timed out", kind.name());
        }
    }

    #[test]
    fn high_row_locality_benchmark_sees_high_hit_rate_alone() {
        let cfg = quick_cfg(1, 4_000);
        let s = streams(&["libquantum"], &cfg);
        let mut sys = System::new(cfg, s, &SchedulerKind::FrFcfs);
        let r = sys.run();
        assert!(
            r.row_hit_rate > 0.85,
            "libquantum targets 98% row hits, measured {:.2}",
            r.row_hit_rate
        );
    }

    const CS1: [&str; 4] = ["libquantum", "mcf", "GemsFDTD", "xalancbmk"];

    fn parbs(names: &[&str], target: u64) -> System {
        let cfg = quick_cfg(names.len(), target);
        let s = streams(names, &cfg);
        System::new(cfg, s, &SchedulerKind::ParBs(Default::default()))
    }

    #[test]
    fn a_checkpoint_inside_an_all_asleep_span_matches_the_one_cycle_loop() {
        // Step one cycle at a time to a cycle strictly inside a span in
        // which every core sleeps: neither a DRAM edge nor a completion.
        let mut stepped = parbs(&CS1, 2_000);
        let mut progress = stepped.begin_run();
        while stepped.step_cycle(&mut progress) {
            let now = progress.cycles();
            if now > 2_000
                && stepped.cores.iter().all(Core::is_asleep)
                && stepped.memory.next_event(now) > now
            {
                break;
            }
        }
        let cut = progress.cycles();
        assert!(progress.threads_remaining() > 0, "CS1 has all-asleep spans");
        let want = stepped.save_checkpoint(&progress, "cs1").unwrap();

        // `step_cycles` jumps into that span and stops at its budget.
        let mut jumped = parbs(&CS1, 2_000);
        let mut progress = jumped.begin_run();
        assert_eq!(jumped.step_cycles(&mut progress, cut), cut);
        assert!(jumped.cores.iter().all(Core::is_asleep));
        let got = jumped.save_checkpoint(&progress, "cs1").unwrap();
        assert_eq!(got, want, "checkpoint bytes at cycle {cut}");

        let mut resumed = parbs(&CS1, 2_000);
        let mut progress = resumed.resume(&got, "cs1").unwrap();
        assert!(resumed.cores.iter().all(|c| !c.is_asleep()), "sleep is not restored");
        resumed.step_cycles(&mut progress, u64::MAX);
        assert_eq!(resumed.finish_run(progress), parbs(&CS1, 2_000).run());
    }

    #[test]
    fn resume_rejects_an_in_flight_read_of_a_missing_core() {
        let mut sys = parbs(&CS1, 1_000);
        let progress = sys.begin_run();
        let addr = sys.memory.decode(7);
        let (kind, priority) = (RequestKind::Read, Default::default());
        assert!(sys.memory.enqueue(ThreadId(0), addr, kind, 0, priority, Some((4, MissId(0)))));
        // The blob is sealed with a valid digest: only the index check
        // stands between it and an out-of-range core.
        let blob = sys.save_checkpoint(&progress, "cs1").unwrap();
        let err = parbs(&CS1, 1_000).resume(&blob, "cs1").unwrap_err();
        assert_eq!(
            err,
            crate::CheckpointError::Corrupt(parbs_snap::SnapError::Mismatch {
                what: "core count implied by an in-flight read",
                expected: 4,
                found: 5,
            })
        );
    }

    #[test]
    fn resume_rejects_queued_requests_outside_the_channel_or_the_cores() {
        let cases = [
            (ThreadId(4), 0, "thread count implied by a queued request", 4, 5),
            (ThreadId(0), 8, "channel bank count implied by a queued request", 8, 9),
        ];
        for (thread, bank, what, expected, found) in cases {
            let mut sys = parbs(&CS1, 1_000);
            let progress = sys.begin_run();
            let addr = parbs_dram::LineAddr { bank, ..sys.memory.decode(7) };
            let (kind, priority) = (RequestKind::Write, Default::default());
            assert!(sys.memory.enqueue(thread, addr, kind, 0, priority, None));
            let blob = sys.save_checkpoint(&progress, "cs1").unwrap();
            let err = parbs(&CS1, 1_000).resume(&blob, "cs1").unwrap_err();
            let want = parbs_snap::SnapError::Mismatch { what, expected, found };
            assert_eq!(err, crate::CheckpointError::Corrupt(want));
        }
    }

    #[test]
    fn resume_rejects_a_worst_case_table_of_the_wrong_length() {
        let mut sys = parbs(&CS1, 1_000);
        let progress = sys.begin_run();
        sys.thread_worst_case.push(0);
        let blob = sys.save_checkpoint(&progress, "cs1").unwrap();
        let err = parbs(&CS1, 1_000).resume(&blob, "cs1").unwrap_err();
        assert!(
            matches!(
                err,
                crate::CheckpointError::Corrupt(parbs_snap::SnapError::Mismatch {
                    what: "per-thread worst-case latency count",
                    expected: 4,
                    found: 5,
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn geometry_matches_multi_channel_decoding() {
        let cfg = quick_cfg(8, 500);
        let names = ["mcf", "lbm", "milc", "astar", "hmmer", "bzip2", "gcc", "sjeng"];
        let s = streams(&names, &cfg);
        let mut sys = System::new(cfg, s, &SchedulerKind::FrFcfs);
        let r = sys.run();
        assert!(!r.timed_out);
        assert_eq!(r.threads.len(), 8);
    }
}
