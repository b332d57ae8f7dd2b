//! The per-channel memory controller: request buffers + scheduler + command
//! issue logic.

use parbs_obs::{Event, EventSink, ServiceClass};

use crate::stats::ControllerStats;
use crate::trace_sink::obs_cmd_kind;
use crate::{
    Command, CommandKind, DramConfig, MemoryScheduler, ProtocolChecker, Request, RequestId,
    RequestKind, SchedView, ThreadId, DRAM_CYCLE,
};

/// A serviced request: delivered by [`Controller::tick`] once the data
/// transfer and the fixed front-end latency have elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completion {
    /// The request that finished.
    pub request: RequestId,
    /// Its issuing thread.
    pub thread: ThreadId,
    /// Read or write.
    pub kind: RequestKind,
    /// Cycle the request entered the buffer.
    pub arrival: u64,
    /// Cycle the requesting core observes the data.
    pub finish: u64,
}

impl Completion {
    /// End-to-end latency of the request in processor cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }
}

/// Error returned when a request cannot enter a full buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueError {
    /// Which buffer was full.
    pub kind: RequestKind,
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RequestKind::Read => write!(f, "read request buffer is full"),
            RequestKind::Write => write!(f, "write buffer is full"),
        }
    }
}

impl std::error::Error for EnqueueError {}

/// One DRAM channel's controller: a read request buffer, a write buffer, a
/// pluggable [`MemoryScheduler`] for reads, and FR-FCFS write draining.
///
/// Reads are prioritized over writes because loads block the cores' forward
/// progress (Section 7.2); writes drain when the write buffer crosses its
/// high-water mark or when no reads are pending.
pub struct Controller {
    config: DramConfig,
    channel: crate::Channel,
    scheduler: Box<dyn MemoryScheduler>,
    reads: Vec<Request>,
    writes: Vec<Request>,
    pending: Vec<Completion>,
    stats: ControllerStats,
    checker: Option<ProtocolChecker>,
    /// Requests whose first command has been issued (used to classify each
    /// request as row hit / closed / conflict exactly once).
    touched: std::collections::HashSet<RequestId>,
    /// Write-drain hysteresis: set when the write buffer crosses the high
    /// watermark, cleared when it drains to the low watermark.
    draining: bool,
    /// Cycle of the last issued all-bank refresh, per rank.
    last_refresh: Vec<u64>,
    /// Attached observability sink (`None` on the tracing-off hot path:
    /// instrumentation then costs one branch and constructs nothing).
    sink: Option<Box<dyn EventSink>>,
    /// Scratch buffer for collecting scheduler-emitted events each slot.
    sched_buf: Vec<Event>,
    /// Last emitted `(busy_banks, queued_reads)` bus sample, for
    /// emit-on-change deduplication.
    last_bus_sample: (u32, u32),
    /// Cached packed priority keys, parallel to `reads` while
    /// `read_keys_dirty` is false (see the key-caching contract on
    /// [`MemoryScheduler`]). Larger key = serviced first.
    read_keys: Vec<u128>,
    /// Set on any event that can change read priorities (arrival,
    /// bank-state-changing command, `pre_schedule` reporting a change,
    /// external scheduler mutation); cleared by recomputing `read_keys`.
    read_keys_dirty: bool,
    /// Test shim: route scheduling decisions through the O(n log n)
    /// comparator sort instead of cached keys.
    comparator_path: bool,
    /// Fault-injection shim: when false, the controller never prioritizes
    /// (or issues) refreshes — the seeded "dropped tREFI rule" bug that the
    /// refresh model checker must catch. Always true in production.
    refresh_gating: bool,
    /// Reusable buffer for inline write-side FR-FCFS keys.
    write_keys: Vec<u128>,
    /// Reusable selection scratch: requests already tried this decision.
    tried: Vec<bool>,
    /// Reusable per-thread bank bitmasks for [`Controller::sample_blp`].
    blp_masks: Vec<u64>,
    /// Threads with a non-zero mask in `blp_masks`, in first-touch order.
    blp_touched: Vec<usize>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("scheduler", &self.scheduler.name())
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Controller {
    /// Creates a controller for one channel of `config` driven by
    /// `scheduler`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DramConfig::validate`].
    #[must_use]
    pub fn new(config: DramConfig, scheduler: Box<dyn MemoryScheduler>) -> Self {
        config.validate().expect("invalid DRAM configuration");
        let channel = crate::Channel::with_ranks(
            config.ranks_per_channel(),
            config.banks_per_rank(),
            config.timing,
        );
        Controller {
            channel,
            scheduler,
            reads: Vec::new(),
            writes: Vec::new(),
            pending: Vec::new(),
            stats: ControllerStats::default(),
            checker: None,
            touched: std::collections::HashSet::new(),
            draining: false,
            last_refresh: vec![0; config.ranks_per_channel()],
            sink: None,
            sched_buf: Vec::new(),
            last_bus_sample: (0, 0),
            read_keys: Vec::new(),
            read_keys_dirty: true,
            comparator_path: false,
            refresh_gating: true,
            write_keys: Vec::new(),
            tried: Vec::new(),
            blp_masks: Vec::new(),
            blp_touched: Vec::new(),
            config,
        }
    }

    /// Like [`Controller::new`] but verifies every issued command against a
    /// [`ProtocolChecker`]; any timing violation panics. Intended for tests.
    #[must_use]
    pub fn with_checker(config: DramConfig, scheduler: Box<dyn MemoryScheduler>) -> Self {
        let mut c = Self::new(config, scheduler);
        c.attach_checker();
        c
    }

    /// Verifies every command from now on against a fresh
    /// [`ProtocolChecker`], as [`Controller::with_checker`] does.
    ///
    /// # Panics
    ///
    /// Panics if the controller has issued a command: the checker tracks
    /// bank state from the channel's first command.
    pub fn attach_checker(&mut self) {
        assert_eq!(self.stats.commands_issued, 0, "attach the checker before the first command");
        let (ranks, banks) = (self.config.ranks_per_channel(), self.config.banks_per_rank());
        self.checker = Some(ProtocolChecker::with_ranks(ranks, banks, self.config.timing));
    }

    /// The scheduler's display name.
    #[must_use]
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// Mutable access to the scheduling policy (to configure weights etc.).
    /// Conservatively invalidates the cached priority keys, since the caller
    /// may mutate priority-relevant state.
    pub fn scheduler_mut(&mut self) -> &mut dyn MemoryScheduler {
        self.read_keys_dirty = true;
        &mut *self.scheduler
    }

    /// Test/verification shim: when enabled, scheduling decisions run
    /// through the original full-queue comparator sort
    /// ([`MemoryScheduler::compare`]) instead of cached priority keys. Both
    /// paths must produce identical command streams; the keyed path is the
    /// default because it avoids the per-cycle O(n log n) sort.
    pub fn set_comparator_path(&mut self, enabled: bool) {
        self.comparator_path = enabled;
        self.read_keys_dirty = true;
    }

    /// Fault-injection shim for the refresh model checker: when disabled,
    /// the controller drops refresh scheduling entirely — no rank is ever
    /// refreshed, so a busy channel violates the tREFI deadline rule. Used
    /// by `parbs-sim check-timing --refresh` to cross-validate that its
    /// abstract refresh model and the concrete controller agree on both the
    /// correct behavior and the seeded bug. Always enabled in production.
    pub fn set_refresh_gating(&mut self, enabled: bool) {
        self.refresh_gating = enabled;
    }

    /// Refresh bookkeeping exposed to the analysis oracle: the cycle of the
    /// most recent all-bank refresh, per rank (0 = never refreshed since
    /// construction — the boot anchor the tREFI deadline measures from).
    #[must_use]
    pub fn last_refresh_cycles(&self) -> &[u64] {
        &self.last_refresh
    }

    /// The packed read-priority keys at cycle `now`, index-aligned with
    /// [`Controller::reads`] (recomputing them first if the cache is
    /// stale). Introspection hook for checkpoint/restore validation: the
    /// key-caching contract requires these to be identical before a
    /// snapshot and after the matching resume.
    pub fn priority_keys(&mut self, now: u64) -> Vec<u128> {
        if self.read_keys_dirty {
            self.refresh_read_keys(now);
        }
        self.read_keys.clone()
    }

    /// The channel state (open rows, bus occupancy).
    #[must_use]
    pub fn channel(&self) -> &crate::Channel {
        &self.channel
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Currently queued read requests (oldest-to-newest arrival order).
    #[must_use]
    pub fn reads(&self) -> &[Request] {
        &self.reads
    }

    /// True if another read can be accepted.
    #[must_use]
    pub fn can_accept_read(&self) -> bool {
        self.reads.len() < self.config.request_buffer_cap
    }

    /// True if another write can be accepted.
    #[must_use]
    pub fn can_accept_write(&self) -> bool {
        self.writes.len() < self.config.write_buffer_cap
    }

    /// Inserts a request into the appropriate buffer.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError`] if the target buffer is full; the caller
    /// (core model) must retry later, which models back-pressure into the
    /// cores' MSHRs.
    pub fn try_enqueue(&mut self, req: Request) -> Result<(), EnqueueError> {
        match req.kind {
            RequestKind::Read => {
                if !self.can_accept_read() {
                    return Err(EnqueueError { kind: RequestKind::Read });
                }
                self.scheduler.on_arrival(&req, req.arrival);
                self.stats.reads_received += 1;
                if self.observing() {
                    self.emit(&Event::Enqueued {
                        at: req.arrival,
                        request: req.id.0,
                        thread: req.thread.0,
                        write: false,
                        rank: self.channel.rank_of(req.addr.bank),
                        bank: req.addr.bank,
                        row: req.addr.row,
                    });
                }
                self.reads.push(req);
                self.read_keys_dirty = true;
            }
            RequestKind::Write => {
                if !self.can_accept_write() {
                    return Err(EnqueueError { kind: RequestKind::Write });
                }
                self.stats.writes_received += 1;
                if self.observing() {
                    self.emit(&Event::Enqueued {
                        at: req.arrival,
                        request: req.id.0,
                        thread: req.thread.0,
                        write: true,
                        rank: self.channel.rank_of(req.addr.bank),
                        bank: req.addr.bank,
                        row: req.addr.row,
                    });
                }
                self.writes.push(req);
            }
        }
        Ok(())
    }

    /// Attaches an observability sink: from now on every request-lifecycle
    /// occurrence (enqueue, batch formation/marking/ranking, command issue,
    /// completion, write-drain transitions, refresh, bus samples) is pushed
    /// into it as a [`parbs_obs::Event`]. Returns the previously attached
    /// sink, if any.
    ///
    /// With no sink attached (the default) the instrumentation costs one
    /// `Option` branch per site — no event is built, nothing allocates.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        let prev = self.sink.replace(sink);
        self.scheduler.set_observing(true);
        prev
    }

    /// Detaches and returns the observability sink, first flushing any
    /// events still buffered inside the scheduler.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.flush_scheduler_events();
        let sink = self.sink.take();
        self.scheduler.set_observing(self.observing());
        sink
    }

    /// True while a sink is attached.
    #[must_use]
    fn observing(&self) -> bool {
        self.sink.is_some()
    }

    /// Pushes one event to the attached sink. Callers guard with
    /// [`Controller::observing`] so events are never built when disabled.
    fn emit(&mut self, event: &Event) {
        if let Some(sink) = &mut self.sink {
            sink.record(event);
        }
    }

    /// Collects events buffered by the scheduler (batch formation, marking,
    /// ranking) and forwards them to the sink.
    fn flush_scheduler_events(&mut self) {
        if !self.observing() {
            return;
        }
        let mut buf = std::mem::take(&mut self.sched_buf);
        self.scheduler.drain_events(&mut buf);
        if let Some(sink) = &mut self.sink {
            for event in &buf {
                sink.record(event);
            }
        }
        buf.clear();
        self.sched_buf = buf;
    }

    /// Forwards per-thread memory-stall feedback to the scheduler (used by
    /// STFM). `stall_cycles[t]` is thread `t`'s stall-cycle increment since
    /// the last call.
    pub fn report_stall_cycles(&mut self, stall_cycles: &[u64], now: u64) {
        self.scheduler.on_stall_cycles(stall_cycles, now);
        self.read_keys_dirty = true;
    }

    /// Advances the controller to processor cycle `now`.
    ///
    /// Completions whose data (plus front-end latency) has arrived by `now`
    /// are appended to `out`. A scheduling decision — at most one DRAM
    /// command on the channel's command bus — is made on DRAM-cycle
    /// boundaries (`now % DRAM_CYCLE == 0`).
    pub fn tick(&mut self, now: u64, out: &mut Vec<Completion>) {
        // Deliver finished requests.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].finish <= now {
                out.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !now.is_multiple_of(DRAM_CYCLE) {
            return;
        }
        self.sample_blp(now);
        if self.observing() {
            // Bank/bus occupancy sample, deduplicated on change so idle
            // stretches don't inflate the stream.
            let sample = (self.channel.banks_servicing(now) as u32, self.reads.len() as u32);
            if sample != self.last_bus_sample {
                self.last_bus_sample = sample;
                self.emit(&Event::BusSample {
                    at: now,
                    busy_banks: sample.0,
                    queued_reads: sample.1,
                    queued_writes: self.writes.len() as u32,
                });
            }
        }
        {
            let view = SchedView { channel: &self.channel, now };
            if self.scheduler.pre_schedule(&mut self.reads, &view) {
                self.read_keys_dirty = true;
            }
        }
        self.flush_scheduler_events();
        // Refresh: one all-bank REF per rank every t_refi. Once any rank is
        // due, the controller stops issuing new commands until the data bus
        // drains and the most-overdue rank's refresh can begin — bounded
        // deferral, guaranteed progress. Other ranks keep their open rows:
        // only the refreshed rank's banks are closed and blacked out.
        let t_refi = self.config.timing.t_refi;
        if t_refi > 0 && self.refresh_gating {
            let due = (0..self.channel.rank_count())
                .filter(|&r| now >= self.last_refresh[r] + t_refi)
                .min_by_key(|&r| (self.last_refresh[r], r));
            if let Some(rank) = due {
                // Always-on refresh-path checks (the bank/channel issue
                // paths got the same treatment in their own files): a rank
                // picked for refresh must exist and must actually be due —
                // a stale `last_refresh` entry here would silently skip
                // refreshes and break the tREFI deadline downstream.
                assert!(rank < self.channel.rank_count(), "refresh rank {rank} out of range");
                assert!(
                    now >= self.last_refresh[rank] + t_refi,
                    "rank {rank} selected for refresh {} cycles early",
                    self.last_refresh[rank] + t_refi - now
                );
                let cmd = Command::refresh(rank, RequestId(u64::MAX));
                if self.channel.can_issue(&cmd, now) {
                    if let Some(checker) = &mut self.checker {
                        checker
                            .observe(&cmd, now)
                            .unwrap_or_else(|v| panic!("DRAM protocol violation: {v}"));
                    }
                    if self.observing() {
                        self.emit(&Event::Refresh { at: now, rank });
                    }
                    self.channel.refresh_rank(rank, now);
                    self.stats.refreshes += 1;
                    self.stats.commands_issued += 1;
                    assert!(
                        now > self.last_refresh[rank] || self.last_refresh[rank] == 0,
                        "refresh bookkeeping must advance monotonically"
                    );
                    self.last_refresh[rank] = now;
                    // Refresh closes the rank's rows: row-hit bits changed.
                    self.read_keys_dirty = true;
                }
                return;
            }
        }
        // Write-drain hysteresis: start draining at the high watermark and
        // keep going until the buffer is largely empty, so writes batch into
        // efficient bursts instead of constantly stealing read bandwidth.
        let high = self.config.write_drain_watermark * self.config.write_buffer_cap as f64;
        let low = high * 0.33;
        let was_draining = self.draining;
        if self.writes.len() as f64 >= high {
            self.draining = true;
        } else if (self.writes.len() as f64) <= low {
            self.draining = false;
        }
        if self.draining != was_draining && self.observing() {
            self.emit(&Event::WriteDrain {
                at: now,
                start: self.draining,
                queued: self.writes.len() as u32,
            });
        }
        let drain = self.draining || (self.reads.is_empty() && !self.writes.is_empty());
        if drain {
            if !self.try_issue(RequestKind::Write, now) {
                self.try_issue(RequestKind::Read, now);
            }
        } else if !self.try_issue(RequestKind::Read, now) && self.reads.is_empty() {
            self.try_issue(RequestKind::Write, now);
        }
    }

    /// Convenience driver: ticks cycle-by-cycle from `*now` until all queued
    /// and in-flight requests have completed (or `limit` cycles elapsed),
    /// collecting completions. Returns the completions in finish order.
    ///
    /// # Panics
    ///
    /// Panics if the controller fails to drain within `limit` cycles, which
    /// indicates a scheduling deadlock.
    pub fn run_to_drain(&mut self, now: &mut u64, limit: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        let deadline = *now + limit;
        while !(self.reads.is_empty() && self.writes.is_empty() && self.pending.is_empty()) {
            assert!(*now < deadline, "controller failed to drain within {limit} cycles");
            self.tick(*now, &mut out);
            *now += 1;
        }
        out.sort_by_key(|c| c.finish);
        out
    }

    /// Samples bank-level parallelism: a thread's request counts toward the
    /// banks working for it from the moment it is outstanding at the
    /// controller until its data transfer ends (the paper's "requests being
    /// serviced in the DRAM banks", measured per Chou et al.'s MLP
    /// definition).
    fn sample_blp(&mut self, now: u64) {
        // Per-thread bank bitmasks (banks_per_channel ≤ 64) in reusable,
        // thread-indexed buffers: O(requests + banks) per sample instead of
        // a linear scan of the pair list per request.
        let masks = &mut self.blp_masks;
        let touched = &mut self.blp_touched;
        let mut note = |thread: ThreadId, bank: usize| {
            if masks.len() <= thread.0 {
                masks.resize(thread.0 + 1, 0);
            }
            if masks[thread.0] == 0 {
                touched.push(thread.0);
            }
            masks[thread.0] |= 1 << bank;
        };
        for r in &self.reads {
            note(r.thread, r.addr.bank);
        }
        for b in 0..self.channel.bank_count() {
            if let Some(t) = self.channel.bank(b).servicing_thread(now) {
                note(t, b);
            }
        }
        for &t in self.blp_touched.iter() {
            let mask = self.blp_masks[t];
            self.stats.record_thread_blp(ThreadId(t), mask.count_ones() as usize);
            self.blp_masks[t] = 0;
        }
        self.blp_touched.clear();
    }

    /// Attempts to issue one command for the given queue side. Returns true
    /// if a command was placed on the command bus.
    ///
    /// The hot path walks the queue in descending cached-priority-key order
    /// via repeated max-selection — no per-cycle sort, no virtual dispatch
    /// per comparison. The retired comparator sort is kept behind
    /// [`Controller::set_comparator_path`] as the reference implementation;
    /// both paths must make identical decisions (priority keys and
    /// [`MemoryScheduler::compare`] are both injective total orders, so
    /// there are no ties for stability to resolve).
    fn try_issue(&mut self, side: RequestKind, now: u64) -> bool {
        let is_write = side == RequestKind::Write;
        let empty = if is_write { self.writes.is_empty() } else { self.reads.is_empty() };
        if empty {
            return false;
        }
        let decision = if self.comparator_path {
            self.select_by_comparator(is_write, now)
        } else {
            self.select_by_key(is_write, now)
        };
        let Some((i, cmd)) = decision else { return false };
        self.apply(i, cmd, is_write, now);
        true
    }

    /// Recomputes the cached read priority keys from the scheduler.
    fn refresh_read_keys(&mut self, now: u64) {
        let Controller { read_keys, reads, scheduler, channel, .. } = self;
        let view = SchedView { channel, now };
        read_keys.clear();
        read_keys.extend(reads.iter().map(|r| scheduler.priority_key(r, &view)));
        self.read_keys_dirty = false;
    }

    /// The write-side FR-FCFS key (row hit first, then oldest), packed the
    /// same way as read keys: larger = drained first.
    fn write_key(hit: bool, id: u64) -> u128 {
        (u128::from(hit) << 64) | u128::from(u64::MAX - id)
    }

    /// Which banks a queued command may not close: initialized from queued
    /// read row-hits when draining writes (reads outrank all writes), then
    /// extended with the banks of higher-priority column commands during the
    /// priority walk.
    fn initial_protected_banks(&self, is_write: bool) -> u64 {
        let mut protected = 0u64;
        if is_write {
            for r in &self.reads {
                if self.channel.bank(r.addr.bank).is_row_hit(r.addr.row) {
                    protected |= 1 << r.addr.bank;
                }
            }
        }
        protected
    }

    /// Whether `req`'s next command can issue right now given the banks
    /// protected by higher-priority requests; updates `protected_banks` for
    /// the requests walked after it.
    fn ready_command(
        &self,
        req: &Request,
        is_write: bool,
        now: u64,
        protected_banks: &mut u64,
    ) -> Option<Command> {
        let bank = req.addr.bank;
        let needed = self.channel.bank(bank).needed_command(req.addr.row, is_write);
        if needed.is_column() {
            *protected_banks |= 1 << bank;
        } else if needed == CommandKind::Precharge {
            if *protected_banks & (1 << bank) != 0 {
                return None;
            }
            // Open-page grace: a recently accessed row is speculatively
            // held open in anticipation of further hits, bounded by a
            // total open time so conflicts cannot starve. Requests of
            // the current batch (marked) override the speculation —
            // batch progress outranks locality speculation just as the
            // BS rule outranks the RH rule.
            let b = self.channel.bank(bank);
            let grace = self.config.timing.t_row_grace;
            if !req.marked
                && grace > 0
                && now < b.last_column_at() + grace
                && now < b.last_activate_at() + 3 * grace
            {
                return None;
            }
        }
        let row = match needed {
            CommandKind::Precharge => self.channel.bank(bank).open_row().unwrap_or(0),
            _ => req.addr.row,
        };
        let cmd = Command {
            kind: needed,
            rank: self.channel.rank_of(bank),
            bank,
            row,
            col: req.addr.col,
            request: req.id,
        };
        self.channel.can_issue(&cmd, now).then_some(cmd)
    }

    /// Keyed selection: repeatedly pick the highest-keyed untried request
    /// and stop at the first whose command is ready. Read keys come from the
    /// event-maintained cache; write keys are computed inline (the write
    /// queue's FR-FCFS keys depend only on bank state, and writes drain in
    /// rare bursts).
    fn select_by_key(&mut self, is_write: bool, now: u64) -> Option<(usize, Command)> {
        if is_write {
            let Controller { write_keys, writes, channel, .. } = self;
            let view = SchedView { channel, now };
            write_keys.clear();
            write_keys.extend(writes.iter().map(|r| Self::write_key(view.is_row_hit(r), r.id.0)));
        } else if self.read_keys_dirty {
            self.refresh_read_keys(now);
        }
        let mut tried = std::mem::take(&mut self.tried);
        let queue = if is_write { &self.writes } else { &self.reads };
        let keys = if is_write { &self.write_keys } else { &self.read_keys };
        // Always-on (not debug_assert): a key cache that drifted out of
        // alignment with its queue silently scrambles priorities — the
        // exact failure class the key-caching contract exists to prevent.
        assert_eq!(
            keys.len(),
            queue.len(),
            "priority-key cache out of sync with the {} queue",
            if is_write { "write" } else { "read" }
        );
        tried.clear();
        tried.resize(queue.len(), false);
        let mut protected_banks = self.initial_protected_banks(is_write);
        let mut decision = None;
        let mut remaining = queue.len();
        while remaining > 0 {
            let mut best: Option<(usize, u128)> = None;
            for (i, &k) in keys.iter().enumerate() {
                if !tried[i] && best.is_none_or(|(_, bk)| k > bk) {
                    best = Some((i, k));
                }
            }
            let (i, _) = best.expect("remaining > 0 guarantees an untried request");
            tried[i] = true;
            remaining -= 1;
            if let Some(cmd) = self.ready_command(&queue[i], is_write, now, &mut protected_banks) {
                decision = Some((i, cmd));
                break;
            }
        }
        self.tried = tried;
        decision
    }

    /// Reference selection: full-queue comparator sort (scheduler-defined
    /// for reads, FR-FCFS for writes), then a walk in priority order. Kept
    /// only for validating the keyed path.
    fn select_by_comparator(&mut self, is_write: bool, now: u64) -> Option<(usize, Command)> {
        let queue = if is_write { &self.writes } else { &self.reads };
        let mut order: Vec<usize> = (0..queue.len()).collect();
        {
            let view = SchedView { channel: &self.channel, now };
            if is_write {
                order.sort_by(|&i, &j| {
                    let (a, b) = (&queue[i], &queue[j]);
                    let hit_a = view.is_row_hit(a);
                    let hit_b = view.is_row_hit(b);
                    hit_b.cmp(&hit_a).then(a.id.cmp(&b.id))
                });
            } else {
                order.sort_by(|&i, &j| self.scheduler.compare(&queue[i], &queue[j], &view));
            }
        }
        let mut protected_banks = self.initial_protected_banks(is_write);
        for &i in &order {
            if let Some(cmd) = self.ready_command(&queue[i], is_write, now, &mut protected_banks) {
                return Some((i, cmd));
            }
        }
        None
    }

    /// Issues `cmd` for the request at index `i` of the chosen queue and
    /// performs all bookkeeping (stats, checker, completion scheduling).
    fn apply(&mut self, i: usize, cmd: Command, is_write: bool, now: u64) {
        if let Some(checker) = &mut self.checker {
            checker.observe(&cmd, now).unwrap_or_else(|v| panic!("DRAM protocol violation: {v}"));
        }
        let req = if is_write { self.writes[i].clone() } else { self.reads[i].clone() };
        let mut service = None;
        if self.touched.insert(req.id) {
            match cmd.kind {
                CommandKind::Read | CommandKind::Write => self.stats.row_hits += 1,
                CommandKind::Activate => self.stats.row_closed += 1,
                CommandKind::Precharge => self.stats.row_conflicts += 1,
                CommandKind::Refresh => unreachable!("refresh never serves a request"),
            }
            service = Some(match cmd.kind {
                CommandKind::Read | CommandKind::Write => ServiceClass::Hit,
                CommandKind::Activate => ServiceClass::Closed,
                _ => ServiceClass::Conflict,
            });
            if !is_write {
                self.stats.record_read_category(req.thread, cmd.kind);
            }
        }
        let data = self.channel.issue(&cmd, req.thread, now);
        if self.observing() {
            self.emit(&Event::CommandIssued {
                at: now,
                request: req.id.0,
                thread: req.thread.0,
                kind: obs_cmd_kind(cmd.kind).expect("refresh never reaches apply"),
                rank: cmd.rank,
                bank: cmd.bank,
                row: cmd.row,
                col: cmd.col,
                marked: req.marked,
                service,
                data_end: data.map(|(_, end)| end),
            });
        }
        self.scheduler.on_command(&cmd, &req, now);
        self.stats.commands_issued += 1;
        // Activate/precharge change a bank's open row, which feeds every
        // row-hit-aware priority key; invalidate the read-key cache.
        // Column commands leave bank state untouched (any priority change
        // they trigger inside the scheduler must surface via pre_schedule).
        if matches!(cmd.kind, CommandKind::Activate | CommandKind::Precharge) {
            self.read_keys_dirty = true;
        }
        if let Some((_, end)) = data {
            let finish = end + self.config.timing.front_latency;
            self.touched.remove(&req.id);
            if self.observing() {
                self.emit(&Event::Completed {
                    at: now,
                    request: req.id.0,
                    thread: req.thread.0,
                    write: is_write,
                    arrival: req.arrival,
                    finish,
                });
            }
            let completion = Completion {
                request: req.id,
                thread: req.thread,
                kind: req.kind,
                arrival: req.arrival,
                finish,
            };
            self.pending.push(completion);
            if is_write {
                self.writes.swap_remove(i);
                self.stats.writes_completed += 1;
            } else {
                self.scheduler.on_complete(&req, now);
                self.reads.swap_remove(i);
                // Mirror the removal in the parallel key cache so clean keys
                // stay index-aligned with `reads`.
                if !self.read_keys_dirty {
                    self.read_keys.swap_remove(i);
                }
                self.stats.reads_completed += 1;
                self.stats.record_read_latency(finish - req.arrival);
            }
        }
    }
}

impl parbs_snap::Snap for Completion {
    fn save(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.request);
        w.put(&self.thread);
        w.put(&self.kind);
        w.u64(self.arrival);
        w.u64(self.finish);
    }

    fn load(r: &mut parbs_snap::SnapReader<'_>) -> Result<Self, parbs_snap::SnapError> {
        Ok(Completion {
            request: r.get()?,
            thread: r.get()?,
            kind: r.get()?,
            arrival: r.u64()?,
            finish: r.u64()?,
        })
    }
}

impl Controller {
    /// True if this controller can be checkpointed: protocol checkers and
    /// observability sinks hold state the snapshot format does not cover, so
    /// their presence makes [`Controller::save_state`] and
    /// [`Controller::restore_state`] fail with
    /// [`parbs_snap::SnapError::Unsupported`].
    #[must_use]
    pub fn snapshot_supported(&self) -> bool {
        self.checker.is_none() && self.sink.is_none()
    }

    /// Serializes the controller's mutable state: both request buffers,
    /// in-flight completions, statistics, write-drain hysteresis, refresh
    /// bookkeeping, channel timing windows and the scheduling policy's
    /// internal state. Scratch caches (priority keys, selection buffers) are
    /// excluded — they are rebuilt on demand after restore.
    ///
    /// # Errors
    ///
    /// [`parbs_snap::SnapError::Unsupported`] when a protocol checker or an
    /// event sink is attached (see [`Controller::snapshot_supported`]).
    pub fn save_state(&self, w: &mut parbs_snap::SnapWriter) -> Result<(), parbs_snap::SnapError> {
        if !self.snapshot_supported() {
            return Err(parbs_snap::SnapError::Unsupported(
                "controller has a protocol checker or event sink attached",
            ));
        }
        w.put(&self.reads);
        w.put(&self.writes);
        w.put(&self.pending);
        w.put(&self.stats);
        // HashSet iteration order is nondeterministic; canonicalize.
        let mut touched: Vec<RequestId> = self.touched.iter().copied().collect();
        touched.sort_unstable();
        w.put(&touched);
        w.bool(self.draining);
        w.put(&self.last_refresh);
        self.channel.save_state(w);
        self.scheduler.save_state(w);
        Ok(())
    }

    /// Restores state captured by [`Controller::save_state`] into a
    /// controller built with the same configuration and scheduler kind. The
    /// cached priority keys are invalidated, not restored: the first
    /// scheduling slot after resume recomputes them from the restored
    /// scheduler state, so the command stream continues bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`parbs_snap::SnapError::Unsupported`] when a checker or sink is
    /// attached; decoding and shape-mismatch errors propagate.
    pub fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        if !self.snapshot_supported() {
            return Err(parbs_snap::SnapError::Unsupported(
                "controller has a protocol checker or event sink attached",
            ));
        }
        self.reads = r.get()?;
        self.writes = r.get()?;
        self.pending = r.get()?;
        self.stats = r.get()?;
        let touched: Vec<RequestId> = r.get()?;
        self.touched = touched.into_iter().collect();
        self.draining = r.bool()?;
        let last_refresh: Vec<u64> = r.get()?;
        if last_refresh.len() != self.last_refresh.len() {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "controller rank count",
                expected: self.last_refresh.len() as u64,
                found: last_refresh.len() as u64,
            });
        }
        self.last_refresh = last_refresh;
        self.channel.restore_state(r)?;
        self.scheduler.restore_state(r)?;
        self.read_keys_dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcfsScheduler, LineAddr};

    fn read(id: u64, thread: usize, bank: usize, row: u64, col: u64, at: u64) -> Request {
        Request::new(
            id,
            ThreadId(thread),
            LineAddr { channel: 0, bank, row, col },
            RequestKind::Read,
            at,
        )
    }

    fn drain(ctrl: &mut Controller) -> Vec<Completion> {
        let mut now = 0;
        ctrl.run_to_drain(&mut now, 1_000_000)
    }

    #[test]
    fn single_closed_read_latency() {
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 1);
        // ACT@0, RD@tRCD, data end tRCD+tCL+tBURST, + front latency.
        let t = DramConfig::default().timing;
        assert_eq!(done[0].finish, t.t_rcd + t.t_cl + t.t_burst + t.front_latency);
        assert_eq!(ctrl.stats().row_closed, 1);
    }

    #[test]
    fn row_hit_second_read_is_faster() {
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        ctrl.try_enqueue(read(1, 0, 0, 1, 1, 0)).unwrap();
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 2);
        assert_eq!(ctrl.stats().row_hits, 1);
        assert_eq!(ctrl.stats().row_closed, 1);
        let gap = done[1].finish - done[0].finish;
        assert!(gap <= 60, "row hit should pipeline behind the first read, gap = {gap}");
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        ctrl.try_enqueue(read(1, 0, 0, 2, 0, 0)).unwrap();
        let done = drain(&mut ctrl);
        assert_eq!(ctrl.stats().row_conflicts, 1);
        let t = DramConfig::default().timing;
        // Second request must wait ≥ tRAS before its precharge can begin.
        assert!(done[1].finish >= t.t_ras + t.t_rp + t.t_rcd + t.t_cl);
    }

    #[test]
    fn two_banks_overlap_fig1() {
        // Figure 1: two requests of one thread to different banks overlap,
        // exposing roughly a single bank-access latency to the core.
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        ctrl.try_enqueue(read(1, 0, 1, 1, 0, 0)).unwrap();
        let done = drain(&mut ctrl);
        let t = DramConfig::default().timing;
        let single = t.t_rcd + t.t_cl + t.t_burst + t.front_latency;
        assert_eq!(done[0].finish, single);
        // The second finishes one burst later, NOT one full access later.
        assert!(done[1].finish <= single + t.t_burst + DRAM_CYCLE);
    }

    #[test]
    fn full_read_buffer_rejects() {
        let cfg = DramConfig { request_buffer_cap: 2, ..DramConfig::default() };
        let mut ctrl = Controller::new(cfg, Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        ctrl.try_enqueue(read(1, 0, 0, 1, 1, 0)).unwrap();
        let err = ctrl.try_enqueue(read(2, 0, 0, 1, 2, 0)).unwrap_err();
        assert_eq!(err.kind, RequestKind::Read);
        assert!(!ctrl.can_accept_read());
    }

    #[test]
    fn writes_wait_for_reads() {
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        let w = Request::new(
            0,
            ThreadId(0),
            LineAddr { channel: 0, bank: 0, row: 9, col: 0 },
            RequestKind::Write,
            0,
        );
        ctrl.try_enqueue(w).unwrap();
        ctrl.try_enqueue(read(1, 0, 1, 1, 0, 0)).unwrap();
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 2);
        let read_done = done.iter().find(|c| c.kind == RequestKind::Read).unwrap();
        let write_done = done.iter().find(|c| c.kind == RequestKind::Write).unwrap();
        assert!(read_done.finish < write_done.finish, "read must be prioritized over write");
    }

    #[test]
    fn lower_priority_conflict_cannot_precharge_hot_row() {
        // One thread hammers row hits on bank 0; an older row-conflict
        // request from another thread must not close the row out from under
        // an FR-FCFS-style policy that ranks hits first. With FCFS (pure
        // age order) the conflict request IS higher priority, so this test
        // uses the protection logic only as far as: a row-hit that is
        // higher-priority protects its bank.
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        let mut now = 0;
        let done = ctrl.run_to_drain(&mut now, 100_000);
        assert_eq!(done.len(), 1);
        // Row 1 is still open; a hit (younger) and a conflict (older is
        // impossible now) — enqueue hit first so FCFS ranks it higher.
        ctrl.try_enqueue(read(1, 0, 0, 1, 1, now)).unwrap();
        ctrl.try_enqueue(read(2, 1, 0, 2, 0, now)).unwrap();
        let done = ctrl.run_to_drain(&mut now, 1_000_000);
        assert_eq!(done[0].request, RequestId(1), "hit serviced before conflict");
        assert_eq!(ctrl.stats().row_hits, 1);
    }

    #[test]
    fn event_sink_sees_the_full_request_lifecycle() {
        use parbs_obs::CollectSink;
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.set_event_sink(Box::new(CollectSink::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        ctrl.try_enqueue(read(1, 1, 0, 2, 0, 0)).unwrap();
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 2);
        let sink = ctrl.take_event_sink().expect("sink was attached");
        let Ok(collect) = parbs_obs::downcast_sink::<CollectSink>(sink) else {
            panic!("sink is the CollectSink we attached");
        };
        let events = collect.into_events();
        let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
        assert_eq!(count("enqueued"), 2);
        assert_eq!(count("completed"), 2);
        // Req 0 closed-bank (ACT+RD), req 1 conflict (PRE+ACT+RD).
        assert_eq!(count("command_issued"), 5);
        assert!(count("bus_sample") > 0, "occupancy changes were sampled");
        // Events are non-decreasing in time.
        let ats: Vec<u64> = events.iter().map(parbs_obs::Event::at).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "{ats:?}");
        // Service classification rides on the first command of each request.
        let classes: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                parbs_obs::Event::CommandIssued { service: Some(c), .. } => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(classes, [parbs_obs::ServiceClass::Closed, parbs_obs::ServiceClass::Conflict]);
    }

    #[test]
    fn command_traces_ride_the_event_bus() {
        use crate::CommandTraceSink;
        let mut ctrl = Controller::new(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.set_event_sink(Box::new(CommandTraceSink::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        drain(&mut ctrl);
        let sink = ctrl.take_event_sink().expect("sink was attached");
        let Ok(trace_sink) = parbs_obs::downcast_sink::<CommandTraceSink>(sink) else {
            panic!("sink is the CommandTraceSink we attached");
        };
        let via_bus = trace_sink.into_trace();
        assert_eq!(via_bus.len(), 2, "ACT + RD");

        // No sink: take_event_sink returns nothing, nothing was recorded.
        let mut ctrl = Controller::new(DramConfig::default(), Box::new(FcfsScheduler::new()));
        ctrl.try_enqueue(read(0, 0, 0, 1, 0, 0)).unwrap();
        drain(&mut ctrl);
        assert!(ctrl.take_event_sink().is_none());
    }

    #[test]
    fn two_rank_controller_services_both_ranks_under_the_checker() {
        let mut cfg = DramConfig::default();
        cfg.geometry.ranks_per_channel = 2;
        let banks = cfg.banks_per_channel();
        let mut ctrl = Controller::with_checker(cfg, Box::new(FcfsScheduler::new()));
        for id in 0..32 {
            let bank = (id as usize) % banks;
            ctrl.try_enqueue(read(id, (id % 4) as usize, bank, id / 4, id % 32, 0)).unwrap();
        }
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 32);
        assert_eq!(ctrl.channel().rank_count(), 2);
        assert_eq!(ctrl.stats().reads_completed, 32);
    }

    #[test]
    fn run_to_drain_reports_all_requests() {
        let mut ctrl =
            Controller::with_checker(DramConfig::default(), Box::new(FcfsScheduler::new()));
        for id in 0..20 {
            ctrl.try_enqueue(read(id, (id % 4) as usize, (id % 8) as usize, id / 8, id % 32, 0))
                .unwrap();
        }
        let done = drain(&mut ctrl);
        assert_eq!(done.len(), 20);
        assert_eq!(ctrl.stats().reads_completed, 20);
        assert!(ctrl.stats().read_latency.max() > 0);
    }
}
