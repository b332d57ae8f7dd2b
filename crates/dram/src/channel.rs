//! One DRAM channel: ranks of banks plus the shared command/address/data
//! buses. Rank-level constraints (`t_rrd`, `t_faw`, `t_rfc`) are tracked
//! per rank; channel-level constraints (`t_ccd`, `t_wtr`, the data bus and
//! its `t_rtrs` rank-switch penalty) are shared.

use crate::{Bank, Command, CommandKind, ThreadId, TimingParams};

/// A channel with its banks and bus-occupancy bookkeeping. The controller
/// issues at most one command per DRAM cycle on the channel's command bus;
/// the channel tracks everything needed to decide whether a command is
/// *ready* (issuable without violating a timing or bus constraint).
///
/// Banks are indexed **channel-globally** and rank-major: rank `r` owns
/// banks `r * banks_per_rank .. (r + 1) * banks_per_rank`.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Bank>,
    timing: TimingParams,
    banks_per_rank: usize,
    /// Data bus is busy until this cycle (transfers are fully serialized;
    /// with `t_ccd ≤ t_burst` the bus is the binding constraint).
    data_bus_free_at: u64,
    /// Rank that drove the last data transfer (a following transfer from a
    /// different rank pays `t_rtrs` on top of `data_bus_free_at`).
    last_data_rank: Option<usize>,
    /// Earliest next column command (tCCD after the previous one, tWTR after
    /// write data) — channel-wide, the command/data buses are shared.
    earliest_column: u64,
    /// Earliest next activate per rank (tRRD is a rank constraint).
    earliest_activate: Vec<u64>,
    /// Issue times of recent activates per rank (tFAW sliding window).
    recent_activates: Vec<Vec<u64>>,
    /// Per-rank refresh blackout: the rank's banks are blocked until this
    /// cycle, other ranks keep operating.
    refresh_until: Vec<u64>,
}

impl Channel {
    /// Creates a single-rank channel with `banks` idle banks — the paper's
    /// Table 2 shape and the convenience constructor used throughout unit
    /// tests. Multi-rank channels use [`Channel::with_ranks`].
    #[must_use]
    pub fn new(banks: usize, timing: TimingParams) -> Self {
        Channel::with_ranks(1, banks, timing)
    }

    /// Creates a channel of `ranks` ranks × `banks_per_rank` idle banks.
    #[must_use]
    pub fn with_ranks(ranks: usize, banks_per_rank: usize, timing: TimingParams) -> Self {
        assert!(ranks > 0 && banks_per_rank > 0, "a channel needs at least one bank");
        Channel {
            banks: vec![Bank::new(); ranks * banks_per_rank],
            timing,
            banks_per_rank,
            data_bus_free_at: 0,
            last_data_rank: None,
            earliest_column: 0,
            earliest_activate: vec![0; ranks],
            recent_activates: vec![Vec::new(); ranks],
            refresh_until: vec![0; ranks],
        }
    }

    /// Number of banks (channel-global, over all ranks).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Number of ranks.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.refresh_until.len()
    }

    /// Banks per rank.
    #[must_use]
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// The rank owning channel-global bank index `bank`.
    #[must_use]
    pub fn rank_of(&self, bank: usize) -> usize {
        bank / self.banks_per_rank
    }

    /// Immutable access to a bank (channel-global index).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// The timing parameters of this channel.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The rank a command addresses: explicit for refresh, derived from the
    /// global bank index otherwise.
    fn cmd_rank(&self, cmd: &Command) -> usize {
        if cmd.kind == CommandKind::Refresh {
            cmd.rank
        } else {
            self.rank_of(cmd.bank)
        }
    }

    /// True if `cmd` can legally issue at cycle `now` (all per-bank,
    /// per-rank and channel-level constraints satisfied, data bus available
    /// for column commands).
    #[must_use]
    pub fn can_issue(&self, cmd: &Command, now: u64) -> bool {
        self.earliest_issue(cmd).is_some_and(|at| now >= at)
    }

    /// The first cycle at which `cmd` can legally issue if no other command
    /// issues first, or `None` when the bank state rules it out (an activate
    /// to an open bank, a column command that misses the open row, a
    /// precharge to a closed bank). Not rounded to the command clock.
    #[must_use]
    pub fn earliest_issue(&self, cmd: &Command) -> Option<u64> {
        let rank = self.cmd_rank(cmd);
        let blackout = self.refresh_until[rank];
        if cmd.kind == CommandKind::Refresh {
            // Refresh needs a quiet data bus; it force-precharges the rank.
            return Some(blackout.max(self.data_bus_free_at));
        }
        let bank = &self.banks[cmd.bank];
        let gate = blackout.max(bank.earliest_issue(cmd.kind));
        match cmd.kind {
            CommandKind::Activate if bank.open_row().is_none() => {
                Some(gate.max(self.earliest_activate[rank]).max(self.faw_end(rank)))
            }
            CommandKind::Read | CommandKind::Write if bank.is_row_hit(cmd.row) => {
                let cas = if cmd.kind == CommandKind::Write {
                    self.timing.t_cwl
                } else {
                    self.timing.t_cl
                };
                // The data starts `cas` after the command, on a free bus.
                let bus = self.data_bus_free_at + self.rank_switch_penalty(rank);
                Some(gate.max(self.earliest_column).max(bus.saturating_sub(cas)))
            }
            CommandKind::Precharge if bank.open_row().is_some() => Some(gate),
            _ => None,
        }
    }

    /// Extra data-bus gap before `rank` may drive data: `t_rtrs` when the
    /// previous transfer came from a different rank, 0 otherwise.
    fn rank_switch_penalty(&self, rank: usize) -> u64 {
        match self.last_data_rank {
            Some(last) if last != rank => self.timing.t_rtrs,
            _ => 0,
        }
    }

    /// Issues `cmd` at `now` on behalf of `thread`, updating bank and bus
    /// state. For column commands, returns the `[start, end)` data interval;
    /// for row commands returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if `cmd` is not issuable; call [`Channel::can_issue`] first.
    /// The check is always on — a command issues at most once per DRAM
    /// cycle, so the cost is negligible, and a silent protocol violation in
    /// a release-mode run would invalidate every downstream result.
    pub fn issue(&mut self, cmd: &Command, thread: ThreadId, now: u64) -> Option<(u64, u64)> {
        assert!(self.can_issue(cmd, now), "command {cmd:?} not ready at {now}");
        let timing = self.timing;
        let rank = self.cmd_rank(cmd);
        match cmd.kind {
            CommandKind::Activate => {
                self.banks[cmd.bank].activate(cmd.row, thread, now, &timing);
                self.earliest_activate[rank] = self.earliest_activate[rank].max(now + timing.t_rrd);
                if timing.t_faw > 0 {
                    self.recent_activates[rank].push(now);
                    let faw = timing.t_faw;
                    self.recent_activates[rank].retain(|&t| t + faw > now);
                }
                None
            }
            CommandKind::Read | CommandKind::Write => {
                let is_write = cmd.kind == CommandKind::Write;
                let (start, end) = self.banks[cmd.bank].column(is_write, thread, now, &timing);
                self.data_bus_free_at = self.data_bus_free_at.max(end);
                self.last_data_rank = Some(rank);
                self.earliest_column = self.earliest_column.max(now + timing.t_ccd);
                if is_write {
                    // Write-to-read turnaround, modeled conservatively as
                    // gating *all* column commands channel-wide (the rule
                    // table's `tWTR` rule states the same semantics).
                    self.earliest_column = self.earliest_column.max(end + timing.t_wtr);
                }
                Some((start, end))
            }
            CommandKind::Precharge => {
                self.banks[cmd.bank].precharge(thread, now, &timing);
                None
            }
            CommandKind::Refresh => {
                self.refresh_rank(rank, now);
                None
            }
        }
    }

    /// The first cycle another activate fits into `rank`'s four-activate
    /// window: an activate at `t` occupies the window until `t + t_faw`, so
    /// the fourth-latest one's window end. The recent activates are in issue
    /// order, which tRRD keeps non-decreasing.
    fn faw_end(&self, rank: usize) -> u64 {
        let recent = &self.recent_activates[rank];
        match recent.len().checked_sub(4) {
            Some(i) if self.timing.t_faw > 0 => recent[i] + self.timing.t_faw,
            _ => 0,
        }
    }

    /// Begins an all-bank refresh of `rank` at `now`: every bank of the rank
    /// must be precharged (open rows are force-closed, as a controller would
    /// precharge-all first) and the rank is unavailable for `t_rfc`. Other
    /// ranks are unaffected — tRFC is a rank-level constraint.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn refresh_rank(&mut self, rank: usize, now: u64) {
        let t = self.timing;
        let lo = rank * self.banks_per_rank;
        for b in &mut self.banks[lo..lo + self.banks_per_rank] {
            b.force_precharge_for_refresh(now, &t);
        }
        self.refresh_until[rank] = self.refresh_until[rank].max(now + t.t_rfc);
        self.earliest_activate[rank] = self.earliest_activate[rank].max(now + t.t_rfc);
    }

    /// Cycle until which `rank` is blocked by an in-progress refresh.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn refresh_until_rank(&self, rank: usize) -> u64 {
        self.refresh_until[rank]
    }

    /// Number of banks with an in-flight data transfer at `now` — the
    /// instantaneous bank-level parallelism of the channel.
    #[must_use]
    pub fn banks_servicing(&self, now: u64) -> usize {
        self.banks.iter().filter(|b| b.is_servicing(now)).count()
    }

    /// Number of banks servicing requests of `thread` at `now`.
    #[must_use]
    pub fn banks_servicing_thread(&self, thread: ThreadId, now: u64) -> usize {
        self.banks.iter().filter(|b| b.servicing_thread(now) == Some(thread)).count()
    }
}

impl Channel {
    /// Serializes the channel's mutable state (bank state machines, bus and
    /// per-rank timing windows). Geometry and timing parameters are **not**
    /// written — a restored channel is rebuilt from the same configuration
    /// first and [`Channel::restore_state`] validates the shape matches.
    pub fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.banks);
        w.u64(self.data_bus_free_at);
        w.put(&self.last_data_rank.map(|r| r as u64));
        w.u64(self.earliest_column);
        w.put(&self.earliest_activate);
        w.put(&self.recent_activates);
        w.put(&self.refresh_until);
    }

    /// Restores state captured by [`Channel::save_state`] into a channel
    /// built with the same constructor arguments.
    ///
    /// # Errors
    ///
    /// [`parbs_snap::SnapError::Mismatch`] if the snapshot's bank or rank
    /// count differs from this channel's shape; decoding errors propagate.
    pub fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let banks: Vec<Bank> = r.get()?;
        if banks.len() != self.banks.len() {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "channel bank count",
                expected: self.banks.len() as u64,
                found: banks.len() as u64,
            });
        }
        let data_bus_free_at = r.u64()?;
        let last_data_rank: Option<u64> = r.get()?;
        let earliest_column = r.u64()?;
        let earliest_activate: Vec<u64> = r.get()?;
        let recent_activates: Vec<Vec<u64>> = r.get()?;
        let refresh_until: Vec<u64> = r.get()?;
        if earliest_activate.len() != self.earliest_activate.len()
            || recent_activates.len() != self.recent_activates.len()
            || refresh_until.len() != self.refresh_until.len()
        {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "channel rank count",
                expected: self.refresh_until.len() as u64,
                found: refresh_until.len() as u64,
            });
        }
        self.banks = banks;
        self.data_bus_free_at = data_bus_free_at;
        self.last_data_rank = last_data_rank.map(|r| r as usize);
        self.earliest_column = earliest_column;
        self.earliest_activate = earliest_activate;
        self.recent_activates = recent_activates;
        self.refresh_until = refresh_until;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestId;

    fn cmd(kind: CommandKind, bank: usize, row: u64) -> Command {
        Command { kind, rank: 0, bank, row, col: 0, request: RequestId(0) }
    }

    /// Command targeting a 2-rank × 8-bank channel (rank derived from the
    /// global bank index).
    fn cmd2(kind: CommandKind, bank: usize, row: u64) -> Command {
        Command { kind, rank: bank / 8, bank, row, col: 0, request: RequestId(0) }
    }

    #[test]
    fn activate_then_read_same_bank() {
        let mut ch = Channel::new(8, TimingParams::ddr2_800());
        let a = cmd(CommandKind::Activate, 0, 3);
        assert!(ch.can_issue(&a, 0));
        ch.issue(&a, ThreadId(0), 0);
        let r = cmd(CommandKind::Read, 0, 3);
        assert!(!ch.can_issue(&r, 10), "tRCD must gate the read");
        assert!(ch.can_issue(&r, 60));
        let (start, end) = ch.issue(&r, ThreadId(0), 60).unwrap();
        assert_eq!((start, end), (120, 160));
    }

    #[test]
    fn trrd_gates_back_to_back_activates() {
        let mut ch = Channel::new(8, TimingParams::ddr2_800());
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        let a1 = cmd(CommandKind::Activate, 1, 1);
        assert!(!ch.can_issue(&a1, 10));
        assert!(ch.can_issue(&a1, 30));
    }

    #[test]
    fn trrd_is_per_rank() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::with_ranks(2, 8, t);
        ch.issue(&cmd2(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        // Same rank: tRRD applies. Other rank: no activate-to-activate gap.
        assert!(!ch.can_issue(&cmd2(CommandKind::Activate, 1, 1), 10));
        assert!(ch.can_issue(&cmd2(CommandKind::Activate, 8, 1), 10), "rank 1 has its own tRRD");
    }

    #[test]
    fn tfaw_is_per_rank() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::with_ranks(2, 8, t);
        for (i, now) in (0..4).map(|i| (i, i as u64 * t.t_rrd)) {
            ch.issue(&cmd2(CommandKind::Activate, i, 1), ThreadId(0), now);
        }
        let after = 4 * t.t_rrd;
        assert!(
            !ch.can_issue(&cmd2(CommandKind::Activate, 4, 1), after),
            "fifth activate in rank 0's tFAW window must be blocked"
        );
        assert!(
            ch.can_issue(&cmd2(CommandKind::Activate, 8, 1), after),
            "rank 1's window is empty — its activate must be legal"
        );
    }

    #[test]
    fn data_bus_serializes_reads_across_banks() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::new(8, t);
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        ch.issue(&cmd(CommandKind::Activate, 1, 1), ThreadId(0), 30);
        ch.issue(&cmd(CommandKind::Read, 0, 1), ThreadId(0), 60);
        // Bank 1's read is tRCD-ready at 90, tCCD-ready at 80, but its data
        // (start = now + tCL) must not start before bank 0's data ends (160).
        let r1 = cmd(CommandKind::Read, 1, 1);
        assert!(!ch.can_issue(&r1, 90), "data bus busy until 160");
        assert!(ch.can_issue(&r1, 100), "data start 160 == bus free");
        let (start, _) = ch.issue(&r1, ThreadId(0), 100).unwrap();
        assert_eq!(start, 160);
    }

    #[test]
    fn rank_switch_pays_trtrs_on_the_data_bus() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::with_ranks(2, 8, t);
        ch.issue(&cmd2(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        ch.issue(&cmd2(CommandKind::Activate, 8, 1), ThreadId(0), 0);
        ch.issue(&cmd2(CommandKind::Read, 0, 1), ThreadId(0), 60);
        // Bank 0 (rank 0) data: [120, 160). A rank-1 read's data must start
        // at ≥ 160 + tRTRS; a same-rank read would clear the bus at 160.
        let same_rank = cmd2(CommandKind::Read, 1, 1);
        let cross_rank = cmd2(CommandKind::Read, 8, 1);
        ch.issue(&cmd2(CommandKind::Activate, 1, 1), ThreadId(0), 30);
        assert!(ch.can_issue(&same_rank, 100), "same-rank data start 160 == bus free");
        assert!(
            !ch.can_issue(&cross_rank, 100),
            "cross-rank data start 160 < 160 + tRTRS ({})",
            t.t_rtrs
        );
        assert!(ch.can_issue(&cross_rank, 100 + t.t_rtrs), "after the switch gap it is legal");
        let (start, _) = ch.issue(&cross_rank, ThreadId(0), 100 + t.t_rtrs).unwrap();
        assert_eq!(start, 160 + t.t_rtrs);
    }

    #[test]
    fn column_to_wrong_row_is_illegal() {
        let mut ch = Channel::new(8, TimingParams::ddr2_800());
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        assert!(!ch.can_issue(&cmd(CommandKind::Read, 0, 2), 60));
    }

    #[test]
    fn precharge_to_closed_bank_is_illegal() {
        let ch = Channel::new(8, TimingParams::ddr2_800());
        assert!(!ch.can_issue(&cmd(CommandKind::Precharge, 0, 0), 1_000));
    }

    #[test]
    fn write_to_read_turnaround() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::new(8, t);
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        ch.issue(&cmd(CommandKind::Activate, 1, 1), ThreadId(0), 30);
        let (_, wend) = ch.issue(&cmd(CommandKind::Write, 0, 1), ThreadId(0), 60).unwrap();
        // Next read must wait for write data end + tWTR.
        let r = cmd(CommandKind::Read, 1, 1);
        assert!(!ch.can_issue(&r, wend));
        assert!(ch.can_issue(&r, wend + t.t_wtr));
    }

    #[test]
    fn twtr_gates_all_columns_after_write_data() {
        // The model applies the write turnaround conservatively to every
        // following column command channel-wide — the same semantics the
        // rule table's `tWTR` rule declares, so gating and checker agree by
        // construction.
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::new(8, t);
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        ch.issue(&cmd(CommandKind::Activate, 1, 1), ThreadId(0), 30);
        ch.issue(&cmd(CommandKind::Write, 0, 1), ThreadId(0), 60);
        // First write's data: [110, 150); columns blocked until 150 + tWTR.
        let w1 = cmd(CommandKind::Write, 1, 1);
        let r1 = cmd(CommandKind::Read, 1, 1);
        assert!(!ch.can_issue(&w1, 170));
        assert!(!ch.can_issue(&r1, 170));
        assert!(ch.can_issue(&w1, 180));
        assert!(ch.can_issue(&r1, 180));
    }

    #[test]
    fn refresh_in_rank0_does_not_stall_rank1() {
        // The satellite fix: tRFC is a rank-level constraint, so a refresh
        // of rank 0 must leave rank 1 free to activate immediately.
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::with_ranks(2, 8, t);
        ch.issue(&Command::refresh(0, RequestId(u64::MAX)), ThreadId(0), 0);
        let in_blackout = t.t_rfc / 2;
        assert!(
            !ch.can_issue(&cmd2(CommandKind::Activate, 0, 1), in_blackout),
            "rank 0 is in its tRFC blackout"
        );
        assert!(
            ch.can_issue(&cmd2(CommandKind::Activate, 8, 1), in_blackout),
            "rank 1 must not be stalled by rank 0's refresh"
        );
        assert_eq!(ch.refresh_until_rank(0), t.t_rfc);
        assert_eq!(ch.refresh_until_rank(1), 0);
    }

    #[test]
    fn refresh_closes_open_rows() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::new(8, t);
        ch.issue(&cmd(CommandKind::Activate, 0, 5), ThreadId(0), 0);
        assert_eq!(ch.bank(0).open_row(), Some(5));
        ch.refresh_rank(0, 1_000);
        assert_eq!(ch.bank(0).open_row(), None);
        assert!(ch.refresh_until_rank(0) >= 1_000 + t.t_rfc);
        // Nothing can issue during the refresh.
        assert!(!ch.can_issue(&cmd(CommandKind::Activate, 0, 5), 1_000 + t.t_rfc - 10));
        assert!(ch.can_issue(&cmd(CommandKind::Activate, 0, 5), 1_000 + t.t_rfc));
    }

    #[test]
    fn blp_counts_in_flight_banks() {
        let t = TimingParams::ddr2_800();
        let mut ch = Channel::new(8, t);
        ch.issue(&cmd(CommandKind::Activate, 0, 1), ThreadId(0), 0);
        ch.issue(&cmd(CommandKind::Activate, 1, 1), ThreadId(1), 30);
        ch.issue(&cmd(CommandKind::Read, 0, 1), ThreadId(0), 60);
        ch.issue(&cmd(CommandKind::Read, 1, 1), ThreadId(1), 100);
        // Bank0 data: [120,160); bank1 data: [160,200). Transfers serialize,
        // but both banks count as servicing while their data is in flight.
        assert_eq!(ch.banks_servicing(130), 2);
        assert_eq!(ch.banks_servicing_thread(ThreadId(0), 130), 1);
        assert_eq!(ch.banks_servicing_thread(ThreadId(1), 130), 1);
        assert_eq!(ch.banks_servicing(170), 1);
    }
}
