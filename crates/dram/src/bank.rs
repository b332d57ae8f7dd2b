//! Per-bank state machine with timing bookkeeping.
//!
//! A bank is a two-dimensional array with a single row buffer. Servicing a
//! request requires a subset of {precharge, activate, read/write} depending
//! on the row-buffer state — the three access categories of Section 3:
//! row hit (`RD` only), row closed (`ACT` + `RD`), row conflict
//! (`PRE` + `ACT` + `RD`).

use crate::{CommandKind, ThreadId, TimingParams};

/// Row-buffer state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankState {
    /// No open row (after precharge).
    #[default]
    Closed,
    /// A row is open in the row buffer.
    Open(u64),
}

/// One DRAM bank: row-buffer state plus earliest-issue times for each
/// command class, updated as commands are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bank {
    state: BankState,
    earliest_activate: u64,
    earliest_column: u64,
    earliest_precharge: u64,
    last_activate_at: u64,
    /// Cycle of the most recent column command (for open-page grace policy).
    last_column_at: u64,
    /// End of the in-flight data transfer, for service/BLP tracking.
    service_end: u64,
    /// Thread whose request is currently being serviced, for BLP tracking.
    service_thread: Option<ThreadId>,
}

impl Bank {
    /// A closed, idle bank with all timing gates already satisfied.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        match self.state {
            BankState::Open(row) => Some(row),
            BankState::Closed => None,
        }
    }

    /// True if a request for `row` would be a row hit.
    #[must_use]
    pub fn is_row_hit(&self, row: u64) -> bool {
        self.open_row() == Some(row)
    }

    /// The next command a request for `row` needs on this bank.
    #[must_use]
    pub fn needed_command(&self, row: u64, is_write: bool) -> CommandKind {
        match self.state {
            BankState::Open(open) if open == row => {
                if is_write {
                    CommandKind::Write
                } else {
                    CommandKind::Read
                }
            }
            BankState::Open(_) => CommandKind::Precharge,
            BankState::Closed => CommandKind::Activate,
        }
    }

    /// Earliest cycle at which a command of `kind` may issue to this bank,
    /// considering per-bank constraints only (channel constraints are the
    /// [`crate::Channel`]'s job).
    #[must_use]
    pub fn earliest_issue(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Activate => self.earliest_activate,
            CommandKind::Read | CommandKind::Write => self.earliest_column,
            CommandKind::Precharge => self.earliest_precharge,
            CommandKind::Refresh => 0,
        }
    }

    /// Cycle of the most recent activate, used by NFQ's priority-inversion
    /// prevention (a row may not be held open past a `t_ras` threshold).
    #[must_use]
    pub fn last_activate_at(&self) -> u64 {
        self.last_activate_at
    }

    /// Cycle of the most recent column command on this bank (0 if none),
    /// used by the controller's open-page grace policy.
    #[must_use]
    pub fn last_column_at(&self) -> u64 {
        self.last_column_at
    }

    /// Applies an `ACT row` issued at `now` on behalf of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not closed or the activate gate has not
    /// elapsed — the controller must only issue legal commands. The checks
    /// are always on (release builds included): they are two integer
    /// comparisons per row command, and a silently-violated timing
    /// constraint would corrupt every downstream measurement.
    pub fn activate(&mut self, row: u64, thread: ThreadId, now: u64, t: &TimingParams) {
        assert_eq!(self.state, BankState::Closed, "activate on non-closed bank");
        assert!(now >= self.earliest_activate, "tRP/tRC violated");
        self.state = BankState::Open(row);
        self.last_activate_at = now;
        self.earliest_column = self.earliest_column.max(now + t.t_rcd);
        self.earliest_precharge = self.earliest_precharge.max(now + t.t_ras);
        self.earliest_activate = self.earliest_activate.max(now + t.t_rc);
        // The bank is servicing this request from the activate on; estimate
        // completion so BLP sampling sees the full access, not just the
        // data transfer (the column command will refine the estimate).
        self.service_end = self.service_end.max(now + t.t_rcd + t.t_cl + t.t_burst);
        self.service_thread = Some(thread);
    }

    /// Applies a column command (`RD`/`WR`) issued at `now`; returns the
    /// `[start, end)` data-bus interval of the transfer.
    ///
    /// # Panics
    ///
    /// Panics if no row is open or `t_rcd` has not elapsed (always on, like
    /// [`Bank::activate`]).
    pub fn column(
        &mut self,
        is_write: bool,
        thread: ThreadId,
        now: u64,
        t: &TimingParams,
    ) -> (u64, u64) {
        assert!(matches!(self.state, BankState::Open(_)), "column on closed bank");
        assert!(now >= self.earliest_column, "tRCD violated");
        let start = now + if is_write { t.t_cwl } else { t.t_cl };
        let end = start + t.t_burst;
        if is_write {
            // Write recovery: the bank may not precharge until tWR after the
            // last data beat.
            self.earliest_precharge = self.earliest_precharge.max(end + t.t_wr);
        } else {
            self.earliest_precharge = self.earliest_precharge.max(now + t.t_rtp);
        }
        self.last_column_at = now;
        self.service_end = self.service_end.max(end);
        self.service_thread = Some(thread);
        (start, end)
    }

    /// Applies a `PRE` issued at `now` on behalf of `thread` (the thread
    /// whose row-conflict request triggered the precharge).
    ///
    /// # Panics
    ///
    /// Panics if the bank is closed or `t_ras`/`t_rtp`/`t_wr` gates have
    /// not elapsed (always on, like [`Bank::activate`]).
    pub fn precharge(&mut self, thread: ThreadId, now: u64, t: &TimingParams) {
        assert!(matches!(self.state, BankState::Open(_)), "precharge on closed bank");
        assert!(now >= self.earliest_precharge, "tRAS/tRTP/tWR violated");
        self.state = BankState::Closed;
        self.earliest_activate = self.earliest_activate.max(now + t.t_rp);
        self.service_end = self.service_end.max(now + t.t_rp + t.t_rcd + t.t_cl + t.t_burst);
        self.service_thread = Some(thread);
    }

    /// Closes the bank for an all-bank refresh: the row is lost and the
    /// next activate must wait out the refresh cycle (the caller blocks the
    /// whole channel for `t_rfc`).
    pub(crate) fn force_precharge_for_refresh(&mut self, now: u64, t: &TimingParams) {
        self.state = BankState::Closed;
        self.earliest_activate = self.earliest_activate.max(now + t.t_rfc);
    }

    /// True while a column command's data transfer is still in flight —
    /// the "being serviced" predicate of the paper's BLP definition.
    #[must_use]
    pub fn is_servicing(&self, now: u64) -> bool {
        now < self.service_end
    }

    /// The end of the bank's in-flight (or estimated) data transfer.
    #[must_use]
    pub fn service_end(&self) -> u64 {
        self.service_end
    }

    /// The thread being serviced, if a transfer is in flight at `now`.
    #[must_use]
    pub fn servicing_thread(&self, now: u64) -> Option<ThreadId> {
        if self.is_servicing(now) {
            self.service_thread
        } else {
            None
        }
    }
}

parbs_snap::snap!(enum BankState as "bank state" { 0 => Closed, 1 => Open(row) });
parbs_snap::snap!(Bank {
    state,
    earliest_activate,
    earliest_column,
    earliest_precharge,
    last_activate_at,
    last_column_at,
    service_end,
    service_thread,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr2_800()
    }

    #[test]
    fn fresh_bank_needs_activate() {
        let b = Bank::new();
        assert_eq!(b.needed_command(5, false), CommandKind::Activate);
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn open_row_hit_needs_column() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 0, &t());
        assert!(b.is_row_hit(5));
        assert_eq!(b.needed_command(5, false), CommandKind::Read);
        assert_eq!(b.needed_command(5, true), CommandKind::Write);
    }

    #[test]
    fn open_other_row_needs_precharge() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 0, &t());
        assert_eq!(b.needed_command(6, false), CommandKind::Precharge);
    }

    #[test]
    fn activate_gates_column_by_trcd() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 100, &t());
        assert_eq!(b.earliest_issue(CommandKind::Read), 100 + t().t_rcd);
    }

    #[test]
    fn activate_gates_precharge_by_tras() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 100, &t());
        assert_eq!(b.earliest_issue(CommandKind::Precharge), 100 + t().t_ras);
    }

    #[test]
    fn precharge_gates_activate_by_trp() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 0, &t());
        let pre_at = t().t_ras;
        b.precharge(ThreadId(0), pre_at, &t());
        assert_eq!(b.open_row(), None);
        assert_eq!(b.earliest_issue(CommandKind::Activate), (pre_at + t().t_rp).max(t().t_rc));
    }

    #[test]
    fn read_returns_data_interval() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 0, &t());
        let (start, end) = b.column(false, ThreadId(2), t().t_rcd, &t());
        assert_eq!(start, t().t_rcd + t().t_cl);
        assert_eq!(end, start + t().t_burst);
        assert!(b.is_servicing(end - 1));
        assert!(!b.is_servicing(end));
        assert_eq!(b.servicing_thread(start), Some(ThreadId(2)));
    }

    #[test]
    fn write_extends_precharge_gate_by_twr() {
        let mut b = Bank::new();
        b.activate(5, ThreadId(0), 0, &t());
        let now = t().t_rcd;
        let (_, end) = b.column(true, ThreadId(0), now, &t());
        assert_eq!(b.earliest_issue(CommandKind::Precharge), (end + t().t_wr).max(t().t_ras));
    }
}
