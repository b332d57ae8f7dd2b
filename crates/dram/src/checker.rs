//! Independent DRAM protocol checker.
//!
//! [`ProtocolChecker`] re-derives bank state from the observed command stream
//! (without trusting the controller's bookkeeping) and reports the first
//! violated timing or state constraint. The property-based tests run it
//! against the controller under random request streams and schedulers.
//!
//! The timing validation is **evaluated from the declarative rule table**
//! ([`crate::TIMING_RULES`], via [`RuleEngine`]) rather than hand-coded:
//! every pairwise constraint the checker enforces is stated once, as data,
//! in `rules.rs`, and the same table drives the reference oracle the
//! `parbs_sim::analyze` differential model checker uses to cross-validate
//! [`crate::Channel::can_issue`]. The checker layers on top of the table the
//! parts that are not timing rules: command-clock alignment, rank/bank index
//! validity, and bank-state legality (no `ACT` on an open bank, column row
//! match, no `PRE` on a closed bank).

use crate::{Command, CommandKind, RuleEngine, TimingParams, DRAM_CYCLE};

/// A violated DRAM protocol rule, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Human-readable rule name (e.g. `"tRCD"`, `"bank state"`).
    pub rule: String,
    /// The offending command.
    pub command: Command,
    /// Cycle at which the command was issued.
    pub at: u64,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated by {:?} at cycle {}", self.rule, self.command, self.at)
    }
}

impl std::error::Error for ProtocolViolation {}

/// Observes a channel's command stream and validates every constraint the
/// model enforces: bank state legality, tRCD, tRP, tRAS, tRC, per-rank tRRD
/// and tFAW, tCCD, tRTP, tWR, tWTR, per-rank tRFC, tRTRS on cross-rank data
/// transfers, rank/bank index consistency, data-bus exclusivity, and one
/// command per DRAM cycle.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    engine: RuleEngine,
    ranks: usize,
    banks_per_rank: usize,
    open_rows: Vec<Option<u64>>,
}

impl ProtocolChecker {
    /// Creates a checker for a single-rank channel with `banks` banks.
    #[must_use]
    pub fn new(banks: usize, timing: TimingParams) -> Self {
        ProtocolChecker::with_ranks(1, banks, timing)
    }

    /// Creates a checker for a channel of `ranks` ranks × `banks_per_rank`
    /// banks (bank indices are channel-global and rank-major).
    #[must_use]
    pub fn with_ranks(ranks: usize, banks_per_rank: usize, timing: TimingParams) -> Self {
        ProtocolChecker {
            engine: RuleEngine::new(ranks, banks_per_rank, timing),
            ranks,
            banks_per_rank,
            open_rows: vec![None; ranks * banks_per_rank],
        }
    }

    fn violation(&self, rule: &str, cmd: &Command, at: u64) -> ProtocolViolation {
        ProtocolViolation { rule: rule.to_owned(), command: *cmd, at }
    }

    /// Validates `cmd` at cycle `at` against the derived state **without
    /// recording it** — the probe entry point the `parbs_sim::analyze`
    /// differential model checker uses to test many candidate cycles
    /// against one state.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule (evaluation order: clock alignment,
    /// index validity, bank-state legality, then the rule table in
    /// [`crate::TIMING_RULES`] order).
    pub fn check(&self, cmd: &Command, at: u64) -> Result<(), ProtocolViolation> {
        if !at.is_multiple_of(DRAM_CYCLE) {
            return Err(self.violation("command-clock alignment", cmd, at));
        }
        if cmd.rank >= self.ranks {
            return Err(self.violation("rank index range", cmd, at));
        }
        if cmd.kind != CommandKind::Refresh {
            if cmd.bank >= self.open_rows.len() {
                return Err(self.violation("bank index range", cmd, at));
            }
            if cmd.rank != cmd.bank / self.banks_per_rank {
                return Err(self.violation("rank/bank consistency", cmd, at));
            }
        }
        // Bank-state legality — a property of the re-derived state machine,
        // checked outside the timing-rule table.
        match cmd.kind {
            CommandKind::Activate => {
                if self.open_rows[cmd.bank].is_some() {
                    return Err(self.violation("bank state (ACT on open bank)", cmd, at));
                }
            }
            CommandKind::Read | CommandKind::Write => match self.open_rows[cmd.bank] {
                Some(row) if row == cmd.row => {}
                Some(_) => return Err(self.violation("row match (column to wrong row)", cmd, at)),
                None => return Err(self.violation("bank state (column on closed)", cmd, at)),
            },
            CommandKind::Precharge => {
                if self.open_rows[cmd.bank].is_none() {
                    return Err(self.violation("bank state (PRE on closed bank)", cmd, at));
                }
            }
            CommandKind::Refresh => {}
        }
        // Every timing constraint comes from the declarative table.
        if let Some(rule) = self.engine.first_violation(cmd.kind, cmd.rank, cmd.bank, at) {
            return Err(self.violation(rule, cmd, at));
        }
        Ok(())
    }

    /// Validates `cmd` issued at cycle `at` and updates the derived state.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule (see [`ProtocolChecker::check`]); on
    /// error nothing is recorded, so the checker may keep observing (though
    /// later violations may be knock-on effects of the first).
    pub fn observe(&mut self, cmd: &Command, at: u64) -> Result<(), ProtocolViolation> {
        self.check(cmd, at)?;
        self.engine.record(cmd.kind, cmd.rank, cmd.bank, at);
        match cmd.kind {
            CommandKind::Activate => self.open_rows[cmd.bank] = Some(cmd.row),
            CommandKind::Precharge => self.open_rows[cmd.bank] = None,
            CommandKind::Refresh => {
                // Refresh force-precharges the rank: its open rows are lost.
                let lo = cmd.rank * self.banks_per_rank;
                for row in &mut self.open_rows[lo..lo + self.banks_per_rank] {
                    *row = None;
                }
            }
            CommandKind::Read | CommandKind::Write => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestId;

    /// Command for an 8-banks-per-rank layout (rank = bank / 8): correct for
    /// both the single-rank `checker()` and the 2-rank `checker2()`.
    fn cmd(kind: CommandKind, bank: usize, row: u64) -> Command {
        Command { kind, rank: bank / 8, bank, row, col: 0, request: RequestId(0) }
    }

    fn checker() -> ProtocolChecker {
        ProtocolChecker::new(8, TimingParams::ddr2_800())
    }

    fn checker2() -> ProtocolChecker {
        ProtocolChecker::with_ranks(2, 8, TimingParams::ddr2_800())
    }

    #[test]
    fn legal_sequence_passes() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Read, 0, 1), 60).unwrap();
        c.observe(&cmd(CommandKind::Precharge, 0, 1), 180).unwrap();
        c.observe(&cmd(CommandKind::Activate, 0, 2), 240).unwrap();
    }

    #[test]
    fn detects_trcd_violation() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        let err = c.observe(&cmd(CommandKind::Read, 0, 1), 50).unwrap_err();
        assert_eq!(err.rule, "tRCD");
    }

    #[test]
    fn detects_act_on_open_bank() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        let err = c.observe(&cmd(CommandKind::Activate, 0, 2), 300).unwrap_err();
        assert!(err.rule.contains("ACT on open"));
    }

    #[test]
    fn detects_column_to_wrong_row() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        let err = c.observe(&cmd(CommandKind::Read, 0, 2), 60).unwrap_err();
        assert!(err.rule.contains("row match"));
    }

    #[test]
    fn detects_tras_violation() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Read, 0, 1), 60).unwrap();
        let err = c.observe(&cmd(CommandKind::Precharge, 0, 1), 170).unwrap_err();
        assert_eq!(err.rule, "tRAS");
    }

    #[test]
    fn detects_data_bus_conflict() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Activate, 1, 1), 30).unwrap();
        c.observe(&cmd(CommandKind::Read, 0, 1), 60).unwrap();
        // Read at 90 → data [150, 190) overlaps bank 0's data [120, 160).
        let err = c.observe(&cmd(CommandKind::Read, 1, 1), 90).unwrap_err();
        assert_eq!(err.rule, "data bus conflict");
    }

    #[test]
    fn detects_trrd_violation() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        let err = c.observe(&cmd(CommandKind::Activate, 1, 1), 20).unwrap_err();
        assert_eq!(err.rule, "tRRD");
    }

    #[test]
    fn trrd_is_per_rank() {
        // Activates to different ranks are not tRRD-constrained; a second
        // activate in the *same* rank inside the window still is.
        let mut c = checker2();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Activate, 8, 1), 10).unwrap();
        let err = c.observe(&cmd(CommandKind::Activate, 1, 1), 20).unwrap_err();
        assert_eq!(err.rule, "tRRD", "rank 0's window still applies within rank 0");
    }

    #[test]
    fn tfaw_is_per_rank() {
        let t = TimingParams::ddr2_800();
        let mut c = checker2();
        for i in 0..4u64 {
            c.observe(&cmd(CommandKind::Activate, i as usize, 1), i * t.t_rrd).unwrap();
        }
        // Rank 1 is free even though rank 0's window is full...
        c.observe(&cmd(CommandKind::Activate, 8, 1), 4 * t.t_rrd).unwrap();
        // ...but a fifth rank-0 activate inside the window is a violation.
        let err = c.observe(&cmd(CommandKind::Activate, 4, 1), 4 * t.t_rrd + 10).unwrap_err();
        assert_eq!(err.rule, "tFAW");
    }

    #[test]
    fn detects_trtrs_violation_on_cross_rank_columns() {
        let t = TimingParams::ddr2_800();
        let mut c = checker2();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Activate, 8, 1), 10).unwrap();
        c.observe(&cmd(CommandKind::Read, 0, 1), 60).unwrap();
        // Rank 0 data: [120, 160). A rank-1 read at 100 starts its data at
        // 160 — clear of the bus, but inside the tRTRS switch gap.
        let mut gap = c.clone();
        let err = gap.observe(&cmd(CommandKind::Read, 8, 1), 100).unwrap_err();
        assert_eq!(err.rule, "tRTRS");
        // Same timing to the *same* rank is legal (no switch)...
        let mut same = c.clone();
        same.observe(&cmd(CommandKind::Activate, 1, 1), 70).unwrap();
        same.observe(&cmd(CommandKind::Read, 1, 1), 130).unwrap();
        // ...and the cross-rank read is legal once the gap has passed.
        c.observe(&cmd(CommandKind::Read, 8, 1), 100 + t.t_rtrs).unwrap();
    }

    #[test]
    fn detects_rank_bank_inconsistency() {
        let mut c = checker2();
        let bad = Command {
            kind: CommandKind::Activate,
            rank: 1,
            bank: 0,
            row: 1,
            col: 0,
            request: RequestId(0),
        };
        let err = c.observe(&bad, 0).unwrap_err();
        assert_eq!(err.rule, "rank/bank consistency");
    }

    #[test]
    fn refresh_blocks_only_its_own_rank() {
        let t = TimingParams::ddr2_800();
        let mut c = checker2();
        c.observe(&Command::refresh(0, RequestId(u64::MAX)), 0).unwrap();
        // Rank 1 activates freely during rank 0's tRFC blackout.
        c.observe(&cmd(CommandKind::Activate, 8, 1), 10).unwrap();
        // Rank 0 does not.
        let err = c.observe(&cmd(CommandKind::Activate, 0, 1), t.t_rfc - 10).unwrap_err();
        assert_eq!(err.rule, "tRFC");
    }

    #[test]
    fn refresh_during_own_trfc_is_a_violation() {
        // Historical gap closed by the rule table's `tRFC: Ref → Any` scope:
        // a second refresh of the *same* rank inside its blackout is illegal.
        let t = TimingParams::ddr2_800();
        let mut c = checker2();
        c.observe(&Command::refresh(0, RequestId(u64::MAX)), 0).unwrap();
        let err = c.observe(&Command::refresh(0, RequestId(u64::MAX)), t.t_rfc - 10).unwrap_err();
        assert_eq!(err.rule, "tRFC");
        // The other rank may refresh concurrently.
        c.observe(&Command::refresh(1, RequestId(u64::MAX)), 10).unwrap();
    }

    #[test]
    fn detects_command_bus_overlap() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        let err = c.observe(&cmd(CommandKind::Activate, 1, 1), 0).unwrap_err();
        assert_eq!(err.rule, "one command per DRAM cycle");
    }

    #[test]
    fn detects_misaligned_command() {
        let mut c = checker();
        let err = c.observe(&cmd(CommandKind::Activate, 0, 1), 7).unwrap_err();
        assert!(err.rule.contains("alignment"));
    }

    #[test]
    fn detects_twtr_violation() {
        let mut c = checker();
        c.observe(&cmd(CommandKind::Activate, 0, 1), 0).unwrap();
        c.observe(&cmd(CommandKind::Activate, 1, 1), 30).unwrap();
        c.observe(&cmd(CommandKind::Write, 0, 1), 60).unwrap();
        // Write data ends at 60 + 50 + 40 = 150; reads blocked until 180.
        let err = c.observe(&cmd(CommandKind::Read, 1, 1), 160).unwrap_err();
        assert_eq!(err.rule, "tWTR");
    }
}
