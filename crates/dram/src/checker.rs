//! The DRAM protocol checker: the one interpreter of the timing-rule table.
//!
//! [`ProtocolChecker`] re-derives bank state from the observed command stream
//! (without trusting the controller's bookkeeping) and reports the first
//! violated timing or state constraint. The property-based tests run it
//! against the controller under random request streams and schedulers, and
//! `parbs_sim::analyze`'s differential model checker compares it with
//! [`crate::Channel::can_issue`] on exhaustively enumerated command
//! sequences.
//!
//! Every timing constraint comes from the declarative [`crate::TIMING_RULES`]
//! table, read the simplest way there is: the checker keeps a **log of recent
//! commands** and, per rule, scans it for the rule's anchor event. One bound
//! function, "the earliest cycle this rule lets the candidate issue at",
//! serves both questions the checker answers: [`ProtocolChecker::check`]
//! names the first rule (in table order) whose bound lies after the
//! candidate's cycle, and [`ProtocolChecker::earliest_issue`] returns the
//! latest bound. Because the log is re-scanned per query instead of folded
//! into per-bank/per-rank state, it shares no update logic with `Channel`'s
//! incremental gating, so a bug in either cannot cancel out in the
//! differential check. [`ProtocolChecker::with_rules`] accepts any rule
//! slice, which is how tests seed rule mutations.
//!
//! A logged command binds nothing once its latest anchor (its data end, at
//! most a CAS latency and a burst after its issue) plus the longest rule
//! separation lies behind the newest command, so
//! [`ProtocolChecker::observe`] drops it then: the log covers a window of
//! recent commands (a few dozen under DDR2-800), not the run, and no verdict
//! at or after the newest command changes.
//!
//! On top of the table the checker layers what is not a timing rule:
//! command-clock alignment, rank/bank index validity, and bank-state
//! legality (no `ACT` on an open bank, column row match, no `PRE` on a
//! closed bank).

use std::sync::Arc;

use crate::{
    data_interval, CmdClass, Command, CommandKind, FromTime, RuleKind, RuleScope, TimingParams,
    TimingRule, ToTime, DRAM_CYCLE, TIMING_RULES,
};

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

/// One logged command issue.
#[derive(Debug, Clone, Copy)]
struct Logged {
    kind: CommandKind,
    rank: usize,
    bank: usize,
    at: u64,
    /// The end of the data transfer, for column commands.
    data_end: Option<u64>,
}

/// Observes a channel's command stream and validates every constraint the
/// model enforces: bank state legality, tRCD, tRP, tRAS, tRC, per-rank tRRD
/// and tFAW, tCCD, tRTP, tWR, tWTR, per-rank tRFC, tRTRS on cross-rank data
/// transfers, rank/bank index consistency, data-bus exclusivity, and one
/// command per DRAM cycle.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    /// The min-separation rules, in table order; shared, so that the model
    /// checker's many clones of a checker copy no rules.
    rules: Arc<[TimingRule]>,
    timing: TimingParams,
    ranks: usize,
    banks_per_rank: usize,
    /// How long after its issue a logged command can still bind another.
    reach: u64,
    /// Recent commands, oldest first.
    log: Vec<Logged>,
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
        ProtocolChecker::with_rules(ranks, banks_per_rank, timing, TIMING_RULES)
    }

    /// Creates a checker over an arbitrary rule table: the seam through which
    /// tests seed a dropped or weakened rule and show that the differential
    /// model checker catches it. Deadline rules are ignored: they bound the
    /// absence of a command, which no issue can violate.
    #[must_use]
    pub fn with_rules(
        ranks: usize,
        banks_per_rank: usize,
        timing: TimingParams,
        rules: &[TimingRule],
    ) -> Self {
        let rules: Arc<[TimingRule]> =
            rules.iter().filter(|r| r.kind == RuleKind::MinSeparation).copied().collect();
        let longest = rules.iter().map(|r| r.min_sep_cycles(&timing)).max().unwrap_or(0);
        ProtocolChecker {
            rules,
            timing,
            ranks,
            banks_per_rank,
            // A data-end anchor lies at most a CAS latency and a burst after
            // its command's issue.
            reach: longest + timing.t_cl.max(timing.t_cwl) + timing.t_burst,
            log: Vec::new(),
            open_rows: vec![None; ranks * banks_per_rank],
        }
    }

    /// The index or bank-state rule `cmd` breaks at every cycle, if any:
    /// only another command can change the bank state.
    fn state_violation(&self, cmd: &Command) -> Option<&'static str> {
        if cmd.rank >= self.ranks {
            return Some("rank index range");
        }
        if cmd.kind == CommandKind::Refresh {
            return None;
        }
        if cmd.bank >= self.open_rows.len() {
            return Some("bank index range");
        }
        if cmd.rank != cmd.bank / self.banks_per_rank {
            return Some("rank/bank consistency");
        }
        let open = self.open_rows[cmd.bank];
        match cmd.kind {
            CommandKind::Activate if open.is_some() => Some("bank state (ACT on open bank)"),
            CommandKind::Read | CommandKind::Write => match open {
                Some(row) if row == cmd.row => None,
                Some(_) => Some("row match (column to wrong row)"),
                None => Some("bank state (column on closed)"),
            },
            CommandKind::Precharge if open.is_none() => Some("bank state (PRE on closed bank)"),
            _ => None,
        }
    }

    /// The anchor cycle of `rule`'s from-event for a candidate targeting
    /// (`rank`, `bank`), or `None` when no logged command is one.
    fn anchor(&self, rule: &TimingRule, rank: usize, bank: usize) -> Option<u64> {
        // The data bus is one serialized resource: a rule measured from a
        // column command's data end sees the *latest* data end over all
        // transfers, not the most recent command's own (transfer ends need
        // not follow issue order when read and write CAS latencies differ).
        if rule.from_time == FromTime::DataEnd && rule.from == CmdClass::Col {
            let applies = match rule.scope {
                RuleScope::Channel => true,
                RuleScope::CrossRank => self
                    .log
                    .iter()
                    .rev()
                    .find(|e| e.kind.is_column())
                    .is_some_and(|e| e.rank != rank),
                RuleScope::SameBank | RuleScope::SameRank => false,
            };
            return self.log.iter().filter_map(|e| e.data_end).max().filter(|_| applies);
        }
        let event = match rule.scope {
            RuleScope::SameBank => {
                self.nth_recent(rule, |e| e.kind != CommandKind::Refresh && e.bank == bank)
            }
            RuleScope::SameRank => self.nth_recent(rule, |e| e.rank == rank),
            RuleScope::CrossRank => self.nth_recent(rule, |e| e.rank != rank),
            RuleScope::Channel => self.nth_recent(rule, |_| true),
        }?;
        match rule.from_time {
            FromTime::Issue => Some(event.at),
            FromTime::DataEnd => event.data_end,
        }
    }

    /// The `rule.nth`-most-recent logged event of `rule.from` in scope.
    fn nth_recent(&self, rule: &TimingRule, in_scope: impl Fn(&Logged) -> bool) -> Option<&Logged> {
        let mut events = self.log.iter().rev().filter(|e| rule.from.matches(e.kind) && in_scope(e));
        events.nth(rule.nth as usize - 1)
    }

    /// The earliest cycle `rule` lets `cmd` issue at, or `None` when the rule
    /// does not constrain it. `cmd` must pass [`Self::state_violation`].
    fn bound(&self, rule: &TimingRule, cmd: &Command) -> Option<u64> {
        if !rule.to.matches(cmd.kind) {
            return None;
        }
        let bound = self.anchor(rule, cmd.rank, cmd.bank)? + rule.min_sep_cycles(&self.timing);
        Some(match rule.to_time {
            ToTime::Issue => bound,
            // The rule binds the data start `issue + CAS`: solve for the issue.
            ToTime::DataStart => {
                let cas = data_interval(cmd.kind, 0, &self.timing).map_or(0, |(start, _)| start);
                bound.saturating_sub(cas)
            }
        })
    }

    /// Validates `cmd` at cycle `at` against the derived state **without
    /// recording it**: the probe entry point that lets a caller test many
    /// candidate cycles against one state.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule (evaluation order: clock alignment,
    /// index validity, bank-state legality, then the rule table in
    /// [`crate::TIMING_RULES`] order).
    pub fn check(&self, cmd: &Command, at: u64) -> Result<(), ProtocolViolation> {
        let violated = if at.is_multiple_of(DRAM_CYCLE) {
            self.state_violation(cmd).or_else(|| {
                self.rules.iter().find(|r| self.bound(r, cmd).is_some_and(|b| at < b)).map(|r| r.id)
            })
        } else {
            Some("command-clock alignment")
        };
        match violated {
            Some(rule) => Err(ProtocolViolation { rule: rule.to_owned(), command: *cmd, at }),
            None => Ok(()),
        }
    }

    /// The earliest command-clock cycle at which `cmd` is legal given the
    /// observed history: the latest bound of any rule. `None` when its index
    /// or the bank state rules it out at every cycle.
    #[must_use]
    pub fn earliest_issue(&self, cmd: &Command) -> Option<u64> {
        if self.state_violation(cmd).is_some() {
            return None;
        }
        let latest = self.rules.iter().filter_map(|r| self.bound(r, cmd)).max().unwrap_or(0);
        Some(latest.next_multiple_of(DRAM_CYCLE))
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
        self.record(cmd, at);
        Ok(())
    }

    /// Logs `cmd` at `at`, drops what can no longer bind, and updates the
    /// bank state.
    fn record(&mut self, cmd: &Command, at: u64) {
        let stale = self.log.iter().take_while(|e| e.at + self.reach < at).count();
        self.log.drain(..stale);
        self.log.push(Logged {
            kind: cmd.kind,
            rank: cmd.rank,
            bank: cmd.bank,
            at,
            data_end: data_interval(cmd.kind, at, &self.timing).map(|(_, end)| end),
        });
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

    #[test]
    fn deadline_rules_never_gate_issue() {
        // tREFI is a ceiling on refresh *absence*; back-to-back refreshes
        // are gated by tRFC only, never by the deadline rule. A refresh at
        // t_rfc after the previous one must be legal even though it is far
        // inside the tREFI window.
        let t = TimingParams::ddr2_800();
        let refresh = Command::refresh(0, RequestId(u64::MAX));
        let mut c = checker2();
        c.observe(&refresh, 0).unwrap();
        assert!(t.t_rfc < t.t_refi);
        assert_eq!(c.check(&refresh, t.t_rfc), Ok(()));
        assert_eq!(c.earliest_issue(&refresh), Some(t.t_rfc));
        // Exactly one deadline rule, and it covers tREFI.
        let deadlines: Vec<&TimingRule> =
            TIMING_RULES.iter().filter(|r| r.kind == RuleKind::Deadline).collect();
        assert_eq!(deadlines.len(), 1);
        assert_eq!(deadlines[0].id, "tREFI");
        assert_eq!(deadlines[0].min_sep_cycles(&t), t.t_refi);
    }

    #[test]
    fn empty_history_allows_everything_at_zero() {
        let c = ProtocolChecker::new(2, TimingParams::ddr2_800());
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Activate, 0, 1)), Some(0));
        assert_eq!(c.earliest_issue(&Command::refresh(0, RequestId(0))), Some(0));
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Read, 0, 1)), None, "closed bank");
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Precharge, 0, 0)), None);
    }

    #[test]
    fn act_to_column_waits_trcd() {
        let t = TimingParams::ddr2_800();
        let mut c = ProtocolChecker::new(2, t);
        c.observe(&cmd(CommandKind::Activate, 0, 5), 0).unwrap();
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Read, 0, 5)), Some(t.t_rcd));
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Read, 0, 6)), None, "wrong row");
        assert_eq!(c.earliest_issue(&cmd(CommandKind::Precharge, 0, 5)), Some(t.t_ras));
    }

    #[test]
    fn earliest_issue_is_the_first_cycle_check_accepts() {
        // The fifth activate waits for the first to leave the tFAW window:
        // `earliest_issue` returns that bound, and `check` cites tFAW one
        // command slot before it.
        let t = TimingParams::ddr2_800();
        let mut c = checker();
        for (i, at) in (0..4u64).map(|i| (i, i * t.t_rrd)) {
            assert_eq!(c.earliest_issue(&cmd(CommandKind::Activate, i as usize, 1)), Some(at));
            c.observe(&cmd(CommandKind::Activate, i as usize, 1), at).unwrap();
        }
        let fifth = cmd(CommandKind::Activate, 4, 1);
        assert_eq!(c.check(&fifth, 4 * t.t_rrd).unwrap_err().rule, "tFAW");
        assert_eq!(c.earliest_issue(&fifth), Some(t.t_faw));
        assert_eq!(c.check(&fifth, t.t_faw - DRAM_CYCLE).unwrap_err().rule, "tFAW");
        assert_eq!(c.check(&fifth, t.t_faw), Ok(()));
    }

    #[test]
    fn data_bus_end_is_folded_across_transfers() {
        // A read's data can end later than a following write's (the history
        // is recorded unchecked: the bus rule itself forbids it); the bus
        // bound must keep the latest end, as `Channel`'s `data_bus_free_at`
        // does.
        let mut t = TimingParams::ddr2_800();
        t.t_cl = 100;
        t.t_cwl = 10;
        t.t_ccd = 10;
        t.t_wtr = 10;
        let mut c = ProtocolChecker::new(8, t);
        c.record(&cmd(CommandKind::Activate, 0, 1), 0);
        c.record(&cmd(CommandKind::Activate, 1, 1), 30);
        c.record(&cmd(CommandKind::Read, 0, 1), 60); // data [160, 200)
        c.record(&cmd(CommandKind::Write, 1, 1), 80); // data [90, 130)
                                                      // At 140 the write clears tWTR (130 + 10) and tCCD, but its data
                                                      // would start at 150 < 200: still a bus conflict, even though the
                                                      // most recent transfer ended at 130.
        let write = cmd(CommandKind::Write, 0, 1);
        assert_eq!(c.check(&write, 140).unwrap_err().rule, "data bus conflict");
        assert_eq!(c.earliest_issue(&write), Some(190), "data start must clear 200");
        assert_eq!(c.check(&write, 190), Ok(()));
    }

    #[test]
    fn the_log_keeps_only_commands_that_can_still_bind() {
        // Reach under DDR2-800: the longest separation (tRFC, 510) plus the
        // latest data end after issue (tCL + tBURST, 100).
        let mut c = checker();
        assert_eq!(c.reach, 610);
        c.observe(&Command::refresh(0, RequestId(u64::MAX)), 0).unwrap();
        for (bank, at) in [(0, 510), (1, 540), (2, 610)] {
            c.observe(&cmd(CommandKind::Activate, bank, 1), at).unwrap();
        }
        assert_eq!(c.log.len(), 4, "the refresh is within reach of cycle 610");
        c.observe(&cmd(CommandKind::Activate, 3, 1), 640).unwrap();
        assert_eq!(c.log.len(), 4, "the refresh is out of reach of cycle 640");
        assert!(c.log.iter().all(|e| e.kind == CommandKind::Activate));
    }
}
