//! An independent earliest-issue-time oracle evaluated from the
//! declarative timing-rule table.
//!
//! [`TimingOracle`] answers, for a candidate command against an observed
//! command history, *the earliest cycle at which the command becomes legal*
//! — or [`Verdict::Never`] when bank-state legality rules it out entirely
//! (the state only changes when further commands issue, so an illegal
//! candidate stays illegal at every cycle).
//!
//! The oracle is deliberately implemented differently from both
//! [`parbs_dram::Channel`]'s imperative gating and the
//! [`parbs_dram::RuleEngine`] that drives the protocol checker: it keeps the
//! **full command log** and re-scans it per query instead of maintaining
//! incremental per-bank/per-rank state. A bug in the fold/update logic of
//! either incremental implementation therefore cannot cancel out here —
//! which is the property the differential model checker
//! ([`super::run_differential`]) relies on.
//!
//! [`TimingOracle::with_rules`] accepts an arbitrary rule slice, which is
//! how the test suite seeds rule mutations (a dropped `tFAW`, a dropped
//! `tWTR`) and demonstrates that the differential checker catches them with
//! a minimal command prefix.

use parbs_dram::{
    data_interval, CommandKind, EventClass, FromTime, RuleKind, RuleScope, TimingParams,
    TimingRule, ToTime, DRAM_CYCLE, TIMING_RULES,
};

/// The oracle's answer for a candidate command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The command is illegal at every future cycle (bank-state legality).
    Never,
    /// The command first becomes legal at this cycle.
    At(u64),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Never => write!(f, "never"),
            Verdict::At(t) => write!(f, "at {t}"),
        }
    }
}

/// One logged command issue, with its data interval if it was a column
/// command.
#[derive(Debug, Clone, Copy)]
struct LoggedCmd {
    kind: CommandKind,
    rank: usize,
    bank: usize,
    at: u64,
    data: Option<(u64, u64)>,
}

impl LoggedCmd {
    fn matches(&self, class: EventClass) -> bool {
        match class {
            EventClass::Act => self.kind == CommandKind::Activate,
            EventClass::Rd => self.kind == CommandKind::Read,
            EventClass::Wr => self.kind == CommandKind::Write,
            EventClass::Col => self.kind.is_column(),
            EventClass::Pre => self.kind == CommandKind::Precharge,
            EventClass::Ref => self.kind == CommandKind::Refresh,
            EventClass::Any => true,
        }
    }
}

/// Log-scanning earliest-time evaluator over a timing-rule table; see the
/// module docs for why it re-derives everything per query.
#[derive(Debug, Clone)]
pub struct TimingOracle {
    rules: Vec<TimingRule>,
    timing: TimingParams,
    banks_per_rank: usize,
    log: Vec<LoggedCmd>,
    open_rows: Vec<Option<u64>>,
}

impl TimingOracle {
    /// Creates an oracle over the full [`TIMING_RULES`] table for a channel
    /// of `ranks` × `banks_per_rank` banks.
    #[must_use]
    pub fn new(ranks: usize, banks_per_rank: usize, timing: TimingParams) -> Self {
        TimingOracle::with_rules(ranks, banks_per_rank, timing, TIMING_RULES)
    }

    /// Creates an oracle over an arbitrary rule table — the mutation-seeding
    /// entry point used to prove the differential checker catches a dropped
    /// or weakened rule.
    #[must_use]
    pub fn with_rules(
        ranks: usize,
        banks_per_rank: usize,
        timing: TimingParams,
        rules: &[TimingRule],
    ) -> Self {
        TimingOracle {
            rules: rules.to_vec(),
            timing,
            banks_per_rank,
            log: Vec::new(),
            open_rows: vec![None; ranks * banks_per_rank],
        }
    }

    fn cmd_rank(&self, kind: CommandKind, rank: usize, bank: usize) -> usize {
        if kind == CommandKind::Refresh {
            rank
        } else {
            bank / self.banks_per_rank
        }
    }

    /// The anchor cycle of the rule's from-event relative to a candidate
    /// targeting (`rank`, `bank`), or `None` when no such event was logged.
    fn anchor_of(&self, rule: &TimingRule, rank: usize, bank: usize) -> Option<u64> {
        // The data bus is one serialized resource: every rule measured from
        // a data end sees the *latest* data end over all transfers, not the
        // most recent command's own interval (transfer ends need not be
        // monotone in issue order when read and write CAS latencies differ).
        if rule.from_time == FromTime::DataEnd && rule.from == EventClass::Col {
            let applies = match rule.scope {
                RuleScope::Channel => true,
                RuleScope::CrossRank => self
                    .log
                    .iter()
                    .rev()
                    .find(|e| e.kind.is_column())
                    .is_some_and(|e| e.rank != rank),
                _ => return None,
            };
            if !applies {
                return None;
            }
            return self.log.iter().filter_map(|e| e.data.map(|(_, end)| end)).max();
        }
        let in_scope = |e: &&LoggedCmd| match rule.scope {
            RuleScope::SameBank => e.kind != CommandKind::Refresh && e.bank == bank,
            RuleScope::SameRank => e.rank == rank,
            RuleScope::CrossRank => e.rank != rank,
            RuleScope::Channel => true,
        };
        let event = self
            .log
            .iter()
            .rev()
            .filter(|e| e.matches(rule.from))
            .filter(in_scope)
            .nth(rule.nth as usize - 1)?;
        match rule.from_time {
            FromTime::Issue => Some(event.at),
            FromTime::DataEnd => event.data.map(|(_, end)| end),
        }
    }

    /// The earliest cycle at which `kind` targeting (`rank`, `bank`, `row`)
    /// is legal given the observed history, considering bank-state legality
    /// and every rule of the table.
    #[must_use]
    pub fn earliest_issue(&self, kind: CommandKind, rank: usize, bank: usize, row: u64) -> Verdict {
        // Bank-state legality first: it is time-invariant for a fixed
        // history, so a violation means "never".
        match kind {
            CommandKind::Activate => {
                if self.open_rows[bank].is_some() {
                    return Verdict::Never;
                }
            }
            CommandKind::Read | CommandKind::Write => {
                if self.open_rows[bank] != Some(row) {
                    return Verdict::Never;
                }
            }
            CommandKind::Precharge => {
                if self.open_rows[bank].is_none() {
                    return Verdict::Never;
                }
            }
            CommandKind::Refresh => {}
        }
        let rank = self.cmd_rank(kind, rank, bank);
        let cas = match kind {
            CommandKind::Read => self.timing.t_cl,
            CommandKind::Write => self.timing.t_cwl,
            _ => 0,
        };
        let mut earliest = 0u64;
        for rule in &self.rules {
            // Deadline rules (tREFI) bound command *absence*; they never
            // delay an issue, so the earliest-legal computation skips them
            // (the refresh model checker handles them instead).
            if rule.kind != RuleKind::MinSeparation || !rule.to.matches(kind) {
                continue;
            }
            let Some(anchor) = self.anchor_of(rule, rank, bank) else { continue };
            let bound = anchor + rule.min_sep_cycles(&self.timing);
            let issue_bound = match rule.to_time {
                ToTime::Issue => bound,
                // The constraint binds the data start `issue + cas`; solve
                // for the issue cycle.
                ToTime::DataStart => bound.saturating_sub(cas),
            };
            earliest = earliest.max(issue_bound);
        }
        Verdict::At(earliest.div_ceil(DRAM_CYCLE) * DRAM_CYCLE)
    }

    /// Records `kind` targeting (`rank`, `bank`, `row`) issued at `at`.
    pub fn record(&mut self, kind: CommandKind, rank: usize, bank: usize, row: u64, at: u64) {
        let rank = self.cmd_rank(kind, rank, bank);
        self.log.push(LoggedCmd {
            kind,
            rank,
            bank,
            at,
            data: data_interval(kind, at, &self.timing),
        });
        match kind {
            CommandKind::Activate => self.open_rows[bank] = Some(row),
            CommandKind::Precharge => self.open_rows[bank] = None,
            CommandKind::Refresh => {
                let lo = rank * self.banks_per_rank;
                for r in &mut self.open_rows[lo..lo + self.banks_per_rank] {
                    *r = None;
                }
            }
            CommandKind::Read | CommandKind::Write => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_allows_everything_at_zero() {
        let o = TimingOracle::new(1, 2, TimingParams::ddr2_800());
        assert_eq!(o.earliest_issue(CommandKind::Activate, 0, 0, 1), Verdict::At(0));
        assert_eq!(o.earliest_issue(CommandKind::Refresh, 0, 0, 0), Verdict::At(0));
        assert_eq!(o.earliest_issue(CommandKind::Read, 0, 0, 1), Verdict::Never, "closed bank");
        assert_eq!(o.earliest_issue(CommandKind::Precharge, 0, 0, 0), Verdict::Never);
    }

    #[test]
    fn act_to_column_waits_trcd() {
        let t = TimingParams::ddr2_800();
        let mut o = TimingOracle::new(1, 2, t);
        o.record(CommandKind::Activate, 0, 0, 5, 0);
        assert_eq!(o.earliest_issue(CommandKind::Read, 0, 0, 5), Verdict::At(t.t_rcd));
        assert_eq!(o.earliest_issue(CommandKind::Read, 0, 0, 6), Verdict::Never, "wrong row");
        assert_eq!(o.earliest_issue(CommandKind::Precharge, 0, 0, 0), Verdict::At(t.t_ras));
    }

    #[test]
    fn deadline_rules_do_not_delay_refresh() {
        // The tREFI rule is a deadline (an upper bound on refresh absence),
        // not a separation: a second refresh must be legal as soon as tRFC
        // elapses, not tREFI.
        let t = TimingParams::ddr2_800();
        let mut o = TimingOracle::new(1, 2, t);
        o.record(CommandKind::Refresh, 0, 0, 0, 0);
        assert_eq!(o.earliest_issue(CommandKind::Refresh, 0, 0, 0), Verdict::At(t.t_rfc));
    }

    #[test]
    fn faw_constrains_the_fifth_activate_only() {
        let t = TimingParams::ddr2_800();
        let mut o = TimingOracle::new(1, 8, t);
        for b in 0..4 {
            o.record(CommandKind::Activate, 0, b, 1, b as u64 * t.t_rrd);
        }
        let Verdict::At(e) = o.earliest_issue(CommandKind::Activate, 0, 4, 1) else {
            panic!("fifth activate must eventually be legal")
        };
        assert_eq!(e, t.t_faw, "bounded by the first activate leaving the window");
    }

    #[test]
    fn data_bus_end_is_folded_across_transfers() {
        // Same scenario as the rule-engine fold test: a read's data outlives
        // a later write's, and the bus bound must track the read's end.
        let mut t = TimingParams::ddr2_800();
        t.t_cl = 100;
        t.t_cwl = 10;
        t.t_ccd = 10;
        t.t_wtr = 10;
        let mut o = TimingOracle::new(1, 8, t);
        o.record(CommandKind::Activate, 0, 0, 1, 0);
        o.record(CommandKind::Activate, 0, 1, 1, 30);
        o.record(CommandKind::Read, 0, 0, 1, 60); // data [160, 200)
        o.record(CommandKind::Write, 0, 1, 1, 80); // data [90, 130)
        let Verdict::At(e) = o.earliest_issue(CommandKind::Write, 0, 0, 1) else {
            panic!("write must become legal")
        };
        assert_eq!(e, 190, "data start must clear the read's end at 200");
    }
}
