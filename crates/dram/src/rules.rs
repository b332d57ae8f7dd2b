//! The declarative DDR2 timing-rule table.
//!
//! Every pairwise timing constraint the model enforces — the Table 2
//! parameters tRCD, tRP, tRAS, tRC, tRRD, tFAW, tWR, tRTP, tWTR, the
//! tCL/tCWL data-bus occupancy, tRTRS and tRFC — is stated here **once**,
//! as data: a [`TimingRule`] names the constraint, its scope (same bank /
//! same rank / cross rank / whole channel), the command-stream event it
//! measures from, and the minimum separation as a sum of named
//! [`TimingParam`]s. One piece of code interprets the table: the
//! [`crate::ProtocolChecker`], whose timing validation and earliest-issue
//! answer are *evaluated from it*. The imperative issue gating in
//! [`crate::Channel`] is written by hand, and `parbs_sim::analyze`'s
//! differential bounded model checker cross-checks it against the checker
//! on exhaustively enumerated command sequences.
//!
//! A rule reads: *command `to` may not reach its `to_time` anchor earlier
//! than `min_sep` cycles after the `nth`-most-recent `from` event's
//! `from_time` anchor within `scope`*. Two anchor refinements make every
//! DDR2 constraint fit this one shape:
//!
//! * [`FromTime::DataEnd`] measures from the end of a column command's data
//!   transfer (`issue + tCL/tCWL + tBURST`) rather than its issue cycle —
//!   this expresses tWR and tWTR, which the standard defines from the last
//!   data beat;
//! * [`ToTime::DataStart`] constrains the candidate's *data* start
//!   (`issue + tCL/tCWL`) rather than its issue cycle — this expresses
//!   data-bus exclusivity and the tRTRS rank-switch gap;
//! * `nth = 4` on an activate-to-activate rule expresses the four-activate
//!   window: the fifth activate is constrained against the fourth-most-recent
//!   one, which is exactly the sliding-window formulation of tFAW.
//!
//! Bank-state legality (no `ACT` on an open bank, column row match, no
//! `PRE` on a closed bank) is not a timing rule; it is a property of the
//! bank state machine, which the checker tracks beside the table.
//!
//! Rules come in two polarities ([`RuleKind`]): ordinary min-separation
//! rules gate command issue, while *deadline* rules (tREFI) put a ceiling
//! on how long a required command may stay absent. Deadline rules are
//! invisible to the issue path and are enforced by `parbs_sim::analyze`'s
//! refresh model checker instead.

use crate::{CommandKind, TimingParams, DRAM_CYCLE};

/// A named operand of a rule's minimum-separation expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingParam {
    /// Activate → column delay (`t_rcd`).
    TRcd,
    /// CAS latency (`t_cl`).
    TCl,
    /// CAS write latency (`t_cwl`).
    TCwl,
    /// Precharge → activate (`t_rp`).
    TRp,
    /// Activate → precharge minimum (`t_ras`).
    TRas,
    /// Activate → activate, same bank (`t_rc`).
    TRc,
    /// Data-bus occupancy of one transfer (`t_burst`).
    TBurst,
    /// Column → column command gap (`t_ccd`).
    TCcd,
    /// Activate → activate, same rank (`t_rrd`).
    TRrd,
    /// Write recovery (`t_wr`).
    TWr,
    /// Read → precharge (`t_rtp`).
    TRtp,
    /// Write-to-read turnaround (`t_wtr`).
    TWtr,
    /// Four-activate window (`t_faw`).
    TFaw,
    /// Refresh cycle time (`t_rfc`).
    TRfc,
    /// Rank-to-rank data-bus switch gap (`t_rtrs`).
    TRtrs,
    /// Average refresh interval (`t_refi`) — a deadline, not a gap.
    TRefi,
    /// One command-bus slot ([`DRAM_CYCLE`] processor cycles).
    DramCycle,
}

impl TimingParam {
    /// The parameter's value in processor cycles under `t`.
    #[must_use]
    pub fn value(self, t: &TimingParams) -> u64 {
        match self {
            TimingParam::TRcd => t.t_rcd,
            TimingParam::TCl => t.t_cl,
            TimingParam::TCwl => t.t_cwl,
            TimingParam::TRp => t.t_rp,
            TimingParam::TRas => t.t_ras,
            TimingParam::TRc => t.t_rc,
            TimingParam::TBurst => t.t_burst,
            TimingParam::TCcd => t.t_ccd,
            TimingParam::TRrd => t.t_rrd,
            TimingParam::TWr => t.t_wr,
            TimingParam::TRtp => t.t_rtp,
            TimingParam::TWtr => t.t_wtr,
            TimingParam::TFaw => t.t_faw,
            TimingParam::TRfc => t.t_rfc,
            TimingParam::TRtrs => t.t_rtrs,
            TimingParam::TRefi => t.t_refi,
            TimingParam::DramCycle => DRAM_CYCLE,
        }
    }
}

/// Which commands share the state a rule constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleScope {
    /// The from-event and the candidate target the same bank.
    SameBank,
    /// The from-event and the candidate target the same rank.
    SameRank,
    /// The from-event and the candidate target *different* ranks of the
    /// same channel (bus-turnaround rules).
    CrossRank,
    /// Channel-wide: the shared command and data buses.
    Channel,
}

/// The class of past command-stream events a rule measures from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// An `ACT` issue.
    Act,
    /// A `RD` issue (with its data interval).
    Rd,
    /// A `WR` issue (with its data interval).
    Wr,
    /// The most recent column command of either kind (its recorded data end
    /// folds the maximum over all previous transfers — the data bus is a
    /// single serialized resource).
    Col,
    /// A `PRE` issue.
    Pre,
    /// A `REF` issue.
    Ref,
    /// Any command issue (command-bus rules).
    Any,
}

impl EventClass {
    /// True if a command of `kind` is an event of this class.
    #[must_use]
    pub fn matches(self, kind: CommandKind) -> bool {
        match self {
            EventClass::Act => kind == CommandKind::Activate,
            EventClass::Rd => kind == CommandKind::Read,
            EventClass::Wr => kind == CommandKind::Write,
            EventClass::Col => kind.is_column(),
            EventClass::Pre => kind == CommandKind::Precharge,
            EventClass::Ref => kind == CommandKind::Refresh,
            EventClass::Any => true,
        }
    }
}

/// The class of candidate commands a rule constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdClass {
    /// `ACT`.
    Act,
    /// `RD`.
    Rd,
    /// `WR`.
    Wr,
    /// `RD` or `WR`.
    Col,
    /// `PRE`.
    Pre,
    /// `REF`.
    Ref,
    /// Every command.
    Any,
}

impl CmdClass {
    /// True if `kind` belongs to this class.
    #[must_use]
    pub fn matches(self, kind: CommandKind) -> bool {
        match self {
            CmdClass::Act => kind == CommandKind::Activate,
            CmdClass::Rd => kind == CommandKind::Read,
            CmdClass::Wr => kind == CommandKind::Write,
            CmdClass::Col => kind.is_column(),
            CmdClass::Pre => kind == CommandKind::Precharge,
            CmdClass::Ref => kind == CommandKind::Refresh,
            CmdClass::Any => true,
        }
    }
}

/// Which timestamp of the from-event anchors the separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FromTime {
    /// The event's issue cycle.
    Issue,
    /// The end of the event's data transfer (column events only).
    DataEnd,
}

/// Which timestamp of the candidate command must respect the separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToTime {
    /// The candidate's issue cycle.
    Issue,
    /// The start of the candidate's data transfer
    /// (`issue + tCL` for reads, `issue + tCWL` for writes).
    DataStart,
}

/// Whether a rule's separation is a floor or a ceiling.
///
/// Min-separation rules gate command *issue*: a candidate too close to its
/// anchor event is illegal and the controller must wait. Deadline rules are
/// the opposite polarity — they demand that the next `to`-event *happen* no
/// later than `min_sep` (read: *max_sep*) cycles after the anchor — so no
/// candidate command can ever violate one by issuing. They constrain the
/// **absence** of commands, which only a liveness check can observe:
/// [`crate::ProtocolChecker`] skips them, and `parbs_sim::analyze`'s
/// refresh model checker (`check-timing --refresh`) enforces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// `to` may not come **sooner** than `min_sep` after the anchor.
    MinSeparation,
    /// `to` must come **no later** than `min_sep` after the anchor (plus
    /// the controller's bounded scheduling slack).
    Deadline,
}

/// One declarative timing constraint; see the module docs for the reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingRule {
    /// Stable human-readable rule id; [`crate::ProtocolViolation::rule`]
    /// reports exactly these strings.
    pub id: &'static str,
    /// Floor ([`RuleKind::MinSeparation`]) or ceiling
    /// ([`RuleKind::Deadline`]) semantics for `min_sep`.
    pub kind: RuleKind,
    /// Which commands share the constrained state.
    pub scope: RuleScope,
    /// The event class measured from.
    pub from: EventClass,
    /// The from-event anchor.
    pub from_time: FromTime,
    /// Which past event of the class: 1 = most recent, 4 = fourth-most-
    /// recent (the tFAW window).
    pub nth: u32,
    /// The candidate-command class constrained.
    pub to: CmdClass,
    /// The candidate anchor.
    pub to_time: ToTime,
    /// Minimum separation: the sum of these parameters, in cycles.
    pub min_sep: &'static [TimingParam],
}

impl TimingRule {
    /// The rule's minimum separation in processor cycles under `t`.
    #[must_use]
    pub fn min_sep_cycles(&self, t: &TimingParams) -> u64 {
        self.min_sep.iter().map(|p| p.value(t)).sum()
    }
}

/// The complete DDR2 timing-rule table, in evaluation order (the first
/// violated rule is the one reported). The ids match the historical
/// [`crate::ProtocolChecker`] rule names.
pub const TIMING_RULES: &[TimingRule] = &[
    // The command bus carries one command per DRAM cycle.
    TimingRule {
        id: "one command per DRAM cycle",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::Channel,
        from: EventClass::Any,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Any,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::DramCycle],
    },
    // A refreshing rank is unavailable for tRFC — to *every* command,
    // including another refresh.
    TimingRule {
        id: "tRFC",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameRank,
        from: EventClass::Ref,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Any,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRfc],
    },
    // Precharge → activate, same bank.
    TimingRule {
        id: "tRP",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Pre,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Act,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRp],
    },
    // Activate → activate, same bank (row cycle).
    TimingRule {
        id: "tRC",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Act,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Act,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRc],
    },
    // Activate → activate, different banks of the same rank.
    TimingRule {
        id: "tRRD",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameRank,
        from: EventClass::Act,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Act,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRrd],
    },
    // Four-activate window: the fifth activate waits for the fourth-most-
    // recent one to leave the tFAW window.
    TimingRule {
        id: "tFAW",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameRank,
        from: EventClass::Act,
        from_time: FromTime::Issue,
        nth: 4,
        to: CmdClass::Act,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TFaw],
    },
    // Activate → column, same bank.
    TimingRule {
        id: "tRCD",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Act,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Col,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRcd],
    },
    // Column → column command gap on the shared command/data path.
    TimingRule {
        id: "tCCD",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::Channel,
        from: EventClass::Col,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Col,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TCcd],
    },
    // Write turnaround: a column command waits tWTR after the last write's
    // final data beat. DDR2 defines tWTR as write→read only; the model
    // applies it conservatively to *all* column commands channel-wide, and
    // this rule states the modeled semantics so gating and checker agree.
    TimingRule {
        id: "tWTR",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::Channel,
        from: EventClass::Wr,
        from_time: FromTime::DataEnd,
        nth: 1,
        to: CmdClass::Col,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TWtr],
    },
    // Data-bus exclusivity: a transfer may not start before the previous
    // one ends.
    TimingRule {
        id: "data bus conflict",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::Channel,
        from: EventClass::Col,
        from_time: FromTime::DataEnd,
        nth: 1,
        to: CmdClass::Col,
        to_time: ToTime::DataStart,
        min_sep: &[],
    },
    // Rank-to-rank switch: a transfer from a different rank than the
    // previous one pays tRTRS on top of bus exclusivity.
    TimingRule {
        id: "tRTRS",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::CrossRank,
        from: EventClass::Col,
        from_time: FromTime::DataEnd,
        nth: 1,
        to: CmdClass::Col,
        to_time: ToTime::DataStart,
        min_sep: &[TimingParam::TRtrs],
    },
    // Activate → precharge, same bank (row-access minimum).
    TimingRule {
        id: "tRAS",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Act,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Pre,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRas],
    },
    // Read → precharge, same bank.
    TimingRule {
        id: "tRTP",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Rd,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Pre,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRtp],
    },
    // Write recovery: precharge waits tWR after the write's last data beat.
    TimingRule {
        id: "tWR",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::SameBank,
        from: EventClass::Wr,
        from_time: FromTime::DataEnd,
        nth: 1,
        to: CmdClass::Pre,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TWr],
    },
    // Refresh needs a quiet data bus.
    TimingRule {
        id: "refresh during data transfer",
        kind: RuleKind::MinSeparation,
        scope: RuleScope::Channel,
        from: EventClass::Col,
        from_time: FromTime::DataEnd,
        nth: 1,
        to: CmdClass::Ref,
        to_time: ToTime::Issue,
        min_sep: &[],
    },
    // Retention deadline: each rank must be refreshed again within tREFI
    // of its previous refresh (at boot: within tREFI of cycle 0). This is
    // a Deadline rule — it bounds how *late* the next REF may be, so it
    // gates no candidate command and is enforced by the refresh model
    // checker, not the issue path.
    TimingRule {
        id: "tREFI",
        kind: RuleKind::Deadline,
        scope: RuleScope::SameRank,
        from: EventClass::Ref,
        from_time: FromTime::Issue,
        nth: 1,
        to: CmdClass::Ref,
        to_time: ToTime::Issue,
        min_sep: &[TimingParam::TRefi],
    },
];

/// The data-transfer interval of a column command issued at `at`:
/// `[at + tCL/tCWL, at + tCL/tCWL + tBURST)`. `None` for non-column kinds.
#[must_use]
pub fn data_interval(kind: CommandKind, at: u64, t: &TimingParams) -> Option<(u64, u64)> {
    let cas = match kind {
        CommandKind::Read => t.t_cl,
        CommandKind::Write => t.t_cwl,
        _ => return None,
    };
    Some((at + cas, at + cas + t.t_burst))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_id_is_unique() {
        let mut ids: Vec<&str> = TIMING_RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TIMING_RULES.len(), "duplicate rule id");
    }

    #[test]
    fn table_covers_every_ddr2_constraint() {
        // Each Table 2 parameter must appear in at least one rule, so a
        // dropped rule cannot silently decouple a parameter from checking.
        let used: Vec<TimingParam> =
            TIMING_RULES.iter().flat_map(|r| r.min_sep.iter().copied()).collect();
        for p in [
            TimingParam::TRcd,
            TimingParam::TRp,
            TimingParam::TRas,
            TimingParam::TRc,
            TimingParam::TRrd,
            TimingParam::TFaw,
            TimingParam::TWr,
            TimingParam::TRtp,
            TimingParam::TWtr,
            TimingParam::TCcd,
            TimingParam::TRfc,
            TimingParam::TRtrs,
            TimingParam::TRefi,
            TimingParam::DramCycle,
        ] {
            assert!(used.contains(&p), "no rule references {p:?}");
        }
        // tCL/tCWL/tBURST enter through the data-interval anchors.
        assert!(TIMING_RULES
            .iter()
            .any(|r| r.from_time == FromTime::DataEnd && r.to_time == ToTime::DataStart));
    }

    #[test]
    fn rule_separation_sums_parameters() {
        let t = TimingParams::ddr2_800();
        let twr = TIMING_RULES.iter().find(|r| r.id == "tWR").unwrap();
        // tWR measures from the data end directly (anchored, not summed).
        assert_eq!(twr.min_sep_cycles(&t), t.t_wr);
        assert_eq!(twr.from_time, FromTime::DataEnd);
    }
}
