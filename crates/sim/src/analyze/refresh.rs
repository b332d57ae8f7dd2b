//! Refresh-compliance model checking against the `tREFI` deadline rule.
//!
//! The timing-rule table ([`parbs_dram::TIMING_RULES`]) carries one rule of
//! [`RuleKind::Deadline`]: `tREFI`, bounding how long a rank may go
//! *without* a refresh. Deadline rules gate no candidate command, so the
//! safety checkers ignore them; this module gives them teeth by
//! exhaustively exploring an abstract per-DRAM-cycle model of the
//! controller's refresh scheduling:
//!
//! - `since[rank]` — DRAM cycles since the rank's last refresh (saturating
//!   just past the deadline, which closes the state space),
//! - `bus` — DRAM cycles until the channel's data bus is free.
//!
//! Each step, the adversary may issue a column command (occupying the bus
//! for CAS + burst) unless refresh gating has kicked in; the controller,
//! when gating is on, stops issuing columns once any rank is due and
//! refreshes the most-overdue rank as soon as the bus drains (a refresh
//! occupies the channel for `tRFC`, serializing multi-rank refreshes).
//!
//! The deadline the model is checked against is derived from the rule:
//!
//! ```text
//! deadline = tREFI + CAS + burst + ranks · tRFC   (all in DRAM cycles)
//! ```
//!
//! — the rule's separation plus the worst-case bus drain plus full rank
//! serialization. With gating on, a breadth-first fixpoint proves every
//! reachable state honors the deadline. With gating off (the seeded bug:
//! the model drops refresh scheduling entirely), the checker reports a
//! violation at the *analytically minimal* depth: `since` grows by one per
//! step from zero, so the counterexample appears at exactly `deadline + 1`
//! steps — which the test suite asserts, proving the checker loses no
//! precision to the abstraction.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use parbs_dram::{RuleKind, TimingParams, TimingRule, DRAM_CYCLE, TIMING_RULES};

/// Hard cap on explored states.
const MAX_STATES: usize = 4_000_000;

/// Geometry and mode for the refresh model checker. CAS, burst, tRFC and
/// the derived refresh interval are DDR2-800's.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Ranks sharing the channel (1..=4).
    pub ranks: usize,
    /// Override for the refresh interval in DRAM cycles; `None` derives it
    /// from the `tREFI` deadline rule (3120 DRAM cycles for DDR2-800,
    /// which is tractable for one rank but slow for several — surveys use
    /// a small override).
    pub t_refi_dc: Option<u64>,
    /// Refresh gating: `true` models the production controller, `false`
    /// a model with the seeded dropped-refresh bug.
    pub gating: bool,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig { ranks: 2, t_refi_dc: Some(32), gating: true }
    }
}

impl RefreshConfig {
    /// Rejects rank counts and refresh-interval overrides outside the
    /// supported envelope.
    ///
    /// # Errors
    ///
    /// When `ranks` or `t_refi_dc` is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=4).contains(&self.ranks) {
            return Err(format!("ranks must be 1..=4, got {}", self.ranks));
        }
        if let Some(t) = self.t_refi_dc {
            interval_in_range(t)?;
        }
        Ok(())
    }
}

/// `t_refi_dc` if the model can explore it: 2..=60000 DRAM cycles.
fn interval_in_range(t_refi_dc: u64) -> Result<u64, String> {
    if (2..=60_000).contains(&t_refi_dc) {
        Ok(t_refi_dc)
    } else {
        Err(format!("tREFI must be 2..=60000 DRAM cycles, got {t_refi_dc}"))
    }
}

/// What the exploration decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshVerdict {
    /// Fixpoint reached with every state inside the deadline.
    Proven,
    /// A rank exceeded the deadline; `depth` is the minimal number of DRAM
    /// cycles to the violation (breadth-first order guarantees
    /// minimality).
    Violated {
        /// Minimal counterexample depth in DRAM cycles.
        depth: u64,
    },
}

/// A refresh model-check result.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// Ranks modeled.
    pub ranks: usize,
    /// Refresh interval in DRAM cycles (derived or overridden).
    pub t_refi_dc: u64,
    /// The checked deadline in DRAM cycles.
    pub deadline_dc: u64,
    /// Whether refresh gating was modeled on.
    pub gating: bool,
    /// States explored.
    pub states: u64,
    /// The verdict.
    pub verdict: RefreshVerdict,
}

impl fmt::Display for RefreshReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refresh[{} rank(s), tREFI {} dc, deadline {} dc, gating {}]: ",
            self.ranks,
            self.t_refi_dc,
            self.deadline_dc,
            if self.gating { "on" } else { "OFF" }
        )?;
        match self.verdict {
            RefreshVerdict::Proven => {
                write!(f, "deadline PROVEN over {} states", self.states)
            }
            RefreshVerdict::Violated { depth } => {
                write!(f, "deadline VIOLATED at minimal depth {depth} dc ({} states)", self.states)
            }
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct RState {
    since: Vec<u16>,
    bus: u16,
}

/// Model-checks refresh compliance against the `tREFI` deadline rule of
/// the production rule table.
///
/// # Errors
///
/// On an invalid configuration, when the rule table carries no deadline
/// rule, or when the state cap is exceeded.
pub fn check_refresh(cfg: &RefreshConfig) -> Result<RefreshReport, String> {
    check_refresh_with_rules(TIMING_RULES, cfg)
}

/// [`check_refresh`] against an arbitrary rule table — the hook the test
/// suite uses to prove that a rule table with the `tREFI` rule dropped is
/// rejected rather than silently vacuously "proven".
///
/// # Errors
///
/// See [`check_refresh`].
pub fn check_refresh_with_rules(
    rules: &[TimingRule],
    cfg: &RefreshConfig,
) -> Result<RefreshReport, String> {
    cfg.validate()?;
    let rule = rules
        .iter()
        .find(|r| r.kind == RuleKind::Deadline)
        .ok_or("no tREFI deadline rule in the timing-rule table — refresh compliance cannot be model-checked")?;
    let t = &TimingParams::ddr2_800();
    let derived_dc = rule.min_sep_cycles(t) / DRAM_CYCLE;
    let t_refi_dc = interval_in_range(cfg.t_refi_dc.unwrap_or(derived_dc))?;
    let cas_dc = (t.t_cl / DRAM_CYCLE) as u16;
    let burst_dc = (t.t_burst / DRAM_CYCLE) as u16;
    let rfc_dc = (t.t_rfc / DRAM_CYCLE).max(1) as u16;
    let column_busy = cas_dc + burst_dc;
    let deadline_dc = t_refi_dc + u64::from(column_busy) + cfg.ranks as u64 * u64::from(rfc_dc);
    let saturate = (deadline_dc + 1) as u16;

    let init = RState { since: vec![0; cfg.ranks], bus: 0 };
    let mut seen: HashMap<RState, u64> = HashMap::new();
    seen.insert(init.clone(), 0);
    let mut frontier = VecDeque::from([init]);
    while let Some(s) = frontier.pop_front() {
        let depth = seen[&s];
        // One DRAM cycle: the bus drains and every rank ages.
        let mut base = s;
        base.bus = base.bus.saturating_sub(1);
        for x in &mut base.since {
            *x = (*x + 1).min(saturate);
        }
        let due = base.since.iter().any(|&x| u64::from(x) >= t_refi_dc);
        let nexts: Vec<RState> = if cfg.gating && due {
            if base.bus == 0 {
                // Refresh the most-overdue rank; tRFC occupies the channel.
                let r = (0..base.since.len())
                    .max_by_key(|&r| base.since[r])
                    .expect("at least one rank");
                base.since[r] = 0;
                base.bus = rfc_dc;
                vec![base]
            } else {
                // Gated: no new columns; wait for the bus to drain.
                vec![base]
            }
        } else {
            // Free cycle: the adversary may idle or issue a column.
            let mut issue = base.clone();
            issue.bus = column_busy;
            vec![base, issue]
        };
        for n in nexts {
            if seen.contains_key(&n) {
                continue;
            }
            let d = depth + 1;
            if n.since.iter().any(|&x| u64::from(x) > deadline_dc) {
                return Ok(RefreshReport {
                    ranks: cfg.ranks,
                    t_refi_dc,
                    deadline_dc,
                    gating: cfg.gating,
                    states: seen.len() as u64 + 1,
                    verdict: RefreshVerdict::Violated { depth: d },
                });
            }
            if seen.len() >= MAX_STATES {
                return Err(format!(
                    "state cap {MAX_STATES} exceeded — shrink ranks or the tREFI override"
                ));
            }
            seen.insert(n.clone(), d);
            frontier.push_back(n);
        }
    }
    Ok(RefreshReport {
        ranks: cfg.ranks,
        t_refi_dc,
        deadline_dc,
        gating: cfg.gating,
        states: seen.len() as u64,
        verdict: RefreshVerdict::Proven,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_dram::{
        Controller, DramConfig, FcfsScheduler, LineAddr, Request, RequestKind, ThreadId,
    };

    #[test]
    fn gating_on_proves_the_deadline() {
        let cfg = RefreshConfig::default();
        let r = check_refresh(&cfg).unwrap();
        assert_eq!(r.verdict, RefreshVerdict::Proven, "{r}");
        assert!(r.states > 100, "nontrivial exploration: {r}");
        assert_eq!(r.deadline_dc, 32 + 10 + 2 * 51, "DDR2-800 deadline arithmetic");
    }

    #[test]
    fn dropped_refresh_is_caught_at_the_analytically_minimal_depth() {
        // Without gating no refresh ever issues, so `since` grows by
        // exactly one per DRAM cycle from zero: the earliest violation is
        // at deadline + 1 steps, and BFS must find precisely that depth.
        let cfg = RefreshConfig { t_refi_dc: Some(16), gating: false, ..Default::default() };
        let r = check_refresh(&cfg).unwrap();
        let RefreshVerdict::Violated { depth } = r.verdict else {
            panic!("the seeded bug must be caught: {r}")
        };
        assert_eq!(depth, r.deadline_dc + 1, "minimal counterexample depth: {r}");
    }

    #[test]
    fn derived_trefi_matches_the_rule_table() {
        // With no override the interval comes from the tREFI rule itself:
        // 31_200 processor cycles = 3120 DRAM cycles for DDR2-800.
        let cfg = RefreshConfig { ranks: 1, t_refi_dc: None, gating: false };
        let r = check_refresh(&cfg).unwrap();
        assert_eq!(r.t_refi_dc, 3120);
        let RefreshVerdict::Violated { depth } = r.verdict else { panic!("{r}") };
        assert_eq!(depth, r.deadline_dc + 1);
    }

    #[test]
    fn rule_table_without_the_deadline_rule_is_rejected() {
        let gutted: Vec<TimingRule> =
            TIMING_RULES.iter().filter(|r| r.kind != RuleKind::Deadline).copied().collect();
        let err = check_refresh_with_rules(&gutted, &RefreshConfig::default()).unwrap_err();
        assert!(err.contains("tREFI"), "{err}");
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let cfg = RefreshConfig { ranks: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        assert!(check_refresh(&cfg).is_err());
        let cfg = RefreshConfig { t_refi_dc: Some(1), ..Default::default() };
        assert!(cfg.validate().is_err());
        assert!(check_refresh(&cfg).is_err());
    }

    /// Concrete cross-check: the real controller, gated as the model is,
    /// holds refresh gaps near tREFI on a contended bus.
    #[test]
    fn concrete_controller_agrees_with_the_abstract_model() {
        let mut timing = TimingParams::ddr2_800();
        timing.t_refi = 6_000; // frequent refreshes keep the test short
        let cfg = DramConfig { timing, ..DramConfig::default() };
        let mut ctrl = Controller::new(cfg, Box::new(FcfsScheduler::new()));
        // A row-hammering read stream keeps the bus contended.
        let mut out = Vec::new();
        let mut next_id = 0u64;
        let mut gaps = Vec::new();
        let mut prev = 0u64;
        for now in 0..4 * timing.t_refi {
            if now % 500 == 0 && ctrl.can_accept_read() {
                let req = Request::new(
                    next_id,
                    ThreadId(0),
                    LineAddr { channel: 0, bank: 0, row: 1, col: next_id % 64 },
                    RequestKind::Read,
                    now,
                );
                next_id += 1;
                let _ = ctrl.try_enqueue(req);
            }
            ctrl.tick(now, &mut out);
            let last = ctrl.last_refresh_cycles()[0];
            if last != prev {
                gaps.push(last - prev);
                prev = last;
            }
        }
        assert!(prev > 0, "refreshes must happen with gating on");
        assert!(gaps.len() >= 2);
        for gap in &gaps[1..] {
            assert!(
                (timing.t_refi..timing.t_refi + 2_000).contains(gap),
                "refresh gap {gap} must stay near tREFI {}",
                timing.t_refi
            );
        }
    }
}
