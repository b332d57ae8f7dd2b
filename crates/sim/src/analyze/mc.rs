//! Differential bounded model checking of the DRAM timing model.
//!
//! Two implementations of DDR2 legality coexist in the workspace:
//!
//! 1. [`Channel::can_issue`]: the imperative, incrementally-maintained
//!    gating the simulator schedules against;
//! 2. [`ProtocolChecker`]: the one interpreter of the declarative
//!    [`parbs_dram::TIMING_RULES`] table, which scans a log of recent
//!    commands per query and answers both "is this command legal at this
//!    cycle" ([`ProtocolChecker::check`]) and "from which cycle on"
//!    ([`ProtocolChecker::earliest_issue`]).
//!
//! The model checker exhaustively enumerates legal command sequences on a
//! tiny geometry up to a bounded depth and, at every reached state, compares
//! the two on the **full command alphabet**. Legality of a fixed command is
//! monotone in time for both (once legal, it stays legal until another
//! command issues), so agreement reduces to agreement of the
//! *earliest-legal threshold*: the checker's `earliest_issue` gives it
//! analytically, and `Channel::can_issue` and the checker's own `check` are
//! probed at exactly two cycles, one DRAM cycle below the threshold (must
//! be illegal) and at the threshold itself (must be legal). A command the
//! checker rules out entirely is probed once at a generous horizon:
//! monotonicity makes "illegal at the horizon" equivalent to "illegal
//! everywhere below it".
//!
//! Enumeration is iterative-deepening DFS over *canonical* schedules (every
//! issued command issues at its earliest legal cycle), so the first
//! disagreement found carries a **minimal-length command prefix**: the
//! shortest witness, which is what makes a report debuggable. A seeded rule
//! mutation ([`run_differential_with_rules`]) goes into the checker, so the
//! hand-written gating is what catches it.

use parbs_dram::{
    Channel, Command, CommandKind, ProtocolChecker, RequestId, ThreadId, TimingParams, TimingRule,
    DRAM_CYCLE, TIMING_RULES,
};

/// An implementation's earliest-legal threshold for a candidate command.
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

/// Geometry, depth and timing for one differential run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Ranks of the model-checked channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank (the enumeration tries every row of every bank).
    pub rows: u64,
    /// Maximum command-prefix length explored.
    pub depth: u32,
    /// Timing parameters under test.
    pub timing: TimingParams,
}

impl McConfig {
    /// The standard tiny geometry: `ranks` ranks sharing **2 banks total**
    /// (so the 2-rank variant exercises the cross-rank rules with one bank
    /// per rank) × 4 rows under DDR2-800 timings, explored to `depth`.
    #[must_use]
    pub fn tiny(ranks: usize, depth: u32) -> Self {
        McConfig {
            ranks,
            banks_per_rank: (2 / ranks).max(1),
            rows: 4,
            depth,
            timing: TimingParams::ddr2_800(),
        }
    }
}

/// A disagreement: the shortest command prefix, the candidate command and
/// each side's earliest-legal threshold for it.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The commands issued before the disputed candidate, with their cycles.
    /// Minimal in length: no shorter prefix (in the same run) disagrees.
    pub prefix: Vec<(Command, u64)>,
    /// The candidate command the implementations disagree on.
    pub candidate: Command,
    /// `Channel::can_issue`'s threshold.
    pub channel: Verdict,
    /// The checker's threshold, from `earliest_issue`.
    pub checker: Verdict,
    /// The first cycle the checker's `check` accepts; it differs from
    /// `checker` only when the checker contradicts itself.
    pub check: Verdict,
    /// The rule `check` cites at the last cycle it still rejects.
    pub checker_rule: Option<String>,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "disagreement on {:?} (rank {}, bank {}, row {}) after {} command(s):",
            self.candidate.kind,
            self.candidate.rank,
            self.candidate.bank,
            self.candidate.row,
            self.prefix.len()
        )?;
        for (cmd, at) in &self.prefix {
            writeln!(
                f,
                "  {:>6}: {:?} rank {} bank {} row {}",
                at, cmd.kind, cmd.rank, cmd.bank, cmd.row
            )?;
        }
        writeln!(f, "  channel: {}", self.channel)?;
        write!(f, "  checker: {} (check accepts {}", self.checker, self.check)?;
        if let Some(rule) = &self.checker_rule {
            write!(f, "; last cited rule: {rule}")?;
        }
        write!(f, ")")
    }
}

/// Aggregate counters of a clean differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    /// States at which the full alphabet was compared.
    pub states: u64,
    /// Candidate commands compared (states × alphabet).
    pub commands: u64,
    /// Deepest prefix length reached.
    pub depth: u32,
}

/// One enumerated state: both implementations plus the path that
/// produced it.
#[derive(Clone)]
struct State {
    channel: Channel,
    checker: ProtocolChecker,
    last_issue: Option<u64>,
    prefix: Vec<(Command, u64)>,
}

impl State {
    fn initial(cfg: &McConfig, rules: &[TimingRule]) -> Self {
        State {
            channel: Channel::with_ranks(cfg.ranks, cfg.banks_per_rank, cfg.timing),
            checker: ProtocolChecker::with_rules(cfg.ranks, cfg.banks_per_rank, cfg.timing, rules),
            last_issue: None,
            prefix: Vec::new(),
        }
    }

    /// Earliest cycle any next command may issue: one command-bus slot after
    /// the previous issue (the controller's one-command-per-cycle rule).
    fn base(&self) -> u64 {
        self.last_issue.map_or(0, |t| t + DRAM_CYCLE)
    }

    /// The checker's threshold for `cmd`, no earlier than [`State::base`].
    fn threshold(&self, cmd: &Command) -> Verdict {
        self.checker.earliest_issue(cmd).map_or(Verdict::Never, |e| Verdict::At(e.max(self.base())))
    }

    /// True when both the channel and the checker's `check` accept `cmd` at
    /// `at`; false when both reject it; `None` when they differ.
    fn legal(&self, cmd: &Command, at: u64) -> Option<bool> {
        let channel = self.channel.can_issue(cmd, at);
        (channel == self.checker.check(cmd, at).is_ok()).then_some(channel)
    }
}

/// The full command alphabet of a geometry: every (kind, bank, row)
/// combination plus per-rank refreshes.
fn alphabet(cfg: &McConfig) -> Vec<Command> {
    let mut cmds = Vec::new();
    let banks = cfg.ranks * cfg.banks_per_rank;
    for bank in 0..banks {
        let rank = bank / cfg.banks_per_rank;
        for row in 0..cfg.rows {
            for kind in [CommandKind::Activate, CommandKind::Read, CommandKind::Write] {
                cmds.push(Command { kind, rank, bank, row, col: 0, request: RequestId(0) });
            }
        }
        cmds.push(Command {
            kind: CommandKind::Precharge,
            rank,
            bank,
            row: 0,
            col: 0,
            request: RequestId(0),
        });
    }
    for rank in 0..cfg.ranks {
        cmds.push(Command::refresh(rank, RequestId(u64::MAX)));
    }
    cmds
}

/// A horizon past every single-step wait the timing admits: any command the
/// checker deems reachable becomes legal within this margin of `base`.
fn horizon_slack(t: &TimingParams) -> u64 {
    let raw = t.t_rfc
        + t.t_rc
        + t.t_faw
        + t.t_cl
        + t.t_cwl
        + t.t_burst
        + t.t_wtr
        + t.t_wr
        + t.t_rtrs
        + DRAM_CYCLE;
    raw.div_ceil(DRAM_CYCLE) * DRAM_CYCLE
}

/// Scans for an implementation's true threshold in `[base, horizon]`;
/// used only to build a readable report once a spot check has failed.
fn scan_threshold(base: u64, horizon: u64, mut legal: impl FnMut(u64) -> bool) -> Verdict {
    let mut t = base;
    while t <= horizon {
        if legal(t) {
            return Verdict::At(t);
        }
        t += DRAM_CYCLE;
    }
    Verdict::Never
}

/// Compares the channel with the checker on `cmd` at the state. Returns the
/// agreed verdict, or the fully-scanned disagreement report.
fn compare_one(state: &State, cmd: &Command, horizon: u64) -> Result<Verdict, Box<Disagreement>> {
    let base = state.base();
    let checker = state.threshold(cmd);
    // Spot checks: monotone legality means two probes pin the threshold.
    let agreed = match checker {
        Verdict::Never => state.legal(cmd, horizon) == Some(false),
        Verdict::At(t) => {
            (t == base || state.legal(cmd, t - DRAM_CYCLE) == Some(false))
                && state.legal(cmd, t) == Some(true)
        }
    };
    if agreed {
        return Ok(checker);
    }
    // Disagreement: reconstruct every threshold for the report.
    let channel = scan_threshold(base, horizon, |t| state.channel.can_issue(cmd, t));
    let check = scan_threshold(base, horizon, |t| state.checker.check(cmd, t).is_ok());
    let last_reject = match check {
        Verdict::At(t) if t > base => Some(t - DRAM_CYCLE),
        Verdict::At(_) => None,
        Verdict::Never => Some(horizon),
    };
    let checker_rule = last_reject.and_then(|t| state.checker.check(cmd, t).err()).map(|v| v.rule);
    Err(Box::new(Disagreement {
        prefix: state.prefix.clone(),
        candidate: *cmd,
        channel,
        checker,
        check,
        checker_rule,
    }))
}

/// Issues `cmd` at `at` on a clone of `state`, advancing both
/// implementations.
fn step(state: &State, cmd: &Command, at: u64) -> State {
    let mut next = state.clone();
    next.channel.issue(cmd, ThreadId(0), at);
    next.checker
        .observe(cmd, at)
        .expect("checker accepted this command when its threshold was compared");
    next.last_issue = Some(at);
    next.prefix.push((*cmd, at));
    next
}

/// Iterative-deepening DFS: at iteration `d`, compare the alphabet at every
/// state of depth exactly `d` (shallower states were compared in earlier
/// iterations), expanding canonically (earliest legal cycle) in between.
fn dfs(
    state: &State,
    remaining: u32,
    alpha: &[Command],
    horizon_slack: u64,
    stats: &mut McStats,
) -> Result<(), Box<Disagreement>> {
    let horizon = state.base() + horizon_slack;
    if remaining == 0 {
        stats.states += 1;
        for cmd in alpha {
            stats.commands += 1;
            compare_one(state, cmd, horizon)?;
        }
        return Ok(());
    }
    for cmd in alpha {
        // Expansion trusts the checker's threshold: this state's alphabet was
        // already compared (and agreed) at an earlier, shallower iteration,
        // and `step` re-asserts legality in the checker.
        if let Verdict::At(at) = state.threshold(cmd) {
            let next = step(state, cmd, at);
            dfs(&next, remaining - 1, alpha, horizon_slack, stats)?;
        }
    }
    Ok(())
}

/// Runs the differential bounded model check with the shipped
/// [`TIMING_RULES`] table; see [`run_differential_with_rules`].
///
/// # Errors
///
/// Returns the minimal-prefix [`Disagreement`] if the implementations ever
/// diverge.
pub fn run_differential(cfg: &McConfig) -> Result<McStats, Box<Disagreement>> {
    run_differential_with_rules(cfg, TIMING_RULES)
}

/// Runs the differential bounded model check with an explicit rule table
/// for the checker (the channel's gating is hand-written, so seeding a
/// mutation here is how tests prove divergences are caught).
///
/// # Errors
///
/// Returns the first [`Disagreement`] found; iterative deepening makes its
/// prefix minimal in length.
pub fn run_differential_with_rules(
    cfg: &McConfig,
    rules: &[TimingRule],
) -> Result<McStats, Box<Disagreement>> {
    assert!(cfg.ranks > 0 && cfg.banks_per_rank > 0 && cfg.rows > 0, "degenerate geometry");
    cfg.timing.validate().expect("model-checked timing parameters must be self-consistent");
    let alpha = alphabet(cfg);
    let slack = horizon_slack(&cfg.timing);
    let mut stats = McStats::default();
    for d in 0..=cfg.depth {
        let root = State::initial(cfg, rules);
        dfs(&root, d, &alpha, slack, &mut stats)?;
        stats.depth = d;
    }
    Ok(stats)
}
