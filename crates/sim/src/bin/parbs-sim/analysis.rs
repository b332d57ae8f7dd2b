//! The static-analysis commands: `check-timing`, `check-keys`,
//! `check-liveness`, `check-spec` and `report` (see
//! [`parbs_sim::analyze`]).
//!
//! `check-timing` runs the differential bounded model checker on a tiny
//! geometry (defaults: depth 6, 2 banks/rank, 4 rows, both a 1-rank and a
//! 2-rank channel when `--ranks` is omitted); with `--refresh` it instead
//! model-checks per-rank refresh scheduling against the `tREFI` deadline
//! rule (`--no-gating` seeds the dropped-refresh bug and expects the
//! checker to catch it at the minimal depth). `check-keys` validates the
//! declared priority-key layouts of the schedulers against their
//! implementations. `check-liveness` exhaustively explores the
//! controller+scheduler state space per scheduler and either proves the
//! declared starvation bound (reporting the tightest one) or prints a
//! minimal starvation lasso. `check-spec` compiles a monitor spec and prints
//! its streams and triggers. `report` prints the rule table and key layouts,
//! then runs the timing and key checks at a modest depth.
//!
//! Without `--sched`, the scheduler checks cover every scheduler of
//! [`SchedulerKind::all`]. A failed check exits 1.

use parbs_dram::{MemoryScheduler, TIMING_RULES};
use parbs_sim::analyze::{
    check_refresh, check_scheduler_keys, check_scheduler_liveness, run_differential,
    LivenessConfig, LivenessVerdict, McConfig, RefreshConfig, RefreshVerdict,
};
use parbs_sim::{SchedulerKind, SimConfig};

use crate::{load_spec, Args};

/// Prints `msg` and exits 1, the status of a failed check.
fn failed(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// The schedulers a check covers: `--sched`, or every scheduler.
fn schedulers(args: &Args) -> Vec<SchedulerKind> {
    args.sched().map_or_else(SchedulerKind::all, |kind| vec![kind])
}

/// A fresh instance of `kind`, as the baseline 4-core system builds it.
fn build(kind: &SchedulerKind) -> Box<dyn MemoryScheduler> {
    kind.build(&SimConfig::for_cores(4))
}

/// The integer value of a `u32` flag.
fn num_u32(args: &Args, flag: &str) -> Option<u32> {
    args.num_in(flag, 0..=u64::from(u32::MAX)).map(|v| v as u32)
}

pub fn check_timing(args: &Args) {
    if args.has("--refresh") {
        check_refresh_deadline(args);
    } else {
        differential(args, 6);
    }
}

/// The differential model check, at `--depth` (default `depth`) on a 1- and
/// a 2-rank channel, or on the `--ranks` one.
fn differential(args: &Args, depth: u32) {
    let depth = num_u32(args, "--depth").unwrap_or(depth);
    let rows = args.num("--rows").unwrap_or(4);
    let ranks = args.num("--ranks").map_or_else(|| vec![1, 2], |r| vec![r as usize]);
    for r in ranks {
        let mut cfg = McConfig { rows, ..McConfig::tiny(r, depth) };
        if let Some(b) = args.num("--banks") {
            cfg.banks_per_rank = b as usize;
        }
        let banks = cfg.banks_per_rank;
        match run_differential(&cfg) {
            Ok(stats) => println!(
                "check-timing: {r} rank(s) x {banks} bank(s) x {rows} row(s), depth {depth}: \
                 agree on {} command(s) over {} state(s)",
                stats.commands, stats.states
            ),
            Err(d) => failed(format!("check-timing: {r} rank(s): {d}")),
        }
    }
}

fn check_refresh_deadline(args: &Args) {
    let gating = !args.has("--no-gating");
    let cfg = RefreshConfig {
        ranks: args.num("--ranks").unwrap_or(2) as usize,
        t_refi_dc: Some(args.num("--trefi-dc").unwrap_or(32)),
        gating,
        ..RefreshConfig::default()
    };
    let report =
        check_refresh(&cfg).unwrap_or_else(|e| failed(format!("check-timing --refresh: {e}")));
    println!("check-timing: {report}");
    match (gating, report.verdict) {
        // Gated refresh must be proven compliant; the seeded dropped-rule
        // bug must be caught — anything else is a checker failure.
        (true, RefreshVerdict::Proven) | (false, RefreshVerdict::Violated { .. }) => {}
        (true, RefreshVerdict::Violated { depth }) => failed(format!(
            "check-timing --refresh: gated controller misses tREFI at depth {depth}"
        )),
        (false, RefreshVerdict::Proven) => {
            failed("check-timing --refresh: seeded dropped-refresh bug was NOT caught")
        }
    }
}

pub fn check_keys(args: &Args) {
    for kind in schedulers(args) {
        let report = check_scheduler_keys(&|| build(&kind))
            .unwrap_or_else(|e| failed(format!("check-keys: {e}")));
        println!(
            "check-keys: {}: {} field(s) verified over {} state(s), {} key(s), {} pair(s)",
            report.scheduler, report.fields, report.states, report.keys, report.pairs
        );
    }
}

pub fn check_liveness(args: &Args) {
    let mut cfg = LivenessConfig::tiny();
    if let Some(b) = args.num("--banks") {
        cfg.banks = b as usize;
    }
    if let Some(r) = args.num_in("--rows", 0..=u64::from(u8::MAX)) {
        cfg.rows = r as u8;
    }
    if let Some(q) = args.num("--queue") {
        cfg.queue_capacity = q as usize;
    }
    if let Some(t) = args.num("--threads") {
        cfg.adversary_threads = t as usize;
    }
    cfg.max_depth = num_u32(args, "--depth");
    let show_witness = args.has("--witness");
    let mut failures = Vec::new();
    for kind in schedulers(args) {
        let name = kind.name();
        let report = check_scheduler_liveness(&*build(&kind), &cfg)
            .unwrap_or_else(|e| failed(format!("check-liveness: {e}")));
        println!("check-liveness: {report}");
        let unbounded = matches!(report.verdict, LivenessVerdict::Unbounded);
        if let Some(w) = report.witness.as_ref().filter(|_| show_witness || unbounded) {
            for line in w.describe().lines() {
                println!("  {line}");
            }
        }
        if report.closed {
            if !report.claim_verified() {
                failures.push(format!("{name}: declared claim not verified ({report})"));
            }
        } else if cfg.max_depth.is_none() {
            // Without an explicit --depth horizon, truncation means the
            // state cap was exhausted — the proof attempt failed.
            failures.push(format!("{name}: exploration hit the state cap before its fixpoint"));
        }
    }
    if !failures.is_empty() {
        failed(format!("check-liveness: {}", failures.join("; ")));
    }
}

pub fn check_spec(args: &Args) {
    let Some(arg) = args.positional.first() else {
        crate::fail("usage: parbs-sim check-spec <file|prelude:NAME>");
    };
    let spec = load_spec(arg);
    println!("check-spec: {arg}: {}", spec.describe());
    for s in spec.streams() {
        println!("  stream  {s}");
    }
    for (name, sev) in spec.triggers() {
        println!("  trigger {name} [{sev}]");
    }
}

pub fn report(args: &Args) {
    println!("timing-rule table: {} rules", TIMING_RULES.len());
    for rule in TIMING_RULES {
        println!(
            "  {:<32} {:?} {:?}.{:?} -> {:?}.{:?} (nth {})",
            rule.id, rule.scope, rule.from, rule.from_time, rule.to, rule.to_time, rule.nth
        );
    }
    println!();
    for kind in SchedulerKind::all() {
        let sched = build(&kind);
        if let Some(layout) = sched.key_layout() {
            let fields: Vec<String> =
                layout.fields.iter().map(|f| format!("{}@{}+{}", f.name, f.lo, f.width)).collect();
            println!("key layout {:<8} [{}]", sched.name(), fields.join(", "));
        }
    }
    println!();
    differential(args, 4);
    check_keys(args);
}
