//! `parbs-analyze` — static-analysis CLI for the PAR-BS model.
//!
//! ```text
//! parbs-analyze check-timing   [--depth N] [--ranks R] [--banks B] [--rows W]
//! parbs-analyze check-timing   --refresh [--ranks R] [--trefi-dc N] [--no-gating]
//! parbs-analyze check-keys     [--scheduler all|FCFS|FR-FCFS|NFQ|STFM|PAR-BS|BLISS|ATLAS]
//! parbs-analyze check-liveness [--scheduler all|NAME] [--banks B] [--rows W]
//!                              [--queue Q] [--threads T] [--depth N] [--witness]
//! parbs-analyze check-spec     <file|prelude:invariants|prelude:qos>
//! parbs-analyze report         [--depth N]
//! ```
//!
//! `check-timing` runs the differential bounded model checker on a tiny
//! geometry (defaults: depth 6, 2 banks/rank, 4 rows, both a 1-rank and a
//! 2-rank channel when `--ranks` is omitted); with `--refresh` it instead
//! model-checks per-rank refresh scheduling against the `tREFI` deadline
//! rule (`--no-gating` seeds the dropped-refresh bug and expects the
//! checker to catch it at the minimal depth). `check-keys` validates the
//! declared priority-key layouts of the shipped schedulers against their
//! implementations. `check-liveness` exhaustively explores the
//! controller+scheduler state space per scheduler and either proves the
//! declared starvation bound (reporting the tightest one) or prints a
//! minimal starvation lasso; a scheduler whose exploration contradicts its
//! declared claim exits non-zero. `check-spec` compiles a [`parbs_monitor`]
//! spec and prints its streams, triggers, and lints — a compile error exits
//! non-zero with its `line:col: message` position. `report` runs the
//! checkers at a modest depth and prints a summary of the rule table and
//! key layouts. Every failure exits non-zero, so all subcommands are
//! CI-gateable. A flag the subcommand does not read, a value flag with no
//! value and a malformed or out-of-range value exit 2 naming the flag, so a
//! typo cannot silently weaken a proof.

use std::process::ExitCode;

use parbs_analyze::{
    check_refresh, check_scheduler_keys, check_scheduler_liveness, run_differential,
    scheduler_by_name, LivenessConfig, LivenessVerdict, McConfig, RefreshConfig, RefreshVerdict,
    ALL_SCHEDULERS,
};
use parbs_dram::TIMING_RULES;

const SUBCOMMANDS: [&str; 5] =
    ["check-timing", "check-keys", "check-liveness", "check-spec", "report"];

/// What a flag takes.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A scheduler name, or `all`.
    Name,
    /// An integer no larger than the bound.
    Int(u64),
}

const U8: Takes = Takes::Int(u8::MAX as u64);
const U32: Takes = Takes::Int(u32::MAX as u64);
const U64: Takes = Takes::Int(u64::MAX);

/// The flags `command` reads.
fn flags_of(command: &str) -> &'static [(&'static str, Takes)] {
    match command {
        "check-timing" => &[
            ("--depth", U32),
            ("--ranks", U64),
            ("--banks", U64),
            ("--rows", U64),
            ("--refresh", Takes::Nothing),
            ("--trefi-dc", U64),
            ("--no-gating", Takes::Nothing),
        ],
        "check-keys" => &[("--scheduler", Takes::Name)],
        "check-liveness" => &[
            ("--scheduler", Takes::Name),
            ("--banks", U64),
            ("--rows", U8),
            ("--queue", U64),
            ("--threads", U64),
            ("--depth", U32),
            ("--witness", Takes::Nothing),
        ],
        "report" => &[
            ("--depth", U32),
            ("--ranks", U64),
            ("--banks", U64),
            ("--rows", U64),
            ("--scheduler", Takes::Name),
        ],
        _ => &[],
    }
}

/// Checks `args` against what `command` reads: every flag must be one of
/// [`flags_of`], every value flag needs a value, and every integer must
/// parse within its bound. Only `check-spec` takes a positional argument.
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    let mut positional = 0;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positional += 1;
            if command != "check-spec" || positional > 1 {
                return Err(format!("unexpected argument '{arg}' for `parbs-analyze {command}`"));
            }
            continue;
        }
        let Some(&(_, takes)) = flags_of(command).iter().find(|(f, _)| f == arg) else {
            return Err(format!("unknown flag {arg} for `parbs-analyze {command}`"));
        };
        if let Takes::Nothing = takes {
            continue;
        }
        let Some(value) = rest.next().filter(|v| !v.starts_with("--")) else {
            return Err(format!("{arg} requires a value"));
        };
        if let Takes::Int(max) = takes {
            if !value.parse::<u64>().is_ok_and(|v| v <= max) {
                return Err(format!(
                    "invalid value '{value}' for {arg}: expected an integer from 0 to {max}"
                ));
            }
        }
    }
    Ok(())
}

/// The integer value of `flag`; [`check_flags`] has already rejected a
/// malformed one.
fn value_of(args: &[String], flag: &str) -> Option<u64> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn str_value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn check_refresh_cmd(args: &[String]) -> Result<(), String> {
    let gating = !args.iter().any(|a| a == "--no-gating");
    let cfg = RefreshConfig {
        ranks: value_of(args, "--ranks").unwrap_or(2) as usize,
        t_refi_dc: value_of(args, "--trefi-dc").or(Some(32)),
        gating,
        ..RefreshConfig::default()
    };
    let report = check_refresh(&cfg).map_err(|e| format!("check-timing --refresh: {e}"))?;
    println!("check-timing: {report}");
    match (gating, report.verdict) {
        // Gated refresh must be proven compliant; the seeded dropped-rule
        // bug must be caught — anything else is a checker failure.
        (true, RefreshVerdict::Proven) | (false, RefreshVerdict::Violated { .. }) => Ok(()),
        (true, RefreshVerdict::Violated { depth }) => {
            Err(format!("check-timing --refresh: gated controller misses tREFI at depth {depth}"))
        }
        (false, RefreshVerdict::Proven) => {
            Err("check-timing --refresh: seeded dropped-refresh bug was NOT caught".to_owned())
        }
    }
}

fn check_liveness(args: &[String]) -> Result<(), String> {
    let which = str_value_of(args, "--scheduler").unwrap_or("all");
    let names: Vec<&str> = if which == "all" { ALL_SCHEDULERS.to_vec() } else { vec![which] };
    let mut cfg = LivenessConfig::tiny();
    if let Some(b) = value_of(args, "--banks") {
        cfg.banks = b as usize;
    }
    if let Some(r) = value_of(args, "--rows") {
        cfg.rows = r as u8;
    }
    if let Some(q) = value_of(args, "--queue") {
        cfg.queue_capacity = q as usize;
    }
    if let Some(t) = value_of(args, "--threads") {
        cfg.adversary_threads = t as usize;
    }
    if let Some(d) = value_of(args, "--depth") {
        cfg.max_depth = Some(d as u32);
    }
    let show_witness = args.iter().any(|a| a == "--witness");
    let mut failures = Vec::new();
    for name in names {
        let report =
            check_scheduler_liveness(name, &cfg).map_err(|e| format!("check-liveness: {e}"))?;
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
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("check-liveness: {}", failures.join("; ")))
    }
}

fn check_timing(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--refresh") {
        return check_refresh_cmd(args);
    }
    let depth = value_of(args, "--depth").unwrap_or(6) as u32;
    let rows = value_of(args, "--rows").unwrap_or(4);
    let ranks: Vec<usize> = match value_of(args, "--ranks") {
        Some(r) => vec![r as usize],
        None => vec![1, 2],
    };
    for r in ranks {
        let mut cfg = McConfig { rows, ..McConfig::tiny(r, depth) };
        if let Some(b) = value_of(args, "--banks") {
            cfg.banks_per_rank = b as usize;
        }
        let banks = cfg.banks_per_rank;
        match run_differential(&cfg) {
            Ok(stats) => println!(
                "check-timing: {r} rank(s) x {banks} bank(s) x {rows} row(s), depth {depth}: \
                 agree on {} command(s) over {} state(s)",
                stats.commands, stats.states
            ),
            Err(d) => return Err(format!("check-timing: {r} rank(s): {d}")),
        }
    }
    Ok(())
}

fn check_keys(args: &[String]) -> Result<(), String> {
    let which = str_value_of(args, "--scheduler").unwrap_or("all");
    let names: Vec<&str> = if which == "all" { ALL_SCHEDULERS.to_vec() } else { vec![which] };
    for name in names {
        let make = scheduler_by_name(name)
            .ok_or_else(|| format!("check-keys: unknown scheduler `{name}`"))?;
        let report = check_scheduler_keys(make.as_ref()).map_err(|e| format!("check-keys: {e}"))?;
        println!(
            "check-keys: {}: {} field(s) verified over {} state(s), {} key(s), {} pair(s)",
            report.scheduler, report.fields, report.states, report.keys, report.pairs
        );
    }
    Ok(())
}

fn check_spec(args: &[String]) -> Result<(), String> {
    let Some(arg) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(
            "usage: parbs-analyze check-spec <file|prelude:invariants|prelude:qos>".to_owned()
        );
    };
    let (label, spec) = if let Some(name) = arg.strip_prefix("prelude:") {
        let spec = parbs_monitor::prelude::by_name(name).ok_or_else(|| {
            format!(
                "check-spec: unknown prelude spec `{name}` (expected one of: {})",
                parbs_monitor::prelude::NAMES.join(", ")
            )
        })?;
        (arg.clone(), spec)
    } else {
        let src = std::fs::read_to_string(arg)
            .map_err(|e| format!("check-spec: cannot read {arg}: {e}"))?;
        let spec = parbs_monitor::Spec::compile(&src).map_err(|e| format!("{arg}:{e}"))?;
        (arg.clone(), spec)
    };
    println!("check-spec: {label}: {}", spec.describe());
    for s in spec.streams() {
        println!("  stream  {s}");
    }
    for (name, sev) in spec.triggers() {
        println!("  trigger {name} [{sev}]");
    }
    for lint in spec.lints() {
        println!("  warning: {lint}");
    }
    Ok(())
}

fn report(args: &[String]) -> Result<(), String> {
    println!("timing-rule table: {} rules", TIMING_RULES.len());
    for rule in TIMING_RULES {
        println!(
            "  {:<32} {:?} {:?}.{:?} -> {:?}.{:?} (nth {})",
            rule.id, rule.scope, rule.from, rule.from_time, rule.to, rule.to_time, rule.nth
        );
    }
    println!();
    for name in ALL_SCHEDULERS {
        let make = scheduler_by_name(name).expect("shipped scheduler");
        let sched = make();
        if let Some(layout) = sched.key_layout() {
            let fields: Vec<String> =
                layout.fields.iter().map(|f| format!("{}@{}+{}", f.name, f.lo, f.width)).collect();
            println!("key layout {:<8} [{}]", layout.scheduler, fields.join(", "));
        }
    }
    println!();
    let mut forwarded =
        vec!["--depth".to_owned(), value_of(args, "--depth").unwrap_or(4).to_string()];
    forwarded.extend_from_slice(args);
    check_timing(&forwarded)?;
    check_keys(args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(command) = args.first().filter(|c| SUBCOMMANDS.contains(&c.as_str())) {
        if let Err(e) = check_flags(command, &args[1..]) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    let result = match args.first().map(String::as_str) {
        Some("check-timing") => check_timing(&args[1..]),
        Some("check-keys") => check_keys(&args[1..]),
        Some("check-liveness") => check_liveness(&args[1..]),
        Some("check-spec") => check_spec(&args[1..]),
        Some("report") => report(&args[1..]),
        other => Err(format!(
            "usage: parbs-analyze <{}> [options]\n(got {other:?})",
            SUBCOMMANDS.join("|")
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
