//! `parbs-sim` — the command-line front end of the PAR-BS reproduction.
//!
//! ```text
//! parbs-sim <command> [args] [flags]
//! parbs-sim --list                      every command, its arguments and flags
//! ```
//!
//! The commands run case studies and custom mixes under the paper's five
//! schedulers, sweeps (random mixes, the geometry/mapping ablation, the
//! seven-scheduler zoo, open-loop flows), one checkpointable run, observed
//! runs with traces and monitors, and offline monitor replay. The static
//! analysis (`check-timing`, `check-keys`, `check-liveness`, `check-spec`,
//! `report`) proves the timing model, each scheduler's key contract and its
//! starvation bound, and the gate benchmarks (`sched_hotpath`,
//! `many_threads`, `parallel_sweep`) write `BENCH_*.json` snapshots and
//! fail when their gate does not hold. One more command per figure and
//! table of the paper, named after it (`fig05_case1`, `table4_summary`,
//! `ext_zoo`, ...), regenerates it; each reads those of `--quick`,
//! `--target N`, `--mixes N`, `--seed N` and `--jobs N` that move its
//! output (see `EXPERIMENTS.md`).
//!
//! Each command reads a fixed list of flags, and that list drives both the
//! parser and `--list`. A flag the command does not read, an unknown flag,
//! a repeated flag, a value flag with no value, a malformed value, a zero
//! `--target` and a flag whose partner is missing (`--trace-format` without
//! `--trace-out`) are hard errors (exit 2) naming the flag, never silent
//! fallbacks to a default.
//!
//! Every evaluation fans its plan across `--jobs` worker threads (default:
//! all cores); the output is identical at any jobs level. `--seed` (default
//! 42) seeds mix construction, and the simulated system of an observed run
//! or a flow sweep.

use std::ops::RangeInclusive;
use std::time::Instant;

use parbs_dram::MappingPolicy;
use parbs_monitor::Spec;
use parbs_sim::experiments::{self, SweepPlan};
use parbs_sim::{
    CacheStats, Harness, MonitorReport, ObserveOptions, SchedulerKind, SimConfig, TraceFormat,
};
use parbs_workloads::{
    all_benchmarks, by_name, case_study_1, case_study_2, case_study_3, random_mixes, BoundedPareto,
    FlowConfig, MixSpec,
};

mod analysis;
mod figures;
mod gates;

/// A command-line flag: its name and the placeholder of the value it takes
/// (empty for a switch, which takes none).
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    value: &'static str,
}

const fn value(name: &'static str, placeholder: &'static str) -> Flag {
    Flag { name, value: placeholder }
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, value: "" }
}

const TARGET: Flag = value("--target", "N");
const SEED: Flag = value("--seed", "N");
const JOBS: Flag = value("--jobs", "N");
const QUICK: Flag = switch("--quick");
const MIXES: Flag = value("--mixes", "N");
const RANKS: Flag = value("--ranks", "N");
const MAPPING: Flag = value("--mapping", "row|line");
const NO_XOR: Flag = switch("--no-xor");
const SCHED: Flag = value("--sched", SchedulerKind::NAMES);
const CHECKPOINT_OUT: Flag = value("--checkpoint-out", "F");
const CHECKPOINT_EVERY: Flag = value("--checkpoint-every", "N");
const RESUME: Flag = value("--resume", "F");
const TRACE_OUT: Flag = value("--trace-out", "F");
const TRACE_FORMAT: Flag = value("--trace-format", "chrome|jsonl");
const CHECK_INVARIANTS: Flag = switch("--check-invariants");
const SPEC: Flag = value("--spec", "F|prelude:NAME");
const MONITOR_REPORT: Flag = switch("--monitor-report");
const REPLAY: Flag = value("--replay", "F");
const FLOW_RATE: Flag = value("--flow-rate", "N");
const FLOW_SIZE_MAX: Flag = value("--flow-size-max", "N");
const DEPTH: Flag = value("--depth", "N");
const BANKS: Flag = value("--banks", "N");
const ROWS: Flag = value("--rows", "N");
const REFRESH: Flag = switch("--refresh");
const TREFI_DC: Flag = value("--trefi-dc", "N");
const NO_GATING: Flag = switch("--no-gating");
const QUEUE: Flag = value("--queue", "N");
const THREADS: Flag = value("--threads", "N");
const WITNESS: Flag = switch("--witness");

/// The largest mix count: `[n]` of `sweep`, `mapping-sweep` and `zoo-sweep`,
/// and `--mixes`; 100 times the 100 mixes of a paper-scale regeneration.
const MAX_MIXES: u64 = 10_000;

/// The largest requester scale, `[n]` of `flow-sweep`; 100 times the
/// 10,000-requester runs of EXPERIMENTS.md.
const MAX_REQUESTERS: u64 = 1_000_000;

/// The largest `--jobs`: each job is a worker thread, and a thread the OS
/// refuses would end the run in a panic.
const MAX_JOBS: u64 = 256;

/// The flags of `case-study` and `mix`: a five-scheduler comparison, or one
/// observed run when a flag of [`OBSERVED`] is given.
const COMPARE_FLAGS: &[Flag] = &[
    TARGET,
    SEED,
    JOBS,
    RANKS,
    MAPPING,
    NO_XOR,
    TRACE_OUT,
    TRACE_FORMAT,
    CHECK_INVARIANTS,
    SCHED,
    SPEC,
    MONITOR_REPORT,
];

/// The flags that turn a comparison into an observed run.
const OBSERVED: &[&str] = &["--trace-out", "--check-invariants", "--spec"];

/// One `parbs-sim` command: what it takes, the flags it reads, and what it
/// does.
struct Command {
    name: &'static str,
    /// The positional arguments, as usage text: empty for none, ending in
    /// `...` for any number, else one.
    args: &'static str,
    /// Every flag it reads; any other flag is an error.
    flags: &'static [Flag],
    /// `(flag, partners)`: it reads `flag` only next to one of `partners`.
    needs: &'static [(&'static str, &'static [&'static str])],
    about: &'static str,
    run: fn(&Args),
}

impl Command {
    const fn new(
        name: &'static str,
        args: &'static str,
        flags: &'static [Flag],
        about: &'static str,
        run: fn(&Args),
    ) -> Command {
        Command { name, args, flags, needs: &[], about, run }
    }

    /// A figure or table of the paper, or an extension experiment.
    const fn regeneration(
        name: &'static str,
        flags: &'static [Flag],
        about: &'static str,
        run: fn(&Args),
    ) -> Command {
        Command::new(name, "", flags, about, run)
    }

    const fn needs(self, needs: &'static [(&'static str, &'static [&'static str])]) -> Command {
        Command { needs, ..self }
    }

    /// `name args`, as usage text.
    fn usage(&self) -> String {
        format!("{} {}", self.name, self.args).trim_end().to_owned()
    }

    fn max_args(&self) -> usize {
        match self.args {
            "" => 0,
            a if a.ends_with("...") => usize::MAX,
            _ => 1,
        }
    }
}

static COMMANDS: [Command; 20] = [
    Command::new(
        "case-study",
        "<1|2|3>",
        COMPARE_FLAGS,
        "a paper case study (Figs. 5-7) under the paper's five schedulers",
        case_study,
    )
    .needs(COMPARE_NEEDS),
    Command::new(
        "mix",
        "<bench,bench,...>",
        COMPARE_FLAGS,
        "a custom mix under the paper's five schedulers",
        mix,
    )
    .needs(COMPARE_NEEDS),
    Command::new(
        "bench",
        "<name>",
        &[TARGET, RANKS, MAPPING, NO_XOR],
        "one benchmark alone (its Table 3 row)",
        bench,
    ),
    Command::new("list", "", &[], "the 28 synthetic benchmarks", list),
    Command::new(
        "trace",
        "<file>...",
        &[TARGET, RANKS, MAPPING, NO_XOR],
        "trace files, one per core, under PAR-BS",
        trace,
    ),
    Command::new(
        "run",
        "<bench,bench,...>",
        &[TARGET, RANKS, MAPPING, NO_XOR, SCHED, CHECKPOINT_OUT, CHECKPOINT_EVERY, RESUME],
        "one shared run under one scheduler (default PAR-BS), checkpointable",
        run,
    )
    .needs(&[("--checkpoint-every", &["--checkpoint-out"])]),
    Command::new(
        "sweep",
        "[n]",
        &[TARGET, SEED, JOBS, RANKS, MAPPING, NO_XOR],
        "n random 4-core mixes (default 10) under the paper's five schedulers",
        sweep,
    ),
    Command::new(
        "mapping-sweep",
        "[n]",
        &[TARGET, SEED, JOBS],
        "geometry/mapping ablation over n mixes (default 1): row/line x xor/noxor x \
         ranks 1/2/4 under the seven-scheduler zoo (paper Section 6)",
        mapping_sweep,
    ),
    Command::new(
        "zoo-sweep",
        "[n]",
        &[TARGET, SEED, JOBS, RANKS, MAPPING, NO_XOR, SPEC],
        "all seven schedulers (paper five + BLISS + ATLAS) over the accelerator case \
         study + n mixed CPU/accelerator mixes (default 4), fairness split by agent class",
        zoo_sweep,
    ),
    Command::new(
        "flow-sweep",
        "[n]",
        &[
            SEED,
            JOBS,
            RANKS,
            MAPPING,
            NO_XOR,
            SCHED,
            FLOW_RATE,
            FLOW_SIZE_MAX,
            CHECK_INVARIANTS,
            SPEC,
        ],
        "open-loop datacenter flows: schedulers x requester scales 16/1024/n (default \
         4096), FCT percentiles and slowdown-vs-isolation",
        flow_sweep,
    ),
    Command::new(
        "monitor",
        "",
        &[SPEC, REPLAY],
        "replay a JSONL event trace through a monitor spec, offline",
        monitor,
    ),
    Command::new(
        "check-timing",
        "",
        &[DEPTH, RANKS, BANKS, ROWS, REFRESH, TREFI_DC, NO_GATING],
        "model-check Channel gating against the protocol checker, the one interpreter of the \
         TIMING_RULES table, on tiny geometries (default depth 6, 1 and 2 ranks; --ranks \
         1-4, --banks 1-8, --rows 1-8); --refresh model-checks the tREFI deadline instead \
         (--no-gating seeds the dropped-refresh bug, which must be caught)",
        analysis::check_timing,
    )
    .needs(&[("--trefi-dc", &["--refresh"]), ("--no-gating", &["--refresh"])]),
    Command::new(
        "check-keys",
        "",
        &[SCHED],
        "validate each scheduler's declared priority-key layout against priority_key and \
         compare (default: every scheduler)",
        analysis::check_keys,
    ),
    Command::new(
        "check-liveness",
        "",
        &[SCHED, BANKS, ROWS, QUEUE, THREADS, DEPTH, WITNESS],
        "prove each scheduler's starvation bound, or print its minimal starvation lasso, by \
         exhaustive exploration of a tiny geometry (default: every scheduler)",
        analysis::check_liveness,
    ),
    Command::new(
        "check-spec",
        "<file|prelude:NAME>",
        &[],
        "compile a monitor spec and print its streams and triggers",
        analysis::check_spec,
    ),
    Command::new(
        "report",
        "",
        &[DEPTH, RANKS, BANKS, ROWS, SCHED],
        "the timing-rule table and key layouts, then check-timing (default depth 4) and \
         check-keys",
        analysis::report,
    ),
    Command::new(
        "sched_hotpath",
        "",
        &[QUICK],
        "gate: the keyed decision is at least 2x faster than the comparator sort at 128 \
         entries; writes BENCH_sched_hotpath.json",
        gates::sched_hotpath,
    ),
    Command::new(
        "many_threads",
        "",
        &[QUICK],
        "gate: decision cost at a 10k-requester population stays within 2x of 16; writes \
         BENCH_many_threads.json",
        gates::many_threads,
    ),
    Command::new(
        "parallel_sweep",
        "",
        &[QUICK],
        "gate: a sweep at jobs=4 matches jobs=1 (and is 2x faster on 4+ cores); writes \
         BENCH_parallel_sweep.json",
        gates::parallel_sweep,
    ),
    Command::new("--list", "", &[], "this list", print_available),
];

/// `case-study` and `mix` read these flags only on an observed run.
const COMPARE_NEEDS: &[(&str, &[&str])] = &[
    ("--sched", OBSERVED),
    ("--seed", OBSERVED),
    ("--trace-format", &["--trace-out"]),
    ("--monitor-report", &["--spec"]),
];

fn all_commands() -> impl Iterator<Item = &'static Command> {
    COMMANDS.iter().chain(&figures::REGENERATIONS)
}

/// Prints `msg` and exits 2, the status of every usage error.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A parsed command line: the command, its positional arguments and flags,
/// and the run options every simulating command shares.
struct Args {
    command: &'static Command,
    positional: Vec<String>,
    /// `(flag, value)` in command-line order; a switch's value is empty.
    flags: Vec<(&'static str, String)>,
    /// Instructions each thread commits: `--target`, default 30 000 (6 000
    /// under `--quick`).
    target: u64,
    /// Seed of mix construction: `--seed`, default 42.
    seed: u64,
    /// Worker threads: `--jobs` (0 means 1), default all cores.
    jobs: usize,
    /// Random 4-core workloads of the averaged regenerations: `--mixes`,
    /// default 100 (10 under `--quick`).
    mixes4: usize,
    /// Random 8-core workloads: 16 (4 under `--quick`).
    mixes8: usize,
    /// Random 16-core workloads: 12 (3 under `--quick`).
    mixes16: usize,
}

impl Args {
    /// Parses `argv` (without the program name), exiting 2 on any usage
    /// error.
    fn parse(argv: &[String]) -> Args {
        let Some(command) =
            argv.first().and_then(|name| all_commands().find(|c| c.name == name.as_str()))
        else {
            let names: Vec<&str> = all_commands().map(|c| c.name).collect();
            fail(format!(
                "usage: parbs-sim <command> [args] [flags]\ncommands: {}\n\
                 `parbs-sim --list` shows each command's arguments and flags",
                names.join(" ")
            ));
        };
        let mut positional = Vec::new();
        let mut flags: Vec<(&'static str, String)> = Vec::new();
        let mut rest = argv[1..].iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                positional.push(arg.clone());
                continue;
            }
            let Some(flag) = command.flags.iter().find(|f| f.name == arg.as_str()) else {
                if all_commands().any(|c| c.flags.iter().any(|f| f.name == arg.as_str())) {
                    fail(format!(
                        "`parbs-sim {}` does not read {arg}; `parbs-sim --list` shows its flags",
                        command.name
                    ));
                }
                fail(format!("unknown flag {arg}; `parbs-sim --list` shows the options"));
            };
            if flags.iter().any(|(f, _)| *f == flag.name) {
                fail(format!("{arg} is given twice"));
            }
            let value = if flag.value.is_empty() {
                String::new()
            } else {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => fail(format!("{arg} requires a value")),
                }
            };
            flags.push((flag.name, value));
        }
        if let Some(extra) = positional.get(command.max_args()) {
            fail(format!("unexpected argument '{extra}' for `parbs-sim {}`", command.usage()));
        }
        for (flag, partners) in command.needs {
            if flags.iter().any(|(f, _)| f == flag)
                && !flags.iter().any(|(f, _)| partners.contains(f))
            {
                fail(format!(
                    "`parbs-sim {}` reads {flag} only with {}",
                    command.name,
                    partners.join(" or ")
                ));
            }
        }
        let quick = flags.iter().any(|(f, _)| *f == "--quick");
        let (target, mixes4, mixes8, mixes16) =
            if quick { (6_000, 10, 4, 3) } else { (30_000, 100, 16, 12) };
        let mut args = Args {
            command,
            positional,
            flags,
            target,
            seed: 42,
            jobs: parbs_sim::default_jobs(),
            mixes4,
            mixes8,
            mixes16,
        };
        if let Some(t) = args.num_in("--target", 1..=u64::MAX) {
            args.target = t;
        }
        if let Some(m) = args.num_in("--mixes", 0..=MAX_MIXES) {
            args.mixes4 = m as usize;
        }
        if let Some(s) = args.num("--seed") {
            args.seed = s;
        }
        if let Some(j) = args.num_in("--jobs", 0..=MAX_JOBS) {
            args.jobs = (j as usize).max(1);
        }
        args
    }

    /// The value of `flag` (empty for a switch), if it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The integer value of `flag`; a malformed one exits 2.
    fn num(&self, flag: &str) -> Option<u64> {
        let v = self.value(flag)?;
        Some(v.parse().unwrap_or_else(|_| {
            fail(format!("invalid value '{v}' for {flag}: expected a non-negative integer"))
        }))
    }

    /// The integer value of `flag`, which must lie in `range`; a value
    /// outside it or a malformed one exits 2.
    fn num_in(&self, flag: &str, range: RangeInclusive<u64>) -> Option<u64> {
        let n = self.num(flag)?;
        if n < *range.start() {
            fail(format!("invalid value '{n}' for {flag}: expected at least {}", range.start()));
        }
        if n > *range.end() {
            fail(format!("invalid value '{n}' for {flag}: expected at most {}", range.end()));
        }
        Some(n)
    }

    /// The optional positional count of the sweeps (`sweep [n]`), at most
    /// `max`; a malformed or larger one exits 2.
    fn count(&self, default: usize, max: u64) -> usize {
        let Some(v) = self.positional.first() else { return default };
        let bad = |expected: String| -> ! {
            fail(format!(
                "invalid count '{v}' for `parbs-sim {} [n]`: expected {expected}",
                self.command.name
            ))
        };
        let n: u64 = v.parse().unwrap_or_else(|_| bad("an integer".to_owned()));
        if n > max {
            bad(format!("at most {max}"));
        }
        n as usize
    }

    /// The scheduler of a single-scheduler run, if `--sched` names one.
    fn sched(&self) -> Option<SchedulerKind> {
        self.value("--sched").map(|s| s.parse().unwrap_or_else(|e| fail(e)))
    }

    /// The base configuration of a `cores`-core system at this run's target
    /// and DRAM shape.
    fn config(&self, cores: usize) -> SimConfig {
        let mut cfg = SimConfig { target_instructions: self.target, ..SimConfig::for_cores(cores) };
        self.shape(&mut cfg);
        cfg
    }

    /// Applies the DRAM-shape flags (`--ranks`, `--mapping`, `--no-xor`) to
    /// `cfg`; a shape that fails validation exits 2.
    fn shape(&self, cfg: &mut SimConfig) {
        if let Some(ranks) = self.num("--ranks") {
            cfg.dram.geometry.ranks_per_channel = ranks as usize;
        }
        if let Some(m) = self.value("--mapping") {
            cfg.dram.mapping = MappingPolicy::parse(m)
                .unwrap_or_else(|| fail(format!("unknown mapping '{m}'; expected row or line")));
        }
        if self.has("--no-xor") {
            cfg.dram.mapping = cfg.dram.mapping.with_xor(false);
        }
        if let Err(e) = cfg.dram.validate() {
            fail(format!("invalid DRAM shape: {e}"));
        }
    }

    fn harness(&self, cores: usize) -> Harness {
        Harness::new(self.config(cores))
    }
}

/// Resolves a `--spec` argument: `prelude:<name>` for a built-in spec,
/// anything else is a path to a spec file. Compile errors are hard errors
/// with the `line:col: message` position.
fn load_spec(arg: &str) -> Spec {
    if let Some(name) = arg.strip_prefix("prelude:") {
        return parbs_monitor::prelude::by_name(name).unwrap_or_else(|| {
            fail(format!(
                "unknown prelude spec '{name}'; expected one of: {}",
                parbs_monitor::prelude::NAMES.join(", ")
            ))
        });
    }
    let src = std::fs::read_to_string(arg)
        .unwrap_or_else(|e| fail(format!("cannot read spec {arg}: {e}")));
    match Spec::compile(&src) {
        Ok(spec) => {
            for lint in spec.lints() {
                eprintln!("{arg}: warning: {lint}");
            }
            spec
        }
        Err(e) => fail(format!("{arg}:{e}")),
    }
}

/// The observability flags, when one of [`OBSERVED`] is present.
struct ObserveArgs {
    out: Option<String>,
    format: TraceFormat,
    check: bool,
    sched: SchedulerKind,
    spec: Option<Spec>,
    monitor_report: bool,
}

impl ObserveArgs {
    fn parse(args: &Args) -> Option<ObserveArgs> {
        let out = args.value("--trace-out").map(str::to_owned);
        let check = args.has("--check-invariants");
        let spec = args.value("--spec").map(load_spec);
        if out.is_none() && !check && spec.is_none() {
            return None;
        }
        let format = args.value("--trace-format").map_or_else(TraceFormat::default, |f| {
            TraceFormat::parse(f).unwrap_or_else(|| {
                fail(format!("unknown trace format '{f}'; expected chrome or jsonl"))
            })
        });
        let sched = args.sched().unwrap_or_else(|| SchedulerKind::ParBs(Default::default()));
        Some(ObserveArgs {
            out,
            format,
            check,
            sched,
            spec,
            monitor_report: args.has("--monitor-report"),
        })
    }
}

/// Runs `mix` once with sinks attached, writes the trace, prints the
/// invariant reports, and exits non-zero if a batching invariant broke.
fn run_observed_cli(mix: &MixSpec, args: &Args, oa: &ObserveArgs) {
    let cfg = SimConfig { seed: args.seed, ..args.config(mix.cores()) };
    let opts = ObserveOptions {
        check_invariants: oa.check,
        trace: oa.out.as_ref().map(|_| oa.format),
        spec: oa.spec.clone(),
    };
    let start = Instant::now();
    let obs = parbs_sim::run_observed(cfg, mix, &oa.sched, &opts);
    println!(
        "observed run: {} on '{}', {} cycles{}",
        oa.sched.name(),
        mix.name,
        obs.result.cycles,
        if obs.result.timed_out { " (timed out)" } else { "" }
    );
    println!("channel 0: {}", obs.counters);
    if let (Some(path), Some(trace)) = (&oa.out, &obs.trace) {
        if let Err(e) = std::fs::write(path, trace) {
            fail(format!("cannot write {path}: {e}"));
        }
        println!("wrote {} bytes of {} trace to {path}", trace.len(), oa.format.name());
    }
    if oa.check {
        let (n, scope) = (obs.violation_count, format!("{} channel(s)", obs.invariants.len()));
        print_verdict(INVARIANTS_VERDICT, &obs.invariants, false, n, n > 0, &scope);
    }
    if oa.spec.is_some() {
        let scope = format!("{} channel(s)", obs.monitors.len());
        let (alarms, failed) = (obs.alarm_count, obs.monitors.iter().any(|rep| !rep.ok));
        print_verdict(SPEC_VERDICT, &obs.monitors, oa.monitor_report, alarms, failed, &scope);
    }
    println!("observed in {:.2}s", start.elapsed().as_secs_f64());
}

/// How the `--check-invariants` verdict names its monitor, what the
/// monitor did, and an alarm.
const INVARIANTS_VERDICT: [&str; 3] = ["invariants", "checked", "invariant violation(s)"];

/// How the `--spec` verdict names the same.
const SPEC_VERDICT: [&str; 3] = ["monitor", "monitored", "monitor alarm(s)"];

/// Prints one monitor's verdict: each channel report of an observed run
/// (with its trigger counts when `triggers`), then `OK` over `scope`, or,
/// when `failed`, the alarm count on stderr and exit 1.
fn print_verdict(
    [monitor, verb, alarm]: [&str; 3],
    reports: &[MonitorReport],
    triggers: bool,
    alarms: usize,
    failed: bool,
    scope: &str,
) {
    for rep in reports {
        println!("channel {}: {}", rep.channel, rep.summary);
        for a in &rep.alarms {
            println!("{a}");
        }
        if triggers {
            for (name, sev, count) in &rep.trigger_counts {
                println!("  trigger {name} [{sev}]: {count} fire(s)");
            }
        }
    }
    if failed {
        eprintln!("{alarms} {alarm}");
        std::process::exit(1);
    }
    println!("{monitor}: OK ({scope} {verb})");
}

/// Re-runs every (scheduler, mix) cell of the zoo on `cfg`, the system the
/// zoo table measured, observed with `spec` attached, and prints the
/// per-trigger fire counts summed over channels — the measured "which
/// scheduler trips which trigger where" table.
fn zoo_trigger_table(mixes: &[MixSpec], cfg: &SimConfig, spec: &Spec) {
    let triggers = spec.triggers();
    print!("{:10} {:12}", "scheduler", "mix");
    for (name, _) in &triggers {
        print!(" {name:>16}");
    }
    println!(" {:>7}", "events");
    for sched in SchedulerKind::zoo_seven() {
        for mix in mixes {
            let opts = ObserveOptions { spec: Some(spec.clone()), ..Default::default() };
            let obs = parbs_sim::run_observed(cfg.clone(), mix, &sched, &opts);
            let mut counts = vec![0u64; triggers.len()];
            let mut events = 0u64;
            for rep in &obs.monitors {
                events += rep.events;
                for (i, (name, _)) in triggers.iter().enumerate() {
                    for (n, _, k) in &rep.trigger_counts {
                        if n == name {
                            counts[i] += k;
                        }
                    }
                }
            }
            print!("{:10} {:12}", sched.name(), mix.name);
            for c in &counts {
                print!(" {c:>16}");
            }
            println!(" {events:>7}");
        }
    }
}

fn print_run_summary(start: Instant, evaluations: usize, jobs: usize, stats: CacheStats) {
    println!(
        "{} evaluation(s) in {:.2}s (jobs={}, alone-cache: {} hits / {} misses)",
        evaluations,
        start.elapsed().as_secs_f64(),
        jobs,
        stats.hits,
        stats.misses
    );
}

/// The benchmark list of `mix` and `run`; every name must exist.
fn bench_names(args: &Args) -> Vec<&str> {
    let Some(list) = args.positional.first() else {
        fail(format!("usage: parbs-sim {} <bench,bench,...>", args.command.name));
    };
    let names: Vec<&str> = list.split(',').collect();
    if let Some(n) = names.iter().find(|n| by_name(n).is_none()) {
        fail(format!("unknown benchmark '{n}'; try `parbs-sim list`"));
    }
    names
}

/// Runs `mix` under the paper's five schedulers, or once observed when a
/// flag of [`OBSERVED`] is given.
fn compare_or_observe(args: &Args, mix: &MixSpec, title: &str) {
    if let Some(oa) = ObserveArgs::parse(args) {
        run_observed_cli(mix, args, &oa);
        return;
    }
    let harness = args.harness(mix.cores());
    let sweep = figures::paper_five(std::slice::from_ref(mix));
    let start = Instant::now();
    figures::print_case_study(title, &sweep.run(&harness, args.jobs));
    print_run_summary(start, sweep.job_count(), args.jobs, harness.cache_stats());
}

fn case_study(args: &Args) {
    let mix = match args.positional.first().map(String::as_str) {
        Some("1") => case_study_1(),
        Some("2") => case_study_2(),
        Some("3") => case_study_3(),
        other => fail(format!("unknown case study {other:?}; expected 1, 2 or 3")),
    };
    compare_or_observe(args, &mix, &format!("case study {} ({} cores)", mix.name, mix.cores()));
}

fn mix(args: &Args) {
    let names = bench_names(args);
    let mix = MixSpec::from_names("custom", &names);
    compare_or_observe(args, &mix, &format!("mix {} ({} cores)", names.join(","), mix.cores()));
}

fn bench(args: &Args) {
    let Some(bench) = args.positional.first().and_then(|n| by_name(n)) else {
        fail("usage: parbs-sim bench <name>  (see `parbs-sim list`)");
    };
    let r = experiments::table3_row(&args.config(4), bench);
    println!(
        "{} alone: MCPI {:.2} (paper {:.2})  MPKI {:.1} ({:.1})  RB hit {:.2} ({:.2})  BLP {:.2} ({:.2})  AST/req {:.0} ({:.0})",
        bench.name, r.mcpi, bench.paper.mcpi, r.mpki, bench.paper.mpki,
        r.rb_hit, bench.paper.rb_hit, r.blp, bench.paper.blp,
        r.ast_per_req, bench.paper.ast_per_req
    );
}

fn list(_: &Args) {
    println!(
        "{:>2} {:12} {:>7} {:>7} {:>6} {:>9}",
        "#", "name", "MPKI", "RBhit", "BLP", "category"
    );
    for b in all_benchmarks() {
        println!(
            "{:>2} {:12} {:>7.2} {:>7.2} {:>6.2} {:>9}",
            b.number, b.name, b.mpki, b.row_hit, b.blp, b.category
        );
    }
}

fn trace(args: &Args) {
    if args.positional.is_empty() {
        fail("usage: parbs-sim trace <file> [file...]");
    }
    let mut streams: Vec<Box<dyn parbs_cpu::InstructionStream>> = Vec::new();
    for p in &args.positional {
        match parbs_workloads::load_trace(std::path::Path::new(p)) {
            Ok(s) => streams.push(Box::new(s)),
            Err(e) => fail(e),
        }
    }
    let cores = streams.len();
    let cfg = SimConfig { cores, ..args.config(cores.max(4)) };
    let mut sys = parbs_sim::System::new(cfg, streams, &SchedulerKind::ParBs(Default::default()));
    let r = sys.run();
    println!(
        "{:24} {:>7} {:>7} {:>6} {:>8} {:>6}",
        "trace", "MCPI", "MPKI", "BLP", "AST/req", "RBhit"
    );
    for (p, t) in args.positional.iter().zip(&r.threads) {
        println!(
            "{:24} {:>7.2} {:>7.1} {:>6.2} {:>8.0} {:>6.2}",
            p,
            t.mcpi(),
            t.mpki(),
            t.blp,
            t.ast_per_req(),
            t.read_hit_rate
        );
    }
    println!("cycles: {} (PAR-BS)", r.cycles);
}

fn run(args: &Args) {
    let names = bench_names(args);
    let mix = MixSpec::from_names("custom", &names);
    let sched = args.sched().unwrap_or_else(|| SchedulerKind::ParBs(Default::default()));
    // The checkpoint fingerprint label: the bench list itself, so a blob
    // saved from one mix cannot restore into another.
    let label = names.join(",");
    let ckpt_out = args.value("--checkpoint-out");
    let every = args.num_in("--checkpoint-every", 1..=u64::MAX).unwrap_or(1_000_000);
    let harness = args.harness(mix.cores());
    let mut sys = harness.shared_system(&mix, &sched, &Default::default());
    let mut progress = match args.value("--resume") {
        None => sys.begin_run(),
        Some(path) => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| fail(format!("cannot read checkpoint {path}: {e}")));
            let p = sys
                .resume(&bytes, &label)
                .unwrap_or_else(|e| fail(format!("cannot resume from {path}: {e}")));
            println!(
                "resumed from {path} at cycle {} ({} thread(s) still running)",
                p.cycles(),
                p.threads_remaining()
            );
            p
        }
    };
    let save_to = |path: &str, sys: &parbs_sim::System, p: &parbs_sim::RunProgress| {
        let blob = sys
            .save_checkpoint(p, &label)
            .unwrap_or_else(|e| fail(format!("cannot checkpoint: {e}")));
        if let Err(e) = std::fs::write(path, &blob) {
            fail(format!("cannot write {path}: {e}"));
        }
        println!("checkpoint: wrote {} bytes to {path} at cycle {}", blob.len(), p.cycles());
    };
    let start = Instant::now();
    // A save lands every `every` cycles: step to the next one, then save
    // unless the run ended first.
    loop {
        sys.step_cycles(&mut progress, every);
        if progress.threads_remaining() == 0 || progress.timed_out() {
            break;
        }
        if let Some(path) = ckpt_out {
            save_to(path, &sys, &progress);
        }
    }
    if let Some(path) = ckpt_out {
        save_to(path, &sys, &progress);
    }
    let r = sys.finish_run(progress);
    println!(
        "{:12} {:>7} {:>7} {:>6} {:>8} {:>6}",
        "bench", "MCPI", "MPKI", "BLP", "AST/req", "RBhit"
    );
    for (b, t) in mix.benchmarks.iter().zip(&r.threads) {
        println!(
            "{:12} {:>7.2} {:>7.1} {:>6.2} {:>8.0} {:>6.2}",
            b.name,
            t.mcpi(),
            t.mpki(),
            t.blp,
            t.ast_per_req(),
            t.read_hit_rate
        );
    }
    println!(
        "cycles: {} ({}){} in {:.2}s",
        r.cycles,
        sched.name(),
        if r.timed_out { " (timed out)" } else { "" },
        start.elapsed().as_secs_f64()
    );
}

fn sweep(args: &Args) {
    let n = args.count(10, MAX_MIXES);
    let harness = args.harness(4);
    let mixes = random_mixes(4, n, args.seed);
    let sweep = figures::paper_five(&mixes);
    let start = Instant::now();
    let rows = sweep.run(&harness, args.jobs);
    figures::print_summaries(
        &format!("{n} random 4-core mixes, the paper's five schedulers"),
        &rows,
    );
    print_run_summary(start, sweep.job_count(), args.jobs, harness.cache_stats());
}

fn mapping_sweep(args: &Args) {
    let n = args.count(1, MAX_MIXES);
    let mixes = random_mixes(4, n, args.seed);
    let systems = experiments::mapping_sweep_systems(&args.config(4));
    let sweep = SweepPlan::new(&mixes, &experiments::named_rows(SchedulerKind::zoo_seven()));
    let start = Instant::now();
    let mut rows = Vec::new();
    let mut cache = CacheStats::default();
    for (system, cfg) in &systems {
        let harness = Harness::new(cfg.clone());
        rows.extend(sweep.run(&harness, args.jobs).into_iter().map(|mut row| {
            row.label = format!("{system}/{}", row.label);
            row
        }));
        let stats = harness.cache_stats();
        cache.hits += stats.hits;
        cache.misses += stats.misses;
    }
    let jobs = systems.len() * sweep.job_count();
    figures::print_summaries(
        &format!("geometry/mapping ablation: {} rows x {} mix(es) = {} jobs", rows.len(), n, jobs),
        &rows,
    );
    print_run_summary(start, jobs, args.jobs, cache);
}

fn zoo_sweep(args: &Args) {
    let harness = args.harness(4);
    let mixes = figures::zoo_mixes(args.count(4, MAX_MIXES), args.seed);
    let sweep = SweepPlan::new(&mixes, &experiments::named_rows(SchedulerKind::zoo_seven()));
    let start = Instant::now();
    let rows = experiments::zoo_rows(sweep.run(&harness, args.jobs), &mixes);
    figures::print_zoo(
        &format!(
            "scheduler zoo: 7 schedulers x {} mixed CPU/accelerator mix(es) = {} jobs",
            mixes.len(),
            sweep.job_count()
        ),
        &rows,
    );
    print_run_summary(start, sweep.job_count(), args.jobs, harness.cache_stats());
    if let Some(spec) = args.value("--spec") {
        zoo_trigger_table(&mixes, harness.config(), &load_spec(spec));
    }
}

fn flow_sweep(args: &Args) {
    let n = args.count(4096, MAX_REQUESTERS);
    let mut cfg = SimConfig { seed: args.seed, ..SimConfig::for_cores(4) };
    args.shape(&mut cfg);
    let rate_per_kcycle = args.num_in("--flow-rate", 1..=u64::MAX).unwrap_or(2);
    // The smallest flow has two requests.
    let size_max = args.num_in("--flow-size-max", 2..=u64::MAX).unwrap_or(256);
    let flows = FlowConfig {
        arrival_rate: rate_per_kcycle as f64 / 1000.0,
        size: BoundedPareto { alpha: 1.2, min: 2, max: size_max },
        seed: args.seed,
        ..FlowConfig::default()
    };
    let check = args.has("--check-invariants");
    let spec = args.value("--spec").map(load_spec);
    let schedulers = args.sched().map_or_else(SchedulerKind::zoo_seven, |s| vec![s]);
    let mut scales: Vec<usize> = vec![16, 1024, n];
    scales.sort_unstable();
    scales.dedup();
    println!(
        "open-loop flow sweep: {} scheduler(s) x scales {:?}, \
         rate {}/kcycle, sizes 2..={}{}",
        schedulers.len(),
        scales,
        rate_per_kcycle,
        size_max,
        if check { ", invariants checked" } else { "" }
    );
    let start = Instant::now();
    let rows = parbs_sim::run_flow_sweep(
        &cfg,
        &schedulers,
        &scales,
        &flows,
        check,
        spec.as_ref(),
        args.jobs,
    );
    println!(
        "{:10} {:>6} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "scheduler",
        "flows",
        "fct-p50",
        "fct-p95",
        "fct-p99",
        "sd-p50",
        "sd-p99",
        "sd-rate",
        "backlog"
    );
    let mut violations = 0;
    let mut alarms = 0;
    for r in &rows {
        let s = &r.summary;
        println!(
            "{:10} {:>6} {:>9} {:>9} {:>9} {:>8.2} {:>8.2} {:>8.3} {:>8}{}",
            r.scheduler,
            r.requesters,
            s.fct_p50,
            s.fct_p95,
            s.fct_p99,
            s.slowdown_p50,
            s.slowdown_p99,
            s.slowdown_rate,
            r.drive.peak_backlog,
            if r.drive.timed_out { " (timed out)" } else { "" }
        );
        violations += r.drive.invariant_violations;
        alarms += r.drive.monitor_alarms;
    }
    println!(
        "{} flow run(s) in {:.2}s (jobs={})",
        rows.len(),
        start.elapsed().as_secs_f64(),
        args.jobs
    );
    let scope = format!("{} run(s)", rows.len());
    if check {
        print_verdict(INVARIANTS_VERDICT, &[], false, violations, violations > 0, &scope);
    }
    if spec.is_some() {
        print_verdict(SPEC_VERDICT, &[], false, alarms, alarms > 0, &scope);
    }
}

fn monitor(args: &Args) {
    let (Some(spec_arg), Some(trace_path)) = (args.value("--spec"), args.value("--replay")) else {
        fail("usage: parbs-sim monitor --spec <file|prelude:name> --replay <jsonl>");
    };
    let spec = load_spec(spec_arg);
    let text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| fail(format!("cannot read trace {trace_path}: {e}")));
    let mon = parbs_monitor::replay_jsonl(&spec, &text)
        .unwrap_or_else(|e| fail(format!("{trace_path}: {e}")));
    println!("{}", mon.summary());
    for a in mon.alarms() {
        println!("{a}");
    }
    for (name, sev, count) in mon.trigger_counts() {
        println!("  trigger {name} [{sev}]: {count} fire(s)");
    }
    if !mon.ok() {
        std::process::exit(1);
    }
}

/// Prints `items` space-separated after a `margin`-column indent, wrapped
/// before column 80.
fn print_wrapped(margin: usize, items: impl IntoIterator<Item = String>) {
    let mut line = String::new();
    for item in items {
        if !line.is_empty() && margin + line.len() + 1 + item.len() > 80 {
            println!("{:margin$}{line}", "");
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(&item);
    }
    if !line.is_empty() {
        println!("{:margin$}{line}", "");
    }
}

fn flag_usage(flags: &[Flag]) -> impl Iterator<Item = String> + '_ {
    flags
        .iter()
        .map(|f| format!("[{}{}{}]", f.name, if f.value.is_empty() { "" } else { " " }, f.value))
}

fn print_available(_: &Args) {
    println!("mixes (run with `parbs-sim case-study <n>` / `parbs-sim mix <a,b,c,d>`):");
    for (n, mix) in [(1, case_study_1()), (2, case_study_2()), (3, case_study_3())] {
        let names: Vec<&str> = mix.benchmarks.iter().map(|b| b.name).collect();
        println!("  case-study {n}  {:10} {}", mix.name, names.join(", "));
    }
    println!(
        "  mix a,b,c,...  any of the {} benchmarks (see `parbs-sim list`)",
        all_benchmarks().len()
    );
    println!("\ncommands:");
    for c in &COMMANDS {
        println!("  {}", c.usage());
        print_wrapped(6, c.about.split(' ').map(str::to_owned));
        print_wrapped(6, flag_usage(c.flags));
        for (flag, partners) in c.needs {
            println!("      {flag} only with {}", partners.join(" or "));
        }
    }
    println!("\nregenerations (one per paper figure/table, plus extensions):");
    for c in &figures::REGENERATIONS {
        println!("  {:22} {}", c.name, c.about);
        print_wrapped(6, flag_usage(c.flags));
    }
}

fn main() {
    // `println!` panics once stdout is a closed pipe (`parbs-sim ... | head`):
    // that is the reader's choice to stop, so exit quietly. Every other
    // panic goes to the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    (args.command.run)(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(&argv)
    }

    #[test]
    fn default_scale_is_the_paper_scale() {
        let a = parse(&["fig05_case1"]);
        assert_eq!((a.target, a.seed, a.jobs), (30_000, 42, parbs_sim::default_jobs()));
        assert_eq!((a.mixes4, a.mixes8, a.mixes16), (100, 16, 12));
    }

    #[test]
    fn quick_switches_to_the_smoke_scale() {
        let a = parse(&["fig05_case1", "--quick"]);
        assert_eq!((a.target, a.seed), (6_000, 42));
        assert_eq!((a.mixes4, a.mixes8, a.mixes16), (10, 4, 3));
    }

    #[test]
    fn mixes_sets_only_the_four_core_count() {
        let a = parse(&["table4_summary", "--mixes", "7"]);
        assert_eq!((a.mixes4, a.mixes8, a.mixes16), (7, 16, 12));
    }

    #[test]
    fn explicit_flags_override_the_preset() {
        let a = parse(&[
            "fig08_4core_avg",
            "--quick",
            "--target",
            "9000",
            "--mixes",
            "7",
            "--seed",
            "3",
        ]);
        assert_eq!((a.target, a.mixes4, a.seed), (9_000, 7, 3));
        assert_eq!(a.mixes8, 4, "unset fields keep the preset");
    }

    #[test]
    fn jobs_zero_means_one_worker() {
        assert_eq!(parse(&["sweep", "--jobs", "6"]).jobs, 6);
        assert_eq!(parse(&["sweep", "--jobs", "0"]).jobs, 1);
    }

    #[test]
    fn the_command_table_is_consistent() {
        let names: Vec<&str> = all_commands().map(|c| c.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
        }
        for c in all_commands() {
            let reads = |flag: &str| c.flags.iter().any(|f| f.name == flag);
            for (flag, partners) in c.needs {
                assert!(
                    reads(flag),
                    "{}: a partner rule for {flag}, which it does not read",
                    c.name
                );
                assert!(partners.iter().all(|p| reads(p)), "{}: {flag}'s partners", c.name);
            }
        }
    }
}
