//! `parbs-sim` — command-line front end for the PAR-BS reproduction.
//!
//! ```text
//! parbs-sim case-study <1|2|3>          run a paper case study (Figs. 5-7)
//! parbs-sim mix <bench,bench,...>       run a custom mix under all schedulers
//! parbs-sim bench <name>                run one benchmark alone (Table 3 row)
//! parbs-sim list                        list the 28 synthetic benchmarks
//! parbs-sim sweep [n]                   n random 4-core mixes (default 10)
//! parbs-sim trace <file> [file...]      run trace files (one per core)
//! parbs-sim run <bench,bench,...>       one shared run, checkpointable
//! parbs-sim --list                      enumerate available mixes and sweeps
//!
//! parbs-sim mapping-sweep [n]           geometry/mapping ablation (paper §6)
//! parbs-sim zoo-sweep [n]               seven schedulers × n mixed
//!                                       CPU/accelerator workloads
//! parbs-sim flow-sweep [n]              open-loop flow frontend: schedulers ×
//!                                       requester scales {16, 1024, n}, FCT
//!                                       percentiles + slowdown-vs-isolation
//! parbs-sim monitor --spec <spec>       replay a JSONL event trace through a
//!            --replay <trace.jsonl>     monitor spec, offline
//!
//! options: --target <instructions>   per-thread run length (default 30000)
//!          --seed <seed>             workload seed (default 42)
//!          --jobs <n>                worker threads (default: all cores)
//!
//! checkpointing (`run` only; one mix, one scheduler, one System):
//!          --sched <name>            scheduler for the run (default PAR-BS)
//!          --checkpoint-out <path>   write a checkpoint to <path>
//!          --checkpoint-every <n>    ... every n cycles (default 1000000)
//!          --resume <path>           restore state from a checkpoint and
//!                                    continue; the blob must match the
//!                                    system's config/scheduler/mix
//!                                    fingerprint or the run hard-errors
//!
//! Malformed option values (`--jobs abc`, `--ranks -1`), value flags with
//! no value (`--trace-out` at the end of the line) and unknown flags
//! (`--check-invariant`) are hard errors (exit 2) naming the offending
//! flag, never silent fallbacks to defaults.
//!
//! DRAM shape (any command):
//!          --ranks <n>               ranks per channel (default 1)
//!          --mapping <row|line>      address-mapping policy (default row)
//!          --no-xor                  disable the XOR bank permutation
//!
//! observability (case-study / mix only; runs the mix once, observed):
//!          --trace-out <path>        write the event trace to <path>
//!          --trace-format <fmt>      chrome (Perfetto-loadable) | jsonl
//!          --check-invariants        verify the PAR-BS batching invariants
//!                                    with the prelude:invariants monitor
//!                                    on every channel; exit 1 on any
//!                                    violation
//!          --trace-sched <name>      scheduler for the observed run
//!                                    (FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|
//!                                    BLISS|ATLAS, default PAR-BS)
//!          --spec <spec>             attach a monitor compiled from a spec
//!                                    file, or prelude:invariants /
//!                                    prelude:qos; exit 1 on error alarms
//!          --monitor-report          print the per-trigger fire counts
//!
//! `--spec` also works on zoo-sweep (observed re-runs print a trigger table
//! per scheduler) and flow-sweep (alarm totals per run).
//!
//! flow-sweep options:
//!          --sched <name>            run one scheduler instead of the zoo
//!          --flow-rate <n>           mean flow arrivals per kilocycle (2)
//!          --flow-size-max <n>       bounded-Pareto size cap, requests (256)
//!          --check-invariants        protocol checker + prelude:invariants
//!                                    monitor on every controller; exit 1
//!                                    on any violation
//! ```
//!
//! Every evaluation command fans its plan across `--jobs` worker threads
//! (results are identical at any jobs level) and ends with a one-line
//! wall-clock + alone-cache summary.

use std::time::Instant;

use parbs_dram::MappingPolicy;
use parbs_monitor::Spec;
use parbs_sim::{experiments, Harness, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::{
    all_benchmarks, by_name, case_study_1, case_study_2, case_study_3, random_mixes, BoundedPareto,
    FlowConfig, MixSpec,
};

/// Every flag that takes a value.
const VALUE_FLAGS: [&str; 16] = [
    "--target",
    "--seed",
    "--jobs",
    "--ranks",
    "--mapping",
    "--sched",
    "--checkpoint-out",
    "--checkpoint-every",
    "--resume",
    "--trace-out",
    "--trace-format",
    "--trace-sched",
    "--spec",
    "--replay",
    "--flow-rate",
    "--flow-size-max",
];

/// Every flag that stands alone.
const SWITCHES: [&str; 4] = ["--list", "--no-xor", "--check-invariants", "--monitor-report"];

/// Rejects, with exit 2 naming the flag, any `--flag` that is neither a
/// value flag nor a switch, and any value flag that is last on the line or
/// followed by another flag. A typo such as `--check-invariant` would
/// otherwise run unchecked, and a bare `--trace-out` would run untraced.
fn check_flags(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") || SWITCHES.contains(&arg.as_str()) {
            continue;
        }
        if !VALUE_FLAGS.contains(&arg.as_str()) {
            eprintln!("unknown flag {arg}; `parbs-sim --list` shows the options");
            std::process::exit(2);
        }
        if rest.next().is_none_or(|v| v.starts_with("--")) {
            eprintln!("{arg} requires a value");
            std::process::exit(2);
        }
    }
}

/// Looks up the value of `flag`. A missing flag is `None`; a flag that is
/// present but has a missing or unparseable value is a **hard error** naming
/// the flag — silently falling back to a default would run the wrong
/// experiment.
fn value_of(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    };
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("invalid value '{v}' for {flag}: expected a non-negative integer");
            std::process::exit(2);
        }
    }
}

/// Parses an optional positional count (`sweep [n]`). A flag or absent
/// argument means "use the default"; anything else must parse.
fn count_arg(args: &[String], command: &str, default: usize) -> usize {
    match args.get(1) {
        None => default,
        Some(v) if v.starts_with("--") => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid count '{v}' for `parbs-sim {command} [n]`: expected an integer");
            std::process::exit(2);
        }),
    }
}

fn str_value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn sched_by_name(name: &str) -> Option<SchedulerKind> {
    match name.to_ascii_uppercase().as_str() {
        "FCFS" => Some(SchedulerKind::Fcfs),
        "FR-FCFS" | "FRFCFS" => Some(SchedulerKind::FrFcfs),
        "NFQ" => Some(SchedulerKind::Nfq),
        "STFQ" => Some(SchedulerKind::Stfq),
        "STFM" => Some(SchedulerKind::Stfm),
        "PAR-BS" | "PARBS" => Some(SchedulerKind::ParBs(Default::default())),
        "BLISS" => Some(SchedulerKind::Bliss(Default::default())),
        "ATLAS" => Some(SchedulerKind::Atlas(Default::default())),
        _ => None,
    }
}

/// Resolves a `--spec` argument: `prelude:<name>` for a built-in spec,
/// anything else is a path to a spec file. Compile errors are hard errors
/// with the `line:col: message` position.
fn load_spec(arg: &str) -> Spec {
    if let Some(name) = arg.strip_prefix("prelude:") {
        return parbs_monitor::prelude::by_name(name).unwrap_or_else(|| {
            eprintln!(
                "unknown prelude spec '{name}'; expected one of: {}",
                parbs_monitor::prelude::NAMES.join(", ")
            );
            std::process::exit(2);
        });
    }
    let src = std::fs::read_to_string(arg).unwrap_or_else(|e| {
        eprintln!("cannot read spec {arg}: {e}");
        std::process::exit(2);
    });
    match Spec::compile(&src) {
        Ok(spec) => {
            for lint in spec.lints() {
                eprintln!("{arg}: warning: {lint}");
            }
            spec
        }
        Err(e) => {
            eprintln!("{arg}:{e}");
            std::process::exit(2);
        }
    }
}

/// The DRAM-shape flags (`--ranks`, `--mapping`, `--no-xor`), applied to
/// every command's base configuration.
#[derive(Clone, Copy)]
struct ShapeArgs {
    ranks: Option<usize>,
    mapping: Option<MappingPolicy>,
    no_xor: bool,
}

impl ShapeArgs {
    fn parse(args: &[String]) -> ShapeArgs {
        let mapping = str_value_of(args, "--mapping").map(|m| {
            MappingPolicy::parse(m).unwrap_or_else(|| {
                eprintln!("unknown mapping '{m}'; expected row or line");
                std::process::exit(2);
            })
        });
        ShapeArgs {
            ranks: value_of(args, "--ranks").map(|r| r as usize),
            mapping,
            no_xor: args.iter().any(|a| a == "--no-xor"),
        }
    }

    fn apply(&self, cfg: &mut SimConfig) {
        if let Some(ranks) = self.ranks {
            cfg.dram.geometry.ranks_per_channel = ranks;
        }
        if let Some(mapping) = self.mapping {
            cfg.dram.mapping = mapping;
        }
        if self.no_xor {
            cfg.dram.mapping = cfg.dram.mapping.with_xor(false);
        }
        if let Err(e) = cfg.dram.validate() {
            eprintln!("invalid DRAM shape: {e}");
            std::process::exit(2);
        }
    }
}

/// The observability flags, when any is present.
struct ObserveArgs {
    out: Option<String>,
    format: TraceFormat,
    check: bool,
    sched: SchedulerKind,
    spec: Option<Spec>,
    monitor_report: bool,
}

fn observe_args(args: &[String]) -> Option<ObserveArgs> {
    let out = str_value_of(args, "--trace-out").map(str::to_owned);
    let check = args.iter().any(|a| a == "--check-invariants");
    let spec = str_value_of(args, "--spec").map(load_spec);
    let monitor_report = args.iter().any(|a| a == "--monitor-report");
    if out.is_none() && !check && spec.is_none() {
        return None;
    }
    let format = match str_value_of(args, "--trace-format") {
        None => TraceFormat::default(),
        Some(f) => TraceFormat::parse(f).unwrap_or_else(|| {
            eprintln!("unknown trace format '{f}'; expected chrome or jsonl");
            std::process::exit(2);
        }),
    };
    let sched = match str_value_of(args, "--trace-sched") {
        None => SchedulerKind::ParBs(Default::default()),
        Some(s) => sched_by_name(s).unwrap_or_else(|| {
            eprintln!(
                "unknown scheduler '{s}'; expected FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|BLISS|ATLAS"
            );
            std::process::exit(2);
        }),
    };
    Some(ObserveArgs { out, format, check, sched, spec, monitor_report })
}

/// Runs `mix` once with sinks attached, writes the trace, prints the
/// invariant reports, and exits non-zero if a batching invariant broke.
fn run_observed_cli(
    mix: &parbs_workloads::MixSpec,
    target: u64,
    seed: u64,
    shape: &ShapeArgs,
    oa: &ObserveArgs,
) {
    let mut cfg =
        SimConfig { target_instructions: target, seed, ..SimConfig::for_cores(mix.cores()) };
    shape.apply(&mut cfg);
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
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {} bytes of {} trace to {path}", trace.len(), oa.format.name());
    }
    if oa.check {
        for rep in &obs.invariants {
            println!("channel {}: {}", rep.channel, rep.summary);
            for a in &rep.alarms {
                println!("{a}");
            }
        }
        if obs.violation_count > 0 {
            eprintln!("{} invariant violation(s)", obs.violation_count);
            std::process::exit(1);
        }
        println!("invariants: OK ({} channel(s) checked)", obs.invariants.len());
    }
    if oa.spec.is_some() {
        let mut errors = false;
        for rep in &obs.monitors {
            println!("channel {}: {}", rep.channel, rep.summary);
            for a in &rep.alarms {
                println!("{a}");
            }
            if oa.monitor_report {
                for (name, sev, count) in &rep.trigger_counts {
                    println!("  trigger {name} [{sev}]: {count} fire(s)");
                }
            }
            errors |= !rep.ok;
        }
        if errors {
            eprintln!("{} monitor alarm(s)", obs.alarm_count);
            std::process::exit(1);
        }
        println!("monitor: OK ({} channel(s) monitored)", obs.monitors.len());
    }
    println!("observed in {:.2}s", start.elapsed().as_secs_f64());
}

/// Re-runs every (scheduler, mix) cell of the zoo observed with `spec`
/// attached and prints the per-trigger fire counts summed over channels —
/// the measured "which scheduler trips which trigger where" table.
fn zoo_trigger_table(
    mixes: &[parbs_workloads::MixSpec],
    target: u64,
    seed: u64,
    shape: &ShapeArgs,
    spec: &Spec,
) {
    let triggers = spec.triggers();
    print!("{:10} {:12}", "scheduler", "mix");
    for (name, _) in &triggers {
        print!(" {name:>16}");
    }
    println!(" {:>7}", "events");
    for sched in SchedulerKind::zoo_seven() {
        for mix in mixes {
            let mut cfg = SimConfig {
                target_instructions: target,
                seed,
                ..SimConfig::for_cores(mix.cores())
            };
            shape.apply(&mut cfg);
            let opts = ObserveOptions { spec: Some(spec.clone()), ..Default::default() };
            let obs = parbs_sim::run_observed(cfg, mix, &sched, &opts);
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

fn print_evals(evals: &[parbs_sim::MixEvaluation]) {
    if let Some(first) = evals.first() {
        print!("{:10}", "scheduler");
        for name in &first.thread_names {
            print!(" {name:>11}");
        }
        println!(" {:>10} {:>7} {:>7} {:>7} {:>7}", "unfairness", "wspeed", "hspeed", "ast", "wc");
    }
    for e in evals {
        print!("{:10}", e.scheduler);
        for s in &e.metrics.slowdowns {
            print!(" {s:>11.2}");
        }
        println!(
            " {:>10.2} {:>7.3} {:>7.3} {:>7.1} {:>7}",
            e.metrics.unfairness,
            e.metrics.weighted_speedup,
            e.metrics.hmean_speedup,
            e.metrics.ast_per_req,
            e.worst_case_latency
        );
    }
}

fn print_run_summary(start: Instant, evaluations: usize, jobs: usize, harness: &Harness) {
    let stats = harness.cache_stats();
    println!(
        "{} evaluation(s) in {:.2}s (jobs={}, alone-cache: {} hits / {} misses)",
        evaluations,
        start.elapsed().as_secs_f64(),
        jobs,
        stats.hits,
        stats.misses
    );
}

fn harness_for(cores: usize, target: u64, shape: &ShapeArgs) -> Harness {
    let mut cfg = SimConfig { target_instructions: target, ..SimConfig::for_cores(cores) };
    shape.apply(&mut cfg);
    Harness::new(cfg)
}

fn print_available() {
    println!("mixes (run with `parbs-sim case-study <n>` / `parbs-sim mix <a,b,c,d>`):");
    for (n, mix) in [(1, case_study_1()), (2, case_study_2()), (3, case_study_3())] {
        let names: Vec<&str> = mix.benchmarks.iter().map(|b| b.name).collect();
        println!("  case-study {n}  {:10} {}", mix.name, names.join(", "));
    }
    println!(
        "  mix a,b,c,...  any of the {} benchmarks (see `parbs-sim list`)",
        all_benchmarks().len()
    );
    println!("\nsweeps:");
    println!("  sweep [n]          n random 4-core mixes under the paper's five schedulers");
    println!("  mapping-sweep [n]  geometry/mapping ablation: row/line x xor/noxor x");
    println!("                     ranks 1/2/4 under the seven-scheduler zoo (paper Section 6)");
    println!("  zoo-sweep [n]      all seven schedulers (paper five + BLISS + ATLAS) over");
    println!("                     the accel case study + n mixed CPU/accelerator mixes,");
    println!("                     with fairness split by agent class");
    println!("  flow-sweep [n]     open-loop datacenter-flow frontend: schedulers x");
    println!("                     requester scales 16/1024/n, FCT percentiles and");
    println!("                     slowdown-vs-isolation (--sched, --flow-rate,");
    println!("                     --flow-size-max, --check-invariants)");
    println!("  (more sweeps — marking-cap, batching, ranking, priorities — are");
    println!("   regenerated by the parbs-bench binaries: fig11..fig14, table3, table4)");
    println!("\noptions: --target N   --seed N   --jobs N (default: all cores)");
    println!("ckpt:    run <a,b,c,d> --sched S --checkpoint-out F");
    println!("         [--checkpoint-every N] [--resume F]");
    println!("shape:   --ranks N   --mapping row|line   --no-xor");
    println!(
        "observe: --trace-out F   --trace-format chrome|jsonl   --check-invariants   \
         --trace-sched FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|BLISS|ATLAS"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args);
    let target = value_of(&args, "--target").unwrap_or(30_000);
    let seed = value_of(&args, "--seed").unwrap_or(42);
    let jobs =
        value_of(&args, "--jobs").map_or_else(parbs_sim::default_jobs, |v| (v as usize).max(1));
    let shape = ShapeArgs::parse(&args);
    if args.iter().any(|a| a == "--list") {
        print_available();
        return;
    }
    match args.first().map(String::as_str) {
        Some("case-study") => {
            let mix = match args.get(1).map(String::as_str) {
                Some("1") => case_study_1(),
                Some("2") => case_study_2(),
                Some("3") => case_study_3(),
                other => {
                    eprintln!("unknown case study {other:?}; expected 1, 2 or 3");
                    std::process::exit(2);
                }
            };
            if let Some(oa) = observe_args(&args) {
                run_observed_cli(&mix, target, seed, &shape, &oa);
                return;
            }
            let harness = harness_for(mix.cores(), target, &shape);
            let plan = experiments::compare_plan(&mix);
            println!("case study {} ({} cores):", mix.name, mix.cores());
            let start = Instant::now();
            print_evals(&harness.run_plan(&plan, jobs));
            print_run_summary(start, plan.len(), jobs, &harness);
        }
        Some("mix") => {
            let Some(list) = args.get(1) else {
                eprintln!("usage: parbs-sim mix <bench,bench,...>");
                std::process::exit(2);
            };
            let names: Vec<&str> = list.split(',').collect();
            for n in &names {
                if by_name(n).is_none() {
                    eprintln!("unknown benchmark '{n}'; try `parbs-sim list`");
                    std::process::exit(2);
                }
            }
            let mix = MixSpec::from_names("custom", &names);
            if let Some(oa) = observe_args(&args) {
                run_observed_cli(&mix, target, seed, &shape, &oa);
                return;
            }
            let harness = harness_for(mix.cores(), target, &shape);
            let plan = experiments::compare_plan(&mix);
            let start = Instant::now();
            print_evals(&harness.run_plan(&plan, jobs));
            print_run_summary(start, plan.len(), jobs, &harness);
        }
        Some("bench") => {
            let Some(bench) = args.get(1).and_then(|n| by_name(n)) else {
                eprintln!("usage: parbs-sim bench <name>  (see `parbs-sim list`)");
                std::process::exit(2);
            };
            let mix = MixSpec { name: bench.name.to_owned(), benchmarks: vec![bench] };
            let mut cfg =
                SimConfig { cores: 1, target_instructions: target, ..SimConfig::for_cores(4) };
            shape.apply(&mut cfg);
            let harness = Harness::new(cfg);
            let r = harness.run_shared(&mix, &SchedulerKind::FrFcfs, &Default::default());
            let t = r.threads[0];
            println!(
                "{} alone: MCPI {:.2} (paper {:.2})  MPKI {:.1} ({:.1})  RB hit {:.2} ({:.2})  BLP {:.2} ({:.2})  AST/req {:.0} ({:.0})",
                bench.name, t.mcpi(), bench.paper.mcpi, t.mpki(), bench.paper.mpki,
                r.row_hit_rate, bench.paper.rb_hit, t.blp, bench.paper.blp,
                t.ast_per_req(), bench.paper.ast_per_req
            );
        }
        Some("list") => {
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
        Some("trace") => {
            let paths: Vec<&String> =
                args.iter().skip(1).take_while(|a| !a.starts_with("--")).collect();
            if paths.is_empty() {
                eprintln!("usage: parbs-sim trace <file> [file...]");
                std::process::exit(2);
            }
            let mut streams: Vec<Box<dyn parbs_cpu::InstructionStream>> = Vec::new();
            for p in &paths {
                match parbs_workloads::load_trace(std::path::Path::new(p)) {
                    Ok(s) => streams.push(Box::new(s)),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            let cores = streams.len();
            let mut cfg = parbs_sim::SimConfig {
                cores,
                target_instructions: target,
                ..parbs_sim::SimConfig::for_cores(cores.max(4))
            };
            shape.apply(&mut cfg);
            let mut sys =
                parbs_sim::System::new(cfg, streams, &SchedulerKind::ParBs(Default::default()));
            let r = sys.run();
            println!(
                "{:24} {:>7} {:>7} {:>6} {:>8} {:>6}",
                "trace", "MCPI", "MPKI", "BLP", "AST/req", "RBhit"
            );
            for (p, t) in paths.iter().zip(&r.threads) {
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
        Some("run") => {
            let Some(list) = args.get(1) else {
                eprintln!("usage: parbs-sim run <bench,bench,...>");
                std::process::exit(2);
            };
            let names: Vec<&str> = list.split(',').collect();
            for n in &names {
                if by_name(n).is_none() {
                    eprintln!("unknown benchmark '{n}'; try `parbs-sim list`");
                    std::process::exit(2);
                }
            }
            let mix = MixSpec::from_names("custom", &names);
            let sched = match str_value_of(&args, "--sched") {
                None => SchedulerKind::ParBs(Default::default()),
                Some(s) => sched_by_name(s).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scheduler '{s}'; expected \
                         FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|BLISS|ATLAS"
                    );
                    std::process::exit(2);
                }),
            };
            // The checkpoint fingerprint label: the bench list itself, so a
            // blob saved from one mix cannot restore into another.
            let label = names.join(",");
            let ckpt_out = str_value_of(&args, "--checkpoint-out");
            let every = value_of(&args, "--checkpoint-every");
            if every.is_some() && ckpt_out.is_none() {
                eprintln!("--checkpoint-every requires --checkpoint-out");
                std::process::exit(2);
            }
            let every = every.unwrap_or(1_000_000);
            if every == 0 {
                eprintln!("invalid value '0' for --checkpoint-every: expected at least 1");
                std::process::exit(2);
            }
            let harness = harness_for(mix.cores(), target, &shape);
            let mut sys = harness.shared_system(&mix, &sched, &Default::default());
            let mut progress = match str_value_of(&args, "--resume") {
                None => sys.begin_run(),
                Some(path) => {
                    let bytes = std::fs::read(path).unwrap_or_else(|e| {
                        eprintln!("cannot read checkpoint {path}: {e}");
                        std::process::exit(2);
                    });
                    match sys.resume(&bytes, &label) {
                        Ok(p) => {
                            println!(
                                "resumed from {path} at cycle {} ({} thread(s) still running)",
                                p.cycles(),
                                p.threads_remaining()
                            );
                            p
                        }
                        Err(e) => {
                            eprintln!("cannot resume from {path}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
            };
            let save_to = |path: &str, sys: &parbs_sim::System, p: &parbs_sim::RunProgress| {
                let blob = sys.save_checkpoint(p, &label).unwrap_or_else(|e| {
                    eprintln!("cannot checkpoint: {e}");
                    std::process::exit(2);
                });
                if let Err(e) = std::fs::write(path, &blob) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "checkpoint: wrote {} bytes to {path} at cycle {}",
                    blob.len(),
                    p.cycles()
                );
            };
            let start = Instant::now();
            let mut last_saved = progress.cycles();
            while sys.step_cycle(&mut progress) {
                if let Some(path) = ckpt_out {
                    if progress.cycles() - last_saved >= every {
                        save_to(path, &sys, &progress);
                        last_saved = progress.cycles();
                    }
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
        Some("sweep") => {
            let n = count_arg(&args, "sweep", 10);
            let harness = harness_for(4, target, &shape);
            let mixes = random_mixes(4, n, seed);
            let sweep = experiments::sweep_plan(&mixes, &experiments::paper_five_labeled());
            let start = Instant::now();
            let rows = sweep.run(&harness, jobs);
            println!(
                "{:10} {:>10} {:>7} {:>7} {:>7} {:>8}",
                "scheduler", "unfairness", "wspeed", "hspeed", "ast", "wc"
            );
            for row in &rows {
                let sm = row.summary();
                println!(
                    "{:10} {:>10.3} {:>7.3} {:>7.3} {:>7.1} {:>8}",
                    sm.name,
                    sm.unfairness,
                    sm.weighted_speedup,
                    sm.hmean_speedup,
                    sm.ast_per_req,
                    sm.worst_case_latency
                );
            }
            print_run_summary(start, sweep.job_count(), jobs, &harness);
        }
        Some("mapping-sweep") => {
            let n = count_arg(&args, "mapping-sweep", 1);
            let harness = harness_for(4, target, &shape);
            let mixes = random_mixes(4, n, seed);
            let sweep = experiments::mapping_sweep_plan(&mixes, harness.config().dram.geometry);
            println!(
                "geometry/mapping ablation: {} rows x {} mix(es) = {} jobs",
                sweep.labels().len(),
                n,
                sweep.job_count()
            );
            let start = Instant::now();
            let rows = sweep.run(&harness, jobs);
            println!(
                "{:22} {:>10} {:>7} {:>7} {:>7} {:>8}",
                "shape/scheduler", "unfairness", "wspeed", "hspeed", "ast", "wc"
            );
            for row in &rows {
                let sm = row.summary();
                println!(
                    "{:22} {:>10.3} {:>7.3} {:>7.3} {:>7.1} {:>8}",
                    sm.name,
                    sm.unfairness,
                    sm.weighted_speedup,
                    sm.hmean_speedup,
                    sm.ast_per_req,
                    sm.worst_case_latency
                );
            }
            print_run_summary(start, sweep.job_count(), jobs, &harness);
        }
        Some("zoo-sweep") => {
            let n = count_arg(&args, "zoo-sweep", 4);
            let harness = harness_for(4, target, &shape);
            let mut mixes = vec![parbs_workloads::accel_case_study()];
            mixes.extend(parbs_workloads::cpu_accel_mixes(4, n, seed));
            let sweep = experiments::zoo_sweep_plan(&mixes);
            println!(
                "scheduler zoo: 7 schedulers x {} mixed CPU/accelerator mix(es) = {} jobs",
                mixes.len(),
                sweep.job_count()
            );
            let start = Instant::now();
            let rows = experiments::zoo_rows(sweep.run(&harness, jobs), &mixes);
            println!(
                "{:10} {:>10} {:>12} {:>9} {:>11} {:>7} {:>7}",
                "scheduler", "unfairness", "cpu-unfair", "cpu-max", "accel-max", "wspeed", "hspeed"
            );
            for zr in &rows {
                let sm = zr.row.summary();
                println!(
                    "{:10} {:>10.3} {:>12.3} {:>9.2} {:>11.2} {:>7.3} {:>7.3}",
                    sm.name,
                    sm.unfairness,
                    zr.cpu_unfairness,
                    zr.cpu_max_slowdown,
                    zr.accel_max_slowdown,
                    sm.weighted_speedup,
                    sm.hmean_speedup
                );
            }
            print_run_summary(start, sweep.job_count(), jobs, &harness);
            if let Some(spec_arg) = str_value_of(&args, "--spec") {
                let spec = load_spec(spec_arg);
                zoo_trigger_table(&mixes, target, seed, &shape, &spec);
            }
        }
        Some("flow-sweep") => {
            let n = count_arg(&args, "flow-sweep", 4096);
            let mut cfg = SimConfig { seed, ..SimConfig::for_cores(4) };
            shape.apply(&mut cfg);
            let rate_per_kcycle = value_of(&args, "--flow-rate").unwrap_or(2);
            let size_max = value_of(&args, "--flow-size-max").unwrap_or(256).max(2);
            let flows = FlowConfig {
                arrival_rate: rate_per_kcycle as f64 / 1000.0,
                size: BoundedPareto { alpha: 1.2, min: 2, max: size_max },
                seed,
                ..FlowConfig::default()
            };
            let check = args.iter().any(|a| a == "--check-invariants");
            let spec = str_value_of(&args, "--spec").map(load_spec);
            let schedulers = match str_value_of(&args, "--sched") {
                None => SchedulerKind::zoo_seven(),
                Some(s) => vec![sched_by_name(s).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scheduler '{s}'; expected \
                         FCFS|FR-FCFS|NFQ|STFQ|STFM|PAR-BS|BLISS|ATLAS"
                    );
                    std::process::exit(2);
                })],
            };
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
                jobs,
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
                jobs
            );
            if check {
                if violations > 0 {
                    eprintln!("{violations} invariant violation(s)");
                    std::process::exit(1);
                }
                println!("invariants: OK ({} run(s) checked)", rows.len());
            }
            if spec.is_some() {
                if alarms > 0 {
                    eprintln!("{alarms} monitor alarm(s)");
                    std::process::exit(1);
                }
                println!("monitor: OK ({} run(s) monitored)", rows.len());
            }
        }
        Some("monitor") => {
            let Some(spec_arg) = str_value_of(&args, "--spec") else {
                eprintln!("usage: parbs-sim monitor --spec <file|prelude:name> --replay <jsonl>");
                std::process::exit(2);
            };
            let Some(trace_path) = str_value_of(&args, "--replay") else {
                eprintln!("usage: parbs-sim monitor --spec <file|prelude:name> --replay <jsonl>");
                std::process::exit(2);
            };
            let spec = load_spec(spec_arg);
            let text = std::fs::read_to_string(trace_path).unwrap_or_else(|e| {
                eprintln!("cannot read trace {trace_path}: {e}");
                std::process::exit(2);
            });
            let mon = match parbs_monitor::replay_jsonl(&spec, &text) {
                Ok(mon) => mon,
                Err(e) => {
                    eprintln!("{trace_path}: {e}");
                    std::process::exit(2);
                }
            };
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
        _ => {
            eprintln!(
                "usage: parbs-sim <case-study 1|2|3 | mix a,b,c,d | bench name | list | sweep [n] \
                 | run a,b,c,d | mapping-sweep [n] | zoo-sweep [n] | flow-sweep [n] \
                 | monitor --spec S --replay F> \
                 [--target N] [--seed N] [--jobs N] \
                 [--sched S] [--checkpoint-out F] [--checkpoint-every N] [--resume F] \
                 [--ranks N] [--mapping row|line] [--no-xor] \
                 [--trace-out F] [--trace-format chrome|jsonl] [--check-invariants] \
                 [--trace-sched S] [--spec S] [--monitor-report] \
                 (or --list to enumerate mixes/sweeps)"
            );
            std::process::exit(2);
        }
    }
}
