//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cs1_zoo|flow10k_mon --seed N --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` runs the seed's input again and again for `--seconds`,
//! timing the set-up and the measured section of every run, and reports
//! end-to-end metrics from the fastest of each. A `flow10k_mon` run takes
//! seconds, so its measured section is timed in segments of a fixed number
//! of simulated cycles and the host time reported is the sum of each
//! segment's fastest time. Every run does identical work, and on a shared
//! host other tenants only ever add time: a two-second run swung by half
//! from one run to the next there, while the fastest of many short pieces
//! of identical work moved far less. `--trace 1` alternates an untraced
//! and a traced run for
//! `--seconds` and reports per-layer metrics (medians over the traced
//! runs), provided every traced digest equals its untraced one. Every run
//! builds fresh inputs, so no alone baseline is reused across runs. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when `correct` is false.

use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use parbs_perfbench::layers::{self, Metric};
use parbs_perfbench::timed::{ns_since, Tracer};
use parbs_perfbench::workloads::{prepare, run, run_traced, Outcome, Prepared};
use parbs_perfbench::{digest, Scale, Workload};

/// Timed set-ups per run of the measured section; `setup_s` is the fastest
/// of all of them.
const SETUPS_PER_RUN: usize = 8;

const USAGE: &str =
    "usage: parbs-perfbench --workload cs1_zoo|flow10k_mon [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = digest::TUNING_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value '{value}'"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failure accounting against the expected digests: the recorded ones for
/// a recorded seed, otherwise those of the first run in this process.
struct Checker {
    expected: Option<Vec<u64>>,
    recorded: bool,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        let expected = digest::reference(workload, seed).map(<[u64]>::to_vec);
        Checker { recorded: expected.is_some(), expected, attempted: 0, failed: 0 }
    }

    fn check(&mut self, out: &Outcome) {
        let expected =
            self.expected.get_or_insert_with(|| out.sims.iter().map(|s| s.digest).collect());
        // A missing simulation was attempted and failed.
        let missing = expected.len().saturating_sub(out.sims.len()) as u64;
        if expected.len() != out.sims.len() {
            println!("  FAILED: {} simulations, expected {}", out.sims.len(), expected.len());
        }
        self.attempted += missing;
        self.failed += missing;
        for (i, sim) in out.sims.iter().enumerate() {
            self.attempted += 1;
            let want = expected.get(i).copied();
            if !sim.ok || want != Some(sim.digest) {
                self.failed += 1;
                println!(
                    "  FAILED simulation {i}: digest {:#018x}, expected {}{}",
                    sim.digest,
                    want.map_or("none".to_owned(), |d| format!("{d:#018x}")),
                    if sim.ok { "" } else { " (timed out, alarmed or errored)" }
                );
            }
        }
    }
}

/// Calls `rep()` until `--seconds` have passed and at least `min` calls
/// were made; returns the number of calls.
fn repeat(args: &Args, min: usize, mut rep: impl FnMut()) -> usize {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = 0;
    while reps < min || Instant::now() < deadline {
        rep();
        reps += 1;
    }
    reps
}

/// Builds the input [`SETUPS_PER_RUN`] times and returns the last build
/// with the least host time a build took.
fn timed_prepare(args: &Args) -> (Prepared, u64) {
    let mut fastest = u64::MAX;
    let mut last = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(last.take());
        let t0 = Instant::now();
        let prepared = prepare(args.workload, args.seed, &Scale::BENCH);
        fastest = fastest.min(ns_since(t0));
        last = Some(prepared);
    }
    (last.expect("SETUPS_PER_RUN > 0"), fastest)
}

fn end_to_end(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    let mut setup_ns = u64::MAX;
    let mut fastest: Vec<u64> = Vec::new();
    let mut first: Option<Outcome> = None;
    let reps = repeat(args, 3, || {
        let (prepared, setup) = timed_prepare(args);
        setup_ns = setup_ns.min(setup);
        let out = run(prepared);
        checker.check(&out);
        if fastest.is_empty() {
            fastest.clone_from(&out.segments_ns);
        }
        // Identical work gives identical segments; anything else already
        // failed the digest check.
        for (f, &ns) in fastest.iter_mut().zip(&out.segments_ns) {
            *f = (*f).min(ns);
        }
        first.get_or_insert(out);
    });
    let first = first.expect("at least one run");
    let wall_s = fastest.iter().sum::<u64>() as f64 / 1e9;
    println!(
        "{} seed {}: {reps} runs, each {} simulations, {} simulated cycles and {} timed \
         segments",
        args.workload.name(),
        args.seed,
        first.sims.len(),
        first.cycles,
        fastest.len()
    );
    let digests: Vec<String> = first.sims.iter().map(|s| format!("{:#018x}", s.digest)).collect();
    println!("  digests: {}", digests.join(", "));
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sim_cycles_per_s", first.cycles as f64 / wall_s, "cycles/s"),
        m("dram_reads_per_s", first.dram_reads as f64 / wall_s, "reads/s"),
        m("wall_s", wall_s, "s"),
        m("setup_s", setup_ns as f64 / 1e9, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(args: &Args, checker: &mut Checker) -> Option<Vec<Metric>> {
    let mut passes = Vec::new();
    let mut identical = true;
    let reps = repeat(args, 1, || {
        let plain = run(prepare(args.workload, args.seed, &Scale::BENCH));
        checker.check(&plain);
        let tracer = Tracer::shared();
        let traced = run_traced(prepare(args.workload, args.seed, &Scale::BENCH), &tracer);
        if traced.sims != plain.sims {
            identical = false;
            println!("  traced digests differ from untraced ones:");
            for (i, (a, b)) in plain.sims.iter().zip(&traced.sims).enumerate() {
                println!(
                    "    simulation {i}: untraced {:#018x}, traced {:#018x}",
                    a.digest, b.digest
                );
            }
        }
        let tracer = Rc::into_inner(tracer).expect("the traced run released the tracer");
        let ratio = traced.wall_ns as f64 / plain.wall_ns.max(1) as f64;
        passes.push((tracer, plain.snap, ratio));
    });
    if !identical {
        println!(
            "no layer numbers for {}: the bench-side loop copies no longer reproduce the \
             simulator's results",
            args.workload.name()
        );
        return None;
    }
    let (parts, remainder) = layers::partition(&passes[0].0);
    println!(
        "{} seed {}: {reps} traced runs; the first one's loop time:",
        args.workload.name(),
        args.seed
    );
    for (name, s) in parts {
        println!("  {name:28} {s:>12.6} s");
    }
    println!("  {:28} {remainder:>12.9} s", "remainder (loop minus parts)");
    let runs: Vec<Vec<Metric>> =
        passes.iter().map(|(t, snap, ratio)| layers::metrics(t, snap, *ratio)).collect();
    Some(
        (0..runs[0].len())
            .map(|i| Metric {
                value: median(runs.iter().map(|r| r[i].value).collect()),
                ..runs[0][i]
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::new(args.workload, args.seed);
    let metrics = if args.trace {
        per_layer(&args, &mut checker)
    } else {
        Some(end_to_end(&args, &mut checker))
    };
    let seed_note = if !checker.recorded {
        "no recorded digests for this seed; checked for repeatability"
    } else if args.seed == digest::HELD_OUT_SEED {
        "checked against the recorded held-out digests"
    } else {
        "checked against the recorded tuning digests"
    };
    println!(
        "  failed_run_frac {:>18} fraction ({} of {} simulations; {seed_note})",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        checker.failed,
        checker.attempted
    );
    let correct = checker.failed == 0 && metrics.is_some();
    let metrics = metrics.unwrap_or_default();
    for m in &metrics {
        println!("  {:26} {:>18} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
