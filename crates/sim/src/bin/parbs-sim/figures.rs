//! The regenerations — one command per figure and table of the paper, plus
//! the extension experiments — and the table printers they share with the
//! ad-hoc commands (`case-study`, `mix`, `sweep`, `mapping-sweep`,
//! `zoo-sweep`).
//!
//! Absolute numbers are not expected to match the paper — the substrate is
//! a scaled-down simulator — but the *shape* (ordering of schedulers,
//! direction of gaps, sweet spots) is; see `EXPERIMENTS.md`.

use parbs::{AbstractBatch, AbstractPolicy, ParBsConfig};
use parbs_sim::experiments::{
    batching_kinds, ext_scheduler_kinds, fig11_caps, latency_histograms, marking_cap_kinds,
    named_rows, param_sweep_axes, priority_opportunistic_plan, priority_weighted_plan,
    ranking_kinds, table3_rows, zoo_rows, PlanRow, SweepPlan, SweepRow, ZooRow,
};
use parbs_sim::{EvalOverrides, Harness, SchedulerKind, SimConfig};
use parbs_workloads::{
    accel_case_study, case_study_1, case_study_2, case_study_3, cpu_accel_mixes, fig10_named,
    fig9_8core, random_mixes, MixSpec,
};

use crate::{Args, Command, Flag, JOBS, MIXES, QUICK, SEED, TARGET};

/// What a case-study regeneration reads: its mixes and schedulers are
/// fixed, so `--seed` and `--mixes` cannot move its output.
const CASE_FLAGS: &[Flag] = &[QUICK, TARGET, JOBS];

/// What a regeneration over random 4-core mixes reads.
const MIX_FLAGS: &[Flag] = &[QUICK, TARGET, MIXES, SEED, JOBS];

/// Every regeneration, in paper order, with the flags it reads: the
/// analytic ones (Figs. 1-3, Tables 1-2) read none.
pub static REGENERATIONS: [Command; 21] = [
    Command::regeneration(
        "fig01_overlap",
        &[],
        "Fig. 1: two requests of one thread overlap across banks",
        fig01_overlap,
    ),
    Command::regeneration(
        "fig02_parallelism",
        &[],
        "Fig. 2: parallelism-aware vs conventional scheduling",
        fig02_parallelism,
    ),
    Command::regeneration(
        "fig03_batch_abstract",
        &[],
        "Fig. 3: the within-batch scheduling abstraction",
        fig03_batch_abstract,
    ),
    Command::regeneration(
        "fig05_case1",
        CASE_FLAGS,
        "Fig. 5: Case Study I (memory-intensive)",
        fig05_case1,
    ),
    Command::regeneration(
        "fig06_case2",
        CASE_FLAGS,
        "Fig. 6: Case Study II (non-intensive)",
        fig06_case2,
    ),
    Command::regeneration(
        "fig07_case3",
        CASE_FLAGS,
        "Fig. 7: Case Study III (4 x lbm)",
        fig07_case3,
    ),
    Command::regeneration(
        "fig08_4core_avg",
        MIX_FLAGS,
        "Fig. 8: random 4-core workloads",
        fig08_4core_avg,
    ),
    Command::regeneration(
        "fig09_8core",
        CASE_FLAGS,
        "Fig. 9: the mixed 8-core workload",
        fig09_8core,
    ),
    // `--mixes` sets only the 4-core mix count.
    Command::regeneration(
        "fig10_16core",
        &[QUICK, TARGET, SEED, JOBS],
        "Fig. 10: 16-core workloads",
        fig10_16core,
    ),
    Command::regeneration(
        "fig11_marking_cap",
        MIX_FLAGS,
        "Fig. 11: Marking-Cap sweep",
        fig11_marking_cap,
    ),
    Command::regeneration(
        "fig12_batching_choice",
        MIX_FLAGS,
        "Fig. 12: static, empty-slot and full batching",
        fig12_batching_choice,
    ),
    Command::regeneration(
        "fig13_within_batch",
        MIX_FLAGS,
        "Fig. 13: within-batch ranking policies",
        fig13_within_batch,
    ),
    Command::regeneration(
        "fig14_priorities",
        CASE_FLAGS,
        "Fig. 14: thread priorities",
        fig14_priorities,
    ),
    Command::regeneration("table1_cost", &[], "Table 1: PAR-BS hardware cost", table1_cost),
    Command::regeneration("table2_config", &[], "Table 2: baseline configuration", table2_config),
    Command::regeneration(
        "table3_benchmarks",
        CASE_FLAGS,
        "Table 3: benchmark characteristics, measured alone",
        table3_benchmarks,
    ),
    Command::regeneration(
        "table4_summary",
        MIX_FLAGS,
        "Table 4: summary over 4-, 8- and 16-core systems",
        table4_summary,
    ),
    Command::regeneration(
        "ext_schedulers",
        MIX_FLAGS,
        "extension: paper five + STFQ + adaptive-cap PAR-BS",
        ext_schedulers,
    ),
    Command::regeneration(
        "ext_param_sweep",
        MIX_FLAGS,
        "extension: system-parameter sensitivity",
        ext_param_sweep,
    ),
    Command::regeneration(
        "ext_latency_tail",
        MIX_FLAGS,
        "extension: read-latency distribution",
        ext_latency_tail,
    ),
    Command::regeneration(
        "ext_zoo",
        MIX_FLAGS,
        "extension: seven-scheduler zoo over CPU/accelerator mixes",
        ext_zoo,
    ),
];

/// Prints a case-study block (Figs. 5, 6, 7, 9, 11, 12, 14): one line per
/// row and mix, named by the row label, with per-thread memory slowdowns,
/// the unfairness line, and the system-throughput bars.
pub fn print_case_study(title: &str, rows: &[SweepRow]) {
    println!("## {title}");
    if let Some(first) = rows.first().and_then(|r| r.evaluations.first()) {
        print!("{:22}", "scheduler");
        for name in &first.thread_names {
            print!(" {name:>11}");
        }
        println!(
            " {:>10} {:>8} {:>8} {:>8} {:>8}",
            "unfairness", "wspeed", "hspeed", "ast", "wc-lat"
        );
    }
    for (label, e) in rows.iter().flat_map(|r| r.evaluations.iter().map(|e| (&r.label, e))) {
        print!("{label:22}");
        for s in &e.metrics.slowdowns {
            print!(" {s:>11.2}");
        }
        println!(
            " {:>10.2} {:>8.3} {:>8.3} {:>8.1} {:>8}",
            e.metrics.unfairness,
            e.metrics.weighted_speedup,
            e.metrics.hmean_speedup,
            e.metrics.ast_per_req,
            e.worst_case_latency
        );
    }
    println!();
}

/// Prints the aggregate block of a sweep (Figs. 8, 10-13; Table 4 rows).
pub fn print_summaries(title: &str, rows: &[SweepRow]) {
    println!("## {title}");
    println!(
        "{:22} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "scheduler", "unfairness", "wspeed", "hspeed", "ast", "wc-lat"
    );
    for row in rows {
        let s = row.summary();
        println!(
            "{:22} {:>10.3} {:>8.3} {:>8.3} {:>8.1} {:>8}",
            s.name,
            s.unfairness,
            s.weighted_speedup,
            s.hmean_speedup,
            s.ast_per_req,
            s.worst_case_latency
        );
    }
    println!();
}

/// Prints per-workload unfairness for a set of sample workloads plus the
/// whole-suite geometric mean (the shape of Fig. 8 left / Fig. 10 left).
fn print_unfairness_by_workload(title: &str, rows: &[SweepRow], samples: usize) {
    println!("## {title}");
    let Some(first) = rows.first() else {
        return;
    };
    print!("{:22}", "workload");
    for row in rows {
        print!(" {:>18}", row.label);
    }
    println!();
    for (i, eval) in first.evaluations.iter().enumerate().take(samples) {
        print!("{:22}", eval.mix);
        for row in rows {
            print!(" {:>18.2}", row.evaluations[i].metrics.unfairness);
        }
        println!();
    }
    print!("{:22}", "GMEAN(all)");
    for row in rows {
        print!(" {:>18.3}", row.summary().unfairness);
    }
    println!("\n");
}

/// Prints the scheduler-zoo table: overall unfairness plus the
/// CPU-vs-accelerator split.
pub fn print_zoo(title: &str, rows: &[ZooRow]) {
    println!("## {title}");
    println!(
        "{:10} {:>10} {:>12} {:>9} {:>11} {:>8} {:>8}",
        "scheduler", "unfairness", "cpu-unfair", "cpu-max", "accel-max", "wspeed", "hspeed"
    );
    for zr in rows {
        let s = zr.row.summary();
        println!(
            "{:10} {:>10.3} {:>12.3} {:>9.2} {:>11.2} {:>8.3} {:>8.3}",
            s.name,
            s.unfairness,
            zr.cpu_unfairness,
            zr.cpu_max_slowdown,
            zr.accel_max_slowdown,
            s.weighted_speedup,
            s.hmean_speedup
        );
    }
    println!();
}

/// Every mix under the paper's five schedulers, rows named by scheduler.
pub(crate) fn paper_five(mixes: &[MixSpec]) -> SweepPlan {
    SweepPlan::new(mixes, &named_rows(SchedulerKind::paper_five()))
}

/// The zoo's workloads: the accelerator case study plus `n` random mixed
/// CPU/accelerator 4-core mixes.
pub fn zoo_mixes(n: usize, seed: u64) -> Vec<MixSpec> {
    let mut mixes = vec![accel_case_study()];
    mixes.extend(cpu_accel_mixes(4, n, seed));
    mixes
}

fn fig01_overlap(_: &Args) {
    let (overlapped, serialized) = parbs_sim::experiments::micro::fig1_overlap();
    println!("## Figure 1 — intra-thread bank-level parallelism (single core)");
    println!("second request completes at (processor cycles from issue):");
    println!("  different banks (overlapped):  {overlapped:>6}");
    println!("  same bank, different rows:     {serialized:>6}");
    println!(
        "  overlap hides {:.0}% of the second access",
        100.0 * (1.0 - overlapped as f64 / serialized as f64)
    );
}

fn fig02_parallelism(_: &Args) {
    let (conv, parbs) = parbs_sim::experiments::micro::fig2_stall_times();
    let avg = |s: [u64; 2]| (s[0] + s[1]) as f64 / 2.0;
    println!("## Figure 2 — parallelism-aware vs conventional scheduling (2 cores, 2 banks)");
    println!("stall time until a core's last request completes (cycles):");
    println!(
        "  conventional (FCFS):      core0 {:>5}  core1 {:>5}  avg {:>7.1}",
        conv[0],
        conv[1],
        avg(conv)
    );
    println!(
        "  parallelism-aware (PAR-BS): core0 {:>3}  core1 {:>5}  avg {:>7.1}",
        parbs[0],
        parbs[1],
        avg(parbs)
    );
    println!("  saved cycles: {:.1}% of average stall", 100.0 * (1.0 - avg(parbs) / avg(conv)));
}

/// Reproduces the paper's per-thread batch-completion times exactly:
/// FCFS (4, 4, 5, 7; avg 5), FR-FCFS (5.5, 3, 4.5, 4.5; avg 4.375),
/// PAR-BS (1, 2, 4, 5.5; avg 3.125).
fn fig03_batch_abstract(_: &Args) {
    let batch = AbstractBatch::figure3_example();
    println!("## Figure 3 — within-batch scheduling abstraction");
    println!("{:10} {:>8} {:>8} {:>8} {:>8} {:>8}", "policy", "T1", "T2", "T3", "T4", "AVG");
    for (name, policy) in [
        ("FCFS", AbstractPolicy::Fcfs),
        ("FR-FCFS", AbstractPolicy::FrFcfs),
        ("PAR-BS", AbstractPolicy::ParBs),
    ] {
        let t = batch.completion_times(policy);
        println!(
            "{:10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            t[0],
            t[1],
            t[2],
            t[3],
            batch.average_completion(policy)
        );
    }
    println!("\nMax-Total thread loads (max-bank-load, total):");
    for l in batch.thread_loads() {
        println!("  thread {}: ({}, {})", l.thread + 1, l.max_bank_load, l.total_load);
    }
}

/// One mix under the paper's five schedulers, as a case-study block.
fn case_study_figure(args: &Args, mix: &MixSpec, title: &str) {
    let rows = paper_five(std::slice::from_ref(mix)).run(&args.harness(mix.cores()), args.jobs);
    print_case_study(title, &rows);
}

fn fig05_case1(args: &Args) {
    case_study_figure(args, &case_study_1(), "Figure 5 — Case Study I (memory-intensive workload)");
}

fn fig06_case2(args: &Args) {
    case_study_figure(args, &case_study_2(), "Figure 6 — Case Study II (non-intensive workload)");
}

fn fig07_case3(args: &Args) {
    case_study_figure(args, &case_study_3(), "Figure 7 — Case Study III (4 x lbm)");
}

fn fig08_4core_avg(args: &Args) {
    let mixes = random_mixes(4, args.mixes4, args.seed);
    let rows = paper_five(&mixes).run(&args.harness(4), args.jobs);
    print_unfairness_by_workload(
        &format!("Figure 8 (left) — unfairness, {} 4-core workloads", mixes.len()),
        &rows,
        10,
    );
    print_summaries("Figure 8 (right) — average system throughput (4-core)", &rows);
}

fn fig09_8core(args: &Args) {
    case_study_figure(args, &fig9_8core(), "Figure 9 — mixed 8-core workload");
}

fn fig10_16core(args: &Args) {
    let mut mixes = fig10_named();
    mixes.extend(random_mixes(16, args.mixes16, args.seed));
    let rows = paper_five(&mixes).run(&args.harness(16), args.jobs);
    print_unfairness_by_workload(
        "Figure 10 (left) — unfairness, named + random 16-core workloads",
        &rows,
        5,
    );
    print_summaries("Figure 10 (right) — average system throughput (16-core)", &rows);
}

/// Figs. 11 and 12: the averages of `rows` over random 4-core mixes, then
/// Case Studies I and II under each row (the middle and right panels).
fn variant_figure(args: &Args, figure: u32, left: &str, rows: &[PlanRow]) {
    let harness = args.harness(4);
    let mixes = random_mixes(4, args.mixes4_or(30), args.seed);
    print_summaries(
        &format!("Figure {figure} (left) — {left}, averages"),
        &SweepPlan::new(&mixes, rows).run(&harness, args.jobs),
    );
    for (mix, panel, study) in [(case_study_1(), "middle", "I"), (case_study_2(), "right", "II")] {
        print_case_study(
            &format!("Figure {figure} ({panel}) — Case Study {study} slowdowns"),
            &SweepPlan::new(&[mix], rows).run(&harness, args.jobs),
        );
    }
}

fn fig11_marking_cap(args: &Args) {
    variant_figure(args, 11, "Marking-Cap sweep", &marking_cap_kinds(&fig11_caps()));
}

fn fig12_batching_choice(args: &Args) {
    variant_figure(args, 12, "batching choice", &batching_kinds());
}

/// Max-Total vs Total-Max vs random vs round-robin ranking vs no ranking
/// (FR-FCFS/FCFS within batch), with STFM for reference; plus the uniform
/// 4 x lbm and 4 x matlab mixes that isolate the parallelism component.
fn fig13_within_batch(args: &Args) {
    let harness = args.harness(4);
    let mixes = random_mixes(4, args.mixes4_or(30), args.seed);
    let rows = SweepPlan::new(&mixes, &ranking_kinds()).run(&harness, args.jobs);
    print_summaries("Figure 13 (left) — within-batch policy, averages", &rows);
    for (names, title) in [
        (["lbm"; 4], "Figure 13 (middle) — 4 x lbm"),
        (["matlab"; 4], "Figure 13 (right) — 4 x matlab"),
    ] {
        let mix = MixSpec::from_names(names[0], &names);
        let rows = SweepPlan::new(&[mix], &ranking_kinds()).run(&harness, args.jobs);
        print_summaries(title, &rows);
    }
}

fn fig14_priorities(args: &Args) {
    let harness = args.harness(4);
    print_case_study(
        "Figure 14 (left) — 4 x lbm, priorities 1-1-2-8 (NFQ/STFM weights 8-8-4-1)",
        &priority_weighted_plan().run(&harness, args.jobs),
    );
    print_case_study(
        "Figure 14 (right) — omnetpp important, others opportunistic (weights 1-1-8192-1)",
        &priority_opportunistic_plan().run(&harness, args.jobs),
    );
}

fn table1_cost(_: &Args) {
    println!("## Table 1 — PAR-BS hardware cost (bits beyond FR-FCFS)");
    println!(
        "{:>6} {:>8} {:>6} | {:>11} {:>16} {:>10} {:>10} {:>8}",
        "cores",
        "buffer",
        "banks",
        "per-request",
        "per-thread-bank",
        "per-thread",
        "individual",
        "total"
    );
    for (threads, buffer, banks) in [(4u64, 128u64, 8u64), (8, 128, 8), (16, 128, 8), (8, 256, 16)]
    {
        let c = parbs::parbs_extra_state_bits(threads, buffer, banks);
        println!(
            "{threads:>6} {buffer:>8} {banks:>6} | {:>11} {:>16} {:>10} {:>10} {:>8}",
            c.per_request_bits,
            c.per_thread_per_bank_bits,
            c.per_thread_bits,
            c.individual_bits,
            c.total()
        );
    }
    println!("\npaper's example (8 cores, 128-entry buffer, 8 banks): 1412 bits");
}

fn table2_config(_: &Args) {
    let core = parbs_cpu::CoreConfig::table2();
    println!("## Table 2 — baseline configuration");
    println!("processor: 4 GHz, {}-entry window, {}-wide fetch/commit (1 mem op/cycle), {} MSHRs, {}-entry store queue",
        core.window_size, core.fetch_width, core.mshrs, core.store_queue);
    for cores in [4usize, 8, 16] {
        let d = parbs_dram::DramConfig::for_cores(cores);
        let t = d.timing;
        println!(
            "{cores:>2} cores: {} channel(s) x {} banks, {} KB rows, {}-entry request buffer, {}-entry write buffer",
            d.channels(), d.banks_per_channel(), d.cols_per_row() * 64 / 1024,
            d.request_buffer_cap, d.write_buffer_cap
        );
        if cores == 4 {
            println!(
                "  DDR2-800 timing (processor cycles): tRCD {} tCL {} tRP {} tRAS {} tRC {} BL/2 {} tCCD {} tRRD {} tWR {} tRTP {} tWTR {}",
                t.t_rcd, t.t_cl, t.t_rp, t.t_ras, t.t_rc, t.t_burst, t.t_ccd, t.t_rrd, t.t_wr, t.t_rtp, t.t_wtr
            );
            println!(
                "  round-trip (uncontended): row hit {} cycles, closed {}, conflict {}",
                t.row_hit_latency() + t.front_latency,
                t.row_closed_latency() + t.front_latency,
                t.row_conflict_latency() + t.front_latency
            );
        }
    }
}

/// Each benchmark alone on one core of the baseline 4-core system
/// (FR-FCFS), next to the paper's values.
fn table3_benchmarks(args: &Args) {
    let harness = args.harness(4);
    println!("## Table 3 — benchmark characteristics (measured | paper)");
    println!(
        "{:>2} {:12} {:>13} {:>13} {:>11} {:>11} {:>11} {:>9}",
        "#", "name", "MCPI", "L2 MPKI", "RB hit", "BLP", "AST/req", "category"
    );
    for row in table3_rows(&harness, args.jobs) {
        let b = row.bench;
        println!(
            "{:>2} {:12} {:>6.2}|{:<6.2} {:>6.2}|{:<6.2} {:>5.2}|{:<5.2} {:>5.2}|{:<5.2} {:>5.0}|{:<5.0} {:>4}|{:<4}",
            b.number, b.name,
            row.mcpi, b.paper.mcpi,
            row.mpki, b.paper.mpki,
            row.rb_hit, b.paper.rb_hit,
            row.blp, b.paper.blp,
            row.ast_per_req, b.paper.ast_per_req,
            row.measured_category, b.category
        );
    }
}

fn table4_summary(args: &Args) {
    for (cores, n) in [(4usize, args.mixes4), (8, args.mixes8), (16, args.mixes16)] {
        let mixes = random_mixes(cores, n, args.seed);
        let rows = paper_five(&mixes).run(&args.harness(cores), args.jobs);
        print_summaries(&format!("Table 4 — {cores}-core system ({n} workloads)"), &rows);
    }
}

/// The rows of [`ext_scheduler_kinds`] over random 4-core mixes, then NFQ
/// and STFQ under unequal shares.
fn ext_schedulers(args: &Args) {
    let harness = args.harness(4);
    let mixes = random_mixes(4, args.mixes4_or(30), args.seed);
    let rows = SweepPlan::new(&mixes, &ext_scheduler_kinds()).run(&harness, args.jobs);
    print_summaries("Extension — seven schedulers, 4-core averages", &rows);
    println!(
        "note: with equal shares STFQ's start tags are NFQ's finish tags shifted by one\n\
         quantum per thread, so the two produce identical schedules; they diverge under\n\
         unequal shares:"
    );
    // Weighted demonstration: 4 x lbm with shares 8-1-1-1.
    let mix = MixSpec::from_names("lbm-w8111", &["lbm", "lbm", "lbm", "lbm"]);
    println!("\n4 x lbm with shares 8-1-1-1 (slowdowns per thread):");
    let shares = EvalOverrides { weights: vec![8.0, 1.0, 1.0, 1.0], ..EvalOverrides::none() };
    let weighted = [SchedulerKind::Nfq, SchedulerKind::Stfq]
        .map(|kind| (kind.name().to_owned(), kind, shares.clone()));
    for row in SweepPlan::new(&[mix], &weighted).run(&harness, args.jobs) {
        let slowdowns = &row.evaluations[0].metrics.slowdowns;
        println!(
            "  {:5} {:?}",
            row.label,
            slowdowns.iter().map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }
}

/// One point of the parameter sweep: FR-FCFS vs PAR-BS under `cfg`.
fn param_point(label: &str, cfg: SimConfig, mixes: &[MixSpec], jobs: usize) {
    let kinds = [SchedulerKind::FrFcfs, SchedulerKind::ParBs(ParBsConfig::default())];
    let rows = SweepPlan::new(mixes, &named_rows(kinds)).run(&Harness::new(cfg), jobs);
    let (fr, pb) = (rows[0].summary(), rows[1].summary());
    println!(
        "{label:24} FR-FCFS unf {:>5.2} ws {:>5.3} | PAR-BS unf {:>5.2} ws {:>5.3} | PAR-BS ws gain {:>+5.1}%",
        fr.unfairness,
        fr.weighted_speedup,
        pb.unfairness,
        pb.weighted_speedup,
        100.0 * (pb.weighted_speedup / fr.weighted_speedup - 1.0)
    );
}

/// System-parameter sensitivity (the paper's extended technical report
/// varies system parameters) plus an ablation of this model's open-row
/// grace policy: PAR-BS vs FR-FCFS at each point of
/// [`param_sweep_axes`].
fn ext_param_sweep(args: &Args) {
    let n = args.mixes4_or(15);
    let mixes = random_mixes(4, n, args.seed);
    println!("## Extension — system-parameter sensitivity ({n} workloads per point)\n");
    for (i, (heading, points)) in param_sweep_axes(&args.config(4)).into_iter().enumerate() {
        println!("{}{heading}:", if i == 0 { "" } else { "\n" });
        for (label, cfg) in points {
            param_point(&format!("  {label}"), cfg, &mixes, args.jobs);
        }
    }
}

/// Read-latency distribution per scheduler. The paper reports only
/// worst-case latency (Table 4); the full tail shows how batching bounds
/// high percentiles while stall-time fairness (STFM) trades tail latency
/// for mean slowdown equality.
fn ext_latency_tail(args: &Args) {
    let harness = args.harness(4);
    let n = args.mixes4_or(10);
    let kinds = SchedulerKind::paper_five();
    println!("## Extension — read-latency distribution (cycles)\n");
    for (name, mixes) in [
        ("Case Study I".to_owned(), vec![case_study_1()]),
        (format!("{n} random 4-core workloads"), random_mixes(4, n, args.seed)),
    ] {
        println!("{name}:");
        println!(
            "{:10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "scheduler", "mean", "p50", "p95", "p99", "max"
        );
        for (kind, h) in kinds.iter().zip(latency_histograms(&harness, &kinds, &mixes, args.jobs)) {
            println!(
                "{:10} {:>8.0} {:>8} {:>8} {:>8} {:>8}",
                kind.name(),
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max()
            );
        }
        println!();
    }
}

/// The scheduler zoo (the paper's five plus BLISS and ATLAS) over mixed
/// CPU/accelerator workloads: a streaming-accelerator agent (GPU-like: very
/// high MPKI, very high row-buffer locality) shares the memory system with
/// three CPU threads per mix. `zoo-sweep` runs the same plan, with the mix
/// count given as its argument.
fn ext_zoo(args: &Args) {
    let mixes = zoo_mixes(args.mixes4_or(30), args.seed);
    let sweep = SweepPlan::new(&mixes, &named_rows(SchedulerKind::zoo_seven()));
    let rows = zoo_rows(sweep.run(&args.harness(4), args.jobs), &mixes);
    print_zoo(
        &format!(
            "Extension — scheduler zoo over {} mixed CPU/accelerator workload(s)",
            mixes.len()
        ),
        &rows,
    );
    println!(
        "expected shape: FR-FCFS worst CPU fairness (the streamer rides row hits),\n\
         BLISS/PAR-BS contain it, ATLAS flattens CPU slowdowns hardest while the\n\
         accelerator pays the largest slowdown of any scheduler."
    );
}
