//! Quickstart: schedule DRAM requests with PAR-BS, then compare it against
//! FR-FCFS on the paper's memory-intensive Case Study I.
//!
//! Run with: `cargo run --release --example quickstart`

use parbs::{ParBsConfig, ParBsScheduler};
use parbs_dram::{Controller, DramConfig, LineAddr, Request, RequestKind, ThreadId};
use parbs_sim::experiments::{named_rows, SweepPlan};
use parbs_sim::{Harness, SchedulerKind, SimConfig};
use parbs_workloads::case_study_1;

fn main() {
    // ── 1. The scheduler on its own: a controller services a burst of
    //       requests from two threads; PAR-BS batches them and services
    //       thread 0's requests in parallel across banks.
    let mut ctrl = Controller::new(
        DramConfig::default(),
        Box::new(ParBsScheduler::new(ParBsConfig::default())),
    );
    // Thread 0: three requests to three different banks (high parallelism).
    // Thread 1: three requests to one bank (a "long job").
    let requests = [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 3, 7), (1, 3, 8), (1, 3, 9)];
    for (id, (thread, bank, row)) in requests.into_iter().enumerate() {
        let addr = LineAddr { channel: 0, bank, row, col: 0 };
        ctrl.try_enqueue(Request::new(id as u64, ThreadId(thread), addr, RequestKind::Read, 0))
            .expect("buffer has room");
    }
    let mut now = 0;
    let done = ctrl.run_to_drain(&mut now, 1_000_000);
    println!("request completion times (PAR-BS):");
    for c in &done {
        println!("  thread {} request {:?} done at cycle {}", c.thread.0, c.request, c.finish);
    }
    let t0_last = done.iter().filter(|c| c.thread.0 == 0).map(|c| c.finish).max().unwrap();
    let t1_last = done.iter().filter(|c| c.thread.0 == 1).map(|c| c.finish).max().unwrap();
    println!(
        "thread 0 (3 banks in parallel) finishes at {t0_last}, thread 1 (1 bank) at {t1_last}\n"
    );

    // ── 2. Full-system comparison on Case Study I (Fig. 5): four intensive
    //       SPEC-like workloads sharing one DDR2-800 channel.
    let harness =
        Harness::new(SimConfig { target_instructions: 10_000, ..SimConfig::for_cores(4) });
    println!("Case Study I (libquantum + mcf + GemsFDTD + xalancbmk):");
    println!(
        "{:10} {:>10} {:>16} {:>14}",
        "scheduler", "unfairness", "weighted-speedup", "avg-stall/req"
    );
    let sweep = SweepPlan::new(&[case_study_1()], &named_rows(SchedulerKind::paper_five()));
    for row in sweep.run(&harness, parbs_sim::default_jobs()) {
        let eval = &row.evaluations[0];
        println!(
            "{:10} {:>10.2} {:>16.3} {:>14.1}",
            row.label,
            eval.metrics.unfairness,
            eval.metrics.weighted_speedup,
            eval.metrics.ast_per_req
        );
    }
    println!("\nPAR-BS should show the lowest unfairness and the highest weighted speedup.");
}
