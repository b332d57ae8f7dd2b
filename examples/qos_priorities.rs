//! Quality of service: system-level thread priorities and purely
//! opportunistic service (Section 5 of the paper, Fig. 14).
//!
//! Scenario: omnetpp is the user-facing application; libquantum, milc and
//! astar are background jobs. With PAR-BS the background threads are marked
//! *opportunistic* — their requests never join a batch and are serviced only
//! when the memory system has a free slot.
//!
//! Run with: `cargo run --release --example qos_priorities`

use parbs::ThreadPriority;
use parbs_sim::experiments::{self, SweepRow};
use parbs_sim::{default_jobs, Harness, SimConfig};

fn main() {
    let harness =
        Harness::new(SimConfig { target_instructions: 10_000, ..SimConfig::for_cores(4) });

    println!("four lbm copies with decreasing importance (priorities 1-1-2-8):\n");
    print_rows(&experiments::priority_weighted_plan().run(&harness, default_jobs()));

    println!("\nomnetpp important, the rest opportunistic:\n");
    print_rows(&experiments::priority_opportunistic_plan().run(&harness, default_jobs()));

    println!(
        "\nUnder PAR-BS the high-priority thread is marked every batch and ranked first; \
         opportunistic threads are never marked and never displace it — no weights or \
         division hardware needed ({:?} marking periods).",
        [
            ThreadPriority::Level1.period(),
            ThreadPriority::Level(2).period(),
            ThreadPriority::Level(8).period(),
            ThreadPriority::Opportunistic.period(),
        ]
    );
}

fn print_rows(rows: &[SweepRow]) {
    if let Some(first) = rows.first() {
        print!("{:10}", "scheduler");
        for n in &first.evaluations[0].thread_names {
            print!(" {n:>12}");
        }
        println!();
    }
    for row in rows {
        print!("{:10}", row.label);
        for s in &row.evaluations[0].metrics.slowdowns {
            print!(" {s:>12.2}");
        }
        println!();
    }
}
