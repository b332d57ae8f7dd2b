//! The baseline schedulers must tolerate sparse thread ids — the open-loop
//! flow frontend hands them ids like 40_000 with only a handful of threads
//! actually active, and per-decision cost/state has to track the *active*
//! set, not the largest id ever seen.

use parbs_baselines::{AtlasScheduler, BlissScheduler, NfqScheduler, StfmScheduler};
use parbs_dram::{
    Channel, Command, CommandKind, LineAddr, MemoryScheduler, Request, RequestKind, SchedView,
    ThreadId, TimingParams,
};

/// Threads far apart in id space but all genuinely active.
const SPARSE_THREADS: [usize; 3] = [0, 7, 40_000];

fn req(id: u64, thread: usize, bank: usize, row: u64) -> Request {
    Request::new(
        id,
        ThreadId(thread),
        LineAddr { channel: 0, bank, row, col: 0 },
        RequestKind::Read,
        0,
    )
}

fn column_cmd(r: &Request) -> Command {
    Command {
        kind: CommandKind::Read,
        rank: 0,
        bank: r.addr.bank,
        row: r.addr.row,
        col: r.addr.col,
        request: r.id,
    }
}

#[test]
fn atlas_ranks_sparse_threads_by_attained_service() {
    let mut s = AtlasScheduler::new(&TimingParams::ddr2_800());
    let ch = Channel::new(8, TimingParams::ddr2_800());
    let mut q: Vec<Request> =
        SPARSE_THREADS.iter().enumerate().map(|(i, &t)| req(i as u64, t, i, 1)).collect();
    s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
    // Service thread 40_000 heavily during the quantum.
    for _ in 0..20 {
        s.on_command(&column_cmd(&q[2]), &q[2], 0);
    }
    // Quantum rollover re-ranks: the heavily served thread drops to the
    // bottom, the untouched sparse ids rank by id among themselves.
    s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 1_000_000 });
    let r0 = s.rank_of(ThreadId(0));
    let r7 = s.rank_of(ThreadId(7));
    let r_big = s.rank_of(ThreadId(40_000));
    assert!(r0 < r_big && r7 < r_big, "least-attained-service first: {r0},{r7} vs {r_big}");
    // A never-seen id between the active ones stays unregistered.
    assert_eq!(s.attained_service(ThreadId(39_999)), 0);
}

#[test]
fn bliss_blacklists_and_clears_sparse_ids() {
    let mut s = BlissScheduler::new();
    let ch = Channel::new(8, TimingParams::ddr2_800());
    let r = req(0, 40_000, 0, 1);
    for _ in 0..4 {
        s.on_command(&column_cmd(&r), &r, 0);
    }
    assert!(s.is_blacklisted(ThreadId(40_000)));
    assert!(!s.is_blacklisted(ThreadId(39_999)), "neighbors of a sparse id stay clean");
    assert_eq!(s.blacklist_len(), 1, "blacklist size tracks offenders, not the id space");
    // The periodic clear retires the single entry.
    let mut q = vec![r];
    assert!(s.pre_schedule(&mut q, &SchedView { channel: &ch, now: 20_000 }));
    assert!(!s.is_blacklisted(ThreadId(40_000)));
    assert_eq!(s.blacklist_len(), 0);
}

#[test]
fn nfq_weights_sparse_ids_without_dense_growth() {
    let mut s = NfqScheduler::new(&TimingParams::ddr2_800());
    s.set_thread_weight(ThreadId(40_000), 8.0);
    let fast = req(0, 40_000, 0, 1);
    let slow = req(1, 7, 1, 1);
    s.on_arrival(&fast, 0);
    s.on_arrival(&slow, 0);
    assert!(
        s.deadline_of(fast.id).unwrap() < s.deadline_of(slow.id).unwrap(),
        "the weighted sparse thread earns the earlier virtual deadline"
    );
}

#[test]
fn stfm_fairness_mode_targets_a_sparse_thread() {
    let mut s = StfmScheduler::new(&TimingParams::ddr2_800());
    let ch = Channel::new(8, TimingParams::ddr2_800());
    // Stall reports arrive as a dense slice from the cores; the sparse
    // victim's slowdown is injected via interference accounting instead.
    let mut stalls = vec![0u64; 8];
    stalls[7] = 1_000;
    s.on_stall_cycles(&stalls, 0);
    s.set_thread_weight(ThreadId(40_000), 1.0);
    let mut q = vec![req(0, 7, 0, 1), req(1, 40_000, 1, 1)];
    let view = SchedView { channel: &ch, now: 0 };
    s.pre_schedule(&mut q, &view);
    // Thread 40_000 is repeatedly delayed by thread 7's bank-1 traffic...
    let aggressor = req(2, 7, 1, 9);
    for _ in 0..5_000 {
        s.on_command(&column_cmd(&aggressor), &aggressor, 0);
    }
    // ...and reports stall time through the (sparse-index) position in a
    // long dense slice, most of it attributed to interference.
    let mut stalls = vec![0u64; 40_001];
    stalls[40_000] = 5_000;
    s.on_stall_cycles(&stalls, 0);
    s.pre_schedule(&mut q, &view);
    assert_eq!(s.fairness_mode_thread(), Some(ThreadId(40_000)));
    assert!(s.slowdown_estimate(ThreadId(40_000)) > s.slowdown_estimate(ThreadId(7)));
    assert!(
        (s.slowdown_estimate(ThreadId(39_999)) - 1.0).abs() < 1e-12,
        "untouched neighbor id carries no state"
    );
}

#[test]
fn per_thread_accessors_reconstruct_dense_views() {
    let mut atlas = AtlasScheduler::new(&TimingParams::ddr2_800());
    let ch = Channel::new(8, TimingParams::ddr2_800());
    let mut q = vec![req(0, 2, 0, 1)];
    atlas.pre_schedule(&mut q, &SchedView { channel: &ch, now: 0 });
    atlas.on_command(&column_cmd(&q[0]), &q[0], 0);
    // Long-term totals fold in the current quantum's service at rollover.
    atlas.pre_schedule(&mut q, &SchedView { channel: &ch, now: 1_000_000 });
    let totals: Vec<u64> = (0..4).map(|t| atlas.attained_service(ThreadId(t))).collect();
    assert_eq!(totals.len(), 4);
    assert!(totals[2] > 0 && totals[3] == 0);

    let mut bliss = BlissScheduler::new();
    let r = req(0, 1, 0, 1);
    for _ in 0..4 {
        bliss.on_command(&column_cmd(&r), &r, 0);
    }
    let blacklist: Vec<bool> = (0..3).map(|t| bliss.is_blacklisted(ThreadId(t))).collect();
    assert_eq!(blacklist, vec![false, true, false]);

    let mut nfq = NfqScheduler::new(&TimingParams::ddr2_800());
    nfq.set_thread_weight(ThreadId(1), 4.0);
    let weights: Vec<f64> = (0..3).map(|t| nfq.thread_weight(ThreadId(t))).collect();
    assert_eq!(weights, vec![1.0, 4.0, 1.0]);

    let stfm = StfmScheduler::new(&TimingParams::ddr2_800());
    let slowdowns: Vec<f64> = (0..2).map(|t| stfm.slowdown_estimate(ThreadId(t))).collect();
    assert_eq!(slowdowns, vec![1.0, 1.0]);
}
