//! Output digests: each simulation's result hashed with
//! `parbs_snap::Fingerprint` over its `parbs-snap` encoding, plus the
//! digests recorded from the repository's seed commit.

use parbs_metrics::MetricsRow;
use parbs_sim::{FlowRunResult, RunResult, ThreadRunStats};
use parbs_snap::{Fingerprint, SnapWriter};

use crate::Workload;

fn finish(w: SnapWriter) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(&w.into_bytes());
    fp.digest()
}

/// A `cs1_zoo` evaluation: the `MixEvaluation` metrics plus the shared-run
/// snapshots.
#[must_use]
pub fn evaluation(metrics: &MetricsRow, shared: &[ThreadRunStats]) -> u64 {
    let mut w = SnapWriter::new();
    w.put(&metrics.slowdowns);
    w.put(&metrics.speedups);
    w.f64(metrics.unfairness);
    w.f64(metrics.weighted_speedup);
    w.f64(metrics.hmean_speedup);
    w.f64(metrics.ast_per_req);
    w.put(&shared.to_vec());
    finish(w)
}

/// The checkpointed `cs1_zoo` shared run.
#[must_use]
pub fn run(r: &RunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.put(&r.threads);
    w.u64(r.cycles);
    w.f64(r.row_hit_rate);
    w.u64(r.worst_case_latency);
    w.bool(r.timed_out);
    w.put(&r.read_latency);
    finish(w)
}

/// A `flow10k_mon` run: the flow summary, the drive counters and the alarm
/// count.
#[must_use]
pub fn flow(r: &FlowRunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.usize(r.requesters);
    w.usize(r.completed);
    let s = &r.summary;
    w.u64(s.flows);
    w.u64(s.fct_p50);
    w.u64(s.fct_p95);
    w.u64(s.fct_p99);
    w.f64(s.fct_mean);
    w.f64(s.slowdown_p50);
    w.f64(s.slowdown_p99);
    w.f64(s.slowdown_rate);
    let d = &r.drive;
    w.u64(d.cycles);
    w.bool(d.timed_out);
    w.u64(d.reads_completed);
    w.put(&d.read_latency);
    w.usize(d.peak_backlog);
    w.usize(d.invariant_violations);
    w.usize(d.monitor_alarms);
    finish(w)
}

/// The seed used while the benchmark was written.
pub const TUNING_SEED: u64 = 1;

/// A seed held out from tuning, for re-checking gain claims.
pub const HELD_OUT_SEED: u64 = 2;

/// Digests at [`Scale::BENCH`](crate::Scale::BENCH), recorded at the
/// repository's seed commit for the tuning and the held-out seed: every
/// simulation's, in workload order.
const RECORDED: &[(Workload, u64, &[u64])] = &[
    (
        Workload::Cs1Zoo,
        TUNING_SEED,
        &[
            0xe2275055ba34a6c1,
            0x53fcfbffebd2ba8e,
            0xd4c3e82c643bf859,
            0x26e9606d58797d51,
            0xfdae1d364566abca,
            0xf0e98d5197952a54,
            0x64e84708cbf28f4e,
            0x4c46f0e0940f4487,
        ],
    ),
    (
        Workload::Cs1Zoo,
        HELD_OUT_SEED,
        &[
            0xbba52fbf210d7a0c,
            0x2bace9fa95d7a8e8,
            0x953a7cdf0b389453,
            0xd901717d99a0ecd1,
            0x256f3b6f83f74b57,
            0x42f685f3d80f8b46,
            0x38ba9277b7fd4230,
            0x14ce1b8934b9f488,
        ],
    ),
    (Workload::Flow10kMon, TUNING_SEED, &[0xcc8b7c9e90668cd4]),
    (Workload::Flow10kMon, HELD_OUT_SEED, &[0xcae1e6d36454a862]),
];

/// The recorded digests of `workload` at `seed`, if that seed was recorded.
#[must_use]
pub fn reference(workload: Workload, seed: u64) -> Option<&'static [u64]> {
    RECORDED.iter().find(|(w, s, _)| *w == workload && *s == seed).map(|(_, _, d)| *d)
}
