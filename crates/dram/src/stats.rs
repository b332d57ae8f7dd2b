//! Controller statistics: throughput, row-buffer categories, latency, and
//! the paper's bank-level-parallelism (BLP) measurement.

use crate::ThreadId;
use parbs_metrics::LatencyHistogram;

/// Measures bank-level parallelism per the paper's definition: "the average
/// number of requests being serviced in the DRAM banks when there is at
/// least one request being serviced". Sampled once per DRAM cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlpTracker {
    sum: u64,
    samples: u64,
}

impl BlpTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an instantaneous bank-parallelism observation; zero
    /// observations (no request in service) are skipped per the definition.
    pub fn record(&mut self, banks_busy: usize) {
        if banks_busy > 0 {
            self.sum += banks_busy as u64;
            self.samples += 1;
        }
    }

    /// The average BLP over all non-idle samples (0.0 if always idle).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Aggregate statistics for one controller (one channel).
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Read requests fully serviced.
    pub reads_completed: u64,
    /// Requests whose first command was a column command (row hit).
    pub row_hits: u64,
    /// Requests whose first command was an activate (row closed).
    pub row_closed: u64,
    /// Requests whose first command was a precharge (row conflict).
    pub row_conflicts: u64,
    /// Total DRAM commands placed on the command bus.
    pub commands_issued: u64,
    /// All-bank refreshes issued.
    pub refreshes: u64,
    /// Per-thread bank-level parallelism (grown on demand).
    pub thread_blp: Vec<BlpTracker>,
    /// Per-thread read row-category counters `(hits, closed, conflicts)`.
    pub thread_read_categories: Vec<(u64, u64, u64)>,
    /// Distribution of read latencies (arrival → data at core); its maximum
    /// is the paper's worst-case request latency (Table 4, "WC lat.").
    pub read_latency: LatencyHistogram,
}

impl ControllerStats {
    /// Row-buffer hit rate over all serviced requests.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Records one per-thread BLP observation (banks currently working for
    /// the thread). Called by the controller once per DRAM cycle.
    pub fn record_thread_blp(&mut self, thread: ThreadId, banks: usize) {
        self.thread_tracker(thread).record(banks);
    }

    /// Records a completed read's latency.
    pub fn record_read_latency(&mut self, latency: u64) {
        self.read_latency.record(latency);
    }

    /// Average BLP observed for `thread` (0.0 if never sampled).
    #[must_use]
    pub fn thread_blp_average(&self, thread: ThreadId) -> f64 {
        self.thread_blp.get(thread.0).map_or(0.0, BlpTracker::average)
    }

    /// Records the row-buffer category of a read at first service.
    pub fn record_read_category(&mut self, thread: ThreadId, kind: crate::CommandKind) {
        if self.thread_read_categories.len() <= thread.0 {
            self.thread_read_categories.resize(thread.0 + 1, (0, 0, 0));
        }
        let slot = &mut self.thread_read_categories[thread.0];
        match kind {
            crate::CommandKind::Read | crate::CommandKind::Write => slot.0 += 1,
            crate::CommandKind::Activate => slot.1 += 1,
            crate::CommandKind::Precharge => slot.2 += 1,
            crate::CommandKind::Refresh => {}
        }
    }

    fn thread_tracker(&mut self, thread: ThreadId) -> &mut BlpTracker {
        if self.thread_blp.len() <= thread.0 {
            self.thread_blp.resize(thread.0 + 1, BlpTracker::new());
        }
        &mut self.thread_blp[thread.0]
    }
}

parbs_snap::snap!(BlpTracker { sum, samples });
parbs_snap::snap!(ControllerStats {
    reads_completed,
    row_hits,
    row_closed,
    row_conflicts,
    commands_issued,
    refreshes,
    thread_blp,
    thread_read_categories,
    read_latency,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blp_skips_idle_samples() {
        let mut t = BlpTracker::new();
        t.record(0);
        t.record(2);
        t.record(4);
        t.record(0);
        assert!((t.average() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn blp_empty_average_is_zero() {
        assert_eq!(BlpTracker::new().average(), 0.0);
    }

    #[test]
    fn hit_rate_counts_categories() {
        let s =
            ControllerStats { row_hits: 3, row_closed: 1, row_conflicts: 0, ..Default::default() };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn worst_case_latency_tracks_maximum() {
        let mut s = ControllerStats::default();
        s.record_read_latency(100);
        s.record_read_latency(700);
        s.record_read_latency(300);
        assert_eq!(s.read_latency.count(), 3);
        assert_eq!(s.read_latency.max(), 700);
    }
}
