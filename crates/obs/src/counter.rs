//! [`CounterSink`]: per-thread and per-bank rollup counters over the event
//! stream, feeding the same metric primitives as `parbs-metrics`.

use parbs_metrics::LatencyHistogram;

use crate::{CmdKind, Event, EventSink, ServiceClass};

/// Per-thread counters accumulated from the event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadCounters {
    /// Read requests enqueued.
    pub reads: u64,
    /// Write requests enqueued.
    pub writes: u64,
    /// Read requests completed.
    pub reads_completed: u64,
    /// Requests marked into batches.
    pub marked: u64,
    /// DRAM commands issued on the thread's behalf.
    pub commands: u64,
    /// First commands that were row hits.
    pub row_hits: u64,
    /// First commands to a closed bank.
    pub row_closed: u64,
    /// First commands that were row conflicts.
    pub row_conflicts: u64,
    /// Worst read latency observed, in cycles.
    pub max_read_latency: u64,
}

impl ThreadCounters {
    /// Row-buffer hit rate over the thread's classified requests.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Per-bank counters accumulated from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Row activations.
    pub activates: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// Precharges.
    pub precharges: u64,
}

/// A rollup sink: folds the event stream into per-thread counters, per-bank
/// counters, batch telemetry, and a read-latency histogram compatible with
/// the `parbs-metrics` reporting used everywhere else in the workspace.
#[derive(Debug, Default)]
pub struct CounterSink {
    threads: Vec<ThreadCounters>,
    banks: Vec<BankCounters>,
    /// Batches formed.
    pub batches: u64,
    /// Batches whose drain was observed.
    pub batches_drained: u64,
    /// Sum of formation→drain spans of drained batches, in cycles.
    pub total_batch_cycles: u64,
    /// All-bank refreshes issued.
    pub refreshes: u64,
    /// Write-drain mode entries.
    pub write_drains: u64,
    /// Read-latency distribution (arrival → data observed).
    pub read_latency: LatencyHistogram,
    /// Total events observed.
    pub events: u64,
}

impl CounterSink {
    /// Creates a zeroed counter sink.
    #[must_use]
    pub fn new() -> Self {
        CounterSink::default()
    }

    /// Counters of `thread` (zeros if the thread never appeared).
    #[must_use]
    pub fn thread(&self, thread: usize) -> ThreadCounters {
        self.threads.get(thread).cloned().unwrap_or_default()
    }

    /// Counters of `bank` (zeros if the bank never appeared).
    #[must_use]
    pub fn bank(&self, bank: usize) -> BankCounters {
        self.banks.get(bank).copied().unwrap_or_default()
    }

    /// Number of distinct banks observed (highest index + 1).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Mean formation→drain span of drained batches, in cycles.
    #[must_use]
    pub fn avg_batch_cycles(&self) -> f64 {
        if self.batches_drained == 0 {
            0.0
        } else {
            self.total_batch_cycles as f64 / self.batches_drained as f64
        }
    }

    fn thread_mut(&mut self, thread: usize) -> &mut ThreadCounters {
        if self.threads.len() <= thread {
            self.threads.resize_with(thread + 1, ThreadCounters::default);
        }
        &mut self.threads[thread]
    }

    fn bank_mut(&mut self, bank: usize) -> &mut BankCounters {
        if self.banks.len() <= bank {
            self.banks.resize(bank + 1, BankCounters::default());
        }
        &mut self.banks[bank]
    }

    /// One-line human-readable rollup.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} events: {} threads, {} banks, {} batches ({} drained, avg {:.0} cycles), {} reads completed (mean latency {:.0})",
            self.events,
            self.threads.len(),
            self.banks.len(),
            self.batches,
            self.batches_drained,
            self.avg_batch_cycles(),
            self.read_latency.count(),
            self.read_latency.mean(),
        )
    }
}

impl EventSink for CounterSink {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match *event {
            Event::Enqueued { thread, write, .. } => {
                let t = self.thread_mut(thread);
                if write {
                    t.writes += 1;
                } else {
                    t.reads += 1;
                }
            }
            Event::Marked { thread, .. } => self.thread_mut(thread).marked += 1,
            Event::BatchFormed { .. } => self.batches += 1,
            Event::BatchDrained { at, formed_at, .. } => {
                self.batches_drained += 1;
                self.total_batch_cycles += at.saturating_sub(formed_at);
            }
            Event::CommandIssued { thread, kind, bank, service, .. } => {
                let t = self.thread_mut(thread);
                t.commands += 1;
                match service {
                    Some(ServiceClass::Hit) => t.row_hits += 1,
                    Some(ServiceClass::Closed) => t.row_closed += 1,
                    Some(ServiceClass::Conflict) => t.row_conflicts += 1,
                    None => {}
                }
                let b = self.bank_mut(bank);
                match kind {
                    CmdKind::Activate => b.activates += 1,
                    CmdKind::Read => b.reads += 1,
                    CmdKind::Write => b.writes += 1,
                    CmdKind::Precharge => b.precharges += 1,
                }
            }
            Event::Completed { thread, write, arrival, finish, .. } => {
                if !write {
                    let latency = finish.saturating_sub(arrival);
                    let t = self.thread_mut(thread);
                    t.reads_completed += 1;
                    t.max_read_latency = t.max_read_latency.max(latency);
                    self.read_latency.record(latency);
                }
            }
            Event::WriteDrain { start, .. } => {
                if start {
                    self.write_drains += 1;
                }
            }
            Event::Refresh { .. } => self.refreshes += 1,
            Event::RankComputed { .. }
            | Event::BusSample { .. }
            | Event::BlacklistSet { .. }
            | Event::BlacklistCleared { .. }
            | Event::QuantumRolled { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_a_small_stream() {
        let mut sink = CounterSink::new();
        let events = [
            Event::Enqueued {
                at: 0,
                request: 1,
                thread: 0,
                write: false,
                rank: 0,
                bank: 2,
                row: 5,
            },
            Event::Enqueued { at: 0, request: 2, thread: 1, write: true, rank: 0, bank: 3, row: 6 },
            Event::BatchFormed {
                at: 10,
                id: 1,
                marked: 1,
                cap: Some(5),
                exclusive: true,
                per_thread: vec![(0, 1)],
            },
            Event::Marked { at: 10, request: 1, thread: 0, rank: 0, bank: 2 },
            Event::CommandIssued {
                at: 10,
                request: 1,
                thread: 0,
                kind: CmdKind::Activate,
                rank: 0,
                bank: 2,
                row: 5,
                col: 0,
                marked: true,
                service: Some(ServiceClass::Closed),
                data_end: None,
            },
            Event::CommandIssued {
                at: 60,
                request: 1,
                thread: 0,
                kind: CmdKind::Read,
                rank: 0,
                bank: 2,
                row: 5,
                col: 0,
                marked: true,
                service: None,
                data_end: Some(100),
            },
            Event::Completed {
                at: 60,
                request: 1,
                thread: 0,
                write: false,
                arrival: 0,
                finish: 120,
            },
            Event::BatchDrained { at: 120, id: 1, formed_at: 10 },
            Event::Refresh { at: 200, rank: 0 },
        ];
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.events, events.len() as u64);
        assert_eq!(sink.thread(0).reads, 1);
        assert_eq!(sink.thread(0).marked, 1);
        assert_eq!(sink.thread(0).commands, 2);
        assert_eq!(sink.thread(0).row_closed, 1);
        assert_eq!(sink.thread(0).max_read_latency, 120);
        assert_eq!(sink.thread(1).writes, 1);
        assert_eq!(sink.bank(2).activates, 1);
        assert_eq!(sink.bank(2).reads, 1);
        assert_eq!(sink.batches, 1);
        assert_eq!(sink.batches_drained, 1);
        assert!((sink.avg_batch_cycles() - 110.0).abs() < 1e-9);
        assert_eq!(sink.refreshes, 1);
        assert_eq!(sink.read_latency.count(), 1);
        assert_eq!(sink.read_latency.max(), 120);
        assert!(!sink.summary().is_empty());
    }

    #[test]
    fn unknown_indices_read_as_zero() {
        let sink = CounterSink::new();
        assert_eq!(sink.thread(9).reads, 0);
        assert_eq!(sink.bank(9).activates, 0);
        assert_eq!(sink.avg_batch_cycles(), 0.0);
    }
}
