//! [`CounterSink`]: a one-line rollup of the event stream — event count,
//! thread and bank index spans, batch telemetry and read latency — feeding
//! the same latency histogram as `parbs-metrics`.

use parbs_metrics::LatencyHistogram;

use crate::{Event, EventSink};

/// A rollup sink: folds the event stream into the counts its
/// [`CounterSink::summary`] line prints.
#[derive(Debug, Default)]
pub struct CounterSink {
    /// Total events observed.
    pub events: u64,
    /// Threads observed: the highest thread index seen on a request, plus 1.
    pub thread_span: usize,
    /// Banks observed: the highest bank index seen on a command, plus 1.
    pub bank_span: usize,
    /// Batches formed.
    pub batches: u64,
    /// Batches whose drain was observed.
    pub batches_drained: u64,
    /// Sum of formation→drain spans of drained batches, in cycles.
    pub total_batch_cycles: u64,
    /// Read-latency distribution (arrival → data observed).
    pub read_latency: LatencyHistogram,
}

impl CounterSink {
    /// Creates a zeroed counter sink.
    #[must_use]
    pub fn new() -> Self {
        CounterSink::default()
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

    fn saw_thread(&mut self, thread: usize) {
        self.thread_span = self.thread_span.max(thread + 1);
    }

    /// One-line human-readable rollup.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} events: {} threads, {} banks, {} batches ({} drained, avg {:.0} cycles), {} reads completed (mean latency {:.0})",
            self.events,
            self.thread_span,
            self.bank_span,
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
            Event::Enqueued { thread, .. } | Event::Marked { thread, .. } => {
                self.saw_thread(thread);
            }
            Event::BatchFormed { .. } => self.batches += 1,
            Event::BatchDrained { at, formed_at, .. } => {
                self.batches_drained += 1;
                self.total_batch_cycles += at.saturating_sub(formed_at);
            }
            Event::CommandIssued { thread, bank, .. } => {
                self.saw_thread(thread);
                self.bank_span = self.bank_span.max(bank + 1);
            }
            Event::Completed { thread, write, arrival, finish, .. } => {
                if !write {
                    self.saw_thread(thread);
                    self.read_latency.record(finish.saturating_sub(arrival));
                }
            }
            Event::WriteDrain { .. }
            | Event::Refresh { .. }
            | Event::RankComputed { .. }
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
    use crate::{CmdKind, ServiceClass};

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
        assert_eq!((sink.thread_span, sink.bank_span), (2, 3));
        assert_eq!(sink.batches, 1);
        assert_eq!(sink.batches_drained, 1);
        assert!((sink.avg_batch_cycles() - 110.0).abs() < 1e-9);
        assert_eq!(sink.read_latency.count(), 1);
        assert_eq!(sink.read_latency.max(), 120);
        assert_eq!(
            sink.summary(),
            "9 events: 2 threads, 3 banks, 1 batches (1 drained, avg 110 cycles), \
             1 reads completed (mean latency 120)"
        );
    }

    #[test]
    fn an_empty_stream_summarizes_to_zeros() {
        let sink = CounterSink::new();
        assert_eq!(sink.avg_batch_cycles(), 0.0);
        assert_eq!(
            sink.summary(),
            "0 events: 0 threads, 0 banks, 0 batches (0 drained, avg 0 cycles), \
             0 reads completed (mean latency 0)"
        );
    }
}
