//! [`ChromeTraceSink`]: exports the event stream as Chrome trace-event JSON
//! (loadable in `chrome://tracing` and <https://ui.perfetto.dev>).
//!
//! Track layout:
//!
//! - **pid 1 "banks"** — one track per bank; every DRAM command is a
//!   duration (`ph:"X"`) slice. Column commands span issue → end of data
//!   transfer; activates/precharges get a fixed command-slot width.
//! - **pid 2 "threads"** — one track per thread; every completed request is
//!   a slice spanning arrival → data observed (its full latency).
//! - **pid 3 "scheduler"** — batch formation→drain spans, rank-computation
//!   instants, write-drain windows, refresh instants, and `busy_banks` /
//!   `queued_reads` counter tracks.
//!
//! Timestamps map one processor cycle to one trace microsecond (the trace
//! format's native unit), so slice widths read directly as cycles.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::{Event, EventSink};

const BANKS_PID: u32 = 1;
const THREADS_PID: u32 = 2;
const SCHED_PID: u32 = 3;
/// Scheduler-track tids.
const BATCH_TID: u32 = 0;
const DRAIN_TID: u32 = 1;
/// Slice width (cycles) of commands without a data transfer: one DRAM
/// command slot.
const COMMAND_WIDTH: u64 = 10;

/// Streams events into Chrome trace-event JSON entries; call
/// [`ChromeTraceSink::finish`] after the run to get the complete document.
#[derive(Debug)]
pub struct ChromeTraceSink {
    entries: Vec<String>,
    seen_banks: HashSet<usize>,
    seen_threads: HashSet<usize>,
    sched_meta_done: bool,
    /// Cycle the current write-drain window started, if one is open.
    drain_start: Option<u64>,
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        ChromeTraceSink::new()
    }
}

impl ChromeTraceSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceSink {
            entries: Vec::new(),
            seen_banks: HashSet::new(),
            seen_threads: HashSet::new(),
            sched_meta_done: false,
            drain_start: None,
        }
    }

    /// Consumes the sink and renders the complete JSON document.
    #[must_use]
    pub fn finish(self) -> String {
        let mut out =
            String::with_capacity(32 + self.entries.iter().map(String::len).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }

    fn meta(&mut self, name: &str, pid: u32, tid: Option<u32>, value: &str) {
        let mut e = format!("{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}");
        if let Some(tid) = tid {
            let _ = write!(e, ",\"tid\":{tid}");
        }
        let _ = write!(e, ",\"args\":{{\"name\":\"{value}\"}}}}");
        self.entries.push(e);
    }

    fn ensure_bank(&mut self, bank: usize) {
        if self.seen_banks.insert(bank) {
            if self.seen_banks.len() == 1 {
                self.meta("process_name", BANKS_PID, None, "banks");
            }
            self.meta("thread_name", BANKS_PID, Some(bank as u32), &format!("bank {bank}"));
        }
    }

    fn ensure_thread(&mut self, thread: usize) {
        if self.seen_threads.insert(thread) {
            if self.seen_threads.len() == 1 {
                self.meta("process_name", THREADS_PID, None, "threads");
            }
            self.meta("thread_name", THREADS_PID, Some(thread as u32), &format!("thread {thread}"));
        }
    }

    fn ensure_sched(&mut self) {
        if !self.sched_meta_done {
            self.sched_meta_done = true;
            self.meta("process_name", SCHED_PID, None, "scheduler");
            self.meta("thread_name", SCHED_PID, Some(BATCH_TID), "batches");
            self.meta("thread_name", SCHED_PID, Some(DRAIN_TID), "write drain");
        }
    }

    fn slice(&mut self, name: &str, pid: u32, tid: u32, ts: u64, dur: u64, args: &str) {
        self.entries.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{args}}}"
        ));
    }

    fn instant(&mut self, name: &str, pid: u32, tid: u32, ts: u64, args: &str) {
        self.entries.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{args}}}"
        ));
    }

    fn counter(&mut self, name: &str, ts: u64, value: u32) {
        self.entries.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{SCHED_PID},\"ts\":{ts},\"args\":{{\"{name}\":{value}}}}}"
        ));
    }
}

impl EventSink for ChromeTraceSink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::CommandIssued {
                at,
                request,
                thread,
                kind,
                bank,
                row,
                marked,
                service,
                data_end,
                ..
            } => {
                self.ensure_bank(*bank);
                let dur = data_end.map_or(COMMAND_WIDTH, |end| end.saturating_sub(*at).max(1));
                let mut args = format!(
                    "{{\"req\":{request},\"thread\":{thread},\"row\":{row},\"marked\":{marked}"
                );
                if let Some(class) = service {
                    let _ = write!(args, ",\"class\":\"{}\"", class.name());
                }
                args.push('}');
                self.slice(kind.short(), BANKS_PID, *bank as u32, *at, dur, &args);
            }
            Event::Completed { request, thread, write, arrival, finish, .. } => {
                self.ensure_thread(*thread);
                let name = if *write { "write" } else { "read" };
                let args = format!(
                    "{{\"req\":{request},\"latency\":{}}}",
                    finish.saturating_sub(*arrival)
                );
                self.slice(
                    name,
                    THREADS_PID,
                    *thread as u32,
                    *arrival,
                    finish.saturating_sub(*arrival).max(1),
                    &args,
                );
            }
            Event::BatchDrained { at, id, formed_at } => {
                self.ensure_sched();
                let args = format!("{{\"batch\":{id}}}");
                self.slice(
                    &format!("batch {id}"),
                    SCHED_PID,
                    BATCH_TID,
                    *formed_at,
                    at.saturating_sub(*formed_at).max(1),
                    &args,
                );
            }
            Event::RankComputed { at, batch, max_total, entries } => {
                self.ensure_sched();
                let mut args = format!("{{\"batch\":{batch},\"max_total\":{max_total},\"order\":[");
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        args.push(',');
                    }
                    let _ = write!(args, "{}", e.thread);
                }
                args.push_str("]}");
                self.instant("rank", SCHED_PID, BATCH_TID, *at, &args);
            }
            Event::WriteDrain { at, start, queued } => {
                self.ensure_sched();
                if *start {
                    self.drain_start = Some(*at);
                } else if let Some(begin) = self.drain_start.take() {
                    let args = format!("{{\"queued\":{queued}}}");
                    self.slice(
                        "write drain",
                        SCHED_PID,
                        DRAIN_TID,
                        begin,
                        at.saturating_sub(begin).max(1),
                        &args,
                    );
                }
            }
            Event::Refresh { at, rank } => {
                self.ensure_sched();
                let args = format!("{{\"rank\":{rank}}}");
                self.instant("refresh", SCHED_PID, BATCH_TID, *at, &args);
            }
            Event::BlacklistSet { at, thread, consecutive } => {
                self.ensure_sched();
                let args = format!("{{\"thread\":{thread},\"consecutive\":{consecutive}}}");
                self.instant("blacklist_set", SCHED_PID, BATCH_TID, *at, &args);
            }
            Event::BlacklistCleared { at, cleared } => {
                self.ensure_sched();
                let args = format!("{{\"cleared\":{cleared}}}");
                self.instant("blacklist_cleared", SCHED_PID, BATCH_TID, *at, &args);
            }
            Event::QuantumRolled { at, quantum, .. } => {
                self.ensure_sched();
                let args = format!("{{\"quantum\":{quantum}}}");
                self.instant("quantum_rolled", SCHED_PID, BATCH_TID, *at, &args);
            }
            Event::BusSample { at, busy_banks, queued_reads, .. } => {
                self.ensure_sched();
                self.counter("busy_banks", *at, *busy_banks);
                self.counter("queued_reads", *at, *queued_reads);
            }
            // Enqueued/Marked/BatchFormed carry no visual of their own: the
            // batch span is drawn at drain time (when its extent is known)
            // and request spans at completion.
            Event::Enqueued { .. } | Event::Marked { .. } | Event::BatchFormed { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmdKind, ServiceClass};

    fn stream() -> Vec<Event> {
        vec![
            Event::Enqueued {
                at: 0,
                request: 1,
                thread: 0,
                write: false,
                rank: 0,
                bank: 0,
                row: 4,
            },
            Event::BatchFormed {
                at: 0,
                id: 1,
                marked: 1,
                cap: Some(5),
                exclusive: true,
                per_thread: vec![(0, 1)],
            },
            Event::Marked { at: 0, request: 1, thread: 0, rank: 0, bank: 0 },
            Event::RankComputed {
                at: 0,
                batch: 1,
                max_total: true,
                entries: vec![crate::RankEntry {
                    thread: 0,
                    rank: 0,
                    max_bank_load: 1,
                    total_load: 1,
                }],
            },
            Event::CommandIssued {
                at: 0,
                request: 1,
                thread: 0,
                kind: CmdKind::Activate,
                rank: 0,
                bank: 0,
                row: 4,
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
                bank: 0,
                row: 4,
                col: 0,
                marked: true,
                service: None,
                data_end: Some(110),
            },
            Event::Completed {
                at: 60,
                request: 1,
                thread: 0,
                write: false,
                arrival: 0,
                finish: 130,
            },
            Event::BatchDrained { at: 130, id: 1, formed_at: 0 },
            Event::WriteDrain { at: 200, start: true, queued: 24 },
            Event::WriteDrain { at: 400, start: false, queued: 8 },
            Event::Refresh { at: 500, rank: 0 },
            Event::BusSample { at: 510, busy_banks: 1, queued_reads: 2, queued_writes: 0 },
        ]
    }

    #[test]
    fn produces_a_complete_json_document_with_all_tracks() {
        let mut sink = ChromeTraceSink::new();
        for e in &stream() {
            sink.record(e);
        }
        let doc = sink.finish();
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.trim_end().ends_with("]}"));
        // Balanced braces/brackets — a cheap well-formedness check given the
        // document is built from straight-line formatting (no string data
        // that could contain brackets).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        for needle in [
            "\"name\":\"banks\"",
            "\"name\":\"threads\"",
            "\"name\":\"scheduler\"",
            "\"name\":\"bank 0\"",
            "\"name\":\"thread 0\"",
            "\"name\":\"ACT\"",
            "\"name\":\"RD\"",
            "\"name\":\"read\"",
            "\"name\":\"batch 1\"",
            "\"name\":\"rank\"",
            "\"name\":\"write drain\"",
            "\"name\":\"refresh\"",
            "\"name\":\"busy_banks\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn batch_span_covers_formation_to_drain() {
        let mut sink = ChromeTraceSink::new();
        for e in &stream() {
            sink.record(e);
        }
        let doc = sink.finish();
        let batch_line =
            doc.lines().find(|l| l.contains("\"name\":\"batch 1\"")).expect("batch slice");
        assert!(batch_line.contains("\"ts\":0"), "{batch_line}");
        assert!(batch_line.contains("\"dur\":130"), "{batch_line}");
    }

    #[test]
    fn column_command_duration_is_the_data_transfer() {
        let mut sink = ChromeTraceSink::new();
        for e in &stream() {
            sink.record(e);
        }
        let doc = sink.finish();
        let rd = doc.lines().find(|l| l.contains("\"name\":\"RD\"")).expect("read slice");
        assert!(rd.contains("\"ts\":60") && rd.contains("\"dur\":50"), "{rd}");
    }

    #[test]
    fn unclosed_drain_window_is_dropped() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&Event::WriteDrain { at: 10, start: true, queued: 20 });
        let doc = sink.finish();
        assert!(!doc.contains("\"name\":\"write drain\"") || !doc.contains("\"ph\":\"X\""));
    }
}
