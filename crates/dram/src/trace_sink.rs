//! A [`parbs_obs::EventSink`] that rebuilds a `Vec<(cycle, Command)>`
//! command trace from the event stream — handy for trace-equality tests
//! and offline analysis of issued command sequences.

use parbs_obs::{CmdKind, Event, EventSink};

use crate::{Command, CommandKind, RequestId};

/// Converts a command kind to its observability-event counterpart
/// (refresh has its own [`Event::Refresh`] and maps to `None`).
#[must_use]
pub fn obs_cmd_kind(kind: CommandKind) -> Option<CmdKind> {
    match kind {
        CommandKind::Activate => Some(CmdKind::Activate),
        CommandKind::Read => Some(CmdKind::Read),
        CommandKind::Write => Some(CmdKind::Write),
        CommandKind::Precharge => Some(CmdKind::Precharge),
        CommandKind::Refresh => None,
    }
}

/// Collects `(issue cycle, Command)` pairs from [`Event::CommandIssued`] and
/// [`Event::Refresh`] events, including the `RequestId(u64::MAX)` refresh
/// sentinel.
#[derive(Debug, Default)]
pub struct CommandTraceSink {
    trace: Vec<(u64, Command)>,
}

impl CommandTraceSink {
    /// Creates an empty trace collector.
    #[must_use]
    pub fn new() -> Self {
        CommandTraceSink::default()
    }

    /// Consumes the sink, returning the collected trace.
    #[must_use]
    pub fn into_trace(self) -> Vec<(u64, Command)> {
        self.trace
    }
}

impl EventSink for CommandTraceSink {
    fn record(&mut self, event: &Event) {
        match *event {
            Event::CommandIssued { at, request, kind, rank, bank, row, col, .. } => {
                let kind = match kind {
                    CmdKind::Activate => CommandKind::Activate,
                    CmdKind::Read => CommandKind::Read,
                    CmdKind::Write => CommandKind::Write,
                    CmdKind::Precharge => CommandKind::Precharge,
                };
                self.trace.push((
                    at,
                    Command { kind, rank, bank, row, col, request: RequestId(request) },
                ));
            }
            Event::Refresh { at, rank } => {
                self.trace.push((at, Command::refresh(rank, RequestId(u64::MAX))));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilds_commands_and_refreshes() {
        let mut sink = CommandTraceSink::new();
        sink.record(&Event::CommandIssued {
            at: 10,
            request: 7,
            thread: 0,
            kind: CmdKind::Activate,
            rank: 1,
            bank: 3,
            row: 42,
            col: 5,
            marked: false,
            service: Some(parbs_obs::ServiceClass::Closed),
            data_end: None,
        });
        sink.record(&Event::Refresh { at: 20, rank: 1 });
        sink.record(&Event::Enqueued {
            at: 21,
            request: 8,
            thread: 0,
            write: false,
            rank: 0,
            bank: 0,
            row: 0,
        });
        let trace = sink.into_trace();
        assert_eq!(trace.len(), 2, "non-command events are ignored");
        assert_eq!(
            trace[0],
            (
                10,
                Command {
                    kind: CommandKind::Activate,
                    rank: 1,
                    bank: 3,
                    row: 42,
                    col: 5,
                    request: RequestId(7)
                }
            )
        );
        assert_eq!(trace[1].1.kind, CommandKind::Refresh);
        assert_eq!(trace[1].1.rank, 1);
        assert_eq!(trace[1].1.request, RequestId(u64::MAX));
    }

    #[test]
    fn obs_cmd_kind_maps_all_command_kinds() {
        assert_eq!(obs_cmd_kind(CommandKind::Read), Some(CmdKind::Read));
        assert_eq!(obs_cmd_kind(CommandKind::Refresh), None);
    }
}
