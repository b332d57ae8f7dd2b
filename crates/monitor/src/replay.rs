//! Offline replay: run a compiled spec over a recorded JSONL event trace
//! (as written by `parbs_obs::JsonlSink`) and return the finished monitor.
//!
//! Because the evaluator consumes the same `Event` values online and
//! offline, replaying a trace yields the **same verdicts** as monitoring
//! the live run that produced it — the workspace identity test and the CI
//! `monitor-smoke` job both diff the two.

use std::io::BufRead;

use parbs_obs::{read_jsonl, EventSink};

use crate::{Monitor, Spec};

/// A line of a JSONL trace that could not be read or parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based number of the line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReplayError {}

/// Replays a JSONL trace through a fresh monitor for `spec`.
///
/// Blank lines are skipped; each event is fed to the monitor as soon as its
/// line parses, so no event outlives its line.
///
/// # Errors
///
/// Returns the first line that cannot be read, is not UTF-8 or is not an
/// event record, with its 1-based line number.
pub fn replay_jsonl(spec: &Spec, trace: impl BufRead) -> Result<Monitor, ReplayError> {
    let mut monitor = spec.monitor();
    read_jsonl(trace, |event| monitor.record(&event))
        .map_err(|(line, e)| ReplayError { line, message: e.to_string() })?;
    Ok(monitor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_online_feeding() {
        let spec = crate::prelude::invariants();
        let trace = "\
{\"type\":\"enqueued\",\"at\":0,\"req\":1,\"thread\":0,\"write\":false,\"rank\":0,\"bank\":0,\"row\":5}
{\"type\":\"marked\",\"at\":1,\"req\":1,\"thread\":0,\"rank\":0,\"bank\":0}
{\"type\":\"command_issued\",\"at\":2,\"req\":2,\"thread\":1,\"cmd\":\"RD\",\"rank\":0,\"bank\":0,\"row\":5,\"col\":0,\"marked\":false}
";
        let monitor = replay_jsonl(&spec, trace.as_bytes()).unwrap();
        assert_eq!(monitor.events, 3);
        assert_eq!(monitor.alarms().len(), 1);
        assert_eq!(monitor.alarms()[0].name, "marked-first");
        assert_eq!(monitor.alarms()[0].at, 2);
        assert_eq!(monitor.alarms()[0].thread, Some(1));
    }

    #[test]
    fn malformed_lines_are_reported_with_their_number() {
        let spec = crate::prelude::invariants();
        let err = replay_jsonl(&spec, "\n{\"type\":\"nope\"}\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }
}
