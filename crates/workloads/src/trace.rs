//! Trace-file workloads: run real (or externally generated) memory traces
//! instead of the synthetic benchmarks.
//!
//! The format is line-oriented text — one instruction group per line,
//! `#`-comments and blank lines ignored:
//!
//! ```text
//! # compute-count, then L2-miss loads/stores at cache-line granularity
//! C 12          # 12 non-memory instructions
//! L 0x1a2b      # independent load miss of line 0x1a2b
//! D 0x1a2c      # dependent load miss (waits for all older misses)
//! S 0x1a2b      # store (writeback)
//! ```
//!
//! Line addresses may be hexadecimal (`0x…`) or decimal. The trace loops
//! when the simulator runs longer than its length, matching the behaviour
//! of the synthetic streams. A trace expands to at most
//! [`MAX_TRACE_INSTRUCTIONS`] instructions.

use std::path::Path;

use parbs_cpu::{Instr, TraceStream};

/// The most instructions a parsed trace may expand to: 4 Mi, 64 MiB of
/// [`Instr`]. A longer trace, however short its text (one `C` line can ask
/// for any count), is a [`ParseTraceError`].
pub const MAX_TRACE_INSTRUCTIONS: usize = 1 << 22;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn parse_addr(token: &str, line: usize) -> Result<u64, ParseTraceError> {
    let parsed = if let Some(hex) = token.strip_prefix("0x").or_else(|| token.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse()
    };
    parsed.map_err(|_| ParseTraceError { line, message: format!("invalid address '{token}'") })
}

/// Parses the text trace format into an instruction sequence.
///
/// # Errors
///
/// Returns the first malformed line (unknown opcode, missing or invalid
/// operand), or the line that takes the trace past
/// [`MAX_TRACE_INSTRUCTIONS`]. An entirely empty trace is an error —
/// instruction streams must be non-empty.
pub fn parse_trace(text: &str) -> Result<Vec<Instr>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let operand = parts.next().ok_or_else(|| ParseTraceError {
            line: line_no,
            message: format!("'{op}' needs an operand"),
        })?;
        if parts.next().is_some() {
            return Err(ParseTraceError {
                line: line_no,
                message: "trailing tokens after operand".into(),
            });
        }
        let (instr, count) = match op {
            "C" | "c" => {
                let n: u64 = operand.parse().map_err(|_| ParseTraceError {
                    line: line_no,
                    message: format!("invalid compute count '{operand}'"),
                })?;
                (Instr::Compute, n)
            }
            "L" | "l" => (Instr::Load(parse_addr(operand, line_no)?), 1),
            "D" | "d" => (Instr::DependentLoad(parse_addr(operand, line_no)?), 1),
            "S" | "s" => (Instr::Store(parse_addr(operand, line_no)?), 1),
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("unknown opcode '{other}' (expected C, L, D or S)"),
                })
            }
        };
        let room = MAX_TRACE_INSTRUCTIONS - out.len();
        let count =
            usize::try_from(count).ok().filter(|&n| n <= room).ok_or_else(|| ParseTraceError {
                line: line_no,
                message: format!("trace expands past {MAX_TRACE_INSTRUCTIONS} instructions"),
            })?;
        out.extend(std::iter::repeat_n(instr, count));
    }
    if out.is_empty() {
        return Err(ParseTraceError { line: 0, message: "trace contains no instructions".into() });
    }
    Ok(out)
}

/// Loads a trace file into a looping [`TraceStream`].
///
/// # Errors
///
/// Returns an I/O error message or the first malformed line.
pub fn load_trace(path: &Path) -> Result<TraceStream, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let instrs = parse_trace(&text).map_err(|e| e.to_string())?;
    Ok(TraceStream::new(instrs))
}

/// Serializes an instruction sequence back to the text format (the inverse
/// of [`parse_trace`], with runs of compute instructions compacted).
#[must_use]
pub fn format_trace(instrs: &[Instr]) -> String {
    let mut out = String::new();
    let mut compute_run = 0u64;
    let flush = |out: &mut String, run: &mut u64| {
        if *run > 0 {
            out.push_str(&format!("C {run}\n"));
            *run = 0;
        }
    };
    for i in instrs {
        match i {
            Instr::Compute => compute_run += 1,
            Instr::Load(a) => {
                flush(&mut out, &mut compute_run);
                out.push_str(&format!("L 0x{a:x}\n"));
            }
            Instr::DependentLoad(a) => {
                flush(&mut out, &mut compute_run);
                out.push_str(&format!("D 0x{a:x}\n"));
            }
            Instr::Store(a) => {
                flush(&mut out, &mut compute_run);
                out.push_str(&format!("S 0x{a:x}\n"));
            }
        }
    }
    flush(&mut out, &mut compute_run);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_cpu::InstructionStream;

    #[test]
    fn parses_all_opcodes_and_comments() {
        let t = "# header\nC 3\nL 0x10\nD 16\nS 0x20  # inline comment\n\n";
        let v = parse_trace(t).unwrap();
        assert_eq!(
            v,
            vec![
                Instr::Compute,
                Instr::Compute,
                Instr::Compute,
                Instr::Load(0x10),
                Instr::DependentLoad(16),
                Instr::Store(0x20),
            ]
        );
    }

    #[test]
    fn rejects_unknown_opcode() {
        let e = parse_trace("X 5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown opcode"));
    }

    #[test]
    fn rejects_missing_operand() {
        let e = parse_trace("C 1\nL\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_bad_address() {
        let e = parse_trace("L 0xzz\n").unwrap_err();
        assert!(e.message.contains("invalid address"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = parse_trace("L 0x10 0x20\n").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn rejects_a_compute_count_past_the_cap_before_allocating() {
        let e = parse_trace("L 0x10\nC 18446744073709551615\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expands past"), "{e}");
        // The cap counts every line: one instruction plus the cap is over.
        let e = parse_trace(&format!("L 0x10\nC {MAX_TRACE_INSTRUCTIONS}\n")).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_empty_trace() {
        assert!(parse_trace("# only comments\n").is_err());
    }

    #[test]
    fn format_parse_round_trip() {
        let instrs = vec![
            Instr::Compute,
            Instr::Compute,
            Instr::Load(0x1a2b),
            Instr::Store(7),
            Instr::DependentLoad(0xff),
            Instr::Compute,
        ];
        let text = format_trace(&instrs);
        assert_eq!(parse_trace(&text).unwrap(), instrs);
    }

    #[test]
    fn load_trace_reads_a_file() {
        let path = std::env::temp_dir().join("parbs_trace_test.txt");
        std::fs::write(&path, "C 2\nL 0x40\n").unwrap();
        let mut stream = load_trace(&path).unwrap();
        assert_eq!(stream.next_instr(), Instr::Compute);
        assert_eq!(stream.next_instr(), Instr::Compute);
        assert_eq!(stream.next_instr(), Instr::Load(0x40));
        // Loops.
        assert_eq!(stream.next_instr(), Instr::Compute);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_trace_missing_file_errors() {
        let err = load_trace(Path::new("/nonexistent/parbs.trace")).unwrap_err();
        assert!(err.contains("cannot read"));
    }
}
