//! Never-panic property of the trace parser: any text, and any single-byte
//! mutation of a formatted trace, parses to a trace or a
//! [`ParseTraceError`] naming a line of the input.

use parbs_cpu::Instr;
use parbs_workloads::{format_trace, parse_trace, MAX_TRACE_INSTRUCTIONS};
use proptest::prelude::*;

/// Bytes that make up trace text, weighted toward its tokens.
const ALPHABET: &[u8] = b"CLDScldsX0x0123456789abcdefF #\n\n  \t-+";

/// Parses `text` and checks the outcome: a non-empty trace within the cap,
/// or an error on a line the text has (0 for a trace with no instruction).
fn check(text: &str) -> Result<(), TestCaseError> {
    match parse_trace(text) {
        Ok(instrs) => {
            prop_assert!(!instrs.is_empty() && instrs.len() <= MAX_TRACE_INSTRUCTIONS);
        }
        Err(e) => prop_assert!(e.line <= text.lines().count(), "{e} in {text:?}"),
    }
    Ok(())
}

fn instr(op: u8, addr: u64) -> Instr {
    match op % 4 {
        0 => Instr::Compute,
        1 => Instr::Load(addr),
        2 => Instr::DependentLoad(addr),
        _ => Instr::Store(addr),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_text_gives_a_trace_or_a_typed_error(
        picks in proptest::collection::vec(any::<u8>(), 0..120),
        raw in any::<bool>(),
    ) {
        // Mostly trace-like text; sometimes arbitrary bytes.
        let bytes: Vec<u8> = if raw {
            picks
        } else {
            picks.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect()
        };
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_traces_give_a_trace_or_a_typed_error(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..24),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let instrs: Vec<Instr> = ops.iter().map(|&(op, addr)| instr(op, addr)).collect();
        let text = format_trace(&instrs);
        prop_assert_eq!(parse_trace(&text), Ok(instrs));
        let mut bytes = text.into_bytes();
        let i = at % bytes.len();
        bytes[i] ^= xor;
        check(&String::from_utf8_lossy(&bytes))?;
    }
}
