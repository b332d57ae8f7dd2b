//! Golden tests for spec compile errors: each malformed spec is pinned to
//! the *exact* rendered diagnostic (`line:col: message`), so error position,
//! offending stream name, and expected type stay stable for tooling that
//! parses them (editors, `parbs-sim check-spec`, CI logs). A never-panic
//! property closes the file: random text, random token sequences and
//! single-byte mutations of the preludes each compile to a spec or to an
//! error positioned inside the source, and every spec that compiles runs
//! without panicking over a fixed stream that carries every event kind.
//! Over the same stream, a warn trigger pins the arithmetic's edge cases.

use std::sync::LazyLock;

use parbs_monitor::{prelude, Spec};
use parbs_obs::{parse_jsonl, Event, EventKind, EventSink};
use parbs_sim::{run_observed, ObserveOptions, SchedulerKind, SimConfig, TraceFormat};
use parbs_workloads::case_study_1;
use proptest::prelude::*;

/// Compiles `src` and asserts the rendered error equals `expected` exactly.
fn assert_error(src: &str, expected: &str) {
    match Spec::compile(src) {
        Ok(_) => panic!("spec compiled but should not have:\n{src}"),
        Err(e) => assert_eq!(e.to_string(), expected, "for spec:\n{src}"),
    }
}

#[test]
fn lexer_rejects_stray_characters_with_position() {
    assert_error("input enq := enqueued when @thread\n", "1:28: unexpected character '@'");
}

#[test]
fn parser_pins_missing_keyword_position() {
    // `window` requires `over <input>`; handing it `in` first is caught at
    // the exact token.
    assert_error(
        "input enq := enqueued\nwindow w := count in 100\n",
        "2:19: expected 'over', found 'in'",
    );
}

#[test]
fn parser_pins_bad_trigger_severity() {
    assert_error(
        "input enq := enqueued\ntrigger info \"x\" on enq when true\n",
        "2:9: expected 'warn' or 'error' after 'trigger', found 'info'",
    );
}

#[test]
fn parser_pins_truncated_spec() {
    assert_error("input enq :=", "1:13: expected an event kind, found end of spec");
}

#[test]
fn checker_names_the_unknown_event_kind() {
    assert_error(
        "input enq := enquued\n",
        "1:14: unknown event kind 'enquued' (expected one of enqueued, marked, \
         batch_formed, batch_drained, rank_computed, command_issued, completed, \
         write_drain, refresh, bus_sample, blacklist_set, blacklist_cleared, \
         quantum_rolled)",
    );
}

#[test]
fn checker_names_the_unknown_field_and_its_event_kind() {
    assert_error(
        "input enq := enqueued when thrd == 0\n",
        "1:28: unknown name 'thrd' on event kind 'enqueued'",
    );
}

#[test]
fn checker_pins_guard_type_mismatch() {
    assert_error(
        "input enq := enqueued when thread\n",
        "1:28: input guard must be Bool, found Int",
    );
}

#[test]
fn checker_pins_trigger_condition_type_mismatch() {
    assert_error(
        "input enq := enqueued\ntrigger error \"t\" on enq when thread + 1\n",
        "2:31: trigger condition must be Bool, found Int",
    );
}

#[test]
fn checker_pins_operator_operand_types() {
    assert_error(
        "input enq := enqueued when write + 1 == 2\n",
        "1:28: '+' expects Int operands, found Bool",
    );
    assert_error(
        "input enq := enqueued when !(thread)\n",
        "1:28: '!' expects a Bool operand, found Int",
    );
    assert_error(
        "input enq := enqueued when write == thread\n",
        "1:28: cannot compare Bool with Int",
    );
}

#[test]
fn checker_pins_duplicate_stream_names() {
    assert_error(
        "input enq := enqueued\ninput enq := completed\n",
        "2:7: duplicate stream name 'enq'",
    );
}

#[test]
fn checker_pins_key_arity_mismatch() {
    assert_error(
        "input enq := enqueued\n\
         map m[request] := thread on enq\n\
         trigger error \"t\" on enq when m[request, thread] > 0\n",
        "3:31: 'm' expects 1 key(s), got 2",
    );
}

#[test]
fn checker_pins_unknown_stream_in_expression() {
    assert_error(
        "input enq := enqueued\ntrigger error \"t\" on enq when missing[thread] > 0\n",
        "2:31: unknown stream 'missing'",
    );
}

#[test]
fn checker_rejects_nonpositive_window_lengths() {
    assert_error(
        "input enq := enqueued\nwindow w := count over enq in 0\n",
        "2:31: window 'w' length must be positive",
    );
}

#[test]
fn checker_rejects_streams_with_more_than_four_keys() {
    // Key tuples are fixed-width, so a fifth key is an error at the stream's
    // name rather than a slower path.
    assert_error(
        "input cmd := command_issued\n\
         counter c[thread, rank, bank, row, col] := add 1 on cmd\n",
        "2:9: 'c' has 5 keys; the limit is 4",
    );
    assert!(Spec::compile(
        "input cmd := command_issued\n\
         counter c[thread, rank, bank, row] := add 1 on cmd\n\
         trigger warn \"t\" on cmd when c[thread, rank, bank, row] > 1\n"
    )
    .is_ok());
}

#[test]
fn checker_pins_errors_inside_message_templates() {
    assert_error(
        "input enq := enqueued\n\
         trigger error \"t\" on enq when true message \"thread {thrd}\"\n",
        "2:44: in message template: unknown name 'thrd' on event kind 'enqueued'",
    );
    assert_error(
        "input enq := enqueued\n\
         trigger error \"t\" on enq when true message \"oops {thread\"\n",
        "2:44: unterminated '{' in message template",
    );
}

#[test]
fn checker_pins_untyped_hold_reads() {
    assert_error(
        "input enq := enqueued\n\
         hold h := h on enq\n\
         trigger error \"t\" on enq when h > 0\n",
        "2:11: hold 'h' is read before its type is known (declare it earlier or give \
         it an 'init')",
    );
}

/// One record of each kind, for the kinds the head of the trace lacks.
const EVERY_KIND: &str = r#"
{"type":"enqueued","at":0,"req":1,"thread":0,"write":true,"rank":0,"bank":1,"row":2}
{"type":"marked","at":0,"req":1,"thread":0,"rank":0,"bank":1}
{"type":"batch_formed","at":0,"id":1,"marked":1,"cap":null,"exclusive":false,"per_thread":[[0,1]]}
{"type":"batch_drained","at":0,"id":1,"formed_at":0}
{"type":"rank_computed","at":0,"batch":1,"max_total":true,"ranking":[{"thread":0,"rank":1,"max":1,"total":1}]}
{"type":"command_issued","at":0,"req":1,"thread":0,"cmd":"PRE","rank":0,"bank":1,"row":2,"col":0,"marked":true}
{"type":"completed","at":0,"req":1,"thread":0,"write":true,"arrival":0,"finish":0}
{"type":"write_drain","at":0,"start":true,"queued":1}
{"type":"refresh","at":0,"rank":1}
{"type":"bus_sample","at":0,"busy_banks":1,"queued_reads":0,"queued_writes":1}
{"type":"blacklist_set","at":0,"thread":0,"consecutive":4}
{"type":"blacklist_cleared","at":0,"cleared":1}
{"type":"quantum_rolled","at":0,"quantum":1,"ranking":[{"thread":0,"rank":0,"attained":9}]}
"#;

/// The first 300 events of Case Study 1's PAR-BS trace, then one event of
/// each kind they lack, at the last event's cycle.
static EVENTS: LazyLock<Vec<Event>> = LazyLock::new(|| {
    let cfg = SimConfig { target_instructions: 500, ..SimConfig::for_cores(4) };
    let opts = ObserveOptions { trace: Some(TraceFormat::Jsonl), ..Default::default() };
    let obs = run_observed(cfg, &case_study_1(), &SchedulerKind::ParBs(Default::default()), &opts);
    let mut events = parse_jsonl(&obs.trace.expect("a JSONL trace was requested")).unwrap();
    events.truncate(300);
    let last = events.last().map_or(0, Event::at);
    for extra in parse_jsonl(&EVERY_KIND.replace("\"at\":0", &format!("\"at\":{last}"))).unwrap() {
        if events.iter().all(|e| e.kind() != extra.kind()) {
            events.push(extra);
        }
    }
    let missing: Vec<_> =
        EventKind::ALL.iter().filter(|k| events.iter().all(|e| e.kind() != **k)).collect();
    assert!(missing.is_empty(), "no event of kinds {missing:?}");
    events
});

/// Compiles `src`, which must give a spec or an error at a 1-based position
/// inside it (one line past the last for an error at the end of the spec).
/// A spec that compiles must evaluate [`EVENTS`] without panicking.
fn compiles_or_errs_in_place(src: &str) -> Result<(), TestCaseError> {
    match Spec::compile(src) {
        Ok(spec) => {
            let mut monitor = spec.monitor();
            for event in EVENTS.iter() {
                monitor.record(event);
            }
        }
        Err(e) => {
            let lines = src.split('\n').count() as u32;
            prop_assert!(e.line() >= 1 && e.line() <= lines && e.col() >= 1, "{e} in {src:?}");
        }
    }
    Ok(())
}

#[test]
fn arithmetic_edge_cases_give_zero_or_wrap() {
    // `/` and `%` by zero give 0; `i64::MIN / -1`, `i64::MIN % -1` and an
    // overflowing `+` or `*` wrap, as `ast.rs` documents.
    let spec = Spec::compile(
        "input r := refresh\n\
         trigger warn \"arith\" on r when true message \"{rank / 0} {rank % 0} \
         {(-9223372036854775807 - 1) / -1} {(-9223372036854775807 - 1) % -1} \
         {9223372036854775807 + 1} {9223372036854775807 * 2} {-7 / 2} {-7 % 2}\"\n",
    )
    .expect("the arithmetic spec compiles");
    let mut monitor = spec.monitor();
    for event in EVENTS.iter() {
        monitor.record(event);
    }
    let messages: Vec<&str> = monitor.alarms().iter().map(|a| a.message.as_str()).collect();
    // The stream carries one refresh.
    assert_eq!(messages, ["0 0 -9223372036854775808 0 -9223372036854775808 -2 -3 -1"]);
}

/// The bytes spec text is made of.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_0123456789 \n\t:=[](){},\"#!&|<>+-*/%.";

/// Tokens of the spec language and names it resolves, separated by single
/// spaces (one token is a line break).
const TOKENS: &str = "input map counter hold window trigger warn error := when on over in \
    init add sub reset remove message count sum max enqueued marked completed batch_formed \
    command_issued bus_sample x y thread bank row request at cap true false 0 1 7 \
    99999999999999999999 - + * / % == != < > <= >= && || ! ( ) [ ] , \"t\" \"{thread}\" \"{\" \n #";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_text_compiles_or_errs_in_place(
        picks in proptest::collection::vec(any::<u8>(), 0..160),
        raw in any::<bool>(),
    ) {
        let bytes: Vec<u8> = if raw {
            picks
        } else {
            picks.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect()
        };
        compiles_or_errs_in_place(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn random_token_sequences_compile_or_err_in_place(
        picks in proptest::collection::vec(any::<u16>(), 0..60),
    ) {
        let tokens: Vec<&str> = TOKENS.split(' ').collect();
        let src: Vec<&str> = picks.iter().map(|&i| tokens[usize::from(i) % tokens.len()]).collect();
        compiles_or_errs_in_place(&src.join(" "))?;
    }

    #[test]
    fn mutated_preludes_compile_or_err_in_place(
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        for src in [prelude::INVARIANTS, prelude::QOS] {
            let mut bytes = src.as_bytes().to_vec();
            let i = at % bytes.len();
            bytes[i] ^= xor;
            compiles_or_errs_in_place(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
