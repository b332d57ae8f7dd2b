//! Golden tests for spec compile errors: each malformed spec is pinned to
//! the *exact* rendered diagnostic (`line:col: message`), so error position,
//! offending stream name, and expected type stay stable for tooling that
//! parses them (editors, `parbs-sim check-spec`, CI logs).

use parbs_monitor::Spec;

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
