//! `parbs-analyze` flag handling: an unknown flag, a flag the subcommand
//! does not read, a value flag with no value and a malformed or
//! out-of-range value exit 2 naming the flag. They used to be dropped, so a
//! typo ran the default (weaker) check and exited 0.

use std::process::Command;

fn run_expecting_usage_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_parbs-analyze"))
        .args(args)
        .output()
        .expect("parbs-analyze runs");
    assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "stderr for {args:?} must name the problem ({needle:?}), got: {stderr}"
    );
}

#[test]
fn a_misspelled_flag_is_a_hard_error() {
    run_expecting_usage_error(
        &["check-liveness", "--scheduler", "PAR-BS", "--dept", "8"],
        "unknown flag --dept",
    );
    run_expecting_usage_error(&["check-keys", "--bogus", "3"], "unknown flag --bogus");
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_a_hard_error() {
    run_expecting_usage_error(&["check-keys", "--depth", "3"], "--depth");
    run_expecting_usage_error(&["check-spec", "prelude:qos", "--witness"], "--witness");
}

#[test]
fn a_malformed_value_is_a_hard_error() {
    run_expecting_usage_error(&["check-timing", "--depth", "6x"], "invalid value '6x' for --depth");
    run_expecting_usage_error(
        &["check-liveness", "--rows", "300"],
        "invalid value '300' for --rows",
    );
}

#[test]
fn a_value_flag_without_a_value_is_a_hard_error() {
    run_expecting_usage_error(&["check-timing", "--depth"], "--depth requires a value");
    run_expecting_usage_error(
        &["check-liveness", "--scheduler", "--witness"],
        "--scheduler requires a value",
    );
}

#[test]
fn a_stray_argument_is_a_hard_error() {
    run_expecting_usage_error(&["check-timing", "6"], "unexpected argument '6'");
}

#[test]
fn valid_flags_still_parse() {
    let out = Command::new(env!("CARGO_BIN_EXE_parbs-analyze"))
        .args(["check-spec", "prelude:invariants"])
        .output()
        .expect("parbs-analyze runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("check-spec: prelude:invariants"));
}
