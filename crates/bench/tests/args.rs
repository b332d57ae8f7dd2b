//! The gate benchmarks read `--quick` or nothing: any other argument must
//! exit 2 naming it instead of silently running the full-size measurement.

use std::process::Command;

#[test]
fn a_misspelled_quick_flag_is_a_hard_error() {
    for bin in [
        env!("CARGO_BIN_EXE_sched_hotpath"),
        env!("CARGO_BIN_EXE_many_threads"),
        env!("CARGO_BIN_EXE_parallel_sweep"),
    ] {
        let out = Command::new(bin).arg("--quik").output().expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{bin} --quik must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--quik"), "{bin}: stderr must name the argument, got: {stderr}");
    }
}
