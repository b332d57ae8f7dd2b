//! Built-in specs shipped with the crate.
//!
//! [`INVARIANTS`] expresses the four PAR-BS batching invariants in the
//! spec language; it is the checker behind `parbs-sim --check-invariants`.
//! The workspace test `tests/invariants_prelude.rs` feeds it hand-built
//! event sequences, and `tests/monitor_identity.rs` holds its online and
//! JSONL replay verdicts equal across the scheduler zoo and against
//! recorded `(rule, cycle, thread)` triples of a broken scheduler. [`QOS`] goes
//! beyond the batching rules: windowed attained-service share, BLISS
//! blacklist staleness, and flow backlog high-water alerts.

use crate::Spec;

/// The four PAR-BS batching invariants as a monitor spec.
///
/// One error trigger per rule: `marked-first`, `marking-cap`,
/// `batch-exclusive`, `rank-order`.
pub const INVARIANTS: &str = r#"
# PAR-BS batching invariants (Mutlu & Moscibroda, ISCA 2008), expressed
# as streams.

input enq    := enqueued when !write
input mark   := marked
input done   := completed
input formed := batch_formed
input rdcmd  := command_issued when rd && !marked
input ranked := rank_computed

# Per-request geometry, live between enqueue and completion. Only
# non-write reads are tracked: only a read can block another read.
map in_flight[request] := 1 on enq, remove on done
map bank_of[request]   := bank on enq, remove on done
map row_of[request]    := row on enq, remove on done

# Outstanding marked reads, total and per (bank, row). The add amount is
# gated so writes, untracked ids and re-marks all contribute zero; these
# counters read was_marked *before* it is set below (declaration order).
counter marked_out := add in_flight[request] * (1 - was_marked[request]) on mark, sub was_marked[request] on done
counter marked_queued[bank_of[request], row_of[request]] := add in_flight[request] * (1 - was_marked[request]) on mark, sub was_marked[request] on done
map was_marked[request] := in_flight[request] on mark, remove on done

# Marking-Cap accounting for the current batch. The marks table clears on
# every batch formation.
hold cap     := cap on formed init 0
hold has_cap := has_cap on formed
counter marks[thread, bank] := add 1 on mark, reset on formed

# Rule 2 (batched-first): no unmarked read may be serviced while a marked
# read to the same (bank, row) is queued. Subtracting was_marked[request]
# excludes the serviced request itself.
trigger error "marked-first" on rdcmd when marked_queued[bank, row] > was_marked[request] message "unmarked read req {request} (thread {thread}) serviced at bank {bank} row {row} while {marked_queued[bank, row]} marked read(s) to the same bank+row were queued"

# Rule 1 (Marking-Cap): at most cap marks per (thread, bank) per batch.
# The counter arm above runs first, so the trigger sees the post-increment
# value: increment, then check.
trigger error "marking-cap" on mark when has_cap && marks[thread, bank] > cap message "thread {thread} has {marks[thread, bank]} marked requests at bank {bank}, exceeding Marking-Cap {cap}"

# Rule 1 (exclusivity): no new exclusive batch before the previous drained.
trigger error "batch-exclusive" on formed when exclusive && marked_out > 0 message "batch {id} formed while {marked_out} marked request(s) of the previous batch were still outstanding"

# Rule 3 (Max-Total): the ranking must be a permutation of 0..n and, when
# the Max-Total scheme is claimed, in shortest-job-first order.
trigger error "rank-order" on ranked when !rank_permutation || (max_total && !rank_sorted) message "batch {batch} ranking of {threads} thread(s) violates Max-Total order (permutation={rank_permutation}, sorted={rank_sorted})"
"#;

/// QoS alerts beyond the batching invariants.
pub const QOS: &str = r#"
# Quality-of-service alerts: fairness and backlog signals the batching
# invariants do not cover.

input svc_cmd  := command_issued when rd || wr
input bl_set   := blacklist_set
input bl_clear := blacklist_cleared
input bus      := bus_sample

# A thread holding more than 3/4 of all column commands in the last 10k
# cycles is starving the others (only meaningful once the bus is busy).
window svc[thread] := count over svc_cmd in 10000
window svc_all     := count over svc_cmd in 10000
trigger warn "attained-share" on svc_cmd when svc_all > 200 && svc[thread] * 4 > svc_all * 3 message "thread {thread} holds {svc[thread]}/{svc_all} of data-bus service in the last 10k cycles"

# BLISS clears its blacklist every Clearing Interval; a set long after the
# last clear means the interval is not being honored.
hold last_clear := at on bl_clear init 0
trigger warn "blacklist-stale" on bl_set when at - last_clear > 20000 message "thread {thread} blacklisted {at - last_clear} cycles after the last blacklist clear"

# Open-loop flow backlog high-water mark.
trigger warn "backlog-high" on bus when queued_reads + queued_writes > 96 message "flow backlog high-water: {queued_reads} reads + {queued_writes} writes queued"
"#;

/// Names accepted by [`by_name`] (and `--spec prelude:<name>` in the CLI).
pub const NAMES: [&str; 2] = ["invariants", "qos"];

/// The compiled invariant prelude.
///
/// # Panics
///
/// Never — the prelude source is compiled in this crate's tests.
#[must_use]
pub fn invariants() -> Spec {
    Spec::compile(INVARIANTS).expect("the invariant prelude compiles")
}

/// The compiled QoS prelude.
///
/// # Panics
///
/// Never — the prelude source is compiled in this crate's tests.
#[must_use]
pub fn qos() -> Spec {
    Spec::compile(QOS).expect("the QoS prelude compiles")
}

/// Looks up a prelude spec by name (`invariants` or `qos`).
#[must_use]
pub fn by_name(name: &str) -> Option<Spec> {
    match name {
        "invariants" => Some(invariants()),
        "qos" => Some(qos()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Severity;

    #[test]
    fn preludes_compile_clean() {
        for name in NAMES {
            let spec = by_name(name).unwrap();
            assert!(
                spec.lints().is_empty(),
                "prelude '{name}' should lint clean: {:?}",
                spec.lints()
            );
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn invariant_triggers_are_the_four_batching_rules() {
        let spec = invariants();
        let names: Vec<(String, Severity)> = spec.triggers();
        let expect = ["marked-first", "marking-cap", "batch-exclusive", "rank-order"];
        assert_eq!(names.len(), expect.len());
        for ((name, severity), want) in names.iter().zip(expect) {
            assert_eq!(name, want);
            assert_eq!(*severity, Severity::Error);
        }
    }
}
