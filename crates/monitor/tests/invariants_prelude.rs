//! The invariant prelude in isolation: hand-built event sequences, each
//! pinning which trigger fires and on which thread. Every batching rule
//! gets a firing case and a passing case, without a simulator in the loop.

use parbs_monitor::{prelude, Monitor};
use parbs_obs::{CmdKind, Event, EventSink, RankEntry};

fn enq(request: u64, thread: usize, bank: usize, row: u64) -> Event {
    Event::Enqueued { at: 0, request, thread, write: false, rank: 0, bank, row }
}

fn mark(request: u64, thread: usize, bank: usize) -> Event {
    Event::Marked { at: 1, request, thread, rank: 0, bank }
}

fn formed(id: u64, cap: Option<u32>, exclusive: bool) -> Event {
    Event::BatchFormed { at: 1, id, marked: 0, cap, exclusive, per_thread: vec![] }
}

fn read_cmd(request: u64, thread: usize, bank: usize, row: u64, marked: bool) -> Event {
    Event::CommandIssued {
        at: 2,
        request,
        thread,
        kind: CmdKind::Read,
        rank: 0,
        bank,
        row,
        col: 0,
        marked,
        service: None,
        data_end: Some(50),
    }
}

fn done(request: u64) -> Event {
    Event::Completed { at: 3, request, thread: 0, write: false, arrival: 0, finish: 60 }
}

fn ranked(max_total: bool, entries: Vec<RankEntry>) -> Event {
    Event::RankComputed { at: 9, batch: 1, max_total, entries }
}

fn entry(thread: usize, rank: u32, max_bank_load: u32, total_load: u32) -> RankEntry {
    RankEntry { thread, rank, max_bank_load, total_load }
}

fn feed(events: &[Event]) -> Monitor {
    let mut mon = prelude::invariants().monitor();
    for e in events {
        mon.record(e);
    }
    mon
}

/// The `(trigger name, thread)` pair of every alarm, in firing order.
fn fired(mon: &Monitor) -> Vec<(&str, Option<usize>)> {
    mon.alarms().iter().map(|a| (a.name.as_str(), a.thread)).collect()
}

#[test]
fn clean_batched_stream_passes() {
    let mon = feed(&[
        enq(1, 0, 0, 5),
        enq(2, 1, 0, 5),
        formed(1, Some(5), true),
        mark(1, 0, 0),
        mark(2, 1, 0),
        read_cmd(1, 0, 0, 5, true),
        done(1),
        read_cmd(2, 1, 0, 5, true),
        done(2),
        formed(2, Some(5), true),
    ]);
    assert!(mon.ok(), "{:?}", mon.alarms());
    assert_eq!(fired(&mon), []);
    assert_eq!(mon.events, 10);
    assert!(mon.summary().contains("0 alarms"), "{}", mon.summary());
}

#[test]
fn unmarked_read_over_schedulable_marked_one_fires() {
    let mon = feed(&[
        enq(1, 0, 0, 5),
        enq(2, 1, 0, 5),
        mark(1, 0, 0),
        // Request 2 (unmarked) reads bank 0 row 5 while marked request 1
        // to the same bank+row is still queued.
        read_cmd(2, 1, 0, 5, false),
    ]);
    assert_eq!(fired(&mon), [("marked-first", Some(1))], "carries the serviced thread");
    assert_eq!(mon.alarms()[0].at, 2);
    assert!(mon.alarms()[0].message.contains("req 2"), "{}", mon.alarms()[0]);
}

#[test]
fn unmarked_read_to_a_different_row_is_fine() {
    let mon = feed(&[
        enq(1, 0, 0, 5),
        mark(1, 0, 0),
        // Different row: the marked request was NOT schedulable there
        // (its row is closed by serving row 7), so no violation.
        enq(2, 1, 0, 7),
        read_cmd(2, 1, 0, 7, false),
    ]);
    assert_eq!(fired(&mon), []);
}

#[test]
fn marking_cap_overrun_fires() {
    let mon = feed(&[
        enq(1, 0, 3, 1),
        enq(2, 0, 3, 2),
        enq(3, 0, 3, 3),
        formed(1, Some(2), true),
        mark(1, 0, 3),
        mark(2, 0, 3),
        mark(3, 0, 3),
    ]);
    assert_eq!(fired(&mon), [("marking-cap", Some(0))]);
}

#[test]
fn uncapped_batches_never_trip_the_cap_check() {
    let events: Vec<Event> =
        std::iter::once(formed(1, None, true)).chain((0..40).map(|i| mark(i, 0, 0))).collect();
    assert_eq!(fired(&feed(&events)), []);
}

#[test]
fn premature_exclusive_batch_fires() {
    let mon = feed(&[
        enq(1, 0, 0, 5),
        formed(1, Some(5), true),
        mark(1, 0, 0),
        // Request 1 never completed, yet batch 2 claims to form.
        formed(2, Some(5), true),
    ]);
    assert_eq!(fired(&mon), [("batch-exclusive", None)], "a batch-level rule names no thread");
}

#[test]
fn static_batches_may_renew_without_drain() {
    let mon = feed(&[
        enq(1, 0, 0, 5),
        formed(1, Some(5), false),
        mark(1, 0, 0),
        formed(2, Some(5), false),
    ]);
    assert_eq!(fired(&mon), [], "static (non-exclusive) batches are exempt");
}

#[test]
fn bad_max_total_order_fires() {
    let mon = feed(&[ranked(true, vec![entry(0, 0, 4, 4), entry(1, 1, 1, 1)])]);
    assert_eq!(fired(&mon), [("rank-order", None)]);

    let ok = feed(&[ranked(true, vec![entry(1, 0, 1, 1), entry(0, 1, 4, 4)])]);
    assert_eq!(fired(&ok), []);
}

#[test]
fn non_permutation_ranking_fires() {
    let mon = feed(&[ranked(false, vec![entry(0, 0, 1, 1), entry(1, 0, 1, 1)])]);
    assert_eq!(fired(&mon), [("rank-order", None)]);
}

#[test]
fn unrelated_events_leave_the_verdict_alone() {
    let mut events: Vec<Event> = (0..200).map(|at| Event::Refresh { at, rank: 0 }).collect();
    events.push(ranked(false, vec![entry(0, 5, 0, 0)]));
    let mon = feed(&events);
    assert_eq!(fired(&mon), [("rank-order", None)]);
    assert_eq!(mon.events, 201);
    assert!(mon.alarms()[0].to_string().contains("rank-order"), "{}", mon.alarms()[0]);
}
