//! Property test: every [`Event`] variant serializes to JSONL and parses
//! back **losslessly** — `Event::from_json(&e.to_json()) == e` for arbitrary
//! field values. Offline replay (`parbs-sim monitor --replay`) relies on
//! this: a silently dropped or zeroed field would skew monitor verdicts
//! without any error. A damaged record must never panic the reader or be
//! misread: it either fails, at its own line, or parses to an event that
//! itself round-trips.

use parbs_obs::{CmdKind, Event, RankEntry, ServiceClass};
use proptest::prelude::*;

/// Draws one arbitrary event covering all 13 variants; `pick` selects the
/// variant, the remaining integers seed the fields (split by simple
/// mixing so every field varies independently of the others).
#[allow(clippy::too_many_lines)]
fn build_event(pick: u8, a: u64, b: u64, c: u64, d: u64, flags: u8, len: usize) -> Event {
    let thread = (b % 70_000) as usize;
    let rank = (c % 4) as usize;
    let bank = (c / 4 % 16) as usize;
    let write = flags & 1 != 0;
    match pick % 13 {
        0 => Event::Enqueued { at: a, request: b, thread, write, rank, bank, row: d },
        1 => Event::Marked { at: a, request: b, thread, rank, bank },
        2 => Event::BatchFormed {
            at: a,
            id: b,
            marked: (c % u64::from(u32::MAX)) as u32,
            cap: if flags & 2 != 0 { Some((d % 64) as u32) } else { None },
            exclusive: flags & 4 != 0,
            per_thread: (0..len).map(|i| (i * 7 + thread, (d % 9) as u32 + i as u32)).collect(),
        },
        3 => Event::BatchDrained { at: a, id: b, formed_at: d },
        4 => Event::RankComputed {
            at: a,
            batch: b,
            max_total: flags & 2 != 0,
            entries: (0..len)
                .map(|i| RankEntry {
                    thread: thread + i,
                    rank: i as u32,
                    max_bank_load: (c % 1000) as u32 + i as u32,
                    total_load: (d % 1000) as u32 + i as u32,
                })
                .collect(),
        },
        5 => Event::CommandIssued {
            at: a,
            request: b,
            thread,
            kind: match flags >> 1 & 3 {
                0 => CmdKind::Activate,
                1 => CmdKind::Read,
                2 => CmdKind::Write,
                _ => CmdKind::Precharge,
            },
            rank,
            bank,
            row: d,
            col: c,
            marked: flags & 1 != 0,
            service: match flags >> 3 & 3 {
                0 => None,
                1 => Some(ServiceClass::Hit),
                2 => Some(ServiceClass::Closed),
                _ => Some(ServiceClass::Conflict),
            },
            data_end: if flags & 32 != 0 { Some(d.wrapping_add(40)) } else { None },
        },
        6 => Event::Completed { at: a, request: b, thread, write, arrival: c, finish: d },
        7 => Event::WriteDrain { at: a, start: flags & 2 != 0, queued: (c % 256) as u32 },
        8 => Event::Refresh { at: a, rank },
        9 => Event::BusSample {
            at: a,
            busy_banks: (b % 64) as u32,
            queued_reads: (c % 512) as u32,
            queued_writes: (d % 512) as u32,
        },
        10 => Event::BlacklistSet { at: a, thread, consecutive: (c % 64) as u32 },
        11 => Event::BlacklistCleared { at: a, cleared: (c % 64) as u32 },
        _ => Event::QuantumRolled {
            at: a,
            quantum: b,
            ranking: (0..len).map(|i| (thread + i, i as u32, d.wrapping_add(i as u64))).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    #[test]
    fn every_event_round_trips_losslessly(
        pick in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        flags in any::<u8>(),
        len in 0usize..5,
    ) {
        let event = build_event(pick, a, b, c, d, flags, len);
        let json = event.to_json();
        prop_assert!(!json.contains('\n'), "JSONL records are single-line: {json}");
        let parsed = Event::from_json(&json);
        prop_assert_eq!(parsed, Ok(event), "payload: {}", json);
    }

    #[test]
    fn jsonl_documents_round_trip_line_by_line(
        seed in any::<u64>(),
        count in 1usize..20,
    ) {
        use parbs_obs::{parse_jsonl, EventSink, JsonlSink};
        let events: Vec<Event> = (0..count)
            .map(|i| {
                let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                build_event((x % 13) as u8, x, x >> 7, x >> 13, x >> 23, (x >> 31) as u8,
                            (x % 4) as usize)
            })
            .collect();
        let mut sink = JsonlSink::to_vec();
        for e in &events {
            sink.record(e);
        }
        let text = sink.into_string();
        let parsed = match parse_jsonl(&text) {
            Ok(p) => p,
            Err((line, e)) => return Err(TestCaseError::Fail(format!("line {line}: {e}"))),
        };
        prop_assert_eq!(parsed, events);
    }

    #[test]
    fn mutated_records_fail_or_round_trip(
        pick in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        flags in any::<u8>(),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), 0x20u8..0x7f), 1..4),
    ) {
        use parbs_obs::parse_jsonl;
        let event = build_event(pick, a, b, c, d, flags, (a % 4) as usize);
        let mut bytes = event.to_json().into_bytes();
        for (op, at, byte) in edits {
            mutate(&mut bytes, op, at, byte);
        }
        let line = String::from_utf8(bytes).expect("edits keep the record ASCII");
        let neighbor = Event::Refresh { at: 0, rank: 0 };
        let doc = format!("{}\n{line}\n{}\n", neighbor.to_json(), neighbor.to_json());
        match Event::from_json(&line) {
            Ok(parsed) => {
                prop_assert_eq!(Event::from_json(&parsed.to_json()), Ok(parsed.clone()));
                prop_assert_eq!(parse_jsonl(&doc), Ok(vec![neighbor.clone(), parsed, neighbor]));
            }
            // A line left blank is skipped by the document reader.
            Err(_) if line.trim().is_empty() => {
                prop_assert_eq!(parse_jsonl(&doc), Ok(vec![neighbor.clone(), neighbor]));
            }
            Err(e) => prop_assert_eq!(parse_jsonl(&doc), Err((2, e))),
        }
    }

    /// The keys the reader requires: without any one top-level key a
    /// record fails naming that key, except for the derived `latency`,
    /// which the reader ignores, and `class` and `data_end`, whose absence
    /// reads as `None`. `cap` is required even when it is `null`.
    #[test]
    fn a_record_without_one_key_fails_naming_it_unless_the_key_is_optional(
        pick in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        flags in any::<u8>(),
        len in 0usize..5,
        which in any::<usize>(),
    ) {
        let event = build_event(pick, a, b, c, d, flags, len);
        let json = event.to_json();
        let mut kept = members(&json);
        let gone = kept.remove(which % kept.len());
        let key = gone.split('"').nth(1).expect("a member starts with its quoted key");
        let parsed = Event::from_json(&format!("{{{}}}", kept.join(",")));
        let mut want = event;
        match (&mut want, key) {
            (_, "latency") => {}
            (Event::CommandIssued { service, .. }, "class") => *service = None,
            (Event::CommandIssued { data_end, .. }, "data_end") => *data_end = None,
            _ => {
                let e = match parsed {
                    Ok(p) => return Err(TestCaseError::Fail(format!("without '{key}': {p:?}"))),
                    Err(e) => e,
                };
                prop_assert!(e.message.contains(&format!("'{key}'")), "without '{}': {}", key, e);
                return Ok(());
            }
        }
        prop_assert_eq!(parsed, Ok(want), "without '{}'", key);
    }
}

/// The top-level `"key":value` members of a record, in order. Event
/// strings hold no brackets or commas, so depth counting finds them.
fn members(record: &str) -> Vec<&str> {
    let inner = &record[1..record.len() - 1];
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, b) in inner.bytes().enumerate() {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

/// Applies one edit to a record: `op` 0 replaces, 1 inserts before, 2
/// deletes and 3 truncates at the position `at` picks; `byte` is the
/// printable ASCII byte replaced or inserted.
fn mutate(bytes: &mut Vec<u8>, op: u8, at: u64, byte: u8) {
    let pos = (at % (bytes.len() as u64 + 1)) as usize;
    match op {
        0 if pos < bytes.len() => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        2 if pos < bytes.len() => {
            bytes.remove(pos);
        }
        3 => bytes.truncate(pos),
        _ => {}
    }
}
