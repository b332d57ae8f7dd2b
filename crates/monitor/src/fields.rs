//! The field catalog: the one list of names a spec may read on each event
//! kind. Each entry carries the field's name, its type and its projection
//! to `i64`, so name resolution, type checking, evaluation and an alarm's
//! thread (the kind's `thread` entry) all read the same entry. Kinds come
//! from `parbs_obs::EventKind`, the one list of kinds shared with the
//! JSONL writer and reader. Replayed events reach the same entries as live
//! ones: the reader resolves a record's `type` through that list and
//! rejects a record that repeats a key, so no entry reads a field whose
//! value the record left ambiguous.
//!
//! Most fields are verbatim event payload; a few are *derived* so specs can
//! express checks that need structured payloads (`rank_permutation` /
//! `rank_sorted` fold the `RankComputed` entry list into the two Rule 3
//! checks of the invariant prelude).

use parbs_obs::{CmdKind, Event, EventKind, RankEntry, ServiceClass};

/// Expression types in the spec language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// Boolean (stored as 0/1 at runtime).
    Bool,
}

impl Ty {
    /// Lower-case name for error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Ty::Int => "Int",
            Ty::Bool => "Bool",
        }
    }
}

/// One spec-readable field of an event kind.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldDef {
    /// The name a spec reads the field by.
    pub name: &'static str,
    /// The field's expression type.
    pub ty: Ty,
    /// Projects an event of the entry's kind to `i64` (booleans as 0/1,
    /// absent optional values as 0, integers clamped to `i64::MAX`).
    pub get: fn(&Event) -> i64,
}

/// Converts a payload value to the evaluator's `i64`, clamping integers
/// above `i64::MAX`.
fn int<T: TryInto<i64>>(v: T) -> i64 {
    v.try_into().unwrap_or(i64::MAX)
}

/// Builds one kind's catalog: the shared `at` entry, then one entry per
/// `name: Ty = |payload bindings| projection` line, each projection
/// matching `Event::$variant`.
macro_rules! fields {
    ($variant:ident { $($name:literal : $ty:ident = |$($bind:ident),+| $get:expr),* $(,)? }) => {
        &[
            FieldDef { name: "at", ty: Ty::Int, get: |e| int(e.at()) },
            $(FieldDef {
                name: $name,
                ty: Ty::$ty,
                get: |e| match e {
                    Event::$variant { $($bind,)+ .. } => $get,
                    _ => 0,
                },
            },)*
        ]
    };
}

/// The readable fields of `kind`, `at` first.
#[must_use]
pub(crate) fn catalog(kind: EventKind) -> &'static [FieldDef] {
    match kind {
        EventKind::Enqueued => fields!(Enqueued {
            "request": Int = |request| int(*request),
            "thread": Int = |thread| int(*thread),
            "write": Bool = |write| int(*write),
            "rank": Int = |rank| int(*rank),
            "bank": Int = |bank| int(*bank),
            "row": Int = |row| int(*row),
        }),
        EventKind::Marked => fields!(Marked {
            "request": Int = |request| int(*request),
            "thread": Int = |thread| int(*thread),
            "rank": Int = |rank| int(*rank),
            "bank": Int = |bank| int(*bank),
        }),
        EventKind::BatchFormed => fields!(BatchFormed {
            "id": Int = |id| int(*id),
            "marked": Int = |marked| int(*marked),
            "cap": Int = |cap| cap.map_or(0, int),
            "has_cap": Bool = |cap| int(cap.is_some()),
            "exclusive": Bool = |exclusive| int(*exclusive),
            "threads": Int = |per_thread| int(per_thread.len()),
        }),
        EventKind::BatchDrained => fields!(BatchDrained {
            "id": Int = |id| int(*id),
            "formed_at": Int = |formed_at| int(*formed_at),
            "span": Int = |at, formed_at| int(at.saturating_sub(*formed_at)),
        }),
        EventKind::RankComputed => fields!(RankComputed {
            "batch": Int = |batch| int(*batch),
            "max_total": Bool = |max_total| int(*max_total),
            "threads": Int = |entries| int(entries.len()),
            "rank_permutation": Bool = |entries| int(rank_permutation(entries)),
            "rank_sorted": Bool = |entries| int(rank_sorted(entries)),
        }),
        EventKind::CommandIssued => fields!(CommandIssued {
            "request": Int = |request| int(*request),
            "thread": Int = |thread| int(*thread),
            "rank": Int = |rank| int(*rank),
            "bank": Int = |bank| int(*bank),
            "row": Int = |row| int(*row),
            "col": Int = |col| int(*col),
            "marked": Bool = |marked| int(*marked),
            "rd": Bool = |kind| int(*kind == CmdKind::Read),
            "wr": Bool = |kind| int(*kind == CmdKind::Write),
            "act": Bool = |kind| int(*kind == CmdKind::Activate),
            "pre": Bool = |kind| int(*kind == CmdKind::Precharge),
            "hit": Bool = |service| int(*service == Some(ServiceClass::Hit)),
            "closed": Bool = |service| int(*service == Some(ServiceClass::Closed)),
            "conflict": Bool = |service| int(*service == Some(ServiceClass::Conflict)),
            "has_service": Bool = |service| int(service.is_some()),
            "has_data_end": Bool = |data_end| int(data_end.is_some()),
            "data_end": Int = |data_end| data_end.map_or(0, int),
        }),
        EventKind::Completed => fields!(Completed {
            "request": Int = |request| int(*request),
            "thread": Int = |thread| int(*thread),
            "write": Bool = |write| int(*write),
            "arrival": Int = |arrival| int(*arrival),
            "finish": Int = |finish| int(*finish),
            "latency": Int = |arrival, finish| int(finish.saturating_sub(*arrival)),
        }),
        EventKind::WriteDrain => fields!(WriteDrain {
            "start": Bool = |start| int(*start),
            "queued": Int = |queued| int(*queued),
        }),
        EventKind::Refresh => fields!(Refresh { "rank": Int = |rank| int(*rank) }),
        EventKind::BusSample => fields!(BusSample {
            "busy_banks": Int = |busy_banks| int(*busy_banks),
            "queued_reads": Int = |queued_reads| int(*queued_reads),
            "queued_writes": Int = |queued_writes| int(*queued_writes),
        }),
        EventKind::BlacklistSet => fields!(BlacklistSet {
            "thread": Int = |thread| int(*thread),
            "consecutive": Int = |consecutive| int(*consecutive),
        }),
        EventKind::BlacklistCleared => fields!(BlacklistCleared {
            "cleared": Int = |cleared| int(*cleared),
        }),
        EventKind::QuantumRolled => fields!(QuantumRolled {
            "quantum": Int = |quantum| int(*quantum),
            "threads": Int = |ranking| int(ranking.len()),
        }),
    }
}

/// Looks up `name` among the fields of `kind`.
#[must_use]
pub(crate) fn lookup(kind: EventKind, name: &str) -> Option<&'static FieldDef> {
    catalog(kind).iter().find(|f| f.name == name)
}

/// Derived `rank_permutation`: ranks are exactly `0..n`, each once.
fn rank_permutation(entries: &[RankEntry]) -> bool {
    let mut ranks: Vec<u32> = entries.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.iter().enumerate().all(|(i, &r)| u64::from(r) == i as u64)
}

/// Derived `rank_sorted`: walking the entries in rank order, the
/// `(max_bank_load, total_load)` pairs never decrease — the Max-Total
/// (shortest-job-first) order.
fn rank_sorted(entries: &[RankEntry]) -> bool {
    let mut by_rank: Vec<&RankEntry> = entries.iter().collect();
    by_rank.sort_by_key(|e| e.rank);
    by_rank.windows(2).all(|pair| {
        (pair[0].max_bank_load, pair[0].total_load) <= (pair[1].max_bank_load, pair[1].total_load)
    })
}

/// The thread an event concerns: its kind's `thread` field, when it has
/// one.
///
/// Alarms carry this so verdicts can be compared per thread, online
/// against offline replay and against recorded verdicts.
#[must_use]
pub(crate) fn thread_of(event: &Event) -> Option<usize> {
    let field = lookup(event.kind(), "thread")?;
    usize::try_from((field.get)(event)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(event: &Event, name: &str) -> i64 {
        let field = lookup(event.kind(), name).expect("field is in the catalog");
        (field.get)(event)
    }

    #[test]
    fn catalog_fields_are_unique_and_include_at() {
        for kind in EventKind::ALL {
            let cat = catalog(kind);
            assert_eq!(cat[0].name, "at");
            for (i, field) in cat.iter().enumerate() {
                assert!(
                    cat[i + 1..].iter().all(|f| f.name != field.name),
                    "duplicate field {} on {}",
                    field.name,
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn derived_rank_fields_match_invariant_semantics() {
        let entry = |thread, rank, max, total| RankEntry {
            thread,
            rank,
            max_bank_load: max,
            total_load: total,
        };
        let sorted = vec![entry(1, 0, 1, 1), entry(0, 1, 4, 4)];
        let unsorted = vec![entry(0, 0, 4, 4), entry(1, 1, 1, 1)];
        let dup = vec![entry(0, 0, 1, 1), entry(1, 0, 1, 1)];
        assert!(rank_permutation(&sorted) && rank_sorted(&sorted));
        assert!(rank_permutation(&unsorted) && !rank_sorted(&unsorted));
        assert!(!rank_permutation(&dup));
    }

    #[test]
    fn latency_and_span_are_derived() {
        let done =
            Event::Completed { at: 9, request: 1, thread: 2, write: false, arrival: 3, finish: 9 };
        assert_eq!(project(&done, "latency"), 6);
        let drained = Event::BatchDrained { at: 50, id: 1, formed_at: 20 };
        assert_eq!(project(&drained, "span"), 30);
        assert_eq!(thread_of(&done), Some(2));
        assert_eq!(thread_of(&drained), None);
    }
}
