//! The field catalog: the names a spec may read on each event kind, each
//! with its type and its projection to `i64`, so name resolution, type
//! checking and evaluation all read the same entry. The kinds and their
//! integer and boolean payload fields, under their Rust names, come from
//! the `events!` table of `parbs_obs` through `EventKind::field`: the one
//! declaration the JSONL writer and reader also come from. Replayed events
//! reach the same projections as live ones: the reader resolves a
//! record's `type` through that table and rejects a record that repeats a
//! key, so no projection reads a field whose value the record left
//! ambiguous.
//!
//! This module adds the *derived* fields, which fold payloads a spec
//! cannot read directly (options, the command and service enums, lists)
//! into integers and bools, and compute spans and latencies;
//! `rank_permutation` / `rank_sorted` fold the `RankComputed` entry list
//! into the two Rule 3 checks of the invariant prelude.

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
    /// The field's expression type.
    pub ty: Ty,
    /// Projects an event of the field's kind to `i64` (booleans as 0/1,
    /// absent optional values as 0, integers clamped to `i64::MAX`).
    pub get: fn(&Event) -> i64,
}

/// Converts a payload value to the evaluator's `i64`, clamping integers
/// above `i64::MAX`.
fn int<T: TryInto<i64>>(v: T) -> i64 {
    v.try_into().unwrap_or(i64::MAX)
}

/// Builds the derived fields from one `Variant "name": Ty = |payload
/// bindings| projection` line each, the projection matching
/// `Event::$variant`.
macro_rules! derived {
    ($($variant:ident $name:literal: $ty:ident = |$($bind:ident),+| $get:expr,)*) => {
        &[$((
            EventKind::$variant,
            $name,
            FieldDef {
                ty: Ty::$ty,
                get: |e| match e {
                    Event::$variant { $($bind,)+ .. } => $get,
                    _ => 0,
                },
            },
        ),)*]
    };
}

/// The derived fields, each with its kind and name.
const DERIVED: &[(EventKind, &str, FieldDef)] = derived! {
    BatchFormed "cap": Int = |cap| cap.map_or(0, int),
    BatchFormed "has_cap": Bool = |cap| int(cap.is_some()),
    BatchFormed "threads": Int = |per_thread| int(per_thread.len()),
    BatchDrained "span": Int = |at, formed_at| int(at.saturating_sub(*formed_at)),
    RankComputed "threads": Int = |entries| int(entries.len()),
    RankComputed "rank_permutation": Bool = |entries| int(rank_permutation(entries)),
    RankComputed "rank_sorted": Bool = |entries| int(rank_sorted(entries)),
    CommandIssued "rd": Bool = |kind| int(*kind == CmdKind::Read),
    CommandIssued "wr": Bool = |kind| int(*kind == CmdKind::Write),
    CommandIssued "act": Bool = |kind| int(*kind == CmdKind::Activate),
    CommandIssued "pre": Bool = |kind| int(*kind == CmdKind::Precharge),
    CommandIssued "hit": Bool = |service| int(*service == Some(ServiceClass::Hit)),
    CommandIssued "closed": Bool = |service| int(*service == Some(ServiceClass::Closed)),
    CommandIssued "conflict": Bool = |service| int(*service == Some(ServiceClass::Conflict)),
    CommandIssued "has_service": Bool = |service| int(service.is_some()),
    CommandIssued "has_data_end": Bool = |data_end| int(data_end.is_some()),
    CommandIssued "data_end": Int = |data_end| data_end.map_or(0, int),
    Completed "latency": Int = |arrival, finish| int(finish.saturating_sub(*arrival)),
    QuantumRolled "threads": Int = |ranking| int(ranking.len()),
};

/// Looks up `name` among the fields of `kind`: its integer and boolean
/// payload fields, then its derived fields.
#[must_use]
pub(crate) fn lookup(kind: EventKind, name: &str) -> Option<FieldDef> {
    if let Some(field) = kind.field(name) {
        let ty = if field.boolean { Ty::Bool } else { Ty::Int };
        return Some(FieldDef { ty, get: field.get });
    }
    DERIVED.iter().find(|&&(k, n, _)| k == kind && n == name).map(|&(.., field)| field)
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
            assert_eq!(lookup(kind, "at").map(|f| f.ty), Some(Ty::Int));
            let derived: Vec<&str> = DERIVED.iter().filter(|d| d.0 == kind).map(|d| d.1).collect();
            for (i, name) in derived.iter().enumerate() {
                assert!(
                    kind.field(name).is_none() && !derived[i + 1..].contains(name),
                    "duplicate field {} on {}",
                    name,
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
        let thread = |e: &Event| lookup(e.kind(), "thread").map(|f| (f.get)(e));
        assert_eq!(thread(&done), Some(2));
        assert_eq!(thread(&drained), None);
    }
}
