//! The field catalog: which names a spec may read on each event kind, and
//! how they project to `i64` at evaluation time.
//!
//! Most fields are verbatim event payload; a few are *derived* so specs can
//! express checks that need structured payloads (`rank_permutation` /
//! `rank_sorted` fold the `RankComputed` entry list into the two Rule 3
//! checks of the invariant prelude).

use parbs_obs::{CmdKind, Event, ServiceClass};

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

/// The thirteen event kinds a spec may name after `input name :=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `enqueued`
    Enqueued,
    /// `marked`
    Marked,
    /// `batch_formed`
    BatchFormed,
    /// `batch_drained`
    BatchDrained,
    /// `rank_computed`
    RankComputed,
    /// `command_issued`
    CommandIssued,
    /// `completed`
    Completed,
    /// `write_drain`
    WriteDrain,
    /// `refresh`
    Refresh,
    /// `bus_sample`
    BusSample,
    /// `blacklist_set`
    BlacklistSet,
    /// `blacklist_cleared`
    BlacklistCleared,
    /// `quantum_rolled`
    QuantumRolled,
}

/// All kinds, in catalog order (used for "expected one of" error text).
pub const ALL_KINDS: [EventKind; 13] = [
    EventKind::Enqueued,
    EventKind::Marked,
    EventKind::BatchFormed,
    EventKind::BatchDrained,
    EventKind::RankComputed,
    EventKind::CommandIssued,
    EventKind::Completed,
    EventKind::WriteDrain,
    EventKind::Refresh,
    EventKind::BusSample,
    EventKind::BlacklistSet,
    EventKind::BlacklistCleared,
    EventKind::QuantumRolled,
];

impl EventKind {
    /// The spec-language name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueued => "enqueued",
            EventKind::Marked => "marked",
            EventKind::BatchFormed => "batch_formed",
            EventKind::BatchDrained => "batch_drained",
            EventKind::RankComputed => "rank_computed",
            EventKind::CommandIssued => "command_issued",
            EventKind::Completed => "completed",
            EventKind::WriteDrain => "write_drain",
            EventKind::Refresh => "refresh",
            EventKind::BusSample => "bus_sample",
            EventKind::BlacklistSet => "blacklist_set",
            EventKind::BlacklistCleared => "blacklist_cleared",
            EventKind::QuantumRolled => "quantum_rolled",
        }
    }

    /// Parses a spec-language kind name.
    #[must_use]
    pub fn parse(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// The kind of a concrete event.
    #[must_use]
    pub fn of(event: &Event) -> EventKind {
        match event {
            Event::Enqueued { .. } => EventKind::Enqueued,
            Event::Marked { .. } => EventKind::Marked,
            Event::BatchFormed { .. } => EventKind::BatchFormed,
            Event::BatchDrained { .. } => EventKind::BatchDrained,
            Event::RankComputed { .. } => EventKind::RankComputed,
            Event::CommandIssued { .. } => EventKind::CommandIssued,
            Event::Completed { .. } => EventKind::Completed,
            Event::WriteDrain { .. } => EventKind::WriteDrain,
            Event::Refresh { .. } => EventKind::Refresh,
            Event::BusSample { .. } => EventKind::BusSample,
            Event::BlacklistSet { .. } => EventKind::BlacklistSet,
            Event::BlacklistCleared { .. } => EventKind::BlacklistCleared,
            Event::QuantumRolled { .. } => EventKind::QuantumRolled,
        }
    }
}

/// A resolved field selector. One flat enum across all kinds; which
/// selectors are legal on which kind is governed by [`catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Cycle of the event (every kind).
    At,
    /// Request id.
    Request,
    /// Thread index.
    Thread,
    /// Write flag (`enqueued` / `completed`).
    Write,
    /// DRAM rank index.
    Rank,
    /// Bank index.
    Bank,
    /// Row address.
    Row,
    /// Column address (`command_issued`).
    Col,
    /// Marked flag on `command_issued`.
    MarkedFlag,
    /// Batch id (`batch_formed` / `batch_drained`).
    Id,
    /// Number of requests marked by a `batch_formed`.
    MarkedCount,
    /// Marking-Cap (0 when uncapped; see [`Field::HasCap`]).
    Cap,
    /// True when the batch announced a Marking-Cap.
    HasCap,
    /// Exclusive-batch flag.
    Exclusive,
    /// Number of threads listed in the payload.
    Threads,
    /// Formation cycle echoed by `batch_drained`.
    FormedAt,
    /// `at - formed_at` of a `batch_drained`.
    Span,
    /// Batch id of a `rank_computed`.
    Batch,
    /// Max-Total scheme flag.
    MaxTotal,
    /// Derived: the ranking's ranks are a permutation of `0..n`.
    RankPermutation,
    /// Derived: rank order is non-decreasing (max-bank-load, total-load).
    RankSorted,
    /// Command is a column read.
    Rd,
    /// Command is a column write.
    Wr,
    /// Command is an activate.
    Act,
    /// Command is a precharge.
    Pre,
    /// Service class is row-hit.
    Hit,
    /// Service class is row-closed.
    Closed,
    /// Service class is row-conflict.
    Conflict,
    /// A service class was recorded.
    HasService,
    /// A data-end cycle was recorded.
    HasDataEnd,
    /// Data-end cycle (0 when absent; see [`Field::HasDataEnd`]).
    DataEnd,
    /// Arrival cycle of a `completed`.
    Arrival,
    /// Finish cycle of a `completed`.
    Finish,
    /// `finish - arrival` of a `completed`.
    Latency,
    /// Write-drain start/stop flag.
    Start,
    /// Queued writes at a `write_drain` edge.
    Queued,
    /// Busy banks in a `bus_sample`.
    BusyBanks,
    /// Queued reads in a `bus_sample`.
    QueuedReads,
    /// Queued writes in a `bus_sample`.
    QueuedWrites,
    /// Consecutive-request count of a `blacklist_set`.
    Consecutive,
    /// Threads cleared by a `blacklist_cleared`.
    Cleared,
    /// Quantum index of a `quantum_rolled`.
    Quantum,
}

/// The readable fields of `kind`, as `(name, selector, type)` triples.
#[must_use]
pub fn catalog(kind: EventKind) -> &'static [(&'static str, Field, Ty)] {
    use Field as F;
    use Ty::{Bool, Int};
    match kind {
        EventKind::Enqueued => &[
            ("at", F::At, Int),
            ("request", F::Request, Int),
            ("thread", F::Thread, Int),
            ("write", F::Write, Bool),
            ("rank", F::Rank, Int),
            ("bank", F::Bank, Int),
            ("row", F::Row, Int),
        ],
        EventKind::Marked => &[
            ("at", F::At, Int),
            ("request", F::Request, Int),
            ("thread", F::Thread, Int),
            ("rank", F::Rank, Int),
            ("bank", F::Bank, Int),
        ],
        EventKind::BatchFormed => &[
            ("at", F::At, Int),
            ("id", F::Id, Int),
            ("marked", F::MarkedCount, Int),
            ("cap", F::Cap, Int),
            ("has_cap", F::HasCap, Bool),
            ("exclusive", F::Exclusive, Bool),
            ("threads", F::Threads, Int),
        ],
        EventKind::BatchDrained => &[
            ("at", F::At, Int),
            ("id", F::Id, Int),
            ("formed_at", F::FormedAt, Int),
            ("span", F::Span, Int),
        ],
        EventKind::RankComputed => &[
            ("at", F::At, Int),
            ("batch", F::Batch, Int),
            ("max_total", F::MaxTotal, Bool),
            ("threads", F::Threads, Int),
            ("rank_permutation", F::RankPermutation, Bool),
            ("rank_sorted", F::RankSorted, Bool),
        ],
        EventKind::CommandIssued => &[
            ("at", F::At, Int),
            ("request", F::Request, Int),
            ("thread", F::Thread, Int),
            ("rank", F::Rank, Int),
            ("bank", F::Bank, Int),
            ("row", F::Row, Int),
            ("col", F::Col, Int),
            ("marked", F::MarkedFlag, Bool),
            ("rd", F::Rd, Bool),
            ("wr", F::Wr, Bool),
            ("act", F::Act, Bool),
            ("pre", F::Pre, Bool),
            ("hit", F::Hit, Bool),
            ("closed", F::Closed, Bool),
            ("conflict", F::Conflict, Bool),
            ("has_service", F::HasService, Bool),
            ("has_data_end", F::HasDataEnd, Bool),
            ("data_end", F::DataEnd, Int),
        ],
        EventKind::Completed => &[
            ("at", F::At, Int),
            ("request", F::Request, Int),
            ("thread", F::Thread, Int),
            ("write", F::Write, Bool),
            ("arrival", F::Arrival, Int),
            ("finish", F::Finish, Int),
            ("latency", F::Latency, Int),
        ],
        EventKind::WriteDrain => {
            &[("at", F::At, Int), ("start", F::Start, Bool), ("queued", F::Queued, Int)]
        }
        EventKind::Refresh => &[("at", F::At, Int), ("rank", F::Rank, Int)],
        EventKind::BusSample => &[
            ("at", F::At, Int),
            ("busy_banks", F::BusyBanks, Int),
            ("queued_reads", F::QueuedReads, Int),
            ("queued_writes", F::QueuedWrites, Int),
        ],
        EventKind::BlacklistSet => {
            &[("at", F::At, Int), ("thread", F::Thread, Int), ("consecutive", F::Consecutive, Int)]
        }
        EventKind::BlacklistCleared => &[("at", F::At, Int), ("cleared", F::Cleared, Int)],
        EventKind::QuantumRolled => {
            &[("at", F::At, Int), ("quantum", F::Quantum, Int), ("threads", F::Threads, Int)]
        }
    }
}

/// Looks up `name` among the fields of `kind`.
#[must_use]
pub fn lookup(kind: EventKind, name: &str) -> Option<(Field, Ty)> {
    catalog(kind).iter().find(|(n, _, _)| *n == name).map(|&(_, f, ty)| (f, ty))
}

fn clamp_u64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn clamp_usize(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Derived `rank_permutation`: ranks are exactly `0..n`, each once.
fn rank_permutation(entries: &[parbs_obs::RankEntry]) -> bool {
    let mut ranks: Vec<u32> = entries.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.iter().enumerate().all(|(i, &r)| u64::from(r) == i as u64)
}

/// Derived `rank_sorted`: walking the entries in rank order, the
/// `(max_bank_load, total_load)` pairs never decrease — the Max-Total
/// (shortest-job-first) order.
fn rank_sorted(entries: &[parbs_obs::RankEntry]) -> bool {
    let mut by_rank: Vec<&parbs_obs::RankEntry> = entries.iter().collect();
    by_rank.sort_by_key(|e| e.rank);
    by_rank.windows(2).all(|pair| {
        (pair[0].max_bank_load, pair[0].total_load) <= (pair[1].max_bank_load, pair[1].total_load)
    })
}

/// Projects one field of `event` to `i64` (booleans as 0/1).
///
/// The checker guarantees `field` is legal for the event's kind; an illegal
/// combination evaluates to 0.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn value(event: &Event, field: Field) -> i64 {
    use Field as F;
    if field == F::At {
        return clamp_u64(event.at());
    }
    match event {
        Event::Enqueued { request, thread, write, rank, bank, row, .. } => match field {
            F::Request => clamp_u64(*request),
            F::Thread => clamp_usize(*thread),
            F::Write => i64::from(*write),
            F::Rank => clamp_usize(*rank),
            F::Bank => clamp_usize(*bank),
            F::Row => clamp_u64(*row),
            _ => 0,
        },
        Event::Marked { request, thread, rank, bank, .. } => match field {
            F::Request => clamp_u64(*request),
            F::Thread => clamp_usize(*thread),
            F::Rank => clamp_usize(*rank),
            F::Bank => clamp_usize(*bank),
            _ => 0,
        },
        Event::BatchFormed { id, marked, cap, exclusive, per_thread, .. } => match field {
            F::Id => clamp_u64(*id),
            F::MarkedCount => i64::from(*marked),
            F::Cap => cap.map_or(0, i64::from),
            F::HasCap => i64::from(cap.is_some()),
            F::Exclusive => i64::from(*exclusive),
            F::Threads => clamp_usize(per_thread.len()),
            _ => 0,
        },
        Event::BatchDrained { at, id, formed_at } => match field {
            F::Id => clamp_u64(*id),
            F::FormedAt => clamp_u64(*formed_at),
            F::Span => clamp_u64(at.saturating_sub(*formed_at)),
            _ => 0,
        },
        Event::RankComputed { batch, max_total, entries, .. } => match field {
            F::Batch => clamp_u64(*batch),
            F::MaxTotal => i64::from(*max_total),
            F::Threads => clamp_usize(entries.len()),
            F::RankPermutation => i64::from(rank_permutation(entries)),
            F::RankSorted => i64::from(rank_sorted(entries)),
            _ => 0,
        },
        Event::CommandIssued {
            request,
            thread,
            kind,
            rank,
            bank,
            row,
            col,
            marked,
            service,
            data_end,
            ..
        } => match field {
            F::Request => clamp_u64(*request),
            F::Thread => clamp_usize(*thread),
            F::Rank => clamp_usize(*rank),
            F::Bank => clamp_usize(*bank),
            F::Row => clamp_u64(*row),
            F::Col => clamp_u64(*col),
            F::MarkedFlag => i64::from(*marked),
            F::Rd => i64::from(*kind == CmdKind::Read),
            F::Wr => i64::from(*kind == CmdKind::Write),
            F::Act => i64::from(*kind == CmdKind::Activate),
            F::Pre => i64::from(*kind == CmdKind::Precharge),
            F::Hit => i64::from(*service == Some(ServiceClass::Hit)),
            F::Closed => i64::from(*service == Some(ServiceClass::Closed)),
            F::Conflict => i64::from(*service == Some(ServiceClass::Conflict)),
            F::HasService => i64::from(service.is_some()),
            F::HasDataEnd => i64::from(data_end.is_some()),
            F::DataEnd => data_end.map_or(0, clamp_u64),
            _ => 0,
        },
        Event::Completed { request, thread, write, arrival, finish, .. } => match field {
            F::Request => clamp_u64(*request),
            F::Thread => clamp_usize(*thread),
            F::Write => i64::from(*write),
            F::Arrival => clamp_u64(*arrival),
            F::Finish => clamp_u64(*finish),
            F::Latency => clamp_u64(finish.saturating_sub(*arrival)),
            _ => 0,
        },
        Event::WriteDrain { start, queued, .. } => match field {
            F::Start => i64::from(*start),
            F::Queued => i64::from(*queued),
            _ => 0,
        },
        Event::Refresh { rank, .. } => match field {
            F::Rank => clamp_usize(*rank),
            _ => 0,
        },
        Event::BusSample { busy_banks, queued_reads, queued_writes, .. } => match field {
            F::BusyBanks => i64::from(*busy_banks),
            F::QueuedReads => i64::from(*queued_reads),
            F::QueuedWrites => i64::from(*queued_writes),
            _ => 0,
        },
        Event::BlacklistSet { thread, consecutive, .. } => match field {
            F::Thread => clamp_usize(*thread),
            F::Consecutive => i64::from(*consecutive),
            _ => 0,
        },
        Event::BlacklistCleared { cleared, .. } => match field {
            F::Cleared => i64::from(*cleared),
            _ => 0,
        },
        Event::QuantumRolled { quantum, ranking, .. } => match field {
            F::Quantum => clamp_u64(*quantum),
            F::Threads => clamp_usize(ranking.len()),
            _ => 0,
        },
    }
}

/// The thread an event concerns, when it names exactly one.
///
/// Alarms carry this so verdicts can be compared per thread, online
/// against offline replay and against recorded verdicts.
#[must_use]
pub fn thread_of(event: &Event) -> Option<usize> {
    match event {
        Event::Enqueued { thread, .. }
        | Event::Marked { thread, .. }
        | Event::CommandIssued { thread, .. }
        | Event::Completed { thread, .. }
        | Event::BlacklistSet { thread, .. } => Some(*thread),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_obs::RankEntry;

    #[test]
    fn every_kind_name_round_trips() {
        for kind in ALL_KINDS {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("enqueue"), None);
    }

    #[test]
    fn catalog_fields_are_unique_and_include_at() {
        for kind in ALL_KINDS {
            let cat = catalog(kind);
            assert_eq!(cat[0].0, "at");
            for (i, (name, _, _)) in cat.iter().enumerate() {
                assert!(
                    cat[i + 1..].iter().all(|(n, _, _)| n != name),
                    "duplicate field {name} on {}",
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
        assert_eq!(value(&done, Field::Latency), 6);
        let drained = Event::BatchDrained { at: 50, id: 1, formed_at: 20 };
        assert_eq!(value(&drained, Field::Span), 30);
        assert_eq!(thread_of(&done), Some(2));
        assert_eq!(thread_of(&drained), None);
    }
}
