//! The structured event vocabulary of the observability bus.
//!
//! Events are plain scalar data — request ids, thread indices, bank numbers,
//! cycles — so this crate stays a leaf: the DRAM substrate, the schedulers
//! and the sim runner all *emit* events without this crate depending on any
//! of their types. Every event carries the processor cycle it happened at.
//!
//! Each kind is declared once, in the `events!` table below: its variant,
//! its JSONL `type` tag and its payload fields, each with its JSONL key and
//! codec. The table generates the [`Event`] and [`EventKind`] enums, the
//! JSONL writer and reader, and the integer and boolean fields a monitor
//! spec reads, so a new kind or field is one table line.

use crate::json::{self, Codec, NoneAsNull, NoneOmitted, Objects, Pairs, ParseEventError, Plain};

/// The DRAM command class an issued command belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmdKind {
    /// Row activation (open a row into the row buffer).
    Activate,
    /// Column read from the open row.
    Read,
    /// Column write into the open row.
    Write,
    /// Precharge (close the open row).
    Precharge,
}

impl CmdKind {
    /// Short name used in JSON output ("ACT", "RD", "WR", "PRE").
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            CmdKind::Activate => "ACT",
            CmdKind::Read => "RD",
            CmdKind::Write => "WR",
            CmdKind::Precharge => "PRE",
        }
    }

    /// Inverse of [`CmdKind::short`].
    #[must_use]
    pub fn parse_short(s: &str) -> Option<CmdKind> {
        [CmdKind::Activate, CmdKind::Read, CmdKind::Write, CmdKind::Precharge]
            .into_iter()
            .find(|k| k.short() == s)
    }

    /// One-character glyph used by ASCII timelines (`A`/`R`/`W`/`P`).
    #[must_use]
    pub fn glyph(self) -> u8 {
        match self {
            CmdKind::Activate => b'A',
            CmdKind::Read => b'R',
            CmdKind::Write => b'W',
            CmdKind::Precharge => b'P',
        }
    }
}

/// How a request found its bank's row buffer when its *first* command
/// issued: the paper's row-hit / row-closed / row-conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// The needed row was already open (column command issued directly).
    Hit,
    /// The bank was precharged (activate first).
    Closed,
    /// Another row was open (precharge, then activate).
    Conflict,
}

impl ServiceClass {
    /// Lower-case name used in JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Hit => "hit",
            ServiceClass::Closed => "closed",
            ServiceClass::Conflict => "conflict",
        }
    }

    /// Inverse of [`ServiceClass::name`].
    #[must_use]
    pub fn parse_name(s: &str) -> Option<ServiceClass> {
        [ServiceClass::Hit, ServiceClass::Closed, ServiceClass::Conflict]
            .into_iter()
            .find(|c| c.name() == s)
    }
}

/// One thread's position in a computed batch ranking, with the Rule 3 load
/// figures it was ranked by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankEntry {
    /// Thread index.
    pub thread: usize,
    /// Assigned rank (0 = highest priority).
    pub rank: u32,
    /// The thread's maximum marked-request count over any single bank.
    pub max_bank_load: u32,
    /// The thread's total marked-request count.
    pub total_load: u32,
}

/// An integer or boolean payload field, as a monitor spec reads it (see
/// [`EventKind::field`]).
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// True for a bool field, false for an integer one.
    pub boolean: bool,
    /// Reads the field of an event of its kind: a bool as 0 or 1, an
    /// integer clamped to `i64::MAX`. Events of other kinds read 0.
    pub get: fn(&Event) -> i64,
}

/// The spec field `get` reads, when `codec` encodes an integer or a bool.
fn spec_field<T, C: Codec<T>>(_codec: &C, get: fn(&Event) -> i64) -> Option<Field> {
    C::BOOLEAN.map(|boolean| Field { boolean, get })
}

/// Declares the event vocabulary from one entry per kind: its doc, its
/// variant and its JSONL `type` tag, then one line per payload field: its
/// doc, name and type, `= "key"` where its JSONL key is not its name, and
/// `=> codec` where its type alone does not decide its encoding (the
/// default is [`Plain`]). A last `"key" = value` line adds a key the
/// writer derives and the reader ignores.
///
/// It generates [`Event`], [`EventKind`] (`ALL` in table order, `name`,
/// `parse` and `field`), [`Event::at`], [`Event::kind`],
/// [`Event::to_json`] and [`Event::from_json`].
macro_rules! events {
    (@codec) => { Plain };
    (@codec $codec:expr) => { $codec };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    ($(
        $(#[$doc:meta])*
        $variant:ident $tag:literal {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty $(= $key:literal)? $(=> $codec:expr)?,)*
            $($derived:literal = $value:expr,)*
        }
    )*) => {
        /// One observable occurrence in the memory system.
        ///
        /// The stream emitted by an instrumented controller is totally
        /// ordered by emission (and non-decreasing in `at`); sinks may rely
        /// on seeing a request's `Enqueued` before its commands and its
        /// commands before its `Completed`.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        /// The kind of an [`Event`]: its variant without the payload.
        ///
        /// Its [`name`](EventKind::name) is both the JSONL `type` tag and
        /// the kind a monitor spec names after `input name :=`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $(#[doc = concat!("[`Event::", stringify!($variant), "`].")] $variant,)*
        }

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: [EventKind; [$($tag),*].len()] = [$(EventKind::$variant),*];

            /// The kind's name: the JSONL `type` tag and the spec-language
            /// kind.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $tag,)*
                }
            }

            /// Inverse of [`EventKind::name`].
            #[must_use]
            pub fn parse(name: &str) -> Option<EventKind> {
                Some(match name {
                    $($tag => EventKind::$variant,)*
                    _ => return None,
                })
            }

            /// The integer or boolean payload field of this kind a monitor
            /// spec reads as `name`, the field's Rust name (`at` included).
            #[must_use]
            pub fn field(self, name: &str) -> Option<Field> {
                match self {
                    $(EventKind::$variant => match name {
                        $(stringify!($field) => spec_field::<$ty, _>(
                            &events!(@codec $($codec)?),
                            |e| match e {
                                Event::$variant { $field, .. } => {
                                    Codec::<$ty>::project(&events!(@codec $($codec)?), $field)
                                }
                                _ => 0,
                            },
                        ),)*
                        _ => None,
                    },)*
                }
            }
        }

        impl Event {
            /// The processor cycle the event occurred at.
            #[must_use]
            pub fn at(&self) -> u64 {
                match *self {
                    $(Event::$variant { at, .. })|* => at,
                }
            }

            /// The event's kind: its variant without the payload.
            #[must_use]
            pub fn kind(&self) -> EventKind {
                match self {
                    $(Event::$variant { .. } => EventKind::$variant,)*
                }
            }

            /// Renders the event as a single-line JSON object (the JSONL
            /// record format; all JSON in this crate is hand-rolled — no
            /// serializer dependency).
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(96);
                match self {
                    $(Event::$variant { $($field),* } => {
                        out.push_str(concat!("{\"type\":\"", $tag, "\""));
                        $(Codec::<$ty>::write(
                            &events!(@codec $($codec)?),
                            $field,
                            events!(@key $field $($key)?),
                            &mut out,
                        );)*
                        $(Plain.write(&$value, $derived, &mut out);)*
                    })*
                }
                out.push('}');
                out
            }

            /// Parses one JSONL record (as produced by [`Event::to_json`] /
            /// [`crate::JsonlSink`]) back into the event it came from.
            ///
            /// # Errors
            ///
            /// Returns a [`ParseEventError`] naming the offending field when
            /// the line is not valid JSON, repeats a key, is missing a
            /// field, or types a field wrongly — replay must never silently
            /// drop or zero a field.
            pub fn from_json(line: &str) -> Result<Event, ParseEventError> {
                json::read_record(line, |kind, r| {
                    Ok(match kind {
                        $(EventKind::$variant => Event::$variant {
                            $($field: Codec::<$ty>::read(
                                &events!(@codec $($codec)?),
                                r,
                                events!(@key $field $($key)?),
                            )?,)*
                        },)*
                    })
                })
            }
        }
    };
}

events! {
    /// A request entered the controller's read or write buffer.
    Enqueued "enqueued" {
        /// Arrival cycle.
        at: u64,
        /// Request id.
        request: u64 = "req",
        /// Issuing thread.
        thread: usize,
        /// True for writes.
        write: bool,
        /// Target rank within the channel.
        rank: usize,
        /// Target bank (channel-global index).
        bank: usize,
        /// Target row.
        row: u64,
    }
    /// A queued read was marked into the current batch (PAR-BS Rule 1).
    Marked "marked" {
        /// Marking cycle.
        at: u64,
        /// Request id.
        request: u64 = "req",
        /// Issuing thread.
        thread: usize,
        /// Target rank within the channel.
        rank: usize,
        /// Target bank (channel-global index).
        bank: usize,
    }
    /// A new batch formed. Emitted *before* the batch's `Marked` events.
    BatchFormed "batch_formed" {
        /// Formation cycle.
        at: u64,
        /// Batch sequence number (1-based; matches `ParBsStats::batches_formed`).
        id: u64,
        /// Number of requests marked at formation.
        marked: u32,
        /// Marking-Cap in force (`None` = uncapped).
        cap: Option<u32> => NoneAsNull,
        /// True when batches are exclusive (full/empty-slot batching): batch
        /// N+1 may only form after batch N drains. Static time-based
        /// batching renews marks on a period instead and sets this false.
        exclusive: bool,
        /// Requests marked at formation per thread, sorted by thread index.
        per_thread: Vec<(usize, u32)> => Pairs("thread", "count"),
    }
    /// The previous batch's last marked request finished (batch drained).
    BatchDrained "batch_drained" {
        /// Drain observation cycle.
        at: u64,
        /// Batch sequence number.
        id: u64,
        /// Cycle the batch formed at (span start).
        formed_at: u64,
    }
    /// A thread ranking was computed over the marked requests (Rule 3).
    RankComputed "rank_computed" {
        /// Computation cycle.
        at: u64,
        /// Batch sequence number the ranking belongs to.
        batch: u64,
        /// True when the Max-Total (shortest-job-first) scheme produced it,
        /// i.e. an invariant checker may check the ordering.
        max_total: bool,
        /// Ranking entries, sorted by ascending rank.
        entries: Vec<RankEntry> = "ranking" => Objects(["thread", "rank", "max", "total"]),
    }
    /// A DRAM command was placed on the command bus for a request.
    CommandIssued "command_issued" {
        /// Issue cycle.
        at: u64,
        /// Request id the command belongs to.
        request: u64 = "req",
        /// Issuing thread.
        thread: usize,
        /// Command class.
        kind: CmdKind = "cmd",
        /// Target rank within the channel.
        rank: usize,
        /// Target bank (channel-global index).
        bank: usize,
        /// Target row (for precharge: the row being closed).
        row: u64,
        /// Target column.
        col: u64,
        /// Whether the request was marked (in the current batch).
        marked: bool,
        /// Row-buffer classification, present on the request's first command.
        service: Option<ServiceClass> = "class" => NoneOmitted,
        /// For column commands: the cycle the data transfer ends.
        data_end: Option<u64> => NoneOmitted,
    }
    /// A request's data transfer (plus front-end latency) completed.
    Completed "completed" {
        /// Cycle the completion was scheduled (column-command issue time).
        at: u64,
        /// Request id.
        request: u64 = "req",
        /// Issuing thread.
        thread: usize,
        /// True for writes.
        write: bool,
        /// Arrival cycle (span start).
        arrival: u64,
        /// Cycle the requesting core observes the data (span end).
        finish: u64,
        "latency" = finish.saturating_sub(*arrival),
    }
    /// The controller entered (`start = true`) or left write-drain mode.
    WriteDrain "write_drain" {
        /// Transition cycle.
        at: u64,
        /// True when draining begins, false when it ends.
        start: bool,
        /// Write-buffer occupancy at the transition.
        queued: u32,
    }
    /// An all-bank refresh was issued to one rank.
    Refresh "refresh" {
        /// Issue cycle.
        at: u64,
        /// Refreshed rank.
        rank: usize,
    }
    /// Periodic bank/bus occupancy sample (emitted on change only).
    BusSample "bus_sample" {
        /// Sample cycle.
        at: u64,
        /// Banks currently servicing a request.
        busy_banks: u32,
        /// Queued read requests.
        queued_reads: u32,
        /// Queued write requests.
        queued_writes: u32,
    }
    /// BLISS blacklisted a thread after it was serviced too many times in a
    /// row.
    BlacklistSet "blacklist_set" {
        /// Blacklisting cycle.
        at: u64,
        /// The thread that crossed the consecutive-service threshold.
        thread: usize,
        /// Consecutive column commands the thread had received.
        consecutive: u32,
    }
    /// BLISS's periodic clearing interval expired and the blacklist was
    /// emptied.
    BlacklistCleared "blacklist_cleared" {
        /// Clearing cycle.
        at: u64,
        /// Threads removed from the blacklist.
        cleared: u32,
    }
    /// An ATLAS quantum expired: long-term attained service was aged and the
    /// least-attained-service thread ranking recomputed.
    QuantumRolled "quantum_rolled" {
        /// Rollover cycle.
        at: u64,
        /// 1-based quantum sequence number.
        quantum: u64,
        /// `(thread, rank, attained_service)` entries, sorted by ascending
        /// rank (rank 0 = least attained service = highest priority).
        ranking: Vec<(usize, u32, u64)> => Objects(["thread", "rank", "attained"]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_and_kind_cover_every_variant() {
        let events = vec![
            Event::Enqueued {
                at: 1,
                request: 0,
                thread: 0,
                write: false,
                rank: 0,
                bank: 0,
                row: 0,
            },
            Event::Marked { at: 2, request: 0, thread: 0, rank: 0, bank: 0 },
            Event::BatchFormed {
                at: 3,
                id: 1,
                marked: 1,
                cap: Some(5),
                exclusive: true,
                per_thread: vec![(0, 1)],
            },
            Event::BatchDrained { at: 4, id: 1, formed_at: 3 },
            Event::RankComputed {
                at: 5,
                batch: 1,
                max_total: true,
                entries: vec![RankEntry { thread: 0, rank: 0, max_bank_load: 1, total_load: 1 }],
            },
            Event::CommandIssued {
                at: 6,
                request: 0,
                thread: 0,
                kind: CmdKind::Read,
                rank: 0,
                bank: 0,
                row: 0,
                col: 0,
                marked: true,
                service: Some(ServiceClass::Hit),
                data_end: Some(40),
            },
            Event::Completed { at: 7, request: 0, thread: 0, write: false, arrival: 1, finish: 50 },
            Event::WriteDrain { at: 8, start: true, queued: 20 },
            Event::Refresh { at: 9, rank: 1 },
            Event::BusSample { at: 10, busy_banks: 2, queued_reads: 3, queued_writes: 0 },
            Event::BlacklistSet { at: 11, thread: 1, consecutive: 4 },
            Event::BlacklistCleared { at: 12, cleared: 2 },
            Event::QuantumRolled { at: 13, quantum: 1, ranking: vec![(0, 0, 123), (1, 1, 456)] },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.at(), (i + 1) as u64);
            assert_eq!(e.kind(), EventKind::ALL[i]);
            let json = e.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(&format!("\"type\":\"{}\"", e.kind().name())));
            assert!(!json.contains('\n'), "JSONL records are single-line");
        }
    }

    #[test]
    fn uncapped_batch_serializes_null_cap() {
        let e = Event::BatchFormed {
            at: 0,
            id: 1,
            marked: 2,
            cap: None,
            exclusive: true,
            per_thread: vec![],
        };
        assert!(e.to_json().contains("\"cap\":null"));
    }

    #[test]
    fn every_kind_name_round_trips() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("enqueue"), None);
    }

    #[test]
    fn cmd_kind_names_and_glyphs() {
        assert_eq!(CmdKind::Activate.short(), "ACT");
        assert_eq!(CmdKind::Precharge.glyph(), b'P');
        assert_eq!(ServiceClass::Conflict.name(), "conflict");
    }
}
