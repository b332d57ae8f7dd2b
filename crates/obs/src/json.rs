//! Parsing JSONL records back into [`Event`]s — the inverse of
//! [`Event::to_json`], used by offline trace replay (`parbs-sim monitor
//! --replay`).
//!
//! The grammar accepted here is ordinary JSON (the parser is a small
//! hand-rolled recursive-descent over a value enum; no serializer/
//! deserializer dependency, matching the writer side). Round-trip
//! losslessness over the *full* event enum is property-tested in
//! `tests/event_roundtrip.rs`: for every variant,
//! `Event::from_json(&e.to_json()) == e`.

use std::collections::BTreeMap;

use crate::{CmdKind, Event, RankEntry, ServiceClass};

/// Why a JSONL line failed to parse back into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError {
    /// What went wrong, with enough context to locate the bad field.
    pub message: String,
}

impl std::fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad event record: {}", self.message)
    }
}

impl std::error::Error for ParseEventError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseEventError> {
    Err(ParseEventError { message: message.into() })
}

/// A parsed JSON value. Only the shapes [`Event::to_json`] emits are given
/// first-class accessors; anything valid-but-unexpected surfaces as a typed
/// error naming the field.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    /// All numbers the event writer emits are unsigned integers.
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

/// How deeply arrays and objects may nest. Event records nest three
/// levels at most; the limit keeps a hostile line from overflowing the
/// stack of the recursive descent.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0, depth: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseEventError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, ParseEventError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    /// Parses an array or object with `parse`, one level deeper; past
    /// [`MAX_NESTING`] levels it fails at the opening bracket.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseEventError>,
    ) -> Result<Value, ParseEventError> {
        if self.depth == MAX_NESTING {
            return err(format!("nesting deeper than {MAX_NESTING} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseEventError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, ParseEventError> {
        if self.peek() == Some(b'-') {
            return err("negative numbers never appear in event records");
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return err("non-integer numbers never appear in event records");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are UTF-8");
        match text.parse::<u64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => err(format!("number '{text}' does not fit in u64")),
        }
    }

    fn string(&mut self) -> Result<String, ParseEventError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => {
                            return err(format!(
                                "unsupported escape {:?} (event strings are plain ASCII)",
                                other.map(|c| c as char)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through byte by byte;
                    // the input started as &str so the bytes are valid.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slice of a str on char boundaries"),
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseEventError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return err(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseEventError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return err(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Field accessors over the parsed record object.
struct Record<'a> {
    ty: &'a str,
    fields: &'a BTreeMap<String, Value>,
}

impl Record<'_> {
    fn get(&self, key: &str) -> Result<&Value, ParseEventError> {
        self.fields.get(key).ok_or_else(|| ParseEventError {
            message: format!("'{}' record is missing field '{key}'", self.ty),
        })
    }

    fn num(&self, key: &str) -> Result<u64, ParseEventError> {
        match self.get(key)? {
            Value::Num(n) => Ok(*n),
            other => err(format!("field '{key}' of '{}' must be a number, got {other:?}", self.ty)),
        }
    }

    fn idx(&self, key: &str) -> Result<usize, ParseEventError> {
        usize::try_from(self.num(key)?)
            .map_err(|_| ParseEventError { message: format!("field '{key}' exceeds usize") })
    }

    fn u32(&self, key: &str) -> Result<u32, ParseEventError> {
        u32::try_from(self.num(key)?)
            .map_err(|_| ParseEventError { message: format!("field '{key}' exceeds u32") })
    }

    fn boolean(&self, key: &str) -> Result<bool, ParseEventError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => err(format!("field '{key}' of '{}' must be a bool, got {other:?}", self.ty)),
        }
    }

    fn str(&self, key: &str) -> Result<&str, ParseEventError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => err(format!("field '{key}' of '{}' must be a string, got {other:?}", self.ty)),
        }
    }

    fn arr(&self, key: &str) -> Result<&[Value], ParseEventError> {
        match self.get(key)? {
            Value::Arr(items) => Ok(items),
            other => err(format!("field '{key}' of '{}' must be an array, got {other:?}", self.ty)),
        }
    }
}

fn obj_num(v: &Value, key: &str, ctx: &str) -> Result<u64, ParseEventError> {
    let Value::Obj(map) = v else {
        return err(format!("{ctx} entries must be objects, got {v:?}"));
    };
    match map.get(key) {
        Some(Value::Num(n)) => Ok(*n),
        other => err(format!("{ctx} entry field '{key}' must be a number, got {other:?}")),
    }
}

fn pair(v: &Value, ctx: &str) -> Result<(u64, u64), ParseEventError> {
    let Value::Arr(items) = v else {
        return err(format!("{ctx} entries must be two-element arrays, got {v:?}"));
    };
    match items.as_slice() {
        [Value::Num(a), Value::Num(b)] => Ok((*a, *b)),
        _ => err(format!("{ctx} entries must be two-element number arrays, got {items:?}")),
    }
}

impl CmdKind {
    /// Inverse of [`CmdKind::short`].
    #[must_use]
    pub fn parse_short(s: &str) -> Option<CmdKind> {
        match s {
            "ACT" => Some(CmdKind::Activate),
            "RD" => Some(CmdKind::Read),
            "WR" => Some(CmdKind::Write),
            "PRE" => Some(CmdKind::Precharge),
            _ => None,
        }
    }
}

impl ServiceClass {
    /// Inverse of [`ServiceClass::name`].
    #[must_use]
    pub fn parse_name(s: &str) -> Option<ServiceClass> {
        match s {
            "hit" => Some(ServiceClass::Hit),
            "closed" => Some(ServiceClass::Closed),
            "conflict" => Some(ServiceClass::Conflict),
            _ => None,
        }
    }
}

impl Event {
    /// Parses one JSONL record (as produced by [`Event::to_json`] /
    /// [`crate::JsonlSink`]) back into the event it came from.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseEventError`] naming the offending field when the
    /// line is not valid JSON, is missing a field, or types a field wrongly
    /// — replay must never silently drop or zero a field.
    pub fn from_json(line: &str) -> Result<Event, ParseEventError> {
        let mut p = Parser::new(line);
        let value = p.value()?;
        p.skip_ws();
        if p.pos != line.len() {
            return err(format!("trailing garbage after record at byte {}", p.pos));
        }
        let Value::Obj(fields) = &value else {
            return err("a JSONL record must be a JSON object");
        };
        let ty = match fields.get("type") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return err("record has no string 'type' field"),
        };
        let r = Record { ty, fields };
        let at = r.num("at")?;
        match ty {
            "enqueued" => Ok(Event::Enqueued {
                at,
                request: r.num("req")?,
                thread: r.idx("thread")?,
                write: r.boolean("write")?,
                rank: r.idx("rank")?,
                bank: r.idx("bank")?,
                row: r.num("row")?,
            }),
            "marked" => Ok(Event::Marked {
                at,
                request: r.num("req")?,
                thread: r.idx("thread")?,
                rank: r.idx("rank")?,
                bank: r.idx("bank")?,
            }),
            "batch_formed" => {
                let cap = match r.get("cap")? {
                    Value::Null => None,
                    Value::Num(n) => Some(u32::try_from(*n).map_err(|_| ParseEventError {
                        message: "field 'cap' exceeds u32".into(),
                    })?),
                    other => {
                        return err(format!("field 'cap' must be a number or null, got {other:?}"))
                    }
                };
                let per_thread = r
                    .arr("per_thread")?
                    .iter()
                    .map(|v| {
                        let (t, n) = pair(v, "per_thread")?;
                        Ok((
                            usize::try_from(t).map_err(|_| ParseEventError {
                                message: "per_thread thread exceeds usize".into(),
                            })?,
                            u32::try_from(n).map_err(|_| ParseEventError {
                                message: "per_thread count exceeds u32".into(),
                            })?,
                        ))
                    })
                    .collect::<Result<Vec<_>, ParseEventError>>()?;
                Ok(Event::BatchFormed {
                    at,
                    id: r.num("id")?,
                    marked: r.u32("marked")?,
                    cap,
                    exclusive: r.boolean("exclusive")?,
                    per_thread,
                })
            }
            "batch_drained" => {
                Ok(Event::BatchDrained { at, id: r.num("id")?, formed_at: r.num("formed_at")? })
            }
            "rank_computed" => {
                let entries = r
                    .arr("ranking")?
                    .iter()
                    .map(|v| {
                        Ok(RankEntry {
                            thread: usize::try_from(obj_num(v, "thread", "ranking")?).map_err(
                                |_| ParseEventError {
                                    message: "ranking thread exceeds usize".into(),
                                },
                            )?,
                            rank: u32::try_from(obj_num(v, "rank", "ranking")?).map_err(|_| {
                                ParseEventError { message: "ranking rank exceeds u32".into() }
                            })?,
                            max_bank_load: u32::try_from(obj_num(v, "max", "ranking")?).map_err(
                                |_| ParseEventError { message: "ranking max exceeds u32".into() },
                            )?,
                            total_load: u32::try_from(obj_num(v, "total", "ranking")?).map_err(
                                |_| ParseEventError { message: "ranking total exceeds u32".into() },
                            )?,
                        })
                    })
                    .collect::<Result<Vec<_>, ParseEventError>>()?;
                Ok(Event::RankComputed {
                    at,
                    batch: r.num("batch")?,
                    max_total: r.boolean("max_total")?,
                    entries,
                })
            }
            "command_issued" => {
                let kind = CmdKind::parse_short(r.str("cmd")?).ok_or_else(|| ParseEventError {
                    message: format!("unknown command kind '{}'", r.str("cmd").unwrap_or("?")),
                })?;
                let service = match r.fields.get("class") {
                    None => None,
                    Some(Value::Str(s)) => Some(ServiceClass::parse_name(s).ok_or_else(|| {
                        ParseEventError { message: format!("unknown service class '{s}'") }
                    })?),
                    Some(other) => {
                        return err(format!("field 'class' must be a string, got {other:?}"))
                    }
                };
                let data_end = match r.fields.get("data_end") {
                    None => None,
                    Some(Value::Num(n)) => Some(*n),
                    Some(other) => {
                        return err(format!("field 'data_end' must be a number, got {other:?}"))
                    }
                };
                Ok(Event::CommandIssued {
                    at,
                    request: r.num("req")?,
                    thread: r.idx("thread")?,
                    kind,
                    rank: r.idx("rank")?,
                    bank: r.idx("bank")?,
                    row: r.num("row")?,
                    col: r.num("col")?,
                    marked: r.boolean("marked")?,
                    service,
                    data_end,
                })
            }
            "completed" => Ok(Event::Completed {
                at,
                request: r.num("req")?,
                thread: r.idx("thread")?,
                write: r.boolean("write")?,
                arrival: r.num("arrival")?,
                finish: r.num("finish")?,
            }),
            "write_drain" => {
                Ok(Event::WriteDrain { at, start: r.boolean("start")?, queued: r.u32("queued")? })
            }
            "refresh" => Ok(Event::Refresh { at, rank: r.idx("rank")? }),
            "bus_sample" => Ok(Event::BusSample {
                at,
                busy_banks: r.u32("busy_banks")?,
                queued_reads: r.u32("queued_reads")?,
                queued_writes: r.u32("queued_writes")?,
            }),
            "blacklist_set" => Ok(Event::BlacklistSet {
                at,
                thread: r.idx("thread")?,
                consecutive: r.u32("consecutive")?,
            }),
            "blacklist_cleared" => Ok(Event::BlacklistCleared { at, cleared: r.u32("cleared")? }),
            "quantum_rolled" => {
                let ranking = r
                    .arr("ranking")?
                    .iter()
                    .map(|v| {
                        Ok((
                            usize::try_from(obj_num(v, "thread", "ranking")?).map_err(|_| {
                                ParseEventError { message: "ranking thread exceeds usize".into() }
                            })?,
                            u32::try_from(obj_num(v, "rank", "ranking")?).map_err(|_| {
                                ParseEventError { message: "ranking rank exceeds u32".into() }
                            })?,
                            obj_num(v, "attained", "ranking")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, ParseEventError>>()?;
                Ok(Event::QuantumRolled { at, quantum: r.num("quantum")?, ranking })
            }
            other => err(format!("unknown event type '{other}'")),
        }
    }
}

/// Parses a whole JSONL document (one record per non-empty line) back into
/// events, reporting the first bad line by 1-based line number.
///
/// # Errors
///
/// Returns the offending line number and its [`ParseEventError`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, (usize, ParseEventError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(Event::from_json(line).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hand_written_variant_round_trips() {
        let events = vec![
            Event::Enqueued {
                at: 1,
                request: 9,
                thread: 3,
                write: true,
                rank: 1,
                bank: 7,
                row: 42,
            },
            Event::Marked { at: 2, request: 9, thread: 3, rank: 1, bank: 7 },
            Event::BatchFormed {
                at: 3,
                id: 4,
                marked: 6,
                cap: Some(5),
                exclusive: true,
                per_thread: vec![(0, 2), (3, 4)],
            },
            Event::BatchFormed {
                at: 3,
                id: 5,
                marked: 0,
                cap: None,
                exclusive: false,
                per_thread: vec![],
            },
            Event::BatchDrained { at: 4, id: 4, formed_at: 3 },
            Event::RankComputed {
                at: 5,
                batch: 4,
                max_total: true,
                entries: vec![RankEntry { thread: 1, rank: 0, max_bank_load: 2, total_load: 3 }],
            },
            Event::CommandIssued {
                at: 6,
                request: 9,
                thread: 3,
                kind: CmdKind::Write,
                rank: 1,
                bank: 7,
                row: 42,
                col: 11,
                marked: false,
                service: Some(ServiceClass::Conflict),
                data_end: None,
            },
            Event::Completed { at: 7, request: 9, thread: 3, write: false, arrival: 1, finish: 70 },
            Event::WriteDrain { at: 8, start: false, queued: 12 },
            Event::Refresh { at: 9, rank: 1 },
            Event::BusSample { at: 10, busy_banks: 4, queued_reads: 9, queued_writes: 2 },
            Event::BlacklistSet { at: 11, thread: 5, consecutive: 4 },
            Event::BlacklistCleared { at: 12, cleared: 3 },
            Event::QuantumRolled { at: 13, quantum: 2, ranking: vec![(5, 0, 999)] },
        ];
        for e in events {
            let json = e.to_json();
            assert_eq!(Event::from_json(&json), Ok(e), "{json}");
        }
    }

    #[test]
    fn errors_name_the_offending_field() {
        let e = Event::from_json("{\"type\":\"marked\",\"at\":1,\"req\":2}").unwrap_err();
        assert!(e.message.contains("'thread'"), "{e}");
        let e = Event::from_json("{\"type\":\"warp\",\"at\":1}").unwrap_err();
        assert!(e.message.contains("unknown event type"), "{e}");
        let e = Event::from_json("{\"at\":1}").unwrap_err();
        assert!(e.message.contains("'type'"), "{e}");
        assert!(Event::from_json("not json").is_err());
        let e = Event::from_json("{\"type\":\"refresh\",\"at\":1,\"rank\":0} tail").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn deep_nesting_fails_with_the_position_instead_of_overflowing() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_limit = format!("{}0{}", open.repeat(MAX_NESTING), close.repeat(MAX_NESTING));
            let e = Event::from_json(&at_limit).unwrap_err();
            assert!(!e.message.contains("nesting"), "{MAX_NESTING} levels parse: {e}");
            let e = Event::from_json(&open.repeat(200_000)).unwrap_err();
            let byte = MAX_NESTING * open.len();
            assert_eq!(
                e.message,
                format!("nesting deeper than {MAX_NESTING} levels at byte {byte}"),
                "{open}"
            );
        }
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let text = "{\"type\":\"refresh\",\"at\":1,\"rank\":0}\n\nnope\n";
        let (line, _) = parse_jsonl(text).unwrap_err();
        assert_eq!(line, 3);
        let ok = parse_jsonl("{\"type\":\"refresh\",\"at\":1,\"rank\":0}\n").unwrap();
        assert_eq!(ok.len(), 1);
    }
}
