//! The JSONL record format: the parser that reads a record back and the
//! codecs that write and read each field. [`Event::to_json`] and
//! [`Event::from_json`] come from the `events!` table in `event.rs`, which
//! names each field's JSONL key and, where its type alone does not decide
//! the encoding, its codec; this module supplies the codecs. Offline trace
//! replay (`parbs-sim monitor --replay`) reads records through it.
//!
//! The grammar accepted here is ordinary JSON (the parser is a small
//! hand-rolled recursive-descent over a value enum; no serializer/
//! deserializer dependency, matching the writer side), except that an
//! object may not repeat a key: a repeated key fails with its name and
//! byte offset instead of letting the last value win. The record's `type`
//! tag resolves through [`EventKind::parse`], and every integer field goes
//! through one typed getter that rejects values its field cannot hold.
//! The workspace test `tests/event_roundtrip.rs` property-tests both
//! directions: for every variant `Event::from_json(&e.to_json()) == e`,
//! a randomly edited record either fails or parses to an event that
//! round-trips, and a record without one of its keys fails naming the
//! key unless the key is optional.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::io::BufRead;

use crate::{CmdKind, Event, EventKind, RankEntry, ServiceClass};

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
            let key_at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return err(format!("repeated key '{key}' at byte {key_at}"));
            }
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

/// Field accessors over one parsed object: a whole record, or one entry
/// of a list of objects in it.
pub(crate) struct Record<'a> {
    /// The record's `type` tag.
    ty: &'a str,
    /// What the object is within the record: `record`, or `<key> entry`
    /// for an entry of the list at `key`.
    part: &'a str,
    fields: &'a BTreeMap<String, Value>,
}

impl<'a> Record<'a> {
    fn get(&self, key: &str) -> Result<&'a Value, ParseEventError> {
        self.fields.get(key).ok_or_else(|| ParseEventError {
            message: format!("'{}' {} is missing field '{key}'", self.ty, self.part),
        })
    }

    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, ParseEventError> {
        int(self.get(key)?, format_args!("field '{key}' of '{}' {}", self.ty, self.part))
    }

    fn boolean(&self, key: &str) -> Result<bool, ParseEventError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => self.mistyped(key, "a bool", other),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, ParseEventError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => self.mistyped(key, "a string", other),
        }
    }

    fn arr(&self, key: &str) -> Result<&'a [Value], ParseEventError> {
        match self.get(key)? {
            Value::Arr(items) => Ok(items),
            other => self.mistyped(key, "an array", other),
        }
    }

    fn mistyped<T>(&self, key: &str, want: &str, got: &Value) -> Result<T, ParseEventError> {
        err(format!("field '{key}' of '{}' {} must be {want}, got {got:?}", self.ty, self.part))
    }
}

/// The reader's one integer getter: `v` as a `T`, failing when `v` is not
/// a number or does not fit. `what` names the value in the error.
fn int<T: TryFrom<u64>>(v: &Value, what: std::fmt::Arguments<'_>) -> Result<T, ParseEventError> {
    let Value::Num(n) = v else {
        return err(format!("{what} must be a number, got {v:?}"));
    };
    T::try_from(*n).map_err(|_| ParseEventError {
        message: format!("{what} exceeds {}", std::any::type_name::<T>()),
    })
}

/// Parses `line` as one JSONL record and builds its event with `build`,
/// from the kind its `type` tag names and the record's fields.
pub(crate) fn read_record(
    line: &str,
    build: impl FnOnce(EventKind, &Record<'_>) -> Result<Event, ParseEventError>,
) -> Result<Event, ParseEventError> {
    let mut p = Parser::new(line);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != line.len() {
        return err(format!("trailing garbage after record at byte {}", p.pos));
    }
    let Value::Obj(fields) = &value else {
        return err("a JSONL record must be a JSON object");
    };
    let Some(Value::Str(ty)) = fields.get("type") else {
        return err("record has no string 'type' field");
    };
    let Some(kind) = EventKind::parse(ty) else {
        return err(format!("unknown event type '{ty}'"));
    };
    build(kind, &Record { ty, part: "record", fields })
}

/// How a field of type `T` is encoded: written to a JSONL record, read
/// back from one and, for integers and bools, read by a monitor spec. A
/// line of the `events!` table names its codec where the field's type
/// alone does not decide the encoding; every other field is [`Plain`].
pub(crate) trait Codec<T> {
    /// `Some(true)` for a bool and `Some(false)` for an integer, which a
    /// monitor spec reads through [`Codec::project`]; `None` keeps the
    /// field out of specs.
    const BOOLEAN: Option<bool> = None;

    /// Appends the field to a record as `,"key":value`.
    fn write(&self, v: &T, key: &str, out: &mut String);

    /// Reads the field at `key` of `r`.
    fn read(&self, r: &Record<'_>, key: &str) -> Result<T, ParseEventError>;

    /// The field as a monitor spec reads it: a bool as 0 or 1, an integer
    /// clamped to `i64::MAX`.
    fn project(&self, _v: &T) -> i64 {
        0
    }
}

/// The encoding a field's type decides: integers as numbers, bools as
/// `true`/`false`, command kinds and service classes by name.
pub(crate) struct Plain;

/// The integer field types.
trait Int: Copy + Display + TryFrom<u64> + TryInto<i64> {}

impl Int for u64 {}
impl Int for u32 {}
impl Int for usize {}

impl<T: Int> Codec<T> for Plain {
    const BOOLEAN: Option<bool> = Some(false);

    fn write(&self, v: &T, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{v}");
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<T, ParseEventError> {
        r.int(key)
    }

    fn project(&self, v: &T) -> i64 {
        (*v).try_into().unwrap_or(i64::MAX)
    }
}

impl Codec<bool> for Plain {
    const BOOLEAN: Option<bool> = Some(true);

    fn write(&self, v: &bool, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{v}");
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<bool, ParseEventError> {
        r.boolean(key)
    }

    fn project(&self, v: &bool) -> i64 {
        i64::from(*v)
    }
}

impl Codec<CmdKind> for Plain {
    fn write(&self, v: &CmdKind, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", v.short());
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<CmdKind, ParseEventError> {
        let cmd = r.str(key)?;
        CmdKind::parse_short(cmd).map_or_else(|| err(format!("unknown command kind '{cmd}'")), Ok)
    }
}

impl Codec<ServiceClass> for Plain {
    fn write(&self, v: &ServiceClass, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", v.name());
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<ServiceClass, ParseEventError> {
        let class = r.str(key)?;
        ServiceClass::parse_name(class)
            .map_or_else(|| err(format!("unknown service class '{class}'")), Ok)
    }
}

/// An optional field written as `null` when absent. The key is required.
pub(crate) struct NoneAsNull;

impl<T> Codec<Option<T>> for NoneAsNull
where
    Plain: Codec<T>,
{
    fn write(&self, v: &Option<T>, key: &str, out: &mut String) {
        match v {
            Some(v) => Plain.write(v, key, out),
            None => {
                let _ = write!(out, ",\"{key}\":null");
            }
        }
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<Option<T>, ParseEventError> {
        match r.get(key)? {
            Value::Null => Ok(None),
            _ => Plain.read(r, key).map(Some),
        }
    }
}

/// An optional field left out of the record when absent.
pub(crate) struct NoneOmitted;

impl<T> Codec<Option<T>> for NoneOmitted
where
    Plain: Codec<T>,
{
    fn write(&self, v: &Option<T>, key: &str, out: &mut String) {
        if let Some(v) = v {
            Plain.write(v, key, out);
        }
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<Option<T>, ParseEventError> {
        if r.fields.contains_key(key) {
            Plain.read(r, key).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Appends `,"key":[...]`, writing each item with `item`.
fn write_list<T>(out: &mut String, key: &str, items: &[T], item: impl Fn(&mut String, &T)) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// A list of integer pairs, each written as a two-element array. The two
/// names label the pair's cells in errors.
pub(crate) struct Pairs(pub &'static str, pub &'static str);

impl<A: Int, B: Int> Codec<Vec<(A, B)>> for Pairs {
    fn write(&self, v: &Vec<(A, B)>, key: &str, out: &mut String) {
        write_list(out, key, v, |out, (a, b)| {
            let _ = write!(out, "[{a},{b}]");
        });
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<Vec<(A, B)>, ParseEventError> {
        r.arr(key)?
            .iter()
            .map(|v| match v {
                Value::Arr(pair) if pair.len() == 2 => Ok((
                    int(&pair[0], format_args!("{key} {}", self.0))?,
                    int(&pair[1], format_args!("{key} {}", self.1))?,
                )),
                _ => err(format!("{key} entries must be two-element arrays, got {v:?}")),
            })
            .collect()
    }
}

/// A list written as one object per entry, with these keys for an entry's
/// cells.
pub(crate) struct Objects<const N: usize>(pub [&'static str; N]);

/// A list entry of `N` integer cells, as [`Objects`] writes and reads it.
pub(crate) trait Entry<const N: usize>: Sized {
    /// The cells, in key order.
    fn cells(&self) -> [&dyn Display; N];

    /// Reads the cells at `keys` of one entry object.
    fn read(r: &Record<'_>, keys: [&str; N]) -> Result<Self, ParseEventError>;
}

impl Entry<4> for RankEntry {
    fn cells(&self) -> [&dyn Display; 4] {
        [&self.thread, &self.rank, &self.max_bank_load, &self.total_load]
    }

    fn read(
        r: &Record<'_>,
        [thread, rank, max, total]: [&str; 4],
    ) -> Result<Self, ParseEventError> {
        Ok(RankEntry {
            thread: r.int(thread)?,
            rank: r.int(rank)?,
            max_bank_load: r.int(max)?,
            total_load: r.int(total)?,
        })
    }
}

impl<A: Int, B: Int, C: Int> Entry<3> for (A, B, C) {
    fn cells(&self) -> [&dyn Display; 3] {
        [&self.0, &self.1, &self.2]
    }

    fn read(r: &Record<'_>, [a, b, c]: [&str; 3]) -> Result<Self, ParseEventError> {
        Ok((r.int(a)?, r.int(b)?, r.int(c)?))
    }
}

impl<E: Entry<N>, const N: usize> Codec<Vec<E>> for Objects<N> {
    fn write(&self, v: &Vec<E>, key: &str, out: &mut String) {
        write_list(out, key, v, |out, entry| {
            for (i, (k, cell)) in self.0.iter().zip(entry.cells()).enumerate() {
                let _ = write!(out, "{}\"{k}\":{cell}", if i == 0 { '{' } else { ',' });
            }
            out.push('}');
        });
    }

    fn read(&self, r: &Record<'_>, key: &str) -> Result<Vec<E>, ParseEventError> {
        let part = format!("{key} entry");
        r.arr(key)?
            .iter()
            .map(|v| match v {
                Value::Obj(fields) => E::read(&Record { ty: r.ty, part: &part, fields }, self.0),
                other => err(format!("{key} entries must be objects, got {other:?}")),
            })
            .collect()
    }
}

/// Why a line of a JSONL document could not be read.
#[derive(Debug)]
pub enum JsonlError {
    /// Reading the input failed.
    Io(std::io::Error),
    /// The line is not UTF-8.
    NotUtf8,
    /// The line is not an event record.
    Record(ParseEventError),
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "read failed: {e}"),
            JsonlError::NotUtf8 => f.write_str("not valid UTF-8"),
            JsonlError::Record(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JsonlError {}

/// Reads a JSONL document line by line, handing each record to `each` as
/// soon as it parses, so only one line is held at a time. Lines end at
/// `\n` or `\r\n`, as [`str::lines`] splits them, and blank lines are
/// skipped.
///
/// # Errors
///
/// Returns the first line that cannot be read, is not UTF-8 or is not an
/// event record, with its 1-based number.
pub fn read_jsonl(
    mut input: impl BufRead,
    mut each: impl FnMut(Event),
) -> Result<(), (usize, JsonlError)> {
    let mut buf = Vec::new();
    for line in 1.. {
        buf.clear();
        match input.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err((line, JsonlError::Io(e))),
        }
        let text = std::str::from_utf8(&buf).map_err(|_| (line, JsonlError::NotUtf8))?;
        let text = text.strip_suffix('\n').map_or(text, |t| t.strip_suffix('\r').unwrap_or(t));
        if !text.trim().is_empty() {
            each(Event::from_json(text).map_err(|e| (line, JsonlError::Record(e)))?);
        }
    }
    Ok(())
}

/// Parses a whole JSONL document (one record per non-empty line) back into
/// events through [`read_jsonl`], reporting the first bad line by 1-based
/// line number.
///
/// # Errors
///
/// Returns the offending line number and its [`ParseEventError`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, (usize, ParseEventError)> {
    let mut events = Vec::new();
    read_jsonl(text.as_bytes(), |e| events.push(e)).map_err(|(line, e)| match e {
        JsonlError::Record(e) => (line, e),
        JsonlError::Io(_) | JsonlError::NotUtf8 => unreachable!("a str reads whole and is UTF-8"),
    })?;
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
        let e = Event::from_json(
            "{\"type\":\"enqueued\",\"at\":0,\"req\":1,\"thread\":0,\"write\":false,\
             \"rank\":0,\"bank\":0,\"row\":5,\"bank\":3}",
        )
        .unwrap_err();
        assert_eq!(e.message, "repeated key 'bank' at byte 85");
        let e = Event::from_json(
            "{\"type\":\"write_drain\",\"at\":1,\"start\":true,\"queued\":4294967296}",
        )
        .unwrap_err();
        assert_eq!(e.message, "field 'queued' of 'write_drain' record exceeds u32");
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

    #[test]
    fn read_jsonl_streams_records_and_types_its_errors() {
        let record = "{\"type\":\"refresh\",\"at\":1,\"rank\":0}";
        let mut seen = Vec::new();
        let doc = format!("{record}\r\n\n{record}");
        read_jsonl(doc.as_bytes(), |e| seen.push(e)).unwrap();
        assert_eq!(seen.len(), 2, "CRLF and a missing final newline both end a line");
        let mut bytes = format!("{record}\n\n").into_bytes();
        bytes.extend_from_slice(b"{\"type\":\"refresh\",\"at\":1,\"rank\":\xff}\n");
        let (line, e) = read_jsonl(bytes.as_slice(), |_| {}).unwrap_err();
        assert_eq!((line, e.to_string()), (3, "not valid UTF-8".to_owned()));
        assert!(matches!(e, JsonlError::NotUtf8));
    }
}
