//! Binary snapshot codec for simulator checkpointing.
//!
//! The build environment has no crates.io access, so instead of serde this
//! crate provides a small, explicit little-endian codec: a [`SnapWriter`]
//! appends primitive values to a byte buffer, a [`SnapReader`] consumes them
//! back in the same order, and the [`Snap`] trait ties the two together for
//! composite values (`Option`, `Vec`, tuples, fixed arrays, hash maps and
//! sets). Every decode error is a typed [`SnapError`] — truncated input, an
//! impossible tag, keys out of order, an unsupported state — never a panic,
//! so malformed checkpoint files are rejected cleanly at the CLI layer.
//!
//! Layout rules (the "wire format"):
//!
//! * all integers are **little-endian**, `usize` travels as `u64`;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so round-trips
//!   are exact for every value including NaNs and negative zero;
//! * `bool` is one byte, `0` or `1` (anything else is a [`SnapError::BadTag`]);
//! * `Option<T>` is a one-byte presence tag followed by the payload;
//! * sequences are a `u64` length followed by the elements;
//! * a `HashMap` is written as the `Vec<(K, V)>` of its entries sorted by
//!   key, and a `HashSet` as the sorted `Vec<T>` of its elements, so the
//!   byte stream does not depend on the hasher or on insertion order; a
//!   load rejects keys that do not strictly ascend
//!   ([`SnapError::KeyOrder`]), so every map has exactly one encoding;
//! * a struct whose encoding is its fields in order declares that order
//!   once, with [`snap!`]: each field at its own type's encoding, in the
//!   order listed; an enum declared with [`snap!`] is a `u8` tag followed
//!   by the variant's fields. A policy's or stream's checkpoint hooks
//!   that are a list of fields come from [`snap_state!`]. Types whose load
//!   must check what it decodes keep hand-written impls.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Decoding (and occasionally encoding) failure, with enough context to
/// produce an actionable CLI error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before a value could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// A tag byte (bool, enum discriminant, presence marker) held a value
    /// outside its legal set.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A decoded length or index is inconsistent with the restoring
    /// structure (e.g. a checkpoint for a different core count).
    Mismatch {
        /// What was being restored.
        what: &'static str,
        /// The value the structure expected.
        expected: u64,
        /// The value found in the snapshot.
        found: u64,
    },
    /// The keys of an encoded map, or the elements of an encoded set, do
    /// not strictly ascend: an entry repeats or is out of order.
    KeyOrder {
        /// Position of the first entry not above its predecessor.
        index: usize,
    },
    /// The state cannot be snapshotted or restored in its current
    /// configuration (e.g. an observability sink is attached).
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {remaining} left")
            }
            SnapError::BadTag { what, value } => {
                write!(f, "snapshot corrupt: invalid {what} tag {value}")
            }
            SnapError::Mismatch { what, expected, found } => {
                write!(f, "snapshot mismatch: {what} expected {expected}, found {found}")
            }
            SnapError::KeyOrder { index } => {
                write!(f, "snapshot corrupt: map or set entry {index} does not ascend")
            }
            SnapError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends snapshot values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one tag byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }

    /// Appends a sequence length (callers then append the elements).
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Consumes snapshot values from a byte slice, tracking the read position.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — the final integrity
    /// check after restoring a snapshot.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Mismatch {
                what: "trailing bytes",
                expected: 0,
                found: self.remaining() as u64,
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadTag { what: "usize", value: v })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` tag byte.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::BadTag { what: "bool", value: u64::from(v) }),
        }
    }

    /// Reads any [`Snap`] value.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }

    /// Reads a sequence length, sanity-capped so a corrupt length cannot
    /// trigger a huge allocation: each element needs at least one byte, so
    /// a length exceeding the remaining input is provably corrupt.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated { needed: len, remaining: self.remaining() });
        }
        Ok(len)
    }
}

/// Values with a canonical snapshot encoding.
pub trait Snap: Sized {
    /// Appends this value to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Reads a value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the input is truncated or holds an
    /// invalid encoding.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! impl_snap_prim {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$t()
            }
        }
    )*};
}
impl_snap_prim!(u8, u32, u64, u128, usize, f64, bool);

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        if r.bool()? {
            Ok(Some(T::load(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.seq()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for std::collections::VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.seq(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.seq()?;
        let mut out = std::collections::VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

/// Fails with [`SnapError::KeyOrder`] unless `keys` strictly ascend.
fn check_ascending<'a, K: Ord + 'a>(keys: impl Iterator<Item = &'a K>) -> Result<(), SnapError> {
    let mut prev = None;
    for (index, key) in keys.enumerate() {
        if prev.is_some_and(|p| p >= key) {
            return Err(SnapError::KeyOrder { index });
        }
        prev = Some(key);
    }
    Ok(())
}

/// The sorted `Vec<(K, V)>` of the entries: the encoding does not depend on
/// the hasher or on insertion order.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let entries: Vec<(K, V)> = r.get()?;
        check_ascending(entries.iter().map(|(k, _)| k))?;
        Ok(entries.into_iter().collect())
    }
}

/// The sorted `Vec<T>` of the elements.
impl<T, S> Snap for HashSet<T, S>
where
    T: Snap + Ord + Hash,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.seq(items.len());
        for item in items {
            item.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let items: Vec<T> = r.get()?;
        check_ascending(items.iter())?;
        Ok(items.into_iter().collect())
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

/// Implements [`Snap`] for a type whose encoding is its fields in order,
/// from one list, so `save` and `load` cannot disagree.
///
/// * `snap!(Name { a, b, c })` writes each field with [`SnapWriter::put`]
///   in the order listed, and reads each with [`SnapReader::get`] into a
///   struct literal: each field travels at its own type's width, and a
///   field left out of the list is a compile error. A tuple struct lists
///   its indices: `snap!(Id { 0 })`.
/// * `snap!(enum Name as "what" { 0 => Unit, 1 => Tuple(x), 2 => Named { a, b } })`
///   writes a `u8` tag, then the variant's fields in the order listed; a
///   tag not in the list loads as [`SnapError::BadTag`] naming `"what"`.
#[macro_export]
macro_rules! snap {
    (enum $ty:ident as $what:literal {
        $($tag:literal => $variant:ident $(($($tf:ident),*))? $({ $($sf:ident),* })?),* $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({ $($sf),* })? => {
                        w.u8($tag);
                        $($(w.put($tf);)*)?
                        $($(w.put($sf);)*)?
                    })*
                }
            }

            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $tf = r.get()?;)*)?
                        $($(let $sf = r.get()?;)*)?
                        Ok(Self::$variant $(($($tf),*))? $({ $($sf),* })?)
                    })*
                    value => Err($crate::SnapError::BadTag { what: $what, value: u64::from(value) }),
                }
            }
        }
    };
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $(w.put(&self.$field);)*
            }

            fn load(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $($field: r.get()?),* })
            }
        }
    };
}

/// Expands, inside an impl of a trait with `save_state`/`restore_state`
/// hooks, to the pair for a list of `self` fields: `save_state` writes
/// them with [`SnapWriter::put`] in the order listed and `restore_state`
/// reads them back in that order, assigning each as it is read.
///
/// `snap_state!(clocks, deadlines, weights)` expands to
/// `fn save_state(&self, w: &mut SnapWriter)` and
/// `fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>`.
#[macro_export]
macro_rules! snap_state {
    ($($field:ident),* $(,)?) => {
        fn save_state(&self, w: &mut $crate::SnapWriter) {
            $(w.put(&self.$field);)*
        }

        fn restore_state(
            &mut self,
            r: &mut $crate::SnapReader<'_>,
        ) -> Result<(), $crate::SnapError> {
            $(self.$field = r.get()?;)*
            Ok(())
        }
    };
}

/// Incremental 64-bit FNV-1a hasher for config fingerprints: cheap, stable
/// across platforms and runs, and entirely dependency-free. Not
/// collision-resistant — it detects *accidental* mismatches (resuming a
/// checkpoint under a different configuration), not adversarial ones.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes into the fingerprint.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string into the fingerprint.
    pub fn update_str(&mut self, s: &str) {
        self.update(s.as_bytes());
    }

    /// The current 64-bit digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.u128(1 << 100);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn composites_round_trip() {
        let v: Vec<Option<(u64, f64)>> = vec![None, Some((3, 1.5)), Some((u64::MAX, -2.0))];
        let arr: [u64; 4] = [1, 2, 3, 4];
        let mut w = SnapWriter::new();
        w.put(&v);
        w.put(&arr);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Vec<Option<(u64, f64)>>>().unwrap(), v);
        assert_eq!(r.get::<[u64; 4]>().unwrap(), arr);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(SnapError::Truncated { needed: 8, remaining: 4 }));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let bytes = [2u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.bool(), Err(SnapError::BadTag { what: "bool", value: 2 }));
    }

    #[test]
    fn corrupt_length_cannot_demand_huge_allocation() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get::<Vec<u8>>(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = r.u8().unwrap();
        assert!(matches!(r.expect_end(), Err(SnapError::Mismatch { .. })));
    }

    fn encode<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(v);
        w.into_bytes()
    }

    fn decode<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
        let mut r = SnapReader::new(bytes);
        let v = r.get()?;
        r.expect_end()?;
        Ok(v)
    }

    #[test]
    fn maps_and_sets_round_trip() {
        let map: HashMap<(u64, usize), f64> =
            (0..50).map(|i| ((i % 7, i as usize), i as f64 / 3.0)).collect();
        assert_eq!(decode::<HashMap<(u64, usize), f64>>(&encode(&map)).unwrap(), map);
        let set: HashSet<u64> = [900, 3, 40_000, 0, 17].into();
        assert_eq!(decode::<HashSet<u64>>(&encode(&set)).unwrap(), set);
        let empty: HashMap<u64, Vec<u32>> = HashMap::new();
        assert_eq!(decode::<HashMap<u64, Vec<u32>>>(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn maps_and_sets_encode_as_their_sorted_vec() {
        // Insertion order differs from key order, and the per-process hasher
        // seed moves the iteration order; neither reaches the bytes.
        let pairs = [(40_000u64, 3u32), (7, 1), (900, 9), (0, 5)];
        let map: HashMap<u64, u32> = pairs.into_iter().collect();
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        assert_eq!(encode(&map), encode(&sorted));
        let set: HashSet<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let keys: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
        assert_eq!(encode(&set), encode(&keys));
    }

    #[test]
    fn maps_and_sets_reject_descending_and_repeated_keys() {
        let descending: Vec<(u64, u8)> = vec![(1, 0), (5, 0), (4, 0)];
        let repeated: Vec<(u64, u8)> = vec![(1, 0), (1, 2)];
        assert_eq!(
            decode::<HashMap<u64, u8>>(&encode(&descending)),
            Err(SnapError::KeyOrder { index: 2 })
        );
        assert_eq!(
            decode::<HashMap<u64, u8>>(&encode(&repeated)),
            Err(SnapError::KeyOrder { index: 1 })
        );
        assert_eq!(
            decode::<HashSet<u64>>(&encode(&vec![3u64, 2])),
            Err(SnapError::KeyOrder { index: 1 })
        );
        assert_eq!(
            decode::<HashSet<u64>>(&encode(&vec![0u64, 8, 8])),
            Err(SnapError::KeyOrder { index: 2 })
        );
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        first: u8,
        second: u64,
    }
    crate::snap!(Pair { second, first });

    #[derive(Debug, PartialEq)]
    struct Id(u32);
    crate::snap!(Id { 0 });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Dot(u8),
        Line { from: u32, to: bool },
    }
    crate::snap!(enum Shape as "shape" { 0 => Empty, 5 => Dot(at), 7 => Line { to, from } });

    #[test]
    fn snap_writes_fields_in_the_order_listed() {
        let pair = Pair { first: 0xAA, second: 0x0102 };
        assert_eq!(encode(&pair), [0x02, 0x01, 0, 0, 0, 0, 0, 0, 0xAA]);
        assert_eq!(decode::<Pair>(&encode(&pair)).unwrap(), pair);
        assert_eq!(encode(&Id(0x0A0B_0C0D)), [0x0D, 0x0C, 0x0B, 0x0A]);
        assert_eq!(decode::<Id>(&[1, 0, 0, 0]).unwrap(), Id(1));
    }

    #[test]
    fn snap_enums_write_the_tag_then_the_fields_in_the_order_listed() {
        let cases = [
            (Shape::Empty, vec![0]),
            (Shape::Dot(9), vec![5, 9]),
            (Shape::Line { from: 3, to: true }, vec![7, 1, 3, 0, 0, 0]),
        ];
        for (shape, bytes) in cases {
            assert_eq!(encode(&shape), bytes);
            assert_eq!(decode::<Shape>(&bytes).unwrap(), shape);
        }
        assert_eq!(decode::<Shape>(&[1]), Err(SnapError::BadTag { what: "shape", value: 1 }));
        assert_eq!(decode::<Shape>(&[7, 2]), Err(SnapError::BadTag { what: "bool", value: 2 }));
    }

    trait Hooks {
        fn save_state(&self, w: &mut SnapWriter);
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
    }

    #[derive(Debug, Default, PartialEq)]
    struct Policy {
        clock: u64,
        flag: bool,
        weights: Vec<u8>,
    }

    impl Hooks for Policy {
        crate::snap_state!(weights, clock, flag);
    }

    #[test]
    fn snap_state_saves_and_restores_in_the_order_listed() {
        let policy = Policy { clock: 4, flag: true, weights: vec![6] };
        let mut w = SnapWriter::new();
        policy.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0, 0, 6, 4, 0, 0, 0, 0, 0, 0, 0, 1]);
        let mut restored = Policy::default();
        let mut r = SnapReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored, policy);
        // A restore that fails keeps the fields read before the failure.
        let mut partial = Policy::default();
        let err = partial.restore_state(&mut SnapReader::new(&bytes[..12])).unwrap_err();
        assert_eq!(err, SnapError::Truncated { needed: 8, remaining: 3 });
        assert_eq!(partial, Policy { weights: vec![6], ..Policy::default() });
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let mut a = Fingerprint::new();
        a.update_str("parbs");
        let mut b = Fingerprint::new();
        b.update_str("parbs");
        assert_eq!(a.digest(), b.digest());
        let mut c = Fingerprint::new();
        c.update_str("sbrap");
        assert_ne!(a.digest(), c.digest());
    }
}
