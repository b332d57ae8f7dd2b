//! The scheduler priority-key contract.
//!
//! Every [`crate::MemoryScheduler`] packs its priority order into a `u128`
//! ([`crate::MemoryScheduler::priority_key`], largest wins). The packing is
//! load-bearing: the controller's hot path schedules purely on cached keys,
//! so a bit-layout mistake silently reorders requests. This module lets each
//! scheduler *declare* its layout as data — a [`KeyLayout`] of ordered named
//! bit-fields — which `parbs_sim::analyze` then checks statically (fields
//! non-overlapping, most-significant-first dominance order matching the
//! documented intent, declared domains fitting their widths) and
//! cross-validates against `priority_key` over enumerated scheduler states.
//!
//! Float-keyed policies (NFQ's virtual deadlines) additionally need an
//! order-preserving `f64 → u64` embedding; [`f64_total_order_bits`] provides
//! the standard sign-magnitude flip whose unsigned order equals
//! [`f64::total_cmp`] over **all** values, including subnormals, zeros of
//! both signs, infinities and NaNs.

/// What a key field encodes — the analyzer uses this to compute the
/// expected field value from the request/channel state where it can, and to
/// pick the right domain checks where it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldSemantic {
    /// 1 if the request is marked (PAR-BS: member of the current batch).
    Marked,
    /// 1 if the request is currently a row hit.
    RowHit,
    /// 1 if the request is a row hit whose bank is still inside the
    /// capture window (NFQ's priority-inversion prevention).
    RecentRowHit,
    /// 1 if the request's thread is boosted by a fairness intervention
    /// (STFM's fairness mode).
    Boosted,
    /// 1 if the request's thread is *not* currently blacklisted (BLISS:
    /// non-blacklisted threads are served first).
    NotBlacklisted,
    /// Inverted per-request priority level: lower level value packs larger.
    PriorityLevel,
    /// Inverted rank: lower (better) rank packs larger. Used for PAR-BS's
    /// in-batch rank and ATLAS's attained-service rank.
    Rank,
    /// Inverted virtual deadline via [`f64_total_order_bits`]: earlier
    /// deadlines pack larger.
    Deadline,
    /// Inverted request id: older requests pack larger. Being injective
    /// over queued requests, this is the total-order tiebreaker every
    /// layout must end with.
    Age,
}

/// One named bit-field of a packed priority key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyField {
    /// Field name, unique within its layout (e.g. `"row_hit"`).
    pub name: &'static str,
    /// What the field encodes.
    pub semantic: FieldSemantic,
    /// Position of the field's least-significant bit in the `u128` key.
    pub lo: u32,
    /// Width in bits (1–128).
    pub width: u32,
}

impl KeyField {
    /// The field's bit mask within the key.
    #[must_use]
    pub fn mask(&self) -> u128 {
        if self.width >= 128 {
            u128::MAX
        } else {
            ((1u128 << self.width) - 1) << self.lo
        }
    }

    /// Extracts the field's value from a packed key.
    #[must_use]
    pub fn extract(&self, key: u128) -> u128 {
        (key & self.mask()) >> self.lo
    }
}

/// A scheduler's declared priority-key layout: named bit-fields listed
/// **most-significant first**, i.e. in dominance order — the first field is
/// the scheduler's primary criterion, the last its final tiebreaker.
///
/// For a valid layout (non-overlapping fields in strictly descending bit
/// position, unused bits always zero), comparing two keys as plain `u128`s
/// is identical to comparing the fields lexicographically in declaration
/// order; that equivalence is what makes the declaration checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyLayout {
    /// The fields, most-significant (highest-priority intent) first.
    pub fields: &'static [KeyField],
}

impl KeyLayout {
    /// The union of all field masks — bits of the key the layout accounts
    /// for. A packed key must never set bits outside this mask.
    #[must_use]
    pub fn used_mask(&self) -> u128 {
        self.fields.iter().map(KeyField::mask).fold(0, |m, f| m | f)
    }

    /// Looks up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&KeyField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Checks the structural invariants of the layout.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: an empty
    /// layout, a zero-width or out-of-range field, duplicate field names,
    /// overlapping fields, fields not in strictly descending (MSB-first)
    /// order, or a final tiebreaker that is not an [`FieldSemantic::Age`]
    /// field starting at bit 0.
    pub fn validate(&self) -> Result<(), String> {
        if self.fields.is_empty() {
            return Err("layout has no fields".to_owned());
        }
        let mut names: Vec<&str> = self.fields.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.fields.len() {
            return Err("duplicate field name".to_owned());
        }
        let mut prev_lo: Option<u32> = None;
        for f in self.fields {
            if f.width == 0 {
                return Err(format!("field `{}` has zero width", f.name));
            }
            if u64::from(f.lo) + u64::from(f.width) > 128 {
                return Err(format!(
                    "field `{}` ({}..{}) exceeds 128 bits",
                    f.name,
                    f.lo,
                    f.lo + f.width
                ));
            }
            match prev_lo {
                // MSB-first and non-overlapping in one check: each field
                // must end strictly below the previous field's low bit.
                Some(lo) if f.lo + f.width > lo => {
                    return Err(format!(
                        "field `{}` overlaps or is out of MSB-first order",
                        f.name
                    ));
                }
                _ => prev_lo = Some(f.lo),
            }
        }
        let last = self.fields.last().expect("non-empty");
        if last.semantic != FieldSemantic::Age || last.lo != 0 {
            return Err(format!(
                "the final tiebreaker must be an age field at bit 0 \
                 (found `{}` at bit {})",
                last.name, last.lo
            ));
        }
        Ok(())
    }
}

/// Maps an `f64` to a `u64` whose **unsigned integer order equals
/// [`f64::total_cmp`]** over all inputs: the sign-magnitude flip. Negative
/// values (sign bit set) have all bits inverted — descending magnitude
/// becomes ascending integers — and non-negative values get the sign bit
/// set, placing them above every negative value.
///
/// This is total: ties map to equal integers, `-0.0 < +0.0`, subnormals
/// order by magnitude, and NaNs land at the extremes exactly as
/// `total_cmp` places them.
#[must_use]
pub fn f64_total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: KeyLayout = KeyLayout {
        fields: &[
            KeyField { name: "hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
            KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
        ],
    };

    #[test]
    fn valid_layout_passes() {
        GOOD.validate().unwrap();
        assert_eq!(GOOD.used_mask(), (1u128 << 65) - 1);
        assert_eq!(GOOD.field("hit").unwrap().extract(1 << 64), 1);
    }

    #[test]
    fn overlap_and_order_are_rejected() {
        let overlap = KeyLayout {
            fields: &[
                KeyField { name: "a", semantic: FieldSemantic::RowHit, lo: 63, width: 2 },
                KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
            ],
        };
        assert!(overlap.validate().unwrap_err().contains("overlaps"));
        let swapped = KeyLayout {
            fields: &[
                KeyField { name: "age", semantic: FieldSemantic::Age, lo: 0, width: 64 },
                KeyField { name: "hit", semantic: FieldSemantic::RowHit, lo: 64, width: 1 },
            ],
        };
        assert!(swapped.validate().is_err(), "LSB-first declaration must be rejected");
    }

    #[test]
    fn missing_age_tiebreaker_is_rejected() {
        let no_age = KeyLayout {
            fields: &[KeyField { name: "hit", semantic: FieldSemantic::RowHit, lo: 0, width: 1 }],
        };
        assert!(no_age.validate().unwrap_err().contains("age"));
    }

    #[test]
    fn total_order_bits_matches_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE, // largest negative subnormal's neighbor
            -f64::from_bits(1), // smallest-magnitude negative subnormal
            -0.0,
            0.0,
            f64::from_bits(1), // smallest positive subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1.0e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    f64_total_order_bits(a).cmp(&f64_total_order_bits(b)),
                    a.total_cmp(&b),
                    "order mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn total_order_bits_is_total_on_ties_and_nan() {
        assert_eq!(f64_total_order_bits(1.5), f64_total_order_bits(1.5), "ties map equal");
        assert!(f64_total_order_bits(-0.0) < f64_total_order_bits(0.0));
        let nan = f64::NAN;
        assert_eq!(f64_total_order_bits(nan).cmp(&f64_total_order_bits(1.0)), nan.total_cmp(&1.0));
    }
}
