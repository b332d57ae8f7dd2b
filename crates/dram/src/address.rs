//! Physical-address decomposition under pluggable mapping policies.
//!
//! The paper's baseline controller uses an XOR-based address-to-bank mapping
//! (Frailong et al. `XOR-Schemes`; Zhang et al.'s permutation-based page
//! interleaving) to spread row-conflict streams across banks. That scheme is
//! now one point in a policy space: a [`MappingPolicy`] picks the bit order
//! and whether the XOR bank permutation is applied, and an [`AddressMapper`]
//! applies the policy to a concrete [`Geometry`], with `encode` and `decode`
//! exact inverses for every geometry.
//!
//! ```text
//!  RowInterleaved   line bits: [ row | channel | rank | bank | column ]
//!  LineInterleaved  line bits: [ row | column | rank | bank | channel ]
//!  effective bank-in-rank = bank_bits XOR (low row bits)   (when xor_permute)
//! ```
//!
//! `LineAddr::bank` is channel-global (see [`Geometry`]); the rank
//! coordinate is recovered with [`Geometry::rank_of`].

use crate::{Geometry, GeometryError};

/// A fully decoded DRAM location at cache-line granularity.
///
/// This is a passive record: public fields, no invariants beyond being in
/// range for the owning [`crate::DramConfig`]. `bank` is the
/// **channel-global** bank index; the owning rank is `bank / banks_per_rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct LineAddr {
    /// Channel index.
    pub channel: usize,
    /// Channel-global bank index (rank-major: rank `r` owns banks
    /// `r * banks_per_rank ..`).
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line) index within the row.
    pub col: u64,
}

/// How physical line addresses are sliced into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// Row-interleaved (page-interleaved): consecutive lines walk the
    /// columns of one row, then banks, then ranks, then channels — the
    /// paper's baseline layout, maximizing row-buffer locality of streams.
    RowInterleaved {
        /// Apply the XOR bank permutation (`bank ^= row & (banks - 1)`).
        xor_permute: bool,
    },
    /// Line-interleaved: consecutive lines stripe across channels first,
    /// then banks and ranks, spreading even a sequential stream over the
    /// whole system at the cost of row locality.
    LineInterleaved {
        /// Apply the XOR bank permutation (`bank ^= row & (banks - 1)`).
        xor_permute: bool,
    },
}

impl MappingPolicy {
    /// The paper's baseline: row-interleaved with the XOR permutation on.
    #[must_use]
    pub fn baseline() -> MappingPolicy {
        MappingPolicy::RowInterleaved { xor_permute: true }
    }

    /// Whether the XOR bank permutation is applied.
    #[must_use]
    pub fn xor_permute(self) -> bool {
        match self {
            MappingPolicy::RowInterleaved { xor_permute }
            | MappingPolicy::LineInterleaved { xor_permute } => xor_permute,
        }
    }

    /// Returns the policy with the XOR permutation forced to `on`.
    #[must_use]
    pub fn with_xor(self, on: bool) -> MappingPolicy {
        match self {
            MappingPolicy::RowInterleaved { .. } => {
                MappingPolicy::RowInterleaved { xor_permute: on }
            }
            MappingPolicy::LineInterleaved { .. } => {
                MappingPolicy::LineInterleaved { xor_permute: on }
            }
        }
    }

    /// Short CLI / label name: `row` or `line`, with `-noxor` appended when
    /// the permutation is off.
    #[must_use]
    pub fn label(self) -> String {
        let (base, xor) = match self {
            MappingPolicy::RowInterleaved { xor_permute } => ("row", xor_permute),
            MappingPolicy::LineInterleaved { xor_permute } => ("line", xor_permute),
        };
        if xor {
            base.to_string()
        } else {
            format!("{base}-noxor")
        }
    }

    /// Parses a `--mapping` argument (`row` or `line`); the XOR permutation
    /// defaults to on (toggle with [`MappingPolicy::with_xor`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<MappingPolicy> {
        match s {
            "row" => Some(MappingPolicy::RowInterleaved { xor_permute: true }),
            "line" => Some(MappingPolicy::LineInterleaved { xor_permute: true }),
            _ => None,
        }
    }
}

impl Default for MappingPolicy {
    fn default() -> Self {
        MappingPolicy::baseline()
    }
}

/// Encodes and decodes physical line addresses for a [`Geometry`] under a
/// [`MappingPolicy`]. `decode` and `encode` are exact inverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressMapper {
    geometry: Geometry,
    policy: MappingPolicy,
}

impl AddressMapper {
    /// Creates a mapper for `geometry` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any dimension is zero or not a power
    /// of two (hardware address slicing requires power-of-two field widths).
    pub fn new(geometry: Geometry, policy: MappingPolicy) -> Result<Self, GeometryError> {
        geometry.validate()?;
        Ok(AddressMapper { geometry, policy })
    }

    /// The canonical single-rank mapper (row-interleaved, XOR on) used by
    /// workload stream generators: streams always *encode* through this
    /// fixed layout, and the system under test *decodes* with its own
    /// policy, so sweeping the mapping scrambles bank placement without
    /// changing the stream itself.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for non-power-of-two dimensions.
    pub fn canonical(
        channels: usize,
        banks_per_channel: usize,
        cols_per_row: u64,
    ) -> Result<Self, GeometryError> {
        AddressMapper::new(
            Geometry {
                channels,
                ranks_per_channel: 1,
                banks_per_rank: banks_per_channel,
                rows_per_bank: 16 * 1024,
                cols_per_row,
            },
            MappingPolicy::baseline(),
        )
    }

    /// The geometry this mapper slices addresses for.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The active mapping policy.
    #[must_use]
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    fn permute(&self, bank_in_rank: usize, row: u64) -> usize {
        if self.policy.xor_permute() {
            bank_in_rank ^ (row as usize & (self.geometry.banks_per_rank - 1))
        } else {
            bank_in_rank
        }
    }

    /// Decodes a physical line address into channel / (global) bank / row /
    /// column under the active policy. The row occupies the topmost bits,
    /// so every `u64` line address decodes (rows beyond `rows_per_bank`
    /// alias higher rows; capacity is a config concern, not a mapper one).
    #[must_use]
    pub fn decode(&self, line: u64) -> LineAddr {
        let g = &self.geometry;
        let (channel, rank, bank_raw, row, col) = match self.policy {
            MappingPolicy::RowInterleaved { .. } => {
                let col = line % g.cols_per_row;
                let rest = line / g.cols_per_row;
                let bank_raw = (rest as usize) % g.banks_per_rank;
                let rest = rest / g.banks_per_rank as u64;
                let rank = (rest as usize) % g.ranks_per_channel;
                let rest = rest / g.ranks_per_channel as u64;
                let channel = (rest as usize) % g.channels;
                let row = rest / g.channels as u64;
                (channel, rank, bank_raw, row, col)
            }
            MappingPolicy::LineInterleaved { .. } => {
                let channel = (line as usize) % g.channels;
                let rest = line / g.channels as u64;
                let bank_raw = (rest as usize) % g.banks_per_rank;
                let rest = rest / g.banks_per_rank as u64;
                let rank = (rest as usize) % g.ranks_per_channel;
                let rest = rest / g.ranks_per_channel as u64;
                let col = rest % g.cols_per_row;
                let row = rest / g.cols_per_row;
                (channel, rank, bank_raw, row, col)
            }
        };
        let bank = rank * g.banks_per_rank + self.permute(bank_raw, row);
        LineAddr { channel, bank, row, col }
    }

    /// Encodes a decoded location back into a physical line address
    /// (the exact inverse of [`AddressMapper::decode`]).
    #[must_use]
    pub fn encode(&self, addr: LineAddr) -> u64 {
        let g = &self.geometry;
        let rank = g.rank_of(addr.bank) as u64;
        let bank_raw = self.permute(g.bank_in_rank(addr.bank), addr.row) as u64;
        match self.policy {
            MappingPolicy::RowInterleaved { .. } => {
                let mut line = addr.row;
                line = line * g.channels as u64 + addr.channel as u64;
                line = line * g.ranks_per_channel as u64 + rank;
                line = line * g.banks_per_rank as u64 + bank_raw;
                line * g.cols_per_row + addr.col
            }
            MappingPolicy::LineInterleaved { .. } => {
                let mut line = addr.row;
                line = line * g.cols_per_row + addr.col;
                line = line * g.ranks_per_channel as u64 + rank;
                line = line * g.banks_per_rank as u64 + bank_raw;
                line * g.channels as u64 + addr.channel as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(channels: usize, ranks: usize, banks: usize) -> Geometry {
        Geometry {
            channels,
            ranks_per_channel: ranks,
            banks_per_rank: banks,
            rows_per_bank: 1024,
            cols_per_row: 32,
        }
    }

    /// Every (policy × xor) pair over channels × ranks × banks in powers of
    /// two must have `encode ∘ decode = id` — the exhaustive-loop half of
    /// the satellite requirement (proptest covers random deep lines below).
    #[test]
    fn every_policy_round_trips_across_power_of_two_geometries() {
        for &channels in &[1usize, 2, 4] {
            for &ranks in &[1usize, 2, 4] {
                for &banks in &[1usize, 2, 8, 16] {
                    for &xor in &[false, true] {
                        for policy in [
                            MappingPolicy::RowInterleaved { xor_permute: xor },
                            MappingPolicy::LineInterleaved { xor_permute: xor },
                        ] {
                            let m =
                                AddressMapper::new(geom(channels, ranks, banks), policy).unwrap();
                            for line in (0..200_000u64).step_by(83) {
                                let a = m.decode(line);
                                assert!(a.channel < channels);
                                assert!(a.bank < ranks * banks, "{policy:?} {a:?}");
                                assert_eq!(
                                    m.encode(a),
                                    line,
                                    "{policy:?} c{channels} r{ranks} b{banks} line {line}: {a:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn consecutive_lines_share_a_row_when_row_interleaved() {
        let m = AddressMapper::canonical(1, 8, 32).unwrap();
        let a = m.decode(0);
        let b = m.decode(1);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn consecutive_lines_stripe_channels_when_line_interleaved() {
        let m =
            AddressMapper::new(geom(4, 1, 8), MappingPolicy::LineInterleaved { xor_permute: true })
                .unwrap();
        let addrs: Vec<LineAddr> = (0..4).map(|l| m.decode(l)).collect();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(a.channel, i, "line {i} lands on channel {i}");
        }
    }

    #[test]
    fn xor_permutes_banks_across_rows() {
        let m = AddressMapper::canonical(1, 8, 32).unwrap();
        // Same raw-bank slice, different rows → different effective banks.
        let a = m.decode(0);
        let line_next_row = 32 * 8; // one full bank sweep → row 1, raw bank 0
        let b = m.decode(line_next_row);
        assert_eq!(b.row, 1);
        assert_ne!(a.bank, b.bank, "XOR permutation should move row 1 to a different bank");
    }

    #[test]
    fn disabling_xor_keeps_raw_bank_order() {
        let m =
            AddressMapper::new(geom(1, 1, 8), MappingPolicy::RowInterleaved { xor_permute: false })
                .unwrap();
        let a = m.decode(0);
        let b = m.decode(32 * 8); // row 1, raw bank 0
        assert_eq!(b.row, 1);
        assert_eq!(a.bank, b.bank, "without XOR, row 1 raw bank 0 stays bank 0");
    }

    #[test]
    fn multi_rank_decode_assigns_rank_major_banks() {
        let g = geom(1, 2, 8);
        let m =
            AddressMapper::new(g, MappingPolicy::RowInterleaved { xor_permute: false }).unwrap();
        // After a full sweep of rank 0's banks (8 banks × 32 cols), the next
        // line lands in rank 1 — i.e. global bank 8.
        let a = m.decode(0);
        let b = m.decode(32 * 8);
        assert_eq!(g.rank_of(a.bank), 0);
        assert_eq!(g.rank_of(b.bank), 1);
        assert_eq!(b.bank, 8);
        assert_eq!(b.row, 0, "still row 0 — ranks interleave below the row bits");
    }

    #[test]
    fn ranks_one_row_interleaved_matches_the_legacy_layout() {
        // The baseline-identity anchor: with one rank and XOR on, the new
        // mapper must reproduce the retired hard-coded decode exactly.
        let m = AddressMapper::canonical(2, 8, 32).unwrap();
        for line in (0..100_000u64).step_by(97) {
            let col = line % 32;
            let rest = line / 32;
            let bank_raw = (rest as usize) % 8;
            let rest = rest / 8;
            let channel = (rest as usize) % 2;
            let row = rest / 2;
            let bank = bank_raw ^ (row as usize & 7);
            assert_eq!(m.decode(line), LineAddr { channel, bank, row, col });
        }
    }

    #[test]
    fn non_power_of_two_banks_rejected_with_typed_error() {
        let err = AddressMapper::canonical(1, 3, 32).unwrap_err();
        assert_eq!(err, GeometryError::NotPowerOfTwo { field: "banks_per_rank", value: 3 });
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn any_policy() -> impl Strategy<Value = MappingPolicy> {
        (any::<bool>(), any::<bool>()).prop_map(|(line, xor)| {
            if line {
                MappingPolicy::LineInterleaved { xor_permute: xor }
            } else {
                MappingPolicy::RowInterleaved { xor_permute: xor }
            }
        })
    }

    proptest! {
        #[test]
        fn round_trip_any_line_any_geometry(
            line in 0u64..1_000_000_000,
            chan_pow in 0usize..3,
            rank_pow in 0usize..3,
            bank_pow in 0usize..5,
            policy in any_policy(),
        ) {
            let g = Geometry {
                channels: 1 << chan_pow,
                ranks_per_channel: 1 << rank_pow,
                banks_per_rank: 1 << bank_pow,
                rows_per_bank: 16 * 1024,
                cols_per_row: 32,
            };
            let m = AddressMapper::new(g, policy).unwrap();
            prop_assert_eq!(m.encode(m.decode(line)), line);
        }

        #[test]
        fn decode_in_range(line in 0u64..1_000_000_000, policy in any_policy()) {
            let g = Geometry {
                channels: 4,
                ranks_per_channel: 2,
                banks_per_rank: 8,
                rows_per_bank: 16 * 1024,
                cols_per_row: 32,
            };
            let m = AddressMapper::new(g, policy).unwrap();
            let a = m.decode(line);
            prop_assert!(a.channel < 4);
            prop_assert!(a.bank < 16);
            prop_assert!(a.col < 32);
        }
    }
}

parbs_snap::snap!(LineAddr { channel, bank, row, col });
