//! The synthetic instruction-stream generator.
//!
//! Misses are emitted in *bursts*: a burst touches `k` distinct banks
//! (where `k` is sampled around the profile's BLP target), with a handful of
//! compute instructions between the loads so they land close together in the
//! instruction window and can overlap in DRAM. Between bursts the generator
//! emits enough compute instructions to hit the profile's MPKI target. Each
//! bank keeps a `(row, column)` cursor; with probability `row_hit` the next
//! miss continues sequentially in the current row, otherwise it jumps to a
//! random row — giving direct control over row-buffer locality.

use parbs_cpu::{Instr, InstructionStream};
use parbs_dram::{AddressMapper, DramConfig, LineAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use crate::BenchmarkProfile;

/// Rows in each thread's private region of every bank.
const REGION_ROWS: u64 = 1024;

/// The DRAM geometry a stream generates addresses for, plus the private
/// row region of each thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamGeometry {
    /// Channels in the target system.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Cache lines per row.
    pub cols_per_row: u64,
    /// Rows in each thread's private region (threads never share rows).
    pub region_rows: u64,
}

impl StreamGeometry {
    /// The geometry of the DRAM system `dram` describes, with private
    /// regions of 1,024 rows.
    #[must_use]
    pub fn of(dram: &DramConfig) -> Self {
        StreamGeometry {
            channels: dram.channels(),
            banks_per_channel: dram.banks_per_channel(),
            cols_per_row: dram.cols_per_row(),
            region_rows: REGION_ROWS,
        }
    }

    /// Total independent bank slots across all channels.
    #[must_use]
    pub fn bank_slots(&self) -> usize {
        self.channels * self.banks_per_channel
    }
}

#[derive(Debug, Clone, Copy)]
struct BankCursor {
    row: u64,
    col: u64,
}

/// A seeded, infinite instruction stream with the given benchmark's memory
/// characteristics. Deterministic for a fixed `(profile, geometry, seed,
/// thread_salt)` tuple.
pub struct SyntheticStream {
    profile: BenchmarkProfile,
    geometry: StreamGeometry,
    mapper: AddressMapper,
    /// Row offset of this thread's private region.
    region_base: u64,
    rng: StdRng,
    cursors: Vec<BankCursor>,
    /// Sticky bank slots of the thread's concurrent miss streams: a stream
    /// keeps returning to its bank (continuing its open row) until a row
    /// jump moves it elsewhere — the access pattern that lets a
    /// high-locality thread capture a bank under row-hit-first policies.
    active: Vec<usize>,
    queue: VecDeque<Instr>,
    /// Fractional compute-gap carry so long-run MPKI is exact.
    gap_carry: f64,
    /// Episodes emitted so far (for stream-depth fencing).
    episodes: u64,
}

impl std::fmt::Debug for SyntheticStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticStream")
            .field("benchmark", &self.profile.name)
            .field("queued", &self.queue.len())
            .finish()
    }
}

/// Compute instructions inserted between the loads of one burst, keeping the
/// burst inside the 128-entry window while modeling short dependence chains.
const INTRA_BURST_GAP: usize = 2;

impl SyntheticStream {
    /// Creates the stream. `thread_salt` selects the thread's private row
    /// region and perturbs the RNG so identical benchmarks on different
    /// cores (e.g. 4 copies of `lbm`, Fig. 7) produce distinct but
    /// statistically identical streams.
    #[must_use]
    pub fn new(
        profile: &BenchmarkProfile,
        geometry: StreamGeometry,
        seed: u64,
        thread_salt: u64,
    ) -> Self {
        let mapper = AddressMapper::canonical(
            geometry.channels,
            geometry.banks_per_channel,
            geometry.cols_per_row,
        )
        .expect("stream geometries are power-of-two shapes");
        let mut rng = StdRng::seed_from_u64(
            seed ^ (u64::from(profile.number) << 32) ^ thread_salt.wrapping_mul(0x9E37_79B9),
        );
        let cursors = (0..geometry.bank_slots())
            .map(|_| BankCursor {
                row: rng.gen_range(0..geometry.region_rows),
                col: rng.gen_range(0..geometry.cols_per_row),
            })
            .collect();
        SyntheticStream {
            profile: *profile,
            geometry,
            mapper,
            region_base: thread_salt * geometry.region_rows,
            rng,
            cursors,
            active: Vec::new(),
            queue: VecDeque::new(),
            gap_carry: 0.0,
            episodes: 0,
        }
    }

    /// The benchmark this stream models.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn sample_burst_width(&mut self) -> usize {
        let blp = self.profile.blp.max(1.0);
        let base = blp.floor() as usize;
        let frac = blp - blp.floor();
        let k = base + usize::from(self.rng.gen_bool(frac));
        k.min(self.geometry.bank_slots()).max(1)
    }

    /// Advances a bank cursor per the row-locality model and returns the
    /// line address of the next miss on that bank slot, plus whether the
    /// stream jumped to a new row (and should move to a new bank).
    fn next_line(&mut self, slot: usize) -> (u64, bool) {
        let cols = self.geometry.cols_per_row;
        let rows = self.geometry.region_rows;
        let cur = &mut self.cursors[slot];
        let jumped = !self.rng.gen_bool(self.profile.row_hit.clamp(0.0, 1.0));
        if jumped {
            cur.row = self.rng.gen_range(0..rows);
            cur.col = self.rng.gen_range(0..cols);
        } else {
            cur.col = (cur.col + 1) % cols;
        }
        let channel = slot / self.geometry.banks_per_channel;
        let bank = slot % self.geometry.banks_per_channel;
        let line = self.mapper.encode(LineAddr {
            channel,
            bank,
            row: self.region_base + cur.row,
            col: cur.col,
        });
        (line, jumped)
    }

    /// A random bank slot not currently used by another stream.
    fn fresh_slot(&mut self) -> usize {
        let slots = self.geometry.bank_slots();
        loop {
            let s = self.rng.gen_range(0..slots);
            if !self.active.contains(&s) || self.active.len() >= slots {
                return s;
            }
        }
    }

    fn refill(&mut self) {
        let k = self.sample_burst_width();
        // Maintain k sticky, distinct stream slots.
        while self.active.len() < k {
            let slot = self.fresh_slot();
            self.active.push(slot);
        }
        self.active.truncate(k);
        let mut lines = Vec::with_capacity(k);
        for i in 0..k {
            let slot = self.active[i];
            let (line, jumped) = self.next_line(slot);
            lines.push(line);
            if jumped {
                // The stream moved to a new row; continue it on a different
                // bank so the thread's footprint rotates over the banks.
                let fresh = self.fresh_slot();
                self.active[i] = fresh;
            }
        }
        // A dependence fence starts every `stream_depth`-th episode: a
        // pointer-chaser fences every episode (serial chain of k-wide
        // bursts); a streaming benchmark keeps several episodes in flight.
        let fence = self.episodes.is_multiple_of(self.profile.stream_depth());
        self.episodes += 1;
        let mut burst_len = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if i == 0 && fence {
                self.queue.push_back(Instr::DependentLoad(*line));
            } else {
                self.queue.push_back(Instr::Load(*line));
            }
            burst_len += 1;
            if i + 1 < lines.len() {
                for _ in 0..INTRA_BURST_GAP {
                    self.queue.push_back(Instr::Compute);
                    burst_len += 1;
                }
            }
        }
        // Writebacks: each miss evicts a dirty line with probability
        // `write_fraction`, posting a store to a line the burst touched.
        let wf = self.profile.write_fraction.clamp(0.0, 1.0);
        for &line in &lines {
            if self.rng.gen_bool(wf) {
                self.queue.push_back(Instr::Store(line));
                burst_len += 1;
            }
        }
        // Inter-burst compute gap: m misses per (m * 1000/mpki) instructions.
        let mpki = self.profile.mpki.max(0.001);
        let target = lines.len() as f64 * (1000.0 / mpki) + self.gap_carry;
        let gap = (target - burst_len as f64).max(0.0);
        let whole = gap.floor();
        self.gap_carry = gap - whole;
        for _ in 0..whole as u64 {
            self.queue.push_back(Instr::Compute);
        }
    }
}

impl InstructionStream for SyntheticStream {
    fn next_instr(&mut self) -> Instr {
        loop {
            if let Some(i) = self.queue.pop_front() {
                return i;
            }
            self.refill();
        }
    }

    fn save_state(&self, w: &mut parbs_snap::SnapWriter) {
        w.put(&self.rng.state());
        w.put(&self.cursors);
        w.put(&self.active);
        w.put(&self.queue);
        w.f64(self.gap_carry);
        w.u64(self.episodes);
    }

    fn restore_state(
        &mut self,
        r: &mut parbs_snap::SnapReader<'_>,
    ) -> Result<(), parbs_snap::SnapError> {
        let rng_state: [u64; 4] = r.get()?;
        let cursors: Vec<BankCursor> = r.get()?;
        if cursors.len() != self.cursors.len() {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "stream bank-cursor count",
                expected: self.cursors.len() as u64,
                found: cursors.len() as u64,
            });
        }
        let (rows, cols) = (self.geometry.region_rows, self.geometry.cols_per_row);
        if let Some(c) = cursors.iter().find(|c| c.row >= rows || c.col >= cols) {
            let (what, expected, found) = if c.row >= rows {
                ("stream region rows implied by a bank cursor", rows, c.row)
            } else {
                ("row columns implied by a bank cursor", cols, c.col)
            };
            let found = found.saturating_add(1);
            return Err(parbs_snap::SnapError::Mismatch { what, expected, found });
        }
        let active: Vec<usize> = r.get()?;
        if let Some(&slot) = active.iter().find(|&&slot| slot >= cursors.len()) {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "stream bank-cursor count implied by an active slot",
                expected: cursors.len() as u64,
                found: slot.saturating_add(1) as u64,
            });
        }
        let queue = r.get()?;
        // The fraction of a compute instruction carried between bursts; a
        // larger carry would queue that many instructions at the next refill.
        let gap_carry = r.f64()?;
        if gap_carry >= 1.0 {
            return Err(parbs_snap::SnapError::Mismatch {
                what: "stream gap carry in whole instructions",
                expected: 0,
                found: gap_carry as u64,
            });
        }
        self.rng = StdRng::from_state(rng_state);
        self.cursors = cursors;
        self.active = active;
        self.queue = queue;
        self.gap_carry = gap_carry;
        self.episodes = r.u64()?;
        Ok(())
    }
}

impl parbs_snap::Snap for BankCursor {
    fn save(&self, w: &mut parbs_snap::SnapWriter) {
        w.u64(self.row);
        w.u64(self.col);
    }

    fn load(r: &mut parbs_snap::SnapReader<'_>) -> Result<Self, parbs_snap::SnapError> {
        Ok(BankCursor { row: r.u64()?, col: r.u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    fn collect(name: &str, seed: u64, salt: u64, n: usize) -> Vec<Instr> {
        let mut s = SyntheticStream::new(
            by_name(name).unwrap(),
            StreamGeometry::of(&DramConfig::baseline_4core()),
            seed,
            salt,
        );
        (0..n).map(|_| s.next_instr()).collect()
    }

    fn mpki_of(instrs: &[Instr]) -> f64 {
        let loads =
            instrs.iter().filter(|i| matches!(i, Instr::Load(_) | Instr::DependentLoad(_))).count();
        loads as f64 * 1000.0 / instrs.len() as f64
    }

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(collect("mcf", 1, 0, 5_000), collect("mcf", 1, 0, 5_000));
    }

    #[test]
    fn different_salts_differ() {
        assert_ne!(collect("mcf", 1, 0, 5_000), collect("mcf", 1, 1, 5_000));
    }

    #[test]
    fn mpki_matches_target_for_intensive_benchmark() {
        let instrs = collect("mcf", 7, 0, 200_000);
        let measured = mpki_of(&instrs);
        let target = by_name("mcf").unwrap().mpki;
        assert!(
            (measured - target).abs() / target < 0.15,
            "mcf MPKI: measured {measured:.1}, target {target:.1}"
        );
    }

    #[test]
    fn mpki_matches_target_for_moderate_benchmark() {
        let instrs = collect("hmmer", 7, 0, 400_000);
        let measured = mpki_of(&instrs);
        let target = by_name("hmmer").unwrap().mpki;
        assert!(
            (measured - target).abs() / target < 0.15,
            "hmmer MPKI: measured {measured:.2}, target {target:.2}"
        );
    }

    #[test]
    fn high_blp_benchmark_bursts_across_banks() {
        // Count distinct banks touched within each burst window for mcf
        // (BLP target 4.75) vs matlab (BLP target 1.08).
        let geometry = StreamGeometry::of(&DramConfig::baseline_4core());
        let mapper = AddressMapper::canonical(1, 8, 32).unwrap();
        let burst_banks = |name: &str| {
            let mut s = SyntheticStream::new(by_name(name).unwrap(), geometry, 3, 0);
            let mut widths = Vec::new();
            let mut current: Vec<usize> = Vec::new();
            let mut gap = 0;
            for _ in 0..200_000 {
                match s.next_instr() {
                    Instr::Load(line) | Instr::DependentLoad(line) => {
                        gap = 0;
                        let b = mapper.decode(line).bank;
                        if !current.contains(&b) {
                            current.push(b);
                        }
                    }
                    _ => {
                        gap += 1;
                        if gap > 8 && !current.is_empty() {
                            widths.push(current.len());
                            current.clear();
                        }
                    }
                }
            }
            widths.iter().sum::<usize>() as f64 / widths.len() as f64
        };
        let mcf = burst_banks("mcf");
        let matlab = burst_banks("matlab");
        assert!(mcf > 4.0, "mcf burst width = {mcf:.2}");
        assert!(matlab < 1.5, "matlab burst width = {matlab:.2}");
    }

    #[test]
    fn row_locality_knob_changes_address_stream() {
        // libquantum (row_hit .984) should mostly continue within rows;
        // sjeng (row_hit .168) should mostly jump.
        let mapper = AddressMapper::canonical(1, 8, 32).unwrap();
        let same_row_fraction = |name: &str| {
            let instrs = collect(name, 9, 0, 300_000);
            let mut last: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
            let (mut same, mut total) = (0u64, 0u64);
            for i in instrs {
                if let Instr::Load(line) | Instr::DependentLoad(line) = i {
                    let a = mapper.decode(line);
                    if let Some(&row) = last.get(&a.bank) {
                        total += 1;
                        if row == a.row {
                            same += 1;
                        }
                    }
                    last.insert(a.bank, a.row);
                }
            }
            same as f64 / total as f64
        };
        assert!(same_row_fraction("libquantum") > 0.9);
        assert!(same_row_fraction("sjeng") < 0.4);
    }

    #[test]
    fn stores_appear_roughly_at_write_fraction() {
        let instrs = collect("lbm", 11, 0, 300_000);
        let loads =
            instrs.iter().filter(|i| matches!(i, Instr::Load(_) | Instr::DependentLoad(_))).count()
                as f64;
        let stores = instrs.iter().filter(|i| matches!(i, Instr::Store(_))).count() as f64;
        let wf = by_name("lbm").unwrap().write_fraction;
        assert!(
            (stores / loads - wf).abs() < 0.1,
            "write fraction: measured {:.2}, target {wf:.2}",
            stores / loads
        );
    }

    #[test]
    fn restore_rejects_slots_cursors_and_carries_outside_the_geometry() {
        let geometry = StreamGeometry::of(&DramConfig::baseline_4core());
        let fresh = || SyntheticStream::new(by_name("mcf").unwrap(), geometry, 5, 0);
        type Corrupt = fn(&mut SyntheticStream);
        let corruptions: [(&str, Corrupt); 4] = [
            ("stream bank-cursor count implied by an active slot", |s| {
                s.active = vec![s.cursors.len()];
            }),
            ("stream region rows implied by a bank cursor", |s| {
                s.cursors[0].row = s.geometry.region_rows;
            }),
            ("row columns implied by a bank cursor", |s| {
                s.cursors[1].col = s.geometry.cols_per_row;
            }),
            ("stream gap carry in whole instructions", |s| s.gap_carry = 2.5),
        ];
        for (want, corrupt) in corruptions {
            let mut s = fresh();
            s.next_instr();
            corrupt(&mut s);
            let mut w = parbs_snap::SnapWriter::new();
            s.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = fresh().restore_state(&mut parbs_snap::SnapReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, parbs_snap::SnapError::Mismatch { what, .. } if what == want),
                "{want}: {err}"
            );
        }
    }

    #[test]
    fn addresses_stay_in_thread_region() {
        let geometry = StreamGeometry::of(&DramConfig::baseline_4core());
        let mapper = AddressMapper::canonical(1, 8, 32).unwrap();
        for salt in [0u64, 3] {
            let mut s = SyntheticStream::new(by_name("mcf").unwrap(), geometry, 5, salt);
            for _ in 0..50_000 {
                if let Instr::Load(line) | Instr::DependentLoad(line) = s.next_instr() {
                    let a = mapper.decode(line);
                    let base = salt * geometry.region_rows;
                    assert!(a.row >= base && a.row < base + geometry.region_rows);
                }
            }
        }
    }
}
