//! DRAM timing parameters, expressed in processor cycles (4 GHz).
//!
//! The defaults correspond to the paper's Table 2: Micron DDR2-800 with
//! `tCL = tRCD = tRP = 15 ns` and `BL/2 = 10 ns`, scaled by 4 cycles/ns.

use crate::CommandKind;

/// Processor cycles per DRAM (command-clock) cycle: 4 GHz core vs. 400 MHz
/// DDR2-800 command clock.
pub const DRAM_CYCLE: u64 = 10;

/// DRAM timing constraints in processor cycles.
///
/// Fields are public because this is a passive parameter record; invariants
/// (e.g. `t_rc = t_ras + t_rp`) are the caller's responsibility and are
/// asserted by [`TimingParams::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Activate → read/write to the same bank (row-to-column delay).
    pub t_rcd: u64,
    /// Read command → first data beat (CAS latency).
    pub t_cl: u64,
    /// Write command → first data beat (CAS write latency).
    pub t_cwl: u64,
    /// Precharge → activate to the same bank.
    pub t_rp: u64,
    /// Activate → precharge to the same bank (row-access minimum).
    pub t_ras: u64,
    /// Activate → activate to the same bank (`t_ras + t_rp`).
    pub t_rc: u64,
    /// Data-bus occupancy of one 64-byte transfer (`BL/2`).
    pub t_burst: u64,
    /// Column command → column command on the same channel.
    pub t_ccd: u64,
    /// Activate → activate to *different* banks of the same rank.
    pub t_rrd: u64,
    /// End of write data → precharge of the written bank (write recovery).
    pub t_wr: u64,
    /// Read command → precharge of the read bank.
    pub t_rtp: u64,
    /// End of write data → next read command on the channel.
    pub t_wtr: u64,
    /// Fixed front-end latency added to every completed request, modeling the
    /// on-chip controller and interconnect between the L2 and the DRAM
    /// controller. Calibrated so an uncontended row-hit round trip is
    /// ≈ 160 cycles (40 ns) as in the paper's Table 2.
    pub front_latency: u64,
    /// Open-page grace: after a column access, the controller holds the row
    /// open for this long before allowing a precharge (speculative open-row
    /// policy). Not a device constraint — a controller policy knob.
    pub t_row_grace: u64,
    /// Four-activate window: at most four `ACT`s may issue to a rank within
    /// any window of this length (0 disables the constraint).
    pub t_faw: u64,
    /// Average refresh interval: the controller must issue one all-bank
    /// refresh every `t_refi` cycles (0 disables refresh).
    pub t_refi: u64,
    /// Refresh cycle time: the rank is unavailable for this long after a
    /// refresh begins.
    pub t_rfc: u64,
    /// Rank-to-rank switch time: extra gap on the shared data bus when
    /// consecutive data transfers come from *different* ranks of the same
    /// channel (bus turnaround / ODT settling). Irrelevant on single-rank
    /// channels.
    pub t_rtrs: u64,
}

impl TimingParams {
    /// DDR2-800 parameters from the paper's Table 2, in 4 GHz processor
    /// cycles (1 ns = 4 cycles).
    #[must_use]
    pub fn ddr2_800() -> Self {
        TimingParams {
            t_rcd: 60,
            t_cl: 60,
            t_cwl: 50,
            t_rp: 60,
            t_ras: 180,
            t_rc: 240,
            t_burst: 40,
            t_ccd: 20,
            t_rrd: 30,
            t_wr: 60,
            t_rtp: 30,
            t_wtr: 30,
            front_latency: 60,
            t_row_grace: 200,
            // DDR2-800 datasheet values: tFAW = 37.5 ns, tREFI = 7.8 us,
            // tRFC = 127.5 ns (1 Gb parts), in 4 GHz cycles.
            t_faw: 150,
            t_refi: 31_200,
            t_rfc: 510,
            // One DDR2 command clock (5 ns at DDR2-800 ≈ 2 beats) of bus
            // turnaround between ranks, in 4 GHz cycles.
            t_rtrs: 20,
        }
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relationship
    /// (e.g. `t_rc < t_ras + t_rp`, or a zero burst length).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_burst == 0 {
            return Err("t_burst must be positive".into());
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "t_rc ({}) must be at least t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_ras < self.t_rcd {
            return Err(format!("t_ras ({}) must be at least t_rcd ({})", self.t_ras, self.t_rcd));
        }
        Ok(())
    }

    /// Latency of an uncontended **row-hit** read, from command issue to the
    /// last data beat (excluding [`TimingParams::front_latency`]).
    #[must_use]
    pub fn row_hit_latency(&self) -> u64 {
        self.t_cl + self.t_burst
    }

    /// Latency of an uncontended **row-closed** read (activate first).
    #[must_use]
    pub fn row_closed_latency(&self) -> u64 {
        self.t_rcd + self.row_hit_latency()
    }

    /// Latency of an uncontended **row-conflict** read (precharge, activate,
    /// then read).
    #[must_use]
    pub fn row_conflict_latency(&self) -> u64 {
        self.t_rp + self.row_closed_latency()
    }

    /// DRAM time one command of `kind` costs: tRCD for an activate, tRP for
    /// a precharge, CAS latency plus burst for a column command, tRFC for a
    /// refresh. ATLAS charges it as attained service, STFM as interference.
    #[must_use]
    pub fn command_latency(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Activate => self.t_rcd,
            CommandKind::Precharge => self.t_rp,
            CommandKind::Read | CommandKind::Write => self.row_hit_latency(),
            CommandKind::Refresh => self.t_rfc,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr2_800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr2_800_is_valid() {
        TimingParams::ddr2_800().validate().unwrap();
    }

    #[test]
    fn latency_ladder_matches_row_buffer_categories() {
        let t = TimingParams::ddr2_800();
        // hit < closed < conflict, spaced by tRCD and tRP.
        assert_eq!(t.row_hit_latency(), 100);
        assert_eq!(t.row_closed_latency(), 160);
        assert_eq!(t.row_conflict_latency(), 220);
    }

    #[test]
    fn round_trip_hit_is_about_160_cycles() {
        let t = TimingParams::ddr2_800();
        assert_eq!(t.row_hit_latency() + t.front_latency, 160);
    }

    #[test]
    fn validate_rejects_inconsistent_trc() {
        let mut t = TimingParams::ddr2_800();
        t.t_rc = 10;
        assert!(t.validate().is_err());
    }

    #[test]
    fn refresh_parameters_are_sane() {
        let t = TimingParams::ddr2_800();
        assert!(t.t_refi > 10 * t.t_rfc, "refresh overhead must be a small fraction");
        assert!(t.t_faw >= t.t_rrd, "tFAW cannot be tighter than tRRD");
    }

    #[test]
    fn validate_rejects_zero_burst() {
        let mut t = TimingParams::ddr2_800();
        t.t_burst = 0;
        assert!(t.validate().is_err());
    }
}
