//! Simulation configuration.

use parbs::ThreadPriority;
use parbs_cpu::CoreConfig;
use parbs_dram::DramConfig;
use parbs_workloads::StreamGeometry;

/// Everything needed to run one simulation: system shape, run length, and
/// per-thread QoS settings.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores (threads).
    pub cores: usize,
    /// DRAM system configuration (channels scale with cores per Table 2).
    pub dram: DramConfig,
    /// Core microarchitecture.
    pub core: CoreConfig,
    /// Instructions each thread must commit before its measurement is
    /// snapshotted. The paper uses 150 M-instruction trace slices; the
    /// default here is scaled down for laptop-scale sweeps — all schedulers
    /// see identical streams, so relative comparisons are preserved.
    pub target_instructions: u64,
    /// Hard cycle cap (deadlock/pathology guard).
    pub max_cycles: u64,
    /// Seed for workload generation.
    pub seed: u64,
    /// NFQ/STFM share weights per thread (empty = all 1.0).
    pub thread_weights: Vec<f64>,
    /// PAR-BS priority levels per thread (empty = all level 1).
    pub thread_priorities: Vec<ThreadPriority>,
    /// Verify every DRAM command against the protocol checker (panics on a
    /// timing violation). Slower; intended for tests.
    pub check_protocol: bool,
}

impl SimConfig {
    /// Table 2 configuration for `cores` ∈ {4, 8, 16}: DDR2-800 channels
    /// scaled 1/2/4, 128-entry windows, 32 MSHRs.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn for_cores(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        SimConfig {
            cores,
            dram: DramConfig::for_cores(cores),
            core: CoreConfig::table2(),
            target_instructions: 30_000,
            max_cycles: 200_000_000,
            seed: 0x5EED,
            thread_weights: Vec::new(),
            thread_priorities: Vec::new(),
            check_protocol: false,
        }
    }

    /// The stream geometry matching this configuration.
    #[must_use]
    pub fn geometry(&self) -> StreamGeometry {
        StreamGeometry::of(&self.dram)
    }

    /// The priority level of `thread` (default level 1).
    #[must_use]
    pub fn priority_of(&self, thread: usize) -> ThreadPriority {
        self.thread_priorities.get(thread).copied().unwrap_or_default()
    }

    /// The NFQ/STFM weight of `thread` (default 1.0).
    #[must_use]
    pub fn weight_of(&self, thread: usize) -> f64 {
        self.thread_weights.get(thread).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_scale_with_cores() {
        assert_eq!(SimConfig::for_cores(4).dram.channels(), 1);
        assert_eq!(SimConfig::for_cores(8).dram.channels(), 2);
        assert_eq!(SimConfig::for_cores(16).dram.channels(), 4);
    }

    #[test]
    fn defaults_are_neutral() {
        let c = SimConfig::for_cores(4);
        assert_eq!(c.weight_of(3), 1.0);
        assert_eq!(c.priority_of(3), ThreadPriority::Level1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SimConfig::for_cores(0);
    }
}
