//! Checkpointing: freeze a run mid-flight and resume it byte-identically.
//!
//! A checkpoint is a self-describing binary blob:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PARBSCKP"
//! 8       4     format version (little-endian u32, currently 3)
//! 12      8     fingerprint (little-endian u64): FNV-1a over the full
//!               SimConfig debug rendering, every channel's scheduler
//!               name, and the workload label
//! 20      ...   RunProgress state (parbs-snap codec): target, per-thread
//!               snapshot options, remaining count, cycle, timed-out flag
//! ...     ...   System state: per-thread stall feedback, per-thread
//!               worst-case latency, then every core's state
//! ...     ...   Memory-side state: next request id, in-flight reads
//!               (sorted by request id, each with its core and miss), then
//!               every controller's state
//! ```
//!
//! Version 3 groups the memory side's state after the cores and drops the
//! completion buffer (empty between cycles) and the controller statistics
//! nothing read. Version 2 dropped per-thread BLP trackers. Blobs of
//! earlier versions are rejected with [`CheckpointError::BadVersion`].
//!
//! The fingerprint binds the blob to the exact system shape it was saved
//! from: restoring into a system with a different configuration, scheduler,
//! or workload is rejected with [`CheckpointError::FingerprintMismatch`]
//! instead of silently desynchronizing. Restores go *into* a freshly built
//! [`System`] (same config, streams, scheduler) — the snapshot carries only
//! mutable state, never code or configuration.

use parbs_snap::{SnapError, SnapReader, SnapWriter};

use crate::{RunProgress, System};

/// Magic bytes opening every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"PARBSCKP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why a checkpoint could not be saved or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The blob's format version is not [`CHECKPOINT_VERSION`].
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The blob was saved from a different system shape (configuration,
    /// scheduler, or workload).
    FingerprintMismatch {
        /// The fingerprint of the restoring system.
        expected: u64,
        /// The fingerprint in the header.
        found: u64,
    },
    /// The system cannot be checkpointed in its current state (protocol
    /// checker or observability sink attached).
    Unsupported(&'static str),
    /// The blob's body failed to decode.
    Corrupt(SnapError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a PAR-BS checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (expected {CHECKPOINT_VERSION})")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint was saved from a different system \
                 (fingerprint {found:#018x}, this system is {expected:#018x})"
            ),
            CheckpointError::Unsupported(what) => write!(f, "cannot checkpoint: {what}"),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> Self {
        match e {
            SnapError::Unsupported(what) => CheckpointError::Unsupported(what),
            other => CheckpointError::Corrupt(other),
        }
    }
}

impl System {
    /// Serializes the run into a checkpoint blob: header (magic, version,
    /// fingerprint) followed by the full mutable state of `progress` and
    /// the system. `label` names the workload (the mix) and is folded into
    /// the fingerprint so a checkpoint can only resume the same run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a controller has a protocol
    /// checker or observability sink attached — both hold state outside the
    /// snapshot format.
    pub fn save_checkpoint(
        &self,
        progress: &RunProgress,
        label: &str,
    ) -> Result<Vec<u8>, CheckpointError> {
        let mut w = SnapWriter::new();
        w.raw(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u64(self.state_fingerprint(label));
        progress.save_state(&mut w);
        self.save_state(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Restores a checkpoint saved by [`System::save_checkpoint`] into this
    /// freshly built system (same configuration, streams, and scheduler)
    /// and returns the [`RunProgress`] to continue stepping from.
    ///
    /// # Errors
    ///
    /// Rejects blobs with a wrong magic, version, or fingerprint, and blobs
    /// whose body fails to decode or does not match this system's shape.
    pub fn resume(&mut self, bytes: &[u8], label: &str) -> Result<RunProgress, CheckpointError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.raw(CHECKPOINT_MAGIC.len()).map_err(|_| CheckpointError::BadMagic)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let expected = self.state_fingerprint(label);
        let found = r.u64()?;
        if found != expected {
            return Err(CheckpointError::FingerprintMismatch { expected, found });
        }
        let progress = RunProgress::load_state(&mut r)?;
        self.restore_state(&mut r)?;
        r.expect_end()?;
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedulerKind, SimConfig};
    use parbs_cpu::InstructionStream;
    use parbs_workloads::{by_name, SyntheticStream};

    fn quick_cfg(cores: usize) -> SimConfig {
        SimConfig { target_instructions: 1_200, ..SimConfig::for_cores(cores) }
    }

    fn streams(names: &[&str], cfg: &SimConfig) -> Vec<Box<dyn InstructionStream>> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(SyntheticStream::new(
                    by_name(n).unwrap(),
                    cfg.geometry(),
                    cfg.seed,
                    i as u64,
                )) as Box<dyn InstructionStream>
            })
            .collect()
    }

    fn build(kind: &SchedulerKind) -> System {
        let cfg = quick_cfg(4);
        let s = streams(&["mcf", "libquantum", "lbm", "hmmer"], &cfg);
        System::new(cfg, s, kind)
    }

    #[test]
    fn interrupted_run_resumes_byte_identically() {
        for kind in SchedulerKind::all() {
            // Uninterrupted reference run.
            let mut reference = build(&kind);
            let expected = reference.run();

            // Run 5000 cycles, checkpoint, resume into a fresh system.
            let mut first = build(&kind);
            let mut progress = first.begin_run();
            for _ in 0..5_000 {
                if !first.step_cycle(&mut progress) {
                    break;
                }
            }
            let blob = first.save_checkpoint(&progress, "test-mix").unwrap();
            drop(first);

            let mut second = build(&kind);
            let mut progress = second.resume(&blob, "test-mix").unwrap();
            while second.step_cycle(&mut progress) {}
            let resumed = second.finish_run(progress);
            assert_eq!(resumed, expected, "{} diverged after resume", kind.name());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut sys = build(&SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        let mut blob = sys.save_checkpoint(&progress, "m").unwrap();
        blob[0] ^= 0xFF;
        assert_eq!(sys.resume(&blob, "m"), Err(CheckpointError::BadMagic));
        assert_eq!(sys.resume(b"short", "m"), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut sys = build(&SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        let mut blob = sys.save_checkpoint(&progress, "m").unwrap();
        blob[8] = 99;
        assert_eq!(sys.resume(&blob, "m"), Err(CheckpointError::BadVersion { found: 99 }));
    }

    #[test]
    fn version_2_blobs_are_rejected() {
        let mut sys = build(&SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        let mut blob = sys.save_checkpoint(&progress, "m").unwrap();
        blob[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(sys.resume(&blob, "m"), Err(CheckpointError::BadVersion { found: 2 }));
    }

    #[test]
    fn wrong_system_or_label_is_rejected() {
        let mut sys = build(&SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        let blob = sys.save_checkpoint(&progress, "m").unwrap();
        // Same blob, different workload label.
        assert!(matches!(
            sys.resume(&blob, "other-mix"),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // Same label, different scheduler.
        let mut other = build(&SchedulerKind::Fcfs);
        assert!(matches!(
            other.resume(&blob, "m"),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn truncated_body_is_rejected_as_corrupt() {
        let mut sys = build(&SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        let blob = sys.save_checkpoint(&progress, "m").unwrap();
        let truncated = &blob[..blob.len() - 7];
        assert!(matches!(sys.resume(truncated, "m"), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn protocol_checked_systems_refuse_to_checkpoint() {
        let cfg = SimConfig { check_protocol: true, ..quick_cfg(4) };
        let s = streams(&["mcf", "libquantum", "lbm", "hmmer"], &cfg);
        let sys = System::new(cfg, s, &SchedulerKind::FrFcfs);
        let progress = sys.begin_run();
        assert!(matches!(
            sys.save_checkpoint(&progress, "m"),
            Err(CheckpointError::Unsupported(_))
        ));
    }
}
