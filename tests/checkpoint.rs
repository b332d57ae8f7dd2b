//! Property tests for the checkpoint format: save → resume → save is a
//! byte-level fixed point, a resumed run finishes exactly like the
//! uninterrupted one, and damaged blobs — truncated at any point, or with
//! any header byte flipped — are rejected with the *typed*
//! [`CheckpointError`] for the damaged field, never accepted silently.

use parbs_sim::{CheckpointError, Harness, SchedulerKind, SimConfig, System};
use parbs_workloads::{all_benchmarks, MixSpec};
use proptest::prelude::*;

fn quick_harness(target: u64) -> Harness {
    Harness::new(SimConfig { target_instructions: target, ..SimConfig::for_cores(4) })
}

/// Derives a 4-thread mix from a seed: four benchmarks picked from the
/// full table by independent bytes of the seed.
fn mix_from(seed: u64) -> MixSpec {
    let all = all_benchmarks();
    let names: Vec<&str> =
        (0..4).map(|i| all[((seed >> (8 * i)) as usize ^ i) % all.len()].name).collect();
    MixSpec::from_names("prop", &names)
}

/// Picks one of the schedulers of [`SchedulerKind::all`].
fn kind_from(pick: u8) -> SchedulerKind {
    let mut all = SchedulerKind::all();
    let n = all.len();
    all.swap_remove(pick as usize % n)
}

/// Runs `sys` for up to `cut` cycles and checkpoints it there.
fn checkpoint_at(sys: &mut System, cut: u64, label: &str) -> Vec<u8> {
    let mut progress = sys.begin_run();
    for _ in 0..cut {
        if !sys.step_cycle(&mut progress) {
            break;
        }
    }
    sys.save_checkpoint(&progress, label).expect("plain systems are checkpointable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn save_resume_save_is_a_fixed_point_and_finishes_identically(
        seed in any::<u64>(),
        pick in any::<u8>(),
        cut in 500u64..6_000,
    ) {
        let harness = quick_harness(600);
        let mix = mix_from(seed);
        let kind = kind_from(pick);
        let mut straight = harness.shared_system(&mix, &kind, &Default::default());
        let expected = straight.run();

        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let blob = checkpoint_at(&mut sys, cut, "prop");

        // Resume into a freshly built system: re-saving immediately must
        // reproduce the blob byte for byte (the codec is canonical).
        let mut clone = harness.shared_system(&mix, &kind, &Default::default());
        let restored = clone.resume(&blob, "prop").expect("self-resume succeeds");
        let blob2 = clone.save_checkpoint(&restored, "prop").expect("still checkpointable");
        prop_assert_eq!(&blob, &blob2, "save -> resume -> save drifted");

        // ... and running the restored system to completion matches the
        // uninterrupted run exactly.
        let mut progress = restored;
        while clone.step_cycle(&mut progress) {}
        prop_assert_eq!(clone.finish_run(progress), expected);
    }

    #[test]
    fn resume_preserves_priority_keys_for_every_scheduler(
        seed in any::<u64>(),
        cut in 500u64..4_000,
    ) {
        // The scheduler-observable state is the packed priority key of
        // every queued read: if save/resume preserves those bit for bit,
        // the restored scheduler makes exactly the decisions the saved one
        // would have. Checked across every scheduler.
        let harness = quick_harness(600);
        let mix = mix_from(seed);
        for kind in SchedulerKind::all() {
            let mut sys = harness.shared_system(&mix, &kind, &Default::default());
            let mut progress = sys.begin_run();
            for _ in 0..cut {
                if !sys.step_cycle(&mut progress) {
                    break;
                }
            }
            let now = progress.cycles();
            let blob = sys.save_checkpoint(&progress, "keys").expect("checkpointable");
            let expected = sys.priority_keys(now);

            let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
            let restored = fresh.resume(&blob, "keys").expect("self-resume succeeds");
            prop_assert_eq!(restored.cycles(), now);
            let got = fresh.priority_keys(now);
            prop_assert_eq!(
                &expected,
                &got,
                "{} priority keys drifted across save/resume",
                kind.name()
            );
        }
    }

    #[test]
    fn any_strict_prefix_of_a_checkpoint_is_rejected(
        seed in any::<u64>(),
        cut_at in any::<u64>(),
    ) {
        let harness = quick_harness(400);
        let mix = mix_from(seed);
        let kind = kind_from((seed >> 32) as u8);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let blob = checkpoint_at(&mut sys, 1_500, "prop");

        let truncated = &blob[..(cut_at as usize) % blob.len()];
        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        match fresh.resume(truncated, "prop") {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "accepted a {}-of-{} byte prefix", truncated.len(), blob.len()),
        }
    }

    #[test]
    fn header_byte_flips_are_rejected_with_the_typed_error(
        seed in any::<u64>(),
        byte in 0usize..20,
        flip in any::<u8>(),
    ) {
        let harness = quick_harness(400);
        let mix = mix_from(seed);
        let kind = kind_from((seed >> 16) as u8);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let mut blob = checkpoint_at(&mut sys, 1_500, "prop");
        blob[byte] ^= flip.max(1);

        // Header layout: magic [0, 8), version [8, 12), fingerprint [12, 20).
        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        let err = fresh.resume(&blob, "prop").expect_err("corrupt header accepted");
        let typed_ok = matches!(
            (byte, &err),
            (0..=7, CheckpointError::BadMagic)
                | (8..=11, CheckpointError::BadVersion { .. })
                | (12..=19, CheckpointError::FingerprintMismatch { .. })
        );
        prop_assert!(typed_ok, "byte {byte} flip produced the wrong error: {err}");
    }

    #[test]
    fn a_checkpoint_never_restores_under_a_different_label(
        seed in any::<u64>(),
        pick in any::<u8>(),
    ) {
        let harness = quick_harness(400);
        let mix = mix_from(seed);
        let kind = kind_from(pick);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let blob = checkpoint_at(&mut sys, 1_500, "mix-a");
        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        let err = fresh.resume(&blob, "mix-b").expect_err("label mismatch accepted");
        prop_assert!(
            matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "expected a fingerprint mismatch, got: {err}"
        );
    }
}
