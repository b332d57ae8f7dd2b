//! Property tests for the checkpoint format: save → resume → save is a
//! byte-level fixed point, a resumed run finishes exactly like the
//! uninterrupted one, and damaged blobs — truncated at any point, with any
//! header byte flipped, or with any body bit flipped — are rejected with
//! the *typed* [`CheckpointError`] for the damaged field, never accepted
//! silently and never with a panic. A body altered and re-sealed with a
//! valid digest gets past that check; its resume must still end in an
//! error or a finished run, never a panic or an abort. Below the checkpoint
//! format, the `parbs-snap` decoders of the composite types a body holds
//! take random bytes and single-byte mutations of valid encodings, and
//! give a value or a typed [`SnapError`].

use std::collections::{HashMap, HashSet, VecDeque};

use parbs_cpu::{CoreStats, Instr, MissId};
use parbs_dram::{
    Bank, Completion, ControllerStats, LineAddr, Request, RequestId, RequestKind, ThreadId,
    TimingParams,
};
use parbs_metrics::LatencyHistogram;
use parbs_sim::{CheckpointError, Harness, SchedulerKind, SimConfig, System};
use parbs_snap::{Fingerprint, Snap, SnapError, SnapReader, SnapWriter};
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

/// Header layout: magic [0, 8), version [8, 12), fingerprint [12, 20), body
/// digest [20, 28); the body follows.
const HEADER: usize = 28;

/// True for the error a body that misses its digest gives.
fn is_digest_mismatch(err: &CheckpointError) -> bool {
    matches!(
        err,
        CheckpointError::Corrupt(SnapError::Mismatch { what: "checkpoint body digest", .. })
    )
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
        byte in 0usize..HEADER,
        flip in any::<u8>(),
    ) {
        let harness = quick_harness(400);
        let mix = mix_from(seed);
        let kind = kind_from((seed >> 16) as u8);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let mut blob = checkpoint_at(&mut sys, 1_500, "prop");
        blob[byte] ^= flip.max(1);

        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        let err = fresh.resume(&blob, "prop").expect_err("corrupt header accepted");
        let typed_ok = matches!(
            (byte, &err),
            (0..=7, CheckpointError::BadMagic)
                | (8..=11, CheckpointError::BadVersion { .. })
                | (12..=19, CheckpointError::FingerprintMismatch { .. })
        ) || ((20..HEADER).contains(&byte) && is_digest_mismatch(&err));
        prop_assert!(typed_ok, "byte {byte} flip produced the wrong error: {err}");
    }

    #[test]
    fn body_bit_flips_are_rejected_before_decoding(
        seed in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let harness = quick_harness(400);
        let mix = mix_from(seed);
        let kind = kind_from((seed >> 40) as u8);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let mut blob = checkpoint_at(&mut sys, 1_500, "prop");
        let i = HEADER + (at as usize) % (blob.len() - HEADER);
        blob[i] ^= 1 << bit;

        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        let err = fresh.resume(&blob, "prop").expect_err("a damaged body was accepted");
        prop_assert!(is_digest_mismatch(&err), "body byte {i} bit {bit}: {err}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn resealed_body_bit_flips_resume_to_an_error_or_a_finished_run(
        seed in any::<u64>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        // The cut falls mid-run; the cycle cap a few thousand cycles past
        // it bounds a run that a flipped cycle count or instruction counter
        // would stretch.
        const CUT: u64 = 1_500;
        let cfg = SimConfig {
            target_instructions: 10_000,
            max_cycles: CUT + 3_000,
            ..SimConfig::for_cores(4)
        };
        let harness = Harness::new(cfg);
        let mix = mix_from(seed);
        let kind = kind_from((seed >> 24) as u8);
        let mut sys = harness.shared_system(&mix, &kind, &Default::default());
        let mut blob = checkpoint_at(&mut sys, CUT, "prop");
        let i = HEADER + (at as usize) % (blob.len() - HEADER);
        blob[i] ^= 1 << bit;
        let mut digest = Fingerprint::new();
        digest.update(&blob[HEADER..]);
        blob[20..HEADER].copy_from_slice(&digest.digest().to_le_bytes());

        let mut fresh = harness.shared_system(&mix, &kind, &Default::default());
        if let Ok(mut progress) = fresh.resume(&blob, "prop") {
            while fresh.step_cycle(&mut progress) {}
            let _ = fresh.finish_run(progress);
        }
    }
}

/// Decodes `bytes` as a `T`, as a checkpoint body decodes one field. The
/// decode gives a value or a typed [`SnapError`]; a panic fails the test.
/// A value holds no more elements (`len`) than `bytes` has bytes, because
/// a decoder sizes nothing by an encoded length before checking it against
/// the bytes left. It also re-encodes to exactly the bytes it consumed:
/// every value has one encoding, so a map or set whose keys repeat or are
/// out of order is refused rather than read. Gives the bytes a decoded
/// value consumed.
fn decode_as<T: Snap>(bytes: &[u8], len: fn(&T) -> usize) -> Decoded {
    let mut r = SnapReader::new(bytes);
    let value = match r.get::<T>() {
        Ok(value) => value,
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
            return Ok(None);
        }
    };
    let name = std::any::type_name::<T>();
    prop_assert!(
        len(&value) <= bytes.len(),
        "{name}: {} elements from {} bytes",
        len(&value),
        bytes.len()
    );
    let used = bytes.len() - r.remaining();
    let mut w = SnapWriter::new();
    w.put(&value);
    prop_assert!(w.into_bytes() == bytes[..used], "{name}: a decoded value re-encodes differently");
    Ok(Some(used))
}

/// The bytes a decode consumed, `None` when it gave a [`SnapError`].
type Decoded = Result<Option<usize>, TestCaseError>;

/// A decoder of one composite checkpoint type, and a valid encoding of a
/// value of that type.
struct Field {
    decode: fn(&[u8]) -> Decoded,
    sample: Vec<u8>,
}

fn field<T: Snap>(decode: fn(&[u8]) -> Decoded, value: &T) -> Field {
    let mut w = SnapWriter::new();
    w.put(value);
    Field { decode, sample: w.into_bytes() }
}

fn request(id: u64, thread: usize, bank: usize, kind: RequestKind) -> Request {
    let addr = LineAddr { channel: 0, bank, row: 7 * id, col: id % 3 };
    let mut r = Request::new(id, ThreadId(thread), addr, kind, 40 * id);
    r.marked = id.is_multiple_of(2);
    r.started = id.is_multiple_of(3);
    r.priority_level = if thread == 3 { None } else { Some(1 + thread as u8) };
    r
}

/// The composite types a checkpoint body decodes: the controller's queues,
/// completions and statistics, a channel's banks (one open, one closed), a
/// core's statistics, a stream's queued instructions (every variant) and a
/// latency histogram, and every hashed map and set (PAR-BS's ranks and
/// granted budgets, NFQ's clocks, deadlines and weights, BLISS's blacklist
/// and the memory side's in-flight reads).
fn fields() -> Vec<Field> {
    let threads = [0usize, 2, 3, 40_000];
    let requests: Vec<Request> = (0..4)
        .map(|i| request(i, threads[i as usize], i as usize * 2, RequestKind::Read))
        .chain([request(9, 1, 5, RequestKind::Write)])
        .collect();
    let completions: Vec<Completion> = requests
        .iter()
        .map(|r| Completion {
            request: r.id,
            thread: r.thread,
            kind: r.kind,
            arrival: r.arrival,
            finish: r.arrival + 90,
        })
        .collect();
    let ranks: HashMap<ThreadId, u32> =
        threads.iter().enumerate().map(|(rank, &t)| (ThreadId(t), rank as u32)).collect();
    let granted: HashMap<ThreadId, Vec<u32>> =
        threads.iter().map(|&t| (ThreadId(t), vec![1, 0, (t % 5) as u32])).collect();
    let clocks: HashMap<(ThreadId, usize), f64> = threads
        .iter()
        .flat_map(|&t| (0..3).map(move |b| ((ThreadId(t), b), (t + b) as f64 * 12.5)))
        .collect();
    let deadlines: HashMap<RequestId, f64> =
        requests.iter().map(|r| (r.id, r.arrival as f64 + 0.25)).collect();
    let weights: HashMap<ThreadId, f64> =
        threads.iter().map(|&t| (ThreadId(t), 1.0 + t as f64)).collect();
    let blacklist: HashSet<ThreadId> = threads.iter().map(|&t| ThreadId(t)).collect();
    let inflight: HashMap<u64, (usize, MissId)> =
        (0..5).map(|i| (3 * i + 1, (i as usize % 4, MissId(100 + i)))).collect();
    let mut histogram = LatencyHistogram::default();
    for latency in [90, 400, 7_406] {
        histogram.record(latency);
    }
    let mut open = Bank::new();
    open.activate(12, ThreadId(2), 30, &TimingParams::ddr2_800());
    let banks = vec![open, Bank::new()];
    let instrs = vec![Instr::Compute, Instr::Load(5), Instr::DependentLoad(77), Instr::Store(9)];
    let misc: (Option<u64>, VecDeque<bool>) = (Some(5), [true, false, true].into());
    vec![
        field(|b| decode_as(b, Vec::<Request>::len), &requests),
        field(|b| decode_as(b, Vec::<Completion>::len), &completions),
        field(|b| decode_as(b, |_: &ControllerStats| 0), &ControllerStats::default()),
        field(|b| decode_as(b, Vec::<Bank>::len), &banks),
        field(|b| decode_as(b, |_: &CoreStats| 0), &CoreStats::default()),
        field(|b| decode_as(b, Vec::<Instr>::len), &instrs),
        field(|b| decode_as(b, |_: &LatencyHistogram| 0), &histogram),
        field(|b| decode_as(b, HashMap::<ThreadId, u32>::len), &ranks),
        field(
            |b| decode_as(b, |m: &HashMap<ThreadId, Vec<u32>>| m.values().map(Vec::len).sum()),
            &granted,
        ),
        field(|b| decode_as(b, HashMap::<(ThreadId, usize), f64>::len), &clocks),
        field(|b| decode_as(b, HashMap::<RequestId, f64>::len), &deadlines),
        field(|b| decode_as(b, HashMap::<ThreadId, f64>::len), &weights),
        field(|b| decode_as(b, HashSet::<ThreadId>::len), &blacklist),
        field(|b| decode_as(b, HashMap::<u64, (usize, MissId)>::len), &inflight),
        field(|b| decode_as(b, |(_, q): &(Option<u64>, VecDeque<bool>)| q.len()), &misc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn snap_decoders_give_a_value_or_a_typed_error_on_random_bytes(
        len in 0u8..6,
        body in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        // Raw random bytes almost always start with a huge length; a small
        // length prefix also drives the element decoders.
        let mut prefixed = u64::from(len).to_le_bytes().to_vec();
        prefixed.extend_from_slice(&body);
        for f in fields() {
            (f.decode)(&body)?;
            (f.decode)(&prefixed)?;
        }
    }

    #[test]
    fn snap_decoders_give_a_value_or_a_typed_error_on_mutated_encodings(
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let fields = fields();
        for f in &fields {
            let mut bytes = f.sample.clone();
            let i = at % bytes.len();
            bytes[i] ^= xor;
            for g in &fields {
                (g.decode)(&bytes)?;
            }
        }
    }
}

#[test]
fn the_snap_decoders_read_every_sample_whole() {
    for f in fields() {
        let used = (f.decode)(&f.sample).unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(used, Some(f.sample.len()), "a valid encoding decodes to its end");
    }
}
