//! Property-based tests on the synthetic stream generator: every profile,
//! at any seed, produces streams with the promised structural properties.

use parbs_cpu::{Instr, InstructionStream};
use parbs_dram::{AddressMapper, DramConfig};
use parbs_workloads::{all_benchmarks, StreamGeometry, SyntheticStream};
use proptest::prelude::*;

fn is_load(i: &Instr) -> bool {
    matches!(i, Instr::Load(_) | Instr::DependentLoad(_))
}

/// The stream geometry of Table 2's 4-core DRAM system.
fn baseline() -> StreamGeometry {
    StreamGeometry::of(&DramConfig::baseline_4core())
}

fn line_of(i: &Instr) -> Option<u64> {
    match i {
        Instr::Load(l) | Instr::DependentLoad(l) | Instr::Store(l) => Some(*l),
        Instr::Compute => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_profile_any_seed_stays_in_region(
        bench_idx in 0usize..28,
        seed in any::<u64>(),
        salt in 0u64..16,
    ) {
        let bench = &all_benchmarks()[bench_idx];
        let geometry = baseline();
        let mapper = AddressMapper::canonical(1, 8, 32).unwrap();
        let mut s = SyntheticStream::new(bench, geometry, seed, salt);
        let base = salt * geometry.region_rows;
        for _ in 0..20_000 {
            if let Some(line) = line_of(&s.next_instr()) {
                let a = mapper.decode(line);
                prop_assert!(
                    a.row >= base && a.row < base + geometry.region_rows,
                    "{}: row {} outside region [{}, {})",
                    bench.name, a.row, base, base + geometry.region_rows
                );
            }
        }
    }

    #[test]
    fn mpki_tracks_target_for_intensive_profiles(
        bench_idx in 0usize..28,
        seed in any::<u64>(),
    ) {
        let bench = &all_benchmarks()[bench_idx];
        // Only check profiles intense enough for tight statistics.
        prop_assume!(bench.mpki >= 5.0);
        let mut s = SyntheticStream::new(bench, baseline(), seed, 0);
        let n = 300_000usize;
        let loads = (0..n).filter(|_| is_load(&s.next_instr())).count();
        let measured = loads as f64 * 1000.0 / n as f64;
        prop_assert!(
            (measured - bench.mpki).abs() / bench.mpki < 0.2,
            "{}: measured MPKI {measured:.2} vs target {:.2}",
            bench.name, bench.mpki
        );
    }

    #[test]
    fn multi_channel_geometry_covers_all_channels(seed in any::<u64>()) {
        let geometry = StreamGeometry::of(&DramConfig::for_cores(16));
        let mapper = AddressMapper::canonical(geometry.channels, geometry.banks_per_channel, 32).unwrap();
        let bench = parbs_workloads::by_name("mcf").unwrap();
        let mut s = SyntheticStream::new(bench, geometry, seed, 0);
        let mut seen = vec![false; geometry.channels];
        for _ in 0..100_000 {
            if let Some(line) = line_of(&s.next_instr()) {
                seen[mapper.decode(line).channel] = true;
            }
        }
        prop_assert!(seen.iter().all(|&c| c), "mcf should touch all {} channels", geometry.channels);
    }

    #[test]
    fn pointer_chasers_fence_every_episode(seed in any::<u64>()) {
        // mcf has stream depth 1: every burst's first load is dependent.
        let bench = parbs_workloads::by_name("mcf").unwrap();
        prop_assume!(bench.stream_depth() == 1);
        let mut s = SyntheticStream::new(bench, baseline(), seed, 0);
        let mut saw_fence = false;
        let mut independent_run = 0usize;
        let mut max_run = 0usize;
        for _ in 0..50_000 {
            match s.next_instr() {
                Instr::DependentLoad(_) => {
                    saw_fence = true;
                    independent_run = 0;
                }
                Instr::Load(_) => {
                    independent_run += 1;
                    max_run = max_run.max(independent_run);
                }
                _ => {}
            }
        }
        prop_assert!(saw_fence, "mcf must emit dependence fences");
        // Independent loads between fences are bounded by the burst width.
        prop_assert!(max_run <= 8, "independent run {max_run} exceeds burst bound");
    }
}

#[test]
fn streaming_profiles_keep_multiple_episodes_in_flight() {
    // libquantum (depth 12): fences are rare relative to loads.
    let bench = parbs_workloads::by_name("libquantum").unwrap();
    assert!(bench.stream_depth() > 1);
    let mut s = SyntheticStream::new(bench, baseline(), 3, 0);
    let (mut fences, mut loads) = (0u32, 0u32);
    for _ in 0..200_000 {
        match s.next_instr() {
            Instr::DependentLoad(_) => fences += 1,
            Instr::Load(_) => loads += 1,
            _ => {}
        }
    }
    assert!(loads > fences * 4, "streaming: {loads} independent vs {fences} fences");
}
