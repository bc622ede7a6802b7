//! Cross-crate integration tests: every decoder, the Monte-Carlo harness, the
//! hardware characterisation and the system-level analyses working together.

use nisqplus_core::{DecoderModuleHardware, DecoderVariant, SfqMeshDecoder};
use nisqplus_decoders::{
    Decoder, DynDecoder, ExactMatchingDecoder, GreedyMatchingDecoder, LookupDecoder,
    UnionFindDecoder,
};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_residual, LogicalState};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_runtime::ThrottledDecoder;
use nisqplus_sim::monte_carlo::{run_lifetime, run_sfq_lifetime, MonteCarloConfig};
use nisqplus_sim::timing::CycleTimeConverter;
use nisqplus_system::backlog::BacklogModel;
use nisqplus_system::standard_benchmarks;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every decoder in the workspace, run as a `DynDecoder`, keeps the `Decoder`
/// contract on the same random errors: `decode_into` resets a stale buffer
/// of the wrong size, a second decode of a syndrome (a memo hit for
/// union-find's 1–4-defect sectors) equals the first, `decode` returns the
/// same flips, and every correction returns the state to the codespace.
#[test]
fn all_decoders_handle_the_same_errors() {
    // Each decoder with whether it promises to clear every syndrome: the
    // mesh variants short of the final design can stall with defects left.
    let decoders_at = |lattice: &Lattice| -> Vec<(DynDecoder, bool)> {
        let mut decoders: Vec<(DynDecoder, bool)> = vec![
            (Box::new(ExactMatchingDecoder::new()), true),
            (Box::new(GreedyMatchingDecoder::new()), true),
            (Box::new(UnionFindDecoder::new()), true),
            (
                Box::new(ThrottledDecoder::new(UnionFindDecoder::new(), 0)),
                true,
            ),
        ];
        decoders.extend(DecoderVariant::ALL.iter().map(|&v| {
            let mesh: DynDecoder = Box::new(SfqMeshDecoder::new(v));
            (mesh, v == DecoderVariant::Final)
        }));
        if lattice.distance() == 3 {
            decoders.push((Box::new(LookupDecoder::new(lattice).unwrap()), true));
        }
        decoders
    };
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let mut memo_sized = 0;
    for (distance, p, samples) in [(5, 0.02, 50), (5, 0.1, 50), (3, 0.06, 50)] {
        let lattice = Lattice::new(distance).unwrap();
        let model = PureDephasing::new(p).unwrap();
        let mut decoders = decoders_at(&lattice);
        assert_eq!(decoders.len(), if distance == 3 { 9 } else { 8 });
        for _ in 0..samples {
            let error = model.sample(&lattice, &mut rng);
            let syndrome = lattice.syndrome_of(&error);
            for sector in Sector::ALL {
                let defects = lattice.defects(&syndrome, sector).len();
                memo_sized += usize::from(distance == 5 && (1..=4).contains(&defects));
                for (decoder, clears) in &mut decoders {
                    let name = decoder.name().to_owned();
                    let mut fresh = PauliString::identity(lattice.num_data());
                    decoder.decode_into(&lattice, &syndrome, sector, &mut fresh);
                    let mut stale = PauliString::from_sparse(3, &[0, 1, 2], Pauli::Y);
                    decoder.decode_into(&lattice, &syndrome, sector, &mut stale);
                    assert_eq!(stale, fresh, "{name}: stale buffer, d={distance} p={p}");
                    let correction = decoder.decode(&lattice, &syndrome, sector);
                    assert_eq!(
                        correction.pauli_string(),
                        &fresh,
                        "{name}: decode vs decode_into, d={distance} p={p}"
                    );
                    let state = classify_residual(&lattice, &error, &fresh, sector);
                    assert!(
                        !*clears || state != LogicalState::InvalidCorrection,
                        "{name} produced an invalid correction, d={distance} p={p}"
                    );
                }
            }
        }
    }
    assert!(
        memo_sized >= 20,
        "only {memo_sized} d=5 sector decodes held 1-4 defects"
    );
}

/// At d = 3 the lookup table is exact, so no approximate decoder can beat it.
#[test]
fn lookup_table_is_at_least_as_good_as_the_mesh_at_d3() {
    let lattice = Lattice::new(3).unwrap();
    let model = PureDephasing::new(0.06).unwrap();
    let config = MonteCarloConfig::new(1_500).with_seed(9).with_threads(2);
    let mesh = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
    let lookup = run_lifetime(
        &lattice,
        &model,
        &config,
        || LookupDecoder::new(&lattice).expect("d=3 fits the lookup table"),
        |_| None,
        0,
    );
    assert!(
        lookup.logical_error_rate() <= mesh.logical_error_rate() + 0.02,
        "lookup {} vs mesh {}",
        lookup.logical_error_rate(),
        mesh.logical_error_rate()
    );
}

/// The ablation ordering of Figure 10 holds end to end: each added mechanism
/// improves (or at least does not worsen) the logical error rate at a
/// below-threshold physical error rate.
#[test]
fn design_variants_improve_monotonically() {
    let lattice = Lattice::new(5).unwrap();
    let model = PureDephasing::new(0.03).unwrap();
    let config = MonteCarloConfig::new(2_000).with_seed(77).with_threads(4);
    let rates: Vec<f64> = DecoderVariant::ALL
        .iter()
        .map(|&v| run_sfq_lifetime(&lattice, &model, &config, v).logical_error_rate())
        .collect();
    let (baseline, reset, boundary, final_design) = (rates[0], rates[1], rates[2], rates[3]);
    assert!(
        final_design <= boundary + 0.02,
        "final {final_design} vs boundary {boundary}"
    );
    assert!(
        boundary < baseline,
        "boundary {boundary} vs baseline {baseline}"
    );
    assert!(
        final_design < baseline / 2.0,
        "final {final_design} vs baseline {baseline}"
    );
    assert!(
        reset <= baseline + 0.05,
        "reset {reset} vs baseline {baseline}"
    );
}

/// Below threshold, larger code distances give lower logical error rates for
/// the final design (the defining property of Figure 10a).
#[test]
fn larger_distance_helps_below_threshold() {
    let model = PureDephasing::new(0.02).unwrap();
    let config = MonteCarloConfig::new(4_000).with_seed(5).with_threads(4);
    let mut previous = f64::INFINITY;
    for d in [3usize, 5, 7] {
        let lattice = Lattice::new(d).unwrap();
        let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        let rate = result.logical_error_rate();
        assert!(
            rate <= previous + 0.01,
            "PL should not grow with distance below threshold: d={d} gave {rate}, previous {previous}"
        );
        previous = rate;
    }
}

/// The decoder is always faster than syndrome generation, so the system-level
/// backlog model reports no slowdown for it, while an 800 ns decoder explodes.
#[test]
fn decoder_speed_keeps_the_machine_backlog_free() {
    let lattice = Lattice::new(9).unwrap();
    let model = PureDephasing::new(0.05).unwrap();
    let config = MonteCarloConfig::new(1_000).with_seed(2).with_threads(4);
    let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
    let converter = CycleTimeConverter::new(DecoderModuleHardware::ersfq().cycle_time_ps());
    let worst_ns = result
        .cycle_samples
        .iter()
        .map(|&c| converter.cycles_to_ns(c))
        .fold(0.0f64, f64::max);
    assert!(
        worst_ns < 400.0,
        "worst decode {worst_ns} ns must beat the 400 ns syndrome cycle"
    );

    let online = BacklogModel::new(400.0, worst_ns.max(1.0));
    let offline = BacklogModel::new(400.0, 800.0);
    for bench in standard_benchmarks() {
        let fast = online.execution_time(&bench);
        let slow = offline.execution_time(&bench);
        assert_eq!(fast.stall_s, 0.0, "{}", bench.name());
        assert!(
            slow.slowdown() > 1e6,
            "{} should blow up when backlogged",
            bench.name()
        );
    }
}

/// The hardware characterisation plugs into the timing pipeline consistently.
#[test]
fn hardware_cycle_time_feeds_the_decoder_stats() {
    let hardware = DecoderModuleHardware::ersfq();
    let lattice = Lattice::new(5).unwrap();
    let model = PureDephasing::new(0.04).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let error = model.sample(&lattice, &mut rng);
    let syndrome = lattice.syndrome_of(&error);
    let mut decoder = SfqMeshDecoder::final_design();
    let _ = decoder.decode(&lattice, &syndrome, Sector::X);
    let stats = decoder.last_stats().unwrap();
    let expected = stats.cycles as f64 * hardware.cycle_time_ps() * 1e-3;
    assert!((stats.time_ns - expected).abs() < 1e-9);
}
