//! The seed-reference oracle of the signal-timing mesh algorithm: the
//! bitboard walk in `nisqplus_core::algorithm` must reproduce the per-round
//! re-enumeration of the seed — chain, cycles, cleared defects, completion
//! *and the list of pairings in completion order* — on every mesh
//! configuration and on every word count of the sector grid (one word to
//! d = 7, two at d = 9 and 11, where offsets shift across bit 64, four at
//! d = 13), and `SfqMeshDecoder`'s entry points must all agree with it.

use nisqplus_core::{DecoderVariant, MeshConfig, MeshPairing, SfqMeshDecoder};
use nisqplus_decoders::traits::sector_correction_pauli;
use nisqplus_decoders::Decoder;
use nisqplus_qec::error_model::{Depolarizing, ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `GreedyMeshAlgorithm::decode_defects_with_pairings` as it stood before its
/// first rewrite, body kept verbatim: `BTreeSet`s for the live defects,
/// the ghosts and the chain, and every pairing re-enumerated and re-timed in
/// every round.
mod seed_mesh_algorithm {
    use nisqplus_core::algorithm::{boundary_timing, pair_timing};
    use nisqplus_core::{MeshConfig, MeshDecodeResult, MeshPairing};
    use nisqplus_qec::lattice::{Lattice, Sector};
    use std::collections::BTreeSet;

    pub struct GreedyMeshAlgorithm {
        pub config: MeshConfig,
    }

    impl GreedyMeshAlgorithm {
        /// Decodes the given defects, returning the chain, cycle count and the
        /// list of pairings in the order they completed.
        #[must_use]
        pub fn decode_defects_with_pairings(
            &self,
            lattice: &Lattice,
            sector: Sector,
            defects: &[usize],
        ) -> (MeshDecodeResult, Vec<MeshPairing>) {
            let cfg = &self.config;
            for &a in defects {
                assert_eq!(
                    lattice.ancilla_sector(a),
                    sector,
                    "defect {a} does not belong to the {sector} sector"
                );
            }
            let mut live: BTreeSet<usize> = defects.iter().copied().collect();
            let mut ghosts: BTreeSet<usize> = BTreeSet::new();
            let mut chain: BTreeSet<usize> = BTreeSet::new();
            let mut pairings = Vec::new();
            let mut cycles = 0usize;
            let initial = live.len();
            let max_cycles = cfg.max_cycles(lattice.size() + 2);

            let mesh_delta = |a: usize, b: usize| {
                let ca = lattice.ancilla_coord(a);
                let cb = lattice.ancilla_coord(b);
                (ca.row.abs_diff(cb.row), ca.col.abs_diff(cb.col))
            };
            // Distance (in mesh cells) from an ancilla module to the nearest
            // boundary module of its sector: one cell beyond the last data qubit.
            let boundary_mesh_distance = |a: usize| 2 * lattice.boundary_distance(a);

            while !live.is_empty() && cycles < max_cycles {
                // --- Find the earliest-completing candidate pairings ----------
                let live_vec: Vec<usize> = live.iter().copied().collect();
                let mut best_time = usize::MAX;
                // (completion, pairing) candidates at the minimal completion time.
                let mut candidates: Vec<(usize, MeshPairing)> = Vec::new();
                let consider =
                    |time: usize,
                     pairing: MeshPairing,
                     best: &mut usize,
                     cands: &mut Vec<(usize, MeshPairing)>| {
                        if time < *best {
                            *best = time;
                            cands.clear();
                        }
                        if time == *best {
                            cands.push((time, pairing));
                        }
                    };

                for (i, &a) in live_vec.iter().enumerate() {
                    for &b in &live_vec[i + 1..] {
                        let (dr, dc) = mesh_delta(a, b);
                        let t = pair_timing(cfg, dr, dc).completion;
                        consider(
                            t,
                            MeshPairing::Defects(a, b),
                            &mut best_time,
                            &mut candidates,
                        );
                    }
                    if cfg.boundary {
                        let t = boundary_timing(cfg, boundary_mesh_distance(a)).completion;
                        consider(
                            t,
                            MeshPairing::ToBoundary(a),
                            &mut best_time,
                            &mut candidates,
                        );
                    }
                    if !cfg.reset {
                        for &g in &ghosts {
                            let (dr, dc) = mesh_delta(a, g);
                            let t = pair_timing(cfg, dr, dc).completion;
                            consider(
                                t,
                                MeshPairing::ToGhost { live: a, ghost: g },
                                &mut best_time,
                                &mut candidates,
                            );
                        }
                    }
                }

                if candidates.is_empty() {
                    // No way to pair the remaining defects (e.g. a lone defect
                    // with no boundary modules): the decode stalls until the cap.
                    cycles = max_cycles;
                    break;
                }

                // --- Select which of the tied candidates actually complete ----
                let mut cleared_this_round: BTreeSet<usize> = BTreeSet::new();
                let mut selected: Vec<MeshPairing> = Vec::new();
                for (_, pairing) in candidates {
                    let endpoints: Vec<usize> = match &pairing {
                        MeshPairing::Defects(a, b) => vec![*a, *b],
                        MeshPairing::ToBoundary(a) => vec![*a],
                        MeshPairing::ToGhost { live, .. } => vec![*live],
                    };
                    let conflict = endpoints.iter().any(|e| cleared_this_round.contains(e));
                    if conflict && cfg.equidistant_handshake {
                        // The request/grant handshake lets each hot module commit
                        // to exactly one pairing; later ties are dropped.
                        continue;
                    }
                    // Without the handshake, equidistant ties all fire (the flaw
                    // Figure 8(c) illustrates); with it, disjoint simultaneous
                    // pairings still complete concurrently.
                    for e in &endpoints {
                        cleared_this_round.insert(*e);
                    }
                    selected.push(pairing);
                }

                // --- Apply the selected pairings -------------------------------
                for pairing in &selected {
                    let path = match pairing {
                        MeshPairing::Defects(a, b) => lattice.correction_path(*a, *b),
                        MeshPairing::ToBoundary(a) => lattice.boundary_path(*a),
                        MeshPairing::ToGhost { live, ghost } => {
                            lattice.correction_path(*live, *ghost)
                        }
                    };
                    for q in path {
                        // Chains overlap-toggle rather than accumulate: two chains
                        // crossing the same data qubit cancel, exactly like two
                        // pair pulses flipping the same error output.
                        if !chain.insert(q) {
                            chain.remove(&q);
                        }
                    }
                }
                for &e in &cleared_this_round {
                    live.remove(&e);
                    ghosts.insert(e);
                }
                pairings.extend(selected);

                cycles += best_time;
                if cfg.reset && !live.is_empty() {
                    cycles += usize::from(cfg.module_depth);
                }
                if cycles >= max_cycles {
                    cycles = max_cycles;
                    break;
                }
            }

            let completed = live.is_empty();
            let result = MeshDecodeResult {
                chain_data_qubits: chain.into_iter().collect(),
                cycles,
                cleared_defects: initial - live.len(),
                completed,
            };
            (result, pairings)
        }
    }
}

const DISTANCES: [usize; 4] = [3, 5, 7, 9];
const RATES: [f64; 4] = [0.02, 0.05, 0.12, 0.25];
/// The wider grids: two words whose offsets cross bit 64 (d = 11), and four
/// words (d = 13).
const WIDE_DISTANCES: [usize; 2] = [11, 13];
const WIDE_RATES: [f64; 2] = [0.05, 0.12];
/// Lattice changes a decoder is carried across after the grid: 5 → 9 → 5,
/// then 9 → 13 → 5 across three word counts.
const LATTICE_CHANGES: [(usize, f64); 6] = [
    (5, 0.12),
    (9, 0.12),
    (5, 0.05),
    (9, 0.12),
    (13, 0.05),
    (5, 0.05),
];

/// Every combination of the three mechanisms: the four named variants and
/// the four that only `SfqMeshDecoder::with_config` reaches (for one, no
/// reset with the handshake, where a time hosts a second round of ghosts).
fn all_configs() -> Vec<MeshConfig> {
    let mut configs: Vec<MeshConfig> = DecoderVariant::ALL.iter().map(|v| v.config()).collect();
    for bits in 0..8u8 {
        let config = MeshConfig {
            reset: bits & 1 != 0,
            boundary: bits & 2 != 0,
            equidistant_handshake: bits & 4 != 0,
            ..MeshConfig::default()
        };
        if !configs.contains(&config) {
            configs.push(config);
        }
    }
    configs
}

/// `count` syndromes of `lattice`: depolarizing noise, so that both sectors
/// carry defects.
fn seeded_syndromes(lattice: &Lattice, p: f64, seed: u64, count: usize) -> Vec<Syndrome> {
    let model = Depolarizing::new(p).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| lattice.syndrome_of(&model.sample(lattice, &mut rng)))
        .collect()
}

/// Asserts that the public algorithm entry points and every decoder of
/// `decoders` (each built from `config`) agree with the seed algorithm on one
/// sector of one syndrome.
fn assert_matches_seed(
    decoders: &mut [SfqMeshDecoder],
    buffer: &mut PauliString,
    config: MeshConfig,
    lattice: &Lattice,
    syndrome: &Syndrome,
    sector: Sector,
) {
    let context = format!(
        "d={} sector={sector} config={config:?} syndrome={syndrome}",
        lattice.distance()
    );
    let defects = lattice.defects(syndrome, sector);
    let seed = seed_mesh_algorithm::GreedyMeshAlgorithm { config };
    let (expected, expected_pairings) =
        seed.decode_defects_with_pairings(lattice, sector, &defects);

    let algorithm = nisqplus_core::GreedyMeshAlgorithm::new(config);
    let (result, pairings) = algorithm.decode_defects_with_pairings(lattice, sector, &defects);
    assert_eq!(result, expected, "{context}");
    assert_eq!(pairings, expected_pairings, "{context}");
    assert_eq!(
        algorithm.decode_defects(lattice, sector, &defects),
        expected,
        "{context}"
    );

    let flips = PauliString::from_sparse(
        lattice.num_data(),
        &expected.chain_data_qubits,
        sector_correction_pauli(sector),
    );
    for decoder in decoders {
        let correction = decoder.decode(lattice, syndrome, sector);
        let stats = decoder.last_stats().unwrap();
        assert_eq!(correction.pauli_string(), &flips, "{context}");
        assert_eq!(stats.defects, defects.len(), "{context}");
        assert_eq!(stats.cycles, expected.cycles, "{context}");
        assert_eq!(stats.completed, expected.completed, "{context}");
        decoder.decode_into(lattice, syndrome, sector, buffer);
        assert_eq!(*buffer, flips, "{context}");
        assert_eq!(decoder.last_stats().unwrap(), stats, "{context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two decoder instances per configuration — one prepared at every
    /// lattice change, one left to prepare itself on its first decode —
    /// driven over both sectors of consecutive syndromes at every (distance,
    /// rate) point, then across the lattice changes: tables or scratch
    /// leaking from one decode or lattice into the next shows as a
    /// difference.
    #[test]
    fn mesh_algorithm_matches_seed_implementation(seed in any::<u64>()) {
        for config in all_configs() {
            let mut decoders =
                [(); 2].map(|()| SfqMeshDecoder::with_config(DecoderVariant::Final, config));
            let mut buffer = PauliString::default();
            let grid = |distances: &'static [usize], rates: &'static [f64]| {
                distances
                    .iter()
                    .flat_map(move |&d| rates.iter().map(move |&p| (d, p)))
            };
            let legs = grid(&DISTANCES, &RATES)
                .chain(grid(&WIDE_DISTANCES, &WIDE_RATES))
                .chain(LATTICE_CHANGES);
            for (leg, (distance, p)) in legs.enumerate() {
                let lattice = Lattice::new(distance).unwrap();
                decoders[0].prepare(&lattice);
                for syndrome in seeded_syndromes(&lattice, p, seed ^ leg as u64, 4) {
                    for sector in Sector::ALL {
                        assert_matches_seed(
                            &mut decoders, &mut buffer, config, &lattice, &syndrome, sector,
                        );
                    }
                }
            }
        }
    }
}

/// A few defects anywhere on the wide grids: they pair across the whole
/// grid, so they reach the offsets that shift by more than two words (up to
/// 155 bits at d = 13), which the dense legs above pair off before.
#[test]
fn sparse_defects_pair_across_words_like_the_seed() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    for config in all_configs() {
        let mut decoders = [SfqMeshDecoder::with_config(DecoderVariant::Final, config)];
        let mut buffer = PauliString::default();
        for distance in WIDE_DISTANCES {
            let lattice = Lattice::new(distance).unwrap();
            for _ in 0..24 {
                let hot: Vec<usize> = (0..rng.gen_range(2..9))
                    .map(|_| rng.gen_range(0..lattice.num_ancillas()))
                    .collect();
                let syndrome = Syndrome::from_hot(lattice.num_ancillas(), &hot);
                for sector in Sector::ALL {
                    assert_matches_seed(
                        &mut decoders,
                        &mut buffer,
                        config,
                        &lattice,
                        &syndrome,
                        sector,
                    );
                }
            }
        }
    }
}

/// The mesh takes union-find's word ladder, so its limit too: a sector grid
/// holds at most 16 words, so `prepare` takes d = 31, refuses d = 33 and
/// names the limit.
#[test]
#[should_panic(expected = "distances up to 31 (16 words per sector grid), not d = 33")]
fn mesh_prepare_past_the_word_limit_panics() {
    let mut decoder = SfqMeshDecoder::final_design();
    decoder.prepare(&Lattice::new(31).unwrap());
    decoder.prepare(&Lattice::new(33).unwrap());
}

/// The seed algorithm deduplicates and orders its input (it collects into a
/// set); so must the rewrite's public entry points.
#[test]
fn unordered_and_repeated_defects_decode_like_the_seed() {
    let lattice = Lattice::new(7).unwrap();
    let model = PureDephasing::new(0.1).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for config in all_configs() {
        let syndrome = lattice.syndrome_of(&model.sample(&lattice, &mut rng));
        let mut defects = lattice.defects(&syndrome, Sector::X);
        defects.reverse();
        defects.extend_from_within(..defects.len() / 2);
        let seed = seed_mesh_algorithm::GreedyMeshAlgorithm { config };
        assert_eq!(
            nisqplus_core::GreedyMeshAlgorithm::new(config).decode_defects_with_pairings(
                &lattice,
                Sector::X,
                &defects
            ),
            seed.decode_defects_with_pairings(&lattice, Sector::X, &defects),
            "{config:?}"
        );
    }
}

/// Ties inside one completion time, built by hand on the d = 9 X-sector
/// grid (8 rows of 9 modules; its boundary lies above the top row and
/// below the bottom one), decoded under every configuration against the
/// seed.  Under the final design the pairings are also pinned:
///
/// * one module with two live partners that complete at the same time,
///   `(0, 2)` and `(1, 1)` away: it takes the one earlier in index order;
/// * a module whose first partner an earlier module took in the same
///   round falls through to its next partner;
/// * a module on the bottom row whose only partner was taken falls
///   through to the boundary, which completes at that time too.
#[test]
fn ties_inside_a_time_resolve_like_the_seed() {
    let lattice = Lattice::new(9).unwrap();
    let grid = lattice.sector_grid(Sector::X);
    assert_eq!((grid.rows, grid.cols), (8, 9));
    let at = |row: usize, col: usize| grid.offset + row * grid.cols + col;
    // At (3, 3): the partners (3, 5) and (4, 4) both complete at t = 8.
    let two_partners = [at(3, 3), at(3, 5), at(4, 4)];
    // (2, 6) takes (3, 5) first, so (3, 3) falls through to (4, 4).
    let taken_partner = [at(2, 6), at(3, 3), at(3, 5), at(4, 4)];
    // (6, 6) takes (7, 5) first, so (7, 3) falls through to the boundary.
    let taken_to_boundary = [at(6, 6), at(7, 3), at(7, 5)];
    let cases: [(&[usize], Vec<MeshPairing>); 3] = [
        (
            &two_partners,
            vec![
                MeshPairing::Defects(at(3, 3), at(3, 5)),
                MeshPairing::ToBoundary(at(4, 4)),
            ],
        ),
        (
            &taken_partner,
            vec![
                MeshPairing::Defects(at(2, 6), at(3, 5)),
                MeshPairing::Defects(at(3, 3), at(4, 4)),
            ],
        ),
        (
            &taken_to_boundary,
            vec![
                MeshPairing::Defects(at(6, 6), at(7, 5)),
                MeshPairing::ToBoundary(at(7, 3)),
            ],
        ),
    ];
    for (defects, final_pairings) in cases {
        let syndrome = Syndrome::from_hot(lattice.num_ancillas(), defects);
        for config in all_configs() {
            let mut decoders = [SfqMeshDecoder::with_config(DecoderVariant::Final, config)];
            let mut buffer = PauliString::default();
            assert_matches_seed(
                &mut decoders,
                &mut buffer,
                config,
                &lattice,
                &syndrome,
                Sector::X,
            );
        }
        let (_, pairings) = nisqplus_core::GreedyMeshAlgorithm::new(DecoderVariant::Final.config())
            .decode_defects_with_pairings(&lattice, Sector::X, defects);
        assert_eq!(pairings, final_pairings, "{defects:?}");
    }
}
