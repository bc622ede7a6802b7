//! Property-based tests for the surface-code substrate.

use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn arb_distance() -> impl Strategy<Value = usize> {
    prop_oneof![Just(3usize), Just(5), Just(7), Just(9)]
}

/// The string lengths the bitplane model is driven at: empty, one word
/// boundary either side, and every lattice's data-qubit count (13, 41, 85,
/// 145 at d = 3, 5, 7, 9).
const LENGTHS: [usize; 9] = [0, 1, 13, 41, 63, 64, 65, 85, 145];

/// The byte-per-qubit `PauliString` that the bitplane one replaced, kept as
/// the reference model: one `Pauli` per qubit, every query a scan.
#[derive(Debug, Clone)]
struct DenseString(Vec<Pauli>);

impl DenseString {
    fn weight(&self) -> usize {
        self.0.iter().map(|p| p.weight()).sum()
    }

    fn is_identity(&self) -> bool {
        self.0.iter().all(|p| p.is_identity())
    }

    fn indices(&self, keep: impl Fn(Pauli) -> bool) -> Vec<usize> {
        (0..self.0.len()).filter(|&i| keep(self.0[i])).collect()
    }

    fn overlap_parity(&self, qubits: &[usize], component: impl Fn(Pauli) -> bool) -> bool {
        qubits
            .iter()
            .filter(|&&q| self.0.get(q).is_some_and(|&p| component(p)))
            .count()
            % 2
            == 1
    }

    fn display(&self) -> String {
        self.0.iter().map(ToString::to_string).collect()
    }

    /// The two-bitplane packing the wire has always carried: X components,
    /// then Z components, qubit `i` at bit `i % 64` of word `i / 64`.
    fn packed(&self) -> Vec<u64> {
        let plane = self.0.len().div_ceil(64);
        let mut out = vec![0u64; 2 * plane];
        for (i, p) in self.0.iter().enumerate() {
            if p.has_x_component() {
                out[i / 64] |= 1 << (i % 64);
            }
            if p.has_z_component() {
                out[plane + i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    /// The syndrome, one ancilla at a time: the parity of the components it
    /// detects over its stabilizer support.
    fn syndrome(&self, lattice: &Lattice) -> Syndrome {
        (0..lattice.num_ancillas())
            .map(|a| match lattice.ancilla_sector(a) {
                Sector::X => {
                    self.overlap_parity(lattice.stabilizer_support(a), Pauli::has_z_component)
                }
                Sector::Z => {
                    self.overlap_parity(lattice.stabilizer_support(a), Pauli::has_x_component)
                }
            })
            .collect()
    }
}

/// A splitmix64 step: the tests' source of per-qubit noise.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudo-random dense string of `len` qubits, about half non-identity.
fn noisy(len: usize, seed: u64) -> DenseString {
    DenseString(
        (0..len as u64)
            .map(|i| Pauli::ALL[(mix(seed ^ i) % 4) as usize])
            .collect(),
    )
}

/// Checks every query of `string` against the model.
fn assert_agrees(
    string: &PauliString,
    model: &DenseString,
    seed: u64,
) -> Result<(), TestCaseError> {
    let len = model.0.len();
    prop_assert_eq!(string.len(), len);
    prop_assert_eq!(string.is_empty(), len == 0);
    for i in 0..len {
        prop_assert_eq!(string.get(i), Some(model.0[i]));
        prop_assert_eq!(string[i], model.0[i]);
    }
    prop_assert_eq!(string.get(len), None);
    prop_assert_eq!(string.get(len + 64), None);
    prop_assert_eq!(string.iter().collect::<Vec<_>>(), model.0.clone());
    prop_assert_eq!(string.weight(), model.weight());
    prop_assert_eq!(string.is_identity(), model.is_identity());
    prop_assert_eq!(string.x_support(), model.indices(Pauli::has_x_component));
    prop_assert_eq!(string.z_support(), model.indices(|p| p.has_z_component()));
    prop_assert_eq!(string.support(), model.indices(|p| !p.is_identity()));
    // Qubit sets reaching three past the end: both forms ignore those.
    let qubits: Vec<usize> = (0..len + 3)
        .filter(|&q| mix(seed ^ q as u64) % 3 == 0)
        .collect();
    prop_assert_eq!(
        string.x_overlap_parity(&qubits),
        model.overlap_parity(&qubits, Pauli::has_x_component)
    );
    prop_assert_eq!(
        string.z_overlap_parity(&qubits),
        model.overlap_parity(&qubits, Pauli::has_z_component)
    );
    prop_assert_eq!(string.to_string(), model.display());
    prop_assert_eq!(string.words().to_vec(), model.packed());
    prop_assert_eq!(string.words().len(), PauliString::words_for(len));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every error pattern has an even number of defects in each sector once
    /// boundary effects are accounted for — more precisely, the syndrome is
    /// always reproducible and deterministic.
    #[test]
    fn syndrome_is_deterministic(d in arb_distance(), support in prop::collection::vec(0usize..100, 0..40)) {
        let lattice = Lattice::new(d).unwrap();
        let support: Vec<usize> = support.into_iter().map(|q| q % lattice.num_data()).collect();
        let error = PauliString::from_sparse(lattice.num_data(), &support, Pauli::Z);
        let s1 = lattice.syndrome_of(&error);
        let s2 = lattice.syndrome_of(&error);
        prop_assert_eq!(s1, s2);
    }

    /// Pauli string composition is associative and self-inverse (group laws).
    #[test]
    fn pauli_composition_group_laws(
        a in prop::collection::vec(0usize..4, 1..32),
        b in prop::collection::vec(0usize..4, 1..32),
    ) {
        let n = a.len().min(b.len());
        let to_pauli = |v: &[usize]| -> PauliString {
            v.iter().take(n).map(|&i| Pauli::ALL[i]).collect()
        };
        let pa = to_pauli(&a);
        let pb = to_pauli(&b);
        // Self-inverse: P ∘ P = I.
        prop_assert!(pa.composed(&pa).is_identity());
        // Commutative modulo phase (component-wise XOR).
        prop_assert_eq!(pa.composed(&pb), pb.composed(&pa));
    }

    /// The syndrome map is linear: syndrome(a ∘ b) = syndrome(a) XOR syndrome(b).
    #[test]
    fn syndrome_map_is_linear(d in arb_distance(), sa in prop::collection::vec(0usize..1000, 0..20), sb in prop::collection::vec(0usize..1000, 0..20)) {
        let lattice = Lattice::new(d).unwrap();
        let wrap = |v: Vec<usize>| -> Vec<usize> { v.into_iter().map(|q| q % lattice.num_data()).collect() };
        let ea = PauliString::from_sparse(lattice.num_data(), &wrap(sa), Pauli::Z);
        let eb = PauliString::from_sparse(lattice.num_data(), &wrap(sb), Pauli::X);
        let combined = ea.composed(&eb);
        let expect: Syndrome = lattice.syndrome_of(&ea).xor(&lattice.syndrome_of(&eb));
        prop_assert_eq!(lattice.syndrome_of(&combined), expect);
    }

    /// Correction paths between any two same-sector ancillas fire exactly
    /// those two ancillas — no more, no fewer.
    #[test]
    fn correction_paths_connect_exactly_their_endpoints(d in arb_distance(), ai in any::<prop::sample::Index>(), bi in any::<prop::sample::Index>()) {
        let lattice = Lattice::new(d).unwrap();
        for sector in Sector::ALL {
            let ancillas: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
            let a = ancillas[ai.index(ancillas.len())];
            let b = ancillas[bi.index(ancillas.len())];
            if a == b {
                continue;
            }
            let path = lattice.correction_path(a, b);
            let pauli = match sector {
                Sector::X => Pauli::Z,
                Sector::Z => Pauli::X,
            };
            let error = PauliString::from_sparse(lattice.num_data(), &path, pauli);
            let syndrome = lattice.syndrome_of(&error);
            let mut defects = lattice.defects(&syndrome, sector);
            defects.sort_unstable();
            let mut expected = vec![a, b];
            expected.sort_unstable();
            prop_assert_eq!(defects, expected);
        }
    }

    /// The weight of any error pattern bounds the number of defects it can
    /// create (each error touches at most 2 same-sector stabilizers).
    #[test]
    fn defect_count_is_bounded_by_twice_error_weight(d in arb_distance(), support in prop::collection::vec(0usize..1000, 0..30)) {
        let lattice = Lattice::new(d).unwrap();
        let support: Vec<usize> = support.into_iter().map(|q| q % lattice.num_data()).collect();
        let error = PauliString::from_sparse(lattice.num_data(), &support, Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);
        let defects = lattice.defects(&syndrome, Sector::X);
        prop_assert!(defects.len() <= 2 * error.weight());
    }

    /// Boundary paths always clear their own defect.
    #[test]
    fn boundary_paths_clear_their_defect(d in arb_distance(), ai in any::<prop::sample::Index>()) {
        let lattice = Lattice::new(d).unwrap();
        let ancillas: Vec<usize> = lattice.ancillas_in_sector(Sector::X).collect();
        let a = ancillas[ai.index(ancillas.len())];
        let path = lattice.boundary_path(a);
        prop_assert_eq!(path.len(), lattice.boundary_distance(a));
        let error = PauliString::from_sparse(lattice.num_data(), &path, Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);
        prop_assert_eq!(lattice.defects(&syndrome, Sector::X), vec![a]);
    }

    /// Ancilla distances obey the triangle inequality.
    #[test]
    fn ancilla_distance_triangle_inequality(d in arb_distance(), idx in prop::collection::vec(any::<prop::sample::Index>(), 3)) {
        let lattice = Lattice::new(d).unwrap();
        let ancillas: Vec<usize> = lattice.ancillas_in_sector(Sector::X).collect();
        let a = ancillas[idx[0].index(ancillas.len())];
        let b = ancillas[idx[1].index(ancillas.len())];
        let c = ancillas[idx[2].index(ancillas.len())];
        prop_assert!(
            lattice.ancilla_distance(a, c)
                <= lattice.ancilla_distance(a, b) + lattice.ancilla_distance(b, c)
        );
    }

    /// A packed syndrome round-trips with a plain `Vec<bool>` model under
    /// arbitrary sequences of every mutator, and stays *tail-clean*: no word
    /// bit at index `>= len` is ever set (so `weight`, a popcount over whole
    /// words, counts nothing `iter` cannot see), and a syndrome built bit by
    /// bit from the model is `==` to it with an equal hash.
    #[test]
    fn packed_syndrome_round_trips(
        len in 0usize..200,
        ops in prop::collection::vec((0u8..5, 0usize..1000, any::<u64>()), 0..40),
    ) {
        let mut syndrome = Syndrome::new(len);
        let mut model = vec![false; len];
        for (op, index, noise) in ops {
            // Every bit of `noise`-derived words, padding included, is garbage.
            let words: Vec<u64> = (0..Syndrome::words_for(model.len()) as u64)
                .map(|w| noise.rotate_left(w as u32 * 7) ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let bit = |i: usize| words[i / 64] >> (i % 64) & 1 != 0;
            match op {
                0 if !model.is_empty() => {
                    let i = index % model.len();
                    syndrome.set(i, noise & 1 != 0);
                    model[i] = noise & 1 != 0;
                }
                1 if !model.is_empty() => {
                    let i = index % model.len();
                    syndrome.flip(i);
                    model[i] = !model[i];
                }
                2 => {
                    let other: Syndrome = (0..model.len()).map(bit).collect();
                    syndrome.xor_with(&other);
                    for (i, b) in model.iter_mut().enumerate() {
                        *b ^= bit(i);
                    }
                }
                3 => {
                    syndrome.copy_from_words(&words);
                    model = (0..model.len()).map(bit).collect();
                }
                4 => {
                    syndrome.reset_clear(index % 200);
                    model = vec![false; index % 200];
                }
                _ => {}
            }
            prop_assert_eq!(syndrome.len(), model.len());
            prop_assert_eq!(syndrome.words().len(), Syndrome::words_for(model.len()));
            prop_assert_eq!(syndrome.weight(), model.iter().filter(|&&b| b).count());
            prop_assert_eq!(syndrome.any_hot(), model.contains(&true));
        }
        prop_assert_eq!(syndrome.iter().collect::<Vec<_>>(), model.clone());
        let rebuilt: Syndrome = model.into_iter().collect();
        prop_assert_eq!(&rebuilt, &syndrome);
        let hash = |s: &Syndrome| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        prop_assert_eq!(hash(&rebuilt), hash(&syndrome));
        let mut copy = Syndrome::new(3);
        copy.clone_from(&syndrome);
        prop_assert_eq!(copy, syndrome);
    }

    /// The trailing-zeros defect iteration visits exactly the hot indices, in
    /// ascending order.
    #[test]
    fn packed_defect_iteration_matches_hot_indices(hot in prop::collection::vec(0usize..300, 0..40), len in 1usize..300) {
        let hot: Vec<usize> = hot.into_iter().map(|i| i % len).collect();
        let syndrome = Syndrome::from_hot(len, &hot);
        let expected: Vec<usize> = (0..len).filter(|&i| syndrome.is_hot(i)).collect();
        prop_assert_eq!(syndrome.defect_indices().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(syndrome.hot_indices(), expected);
    }

    /// Carrying a syndrome through raw words (as the runtime's ring buffer
    /// does) is lossless, whatever the slot left in the padding bits.
    #[test]
    fn packed_syndrome_survives_word_transport(bits in prop::collection::vec(any::<bool>(), 1..200), garbage in any::<u64>()) {
        let syndrome: Syndrome = bits.into_iter().collect();
        let mut slot = syndrome.words().to_vec();
        let padding = slot.len() * 64 - syndrome.len();
        if padding > 0 {
            *slot.last_mut().unwrap() |= garbage << (64 - padding);
        }
        let mut restored = Syndrome::new(syndrome.len());
        restored.copy_from_words(&slot);
        prop_assert_eq!(&restored, &syndrome);
        prop_assert_eq!(restored.words(), syndrome.words());
    }

    /// The masked word walk of `for_each_defect` equals the per-ancilla
    /// filter it replaced, element for element, in both sectors and on every
    /// lattice size (12 / 40 / 84 / 144 bits: one, one, two and three words),
    /// for arbitrary syndromes — not only ones an error pattern can produce —
    /// including all-hot.
    #[test]
    fn masked_defect_walk_matches_the_sector_filter(
        d in arb_distance(),
        bits in prop::collection::vec(any::<bool>(), 144),
        all_hot in any::<bool>(),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let syndrome: Syndrome = bits
            .into_iter()
            .take(lattice.num_ancillas())
            .map(|b| b || all_hot)
            .collect();
        for sector in Sector::ALL {
            let expected: Vec<usize> = lattice
                .ancillas_in_sector(sector)
                .filter(|&a| syndrome.is_hot(a))
                .collect();
            let mut walked = Vec::new();
            lattice.for_each_defect(&syndrome, sector, |a| walked.push(a));
            prop_assert_eq!(&walked, &expected, "d={} sector {}", d, sector);
            prop_assert_eq!(lattice.defects(&syndrome, sector), expected);
        }
        let mut both = lattice.defects(&syndrome, Sector::X);
        both.extend(lattice.defects(&syndrome, Sector::Z));
        both.sort_unstable();
        prop_assert_eq!(both, syndrome.hot_indices());
    }

    /// The bitplane `PauliString` equals the byte-per-qubit model it replaced
    /// under arbitrary sequences of `set` / `apply` / `compose_with` /
    /// `reset_identity` / `copy_from`, at lengths straddling word boundaries,
    /// query for query — its words included, against the packing the wire
    /// carried before.  On a lattice's length its syndrome and sector checks
    /// also equal the dense per-stabilizer reference.
    #[test]
    fn bitplane_pauli_string_matches_the_dense_model(
        start in 0usize..LENGTHS.len(),
        ops in prop::collection::vec((0u8..5, any::<usize>(), any::<u64>()), 0..40),
    ) {
        let lattices: Vec<Lattice> = [3, 5, 7, 9].map(|d| Lattice::new(d).unwrap()).into();
        let mut string = PauliString::identity(LENGTHS[start]);
        let mut model = DenseString(vec![Pauli::I; LENGTHS[start]]);
        let mut syndrome = Syndrome::from_hot(5, &[2]);
        for (op, index, seed) in ops {
            let len = model.0.len();
            let pauli = Pauli::ALL[(seed % 4) as usize];
            match op {
                0 if len > 0 => {
                    string.set(index % len, pauli);
                    model.0[index % len] = pauli;
                }
                1 if len > 0 => {
                    string.apply(index % len, pauli);
                    model.0[index % len] = model.0[index % len] * pauli;
                }
                2 => {
                    let other = noisy(len, seed);
                    string.compose_with(&other.0.iter().copied().collect());
                    for (a, b) in model.0.iter_mut().zip(&other.0) {
                        *a = *a * *b;
                    }
                }
                3 => {
                    let len = LENGTHS[index % LENGTHS.len()];
                    string.reset_identity(len);
                    model = DenseString(vec![Pauli::I; len]);
                }
                4 => {
                    model = noisy(LENGTHS[index % LENGTHS.len()], seed);
                    string.copy_from(&model.0.iter().copied().collect());
                }
                _ => {}
            }
            assert_agrees(&string, &model, seed)?;
            if let Some(lattice) = lattices.iter().find(|l| l.num_data() == model.0.len()) {
                let expected = model.syndrome(lattice);
                lattice.syndrome_into(&string, &mut syndrome);
                prop_assert_eq!(&syndrome, &expected);
                for sector in Sector::ALL {
                    prop_assert_eq!(
                        lattice.sector_is_clear(&string, sector),
                        lattice.defects(&expected, sector).is_empty()
                    );
                }
            }
        }
        let hash = |s: &PauliString| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        let rebuilt: PauliString = model.0.iter().copied().collect();
        prop_assert_eq!(&rebuilt, &string);
        prop_assert_eq!(hash(&rebuilt), hash(&string));
    }
}
