//! Property-based tests for the baseline decoders, including the
//! seed-reference equivalence suite: the amortized prepared/scratch decode
//! paths must produce *byte-identical* corrections to the original per-call
//! implementations they replaced.

use nisqplus_decoders::{
    Decoder, ExactMatchingDecoder, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_residual, LogicalState};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_distance() -> impl Strategy<Value = usize> {
    prop_oneof![Just(3usize), Just(5), Just(7)]
}

fn arb_sector() -> impl Strategy<Value = Sector> {
    prop_oneof![Just(Sector::X), Just(Sector::Z)]
}

/// The seed repository's union-find `decode_sector`, kept verbatim as the
/// reference the rewritten prepared/scratch implementation is pinned against:
/// per-call `HashMap` sector graph, recursive union-find, `HashMap` BFS
/// parent map.  (Mirrors `UnionFindDecoder::decode_sector` at the PR 2 tip.)
mod seed_union_find {
    use nisqplus_qec::lattice::{Coord, Lattice, Sector};
    use nisqplus_qec::syndrome::Syndrome;
    use std::collections::HashMap;

    #[derive(Clone, Copy)]
    struct GraphEdge {
        u: usize,
        v: usize,
        data_qubit: usize,
    }

    struct SectorGraph {
        num_ancilla_vertices: usize,
        num_vertices: usize,
        vertex_of_ancilla: HashMap<usize, usize>,
        edges: Vec<GraphEdge>,
    }

    impl SectorGraph {
        fn build(lattice: &Lattice, sector: Sector) -> Self {
            let ancillas: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
            let vertex_of_ancilla: HashMap<usize, usize> =
                ancillas.iter().enumerate().map(|(i, &a)| (a, i)).collect();
            let num_ancilla_vertices = ancillas.len();
            let boundary_a = num_ancilla_vertices;
            let boundary_b = num_ancilla_vertices + 1;
            let size = lattice.size();
            let mut edges = Vec::new();

            let mut ancilla_at = HashMap::new();
            for &a in &ancillas {
                ancilla_at.insert(lattice.ancilla_coord(a), a);
            }

            for &a in &ancillas {
                let c = lattice.ancilla_coord(a);
                let u = vertex_of_ancilla[&a];
                if c.row + 2 < size {
                    let below = Coord::new(c.row + 2, c.col);
                    if let Some(&b) = ancilla_at.get(&below) {
                        let data = lattice.cell(Coord::new(c.row + 1, c.col));
                        edges.push(GraphEdge {
                            u,
                            v: vertex_of_ancilla[&b],
                            data_qubit: data.index,
                        });
                    }
                }
                if c.col + 2 < size {
                    let right = Coord::new(c.row, c.col + 2);
                    if let Some(&b) = ancilla_at.get(&right) {
                        let data = lattice.cell(Coord::new(c.row, c.col + 1));
                        edges.push(GraphEdge {
                            u,
                            v: vertex_of_ancilla[&b],
                            data_qubit: data.index,
                        });
                    }
                }
                match sector {
                    Sector::X => {
                        if c.row == 1 {
                            let data = lattice.cell(Coord::new(0, c.col));
                            edges.push(GraphEdge {
                                u,
                                v: boundary_a,
                                data_qubit: data.index,
                            });
                        }
                        if c.row == size - 2 {
                            let data = lattice.cell(Coord::new(size - 1, c.col));
                            edges.push(GraphEdge {
                                u,
                                v: boundary_b,
                                data_qubit: data.index,
                            });
                        }
                    }
                    Sector::Z => {
                        if c.col == 1 {
                            let data = lattice.cell(Coord::new(c.row, 0));
                            edges.push(GraphEdge {
                                u,
                                v: boundary_a,
                                data_qubit: data.index,
                            });
                        }
                        if c.col == size - 2 {
                            let data = lattice.cell(Coord::new(c.row, size - 1));
                            edges.push(GraphEdge {
                                u,
                                v: boundary_b,
                                data_qubit: data.index,
                            });
                        }
                    }
                }
            }

            SectorGraph {
                num_ancilla_vertices,
                num_vertices: num_ancilla_vertices + 2,
                vertex_of_ancilla,
                edges,
            }
        }

        fn is_boundary_vertex(&self, v: usize) -> bool {
            v >= self.num_ancilla_vertices
        }
    }

    struct Clusters {
        parent: Vec<usize>,
        rank: Vec<u32>,
        parity: Vec<bool>,
        touches_boundary: Vec<bool>,
    }

    impl Clusters {
        fn new(num_vertices: usize, defects: &[bool], boundary_from: usize) -> Self {
            Clusters {
                parent: (0..num_vertices).collect(),
                rank: vec![0; num_vertices],
                parity: defects.to_vec(),
                touches_boundary: (0..num_vertices).map(|v| v >= boundary_from).collect(),
            }
        }

        fn find(&mut self, v: usize) -> usize {
            if self.parent[v] != v {
                let root = self.find(self.parent[v]);
                self.parent[v] = root;
            }
            self.parent[v]
        }

        fn union(&mut self, a: usize, b: usize) {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return;
            }
            let (big, small) = if self.rank[ra] >= self.rank[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            self.parent[small] = big;
            if self.rank[big] == self.rank[small] {
                self.rank[big] += 1;
            }
            self.parity[big] ^= self.parity[small];
            self.touches_boundary[big] |= self.touches_boundary[small];
        }

        fn is_active_root(&self, root: usize) -> bool {
            self.parity[root] && !self.touches_boundary[root]
        }
    }

    /// The seed decode: returns the correction's data-qubit indices in the
    /// exact order the seed implementation emitted them.
    pub fn decode_sector(lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Vec<usize> {
        let graph = SectorGraph::build(lattice, sector);
        let defect_ancillas = lattice.defects(syndrome, sector);
        if defect_ancillas.is_empty() {
            return Vec::new();
        }
        let mut defects = vec![false; graph.num_vertices];
        for a in &defect_ancillas {
            defects[graph.vertex_of_ancilla[a]] = true;
        }
        let mut clusters = Clusters::new(graph.num_vertices, &defects, graph.num_ancilla_vertices);
        let mut support = vec![0u8; graph.edges.len()];

        let max_rounds = 4 * lattice.size() + 8;
        for _ in 0..max_rounds {
            let any_active = (0..graph.num_vertices).any(|v| {
                let root = clusters.find(v);
                root == v && clusters.is_active_root(root)
            });
            if !any_active {
                break;
            }
            let mut newly_full = Vec::new();
            for (i, edge) in graph.edges.iter().enumerate() {
                if support[i] >= 2 {
                    continue;
                }
                let ru = clusters.find(edge.u);
                let rv = clusters.find(edge.v);
                if clusters.is_active_root(ru) || clusters.is_active_root(rv) {
                    support[i] += 1;
                    if support[i] == 2 {
                        newly_full.push(i);
                    }
                }
            }
            for i in newly_full {
                let edge = graph.edges[i];
                clusters.union(edge.u, edge.v);
            }
        }

        let mut adjacency: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.num_vertices];
        for (i, edge) in graph.edges.iter().enumerate() {
            if support[i] == 2 && clusters.find(edge.u) == clusters.find(edge.v) {
                adjacency[edge.u].push((edge.v, i));
                adjacency[edge.v].push((edge.u, i));
            }
        }

        let mut correction = Vec::new();
        let mut visited = vec![false; graph.num_vertices];
        let mut charge = defects;

        let order: Vec<usize> = (graph.num_ancilla_vertices..graph.num_vertices)
            .chain(0..graph.num_ancilla_vertices)
            .collect();
        for start in order {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            let mut bfs = vec![start];
            let mut parent_edge: HashMap<usize, (usize, usize)> = HashMap::new();
            let mut head = 0;
            while head < bfs.len() {
                let v = bfs[head];
                head += 1;
                for &(w, edge_idx) in &adjacency[v] {
                    if !visited[w] {
                        visited[w] = true;
                        parent_edge.insert(w, (v, edge_idx));
                        bfs.push(w);
                    }
                }
            }
            for &v in bfs.iter().rev() {
                if v == start {
                    break;
                }
                if graph.is_boundary_vertex(v) {
                    charge[v] = false;
                    continue;
                }
                if charge[v] {
                    let (parent, edge_idx) = parent_edge[&v];
                    correction.push(graph.edges[edge_idx].data_qubit);
                    charge[v] = false;
                    charge[parent] ^= true;
                }
            }
            if charge[start] {
                charge[start] = false;
            }
        }
        correction
    }
}

/// Samples a syndrome stream at physical error rate `p` deterministically
/// from a seed.
fn seeded_syndromes(lattice: &Lattice, seed: u64, p: f64, count: usize) -> Vec<Syndrome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = PureDephasing::new(p).unwrap();
    (0..count)
        .map(|_| {
            // Dephasing errors fire only the X sector, so fold in a reversed
            // copy as X errors via a second sample to exercise the Z sector
            // too: decode both sectors of the union syndrome.
            let z_part = model.sample(lattice, &mut rng);
            let x_part = model.sample(lattice, &mut rng);
            let mut combined = lattice.syndrome_of(&z_part);
            let mut x_errors = PauliString::identity(lattice.num_data());
            for (q, p) in x_part.z_support().iter().map(|&q| (q, Pauli::X)) {
                x_errors.apply(q, p);
            }
            combined.xor_with(&lattice.syndrome_of(&x_errors));
            combined
        })
        .collect()
}

/// The seed implementation's correction for one sector, as a Pauli string.
fn seed_union_find_correction(
    lattice: &Lattice,
    syndrome: &Syndrome,
    sector: Sector,
) -> PauliString {
    let pauli = nisqplus_decoders::traits::sector_correction_pauli(sector);
    let mut expected = PauliString::identity(lattice.num_data());
    for q in seed_union_find::decode_sector(lattice, syndrome, sector) {
        expected.apply(q, pauli);
    }
    expected
}

/// Seed parity exhaustively where it is affordable: every X- and Z-sector
/// pattern at d = 3, and every pattern of at most three defects per sector
/// at d = 5.
#[test]
fn union_find_matches_seed_on_every_small_pattern() {
    for (d, max_defects, expected_patterns) in [(3, 6, 64), (5, 3, 1351)] {
        let lattice = Lattice::new(d).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let mut buf = PauliString::identity(lattice.num_data());
        for sector in Sector::ALL {
            let ancillas: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
            let mut patterns = 0;
            for mask in (0u32..1 << ancillas.len()).filter(|m| m.count_ones() <= max_defects) {
                let hot: Vec<usize> = (0..ancillas.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| ancillas[i])
                    .collect();
                let syndrome = Syndrome::from_hot(lattice.num_ancillas(), &hot);
                decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
                assert_eq!(
                    buf,
                    seed_union_find_correction(&lattice, &syndrome, sector),
                    "d={d} sector={sector} hot={hot:?}"
                );
                patterns += 1;
            }
            assert_eq!(patterns, expected_patterns, "d={d} sector={sector}");
        }
    }
}

/// A sector grid holds at most 16 words, so `prepare` refuses d > 31 and
/// names the limit.
#[test]
#[should_panic(expected = "distances up to 31")]
fn union_find_prepare_past_the_word_limit_panics() {
    UnionFindDecoder::new().prepare(&Lattice::new(33).unwrap());
}

fn error_from(lattice: &Lattice, raw: &[usize], pauli: Pauli) -> PauliString {
    let support: Vec<usize> = raw.iter().map(|&q| q % lattice.num_data()).collect();
    PauliString::from_sparse(lattice.num_data(), &support, pauli)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rewritten union-find (bitboard growth over each sector's ancilla
    /// grid, scalar peel) emits corrections byte-identical to the seed
    /// implementation, across seeds x distances x sectors, through both
    /// `decode` and the allocation-free `decode_into`.
    #[test]
    fn union_find_matches_seed_implementation(
        seed in 0u64..10_000,
        d in arb_distance(),
        sector in arb_sector(),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let mut decoder = UnionFindDecoder::new();
        decoder.prepare(&lattice);
        let mut buf = PauliString::identity(lattice.num_data());
        for syndrome in seeded_syndromes(&lattice, seed, 0.08, 8) {
            let expected = seed_union_find_correction(&lattice, &syndrome, sector);
            let correction = decoder.decode(&lattice, &syndrome, sector);
            prop_assert_eq!(correction.pauli_string(), &expected);
            decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
            prop_assert_eq!(&buf, &expected);
        }

        // The same decoder instance, driven X, Z, X, ... over consecutive
        // syndromes, across lattice changes (5 -> 7 -> 5, then d = 9 to 15:
        // one, two and four words per sector grid) and from mostly-empty
        // sectors to large merged clusters: state leaking from one decode
        // into the next shows as a byte difference.
        for (leg, (distance, p)) in [
            (5, 0.03), (7, 0.15), (5, 0.08), (9, 0.03), (9, 0.08), (9, 0.15),
            (11, 0.08), (11, 0.3), (13, 0.08), (13, 0.3), (15, 0.08), (15, 0.3),
        ]
        .into_iter()
        .enumerate()
        {
            let lattice = Lattice::new(distance).unwrap();
            for syndrome in seeded_syndromes(&lattice, seed + leg as u64, p, 4) {
                for sector in Sector::ALL {
                    decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
                    prop_assert_eq!(
                        &buf,
                        &seed_union_find_correction(&lattice, &syndrome, sector),
                        "d={} p={} sector={:?}", distance, p, sector
                    );
                }
            }
        }
    }

    /// The greedy decoder's scratch-arena `decode_into` matches the seed
    /// decode path (`match_defects` + `Matching::to_correction`, unchanged
    /// from the seed) byte for byte, across seeds x distances x sectors.
    #[test]
    fn greedy_decode_into_matches_seed_path(
        seed in 0u64..10_000,
        d in arb_distance(),
        sector in arb_sector(),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let mut decoder = GreedyMatchingDecoder::new();
        decoder.prepare(&lattice);
        let mut buf = PauliString::identity(lattice.num_data());
        for syndrome in seeded_syndromes(&lattice, seed, 0.08, 8) {
            let defects = lattice.defects(&syndrome, sector);
            let expected = decoder
                .match_defects(&lattice, &defects)
                .to_correction(&lattice, sector);
            decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
            prop_assert_eq!(&buf, expected.pauli_string());
        }
    }

    /// The lookup decoder's borrowed-slice `decode_into` matches the cloning
    /// decode path byte for byte (d = 3 only: the table ceiling).
    #[test]
    fn lookup_decode_into_matches_decode(
        seed in 0u64..10_000,
        sector in arb_sector(),
    ) {
        let lattice = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lattice).unwrap();
        let mut buf = PauliString::identity(lattice.num_data());
        for syndrome in seeded_syndromes(&lattice, seed, 0.08, 8) {
            let expected = decoder.decode(&lattice, &syndrome, sector);
            decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
            prop_assert_eq!(&buf, expected.pauli_string());
        }
    }

    /// Every decoder's correction clears the syndrome it was given — no
    /// decoder is allowed to produce an invalid correction in its own sector.
    #[test]
    fn corrections_always_return_to_codespace(
        d in arb_distance(),
        raw in prop::collection::vec(0usize..1000, 0..12),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let error = error_from(&lattice, &raw, Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(ExactMatchingDecoder::new()),
            Box::new(GreedyMatchingDecoder::new()),
            Box::new(UnionFindDecoder::new()),
        ];
        for mut decoder in decoders {
            let correction = decoder.decode(&lattice, &syndrome, Sector::X);
            let state = classify_residual(&lattice, &error, correction.pauli_string(), Sector::X);
            prop_assert_ne!(
                state,
                LogicalState::InvalidCorrection,
                "{} left a residual syndrome",
                decoder.name()
            );
        }
    }

    /// Errors of weight at most (d-1)/2 are always corrected by the exact
    /// matching decoder (the defining property of a distance-d code).
    #[test]
    fn exact_decoder_corrects_low_weight_errors(
        d in arb_distance(),
        raw in prop::collection::vec(0usize..1000, 0..3),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let mut support: Vec<usize> = raw.iter().map(|&q| q % lattice.num_data()).collect();
        support.sort_unstable();
        support.dedup();
        support.truncate((d - 1) / 2);
        let error = PauliString::from_sparse(lattice.num_data(), &support, Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);
        let mut decoder = ExactMatchingDecoder::new();
        let correction = decoder.decode(&lattice, &syndrome, Sector::X);
        prop_assert_eq!(
            classify_residual(&lattice, &error, correction.pauli_string(), Sector::X),
            LogicalState::Success
        );
    }

    /// Greedy matching weight is within a factor of two of exact matching
    /// weight (it is a 2-approximation).
    #[test]
    fn greedy_is_a_two_approximation(
        d in arb_distance(),
        raw in prop::collection::vec(0usize..1000, 0..10),
    ) {
        let lattice = Lattice::new(d).unwrap();
        let error = error_from(&lattice, &raw, Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);
        let defects = lattice.defects(&syndrome, Sector::X);
        let exact = ExactMatchingDecoder::new().match_defects(&lattice, &defects);
        let greedy = GreedyMatchingDecoder::new().match_defects(&lattice, &defects);
        let we = exact.total_weight(&lattice);
        let wg = greedy.total_weight(&lattice);
        prop_assert!(we <= wg);
        prop_assert!(wg <= 2 * we.max(1));
        prop_assert!(exact.covers_exactly(&defects));
        prop_assert!(greedy.covers_exactly(&defects));
    }

    /// Decoding is symmetric between the sectors: an X-error pattern decoded
    /// in the Z sector behaves like the transposed Z-error pattern decoded in
    /// the X sector.
    #[test]
    fn both_sectors_decode_single_errors(
        d in arb_distance(),
        q in 0usize..1000,
    ) {
        let lattice = Lattice::new(d).unwrap();
        let q = q % lattice.num_data();
        for (pauli, sector) in [(Pauli::Z, Sector::X), (Pauli::X, Sector::Z)] {
            let error = PauliString::from_sparse(lattice.num_data(), &[q], pauli);
            let syndrome = lattice.syndrome_of(&error);
            let mut decoder = UnionFindDecoder::new();
            let correction = decoder.decode(&lattice, &syndrome, sector);
            prop_assert_eq!(
                classify_residual(&lattice, &error, correction.pauli_string(), sector),
                LogicalState::Success
            );
        }
    }
}
