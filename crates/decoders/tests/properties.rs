//! Property-based tests for the baseline decoders, including the
//! seed-reference equivalence suite: the amortized prepared/scratch decode
//! paths must produce *byte-identical* corrections to the original per-call
//! implementations they replaced.

use nisqplus_decoders::{Decoder, ExactMatchingDecoder, GreedyMatchingDecoder, UnionFindDecoder};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_residual, classify_residual_operator, LogicalState};
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
/// parent map.  (Mirrors `UnionFindDecoder::decode_sector` at the PR 2 tip,
/// with one fix: an edge between two growing clusters gains a half from
/// *each* per round, as Delfosse & Nickerson grow, where the seed added one
/// half when either end's cluster grew and so never reached the code
/// distance.)
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
                // Each active cluster grows half of each edge of its
                // boundary, so an edge between two of them gains both halves.
                let grown = if ru == rv {
                    u8::from(clusters.is_active_root(ru))
                } else {
                    u8::from(clusters.is_active_root(ru)) + u8::from(clusters.is_active_root(rv))
                };
                if grown > 0 {
                    support[i] = (support[i] + grown).min(2);
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

/// Every subset of `0..n` with at most `max` members, smallest first.
fn subsets_up_to(n: usize, max: usize) -> Vec<Vec<usize>> {
    let mut all = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max {
        frontier = frontier
            .iter()
            .flat_map(|set: &Vec<usize>| {
                let from = set.last().map_or(0, |&last| last + 1);
                (from..n).map(move |i| [set.as_slice(), &[i]].concat())
            })
            .collect();
        all.extend(frontier.iter().cloned());
    }
    all
}

/// Seed parity exhaustively where it is affordable: every X- and Z-sector
/// pattern at d = 3, and every pattern of at most three defects per sector
/// at d = 5 and d = 7, each decoded again once the memo is full.
#[test]
fn union_find_matches_seed_on_every_small_pattern() {
    for (d, max_defects, expected_patterns) in [(3, 6, 64), (5, 3, 1351), (7, 3, 12_384)] {
        let lattice = Lattice::new(d).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let mut buf = PauliString::identity(lattice.num_data());
        for sector in Sector::ALL {
            let ancillas: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
            let cases: Vec<_> = subsets_up_to(ancillas.len(), max_defects)
                .into_iter()
                .map(|members| {
                    let hot: Vec<usize> = members.into_iter().map(|i| ancillas[i]).collect();
                    let syndrome = Syndrome::from_hot(lattice.num_ancillas(), &hot);
                    let expected = seed_union_find_correction(&lattice, &syndrome, sector);
                    (hot, syndrome, expected)
                })
                .collect();
            assert_eq!(cases.len(), expected_patterns, "d={d} sector={sector}");
            // A first pass fills union-find's memo; the second decodes every
            // pattern twice in a row.  Of a 1–4-defect pattern the first of
            // those hits unless a later pattern evicted it (at d = 5 and
            // d = 7 the patterns outnumber the 1,024 slots), and the second
            // hits the slot that decode left.
            for (pass, repeats) in [(1, 1), (2, 2)] {
                for (hot, syndrome, expected) in &cases {
                    for _ in 0..repeats {
                        decoder.decode_into(&lattice, syndrome, sector, &mut buf);
                        assert_eq!(
                            &buf, expected,
                            "pass {pass} d={d} sector={sector} hot={hot:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Pinned peel shapes, each equal to the seed in both sectors at one, two
/// and four words per sector grid (d = 5, 9, 13).  Defects are placed by
/// `(depth, lateral)`: depth `0..d − 1` runs from boundary A to boundary B
/// (X: rows, top to bottom; Z: columns, left to right) and lateral `0..d`
/// across it.  Each shape is decoded twice, so a memoisable one is also
/// answered from the memo.
#[test]
fn union_find_matches_seed_on_pinned_tree_shapes() {
    for d in [5, 9, 13] {
        let lattice = Lattice::new(d).unwrap();
        let (last, mid) = (d - 2, (d - 1) / 2);
        // A column of defects at every depth plus one beside its second:
        // after one round it is one odd cluster, and in the second it
        // grows its boundary A and B edges full at once.  A lone defect on
        // the last depth, far across, grounds on B alone; the spanning
        // cluster's tree reaches B and takes it in.
        let mut spanning: Vec<(usize, usize)> = (0..=last).map(|depth| (depth, 0)).collect();
        spanning.extend([(1, 1), (last, d - 1)]);
        // Two defects two apart grow into one even cluster of two
        // crosses, away from both boundaries, rooted at a cross's arm.
        let arm_root = vec![(mid - 1, mid - 1), (mid - 1, mid + 1)];
        // Three defects two apart make one odd cluster that grows two
        // more rounds until it grounds; its tree holds every defect two
        // steps below the boundary and goes on past them.
        let past_last = vec![(last - 1, mid - 2), (last - 1, mid), (last - 1, mid + 2)];
        for (shape, placed) in [
            ("spanning A and B beside a B-only cluster", spanning),
            ("root without a defect", arm_root),
            ("tree past its last defect", past_last),
        ] {
            for sector in Sector::ALL {
                let ancillas: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
                let hot: Vec<usize> = placed
                    .iter()
                    .map(|&(depth, lateral)| match sector {
                        Sector::X => ancillas[depth * d + lateral],
                        Sector::Z => ancillas[lateral * (d - 1) + depth],
                    })
                    .collect();
                let syndrome = Syndrome::from_hot(lattice.num_ancillas(), &hot);
                let expected = seed_union_find_correction(&lattice, &syndrome, sector);
                let mut decoder = UnionFindDecoder::new();
                for _ in 0..2 {
                    let correction = decoder.decode(&lattice, &syndrome, sector);
                    assert_eq!(
                        correction.pauli_string(),
                        &expected,
                        "{shape}: d={d} sector={sector}"
                    );
                }
            }
        }
    }
}

/// Union-find on one sector's errors (Z errors for the X sector, X errors
/// for Z), enumerated exhaustively.  The syndrome is the XOR of the error's
/// single-qubit syndromes, toggled in and out as the enumeration descends,
/// so a decode costs no allocation.
struct EveryError {
    lattice: Lattice,
    sector: Sector,
    pauli: Pauli,
    singles: Vec<Syndrome>,
    decoder: UnionFindDecoder,
    syndrome: Syndrome,
    residual: PauliString,
    qubits: Vec<usize>,
    decoded: usize,
}

impl EveryError {
    /// Decodes every error of weight `1..=max_weight` at distance `d` and
    /// asserts each is corrected.  Returns the number of errors decoded.
    fn assert_corrected(d: usize, sector: Sector, max_weight: usize) -> usize {
        let lattice = Lattice::new(d).unwrap();
        let n = lattice.num_data();
        let pauli = match sector {
            Sector::X => Pauli::Z,
            Sector::Z => Pauli::X,
        };
        let mut every = EveryError {
            singles: (0..n)
                .map(|q| lattice.syndrome_of(&PauliString::from_sparse(n, &[q], pauli)))
                .collect(),
            syndrome: Syndrome::new(lattice.num_ancillas()),
            residual: PauliString::identity(n),
            lattice,
            sector,
            pauli,
            decoder: UnionFindDecoder::new(),
            qubits: Vec::with_capacity(max_weight),
            decoded: 0,
        };
        every.extend(0, max_weight);
        every.decoded
    }

    /// Visits every error that adds members from `from..` to `qubits`.
    fn extend(&mut self, from: usize, max_weight: usize) {
        for q in from..self.singles.len() {
            self.syndrome.xor_with(&self.singles[q]);
            self.qubits.push(q);
            let (lattice, sector) = (&self.lattice, self.sector);
            self.decoder
                .decode_into(lattice, &self.syndrome, sector, &mut self.residual);
            for &e in &self.qubits {
                self.residual.apply(e, self.pauli);
            }
            assert_eq!(
                classify_residual_operator(lattice, &self.residual, sector),
                LogicalState::Success,
                "d={} sector={sector} error={:?}",
                lattice.distance(),
                self.qubits
            );
            self.decoded += 1;
            if self.qubits.len() < max_weight {
                self.extend(q + 1, max_weight);
            }
            self.qubits.pop();
            self.syndrome.xor_with(&self.singles[q]);
        }
    }
}

/// `C(n, 1) + … + C(n, w)`: the errors of weight `1..=w` on `n` qubits.
fn errors_up_to(n: usize, w: usize) -> usize {
    let mut choose = 1;
    (1..=w)
        .map(|k| {
            choose = choose * (n + 1 - k) / k;
            choose
        })
        .sum()
}

/// Union-find reaches the code distance: every error of weight at most
/// `⌊(d − 1)/2⌋` is corrected, in both sectors, exhaustively at d = 3, 5
/// and 7 (about 205 k decodes).  When an edge between two growing
/// clusters gained one half a round, not one from each, 5 of the 820
/// weight-2 errors failed at d = 5 and 95 of the 98,770 weight-3 errors at
/// d = 7, in each sector.
#[test]
fn union_find_corrects_every_error_up_to_half_the_distance() {
    for d in [3, 5, 7] {
        let n = Lattice::new(d).unwrap().num_data();
        for sector in Sector::ALL {
            let decoded = EveryError::assert_corrected(d, sector, (d - 1) / 2);
            assert_eq!(
                decoded,
                errors_up_to(n, (d - 1) / 2),
                "d={d} sector={sector}"
            );
        }
    }
}

/// The d = 9 leg of the test above: 17.7 M errors of weight at most 4 a
/// sector, both sectors on their own threads.  Release builds run it (the
/// CI step "Trial-path oracles"); a debug build would take many minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 35 M decodes")]
fn union_find_corrects_every_error_up_to_half_the_distance_at_d9() {
    let n = Lattice::new(9).unwrap().num_data();
    std::thread::scope(|scope| {
        let legs: Vec<_> = Sector::ALL
            .map(|sector| scope.spawn(move || EveryError::assert_corrected(9, sector, 4)))
            .into_iter()
            .collect();
        for leg in legs {
            let decoded = leg
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            assert_eq!(decoded, errors_up_to(n, 4));
        }
    });
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
        // into the next shows as a byte difference.  The 5 -> 7 -> 5 legs
        // are the check that `prepare` drops union-find's memo: d = 5 and
        // d = 7 both keep one word per sector grid, so an entry surviving a
        // re-prepare would answer a defect set with the other distance's
        // correction.
        for (leg, (distance, p)) in [
            (5, 0.03), (7, 0.15), (5, 0.08), (9, 0.03), (9, 0.08), (9, 0.15),
            (11, 0.08), (11, 0.3), (13, 0.08), (13, 0.3), (15, 0.08), (15, 0.3),
        ]
        .into_iter()
        .enumerate()
        {
            let lattice = Lattice::new(distance).unwrap();
            let check = match leg {
                1 | 2 => " (5 -> 7 -> 5: prepare must drop the memo)",
                _ => "",
            };
            for syndrome in seeded_syndromes(&lattice, seed + leg as u64, p, 4) {
                for sector in Sector::ALL {
                    decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
                    prop_assert_eq!(
                        &buf,
                        &seed_union_find_correction(&lattice, &syndrome, sector),
                        "d={} p={} sector={:?}{}", distance, p, sector, check
                    );
                }
            }
        }
    }

    /// The greedy decoder's scratch-arena `decode_into` matches the seed
    /// decode path (`match_defects`, unchanged from the seed, with its
    /// chains toggled in by `Matching::apply_to`) byte for byte, across
    /// seeds x distances x sectors.
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
            let mut expected = PauliString::identity(lattice.num_data());
            decoder
                .match_defects(&lattice, &defects)
                .apply_to(&lattice, sector, &mut expected);
            decoder.decode_into(&lattice, &syndrome, sector, &mut buf);
            prop_assert_eq!(&buf, &expected);
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
