//! The union-find decoder (Delfosse & Nickerson, "Almost-linear time decoding
//! algorithm for topological codes").
//!
//! Union-find is the fastest published *software* decoder the paper compares
//! against (Section VIII, "Comparison to existing approximation techniques"):
//! it trades a small amount of threshold (≈0.4%) for a large speed-up over
//! MWPM, but in the paper's profile (Section VIII, ~900 ns a decode) it is
//! still slower than syndrome generation, so it remains exposed to the
//! backlog problem.  This implementation's own cost is measured, not
//! assumed: the benchmark's `decoders.union_find.round_ns` row.  We
//! implement the standard two-phase algorithm — cluster growth with
//! half-edges, then peeling — specialized to the code-capacity setting of
//! the paper's accuracy evaluation.
//!
//! # Bitboard model
//!
//! A sector is its ancilla grid, [`Lattice::sector_grid`] (X: `(d − 1) × d`,
//! boundaries top and bottom; Z: `d × (d − 1)`, left and right), plus two
//! boundary vertices.  Ancillas are numbered sector-major, so vertex `v` is the
//! sector's ancilla `offset + v` and bit `v` of a
//! [`Bits<W>`](crate::bits::Bits) set, and a decode's defects are one copy of
//! the syndrome's bit range.  Half- and fully-grown edges are sets indexed by
//! owning vertex in the grid's four edge classes: right, down, boundary A and
//! B; `prepare` derives each class's owners from the grid, and the peel reads
//! each edge's data qubit from it.  Growth keeps its clusters — the components
//! over full grid edges that hold a defect — from round to round, starting from
//! one per defect.  A round keeps the clusters whose defect count is odd and
//! which own no full boundary edge, and grows every edge incident to that set
//! at once, as Delfosse & Nickerson grow a cluster: half an edge on each edge
//! of its boundary.  So an edge between two active clusters gains a half from
//! each and fills in one round; an edge whose two ends lie in one active
//! cluster gains one half, like any other.  With `B` the edges between two
//! active clusters, `G = incident & !full; full |= G & (half | B);
//! half = (half ^ G) & !full`.  Only a cluster
//! holding an end of a newly full right or down edge is flooded again (shifts
//! by 1 and `cols`), from itself, and a cluster an earlier flood of the round
//! swallowed is dropped.  A round's supports do not depend on the order clusters
//! merge in.
//!
//! The peel's trees come from the final clusters and are the seed's.
//! Boundary A's tree is every cluster owning a full A edge, and B's
//! clusters too when one cluster owns full edges to both boundaries (the
//! seed's BFS from A reaches B and expands it); otherwise B's clusters are
//! B's tree, and every other cluster is its own, rooted at its smallest
//! vertex.  Each tree's BFS keeps the seed's order (an ancilla's neighbours
//! up, left, down, right, boundary; a boundary's ancillas ascending) and
//! stops once it has discovered the tree's last defect, and the reverse
//! pass runs over that prefix.  That is exact: a vertex's parent is fixed
//! when it is discovered, every ancestor of a discovered vertex was
//! discovered before it, and a vertex discovered after the last defect
//! holds no charge, since charge only moves toward the root.
//!
//! [`Decoder::prepare`] picks `W` from {1, 2, 4, 8, 16} (one word to d = 7) and
//! panics past [`MAX_DISTANCE`](crate::bits::MAX_DISTANCE) = 31.  Growth
//! works in stack words plus one cluster slot per grid vertex (at most one cluster per defect); the peel's heap
//! scratch is one BFS queue and the tree's parent and edge arrays.  All of
//! it is sized by `prepare` and written before it is read, so
//! [`Decoder::decode_into`] allocates nothing (`tests/allocation_free.rs`
//! guards that).
//!
//! # Memo
//!
//! Below threshold most sectors carry a few defects, and the same few recur.
//! Each sector keeps a direct-mapped table of 1,024 decodes of 1–4 defects,
//! keyed by the defect bitboard the scan builds: a hit copies the stored
//! correction words, a miss grows and peels as above and then overwrites
//! the slot.  A sector decode is a pure function of (distance, sector,
//! defect set), so a hit returns exactly what a miss would.  `prepare`
//! allocates the table empty and preparing for another distance drops it;
//! it costs `1024 · (W + 2⌈n/64⌉)` words a sector for `n` data qubits.

use crate::bits::{assert_distance_supported, Bits};
use crate::traits::{sector_correction_pauli, Decoder};
use nisqplus_qec::lattice::{Lattice, Sector, SectorGrid};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;

/// Slots in each sector's memo (a power of two: the slot is the top bits of
/// a multiplicative hash).
const MEMO_SLOTS: usize = 1 << MEMO_SLOT_BITS;
const MEMO_SLOT_BITS: u32 = 10;

/// The most defects a memoised decode holds.  Low-weight sets recur below
/// threshold and heavier ones rarely do: at d = 5, p = 0.03 a limit of 3
/// gives up part of the gain, and a limit of 6 or none adds nothing to it
/// while every heavy decode pays a store and evicts a light one.
const MEMO_MAX_DEFECTS: u32 = 4;

/// The grid's edge classes, indexing [`SectorGraph::owners`] and a decode's
/// edge sets.
const RIGHT: usize = SectorGrid::RIGHT;
const DOWN: usize = SectorGrid::DOWN;
const BOUNDARY_A: usize = SectorGrid::BOUNDARY_A;
const BOUNDARY_B: usize = SectorGrid::BOUNDARY_B;

/// A set's memo slot: the top bits of a Fibonacci hash of its words.
fn memo_slot<const W: usize>(set: Bits<W>) -> usize {
    let hash = set
        .0
        .iter()
        .fold(0u64, |h, &w| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (hash >> (64 - MEMO_SLOT_BITS)) as usize
}

/// One sector's memo (module docs, "Memo"): each slot holds the last
/// defect set of at most [`MEMO_MAX_DEFECTS`] defects whose
/// [`memo_slot`] it is, and that set's correction.
#[derive(Debug, Clone)]
struct Memo<const W: usize> {
    /// Each slot's defect set; empty, which no memoised set is, until the
    /// slot is first written.
    keys: Vec<Bits<W>>,
    /// Each slot's correction as [`PauliString::words`], `stride` words a
    /// slot.
    corrections: Vec<u64>,
    stride: usize,
}

impl<const W: usize> Memo<W> {
    fn new(num_data: usize) -> Self {
        let stride = PauliString::words_for(num_data);
        Memo {
            keys: vec![Bits::EMPTY; MEMO_SLOTS],
            corrections: vec![0; MEMO_SLOTS * stride],
            stride,
        }
    }

    fn correction(&mut self, slot: usize) -> &mut [u64] {
        &mut self.corrections[slot * self.stride..(slot + 1) * self.stride]
    }
}

/// One sector's decoding graph over its ancilla grid, and its memo.  Grid
/// vertices are `0..n`; the peel numbers boundary A `n` and boundary B
/// `n + 1`.
#[derive(Debug, Clone)]
struct SectorGraph<const W: usize> {
    n: usize,
    cols: u32,
    /// The seed's growth bound, `4 · (2d − 1) + 8` rounds; no syndrome
    /// reaches it (every odd cluster meets a boundary first).
    max_rounds: u32,
    /// The vertices owning an edge of each class.
    owners: [Bits<W>; 4],
    /// The clusters `grow` keeps, in its first slots: `n` slots, since
    /// there is at most one cluster per defect.
    clusters: Vec<Bits<W>>,
    memo: Memo<W>,
}

impl<const W: usize> SectorGraph<W> {
    fn build(lattice: &Lattice, sector: Sector) -> Self {
        let grid = lattice.sector_grid(sector);
        let n = lattice.ancillas_per_sector();
        debug_assert!(n + 2 <= 64 * W);
        let mut owners = [Bits::EMPTY; 4];
        for (class, owners) in owners.iter_mut().enumerate() {
            for v in (0..n).filter(|&v| grid.crossing(class, v).is_some()) {
                owners.insert(v);
            }
        }
        SectorGraph {
            n,
            cols: grid.cols as u32,
            max_rounds: (4 * lattice.size() + 8) as u32,
            owners,
            clusters: vec![Bits::EMPTY; n],
            memo: Memo::new(lattice.num_data()),
        }
    }

    /// `set` closed over the fully-grown edges `full`.
    fn flood(&self, full: &[Bits<W>; 4], mut set: Bits<W>) -> Bits<W> {
        loop {
            let next = set
                | (set & full[RIGHT]).plus(1)
                | (set.minus(1) & full[RIGHT])
                | (set & full[DOWN]).plus(self.cols)
                | (set.minus(self.cols) & full[DOWN]);
            if next == set {
                return set;
            }
            set = next;
        }
    }

    /// Grows half-edges from `defects` until no cluster is active (holds odd
    /// defect parity and no boundary).  Returns the fully-grown edges and
    /// the number of clusters, which are left in the first slots of
    /// `self.clusters`: the components over the fully-grown grid edges
    /// that hold a defect.
    fn grow(&mut self, defects: Bits<W>) -> ([Bits<W>; 4], usize) {
        let mut half = [Bits::EMPTY; 4];
        let mut full = [Bits::EMPTY; 4];
        let mut len = 0;
        for v in defects.iter() {
            self.clusters[len] = Bits::EMPTY;
            self.clusters[len].insert(v);
            len += 1;
        }
        for _ in 0..self.max_rounds {
            let grounded = full[BOUNDARY_A] | full[BOUNDARY_B];
            let mut active = Bits::EMPTY;
            // Pairs of right / down neighbours inside one active cluster.
            let mut inside = [Bits::EMPTY; 2];
            for &cluster in &self.clusters[..len] {
                let odd = (cluster & defects).count_ones() % 2 == 1;
                if odd && (cluster & grounded).is_empty() {
                    active = active | cluster;
                    inside[0] = inside[0] | (cluster & cluster.minus(1));
                    inside[1] = inside[1] | (cluster & cluster.minus(self.cols));
                }
            }
            if active.is_empty() {
                break;
            }
            let incident = [
                (active | active.minus(1)) & self.owners[RIGHT],
                (active | active.minus(self.cols)) & self.owners[DOWN],
                active & self.owners[BOUNDARY_A],
                active & self.owners[BOUNDARY_B],
            ];
            // Each active cluster grows its boundary by half an edge, so an
            // edge between two of them gains both halves at once; an edge
            // inside one gains one.
            let both = [
                active & active.minus(1) & !inside[0] & self.owners[RIGHT],
                active & active.minus(self.cols) & !inside[1] & self.owners[DOWN],
                Bits::EMPTY,
                Bits::EMPTY,
            ];
            let mut filled = [Bits::EMPTY; 4];
            for class in 0..4 {
                let grown = incident[class] & !full[class];
                filled[class] = grown & (half[class] | both[class]);
                full[class] = full[class] | filled[class];
                half[class] = (half[class] ^ grown) & !full[class];
            }
            // Only a newly full grid edge joins vertices, and every cluster
            // it merges holds one of its ends, so the earliest of them
            // floods over the others.  Boundary edges only ground.
            let ends =
                filled[RIGHT] | filled[RIGHT].plus(1) | filled[DOWN] | filled[DOWN].plus(self.cols);
            if ends.is_empty() {
                continue;
            }
            let mut flooded = Bits::EMPTY;
            let mut kept = 0;
            for i in 0..len {
                let mut cluster = self.clusters[i];
                if !(cluster & flooded).is_empty() {
                    continue;
                }
                if !(cluster & ends).is_empty() {
                    cluster = self.flood(&full, cluster);
                    flooded = flooded | cluster;
                }
                self.clusters[kept] = cluster;
                kept += 1;
            }
            len = kept;
        }
        (full, len)
    }

    /// Peels the spanning forest of the fully-grown edges `full` of `grid`:
    /// a tree for each boundary's clusters and one for each other cluster
    /// of `clusters` (module docs), each BFS stopping at the tree's last
    /// defect.  Calls `flip` on the data qubit of every tree edge whose
    /// child carries charge; boundary vertices absorb charge instead of
    /// relaying it.
    fn peel(
        &self,
        grid: &SectorGrid,
        full: &[Bits<W>; 4],
        clusters: &[Bits<W>],
        defects: Bits<W>,
        scratch: &mut PeelScratch,
        mut flip: impl FnMut(usize),
    ) {
        let PeelScratch {
            queue,
            parent,
            qubit,
        } = scratch;
        let (boundary_a, boundary_b, cols) = (self.n, self.n + 1, self.cols as usize);
        let (mut on_a, mut on_b, mut spanning) = (Bits::EMPTY, Bits::EMPTY, false);
        for &cluster in clusters {
            let a = !(cluster & full[BOUNDARY_A]).is_empty();
            let b = !(cluster & full[BOUNDARY_B]).is_empty();
            if a {
                on_a = on_a | cluster;
            }
            if b {
                on_b = on_b | cluster;
            }
            spanning |= a && b;
        }
        // A BFS from A that reaches B expands B, so one spanning cluster
        // puts B's clusters in A's tree.
        let boundary_trees = if spanning {
            [(boundary_a, on_a | on_b), (boundary_b, Bits::EMPTY)]
        } else {
            [(boundary_a, on_a), (boundary_b, on_b)]
        };
        let on_boundary = on_a | on_b;
        let cluster_trees = clusters
            .iter()
            .filter(|&&cluster| (cluster & on_boundary).is_empty())
            .filter_map(|&cluster| Some((cluster.first()?, cluster)));
        let trees = boundary_trees
            .into_iter()
            .filter(|&(_, tree)| !tree.is_empty())
            .chain(cluster_trees);
        let mut visited = Bits::<W>::EMPTY;
        let mut charge = defects;
        for (root, tree) in trees {
            // The root is discovered; a boundary root is never a defect.
            let mut undiscovered = (tree & defects).count_ones();
            if defects.contains(root) {
                undiscovered -= 1;
            }
            visited.insert(root);
            queue[0] = root as u16;
            let (mut head, mut len) = (0, 1);
            while undiscovered > 0 && head < len {
                let v = queue[head] as usize;
                head += 1;
                // Discovers `w` over `owner`'s full edge of `class`.
                let mut visit = |w: usize, class: usize, owner: usize| {
                    if !visited.contains(w) {
                        visited.insert(w);
                        parent[w] = v as u16;
                        let edge = grid.crossing(class, owner);
                        qubit[w] = edge.expect("a full edge is owned") as u32;
                        queue[len] = w as u16;
                        len += 1;
                        if defects.contains(w) {
                            undiscovered -= 1;
                        }
                    }
                };
                if v >= boundary_a {
                    let class = BOUNDARY_A + (v - boundary_a);
                    for w in full[class].iter() {
                        visit(w, class, w);
                    }
                    continue;
                }
                // Edge-index order: the edges of lower owners first.
                let neighbours = [
                    (DOWN, v.wrapping_sub(cols), v.wrapping_sub(cols)),
                    (RIGHT, v.wrapping_sub(1), v.wrapping_sub(1)),
                    (DOWN, v, v + cols),
                    (RIGHT, v, v + 1),
                    (BOUNDARY_A, v, boundary_a),
                    (BOUNDARY_B, v, boundary_b),
                ];
                for (class, owner, w) in neighbours {
                    if owner < self.n && full[class].contains(owner) {
                        visit(w, class, owner);
                    }
                }
            }
            // Children before parents; a boundary vertex's charge bit is
            // never read, so toggling it is how it absorbs.
            for &v in queue[1..len].iter().rev() {
                let v = v as usize;
                if v < self.n && charge.contains(v) {
                    flip(qubit[v] as usize);
                    charge.toggle(parent[v] as usize);
                }
            }
        }
    }

    /// Decodes one sector into `out`, which holds the identity.  A sector
    /// without defects returns after the scan; one with at most
    /// [`MEMO_MAX_DEFECTS`] is answered from the memo or, on a miss,
    /// decoded and stored there.
    fn decode(
        &mut self,
        scratch: &mut PeelScratch,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        // Only the sector's bit range is copied, so a combined X/Z syndrome
        // works directly.
        let defects = Bits::defects(lattice, syndrome, sector);
        if defects.is_empty() {
            return;
        }
        let slot = (defects.count_ones() <= MEMO_MAX_DEFECTS).then(|| memo_slot(defects));
        if let Some(slot) = slot {
            if self.memo.keys[slot] == defects {
                out.copy_from_words(self.memo.correction(slot));
                return;
            }
        }
        let (full, len) = self.grow(defects);
        let pauli = sector_correction_pauli(sector);
        let grid = lattice.sector_grid(sector);
        let flip = |q| out.apply(q, pauli);
        self.peel(grid, &full, &self.clusters[..len], defects, scratch, flip);
        if let Some(slot) = slot {
            self.memo.keys[slot] = defects;
            self.memo.correction(slot).copy_from_slice(out.words());
        }
    }
}

/// Both sectors' grids, `[X, Z]`, at the word count `prepare` picked.
#[derive(Debug, Clone)]
enum Grids {
    W1(SectorGrids<1>),
    W2(SectorGrids<2>),
    W4(SectorGrids<4>),
    W8(SectorGrids<8>),
    W16(SectorGrids<16>),
}

type SectorGrids<const W: usize> = Box<[SectorGraph<W>; 2]>;

fn sector_grids<const W: usize>(lattice: &Lattice) -> SectorGrids<W> {
    Box::new(Sector::ALL.map(|sector| SectorGraph::build(lattice, sector)))
}

/// The peel's heap scratch, shared by both sectors (each has `d(d − 1)` grid
/// vertices) and written before it is read.
#[derive(Debug, Clone)]
struct PeelScratch {
    /// The BFS queue of one tree.
    queue: Vec<u16>,
    /// Per vertex: its tree parent, and the data qubit of the edge to it.
    parent: Vec<u16>,
    qubit: Vec<u32>,
}

impl PeelScratch {
    fn new(vertices: usize) -> Self {
        PeelScratch {
            queue: vec![0; vertices],
            parent: vec![0; vertices],
            qubit: vec![0; vertices],
        }
    }
}

/// The lattice-keyed prepared state.
#[derive(Debug, Clone)]
struct PreparedUnionFind {
    distance: usize,
    grids: Grids,
    scratch: PeelScratch,
}

impl PreparedUnionFind {
    fn build(lattice: &Lattice) -> Self {
        let d = lattice.distance();
        assert_distance_supported("union-find", d);
        let vertices = lattice.ancillas_per_sector() + 2;
        let grids = match vertices.div_ceil(64) {
            1 => Grids::W1(sector_grids(lattice)),
            2 => Grids::W2(sector_grids(lattice)),
            3..=4 => Grids::W4(sector_grids(lattice)),
            5..=8 => Grids::W8(sector_grids(lattice)),
            _ => Grids::W16(sector_grids(lattice)),
        };
        PreparedUnionFind {
            distance: d,
            grids,
            scratch: PeelScratch::new(vertices),
        }
    }
}

/// The union-find decoder.
#[derive(Debug, Clone, Default)]
pub struct UnionFindDecoder {
    prepared: Option<PreparedUnionFind>,
}

impl UnionFindDecoder {
    /// Creates a union-find decoder.
    #[must_use]
    pub fn new() -> Self {
        UnionFindDecoder { prepared: None }
    }

    /// Returns `true` if prepared state for `lattice` is cached.
    #[must_use]
    pub fn is_prepared_for(&self, lattice: &Lattice) -> bool {
        self.prepared
            .as_ref()
            .is_some_and(|p| p.distance == lattice.distance())
    }

    fn ensure_prepared(&mut self, lattice: &Lattice) -> &mut PreparedUnionFind {
        if !self.is_prepared_for(lattice) {
            self.prepared = Some(PreparedUnionFind::build(lattice));
        }
        self.prepared.as_mut().expect("just prepared")
    }
}

impl Decoder for UnionFindDecoder {
    fn name(&self) -> &str {
        "union-find"
    }

    /// # Panics
    ///
    /// Panics if `lattice.distance()` exceeds 31.
    fn prepare(&mut self, lattice: &Lattice) {
        let _ = self.ensure_prepared(lattice);
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        let PreparedUnionFind { grids, scratch, .. } = self.ensure_prepared(lattice);
        let s = sector.index();
        match grids {
            Grids::W1(g) => g[s].decode(scratch, lattice, syndrome, sector, out),
            Grids::W2(g) => g[s].decode(scratch, lattice, syndrome, sector, out),
            Grids::W4(g) => g[s].decode(scratch, lattice, syndrome, sector, out),
            Grids::W8(g) => g[s].decode(scratch, lattice, syndrome, sector, out),
            Grids::W16(g) => g[s].decode(scratch, lattice, syndrome, sector, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::error_model::{Depolarizing, ErrorModel, PureDephasing};
    use nisqplus_qec::lattice::Coord;
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use nisqplus_qec::pauli::Pauli;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `prepare`'s graph at one word count: `d(d − 1)` vertices per
    /// sector, and each class's owners those of the lattice's grid, one
    /// owned edge per data qubit (the grid's contract is
    /// `nisqplus_qec::lattice`'s `sector_grid_contract`).
    fn check_owners<const W: usize>(d: usize) {
        let lat = Lattice::new(d).unwrap();
        for sector in Sector::ALL {
            let graph = SectorGraph::<W>::build(&lat, sector);
            let grid = lat.sector_grid(sector);
            assert_eq!(graph.n, d * (d - 1));
            for class in 0..4 {
                let owners: Vec<usize> = (0..graph.n)
                    .filter(|&v| grid.crossing(class, v).is_some())
                    .collect();
                assert_eq!(graph.owners[class].iter().collect::<Vec<_>>(), owners);
            }
            let edges: u32 = graph.owners.iter().map(|o| o.count_ones()).sum();
            assert_eq!(edges as usize, lat.num_data(), "d={d} {sector}");
        }
    }

    #[test]
    fn graph_has_expected_vertex_and_edge_counts() {
        check_owners::<1>(3);
        check_owners::<1>(5);
        check_owners::<2>(9);
        check_owners::<4>(15);
        // `prepare` picks the fewest of {1, 2, 4, 8, 16} words that hold a
        // sector's grid and its two boundary vertices.
        for (d, words) in [(7, 1), (9, 2), (11, 2), (13, 4), (15, 4), (17, 8), (31, 16)] {
            let picked = match PreparedUnionFind::build(&Lattice::new(d).unwrap()).grids {
                Grids::W1(_) => 1,
                Grids::W2(_) => 2,
                Grids::W4(_) => 4,
                Grids::W8(_) => 8,
                Grids::W16(_) => 16,
            };
            assert_eq!(picked, words, "d={d}");
        }
    }

    #[test]
    fn empty_syndrome_gives_identity() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let c = decoder.decode(&lat, &Syndrome::new(lat.num_ancillas()), Sector::X);
        assert_eq!(c.weight(), 0);
    }

    #[test]
    fn prepare_caches_and_rebuilds_on_lattice_change() {
        let lat5 = Lattice::new(5).unwrap();
        let lat7 = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        assert!(!decoder.is_prepared_for(&lat5));
        decoder.prepare(&lat5);
        assert!(decoder.is_prepared_for(&lat5));
        assert!(!decoder.is_prepared_for(&lat7));
        // Decoding on a different lattice transparently re-prepares.
        let c = decoder.decode(&lat7, &Syndrome::new(lat7.num_ancillas()), Sector::X);
        assert_eq!(c.weight(), 0);
        assert!(decoder.is_prepared_for(&lat7));
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = UnionFindDecoder::new();
            for q in 0..lat.num_data() {
                for (pauli, sector) in [(Pauli::Z, Sector::X), (Pauli::X, Sector::Z)] {
                    let error = PauliString::from_sparse(lat.num_data(), &[q], pauli);
                    let syndrome = lat.syndrome_of(&error);
                    let correction = decoder.decode(&lat, &syndrome, sector);
                    assert_eq!(
                        classify_residual(&lat, &error, correction.pauli_string(), sector),
                        LogicalState::Success,
                        "union-find failed on single {pauli} error at qubit {q}, d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrects_short_chains() {
        let lat = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let q1 = lat.cell(Coord::new(6, 6)).index;
        let q2 = lat.cell(Coord::new(6, 8)).index;
        let q3 = lat.cell(Coord::new(8, 6)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q1, q2, q3], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let correction = decoder.decode(&lat, &syndrome, Sector::X);
        assert_eq!(
            classify_residual(&lat, &error, correction.pauli_string(), Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn correction_always_clears_syndrome_under_random_errors() {
        // Even when union-find picks a logically wrong chain, its correction
        // must always return the state to the codespace.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let model = PureDephasing::new(0.12).unwrap();
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = UnionFindDecoder::new();
            for _ in 0..60 {
                let error = model.sample(&lat, &mut rng);
                let syndrome = lat.syndrome_of(&error);
                let correction = decoder.decode(&lat, &syndrome, Sector::X);
                let state = classify_residual(&lat, &error, correction.pauli_string(), Sector::X);
                assert_ne!(
                    state,
                    LogicalState::InvalidCorrection,
                    "union-find produced a syndrome-violating correction at d={d}"
                );
            }
        }
    }
    #[test]
    fn boundary_errors_are_matched_to_boundary() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = UnionFindDecoder::new();
        // A single error adjacent to the top boundary produces one defect.
        let q = lat.cell(Coord::new(0, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        assert_eq!(lat.defects(&syndrome, Sector::X).len(), 1);
        let correction = decoder.decode(&lat, &syndrome, Sector::X);
        assert_eq!(
            classify_residual(&lat, &error, correction.pauli_string(), Sector::X),
            LogicalState::Success
        );
    }

    /// Growth is per cluster, as Delfosse & Nickerson grow: an edge between
    /// two growing clusters gains a half from each and fills in one round,
    /// while an edge inside one growing cluster gains one half a round.  At
    /// d = 5 (X grid 4 × 5), a row of defects at vertices 5, 6, 7 fills its
    /// two edges in round 1, between three singletons.  The odd cluster
    /// then takes in vertices 0, 1, 2 above it in round 2.  In round 3 it
    /// grows the top row's edges 0–1 and 1–2 from inside, and edge 8–9,
    /// which no one had grown, fills at once: its other end is in the
    /// cluster the lone defect 14 grew.  The merged cluster is even, so
    /// 0–1 and 1–2 stay half; growing them from both ends would fill them,
    /// and growing 8–9 from one side would leave it half.
    #[test]
    fn an_edge_gains_a_half_from_each_growing_cluster_it_joins() {
        let lattice = Lattice::new(5).unwrap();
        let mut graph = SectorGraph::<1>::build(&lattice, Sector::X);
        let mut defects = Bits::EMPTY;
        for v in [5, 6, 7, 14] {
            defects.insert(v);
        }
        let (full, len) = graph.grow(defects);
        assert!(full[RIGHT].contains(5) && full[RIGHT].contains(6));
        assert!(full[RIGHT].contains(8));
        assert!(graph.clusters[..len]
            .iter()
            .any(|c| c.contains(0) && c.contains(2)));
        assert!(!full[RIGHT].contains(0) && !full[RIGHT].contains(1));
    }

    /// Grows and peels `defects` on `graph`: the correction, the final
    /// clusters, and whether one of them owns full edges to both boundaries.
    fn grow_and_peel<const W: usize>(
        lattice: &Lattice,
        graph: &mut SectorGraph<W>,
        scratch: &mut PeelScratch,
        defects: Bits<W>,
        sector: Sector,
    ) -> (PauliString, Vec<Bits<W>>, bool) {
        let mut out = PauliString::identity(lattice.num_data());
        let (full, len) = graph.grow(defects);
        let pauli = sector_correction_pauli(sector);
        let clusters = graph.clusters[..len].to_vec();
        let grid = lattice.sector_grid(sector);
        let flip = |q| out.apply(q, pauli);
        graph.peel(grid, &full, &clusters, defects, scratch, flip);
        let spanning = clusters.iter().any(|&cluster| {
            !(cluster & full[BOUNDARY_A]).is_empty() && !(cluster & full[BOUNDARY_B]).is_empty()
        });
        (out, clusters, spanning)
    }

    /// Over depolarizing syndromes of `samples` rounds at each `p`, both
    /// sectors: whenever the final clusters are several and none owns full
    /// edges to both boundaries, the sector's correction is the XOR of each
    /// cluster's defects decoded alone.  Returns how many decodes split so
    /// (and were checked) and how many had a spanning cluster.
    fn check_cluster_decomposition<const W: usize>(
        d: usize,
        ps: &[f64],
        samples: usize,
    ) -> (usize, usize) {
        let lattice = Lattice::new(d).unwrap();
        let mut scratch = PeelScratch::new(lattice.ancillas_per_sector() + 2);
        let (mut split, mut spanning) = (0, 0);
        for sector in Sector::ALL {
            let mut graph = SectorGraph::<W>::build(&lattice, sector);
            for &p in ps {
                let model = Depolarizing::new(p).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(d as u64 * 1_000 + (p * 100.0) as u64);
                for _ in 0..samples {
                    let syndrome = lattice.syndrome_of(&model.sample(&lattice, &mut rng));
                    let defects = Bits::defects(&lattice, &syndrome, sector);
                    let (whole, clusters, spans) =
                        grow_and_peel(&lattice, &mut graph, &mut scratch, defects, sector);
                    if clusters.len() < 2 {
                        continue;
                    }
                    if spans {
                        spanning += 1;
                        continue;
                    }
                    let mut parts = PauliString::identity(lattice.num_data());
                    for cluster in clusters {
                        let (alone, ..) = grow_and_peel(
                            &lattice,
                            &mut graph,
                            &mut scratch,
                            cluster & defects,
                            sector,
                        );
                        parts.compose_with(&alone);
                    }
                    assert_eq!(whole, parts, "d={d} p={p} sector={sector} {defects:?}");
                    split += 1;
                }
            }
        }
        (split, spanning)
    }

    /// The premise of a per-cluster memo: a sector decode splits into its
    /// final clusters' decodes, byte for byte, unless one cluster owns
    /// full edges to both boundaries — then boundary A's tree takes in
    /// B's clusters, which alone would hang from B.
    #[test]
    fn a_decode_is_the_xor_of_its_clusters_decoded_alone() {
        let ps = [0.03, 0.08, 0.15];
        let (mut split, mut spanning) = (0, 0);
        for (s, t) in [
            check_cluster_decomposition::<1>(5, &ps, 1_500),
            check_cluster_decomposition::<1>(7, &ps, 1_500),
            check_cluster_decomposition::<2>(9, &ps, 1_500),
        ] {
            split += s;
            spanning += t;
        }
        // 17,522 split and 1,103 spanning decodes at these seeds (1,000
        // samples a point gave 1,256 spanning before an edge between two
        // growing clusters gained a half from each, and 722 after).
        assert!(
            split >= 8_000 && spanning >= 1_000,
            "only {split} split and {spanning} spanning decodes exercised"
        );
    }

    #[test]
    fn decoder_name() {
        assert_eq!(UnionFindDecoder::new().name(), "union-find");
    }
}
