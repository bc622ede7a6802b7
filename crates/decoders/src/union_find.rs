//! The union-find decoder (Delfosse & Nickerson, "Almost-linear time decoding
//! algorithm for topological codes").
//!
//! Union-find is the fastest published *software* decoder the paper compares
//! against (Section VIII, "Comparison to existing approximation techniques"):
//! it trades a small amount of threshold (≈0.4%) for a large speed-up over
//! MWPM, but its decoding time still exceeds the syndrome-generation time, so
//! it remains exposed to the backlog problem.  We implement the standard
//! two-phase algorithm — cluster growth with half-edges, then peeling —
//! specialized to the code-capacity setting of the paper's accuracy evaluation.
//!
//! # Bitboard model
//!
//! A sector is its `rows × cols` ancilla grid (X: `(d − 1) × d`, boundaries top
//! and bottom; Z: `d × (d − 1)`, left and right) plus two boundary vertices.
//! Vertex `v` is bit `v` of a `[u64; W]` set, row-major — the order of
//! [`Lattice::ancillas_in_sector`] — and half- and fully-grown edges are sets
//! indexed by owning vertex in four classes: right, down, boundary A and B.  A
//! growth round floods each unclaimed defect's component over full edges
//! (shifts by 1 and `cols`), keeps it if its defect count is odd and it owns no
//! full boundary edge, and grows every edge incident to the kept set at once:
//! `G = incident & !full; full |= G & half; half ^= G`.  Corrections equal the
//! seed's: a round's supports do not depend on the order clusters merge in, and
//! the scalar BFS peel keeps the seed's order (starts: boundary A, B, ancillas
//! ascending; an ancilla's neighbours up, left, down, right, boundary).
//!
//! [`Decoder::prepare`] picks `W` from {1, 2, 4, 8, 16} (one word to d = 7) and
//! panics past d = 31.  Growth lives in stack words; the only heap scratch is
//! the peel's queue and tree arrays, sized by `prepare` and written before they
//! are read, so [`Decoder::decode_into`] allocates nothing
//! (`tests/allocation_free.rs` guards that).

use crate::traits::{sector_correction_pauli, Correction, Decoder};
use nisqplus_qec::lattice::{Coord, Lattice, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// The largest distance whose sector grid, boundary vertices included, fits
/// in 16 words.
const MAX_DISTANCE: usize = 31;

/// Edge classes, indexing [`SectorGrid::owners`] and a decode's edge sets.
const RIGHT: usize = 0;
const DOWN: usize = 1;
const BOUNDARY_A: usize = 2;
const BOUNDARY_B: usize = 3;

/// A set of vertices: bit `v % 64` of word `v / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits<const W: usize>([u64; W]);

impl<const W: usize> Bits<W> {
    const EMPTY: Self = Bits([0; W]);

    fn contains(self, v: usize) -> bool {
        self.0[v / 64] >> (v % 64) & 1 == 1
    }

    fn toggle(&mut self, v: usize) {
        self.0[v / 64] ^= 1 << (v % 64);
    }

    fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    fn first(self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.0[w].trailing_zeros() as usize)
    }

    /// The members, ascending.
    fn iter(mut self) -> impl Iterator<Item = usize> {
        std::iter::from_fn(move || {
            let v = self.first()?;
            self.toggle(v);
            Some(v)
        })
    }

    /// `{v + s : v ∈ self}`, for `0 < s < 64`.
    fn plus(self, s: u32) -> Self {
        Bits(std::array::from_fn(|w| {
            let carry = if w > 0 { self.0[w - 1] >> (64 - s) } else { 0 };
            self.0[w] << s | carry
        }))
    }

    /// `{v − s : v ∈ self, v ≥ s}`, for `0 < s < 64`.
    fn minus(self, s: u32) -> Self {
        Bits(std::array::from_fn(|w| {
            let carry = self.0.get(w + 1).map_or(0, |&next| next << (64 - s));
            self.0[w] >> s | carry
        }))
    }
}

impl<const W: usize> BitAnd for Bits<W> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] & rhs.0[w]))
    }
}

impl<const W: usize> BitOr for Bits<W> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] | rhs.0[w]))
    }
}

impl<const W: usize> BitXor for Bits<W> {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] ^ rhs.0[w]))
    }
}

impl<const W: usize> Not for Bits<W> {
    type Output = Self;
    fn not(self) -> Self {
        Bits(self.0.map(|w| !w))
    }
}

/// One sector's decoding graph over its ancilla grid.  Grid vertices are
/// `0..n`; the peel numbers boundary A `n` and boundary B `n + 1`.
#[derive(Debug, Clone)]
struct SectorGrid<const W: usize> {
    n: usize,
    cols: u32,
    /// The seed's growth bound, `4 · (2d − 1) + 8` rounds; no syndrome
    /// reaches it (every odd cluster meets a boundary first).
    max_rounds: u32,
    /// Ancilla index -> vertex, for this sector's ancillas (others read 0
    /// and are masked out of the defect scan).
    vertex_of_ancilla: Vec<u16>,
    /// The vertices owning an edge of each class.
    owners: [Bits<W>; 4],
    /// The data qubit each edge crosses, by class and owning vertex.
    qubit: [Vec<u32>; 4],
}

impl<const W: usize> SectorGrid<W> {
    fn build(lattice: &Lattice, sector: Sector) -> Self {
        let d = lattice.distance();
        let (rows, cols) = match sector {
            Sector::X => (d - 1, d),
            Sector::Z => (d, d - 1),
        };
        let n = rows * cols;
        debug_assert!(n + 2 <= 64 * W);
        let mut grid = SectorGrid {
            n,
            cols: cols as u32,
            max_rounds: (4 * lattice.size() + 8) as u32,
            vertex_of_ancilla: vec![0; lattice.num_ancillas()],
            owners: [Bits::EMPTY; 4],
            qubit: std::array::from_fn(|_| vec![0; n]),
        };
        let data = |row, col| lattice.cell(Coord::new(row, col)).index as u32;
        for (v, a) in lattice.ancillas_in_sector(sector).enumerate() {
            grid.vertex_of_ancilla[a] = v as u16;
            let (i, j) = (v / cols, v % cols);
            let Coord { row, col } = lattice.ancilla_coord(a);
            let (right, down) = ((row, col + 1), (row + 1, col));
            // Boundary A lies before the first row (X) or column (Z), B past
            // the last.
            let (a_edge, b_edge) = match sector {
                Sector::X => ((i == 0, (row - 1, col)), (i + 1 == rows, down)),
                Sector::Z => ((j == 0, (row, col - 1)), (j + 1 == cols, right)),
            };
            // Whether `v` owns an edge of each class, and the qubit it crosses.
            let owned = [(j + 1 < cols, right), (i + 1 < rows, down), a_edge, b_edge];
            for (class, (owns, (row, col))) in owned.into_iter().enumerate() {
                if owns {
                    grid.owners[class].toggle(v);
                    grid.qubit[class][v] = data(row, col);
                }
            }
        }
        grid
    }

    /// The component of `seed` over the fully-grown edges `full`.
    fn component(&self, full: &[Bits<W>; 4], seed: usize) -> Bits<W> {
        let mut cluster = Bits::EMPTY;
        cluster.toggle(seed);
        loop {
            let next = cluster
                | (cluster & full[RIGHT]).plus(1)
                | (cluster.minus(1) & full[RIGHT])
                | (cluster & full[DOWN]).plus(self.cols)
                | (cluster.minus(self.cols) & full[DOWN]);
            if next == cluster {
                return cluster;
            }
            cluster = next;
        }
    }

    /// Grows half-edges from `defects` until no cluster is active (holds odd
    /// defect parity and no boundary), and returns the fully-grown edges.
    fn grow(&self, defects: Bits<W>) -> [Bits<W>; 4] {
        let mut half = [Bits::EMPTY; 4];
        let mut full = [Bits::EMPTY; 4];
        for _ in 0..self.max_rounds {
            // Every active cluster holds a defect, so flooding from each
            // unclaimed defect enumerates them.
            let grounded = full[BOUNDARY_A] | full[BOUNDARY_B];
            let mut active = Bits::EMPTY;
            let mut unclaimed = defects;
            while let Some(seed) = unclaimed.first() {
                let cluster = self.component(&full, seed);
                unclaimed = unclaimed & !cluster;
                let odd = (cluster & defects).count_ones() % 2 == 1;
                if odd && (cluster & grounded).is_empty() {
                    active = active | cluster;
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
            for class in 0..4 {
                let grown = incident[class] & !full[class];
                full[class] = full[class] | (grown & half[class]);
                half[class] = half[class] ^ grown;
            }
        }
        full
    }

    /// Peels the spanning forest of the fully-grown edges `full` in the
    /// seed's order, applying `pauli` to `out` on the data qubit of every
    /// tree edge whose child carries charge.  Boundary vertices absorb charge
    /// instead of relaying it; a vertex no fully-grown edge reaches peels
    /// nothing and is never a start.
    fn peel(
        &self,
        full: &[Bits<W>; 4],
        defects: Bits<W>,
        scratch: &mut PeelScratch,
        pauli: Pauli,
        out: &mut PauliString,
    ) {
        let PeelScratch {
            queue,
            parent,
            qubit,
        } = scratch;
        let (boundary_a, boundary_b, cols) = (self.n, self.n + 1, self.cols as usize);
        let reached = full[RIGHT]
            | full[RIGHT].plus(1)
            | full[DOWN]
            | full[DOWN].plus(self.cols)
            | full[BOUNDARY_A]
            | full[BOUNDARY_B];
        let boundary_starts = [(boundary_a, BOUNDARY_A), (boundary_b, BOUNDARY_B)]
            .into_iter()
            .filter(|&(_, class)| !full[class].is_empty())
            .map(|(v, _)| v);
        let mut visited = Bits::<W>::EMPTY;
        let mut charge = defects;
        for start in boundary_starts.chain(reached.iter()) {
            if visited.contains(start) {
                continue;
            }
            visited.toggle(start);
            queue[0] = start as u16;
            let (mut head, mut len) = (0, 1);
            while head < len {
                let v = queue[head] as usize;
                head += 1;
                let mut visit = |w: usize, edge_qubit: u32| {
                    if !visited.contains(w) {
                        visited.toggle(w);
                        parent[w] = v as u16;
                        qubit[w] = edge_qubit;
                        queue[len] = w as u16;
                        len += 1;
                    }
                };
                if v >= boundary_a {
                    let class = BOUNDARY_A + (v - boundary_a);
                    for w in full[class].iter() {
                        visit(w, self.qubit[class][w]);
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
                        visit(w, self.qubit[class][owner]);
                    }
                }
            }
            // Children before parents; a boundary vertex's charge bit is
            // never read, so toggling it is how it absorbs.
            for &v in queue[1..len].iter().rev() {
                let v = v as usize;
                if v < self.n && charge.contains(v) {
                    out.apply(qubit[v] as usize, pauli);
                    charge.toggle(parent[v] as usize);
                }
            }
        }
    }

    /// Decodes one sector, applying the correction's data-qubit flips to
    /// `out`.  A sector without defects returns after the scan.
    fn decode(
        &self,
        scratch: &mut PeelScratch,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        // Hot ancillas of the other sector are masked out of the scan, so a
        // combined X/Z syndrome works directly.
        let mut defects = Bits::EMPTY;
        lattice.for_each_defect(syndrome, sector, |a| {
            defects.toggle(self.vertex_of_ancilla[a] as usize);
        });
        if defects.is_empty() {
            return;
        }
        let full = self.grow(defects);
        let pauli = sector_correction_pauli(sector);
        self.peel(&full, defects, scratch, pauli, out);
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

type SectorGrids<const W: usize> = Box<[SectorGrid<W>; 2]>;

fn sector_grids<const W: usize>(lattice: &Lattice) -> SectorGrids<W> {
    Box::new(Sector::ALL.map(|sector| SectorGrid::build(lattice, sector)))
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
        assert!(
            d <= MAX_DISTANCE,
            "union-find supports distances up to {MAX_DISTANCE} (16 words per sector grid), \
             not d = {d}"
        );
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
            scratch: PeelScratch {
                queue: vec![0; vertices],
                parent: vec![0; vertices],
                qubit: vec![0; vertices],
            },
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

    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        let mut flips = PauliString::identity(lattice.num_data());
        self.decode_into(lattice, syndrome, sector, &mut flips);
        Correction::from_pauli_string(flips)
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
    use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The grid model at one word count: `d(d − 1)` vertices per sector
    /// numbered like `ancillas_in_sector`, exactly one owned edge per data
    /// qubit, and the boundary edges owned by the sector's two boundary sides.
    fn check_grid_model<const W: usize>(d: usize) {
        let lat = Lattice::new(d).unwrap();
        for sector in Sector::ALL {
            let grid = SectorGrid::<W>::build(&lat, sector);
            let (rows, cols) = match sector {
                Sector::X => (d - 1, d),
                Sector::Z => (d, d - 1),
            };
            assert_eq!(grid.n, d * (d - 1));
            let vertices: Vec<usize> = lat
                .ancillas_in_sector(sector)
                .map(|a| usize::from(grid.vertex_of_ancilla[a]))
                .collect();
            assert_eq!(vertices, (0..grid.n).collect::<Vec<_>>());

            let mut crossed: Vec<usize> = (0..4)
                .flat_map(|class| grid.owners[class].iter().map(move |v| (class, v)))
                .map(|(class, v)| grid.qubit[class][v] as usize)
                .collect();
            assert_eq!(crossed.len(), d * d + (d - 1) * (d - 1), "d={d} {sector}");
            crossed.sort_unstable();
            assert_eq!(crossed, (0..lat.num_data()).collect::<Vec<_>>());

            let side = |on: &dyn Fn(usize, usize) -> bool| -> Vec<usize> {
                (0..grid.n).filter(|&v| on(v / cols, v % cols)).collect()
            };
            let (a, b) = match sector {
                Sector::X => (side(&|i, _| i == 0), side(&|i, _| i == rows - 1)),
                Sector::Z => (side(&|_, j| j == 0), side(&|_, j| j == cols - 1)),
            };
            assert_eq!(grid.owners[BOUNDARY_A].iter().collect::<Vec<_>>(), a);
            assert_eq!(grid.owners[BOUNDARY_B].iter().collect::<Vec<_>>(), b);
        }
    }

    #[test]
    fn graph_has_expected_vertex_and_edge_counts() {
        check_grid_model::<1>(3);
        check_grid_model::<1>(5);
        check_grid_model::<2>(9);
        check_grid_model::<4>(15);
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
    fn decode_into_matches_decode_and_overwrites_stale_contents() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let model = PureDephasing::new(0.1).unwrap();
        let lat = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        decoder.prepare(&lat);
        // A deliberately stale, wrongly-sized buffer: decode_into must reset it.
        let mut buf = PauliString::from_sparse(3, &[0, 1, 2], Pauli::Y);
        for _ in 0..40 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let via_decode = decoder.decode(&lat, &syndrome, Sector::X);
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            assert_eq!(&buf, via_decode.pauli_string());
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

    #[test]
    fn decoder_name() {
        assert_eq!(UnionFindDecoder::new().name(), "union-find");
    }
}
