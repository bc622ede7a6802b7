//! The planar surface-code lattice (Figure 2 of the paper).
//!
//! A distance-`d` planar surface code is laid out on a `(2d-1) x (2d-1)` grid
//! of physical qubits.  Cells whose row + column sum is even hold *data*
//! qubits; the remaining cells hold *ancilla* qubits that measure the X and Z
//! stabilizers of Figure 3.  For `d = 9` this gives the 289 physical qubits
//! quoted in Section VIII of the paper.
//!
//! Index conventions used throughout the workspace:
//!
//! * **Data qubits** are numbered `0..num_data()` in row-major order; Pauli
//!   strings ([`crate::pauli::PauliString`]) are indexed by data-qubit index.
//! * **Ancilla qubits** are numbered `0..num_ancillas()` sector-major: with
//!   `n = d(d-1)`, the X ancillas are `0..n`, row-major over their
//!   `(d-1) x d` grid, and the Z ancillas `n..2n`, row-major over their
//!   `d x (d-1)` grid ([`Lattice::sector_grid`]).  Syndromes
//!   ([`crate::syndrome::Syndrome`]) are indexed by ancilla index, so a
//!   sector's detection events are one contiguous bit range of a syndrome,
//!   and ascending ancilla order within a sector is its row-major order.
//! * **Mesh coordinates** `(row, col)` refer to the full `(2d-1) x (2d-1)`
//!   grid and are what the SFQ decoder mesh (one module per qubit) uses.

use crate::error::QecError;
use crate::pauli::{Pauli, PauliString};
use crate::syndrome::{DefectIndices, Syndrome};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A position on the `(2d-1) x (2d-1)` qubit grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Row index, `0..2d-1`.
    pub row: usize,
    /// Column index, `0..2d-1`.
    pub col: usize,
}

impl Coord {
    /// Creates a coordinate.
    #[must_use]
    pub fn new(row: usize, col: usize) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance between two grid coordinates.
    #[must_use]
    pub fn manhattan(self, other: Coord) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }

    /// Chebyshev (L-infinity) distance between two grid coordinates.
    #[must_use]
    pub fn chebyshev(self, other: Coord) -> usize {
        self.row
            .abs_diff(other.row)
            .max(self.col.abs_diff(other.col))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// The role a physical qubit plays in the surface code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QubitKind {
    /// A data qubit holding part of the encoded logical state.
    Data,
    /// An ancilla measuring an X stabilizer (detects Z / phase errors).
    AncillaX,
    /// An ancilla measuring a Z stabilizer (detects X / bit-flip errors).
    AncillaZ,
}

impl QubitKind {
    /// Returns `true` for either kind of ancilla.
    #[must_use]
    pub fn is_ancilla(self) -> bool {
        matches!(self, QubitKind::AncillaX | QubitKind::AncillaZ)
    }
}

/// One of the two stabilizer sectors of the surface code.
///
/// The paper's headline evaluation uses the pure-dephasing channel (Z errors
/// only), which is decoded entirely in the [`Sector::X`] sector; the decoder
/// "will be operated symmetrically for both X and Z errors" (Section VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sector {
    /// The X-stabilizer sector: X ancillas detecting Z (phase) errors.
    ///
    /// Error chains in this sector terminate on the top and bottom lattice
    /// boundaries.
    X,
    /// The Z-stabilizer sector: Z ancillas detecting X (bit-flip) errors.
    ///
    /// Error chains in this sector terminate on the left and right lattice
    /// boundaries.
    Z,
}

impl Sector {
    /// Both sectors.
    pub const ALL: [Sector; 2] = [Sector::X, Sector::Z];

    /// The ancilla kind that belongs to this sector.
    #[must_use]
    pub fn ancilla_kind(self) -> QubitKind {
        match self {
            Sector::X => QubitKind::AncillaX,
            Sector::Z => QubitKind::AncillaZ,
        }
    }

    /// A stable array index for per-sector storage laid out `[X, Z]` (the
    /// order of [`Sector::ALL`]), so every `[T; 2]` sector table in the
    /// workspace indexes the same way.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Sector::X => 0,
            Sector::Z => 1,
        }
    }
}

impl fmt::Display for Sector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sector::X => write!(f, "X"),
            Sector::Z => write!(f, "Z"),
        }
    }
}

/// What occupies a given grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellInfo {
    /// The qubit kind at this cell.
    pub kind: QubitKind,
    /// The data- or ancilla-index of the qubit (depending on `kind`).
    pub index: usize,
}

/// Fills the unused slot of a boundary qubit's pair in `Lattice::data_ancillas`.
const NO_ANCILLA: u32 = u32::MAX;

/// One sector's ancilla grid, the decoding graph every grid decoder walks
/// ([`Lattice::sector_grid`]).
///
/// Vertex `v` is the ancilla `offset + v`, in grid cell
/// `(v / cols, v % cols)`: X's grid is `(d-1) x d` with its boundaries
/// above the first row and below the last, Z's is `d x (d-1)` with its
/// boundaries left of the first column and right of the last.  Each data
/// qubit is crossed by exactly one edge of the grid, owned by one vertex
/// and of one class: [`RIGHT`](Self::RIGHT) to the next vertex of the row,
/// [`DOWN`](Self::DOWN) to the vertex below, or
/// [`BOUNDARY_A`](Self::BOUNDARY_A) / [`BOUNDARY_B`](Self::BOUNDARY_B) from
/// a vertex of the first / last row (X) or column (Z) to that boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectorGrid {
    /// The ancilla index of vertex 0.
    pub offset: usize,
    /// The number of grid rows.
    pub rows: usize,
    /// The number of grid columns.
    pub cols: usize,
    /// Per vertex, by class: the data qubit its edge crosses, if it owns one.
    edges: Vec<[Option<u32>; 4]>,
}

impl SectorGrid {
    /// The edge class from a vertex to the next one of its row.
    pub const RIGHT: usize = 0;
    /// The edge class from a vertex to the one below it.
    pub const DOWN: usize = 1;
    /// The edge class from a vertex to boundary A: top (X) or left (Z).
    pub const BOUNDARY_A: usize = 2;
    /// The edge class from a vertex to boundary B: bottom (X) or right (Z).
    pub const BOUNDARY_B: usize = 3;

    /// The data qubit crossed by the edge of `class` that vertex `v` owns,
    /// or `None` if it owns none (a vertex past the grid included).
    #[must_use]
    pub fn crossing(&self, class: usize, v: usize) -> Option<usize> {
        self.edges.get(v)?[class].map(|q| q as usize)
    }
}

/// A distance-`d` planar surface-code lattice.
///
/// The lattice owns all geometry: qubit placement, stabilizer supports,
/// boundary structure, and logical-operator representatives.  It is immutable
/// after construction and cheap to share by reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lattice {
    distance: usize,
    size: usize,
    ancilla_coords: Vec<Coord>,
    /// For each ancilla index, the data-qubit indices of its stabilizer support.
    stabilizer_supports: Vec<Vec<usize>>,
    /// For each data qubit, the ancillas whose stabilizer contains it, one
    /// pair per sector (indexed by [`Sector::index`]): the transpose of
    /// `stabilizer_supports`, built from that table.  A qubit on a sector's
    /// boundary touches one ancilla of the sector; its second slot holds
    /// [`NO_ANCILLA`].
    data_ancillas: Vec<[[u32; 2]; 2]>,
    /// Each sector's grid, indexed by [`Sector::index`].
    sector_grids: [SectorGrid; 2],
    /// Data-qubit indices of the logical-X representative (top row).
    logical_x_support: Vec<usize>,
    /// Data-qubit indices of the logical-Z representative (left column).
    logical_z_support: Vec<usize>,
    /// Per sector, the logical representative it checks as a mask over a
    /// plane's words: logical X (top row) for X, logical Z (left column)
    /// for Z.
    logical_masks: [Vec<u64>; 2],
}

impl Lattice {
    /// Builds a planar surface-code lattice of the given odd code distance.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidDistance`] when `distance` is even or less
    /// than 3.
    pub fn new(distance: usize) -> Result<Self, QecError> {
        if distance < 3 || distance % 2 == 0 {
            return Err(QecError::InvalidDistance { distance });
        }
        let size = 2 * distance - 1;
        let per_sector = distance * (distance - 1);
        let mut lattice = Lattice {
            distance,
            size,
            ancilla_coords: vec![Coord::new(0, 0); 2 * per_sector],
            stabilizer_supports: Vec::new(),
            data_ancillas: Vec::new(),
            sector_grids: Sector::ALL.map(|sector| {
                // The one place a sector's shape is decided.
                let (rows, cols) = match sector {
                    Sector::X => (distance - 1, distance),
                    Sector::Z => (distance, distance - 1),
                };
                let offset = sector.index() * per_sector;
                let edges = vec![[None; 4]; per_sector];
                SectorGrid {
                    offset,
                    rows,
                    cols,
                    edges,
                }
            }),
            logical_x_support: Vec::new(),
            logical_z_support: Vec::new(),
            logical_masks: [Vec::new(), Vec::new()],
        };
        // `cell` numbers every qubit; record where each ancilla sits.
        for row in 0..size {
            for col in (1 - row % 2..size).step_by(2) {
                let coord = Coord::new(row, col);
                let ancilla = lattice.cell(coord).index;
                lattice.ancilla_coords[ancilla] = coord;
            }
        }

        let data = |row, col| lattice.cell(Coord::new(row, col)).index;
        // The data qubit at a cell, if it lies on the grid (an ancilla's
        // neighbours are data qubits).
        let data_at = |row: usize, col: usize| (row < size && col < size).then(|| data(row, col));
        // Logical X: X operators along the top row of data qubits.
        let logical_x_support: Vec<usize> = (0..size).step_by(2).map(|col| data(0, col)).collect();
        // Logical Z: Z operators along the left column of data qubits.
        let logical_z_support: Vec<usize> = (0..size).step_by(2).map(|row| data(row, 0)).collect();

        // Each ancilla's support, and its transpose: each data qubit's
        // ancillas in each sector, ascending.
        let mut data_ancillas = vec![[[NO_ANCILLA; 2]; 2]; lattice.num_data()];
        let mut stabilizer_supports = Vec::with_capacity(2 * per_sector);
        for (a, &Coord { row, col }) in lattice.ancilla_coords.iter().enumerate() {
            let neighbours = [
                (row.wrapping_sub(1), col),
                (row + 1, col),
                (row, col.wrapping_sub(1)),
                (row, col + 1),
            ];
            let mut support: Vec<usize> = neighbours
                .into_iter()
                .filter_map(|(r, c)| data_at(r, c))
                .collect();
            support.sort_unstable();
            for &q in &support {
                let slot = data_ancillas[q][a / per_sector]
                    .iter_mut()
                    .find(|slot| **slot == NO_ANCILLA)
                    .expect("a data qubit touches at most two ancillas of a sector");
                *slot = u32::try_from(a).expect("ancilla indices fit in 32 bits");
            }
            stabilizer_supports.push(support);
        }

        // The edge crossing `q` in a sector joins its two ancillas there, or
        // leads from its one ancilla to the boundary on `q`'s side (data
        // qubit `q` is cell `2q` in row-major order).
        for (q, pairs) in data_ancillas.iter().enumerate() {
            for (grid, &[a, b]) in lattice.sector_grids.iter_mut().zip(pairs) {
                let Coord { row, col } = lattice.ancilla_coords[a as usize];
                let class = match b {
                    NO_ANCILLA if 2 * q < row * size + col => SectorGrid::BOUNDARY_A,
                    NO_ANCILLA => SectorGrid::BOUNDARY_B,
                    _ if b == a + 1 => SectorGrid::RIGHT,
                    _ => SectorGrid::DOWN,
                };
                grid.edges[a as usize - grid.offset][class] = Some(q as u32);
            }
        }
        let mask = |support: &[usize]| {
            let mut words = vec![0u64; lattice.num_data().div_ceil(64)];
            for &q in support {
                words[q / 64] |= 1 << (q % 64);
            }
            words
        };
        lattice.logical_masks = [mask(&logical_x_support), mask(&logical_z_support)];
        lattice.logical_x_support = logical_x_support;
        lattice.logical_z_support = logical_z_support;
        lattice.stabilizer_supports = stabilizer_supports;
        lattice.data_ancillas = data_ancillas;
        Ok(lattice)
    }

    /// The code distance `d`.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// The side length of the qubit grid, `2d - 1`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Total number of physical qubits, `(2d - 1)^2`.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.size * self.size
    }

    /// Number of data qubits, `d^2 + (d-1)^2`.
    #[must_use]
    pub fn num_data(&self) -> usize {
        (self.size * self.size).div_ceil(2)
    }

    /// Number of ancilla qubits, `2 d (d-1)`.
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.ancilla_coords.len()
    }

    /// Number of ancillas in each sector, `d (d-1)` (the two sectors are
    /// always equal-sized) — the worst-case defect count decoder scratch
    /// arenas size themselves for.
    #[must_use]
    pub fn ancillas_per_sector(&self) -> usize {
        self.num_ancillas() / 2
    }

    /// Describes the qubit occupying the given grid cell.
    ///
    /// # Panics
    ///
    /// Panics if `coord` lies outside the grid.
    #[must_use]
    pub fn cell(&self, coord: Coord) -> CellInfo {
        let Coord { row, col } = coord;
        assert!(
            row < self.size && col < self.size,
            "coordinate {coord} out of range"
        );
        if (row + col) % 2 == 0 {
            // Data and ancilla cells alternate in row-major order, the grid's
            // side being odd.
            let index = (row * self.size + col) / 2;
            return CellInfo {
                kind: QubitKind::Data,
                index,
            };
        }
        // Odd row, even column: X ancilla; even row, odd column: Z ancilla.
        // Either way it sits in its sector's grid cell `(row / 2, col / 2)`.
        let sector = if row % 2 == 1 { Sector::X } else { Sector::Z };
        let grid = self.sector_grid(sector);
        CellInfo {
            kind: sector.ancilla_kind(),
            index: grid.offset + row / 2 * grid.cols + col / 2,
        }
    }

    /// The grid coordinate of a data qubit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_data()`.
    #[must_use]
    pub fn data_coord(&self, index: usize) -> Coord {
        assert!(index < self.num_data(), "data qubit {index} out of range");
        Coord::new(2 * index / self.size, 2 * index % self.size)
    }

    /// The grid coordinate of an ancilla qubit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_ancillas()`.
    #[must_use]
    pub fn ancilla_coord(&self, index: usize) -> Coord {
        self.ancilla_coords[index]
    }

    /// The sector an ancilla belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_ancillas()`.
    #[must_use]
    pub fn ancilla_sector(&self, index: usize) -> Sector {
        assert!(index < self.num_ancillas(), "ancilla {index} out of range");
        if index < self.ancillas_per_sector() {
            Sector::X
        } else {
            Sector::Z
        }
    }

    /// Data-qubit indices measured by the given ancilla (its stabilizer support).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_ancillas()`.
    #[must_use]
    pub fn stabilizer_support(&self, index: usize) -> &[usize] {
        &self.stabilizer_supports[index]
    }

    /// The ancilla indices of one sector: a contiguous range, in the grid's
    /// row-major order.
    #[must_use]
    pub fn ancillas_in_sector(&self, sector: Sector) -> Range<usize> {
        let offset = self.sector_grid(sector).offset;
        offset..offset + self.ancillas_per_sector()
    }

    /// One sector's ancilla grid: its shape, where its ancillas start, and
    /// the data qubit each of its edges crosses.
    #[must_use]
    pub fn sector_grid(&self, sector: Sector) -> &SectorGrid {
        &self.sector_grids[sector.index()]
    }

    /// Data-qubit indices of the logical-X representative (top row).
    #[must_use]
    pub fn logical_x_support(&self) -> &[usize] {
        &self.logical_x_support
    }

    /// Data-qubit indices of the logical-Z representative (left column).
    #[must_use]
    pub fn logical_z_support(&self) -> &[usize] {
        &self.logical_z_support
    }

    /// Computes the error syndrome of a physical error pattern.
    ///
    /// Each X ancilla reports the parity of Z components on its support; each
    /// Z ancilla reports the parity of X components.  A `true` bit is a
    /// *detection event* ("hot syndrome" in the paper's terminology).
    ///
    /// # Panics
    ///
    /// Panics if `error` is not indexed by this lattice's data qubits.
    #[must_use]
    pub fn syndrome_of(&self, error: &PauliString) -> Syndrome {
        let mut syndrome = Syndrome::default();
        self.syndrome_into(error, &mut syndrome);
        syndrome
    }

    /// Computes the error syndrome of `error` into a caller-provided buffer,
    /// reusing its allocation: one step per word of `error` plus at most four
    /// bit flips per non-identity operator, whatever the lattice size.
    ///
    /// # Panics
    ///
    /// Panics if `error` is not indexed by this lattice's data qubits.
    pub fn syndrome_into(&self, error: &PauliString, syndrome: &mut Syndrome) {
        syndrome.reset_clear(self.num_ancillas());
        // Each set bit of the plane a sector detects flips the sector's
        // ancillas next to that qubit.
        for sector in Sector::ALL {
            for q in DefectIndices::over(self.detected_plane(error, sector)) {
                for &a in &self.data_ancillas[q][sector.index()] {
                    if a != NO_ANCILLA {
                        syndrome.flip(a as usize);
                    }
                }
            }
        }
    }

    /// The ancilla indices that fired ("hot syndromes") in a given sector.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match this lattice.
    #[must_use]
    pub fn defects(&self, syndrome: &Syndrome, sector: Sector) -> Vec<usize> {
        let mut defects = Vec::new();
        self.for_each_defect(syndrome, sector, |a| defects.push(a));
        defects
    }

    /// Distance (number of data qubits crossed) between two same-sector ancillas.
    ///
    /// This is the graph distance in the sector's matching graph: the minimum
    /// number of single-qubit errors required to create both detection
    /// events as the endpoints of one chain.
    ///
    /// # Panics
    ///
    /// Panics if the two ancillas are not in the same sector.
    #[must_use]
    pub fn ancilla_distance(&self, a: usize, b: usize) -> usize {
        assert_eq!(
            self.ancilla_sector(a),
            self.ancilla_sector(b),
            "ancilla distance is only defined within one sector"
        );
        let ca = self.ancilla_coords[a];
        let cb = self.ancilla_coords[b];
        ca.manhattan(cb) / 2
    }

    /// Distance from an ancilla to the *nearest* boundary of its sector,
    /// measured in data qubits crossed.
    ///
    /// X-sector chains terminate on the top/bottom boundaries, Z-sector
    /// chains on the left/right boundaries.
    #[must_use]
    pub fn boundary_distance(&self, ancilla: usize) -> usize {
        let (_, _, k, len) = self.boundary_line(ancilla);
        (k + 1).min(len - k)
    }

    /// Data qubits along a canonical (L-shaped) correction path between two
    /// same-sector ancillas.
    ///
    /// The path first moves vertically from `a` to the row of `b`, then
    /// horizontally to `b`; it contains exactly [`Lattice::ancilla_distance`]
    /// data qubits.
    ///
    /// # Panics
    ///
    /// Panics if the ancillas are not in the same sector.
    #[must_use]
    pub fn correction_path(&self, a: usize, b: usize) -> Vec<usize> {
        let mut path = Vec::new();
        self.for_each_correction_path_qubit(a, b, |q| path.push(q));
        path
    }

    /// Visits the data qubits of the canonical correction path between two
    /// same-sector ancillas without allocating (the path-walking core of
    /// [`Lattice::correction_path`]).
    ///
    /// # Panics
    ///
    /// Panics if the ancillas are not in the same sector.
    pub fn for_each_correction_path_qubit(&self, a: usize, b: usize, mut f: impl FnMut(usize)) {
        assert_eq!(
            self.ancilla_sector(a),
            self.ancilla_sector(b),
            "correction paths are only defined within one sector"
        );
        let grid = self.sector_grid(self.ancilla_sector(a));
        let cols = grid.cols;
        // An ancilla at `(row, col)` sits in grid cell `(row / 2, col / 2)`.
        let (ca, cb) = (self.ancilla_coords[a], self.ancilla_coords[b]);
        let (ia, ja, ib, jb) = (ca.row / 2, ca.col / 2, cb.row / 2, cb.col / 2);
        // Down or up `a`'s column to `b`'s row, then along that row to `b`.
        let vertical = (ia.min(ib)..ia.max(ib)).map(|i| (SectorGrid::DOWN, i * cols + ja));
        let horizontal = (ja.min(jb)..ja.max(jb)).map(|j| (SectorGrid::RIGHT, ib * cols + j));
        for (class, v) in vertical.chain(horizontal) {
            f(grid.crossing(class, v).expect("a grid edge"));
        }
    }

    /// Data qubits along the canonical path from an ancilla to its nearest
    /// sector boundary.
    ///
    /// The path contains exactly [`Lattice::boundary_distance`] data qubits.
    #[must_use]
    pub fn boundary_path(&self, ancilla: usize) -> Vec<usize> {
        let mut path = Vec::new();
        self.for_each_boundary_path_qubit(ancilla, |q| path.push(q));
        path
    }

    /// Visits the data qubits of the canonical path from an ancilla to its
    /// nearest sector boundary without allocating (the path-walking core of
    /// [`Lattice::boundary_path`]).
    pub fn for_each_boundary_path_qubit(&self, ancilla: usize, mut f: impl FnMut(usize)) {
        let (grid, v, k, len) = self.boundary_line(ancilla);
        let (step, class) = match self.ancilla_sector(ancilla) {
            Sector::X => (grid.cols, SectorGrid::DOWN),
            Sector::Z => (1, SectorGrid::RIGHT),
        };
        // The grid edges between `v` and the line's end, then that end's
        // boundary edge.
        let (line, end) = if k < len - k {
            let first = v - k * step;
            (first..v, (SectorGrid::BOUNDARY_A, first))
        } else {
            let last = v + (len - 1 - k) * step;
            (v..last, (SectorGrid::BOUNDARY_B, last))
        };
        let edges = line.step_by(step).map(|u| (class, u)).chain([end]);
        for (class, u) in edges {
            f(grid.crossing(class, u).expect("a grid or boundary edge"));
        }
    }

    /// Applies `pauli` to every data qubit of the canonical correction path
    /// between two same-sector ancillas: the qubits
    /// [`Lattice::for_each_correction_path_qubit`] visits, toggled on the
    /// words of `out` as two runs — the column leg, whose qubits are
    /// `2d − 1` apart, and the row leg, whose qubits are consecutive
    /// ([`PauliString::apply_run`]).
    ///
    /// # Panics
    ///
    /// Panics if the ancillas are not in the same sector, or if `out` is not
    /// indexed by this lattice's data qubits.
    // Inlined across crates into the mesh's pairing loop, where a call
    // costs about as much as toggling a short chain.
    #[inline]
    pub fn apply_correction_path(&self, a: usize, b: usize, pauli: Pauli, out: &mut PauliString) {
        assert_eq!(
            self.ancilla_sector(a),
            self.ancilla_sector(b),
            "correction paths are only defined within one sector"
        );
        self.check_operator(out);
        // The column leg starts at the data qubit below the upper ancilla,
        // the row leg at the one right of the leftmost; data qubit `q` is
        // cell `2q` in row-major order.
        let (ca, cb) = (self.ancilla_coords[a], self.ancilla_coords[b]);
        let data = |row: usize, col: usize| (row * self.size + col) / 2;
        let (upper, left) = (ca.row.min(cb.row), ca.col.min(cb.col));
        let (rows, cols) = (ca.row.abs_diff(cb.row) / 2, ca.col.abs_diff(cb.col) / 2);
        out.apply_run(pauli, data(upper + 1, ca.col), rows, self.size);
        out.apply_run(pauli, data(cb.row, left + 1), cols, 1);
    }

    /// Applies `pauli` to every data qubit of the canonical path from an
    /// ancilla to its nearest sector boundary: the qubits
    /// [`Lattice::for_each_boundary_path_qubit`] visits, toggled on the
    /// words of `out` as one run along the ancilla's grid column (X, qubits
    /// `2d − 1` apart) or row (Z, consecutive qubits).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not indexed by this lattice's data qubits.
    // Inlined across crates, as `apply_correction_path`.
    #[inline]
    pub fn apply_boundary_path(&self, ancilla: usize, pauli: Pauli, out: &mut PauliString) {
        self.check_operator(out);
        let (grid, v, k, len) = self.boundary_line(ancilla);
        let (step, stride) = match self.ancilla_sector(ancilla) {
            Sector::X => (grid.cols, self.size),
            Sector::Z => (1, 1),
        };
        // The run holds the line's `k + 1` qubits from boundary A, or its
        // `len − k` qubits up to boundary B.
        let (first, count) = if k < len - k {
            let end = grid.crossing(SectorGrid::BOUNDARY_A, v - k * step);
            (end.expect("a boundary edge"), k + 1)
        } else {
            let end = grid.crossing(SectorGrid::BOUNDARY_B, v + (len - 1 - k) * step);
            let count = len - k;
            (end.expect("a boundary edge") - (count - 1) * stride, count)
        };
        out.apply_run(pauli, first, count, stride);
    }

    /// The line an ancilla's boundary paths run along, its grid column (X)
    /// or row (Z): the sector's grid, the ancilla's vertex `v`, and its
    /// place `k` on the line of `len` vertices, boundary A before the
    /// first and B past the last.
    fn boundary_line(&self, ancilla: usize) -> (&SectorGrid, usize, usize, usize) {
        let sector = self.ancilla_sector(ancilla);
        let grid = self.sector_grid(sector);
        // Its grid cell is `(row / 2, col / 2)`.
        let Coord { row, col } = self.ancilla_coords[ancilla];
        let (k, len) = match sector {
            Sector::X => (row / 2, grid.rows),
            Sector::Z => (col / 2, grid.cols),
        };
        (grid, ancilla - grid.offset, k, len)
    }

    /// Visits the hot ancillas of one sector in ascending index order without
    /// allocating (the defect-scan core of [`Lattice::defects`]): the words
    /// holding the sector's bit range are cut to it and their set bits are
    /// walked by trailing zeros, so the scan costs one step per word plus
    /// one per defect.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match this lattice.
    pub fn for_each_defect(&self, syndrome: &Syndrome, sector: Sector, mut f: impl FnMut(usize)) {
        self.for_each_sector_word(syndrome, sector, |w, mut hot| {
            while hot != 0 {
                f(w * 64 + hot.trailing_zeros() as usize);
                hot &= hot - 1;
            }
        });
    }

    /// The number of hot ancillas in one sector: a popcount of the words
    /// holding the sector's bit range, cut to it.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match this lattice.
    // Inlined across crates into the trial loop's tally.
    #[inline]
    #[must_use]
    pub fn defect_count(&self, syndrome: &Syndrome, sector: Sector) -> usize {
        let mut count = 0;
        self.for_each_sector_word(syndrome, sector, |_, hot| {
            count += hot.count_ones() as usize;
        });
        count
    }

    /// Calls `f` with the index of each syndrome word holding one sector's
    /// bit range and the word cut to the range.
    fn for_each_sector_word(
        &self,
        syndrome: &Syndrome,
        sector: Sector,
        mut f: impl FnMut(usize, u64),
    ) {
        self.check_syndrome(syndrome);
        let Range { start, end } = self.ancillas_in_sector(sector);
        let first = start / 64;
        for (w, &word) in (first..).zip(&syndrome.words()[first..end.div_ceil(64)]) {
            // Word `w` holds bits `low..high` of the range, `low < high <= 64`.
            let low = start.saturating_sub(64 * w);
            let high = (end - 64 * w).min(64);
            f(w, word >> low << low << (64 - high) >> (64 - high));
        }
    }

    /// Copies one sector's detection bits into `out` from bit 0, so that
    /// grid vertex `v` is bit `v % 64` of word `v / 64`, and clears the rest
    /// of `out`: the sector's bit range of the syndrome, one funnel shift
    /// of two syndrome words per word.  This is how a grid decoder reads a
    /// syndrome.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match this lattice, or if
    /// `out` holds fewer than [`Lattice::ancillas_per_sector`] bits.
    // Inlined across crates into each grid decoder's scan, where the
    // decoder's word count fixes `out`'s length.
    #[inline]
    pub fn sector_bits(&self, syndrome: &Syndrome, sector: Sector, out: &mut [u64]) {
        self.check_syndrome(syndrome);
        let (start, n) = (self.sector_grid(sector).offset, self.ancillas_per_sector());
        assert!(
            n <= 64 * out.len(),
            "{n} bits do not fit in {} words",
            out.len()
        );
        let (q, r) = (start / 64, start % 64);
        let words = syndrome.words();
        for (i, slot) in out.iter_mut().enumerate() {
            // Word `i` holds bits `64i..64i + keep` of the range.
            let keep = n.saturating_sub(64 * i).min(64) as u32;
            let low = words.get(q + i).map_or(0, |&w| w >> r);
            let high = words.get(q + i + 1).map_or(0, |&w| w << 1 << (63 - r));
            *slot = (low | high) & u64::MAX.checked_shr(64 - keep).unwrap_or(0);
        }
    }

    /// Panics unless `syndrome` has one bit per ancilla of this lattice.
    fn check_syndrome(&self, syndrome: &Syndrome) {
        assert_eq!(
            syndrome.len(),
            self.num_ancillas(),
            "syndrome length {} does not match {} ancillas",
            syndrome.len(),
            self.num_ancillas()
        );
    }

    /// Panics unless `operator` acts on this lattice's data qubits.
    fn check_operator(&self, operator: &PauliString) {
        assert_eq!(
            operator.len(),
            self.num_data(),
            "operator acts on {} qubits but lattice has {} data qubits",
            operator.len(),
            self.num_data()
        );
    }

    /// The plane of `operator` that `sector`'s stabilizers detect: its Z
    /// components for X ancillas, its X components for Z ancillas.
    fn detected_plane<'a>(&self, operator: &'a PauliString, sector: Sector) -> &'a [u64] {
        self.check_operator(operator);
        match sector {
            Sector::X => operator.z_plane(),
            Sector::Z => operator.x_plane(),
        }
    }

    /// Returns `true` if `operator` triggers no detection event in `sector`,
    /// i.e. it commutes with every stabilizer of that sector.
    ///
    /// This is the equivalent of checking that [`Lattice::defects`] on
    /// [`Lattice::syndrome_of`]`(operator)` is empty for one sector.  It
    /// reads the detected plane one data-row pair at a time: data row `2i`
    /// is the `d` bits from `i(2d − 1)` and row `2i + 1` the `d − 1` bits
    /// after them, so one read of `2d − 1` bits gives both, and grid row
    /// `i` of the sector's syndrome is an XOR of those fields, shifted by a
    /// column where a stabilizer's neighbour sits a column over.  An empty
    /// plane answers at once.  Allocation-free; past `d = 31`, where a pair
    /// of data rows is wider than a word, it checks one stabilizer at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `operator` is not indexed by this lattice's data qubits.
    #[must_use]
    pub fn sector_is_clear(&self, operator: &PauliString, sector: Sector) -> bool {
        let plane = self.detected_plane(operator, sector);
        if plane.iter().all(|&word| word == 0) {
            return true;
        }
        let (d, size) = (self.distance, self.size);
        if size > 64 {
            return self.ancillas_in_sector(sector).all(|a| {
                let parity = self.stabilizer_supports[a]
                    .iter()
                    .fold(0, |parity, &q| parity ^ plane[q / 64] >> (q % 64));
                parity & 1 == 0
            });
        }
        // Data rows `2i` and `2i + 1`, and the `d` bits of an even row.
        let pair = |i: usize| field(plane, i * size, size);
        let row = u64::MAX >> (64 - d);
        match sector {
            // X ancilla `(i, j)` sits between data `(2i, 2j)` above,
            // `(2i + 2, 2j)` below and `(2i + 1, 2j ∓ 1)` beside it.
            Sector::X => {
                let mut above = pair(0);
                (1..d).all(|i| {
                    let below = pair(i);
                    let odd = above >> d;
                    let hot = (above ^ below) & row ^ odd ^ odd << 1;
                    above = below;
                    hot == 0
                })
            }
            // Z ancilla `(i, j)` sits between data `(2i, 2j)` and
            // `(2i, 2j + 2)` beside it and `(2i ∓ 1, 2j + 1)` above and below.
            Sector::Z => {
                let mut up = 0;
                (0..d).all(|i| {
                    let pair = pair(i);
                    let (even, down) = (pair & row, pair >> d);
                    let hot = (even ^ even >> 1) & row >> 1 ^ up ^ down;
                    up = down;
                    hot == 0
                })
            }
        }
    }

    /// Whether `operator` anticommutes with the logical representative
    /// `sector` checks — logical X (top row) against its Z components for
    /// X, logical Z (left column) against its X components for Z: one
    /// popcount of the detected plane against a mask.
    ///
    /// # Panics
    ///
    /// Panics if `operator` is not indexed by this lattice's data qubits.
    pub(crate) fn flips_logical(&self, operator: &PauliString, sector: Sector) -> bool {
        let plane = self.detected_plane(operator, sector);
        let overlap = plane
            .iter()
            .zip(&self.logical_masks[sector.index()])
            .map(|(word, mask)| (word & mask).count_ones())
            .sum::<u32>();
        overlap % 2 == 1
    }
}

/// Bits `start..start + len` of `plane` from bit 0 (`1 <= len <= 64`),
/// bits past the plane clear.
fn field(plane: &[u64], start: usize, len: usize) -> u64 {
    let (w, r) = (start / 64, start % 64);
    let low = plane.get(w).map_or(0, |&word| word >> r);
    let high = plane.get(w + 1).map_or(0, |&word| word << 1 << (63 - r));
    (low | high) & u64::MAX >> (64 - len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{Depolarizing, ErrorModel};
    use crate::logical::{classify_residual, classify_residual_operator};
    use crate::pauli::{Pauli, PauliString};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The dense reference the sparse syndrome code is pinned against: every
    /// ancilla's bit is the parity of the components it detects on its
    /// stabilizer support.
    fn dense_syndrome_of(lattice: &Lattice, error: &PauliString) -> Syndrome {
        (0..lattice.num_ancillas())
            .map(|a| match lattice.ancilla_sector(a) {
                Sector::X => error.z_overlap_parity(lattice.stabilizer_support(a)),
                Sector::Z => error.x_overlap_parity(lattice.stabilizer_support(a)),
            })
            .collect()
    }

    /// Asserts everything the sparse code computes from `operator` against
    /// the dense reference, reusing `buffer` the way a trial loop does.
    fn assert_matches_dense_reference(
        lattice: &Lattice,
        operator: &PauliString,
        buffer: &mut Syndrome,
    ) {
        let expected = dense_syndrome_of(lattice, operator);
        assert_eq!(lattice.syndrome_of(operator), expected, "{operator}");
        lattice.syndrome_into(operator, buffer);
        assert_eq!(*buffer, expected, "{operator}");
        for sector in Sector::ALL {
            assert_eq!(
                lattice.sector_is_clear(operator, sector),
                lattice.defects(&expected, sector).is_empty(),
                "{operator} in sector {sector}"
            );
        }
    }

    #[test]
    fn data_ancillas_is_the_transpose_of_stabilizer_supports() {
        for d in [3, 5, 9] {
            let lat = Lattice::new(d).unwrap();
            for q in 0..lat.num_data() {
                for sector in Sector::ALL {
                    let listed: Vec<usize> = lat.data_ancillas[q][sector.index()]
                        .iter()
                        .filter(|&&a| a != NO_ANCILLA)
                        .map(|&a| a as usize)
                        .collect();
                    let expected: Vec<usize> = lat
                        .ancillas_in_sector(sector)
                        .filter(|&a| lat.stabilizer_support(a).contains(&q))
                        .collect();
                    assert_eq!(listed, expected, "d={d} qubit {q} sector {sector}");
                }
            }
            let listed: usize = lat
                .data_ancillas
                .iter()
                .flatten()
                .flatten()
                .filter(|&&a| a != NO_ANCILLA)
                .count();
            let supported: usize = (0..lat.num_ancillas())
                .map(|a| lat.stabilizer_support(a).len())
                .sum();
            assert_eq!(listed, supported, "d={d}");
        }
    }

    #[test]
    fn sparse_syndromes_match_the_dense_reference() {
        for d in [3, 5, 9] {
            let lat = Lattice::new(d).unwrap();
            // A buffer of the wrong length and content: `syndrome_into` must
            // not depend on what it is handed.
            let mut buffer = Syndrome::from_hot(3, &[1]);
            for q in 0..lat.num_data() {
                for pauli in Pauli::ERRORS {
                    let error = PauliString::from_sparse(lat.num_data(), &[q], pauli);
                    assert_matches_dense_reference(&lat, &error, &mut buffer);
                }
            }
            let model = Depolarizing::new(0.3).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(0xD15E + d as u64);
            let mut previous = PauliString::identity(lat.num_data());
            for _ in 0..500 {
                let error = model.sample(&lat, &mut rng);
                assert_matches_dense_reference(&lat, &error, &mut buffer);
                let composed = error.composed(&previous);
                for sector in Sector::ALL {
                    assert_eq!(
                        classify_residual(&lat, &error, &previous, sector),
                        classify_residual_operator(&lat, &composed, sector)
                    );
                }
                previous = error;
            }
        }
    }

    /// The grid's contract, from one word of grid (d = 3) to sixteen
    /// (d = 31): each sector's ancillas are one range, vertex `v` sits in
    /// grid cell `(v / cols, v % cols)`, every data qubit is crossed by
    /// exactly one owned edge — a grid edge between the two ancillas it
    /// separates, or a boundary edge — and the boundary edges belong to
    /// the first and last rows (X) or columns (Z).
    #[test]
    fn sector_grid_contract() {
        for d in [3, 5, 7, 9, 13, 31] {
            let lat = Lattice::new(d).unwrap();
            let n = d * (d - 1);
            for sector in Sector::ALL {
                let grid = lat.sector_grid(sector);
                let (rows, cols, offset) = (grid.rows, grid.cols, grid.offset);
                assert_eq!(rows * cols, n, "d={d} {sector}");
                assert_eq!(lat.ancillas_in_sector(sector), offset..offset + n);
                assert_eq!(offset, sector.index() * n);
                let coord = |v: usize| lat.ancilla_coord(offset + v);
                for v in 0..n {
                    assert_eq!(lat.ancilla_sector(offset + v), sector);
                    assert_eq!(lat.cell(coord(v)).index, offset + v);
                    let Coord { row, col } = coord(v);
                    assert_eq!((row / 2, col / 2), (v / cols, v % cols), "d={d} {sector}");
                }

                let mut crossings = vec![0; lat.num_data()];
                for class in 0..4 {
                    assert_eq!(grid.crossing(class, n), None);
                    for v in 0..n {
                        let Some(q) = grid.crossing(class, v) else {
                            continue;
                        };
                        crossings[q] += 1;
                        assert!(lat.stabilizer_support(offset + v).contains(&q));
                        let other = match class {
                            SectorGrid::RIGHT => Some(v + 1),
                            SectorGrid::DOWN => Some(v + cols),
                            _ => None,
                        };
                        if let Some(w) = other {
                            let (a, b) = (coord(v), coord(w));
                            let between = Coord::new((a.row + b.row) / 2, (a.col + b.col) / 2);
                            assert_eq!(a.manhattan(b), 2, "d={d} {sector} {v}-{w}");
                            assert_eq!(lat.cell(between).index, q);
                        }
                    }
                }
                assert!(crossings.iter().all(|&k| k == 1), "d={d} {sector}");

                let owners = |class: usize| -> Vec<usize> {
                    (0..n)
                        .filter(|&v| grid.crossing(class, v).is_some())
                        .collect()
                };
                let side = |on: &dyn Fn(usize, usize) -> bool| -> Vec<usize> {
                    (0..n).filter(|&v| on(v / cols, v % cols)).collect()
                };
                let (a, b) = match sector {
                    Sector::X => (side(&|i, _| i == 0), side(&|i, _| i + 1 == rows)),
                    Sector::Z => (side(&|_, j| j == 0), side(&|_, j| j + 1 == cols)),
                };
                assert_eq!(owners(SectorGrid::BOUNDARY_A), a, "d={d} {sector}");
                assert_eq!(owners(SectorGrid::BOUNDARY_B), b, "d={d} {sector}");
            }
        }
    }

    /// `sector_bits` against a per-bit model: into one spare word more than
    /// the sector needs, pre-filled with garbage; and `defect_count`.
    fn assert_sector_bits_match_the_syndrome(lat: &Lattice, syndrome: &Syndrome) {
        for sector in Sector::ALL {
            let range = lat.ancillas_in_sector(sector);
            let hot = range.clone().filter(|&a| syndrome.is_hot(a)).count();
            assert_eq!(lat.defect_count(syndrome, sector), hot);
            let mut out = vec![u64::MAX; range.len().div_ceil(64) + 1];
            lat.sector_bits(syndrome, sector, &mut out);
            for v in 0..64 * out.len() {
                let expected = v < range.len() && syndrome.is_hot(range.start + v);
                assert_eq!(
                    out[v / 64] >> (v % 64) & 1 == 1,
                    expected,
                    "d={} {sector} bit {v}",
                    lat.distance()
                );
            }
        }
    }

    /// The sector copy across word boundaries: every syndrome at d = 3 (one
    /// word), every single defect, all-hot and random syndromes where the Z
    /// sector straddles a word (d = 7, bits 42..84) or spans three
    /// (d = 9, bits 72..144), and random syndromes at d = 13 and 31.
    #[test]
    fn sector_bits_copy_the_sector_across_word_boundaries() {
        use rand::Rng;
        let lat = Lattice::new(3).unwrap();
        for pattern in 0..1u32 << lat.num_ancillas() {
            let syndrome: Syndrome = (0..lat.num_ancillas())
                .map(|a| pattern >> a & 1 == 1)
                .collect();
            assert_sector_bits_match_the_syndrome(&lat, &syndrome);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EC7);
        for d in [7, 9, 13, 31] {
            let lat = Lattice::new(d).unwrap();
            let len = lat.num_ancillas();
            if d <= 9 {
                for a in 0..len {
                    assert_sector_bits_match_the_syndrome(&lat, &Syndrome::from_hot(len, &[a]));
                }
                let all_hot: Syndrome = (0..len).map(|_| true).collect();
                assert_sector_bits_match_the_syndrome(&lat, &all_hot);
            }
            for p in [0.05, 0.5] {
                for _ in 0..50 {
                    let syndrome: Syndrome = (0..len).map(|_| rng.gen_bool(p)).collect();
                    assert_sector_bits_match_the_syndrome(&lat, &syndrome);
                }
            }
        }
    }

    /// The word form of every chain toggles exactly the qubits its walk
    /// visits: every ordered pair of vertices and every boundary path, in
    /// both sectors, from one word of data qubits (d = 3) to thirty (d = 31).
    #[test]
    fn chains_as_words_equal_the_walk() {
        for d in [3, 5, 9, 13, 31] {
            let lat = Lattice::new(d).unwrap();
            let mut out = PauliString::identity(lat.num_data());
            for sector in Sector::ALL {
                let ancillas = lat.ancillas_in_sector(sector);
                for a in ancillas.clone() {
                    let pauli = Pauli::ERRORS[a % 3];
                    lat.apply_boundary_path(a, pauli, &mut out);
                    lat.for_each_boundary_path_qubit(a, |q| out.apply(q, pauli));
                    assert!(out.is_identity(), "d={d} boundary path of {a}");
                    for b in ancillas.clone() {
                        lat.apply_correction_path(a, b, pauli, &mut out);
                        lat.for_each_correction_path_qubit(a, b, |q| out.apply(q, pauli));
                        assert!(out.is_identity(), "d={d} path {a}-{b}");
                    }
                }
            }
        }
    }

    /// Asserts the row-XOR residual check and the masked logical parity
    /// against the dense syndrome and the logical supports.
    fn assert_residual_checks_match(lat: &Lattice, operator: &PauliString) {
        let syndrome = dense_syndrome_of(lat, operator);
        for sector in Sector::ALL {
            assert_eq!(
                lat.sector_is_clear(operator, sector),
                lat.defect_count(&syndrome, sector) == 0,
                "d={} {sector}: {operator}",
                lat.distance()
            );
        }
        assert_eq!(
            lat.flips_logical(operator, Sector::X),
            operator.z_overlap_parity(lat.logical_x_support())
        );
        assert_eq!(
            lat.flips_logical(operator, Sector::Z),
            operator.x_overlap_parity(lat.logical_z_support())
        );
    }

    /// The residual check at every distance up to 31, on one read per data
    /// row pair, and past it (d = 33, 65 and 67, one stabilizer at a time):
    /// every single fault, which its sector always detects, products of
    /// stabilizers (clear in both sectors), with a logical or a stray fault
    /// on top, and random operators.
    #[test]
    fn residual_checks_are_exact_at_every_distance() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1EA2);
        for d in (3..=33).step_by(2).chain([65, 67]) {
            let lat = Lattice::new(d).unwrap();
            let n = lat.num_data();
            for q in 0..n {
                let z = PauliString::from_sparse(n, &[q], Pauli::Z);
                let x = PauliString::from_sparse(n, &[q], Pauli::X);
                assert!(!lat.sector_is_clear(&z, Sector::X), "d={d} Z on {q}");
                assert!(lat.sector_is_clear(&z, Sector::Z), "d={d} Z on {q}");
                assert!(!lat.sector_is_clear(&x, Sector::Z), "d={d} X on {q}");
                assert!(lat.sector_is_clear(&x, Sector::X), "d={d} X on {q}");
            }
            for round in 0..24 {
                let mut operator = PauliString::identity(n);
                for a in 0..lat.num_ancillas() {
                    if rng.gen_bool(0.3) {
                        let pauli = match lat.ancilla_sector(a) {
                            Sector::X => Pauli::X,
                            Sector::Z => Pauli::Z,
                        };
                        for &q in lat.stabilizer_support(a) {
                            operator.apply(q, pauli);
                        }
                    }
                }
                let (support, pauli) = match round % 4 {
                    1 => (lat.logical_x_support().to_vec(), Pauli::X),
                    2 => (lat.logical_z_support().to_vec(), Pauli::Z),
                    3 => (vec![rng.gen_range(0..n)], Pauli::ERRORS[round % 3]),
                    _ => (Vec::new(), Pauli::I),
                };
                for q in support {
                    operator.apply(q, pauli);
                }
                assert_residual_checks_match(&lat, &operator);
                let random: PauliString = (0..n)
                    .map(|_| match rng.gen_range(0..64) {
                        k @ 0..=2 => Pauli::ERRORS[k],
                        _ => Pauli::I,
                    })
                    .collect();
                assert_residual_checks_match(&lat, &random);
            }
        }
    }

    #[test]
    fn rejects_invalid_distances() {
        assert!(Lattice::new(0).is_err());
        assert!(Lattice::new(1).is_err());
        assert!(Lattice::new(2).is_err());
        assert!(Lattice::new(4).is_err());
        assert!(Lattice::new(3).is_ok());
        assert!(Lattice::new(9).is_ok());
    }

    #[test]
    fn qubit_counts_match_formulas() {
        for d in [3, 5, 7, 9] {
            let lat = Lattice::new(d).unwrap();
            assert_eq!(lat.num_qubits(), (2 * d - 1) * (2 * d - 1));
            assert_eq!(lat.num_data(), d * d + (d - 1) * (d - 1));
            assert_eq!(lat.num_ancillas(), 2 * d * (d - 1));
            assert_eq!(
                lat.ancillas_in_sector(Sector::X).count(),
                d * (d - 1),
                "x ancilla count at d={d}"
            );
            assert_eq!(lat.ancillas_in_sector(Sector::Z).count(), d * (d - 1));
        }
    }

    #[test]
    fn distance_nine_has_289_qubits_as_in_paper() {
        let lat = Lattice::new(9).unwrap();
        assert_eq!(lat.num_qubits(), 289);
    }

    #[test]
    fn stabilizer_supports_have_two_to_four_qubits() {
        let lat = Lattice::new(5).unwrap();
        for a in 0..lat.num_ancillas() {
            let support = lat.stabilizer_support(a);
            assert!(
                (2..=4).contains(&support.len()),
                "ancilla {a} has support of size {}",
                support.len()
            );
            // Interior ancillas have weight-4 stabilizers.
            let c = lat.ancilla_coord(a);
            if c.row > 0 && c.row + 1 < lat.size() && c.col > 0 && c.col + 1 < lat.size() {
                assert_eq!(support.len(), 4);
            }
        }
    }

    #[test]
    fn single_z_error_fires_adjacent_x_ancillas_only() {
        let lat = Lattice::new(3).unwrap();
        // Central data qubit.
        let center = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[center], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let x_defects = lat.defects(&syndrome, Sector::X);
        let z_defects = lat.defects(&syndrome, Sector::Z);
        assert_eq!(
            x_defects.len(),
            2,
            "an interior Z error fires two X ancillas"
        );
        assert!(z_defects.is_empty(), "a Z error never fires Z ancillas");
        for a in x_defects {
            assert!(lat.stabilizer_support(a).contains(&center));
        }
    }

    #[test]
    fn single_x_error_fires_adjacent_z_ancillas_only() {
        let lat = Lattice::new(3).unwrap();
        let center = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[center], Pauli::X);
        let syndrome = lat.syndrome_of(&error);
        assert_eq!(lat.defects(&syndrome, Sector::Z).len(), 2);
        assert!(lat.defects(&syndrome, Sector::X).is_empty());
    }

    #[test]
    fn y_error_fires_both_sectors() {
        let lat = Lattice::new(3).unwrap();
        let center = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[center], Pauli::Y);
        let syndrome = lat.syndrome_of(&error);
        assert_eq!(lat.defects(&syndrome, Sector::X).len(), 2);
        assert_eq!(lat.defects(&syndrome, Sector::Z).len(), 2);
    }

    #[test]
    fn chain_of_errors_only_fires_endpoints() {
        // The Figure 4 scenario: a horizontal chain of Z errors fires only the
        // X ancillas at the ends of the chain.
        let lat = Lattice::new(5).unwrap();
        // Z errors on data qubits (3, 2), (3, 4): both adjacent to X ancilla (3, 3)?
        // Use a vertical chain: data (2, 4), (4, 4) share X ancilla (3, 4).
        let q1 = lat.cell(Coord::new(2, 4)).index;
        let q2 = lat.cell(Coord::new(4, 4)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q1, q2], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let defects = lat.defects(&syndrome, Sector::X);
        assert_eq!(
            defects.len(),
            2,
            "a two-qubit chain has two endpoint defects"
        );
        // The shared ancilla between them must not fire.
        let shared = lat.cell(Coord::new(3, 4)).index;
        assert!(!syndrome.is_hot(shared));
    }

    #[test]
    fn logical_z_chain_is_undetected() {
        let lat = Lattice::new(5).unwrap();
        let column: Vec<usize> = (0..lat.size())
            .step_by(2)
            .map(|row| lat.cell(Coord::new(row, 4)).index)
            .collect();
        assert_eq!(column.len(), 5);
        let error = PauliString::from_sparse(lat.num_data(), &column, Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        assert!(
            !syndrome.any_hot(),
            "a full vertical Z chain commutes with all stabilizers"
        );
        // ... and it anticommutes with logical X.
        assert!(error.z_overlap_parity(lat.logical_x_support()));
    }

    #[test]
    fn logical_x_chain_is_undetected() {
        let lat = Lattice::new(5).unwrap();
        let row: Vec<usize> = (0..lat.size())
            .step_by(2)
            .map(|col| lat.cell(Coord::new(2, col)).index)
            .collect();
        let error = PauliString::from_sparse(lat.num_data(), &row, Pauli::X);
        let syndrome = lat.syndrome_of(&error);
        assert!(!syndrome.any_hot());
        assert!(error.x_overlap_parity(lat.logical_z_support()));
    }

    #[test]
    fn stabilizer_itself_has_trivial_syndrome_and_no_logical_effect() {
        // A Z-type stabilizer generator is Z applied on the support of a
        // Z ancilla; it must commute with every stabilizer and with logical X.
        let lat = Lattice::new(5).unwrap();
        for a in lat.ancillas_in_sector(Sector::Z) {
            let error =
                PauliString::from_sparse(lat.num_data(), lat.stabilizer_support(a), Pauli::Z);
            let syndrome = lat.syndrome_of(&error);
            assert!(!syndrome.any_hot(), "z stabilizer {a} should be undetected");
            assert!(!error.z_overlap_parity(lat.logical_x_support()));
        }
        // Similarly, an X-type stabilizer generator commutes with logical Z.
        for a in lat.ancillas_in_sector(Sector::X) {
            let error =
                PauliString::from_sparse(lat.num_data(), lat.stabilizer_support(a), Pauli::X);
            let syndrome = lat.syndrome_of(&error);
            assert!(!syndrome.any_hot(), "x stabilizer {a} should be undetected");
            assert!(!error.x_overlap_parity(lat.logical_z_support()));
        }
    }

    #[test]
    fn logical_operators_have_weight_d() {
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            assert_eq!(lat.logical_x_support().len(), d);
            assert_eq!(lat.logical_z_support().len(), d);
        }
    }

    #[test]
    fn logical_representatives_anticommute() {
        let lat = Lattice::new(5).unwrap();
        let lx = PauliString::from_sparse(lat.num_data(), lat.logical_x_support(), Pauli::X);
        let lz = PauliString::from_sparse(lat.num_data(), lat.logical_z_support(), Pauli::Z);
        // They overlap on exactly one qubit, so they anticommute.
        let overlap: Vec<_> = lat
            .logical_x_support()
            .iter()
            .filter(|q| lat.logical_z_support().contains(q))
            .collect();
        assert_eq!(overlap.len(), 1);
        let _ = (lx, lz);
    }

    #[test]
    fn ancilla_distance_is_symmetric_and_zero_on_diagonal() {
        let lat = Lattice::new(5).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        for &a in &xs {
            assert_eq!(lat.ancilla_distance(a, a), 0);
            for &b in &xs {
                assert_eq!(lat.ancilla_distance(a, b), lat.ancilla_distance(b, a));
            }
        }
    }

    #[test]
    fn correction_path_length_matches_distance() {
        let lat = Lattice::new(7).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        for &a in xs.iter().take(8) {
            for &b in xs.iter().rev().take(8) {
                let path = lat.correction_path(a, b);
                assert_eq!(path.len(), lat.ancilla_distance(a, b));
            }
        }
    }

    #[test]
    fn correction_path_connects_the_defects() {
        // Applying Z along the correction path between two X ancillas must
        // produce exactly those two detection events.
        let lat = Lattice::new(5).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let (a, b) = (xs[0], xs[xs.len() - 1]);
        let path = lat.correction_path(a, b);
        let error = PauliString::from_sparse(lat.num_data(), &path, Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let mut defects = lat.defects(&syndrome, Sector::X);
        defects.sort_unstable();
        let mut expected = vec![a, b];
        expected.sort_unstable();
        assert_eq!(defects, expected);
    }

    #[test]
    fn boundary_path_clears_the_defect() {
        let lat = Lattice::new(5).unwrap();
        for sector in Sector::ALL {
            for a in lat.ancillas_in_sector(sector) {
                let path = lat.boundary_path(a);
                assert_eq!(path.len(), lat.boundary_distance(a), "ancilla {a}");
                let pauli = match sector {
                    Sector::X => Pauli::Z,
                    Sector::Z => Pauli::X,
                };
                let error = PauliString::from_sparse(lat.num_data(), &path, pauli);
                let syndrome = lat.syndrome_of(&error);
                assert_eq!(lat.defects(&syndrome, sector), vec![a]);
            }
        }
    }

    #[test]
    fn boundary_distance_bounds() {
        let lat = Lattice::new(9).unwrap();
        for a in 0..lat.num_ancillas() {
            let bd = lat.boundary_distance(a);
            assert!(
                bd >= 1 && bd <= lat.distance() / 2 + 1,
                "ancilla {a} boundary distance {bd}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range_panics() {
        let lat = Lattice::new(3).unwrap();
        let _ = lat.cell(Coord::new(10, 0));
    }

    #[test]
    fn coord_metrics() {
        let a = Coord::new(1, 2);
        let b = Coord::new(4, 0);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(a.chebyshev(b), 3);
        assert_eq!(a.to_string(), "(1, 2)");
    }
}
