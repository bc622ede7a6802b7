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
//! * **Ancilla qubits** are numbered `0..num_ancillas()` in row-major order
//!   (X and Z ancillas interleaved); syndromes
//!   ([`crate::syndrome::Syndrome`]) are indexed by ancilla index.
//! * **Mesh coordinates** `(row, col)` refer to the full `(2d-1) x (2d-1)`
//!   grid and are what the SFQ decoder mesh (one module per qubit) uses.

use crate::error::QecError;
use crate::pauli::PauliString;
use crate::syndrome::{DefectIndices, Syndrome};
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// A distance-`d` planar surface-code lattice.
///
/// The lattice owns all geometry: qubit placement, stabilizer supports,
/// boundary structure, and logical-operator representatives.  It is immutable
/// after construction and cheap to share by reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lattice {
    distance: usize,
    size: usize,
    cells: Vec<CellInfo>,
    data_coords: Vec<Coord>,
    ancilla_coords: Vec<Coord>,
    ancilla_kinds: Vec<QubitKind>,
    /// For each ancilla index, the data-qubit indices of its stabilizer support.
    stabilizer_supports: Vec<Vec<usize>>,
    /// For each data qubit, the ancillas whose stabilizer contains it, one
    /// pair per sector (indexed by [`Sector::index`]): the transpose of
    /// `stabilizer_supports`, built from that table.  A qubit on a sector's
    /// boundary touches one ancilla of the sector; its second slot holds
    /// [`NO_ANCILLA`].
    data_ancillas: Vec<[[u32; 2]; 2]>,
    /// The ancilla indices of each sector (indexed by [`Sector::index`]),
    /// ascending.
    sector_ancillas: [Vec<u32>; 2],
    /// The same sets as bit masks over a [`Syndrome`]'s words (indexed by
    /// [`Sector::index`]): bit `a % 64` of word `a / 64` is set exactly when
    /// ancilla `a` belongs to the sector.
    sector_masks: [Vec<u64>; 2],
    /// Data-qubit indices of the logical-X representative (top row).
    logical_x_support: Vec<usize>,
    /// Data-qubit indices of the logical-Z representative (left column).
    logical_z_support: Vec<usize>,
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
        let mut cells = Vec::with_capacity(size * size);
        let mut data_coords = Vec::new();
        let mut ancilla_coords = Vec::new();
        let mut ancilla_kinds = Vec::new();

        for row in 0..size {
            for col in 0..size {
                let coord = Coord::new(row, col);
                let info = if (row + col) % 2 == 0 {
                    let index = data_coords.len();
                    data_coords.push(coord);
                    CellInfo {
                        kind: QubitKind::Data,
                        index,
                    }
                } else if row % 2 == 1 {
                    // Odd row, even column: X ancilla.
                    let index = ancilla_coords.len();
                    ancilla_coords.push(coord);
                    ancilla_kinds.push(QubitKind::AncillaX);
                    CellInfo {
                        kind: QubitKind::AncillaX,
                        index,
                    }
                } else {
                    // Even row, odd column: Z ancilla.
                    let index = ancilla_coords.len();
                    ancilla_coords.push(coord);
                    ancilla_kinds.push(QubitKind::AncillaZ);
                    CellInfo {
                        kind: QubitKind::AncillaZ,
                        index,
                    }
                };
                cells.push(info);
            }
        }

        let cell_at = |row: usize, col: usize| -> &CellInfo { &cells[row * size + col] };

        let mut stabilizer_supports = vec![Vec::new(); ancilla_coords.len()];
        for (a_idx, coord) in ancilla_coords.iter().enumerate() {
            let mut support = Vec::with_capacity(4);
            let neighbors = [
                (coord.row.checked_sub(1), Some(coord.col)),
                (
                    coord.row.checked_add(1).filter(|&r| r < size),
                    Some(coord.col),
                ),
                (Some(coord.row), coord.col.checked_sub(1)),
                (
                    Some(coord.row),
                    coord.col.checked_add(1).filter(|&c| c < size),
                ),
            ];
            for (r, c) in neighbors {
                if let (Some(r), Some(c)) = (r, c) {
                    let info = cell_at(r, c);
                    debug_assert_eq!(info.kind, QubitKind::Data);
                    support.push(info.index);
                }
            }
            support.sort_unstable();
            stabilizer_supports[a_idx] = support;
        }

        let mut data_ancillas = vec![[[NO_ANCILLA; 2]; 2]; data_coords.len()];
        let mut sector_ancillas = [Vec::new(), Vec::new()];
        let mask_words = Syndrome::words_for(ancilla_coords.len());
        let mut sector_masks = [vec![0u64; mask_words], vec![0u64; mask_words]];
        for (a_idx, support) in stabilizer_supports.iter().enumerate() {
            let sector = if ancilla_kinds[a_idx] == QubitKind::AncillaX {
                Sector::X
            } else {
                Sector::Z
            };
            let ancilla = u32::try_from(a_idx).expect("ancilla indices fit in 32 bits");
            sector_ancillas[sector.index()].push(ancilla);
            sector_masks[sector.index()][a_idx / 64] |= 1 << (a_idx % 64);
            for &q in support {
                let slot = data_ancillas[q][sector.index()]
                    .iter_mut()
                    .find(|slot| **slot == NO_ANCILLA)
                    .expect("a data qubit touches at most two ancillas of a sector");
                *slot = ancilla;
            }
        }

        // Logical X: X operators along the top row of data qubits.
        let logical_x_support: Vec<usize> = (0..size)
            .step_by(2)
            .map(|col| cell_at(0, col).index)
            .collect();
        // Logical Z: Z operators along the left column of data qubits.
        let logical_z_support: Vec<usize> = (0..size)
            .step_by(2)
            .map(|row| cell_at(row, 0).index)
            .collect();

        Ok(Lattice {
            distance,
            size,
            cells,
            data_coords,
            ancilla_coords,
            ancilla_kinds,
            stabilizer_supports,
            data_ancillas,
            sector_ancillas,
            sector_masks,
            logical_x_support,
            logical_z_support,
        })
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
        self.data_coords.len()
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
        assert!(
            coord.row < self.size && coord.col < self.size,
            "coordinate {coord} out of range"
        );
        self.cells[coord.row * self.size + coord.col]
    }

    /// The grid coordinate of a data qubit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_data()`.
    #[must_use]
    pub fn data_coord(&self, index: usize) -> Coord {
        self.data_coords[index]
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

    /// The kind (X or Z) of an ancilla qubit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_ancillas()`.
    #[must_use]
    pub fn ancilla_kind(&self, index: usize) -> QubitKind {
        self.ancilla_kinds[index]
    }

    /// The sector an ancilla belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_ancillas()`.
    #[must_use]
    pub fn ancilla_sector(&self, index: usize) -> Sector {
        match self.ancilla_kinds[index] {
            QubitKind::AncillaX => Sector::X,
            QubitKind::AncillaZ => Sector::Z,
            QubitKind::Data => unreachable!("ancilla index refers to a data qubit"),
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

    /// Iterates over the ancilla indices belonging to one sector.
    pub fn ancillas_in_sector(&self, sector: Sector) -> impl Iterator<Item = usize> + '_ {
        self.sector_ancillas[sector.index()]
            .iter()
            .map(|&a| a as usize)
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
        for sector in Sector::ALL {
            self.for_each_anticommuting_ancilla(error, sector, |a| syndrome.flip(a));
        }
    }

    /// Calls `flip` once per (component of `operator` that `sector` detects,
    /// adjacent ancilla of `sector`) pair; an ancilla is hot when it was
    /// visited an odd number of times.  Only the set bits of the detected
    /// plane are walked — the Z plane for X ancillas, the X plane for Z
    /// ancillas — by trailing zeros.
    fn for_each_anticommuting_ancilla(
        &self,
        operator: &PauliString,
        sector: Sector,
        mut flip: impl FnMut(usize),
    ) {
        assert_eq!(
            operator.len(),
            self.num_data(),
            "operator acts on {} qubits but lattice has {} data qubits",
            operator.len(),
            self.num_data()
        );
        let detected = match sector {
            Sector::X => operator.z_plane(),
            Sector::Z => operator.x_plane(),
        };
        for q in DefectIndices::over(detected) {
            for &a in &self.data_ancillas[q][sector.index()] {
                if a != NO_ANCILLA {
                    flip(a as usize);
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
            self.ancilla_kinds[a], self.ancilla_kinds[b],
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
        let coord = self.ancilla_coords[ancilla];
        match self.ancilla_kinds[ancilla] {
            QubitKind::AncillaX => {
                let to_top = coord.row.div_ceil(2);
                let to_bottom = (self.size - coord.row) / 2;
                to_top.min(to_bottom)
            }
            QubitKind::AncillaZ => {
                let to_left = coord.col.div_ceil(2);
                let to_right = (self.size - coord.col) / 2;
                to_left.min(to_right)
            }
            QubitKind::Data => unreachable!("ancilla index refers to a data qubit"),
        }
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
            self.ancilla_kinds[a], self.ancilla_kinds[b],
            "correction paths are only defined within one sector"
        );
        let ca = self.ancilla_coords[a];
        let cb = self.ancilla_coords[b];
        // Vertical leg: from ca.row to cb.row along column ca.col.
        let (mut row, target_row) = (ca.row, cb.row);
        while row != target_row {
            let next = if row < target_row { row + 2 } else { row - 2 };
            let mid_row = (row + next) / 2;
            f(self.cell(Coord::new(mid_row, ca.col)).index);
            row = next;
        }
        // Horizontal leg: from ca.col to cb.col along row target_row.
        let (mut col, target_col) = (ca.col, cb.col);
        while col != target_col {
            let next = if col < target_col { col + 2 } else { col - 2 };
            let mid_col = (col + next) / 2;
            f(self.cell(Coord::new(target_row, mid_col)).index);
            col = next;
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
        let coord = self.ancilla_coords[ancilla];
        match self.ancilla_kinds[ancilla] {
            QubitKind::AncillaX => {
                let to_top = coord.row.div_ceil(2);
                let to_bottom = (self.size - coord.row) / 2;
                if to_top <= to_bottom {
                    let mut row = coord.row;
                    loop {
                        f(self.cell(Coord::new(row - 1, coord.col)).index);
                        if row < 2 {
                            break;
                        }
                        row -= 2;
                    }
                } else {
                    let mut row = coord.row;
                    while row + 1 < self.size {
                        f(self.cell(Coord::new(row + 1, coord.col)).index);
                        row += 2;
                    }
                }
            }
            QubitKind::AncillaZ => {
                let to_left = coord.col.div_ceil(2);
                let to_right = (self.size - coord.col) / 2;
                if to_left <= to_right {
                    let mut col = coord.col;
                    loop {
                        f(self.cell(Coord::new(coord.row, col - 1)).index);
                        if col < 2 {
                            break;
                        }
                        col -= 2;
                    }
                } else {
                    let mut col = coord.col;
                    while col + 1 < self.size {
                        f(self.cell(Coord::new(coord.row, col + 1)).index);
                        col += 2;
                    }
                }
            }
            QubitKind::Data => unreachable!("ancilla index refers to a data qubit"),
        }
    }

    /// Visits the hot ancillas of one sector in ascending index order without
    /// allocating (the defect-scan core of [`Lattice::defects`], and the one
    /// place a decoder reads syndrome bits): each syndrome word is masked
    /// with the sector's and its set bits are walked by trailing zeros, so
    /// the scan costs one step per word plus one per defect.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match this lattice.
    pub fn for_each_defect(&self, syndrome: &Syndrome, sector: Sector, mut f: impl FnMut(usize)) {
        assert_eq!(
            syndrome.len(),
            self.num_ancillas(),
            "syndrome length {} does not match {} ancillas",
            syndrome.len(),
            self.num_ancillas()
        );
        let masks = &self.sector_masks[sector.index()];
        for (w, (&word, &mask)) in syndrome.words().iter().zip(masks).enumerate() {
            let mut hot = word & mask;
            while hot != 0 {
                f(w * 64 + hot.trailing_zeros() as usize);
                hot &= hot - 1;
            }
        }
    }

    /// Returns `true` if `operator` triggers no detection event in `sector`,
    /// i.e. it commutes with every stabilizer of that sector.
    ///
    /// This is the equivalent of checking that [`Lattice::defects`] on
    /// [`Lattice::syndrome_of`]`(operator)` is empty for one sector, at the
    /// cost of one step per word of the plane the sector detects plus two
    /// bit flips per operator in it, and without allocating on lattices of
    /// at most 512 ancillas (`d <= 16`).
    ///
    /// # Panics
    ///
    /// Panics if `operator` is not indexed by this lattice's data qubits.
    #[must_use]
    pub fn sector_is_clear(&self, operator: &PauliString, sector: Sector) -> bool {
        let words = Syndrome::words_for(self.num_ancillas());
        let mut on_stack = [0u64; 8];
        let mut on_heap = Vec::new();
        let hot: &mut [u64] = if words <= on_stack.len() {
            &mut on_stack[..words]
        } else {
            on_heap.resize(words, 0);
            &mut on_heap
        };
        self.for_each_anticommuting_ancilla(operator, sector, |a| hot[a / 64] ^= 1 << (a % 64));
        hot.iter().all(|&word| word == 0)
    }
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
