use crate::algorithm::{GreedyMeshAlgorithm, MeshDecodeResult};
use crate::config::{DecoderVariant, MeshConfig};
use nisqplus_qec::lattice::{Coord, Lattice, QubitKind, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};

fn algorithm() -> GreedyMeshAlgorithm {
    GreedyMeshAlgorithm::new(DecoderVariant::Final.config())
}

fn ancilla_at(lattice: &Lattice, row: usize, col: usize) -> usize {
    let cell = lattice.cell(Coord::new(row, col));
    assert!(cell.kind.is_ancilla(), "({row},{col}) is not an ancilla");
    cell.index
}

fn data_at(lattice: &Lattice, row: usize, col: usize) -> usize {
    let cell = lattice.cell(Coord::new(row, col));
    assert_eq!(cell.kind, QubitKind::Data);
    cell.index
}

/// The X-sector defects the chain flips, sorted.
fn flipped_defects(lattice: &Lattice, result: &MeshDecodeResult) -> Vec<usize> {
    let correction =
        PauliString::from_sparse(lattice.num_data(), &result.chain_data_qubits, Pauli::Z);
    let mut flipped = lattice.defects(&lattice.syndrome_of(&correction), Sector::X);
    flipped.sort_unstable();
    flipped
}

#[test]
fn empty_defect_list_is_a_no_op() {
    let lat = Lattice::new(5).unwrap();
    let result = algorithm().decode_defects(&lat, Sector::X, &[]);
    assert!(result.completed);
    assert_eq!(result.cycles, 0);
    assert_eq!(result.cleared_defects, 0);
    assert!(result.chain_data_qubits.is_empty());
}

#[test]
fn single_defect_without_boundary_support_times_out() {
    let lat = Lattice::new(5).unwrap();
    let a = ancilla_at(&lat, 1, 4);
    let algorithm = GreedyMeshAlgorithm::new(DecoderVariant::WithReset.config());
    let result = algorithm.decode_defects(&lat, Sector::X, &[a]);
    assert!(
        !result.completed,
        "a lone defect cannot pair without boundary modules"
    );
    assert_eq!(result.cleared_defects, 0);
    assert!(result.chain_data_qubits.is_empty());
}

#[test]
fn diagonal_pair_produces_a_connecting_chain() {
    let lat = Lattice::new(7).unwrap();
    let a = ancilla_at(&lat, 5, 4);
    let b = ancilla_at(&lat, 7, 6);
    let result = algorithm().decode_defects(&lat, Sector::X, &[a, b]);
    assert!(result.completed);
    assert_eq!(result.cleared_defects, 2);
    // The chain touches each defect and flips exactly the two of them.
    let touches = |ancilla: usize| {
        lat.stabilizer_support(ancilla)
            .iter()
            .any(|q| result.chain_data_qubits.contains(q))
    };
    assert!(
        touches(a),
        "chain {:?} does not touch defect {a}",
        result.chain_data_qubits
    );
    assert!(
        touches(b),
        "chain {:?} does not touch defect {b}",
        result.chain_data_qubits
    );
    let mut expected = vec![a, b];
    expected.sort_unstable();
    assert_eq!(flipped_defects(&lat, &result), expected);
}

#[test]
fn far_pair_takes_more_cycles_than_near_pair() {
    let lat = Lattice::new(9).unwrap();
    let near = algorithm().decode_defects(
        &lat,
        Sector::X,
        &[ancilla_at(&lat, 7, 8), ancilla_at(&lat, 9, 8)],
    );
    let far = algorithm().decode_defects(
        &lat,
        Sector::X,
        &[ancilla_at(&lat, 7, 2), ancilla_at(&lat, 7, 14)],
    );
    assert!(near.completed && far.completed);
    assert!(
        far.cycles > near.cycles,
        "far pair ({}) should take longer than near pair ({})",
        far.cycles,
        near.cycles
    );
}

#[test]
fn four_defects_all_cleared() {
    let lat = Lattice::new(9).unwrap();
    let mut defects = vec![
        ancilla_at(&lat, 1, 2),
        ancilla_at(&lat, 3, 2),
        ancilla_at(&lat, 11, 10),
        ancilla_at(&lat, 13, 10),
    ];
    let result = algorithm().decode_defects(&lat, Sector::X, &defects);
    assert!(result.completed, "{result:?}");
    assert_eq!(result.cleared_defects, 4);
    // Each pair shares exactly one data qubit; both must be in the chain.
    let between_first = data_at(&lat, 2, 2);
    let between_second = data_at(&lat, 12, 10);
    assert!(result.chain_data_qubits.contains(&between_first));
    assert!(result.chain_data_qubits.contains(&between_second));
    defects.sort_unstable();
    assert_eq!(flipped_defects(&lat, &result), defects);
}

#[test]
fn engine_default_uses_final_config() {
    let algorithm = GreedyMeshAlgorithm::new(MeshConfig::default());
    assert!(algorithm.config().reset);
    assert!(algorithm.config().boundary);
    assert!(algorithm.config().equidistant_handshake);
    assert_eq!(*algorithm.config(), DecoderVariant::Final.config());
}
