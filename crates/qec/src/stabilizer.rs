//! Stabilizer measurement circuits and syndrome extraction (Figure 3).
//!
//! Each ancilla qubit runs a small circuit every cycle: the X-stabilizer
//! ancilla is prepared, Hadamard-rotated, entangled with its four data-qubit
//! neighbours via controlled-X gates, rotated back and measured; the
//! Z-stabilizer ancilla collects parity through data-controlled CNOTs and is
//! then measured.  One full iteration of these circuits over the whole lattice
//! is a *cycle* — the unit of time for the lifetime simulations and for the
//! syndrome-generation rate in the backlog analysis.

use crate::error::QecError;
use crate::lattice::{Lattice, QubitKind};
use crate::pauli::PauliString;
use crate::syndrome::Syndrome;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Reference to a physical qubit in a stabilizer circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QubitRef {
    /// A data qubit, by data-qubit index.
    Data(usize),
    /// An ancilla qubit, by ancilla index.
    Ancilla(usize),
}

/// A single operation in a stabilizer measurement circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateOp {
    /// Prepare the qubit in `|0>`.
    PrepZ(QubitRef),
    /// Apply a Hadamard gate.
    Hadamard(QubitRef),
    /// Apply a controlled-X gate.
    Cnot {
        /// Control qubit.
        control: QubitRef,
        /// Target qubit.
        target: QubitRef,
    },
    /// Measure the qubit in the Z basis.
    MeasureZ(QubitRef),
}

/// The stabilizer measurement circuit of one ancilla.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizerCircuit {
    ancilla: usize,
    kind: QubitKind,
    ops: Vec<GateOp>,
}

impl StabilizerCircuit {
    /// Builds the measurement circuit for one ancilla of the lattice.
    ///
    /// # Panics
    ///
    /// Panics if `ancilla >= lattice.num_ancillas()`.
    #[must_use]
    pub fn for_ancilla(lattice: &Lattice, ancilla: usize) -> Self {
        let kind = lattice.ancilla_kind(ancilla);
        let a = QubitRef::Ancilla(ancilla);
        let mut ops = vec![GateOp::PrepZ(a)];
        match kind {
            QubitKind::AncillaX => {
                // "X" circuit of Figure 3: H, then ancilla-controlled X on the
                // data neighbours, then H and measurement.
                ops.push(GateOp::Hadamard(a));
                for &d in lattice.stabilizer_support(ancilla) {
                    ops.push(GateOp::Cnot {
                        control: a,
                        target: QubitRef::Data(d),
                    });
                }
                ops.push(GateOp::Hadamard(a));
            }
            QubitKind::AncillaZ => {
                // "Z" circuit of Figure 3: data-controlled X onto the ancilla.
                for &d in lattice.stabilizer_support(ancilla) {
                    ops.push(GateOp::Cnot {
                        control: QubitRef::Data(d),
                        target: a,
                    });
                }
            }
            QubitKind::Data => unreachable!("ancilla index refers to a data qubit"),
        }
        ops.push(GateOp::MeasureZ(a));
        StabilizerCircuit { ancilla, kind, ops }
    }

    /// The ancilla this circuit measures.
    #[must_use]
    pub fn ancilla(&self) -> usize {
        self.ancilla
    }

    /// The kind of stabilizer (X or Z) this circuit measures.
    #[must_use]
    pub fn kind(&self) -> QubitKind {
        self.kind
    }

    /// The operations of the circuit, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[GateOp] {
        &self.ops
    }

    /// The number of time steps of the circuit.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.ops.len()
    }

    /// Number of two-qubit gates in the circuit.
    #[must_use]
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, GateOp::Cnot { .. }))
            .count()
    }
}

/// How measurements behave during syndrome extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExtractionMode {
    /// Ideal code-capacity extraction: data errors only, measurements are perfect.
    ///
    /// This matches the paper's lifetime simulation of the pure dephasing
    /// channel, where the decoder handles the spatial syndrome of each cycle.
    CodeCapacity,
    /// Phenomenological extraction: each ancilla measurement is flipped with
    /// the given probability, and detection events are reported as changes
    /// between consecutive rounds.
    Phenomenological {
        /// Probability of a measurement bit flip per ancilla per round.
        measurement_error: f64,
    },
}

/// Runs repeated stabilizer-measurement cycles over a lattice.
///
/// The extractor owns the accumulated physical error (the "true" state of the
/// device) so that multi-round simulations can interleave error injection,
/// measurement, decoding and correction.
#[derive(Debug, Clone)]
pub struct SyndromeExtractor {
    mode: ExtractionMode,
    accumulated_error: PauliString,
    previous_measurement: Option<Syndrome>,
    cycles_run: u64,
}

impl SyndromeExtractor {
    /// Creates an extractor for a lattice in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if a phenomenological
    /// measurement-error probability is outside `[0, 1]`.
    pub fn new(lattice: &Lattice, mode: ExtractionMode) -> Result<Self, QecError> {
        if let ExtractionMode::Phenomenological { measurement_error } = mode {
            if !(0.0..=1.0).contains(&measurement_error) || !measurement_error.is_finite() {
                return Err(QecError::InvalidProbability {
                    value: measurement_error,
                });
            }
        }
        Ok(SyndromeExtractor {
            mode,
            accumulated_error: PauliString::identity(lattice.num_data()),
            previous_measurement: None,
            cycles_run: 0,
        })
    }

    /// The physical error currently present on the device.
    #[must_use]
    pub fn accumulated_error(&self) -> &PauliString {
        &self.accumulated_error
    }

    /// The number of cycles run so far.
    #[must_use]
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// Injects additional physical errors (e.g. a freshly sampled channel output).
    ///
    /// # Panics
    ///
    /// Panics if `errors` has a different length than the lattice's data register.
    pub fn inject(&mut self, errors: &PauliString) {
        self.accumulated_error.compose_with(errors);
    }

    /// Applies a correction to the device state.
    ///
    /// # Panics
    ///
    /// Panics if `correction` has a different length than the lattice's data register.
    pub fn apply_correction(&mut self, correction: &PauliString) {
        self.accumulated_error.compose_with(correction);
    }

    /// Runs one full stabilizer-measurement cycle and returns the measured syndrome.
    ///
    /// In [`ExtractionMode::CodeCapacity`] the returned syndrome is exact; in
    /// [`ExtractionMode::Phenomenological`] each bit may be flipped by
    /// measurement noise, and the returned syndrome is the raw (noisy)
    /// measurement record for this round.
    pub fn measure_cycle<R: Rng + ?Sized>(&mut self, lattice: &Lattice, rng: &mut R) -> Syndrome {
        let mut syndrome = lattice.syndrome_of(&self.accumulated_error);
        if let ExtractionMode::Phenomenological { measurement_error } = self.mode {
            for i in 0..syndrome.len() {
                if rng.gen::<f64>() < measurement_error {
                    syndrome.flip(i);
                }
            }
        }
        self.cycles_run += 1;
        syndrome
    }

    /// Runs one cycle and returns *detection events*: the XOR of this round's
    /// measurement with the previous round's.
    ///
    /// For the first round the events equal the raw measurement.
    pub fn detection_events<R: Rng + ?Sized>(
        &mut self,
        lattice: &Lattice,
        rng: &mut R,
    ) -> Syndrome {
        let current = self.measure_cycle(lattice, rng);
        let events = match &self.previous_measurement {
            Some(prev) => current.xor(prev),
            None => current.clone(),
        };
        self.previous_measurement = Some(current);
        events
    }
}

/// Builds every ancilla's stabilizer circuit for a lattice.
#[must_use]
pub fn all_stabilizer_circuits(lattice: &Lattice) -> Vec<StabilizerCircuit> {
    (0..lattice.num_ancillas())
        .map(|a| StabilizerCircuit::for_ancilla(lattice, a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{ErrorModel, PureDephasing};
    use crate::lattice::Sector;
    use crate::pauli::Pauli;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn x_circuit_structure_matches_figure_3() {
        let lat = Lattice::new(5).unwrap();
        let a = lat
            .ancillas_in_sector(Sector::X)
            .find(|&a| lat.stabilizer_support(a).len() == 4)
            .unwrap();
        let circuit = StabilizerCircuit::for_ancilla(&lat, a);
        assert_eq!(circuit.kind(), QubitKind::AncillaX);
        assert_eq!(circuit.two_qubit_gate_count(), 4);
        // prep + H + 4 CNOT + H + measure
        assert_eq!(circuit.depth(), 8);
        assert!(matches!(circuit.ops()[0], GateOp::PrepZ(_)));
        assert!(matches!(circuit.ops()[1], GateOp::Hadamard(_)));
        assert!(matches!(circuit.ops().last(), Some(GateOp::MeasureZ(_))));
        // All CNOTs are controlled by the ancilla for the X stabilizer.
        for op in circuit.ops() {
            if let GateOp::Cnot { control, .. } = op {
                assert_eq!(*control, QubitRef::Ancilla(a));
            }
        }
    }

    #[test]
    fn z_circuit_structure_matches_figure_3() {
        let lat = Lattice::new(5).unwrap();
        let a = lat
            .ancillas_in_sector(Sector::Z)
            .find(|&a| lat.stabilizer_support(a).len() == 4)
            .unwrap();
        let circuit = StabilizerCircuit::for_ancilla(&lat, a);
        assert_eq!(circuit.kind(), QubitKind::AncillaZ);
        assert_eq!(circuit.two_qubit_gate_count(), 4);
        // prep + 4 CNOT + measure (no Hadamards)
        assert_eq!(circuit.depth(), 6);
        for op in circuit.ops() {
            assert!(!matches!(op, GateOp::Hadamard(_)));
            if let GateOp::Cnot { target, .. } = op {
                assert_eq!(*target, QubitRef::Ancilla(a));
            }
        }
    }

    #[test]
    fn boundary_stabilizer_circuits_have_fewer_cnots() {
        let lat = Lattice::new(3).unwrap();
        let circuits = all_stabilizer_circuits(&lat);
        assert_eq!(circuits.len(), lat.num_ancillas());
        assert!(circuits.iter().any(|c| c.two_qubit_gate_count() < 4));
        for c in &circuits {
            assert_eq!(
                c.two_qubit_gate_count(),
                lat.stabilizer_support(c.ancilla()).len()
            );
        }
    }

    #[test]
    fn code_capacity_extraction_matches_direct_syndrome() {
        let lat = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let model = PureDephasing::new(0.08).unwrap();
        let error = model.sample(&lat, &mut rng);
        let mut extractor = SyndromeExtractor::new(&lat, ExtractionMode::CodeCapacity).unwrap();
        extractor.inject(&error);
        let measured = extractor.measure_cycle(&lat, &mut rng);
        assert_eq!(measured, lat.syndrome_of(&error));
        assert_eq!(extractor.cycles_run(), 1);
    }

    #[test]
    fn correction_clears_accumulated_error() {
        let lat = Lattice::new(3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut extractor = SyndromeExtractor::new(&lat, ExtractionMode::CodeCapacity).unwrap();
        let error = PauliString::from_sparse(lat.num_data(), &[0, 3], Pauli::Z);
        extractor.inject(&error);
        extractor.apply_correction(&error);
        assert!(extractor.accumulated_error().is_identity());
        assert!(!extractor.measure_cycle(&lat, &mut rng).any_hot());
    }

    #[test]
    fn phenomenological_mode_rejects_bad_probability() {
        let lat = Lattice::new(3).unwrap();
        assert!(SyndromeExtractor::new(
            &lat,
            ExtractionMode::Phenomenological {
                measurement_error: 1.5
            }
        )
        .is_err());
    }

    #[test]
    fn phenomenological_detection_events_flag_measurement_flips() {
        let lat = Lattice::new(3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        // With measurement error 1.0 every bit flips every round; the first
        // round reports all-hot, the second round reports no *changes*.
        let mut extractor = SyndromeExtractor::new(
            &lat,
            ExtractionMode::Phenomenological {
                measurement_error: 1.0,
            },
        )
        .unwrap();
        let first = extractor.detection_events(&lat, &mut rng);
        assert_eq!(first.weight(), lat.num_ancillas());
        let second = extractor.detection_events(&lat, &mut rng);
        assert_eq!(second.weight(), 0);
    }
}
