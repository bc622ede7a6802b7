//! Pauli-frame tracking.
//!
//! Real machines never physically apply decoder corrections qubit-by-qubit;
//! instead the classical controller records them in a *Pauli frame* and
//! reinterprets later measurements.  The paper's motivation section hinges on
//! this: Pauli corrections commute past Clifford gates and can be applied in
//! software, but `T` gates require the frame to be resolved (i.e. all
//! outstanding syndromes decoded) before they execute, which is what creates
//! the decoding backlog.

use crate::pauli::{Pauli, PauliString};
use serde::{Deserialize, Serialize};

/// An accumulated record of corrections awaiting application.
///
/// The frame is a Pauli string over the data qubits plus a counter of decoded
/// cycles, so system-level code can reason about how far behind the decoder
/// is relative to syndrome generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PauliFrame {
    frame: PauliString,
    recorded_cycles: u64,
}

impl PauliFrame {
    /// Creates an empty frame over `num_data` qubits.
    #[must_use]
    pub fn new(num_data: usize) -> Self {
        PauliFrame {
            frame: PauliString::identity(num_data),
            recorded_cycles: 0,
        }
    }

    /// The number of data qubits the frame tracks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frame.len()
    }

    /// Returns `true` if the frame tracks zero qubits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Records one decoded cycle's correction into the frame.
    ///
    /// # Panics
    ///
    /// Panics if `correction` has a different length than the frame.
    pub fn record(&mut self, correction: &PauliString) {
        self.frame.compose_with(correction);
        self.recorded_cycles += 1;
    }

    /// Records a sparse correction (a Pauli applied to a list of qubits).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn record_sparse(&mut self, qubits: &[usize], pauli: Pauli) {
        for &q in qubits {
            self.frame.apply(q, pauli);
        }
        self.recorded_cycles += 1;
    }

    /// The current accumulated correction.
    #[must_use]
    pub fn as_pauli_string(&self) -> &PauliString {
        &self.frame
    }

    /// The number of decode cycles recorded so far.
    #[must_use]
    pub fn recorded_cycles(&self) -> u64 {
        self.recorded_cycles
    }

    /// Returns `true` if the accumulated frame is the identity.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.frame.is_identity()
    }

    /// Consumes the frame and returns the accumulated correction, e.g. to
    /// apply it before a `T` gate.
    #[must_use]
    pub fn into_correction(self) -> PauliString {
        self.frame
    }

    /// Clears the frame (after its correction has been consumed) while
    /// keeping the cycle counter.
    pub fn reset(&mut self) {
        self.frame.fill_identity();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_accumulates_and_cancels() {
        let mut frame = PauliFrame::new(4);
        assert!(frame.is_trivial());
        frame.record_sparse(&[0, 2], Pauli::Z);
        frame.record_sparse(&[2], Pauli::Z);
        assert_eq!(frame.as_pauli_string().z_support(), vec![0]);
        assert_eq!(frame.recorded_cycles(), 2);
    }

    #[test]
    fn record_full_strings() {
        let mut frame = PauliFrame::new(3);
        frame.record(&PauliString::from_sparse(3, &[1], Pauli::X));
        frame.record(&PauliString::from_sparse(3, &[1], Pauli::Z));
        assert_eq!(frame.as_pauli_string()[1], Pauli::Y);
        assert_eq!(frame.recorded_cycles(), 2);
    }

    #[test]
    fn reset_clears_operators_but_keeps_count() {
        let mut frame = PauliFrame::new(2);
        frame.record_sparse(&[0], Pauli::X);
        frame.reset();
        assert!(frame.is_trivial());
        assert_eq!(frame.recorded_cycles(), 1);
        assert_eq!(frame.len(), 2);
    }

    #[test]
    fn into_correction_returns_accumulated_string() {
        let mut frame = PauliFrame::new(2);
        frame.record_sparse(&[1], Pauli::Z);
        let corr = frame.into_correction();
        assert_eq!(corr.z_support(), vec![1]);
    }
}
