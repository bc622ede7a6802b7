//! Logical-error detection.
//!
//! After the decoder has produced a correction, the residual operator
//! (physical error composed with the correction) must be classified:
//!
//! * if the residual still triggers detection events, the correction was not
//!   even a valid pairing of the syndrome — the cycle *fails*;
//! * if the residual is undetectable but anticommutes with a logical
//!   operator, the chain crossed the lattice — a *logical error*
//!   (Section II-C2 of the paper);
//! * otherwise the correction returned the system to the correct logical
//!   state and the cycle *succeeds*.

use crate::lattice::{Lattice, Sector};
use crate::pauli::PauliString;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of one decode-and-correct cycle for a single sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicalState {
    /// The correction restored the logical state.
    Success,
    /// The residual operator implements a logical X or Z: the encoded
    /// information was corrupted.
    LogicalError,
    /// The correction did not even clear the syndrome (possible with the
    /// approximate decoder variants that lack reset/boundary handling).
    InvalidCorrection,
}

impl LogicalState {
    /// Returns `true` unless the state is [`LogicalState::Success`].
    ///
    /// Both logical errors and invalid corrections count as failures when
    /// estimating the logical error rate `PL`.
    #[must_use]
    pub fn is_failure(self) -> bool {
        !matches!(self, LogicalState::Success)
    }
}

impl fmt::Display for LogicalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalState::Success => write!(f, "success"),
            LogicalState::LogicalError => write!(f, "logical error"),
            LogicalState::InvalidCorrection => write!(f, "invalid correction"),
        }
    }
}

/// Classifies the residual operator left after applying a correction.
///
/// `error` is the injected physical error and `correction` the decoder's
/// output; both are Pauli strings over the lattice's data qubits.  Only the
/// components relevant to `sector` are examined (Z components for
/// [`Sector::X`], X components for [`Sector::Z`]), matching the paper's
/// symmetric, per-sector decoding.
///
/// # Panics
///
/// Panics if `error` or `correction` are not indexed by the lattice's data
/// qubits.
#[must_use]
pub fn classify_residual(
    lattice: &Lattice,
    error: &PauliString,
    correction: &PauliString,
    sector: Sector,
) -> LogicalState {
    classify_residual_operator(lattice, &error.composed(correction), sector)
}

/// Classifies a decode cycle across **both** sectors.
///
/// Returns the per-sector states `(x_sector, z_sector)`.
#[must_use]
pub fn classify_both_sectors(
    lattice: &Lattice,
    error: &PauliString,
    correction: &PauliString,
) -> (LogicalState, LogicalState) {
    classify_both_sectors_into(lattice, error, correction, &mut PauliString::default())
}

/// Classifies an already-composed residual operator in one sector without
/// allocating.
///
/// This is the classifier [`classify_residual`] applies to the composition
/// of its `(error, correction)` pair: the stabilizer check flips only the
/// ancillas next to the residual's non-identity operators
/// ([`Lattice::sector_is_clear`]) instead of materializing a
/// [`Syndrome`](crate::syndrome::Syndrome) and a defect list, which makes it
/// safe to call from allocation-free decode loops.
///
/// # Panics
///
/// Panics if `residual` is not indexed by the lattice's data qubits.
#[must_use]
pub fn classify_residual_operator(
    lattice: &Lattice,
    residual: &PauliString,
    sector: Sector,
) -> LogicalState {
    if !lattice.sector_is_clear(residual, sector) {
        return LogicalState::InvalidCorrection;
    }
    let anticommutes = match sector {
        Sector::X => residual.z_overlap_parity(lattice.logical_x_support()),
        Sector::Z => residual.x_overlap_parity(lattice.logical_z_support()),
    };
    if anticommutes {
        LogicalState::LogicalError
    } else {
        LogicalState::Success
    }
}

/// Composes `error` with `correction` into the caller-provided `residual`
/// scratch buffer and classifies both sectors without allocating.
///
/// `residual`'s existing allocation is reused whenever it already holds at
/// least `error.len()` operators, so a worker can keep one scratch string per
/// lattice and classify round after round heap-free.  Returns the per-sector
/// states `(x_sector, z_sector)`, byte-identical to
/// [`classify_both_sectors`].
///
/// # Panics
///
/// Panics if `error` and `correction` act on different numbers of qubits, or
/// are not indexed by the lattice's data qubits.
pub fn classify_both_sectors_into(
    lattice: &Lattice,
    error: &PauliString,
    correction: &PauliString,
    residual: &mut PauliString,
) -> (LogicalState, LogicalState) {
    residual.copy_from(error);
    residual.compose_with(correction);
    (
        classify_residual_operator(lattice, residual, Sector::X),
        classify_residual_operator(lattice, residual, Sector::Z),
    )
}

/// Classifies a shed (identity-corrected) round from the error alone.
///
/// A shed round's residual *is* its error, so no composition scratch is
/// needed; the result matches [`classify_both_sectors`] with an identity
/// correction, allocation-free.
#[must_use]
pub fn classify_shed_round(lattice: &Lattice, error: &PauliString) -> (LogicalState, LogicalState) {
    (
        classify_residual_operator(lattice, error, Sector::X),
        classify_residual_operator(lattice, error, Sector::Z),
    )
}

/// A streaming tally of per-round residual classifications.
///
/// The decoding-backlog argument makes load-shedding tempting — drop a round
/// instead of letting the queue grow — but a shed round is an *uncorrected*
/// round, and its cost is a logical-error quantity, not just a counter.  A
/// `ResidualTally` accumulates [`classify_both_sectors`] outcomes round after
/// round (e.g. over a long streamed run, with identity corrections standing
/// in for shed rounds), so that cost can be measured instead of assumed.
///
/// Each recorded round counts exactly once, by its worst per-sector state:
/// a round with any [`LogicalState::InvalidCorrection`] sector counts as an
/// invalid correction, else a round with any [`LogicalState::LogicalError`]
/// sector counts as a logical error, else the round is a success.  Both
/// non-success states are failures (matching [`LogicalState::is_failure`]):
/// an uncleared syndrome means the round did not return to the codespace.
///
/// ```rust
/// use nisqplus_qec::lattice::{Lattice, Sector};
/// use nisqplus_qec::logical::ResidualTally;
/// use nisqplus_qec::pauli::{Pauli, PauliString};
///
/// # fn main() -> Result<(), nisqplus_qec::QecError> {
/// let lattice = Lattice::new(3)?;
/// let mut tally = ResidualTally::new();
/// let error = PauliString::from_sparse(lattice.num_data(), &[4], Pauli::Z);
/// // A decoded round: the correction undoes the error.
/// tally.record(&lattice, &error, &error.clone());
/// // A shed round: identity correction, the error goes uncorrected.
/// tally.record(&lattice, &error, &PauliString::identity(lattice.num_data()));
/// assert_eq!(tally.rounds, 2);
/// assert_eq!(tally.successes, 1);
/// assert_eq!(tally.failures(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResidualTally {
    /// Rounds recorded.
    pub rounds: u64,
    /// Rounds whose residual was trivial in both sectors.
    pub successes: u64,
    /// Rounds whose residual was undetectable but crossed the lattice in at
    /// least one sector (and no sector was an invalid correction).
    pub logical_errors: u64,
    /// Rounds where at least one sector's correction failed to clear the
    /// syndrome — the dominant outcome for shed (identity-corrected) rounds.
    pub invalid_corrections: u64,
}

impl ResidualTally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        ResidualTally::default()
    }

    /// Classifies one round's residual across both sectors and records the
    /// outcome; returns the per-sector states for callers that want them.
    ///
    /// # Panics
    ///
    /// Panics if `error` or `correction` are not indexed by the lattice's
    /// data qubits.
    pub fn record(
        &mut self,
        lattice: &Lattice,
        error: &PauliString,
        correction: &PauliString,
    ) -> (LogicalState, LogicalState) {
        let (x, z) = classify_both_sectors(lattice, error, correction);
        self.record_states(x, z);
        (x, z)
    }

    /// Records an already-classified round from its per-sector states.
    pub fn record_states(&mut self, x: LogicalState, z: LogicalState) {
        self.rounds += 1;
        let invalid = LogicalState::InvalidCorrection;
        if x == invalid || z == invalid {
            self.invalid_corrections += 1;
        } else if x == LogicalState::LogicalError || z == LogicalState::LogicalError {
            self.logical_errors += 1;
        } else {
            self.successes += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &ResidualTally) {
        self.rounds += other.rounds;
        self.successes += other.successes;
        self.logical_errors += other.logical_errors;
        self.invalid_corrections += other.invalid_corrections;
    }

    /// Failed rounds: logical errors plus invalid corrections.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.logical_errors + self.invalid_corrections
    }

    /// The fraction of recorded rounds that failed (`0.0` when empty).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.failures() as f64 / self.rounds as f64
        }
    }

    /// The fraction of recorded rounds that were undetected logical errors.
    #[must_use]
    pub fn logical_error_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.logical_errors as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Coord;
    use crate::pauli::Pauli;

    fn lattice() -> Lattice {
        Lattice::new(5).unwrap()
    }

    #[test]
    fn perfect_correction_is_success() {
        let lat = lattice();
        let q = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let correction = error.clone();
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn missing_correction_is_invalid() {
        let lat = lattice();
        let q = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let correction = PauliString::identity(lat.num_data());
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::X),
            LogicalState::InvalidCorrection
        );
    }

    #[test]
    fn correction_through_other_side_is_logical_error() {
        // Error and correction together form a full vertical chain.
        let lat = lattice();
        let col = 4;
        let all: Vec<usize> = (0..lat.size())
            .step_by(2)
            .map(|r| lat.cell(Coord::new(r, col)).index)
            .collect();
        // The actual error is the top 2 qubits of the chain, the "correction"
        // closes the chain through the bottom, creating a logical Z.
        let error = PauliString::from_sparse(lat.num_data(), &all[..2], Pauli::Z);
        let correction = PauliString::from_sparse(lat.num_data(), &all[2..], Pauli::Z);
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::X),
            LogicalState::LogicalError
        );
    }

    #[test]
    fn stabilizer_equivalent_correction_is_success() {
        // Correcting an error with a different chain that differs by a
        // stabilizer (the degeneracy of Figure 4(b)/(c)) is still a success.
        let lat = lattice();
        // Z error on two data qubits adjacent to the same Z-plaquette.
        let za = lat
            .ancillas_in_sector(Sector::Z)
            .find(|&a| lat.stabilizer_support(a).len() == 4)
            .unwrap();
        let support = lat.stabilizer_support(za);
        let error = PauliString::from_sparse(lat.num_data(), &support[..2], Pauli::Z);
        let correction = PauliString::from_sparse(lat.num_data(), &support[2..], Pauli::Z);
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn x_sector_classification_uses_logical_z() {
        let lat = lattice();
        let row: Vec<usize> = (0..lat.size())
            .step_by(2)
            .map(|c| lat.cell(Coord::new(2, c)).index)
            .collect();
        let error = PauliString::from_sparse(lat.num_data(), &row, Pauli::X);
        let correction = PauliString::identity(lat.num_data());
        // A full horizontal X chain is undetected but logically fatal in the Z sector.
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::Z),
            LogicalState::LogicalError
        );
        // The X sector sees nothing wrong with it.
        assert_eq!(
            classify_residual(&lat, &error, &correction, Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn both_sectors_reported_independently() {
        let lat = lattice();
        let q = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Y);
        let z_fix = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let (x_state, z_state) = classify_both_sectors(&lat, &error, &z_fix);
        assert_eq!(x_state, LogicalState::Success);
        assert_eq!(z_state, LogicalState::InvalidCorrection);
    }

    #[test]
    fn tally_counts_each_round_once_by_worst_state() {
        let mut tally = ResidualTally::new();
        tally.record_states(LogicalState::Success, LogicalState::Success);
        tally.record_states(LogicalState::LogicalError, LogicalState::Success);
        // Invalid in one sector dominates a logical error in the other.
        tally.record_states(LogicalState::LogicalError, LogicalState::InvalidCorrection);
        assert_eq!(tally.rounds, 3);
        assert_eq!(tally.successes, 1);
        assert_eq!(tally.logical_errors, 1);
        assert_eq!(tally.invalid_corrections, 1);
        assert_eq!(tally.failures(), 2);
        assert!((tally.failure_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((tally.logical_error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tally_records_classified_residuals() {
        let lat = lattice();
        let q = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let identity = PauliString::identity(lat.num_data());
        let mut tally = ResidualTally::new();
        let (x, z) = tally.record(&lat, &error, &error.clone());
        assert_eq!((x, z), (LogicalState::Success, LogicalState::Success));
        // Shedding the round (identity correction) leaves the syndrome set.
        let (x, _) = tally.record(&lat, &error, &identity);
        assert_eq!(x, LogicalState::InvalidCorrection);
        assert_eq!(tally.rounds, 2);
        assert_eq!(tally.failures(), 1);
    }

    #[test]
    fn empty_and_absorbed_tallies() {
        let empty = ResidualTally::new();
        assert_eq!(empty.failure_rate(), 0.0);
        assert_eq!(empty.logical_error_rate(), 0.0);
        let mut a = ResidualTally {
            rounds: 3,
            successes: 2,
            logical_errors: 1,
            invalid_corrections: 0,
        };
        let b = ResidualTally {
            rounds: 2,
            successes: 0,
            logical_errors: 0,
            invalid_corrections: 2,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.failures(), 3);
    }

    #[test]
    fn streaming_classification_matches_the_allocating_path() {
        // Sweep a deterministic family of (error, correction) pairs through
        // both the allocating classifier and the scratch-buffer one; they
        // must agree state-for-state in both sectors.
        let lat = lattice();
        let n = lat.num_data();
        let mut scratch = PauliString::identity(n);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..200 {
            let mut error = PauliString::identity(n);
            let mut correction = PauliString::identity(n);
            for _ in 0..4 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let q = (state >> 33) as usize % n;
                let p = Pauli::ERRORS[(state >> 20) as usize % 3];
                error.apply(q, p);
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let q = (state >> 33) as usize % n;
                let p = Pauli::ERRORS[(state >> 20) as usize % 3];
                correction.apply(q, p);
            }
            let expected = classify_both_sectors(&lat, &error, &correction);
            let streamed = classify_both_sectors_into(&lat, &error, &correction, &mut scratch);
            assert_eq!(streamed, expected);
            let shed_expected = classify_both_sectors(&lat, &error, &PauliString::identity(n));
            assert_eq!(classify_shed_round(&lat, &error), shed_expected);
        }
    }

    #[test]
    fn operator_classification_detects_each_state() {
        let lat = lattice();
        let q = lat.cell(Coord::new(2, 2)).index;
        let detectable = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        assert_eq!(
            classify_residual_operator(&lat, &detectable, Sector::X),
            LogicalState::InvalidCorrection
        );
        let col: Vec<usize> = (0..lat.size())
            .step_by(2)
            .map(|r| lat.cell(Coord::new(r, 4)).index)
            .collect();
        let logical = PauliString::from_sparse(lat.num_data(), &col, Pauli::Z);
        assert_eq!(
            classify_residual_operator(&lat, &logical, Sector::X),
            LogicalState::LogicalError
        );
        let identity = PauliString::identity(lat.num_data());
        assert_eq!(
            classify_residual_operator(&lat, &identity, Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn failure_predicate() {
        assert!(!LogicalState::Success.is_failure());
        assert!(LogicalState::LogicalError.is_failure());
        assert!(LogicalState::InvalidCorrection.is_failure());
        assert_eq!(LogicalState::LogicalError.to_string(), "logical error");
    }
}
