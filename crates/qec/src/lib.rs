//! Surface-code substrate for the NISQ+ reproduction.
//!
//! This crate implements everything the approximate decoder needs from the
//! quantum error-correction side of the system described in
//! *NISQ+: Boosting quantum computing power by approximating quantum error
//! correction* (Holmes et al., ISCA 2020):
//!
//! * [`pauli`] — single-qubit Pauli operators and Pauli strings,
//! * [`lattice`] — the planar surface-code lattice of data and ancilla qubits
//!   (Figure 2 of the paper),
//! * [`stabilizer`] — the X/Z stabilizer measurement circuits (Figure 3) and
//!   syndrome extraction,
//! * [`error_model`] — stochastic error channels (depolarizing, pure
//!   dephasing) used by the Monte-Carlo lifetime simulations,
//! * [`syndrome`] — the syndrome bit-string, packed in `u64` words,
//! * [`logical`] — logical operators and logical-error detection,
//! * [`frame`] — Pauli-frame tracking of corrections.
//!
//! # Example
//!
//! ```rust
//! use nisqplus_qec::lattice::Lattice;
//! use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! # fn main() -> Result<(), nisqplus_qec::QecError> {
//! let lattice = Lattice::new(3)?;
//! let model = PureDephasing::new(0.05)?;
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let error = model.sample(&lattice, &mut rng);
//! let syndrome = lattice.syndrome_of(&error);
//! assert_eq!(syndrome.len(), lattice.num_ancillas());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod error_model;
pub mod frame;
pub mod lattice;
pub mod logical;
pub mod pauli;
pub mod stabilizer;
pub mod syndrome;

pub use error::QecError;
pub use error_model::{
    BiasedChannel, BurstEvent, Depolarizing, DriftKind, DriftingErrorModel, ErrorModel,
    PureDephasing,
};
pub use frame::PauliFrame;
pub use lattice::{Coord, Lattice, QubitKind, Sector};
pub use logical::{LogicalState, ResidualTally};
pub use pauli::{Pauli, PauliString};
pub use syndrome::Syndrome;
