//! The NISQ+ approximate SFQ mesh decoder ("AQEC").
//!
//! This crate implements the paper's primary contribution: an online,
//! approximate surface-code decoder realised as a two-dimensional mesh of
//! identical Single-Flux-Quantum modules, one module per physical qubit, that
//! decodes error syndromes at the speed they are generated (Sections V and
//! VI of the paper).
//!
//! The decoder works by local signalling between neighbouring modules:
//!
//! 1. every *hot-syndrome* module continuously emits **grow** pulses in all
//!    four directions; pulses travel in straight lines, one module per clock,
//! 2. a module reached by grow pulses from two different directions is an
//!    *intermediate* module and starts the pairing of the two closest hot
//!    modules,
//! 3. in the full design a **pair-request / pair-grant** handshake resolves
//!    equidistant ties, after which **pair** pulses trace out the correction
//!    chain back to the two hot modules,
//! 4. when a pair pulse reaches a hot module the pairing completes, a global
//!    **reset** quiets the mesh (for five cycles — the module pipeline depth)
//!    and the search restarts for the remaining hot syndromes,
//! 5. modules on lattice boundaries are *boundary modules* that can absorb a
//!    chain, letting defects match to the edge of the code.
//!
//! The crate exposes:
//!
//! * [`config`] — the incremental design variants of Figure 10 (baseline,
//!   +reset, +boundary, +equidistant handshake),
//! * [`algorithm`] — the greedy mesh algorithm above, whose cycle counts are
//!   the closed-form timings of Section V-C,
//! * [`decoder`] — [`SfqMeshDecoder`], the [`nisqplus_decoders::Decoder`]
//!   implementation with per-decode cycle statistics,
//! * [`hardware`] — the module micro-architecture of Figure 9 expressed as
//!   ERSFQ netlists, its synthesis (Table III) and mesh-level area/power
//!   scaling (Section VIII).
//!
//! # Example
//!
//! ```rust
//! use nisqplus_core::{DecoderVariant, SfqMeshDecoder};
//! use nisqplus_decoders::Decoder;
//! use nisqplus_qec::lattice::{Lattice, Sector};
//! use nisqplus_qec::logical::{classify_residual, LogicalState};
//! use nisqplus_qec::pauli::{Pauli, PauliString};
//!
//! # fn main() -> Result<(), nisqplus_qec::QecError> {
//! let lattice = Lattice::new(5)?;
//! let error = PauliString::from_sparse(lattice.num_data(), &[12], Pauli::Z);
//! let syndrome = lattice.syndrome_of(&error);
//! let mut decoder = SfqMeshDecoder::new(DecoderVariant::Final);
//! let correction = decoder.decode(&lattice, &syndrome, Sector::X);
//! assert_eq!(
//!     classify_residual(&lattice, &error, correction.pauli_string(), Sector::X),
//!     LogicalState::Success
//! );
//! assert!(decoder.last_stats().unwrap().cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod config;
pub mod decoder;
pub mod hardware;

pub use algorithm::{GreedyMeshAlgorithm, MeshDecodeResult, MeshPairing};
pub use config::{DecoderVariant, MeshConfig};
pub use decoder::{DecodeStats, SfqMeshDecoder};
pub use hardware::{DecoderModuleHardware, ModuleSubcircuit};

/// Whole-decoder scenarios of Section V-C — pairing, boundaries, reset and
/// timing — decoded through [`GreedyMeshAlgorithm`].
#[cfg(test)]
mod mesh {
    mod tests;
}
