//! Baseline surface-code decoders for the NISQ+ reproduction.
//!
//! The paper positions its SFQ mesh decoder against the classical software
//! decoding landscape (Section IV): minimum-weight perfect matching, the
//! union-find decoder, lookup tables and neural networks.  This crate
//! implements the software baselines that can be run for real inside the
//! Monte-Carlo harness:
//!
//! * [`matching::GreedyMatchingDecoder`] — the sorted-edge greedy
//!   2-approximation of maximum-likelihood matching that the paper's hardware
//!   algorithm is modelled on (Section V-B),
//! * [`matching::ExactMatchingDecoder`] — exact minimum-weight matching
//!   (with boundary nodes) for the defect counts arising at the studied code
//!   distances; this is the "MWPM" baseline,
//! * [`union_find::UnionFindDecoder`] — the almost-linear-time union-find
//!   decoder of Delfosse and Nickerson,
//! * [`lookup::LookupDecoder`] — an exhaustive minimum-weight lookup table
//!   for small lattices (exact reference at `d = 3`).
//!
//! All decoders implement the common [`Decoder`] trait, as does the SFQ mesh
//! decoder in the `nisqplus-core` crate, so that every experiment can swap
//! decoders freely.
//!
//! # The amortized hot path
//!
//! The trait splits decoding into a one-off preparation and a steady-state
//! loop:
//!
//! * [`Decoder::prepare`] precomputes lattice-keyed state (sector graphs,
//!   flat index maps, edge templates) and sizes scratch arenas.  It is
//!   idempotent, optional (the first decode on an unseen lattice prepares
//!   lazily), and preparing for a new lattice replaces the old state.
//! * [`Decoder::decode_into`] overwrites a caller-owned
//!   [`PauliString`](nisqplus_qec::pauli::PauliString); for the prepared
//!   decoders in this crate the steady-state loop performs **zero** heap
//!   allocations (guarded by a counting global allocator in
//!   `tests/allocation_free.rs`).
//! * A decoder's output depends only on (lattice, syndrome, sector); state
//!   kept between calls (hence `&mut self`) may be scratch or a memo of that
//!   function — which is what lets the streaming runtime interleave many
//!   lattices through one prepared decoder.
//!
//! Worker pools construct per-thread instances through [`DecoderFactory`];
//! see `docs/ARCHITECTURE.md` at the repository root for the full pipeline.
//!
//! # Example
//!
//! ```rust
//! use nisqplus_decoders::{Decoder, matching::ExactMatchingDecoder};
//! use nisqplus_qec::lattice::{Lattice, Sector};
//! use nisqplus_qec::pauli::{Pauli, PauliString};
//! use nisqplus_qec::logical::{classify_residual, LogicalState};
//!
//! # fn main() -> Result<(), nisqplus_qec::QecError> {
//! let lattice = Lattice::new(5)?;
//! let error = PauliString::from_sparse(lattice.num_data(), &[7, 8], Pauli::Z);
//! let syndrome = lattice.syndrome_of(&error);
//! let mut decoder = ExactMatchingDecoder::new();
//! let correction = decoder.decode(&lattice, &syndrome, Sector::X);
//! let state = classify_residual(&lattice, &error, correction.pauli_string(), Sector::X);
//! assert_eq!(state, LogicalState::Success);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bits;
pub mod lookup;
pub mod matching;
pub mod traits;
pub mod union_find;

pub use lookup::LookupDecoder;
pub use matching::{ExactMatchingDecoder, GreedyMatchingDecoder};
pub use traits::{
    Correction, Decoder, DecoderFactory, DynDecoder, MatchPair, Matching, SharedDecoderFactory,
};
pub use union_find::UnionFindDecoder;
