//! Shared helpers for the binaries that regenerate the paper's tables and
//! figures, plus the soak harness.
//!
//! Each table and figure of the paper is regenerated by a dedicated binary in
//! `src/bin/`; this library holds the small amount of formatting and
//! configuration code those binaries share, and [`soak`], the machine-scale
//! invariant run.  Performance numbers come from the detached `benchmark/`
//! crate only; nothing here stores or gates one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod soak;

pub use output::{print_header, print_table, trials_from_env};
pub use soak::SoakProfile;
