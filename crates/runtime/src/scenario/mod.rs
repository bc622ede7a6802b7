//! The scenario plane: golden syndrome traces and the summaries they pin.
//!
//! A *scenario* is everything that makes a run's workload hostile beyond
//! stationary noise.  Its recorded form lives here ([`trace`]): a versioned
//! [`SyndromeTrace`] is a machine's whole stream — every round's syndrome
//! *and* seeded error payload, drained offline from its
//! [`InterleavedSource`](crate::source::InterleavedSource) by
//! [`SyndromeTrace::drain`] — plus, for a golden trace, the
//! [`GoldenSummary`] of a live run ([`golden_summary`]).  A machine's stream
//! is a pure function of its configuration, and the live source is the
//! pipeline's only feed, so a committed golden trace pins both halves of a
//! run: the stream the machine serves, and what the pipeline makes of it.
//!
//! Time-varying noise *physics* lives next door: a lattice's noise is
//! piecewise constant, its base channel changed by re-tunes
//! ([`LatticeSpec::with_retune`](crate::lattice_set::LatticeSpec::with_retune))
//! keyed on the lattice's own rounds — a burst of noise is two of them, to
//! the hot channel and back.  They make one noise schedule per lattice,
//! inside its [`SyndromeSource`](crate::source::SyndromeSource): each
//! boundary the stream crosses is journaled as one `noise_change`, and the
//! schedule surfaces per lattice as
//! [`NoiseEpoch`](crate::source::NoiseEpoch)s in the final report.

pub mod trace;

pub use trace::{GoldenSummary, SyndromeTrace, TraceLattice, TraceRound, TRACE_VERSION};

use crate::engine::RuntimeOutcome;
/// Pins a finished run's deterministic outcome as a [`GoldenSummary`]: the
/// quantities a golden-trace regression test compares exactly.  Contended
/// counters (backpressure spins, batches, stall polls) are excluded
/// by construction — they vary run to run even on identical streams.
///
/// The per-lattice residual tally folds decoded and shed rounds together,
/// so it is meaningful only for runs with the residual analysis on
/// (all-zero otherwise).
#[must_use]
pub fn golden_summary(outcome: &RuntimeOutcome) -> GoldenSummary {
    let report = &outcome.report;
    GoldenSummary {
        decoder: report.decoder(),
        workers: report.worker_batches.len(),
        generated: report.counters.generated,
        decoded: report.counters.decoded,
        dropped: report.counters.dropped,
        shed: report.lattices.iter().map(|l| l.counters.dropped).collect(),
        frame_digests: outcome
            .frames
            .iter()
            .map(|frame| trace::digest_pauli(&frame.merged()))
            .collect(),
        residuals: report
            .lattices
            .iter()
            .map(|l| l.residual.map(|r| r.total()).unwrap_or_default())
            .collect(),
    }
}
