//! The scenario plane: replayable syndrome traces and their golden summaries.
//!
//! A *scenario* is everything that makes a run's workload hostile beyond
//! stationary noise.  Its recorded form lives here ([`trace`]): a
//! [`TraceRecorder`] taps every round the source emits (syndrome *and*
//! seeded error payload) into a versioned [`SyndromeTrace`]; a
//! [`TraceSource`] re-serves a recorded stream deterministically through the
//! same pipeline, interchangeable with the live
//! [`InterleavedSource`](crate::source::InterleavedSource).  Recorded traces
//! are the repo's scenario regression corpus: replaying one must reproduce
//! per-lattice frames and corrections byte for byte.
//!
//! Time-varying noise *physics* lives next door: drifting rate schedules in
//! [`nisqplus_qec::DriftingErrorModel`], burst episodes
//! ([`nisqplus_qec::BurstEvent`]) and re-tunes of the base channel attach to
//! a lattice via
//! [`LatticeSpec::with_burst`](crate::lattice_set::LatticeSpec::with_burst)
//! and [`LatticeSpec::with_retune`](crate::lattice_set::LatticeSpec::with_retune),
//! all keyed on the lattice's own rounds.  They make one noise schedule per
//! lattice, inside its
//! [`SyndromeSource`](crate::source::SyndromeSource): each boundary the
//! stream crosses is journaled as one `noise_change`, and the schedule
//! surfaces per lattice as [`NoiseEpoch`](crate::source::NoiseEpoch)s in
//! the final report.
//!
//! [`record_run`] and [`replay_run`] are the two entry points tests and
//! examples use: record a live run's stream, then replay it and assert the
//! outcomes agree.

pub mod trace;

pub use trace::{
    GoldenSummary, SyndromeTrace, TraceLattice, TraceRecorder, TraceRound, TraceSource,
    TRACE_VERSION,
};

use crate::engine::{RuntimeOutcome, StreamingEngine};
use crate::report::ExportError;
use crate::stage::PipelineOptions;
use nisqplus_decoders::traits::DecoderFactory;

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
        decoder: report.decoder.clone(),
        workers: report.worker_counters.len(),
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

/// Runs `engine` live while recording every emitted round, returning the
/// outcome together with the recorded trace.
///
/// # Panics
///
/// Panics if the engine's pipeline does (invalid configuration); the
/// recording itself cannot fail.
#[must_use]
pub fn record_run(engine: &StreamingEngine, factory: &dyn DecoderFactory) -> RuntimeOutcome {
    let options = PipelineOptions {
        record_trace: true,
        ..PipelineOptions::default()
    };
    engine
        .run_with(options, factory)
        .expect("a recording run has no trace to check")
}

/// Replays a recorded trace through `engine`'s pipeline: the trace's rounds
/// are re-served verbatim instead of sampling the seeded sources.  The
/// engine's machine must match the trace's lattice shapes
/// ([`SyndromeTrace::check_against`]).
///
/// # Errors
///
/// Returns [`SyndromeTrace::check_against`]'s error, before the pipeline
/// starts, if the trace does not match the engine's machine.
pub fn replay_run(
    engine: &StreamingEngine,
    trace: &SyndromeTrace,
    factory: &dyn DecoderFactory,
) -> Result<RuntimeOutcome, ExportError> {
    let options = PipelineOptions {
        replay: Some(trace.clone()),
        ..PipelineOptions::default()
    };
    engine.run_with(options, factory)
}
