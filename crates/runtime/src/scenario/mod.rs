//! The scenario plane: replayable syndrome traces, scripted elasticity.
//!
//! A *scenario* is everything that makes a run's workload hostile or dynamic
//! beyond a fixed lattice set under stationary noise:
//!
//! * **Recorded traces** ([`trace`]) — a [`TraceRecorder`] taps every round
//!   the source emits (syndrome *and* seeded error payload) into a versioned
//!   [`SyndromeTrace`]; a [`TraceSource`] re-serves a recorded stream
//!   deterministically through the same pipeline, interchangeable with the
//!   live [`InterleavedSource`](crate::source::InterleavedSource).  Recorded
//!   traces are the repo's scenario regression corpus: replaying one must
//!   reproduce per-lattice frames and corrections byte for byte.
//! * **Scripted elasticity** ([`script`]) — [`ScenarioScript`] actions
//!   (`AddLattice`, `RetireLattice`, `SetErrorRate`) fire on the
//!   machine-global round counter, so lattices come online, retire (draining
//!   to a final frame) and re-calibrate mid-run, all through the versioned
//!   packet header's compat guard.
//!
//! Time-varying noise *physics* lives next door: drifting rate schedules in
//! [`nisqplus_qec::DriftingErrorModel`] and burst episodes
//! ([`nisqplus_qec::BurstEvent`] /
//! [`BurstOverlay`](crate::source::BurstOverlay)) attach to a lattice via
//! [`LatticeSpec::with_burst`](crate::lattice_set::LatticeSpec::with_burst)
//! and surface per lattice as
//! [`NoiseEpoch`](crate::source::NoiseEpoch)s in the final report.
//!
//! [`record_run`] and [`replay_run`] are the two entry points tests and
//! examples use: record a live run's stream, then replay it and assert the
//! outcomes agree.

pub mod script;
pub mod trace;

pub use script::{ScenarioAction, ScenarioError, ScenarioScript};
pub use trace::{
    GoldenSummary, SyndromeTrace, TraceLattice, TraceRecorder, TraceRound, TraceSource,
    TRACE_VERSION,
};

use crate::engine::{RuntimeOutcome, StreamingEngine};
use crate::stage::PipelineOptions;
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::logical::ResidualTally;

/// Pins a finished run's deterministic outcome as a [`GoldenSummary`]: the
/// quantities a golden-trace regression test compares exactly.  Contended
/// counters (backpressure spins, steals, batches, stall polls) are excluded
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
        workers: report.workers,
        generated: report.counters.generated,
        decoded: report.counters.decoded,
        dropped: report.counters.dropped,
        quarantined: report.counters.quarantined,
        shed: report.lattices.iter().map(|l| l.counters.dropped).collect(),
        frame_digests: outcome
            .frames
            .iter()
            .map(|frame| trace::digest_pauli(&frame.merged()))
            .collect(),
        residuals: report
            .lattices
            .iter()
            .map(|l| match &l.residual {
                Some(residual) => {
                    let mut total = residual.decoded;
                    total.absorb(&residual.shed);
                    total
                }
                None => ResidualTally::default(),
            })
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
    engine.run_with(options, factory)
}

/// Replays a recorded trace through `engine`'s pipeline: the trace's rounds
/// are re-served verbatim instead of sampling the seeded sources.  The
/// engine's machine must match the trace's lattice shapes
/// ([`SyndromeTrace::check_against`]).
///
/// # Panics
///
/// Panics if the trace does not match the engine's machine.
#[must_use]
pub fn replay_run(
    engine: &StreamingEngine,
    trace: &SyndromeTrace,
    factory: &dyn DecoderFactory,
) -> RuntimeOutcome {
    let options = PipelineOptions {
        replay: Some(trace.clone()),
        ..PipelineOptions::default()
    };
    engine.run_with(options, factory)
}
