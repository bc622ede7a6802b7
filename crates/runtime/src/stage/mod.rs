//! The pipeline's stages, with bounded, counted flow control at every seam.
//!
//! The paper's argument is a *pipeline* argument: syndromes must flow
//! through extraction, transport, and decode without the backlog ever
//! growing.  The streaming engine is one fixed graph of latency-insensitive
//! stages — `source → gate → channel[w] → steal → decode → frame` — in which
//! every seam between two stages is a valid/ready handshake over a bound
//! with exactly one book, so backpressure is a first-class, *measurable*
//! signal instead of an accident of buffer sizes:
//!
//! * [`Channel`] — the lock-free [`SpmcRing`](crate::queue::SpmcRing) plus
//!   its sender-side statistics; the ring is the capacity bound, a full ring
//!   a counted refusal, never a lost record,
//! * [`StealMux`] — the arbiter that decides which channel feeds a worker
//!   next: its own, then a busy neighbour's,
//! * [`QosGate`] — per-lattice admission control (push policy +
//!   outstanding-round budget, read off the lattice's own
//!   `enqueued − decoded` counters),
//! * the decode stage (`decode.rs`) — the prepared-decoder hot path that
//!   turns a wire record into a composed correction ([`DecodedRound`]), and
//!   the supervised worker loop that drives it,
//! * [`FrameSink`] (frame commit + latency telemetry) and the depth sink
//!   (down-sampled backlog timelines, aggregate and per lattice),
//! * the source stage (`source.rs`) — paced generation, admission and
//!   placement on the calling thread, configured by [`PipelineOptions`].
//!
//! [`StreamingEngine::run_with`](crate::StreamingEngine::run_with) wires
//! them into the running pipeline: one paced source thread, N decode
//! workers, one channel per worker, backpressure at every seam.  Only what
//! code outside the crate names is `pub`; the rest of the kit is
//! crate-private, so the compiler's `dead_code` lint audits it.
//!
//! Every stage answers for itself through a uniform [`StageReport`]
//! (flow, refusals, occupancy, stall cycles), and the engine folds
//! all of them into
//! [`RuntimeReport::stages`](crate::telemetry::RuntimeReport::stages) — the
//! flow-control behaviour the paper assumes of hardware, measured per seam
//! in software.  `docs/ARCHITECTURE.md` draws the graph and states the
//! contract every stage keeps.

mod channel;
mod decode;
mod gate;
mod mux;
mod sink;
mod source;

pub use channel::Channel;
pub use decode::DecodedRound;
pub(crate) use decode::{run_worker, WorkerSeat};
pub use gate::{Admission, QosGate};
pub use mux::{FillResult, StealMux};
pub use sink::FrameSink;
pub(crate) use sink::{DepthSink, WorkerOutput};
pub use source::PipelineOptions;
pub(crate) use source::{run_source, SourceSeat};

use serde::{Deserialize, Serialize};

/// How much of a bound (a channel's capacity, a lane's budget) must come free
/// before a refused `Block` lane offers again: an eighth, at least one.
pub(crate) fn resume_stride(bound: u64) -> u64 {
    (bound / 8).max(1)
}

/// One stage's uniform self-report, folded into
/// [`RuntimeReport::stages`](crate::telemetry::RuntimeReport::stages).
///
/// The fields are deliberately generic so every stage — source, gate,
/// channel, decode, depth sink — answers the same questions: how much flowed
/// through, how much was refused, how full it got and how often it stalled.
/// A stage leaves fields it has no notion of at zero.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage's name, unique within one run's report (worker- or
    /// channel-indexed stages are suffixed, e.g. `"channel.2"`,
    /// `"decode.0"`).
    pub stage: String,
    /// Items the stage accepted from upstream.
    pub accepted: u64,
    /// Items the stage handed downstream.
    pub emitted: u64,
    /// Items the stage refused (a full channel's rejected send, a gate's
    /// shed round).  Refusals under a blocking policy are retried and show
    /// up as [`StageReport::stall_cycles`] instead.
    pub rejected: u64,
    /// The most items ever resident in the stage at once.
    pub occupancy_peak: u64,
    /// Spin/poll iterations spent blocked on a not-ready neighbour: a
    /// source pacing to its cadence, a gate waiting for budget, a worker
    /// polling empty channels.  A channel's is always 0: an accepted send
    /// never waits, and a refused one is `rejected`.
    pub stall_cycles: u64,
}

impl StageReport {
    /// A report with the given name and every counter at zero.
    #[must_use]
    pub fn named(stage: impl Into<String>) -> Self {
        StageReport {
            stage: stage.into(),
            ..StageReport::default()
        }
    }
}
