//! The pipeline's stages, with bounded, counted flow control at every seam.
//!
//! The paper's argument is a *pipeline* argument: syndromes must flow
//! through extraction, transport, and decode without the backlog ever
//! growing.  The streaming engine is one fixed graph of latency-insensitive
//! stages — `source → channel → decode[w] → frame` — in which every seam
//! between two stages is a valid/ready handshake over a bound with exactly
//! one book, so backpressure is a first-class, *measurable* signal instead
//! of an accident of buffer sizes:
//!
//! * [`Channel`] — the lock-free [`SpmcRing`](crate::queue::SpmcRing) plus
//!   its sender-side statistics; the ring is the one bound on what is
//!   outstanding, a full ring a counted refusal, never a lost record, and
//!   every worker pops from it,
//! * the decode stage (`decode.rs`) — the prepared-decoder hot path that
//!   turns a wire record into a composed correction ([`DecodedRound`]), and
//!   the supervised worker loop that drives it,
//! * [`FrameSink`] (frame commit + latency telemetry) and the depth sink
//!   (down-sampled backlog timelines, aggregate and per lattice),
//! * the source stage (`source.rs`) — paced generation on the calling
//!   thread under the machine's push policy, configured by
//!   [`PipelineOptions`].
//!
//! [`StreamingEngine::run_with`](crate::StreamingEngine::run_with) wires
//! them into the running pipeline: one paced source thread, one channel,
//! N decode workers popping from it, backpressure at every seam.  Only what
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
mod sink;
mod source;

pub use channel::Channel;
#[cfg(test)]
pub(crate) use decode::tests::panicking;
pub use decode::DecodedRound;
pub(crate) use decode::{run_worker, WorkerSeat};
pub use sink::FrameSink;
pub(crate) use sink::{DepthSink, WorkerOutput};
pub use source::PipelineOptions;
pub(crate) use source::{run_source, SourceSeat};

use serde::{Deserialize, Serialize};
use std::thread;

/// Turns of a busy wait between two `yield_now` calls: enough that a wait
/// costs no syscall per clock read or poll, few enough that on a host with
/// one core the other pipeline thread gets the processor within
/// microseconds.
pub(crate) const TURNS_PER_YIELD: u32 = 64;

/// One turn of a busy wait — the source's pacing wait and its Block-policy
/// wait on a full ring (sharing the run's `turns` count), a worker polling
/// an empty channel and a throttled decode spinning out its floor: a
/// `spin_loop` hint, and
/// every [`TURNS_PER_YIELD`]th turn a `yield_now` instead.  Returns whether
/// it yielded.
pub(crate) fn pause(turns: &mut u32) -> bool {
    *turns = turns.wrapping_add(1);
    let yields = *turns % TURNS_PER_YIELD == 0;
    if yields {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
    yields
}

/// One stage's uniform self-report, folded into
/// [`RuntimeReport::stages`](crate::telemetry::RuntimeReport::stages).
///
/// The fields are deliberately generic so every stage — source, channel,
/// decode, depth sink — answers the same questions: how much flowed
/// through, how much was refused, how full it got and how often it stalled.
/// A stage leaves fields it has no notion of at zero.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage's name, unique within one run's report (worker-indexed
    /// stages are suffixed, e.g. `"decode.0"`).
    pub stage: String,
    /// Items the stage accepted from upstream.
    pub accepted: u64,
    /// Items the stage handed downstream.
    pub emitted: u64,
    /// Items the stage refused (a full channel's rejected send, a source's
    /// shed round).  Refusals under a blocking policy are retried and show
    /// up as [`StageReport::stall_cycles`] instead.
    pub rejected: u64,
    /// The most items ever resident in the stage at once.
    pub occupancy_peak: u64,
    /// Spin/poll iterations spent blocked on a not-ready neighbour: a
    /// source waiting on a full ring, a worker polling an empty channel.  A
    /// channel's is always 0: an accepted send never waits, and a refused
    /// one is `rejected`.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Over k·`TURNS_PER_YIELD` turns a wait yields exactly k times, at
    /// every multiple of `TURNS_PER_YIELD` and on no other turn.
    #[test]
    fn a_busy_wait_yields_every_64th_turn_and_on_no_other() {
        assert_eq!(TURNS_PER_YIELD, 64);
        for k in 1..=4 {
            let mut turns = 0u32;
            let yielded: Vec<u32> = (1..=k * TURNS_PER_YIELD)
                .filter(|_| pause(&mut turns))
                .collect();
            let expected: Vec<u32> = (1..=k).map(|i| i * TURNS_PER_YIELD).collect();
            assert_eq!(yielded, expected, "k = {k}");
        }
    }
}
