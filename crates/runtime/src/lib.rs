//! Real-time streaming decode engine for the NISQ+ reproduction.
//!
//! The paper's core argument (Section III) is a *runtime* one: a decoder
//! slower than the ~400 ns syndrome-generation period accumulates an
//! exponentially growing backlog.  The rest of the workspace models that
//! analytically (`nisqplus-system::backlog`) and measures decoders in
//! isolated offline loops; this crate closes the loop by actually *serving*
//! a syndrome stream at a configurable hardware cadence and measuring the
//! backlog empirically:
//!
//! * [`lattice_set`] — the registry of lattices (logical qubits) one engine
//!   serves: a full NISQ+ machine is many patches of possibly different
//!   distances, each with its own seeded stream and cadence, and
//!   optionally its own decoder factory ([`LatticeDecoder`], e.g. lookup
//!   for d=3 patches beside union-find for d=7),
//! * [`source`] — the seeded endless syndrome stream, one per lattice,
//!   interleaved on independent cadences by [`InterleavedSource`], the
//!   pipeline's only feed (same seed, same stream, which is what makes
//!   stream-versus-batch equivalence testable),
//! * [`packet`] — bit-packed [`SyndromePacket`]s and the fixed-size
//!   `u64`-word records the ring carries; the header holds the
//!   `lattice_id` + ancilla count, so a record encoded against another
//!   lattice set is rejected instead of silently misdecoding,
//! * [`queue`] — the bounded lock-free ring buffer (pure
//!   `std::sync::atomic`, no external deps), one sender and any number of
//!   receivers, which is also the channel's flow control: a run has one
//!   ring, and every worker pops from it,
//! * [`stage`] — the pipeline stages the engine is wired from: the bounded
//!   channel over the ring, the prepared-decoder decode stage and its
//!   supervised worker loop, frame and depth sinks, and the source stage —
//!   every stage reporting its flow through a uniform [`StageReport`].
//!   A worker crashes only when its decoder panics: the supervisor books
//!   the one round the panic struck as shed and restarts the worker over
//!   the same frame shard, and a `Block` send that a dead consumer never
//!   takes is force-shed by the source's backpressure watchdog,
//! * [`config`] — the [`RuntimeConfig`] / [`MachineConfig`] run
//!   configuration (re-exported through [`engine`] for compatibility),
//! * [`engine`] — the [`StreamingEngine`], which wires the stages into the
//!   one running, backpressured shape — `source → channel → decode[w] →
//!   frame`: one paced source thread sending every lattice's rounds into
//!   the one channel under the machine's one [`PushPolicy`] (the ring is
//!   the only bound on what is outstanding), and a pool of decoder workers built from a
//!   [`DecoderFactory`](nisqplus_decoders::DecoderFactory), each keeping one
//!   prepared decoder per code distance and decoding up to
//!   [`RuntimeConfig::batch_size`] consecutive rounds per batch through the
//!   prepared, allocation-free
//!   [`Decoder::decode_into`](nisqplus_decoders::Decoder::decode_into) path,
//! * [`frame`] — the sharded Pauli frames (one per lattice) the workers
//!   commit corrections to,
//! * [`throttle`] — a wrapper making any decoder deliberately slow (for all
//!   lattices or one code distance), so the backlog blow-up can be provoked
//!   on demand,
//! * [`obs`] — the observability plane: the workers' bounded-memory
//!   log-bucketed latency books ([`LocalHistogram`]) and a fixed-capacity
//!   structured [`EventJournal`] (sheds, stalls, crashes),
//! * [`report`] — schema-versioned, dependency-free JSON export of the
//!   final report,
//! * [`scenario`] — the scenario plane: versioned [`SyndromeTrace`]s (a
//!   machine's full stream, drained offline from its [`InterleavedSource`])
//!   and the golden summaries of live runs they pin; a lattice's
//!   time-varying noise (re-tunes keyed on its own rounds, a burst as two of
//!   them) is part of its [`LatticeSpec`],
//! * [`telemetry`] — live atomic counters and the final [`RuntimeReport`]:
//!   the run's one time series (the source's queue-depth and backlog
//!   timeline), latency histograms, throughput, and the measured
//!   backlog growth compared against the closed-form
//!   [`BacklogModel`](nisqplus_system::backlog::BacklogModel) (the
//!   empirical counterpart of Figures 5 and 6), aggregate *and* per lattice
//!   ([`LatticeReport`]): which patch is falling behind, served by which
//!   decoder, how much of it was shed — and, when the run enables the residual analysis, at
//!   what *measured* logical cost ([`ResidualReport`]): shed rounds enter
//!   the per-lattice frame as identity corrections, every round's seeded
//!   error rides the wire, and its residual is classified as the round
//!   commits (or is shed), so the price of load shedding versus
//!   backpressure is a measurement, not an assumption.
//!
//! `docs/OPERATIONS.md` at the repository root is the operator's guide to
//! every field of the report.
//!
//! # Example
//!
//! ```rust
//! use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
//! use nisqplus_runtime::{PushPolicy, RuntimeConfig, StreamingEngine};
//!
//! # fn main() -> Result<(), nisqplus_qec::QecError> {
//! let mut config = RuntimeConfig::new(3);
//! config.rounds = 100;
//! config.workers = 2;
//! config.cadence_cycles = 0; // un-paced smoke run
//! config.push_policy = PushPolicy::Block;
//! let engine = StreamingEngine::new(config)?;
//! let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
//! assert_eq!(outcome.report.counters.decoded, 100);
//! assert_eq!(outcome.report.counters.dropped, 0);
//! assert_eq!(outcome.frame().total_recorded(), 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod frame;
mod invariants;
pub mod lattice_set;
pub mod obs;
pub mod packet;
pub mod queue;
pub mod report;
pub mod scenario;
pub mod source;
pub mod stage;
pub mod telemetry;
pub mod throttle;

pub use config::ObsConfig;
pub use engine::{
    MachineConfig, PushPolicy, RoundCorrection, RuntimeConfig, RuntimeOutcome, StreamingEngine,
};
pub use frame::ShardedPauliFrame;
pub use invariants::{Violation, Violations};
pub use lattice_set::{LatticeDecoder, LatticeSet, LatticeSpec};
pub use obs::{
    EventJournal, EventKind, EventSeverity, HistogramSnapshot, JournalSnapshot, LocalHistogram,
    LogHistogram, RuntimeEvent,
};
pub use packet::{PacketCodec, PacketError, SyndromePacket};
pub use queue::{RingFull, SpmcRing};
pub use report::{ExportError, Json, SCHEMA_VERSION};
pub use scenario::{golden_summary, GoldenSummary, SyndromeTrace, TRACE_VERSION};
pub use source::{InterleavedSource, NoiseEpoch, NoiseSpec, SourcedRound, SyndromeSource};
pub use stage::StageReport;
pub use telemetry::{
    CounterSnapshot, DepthSample, LatencyProfile, LatencyQuantiles, LatticeCounterSnapshot,
    LatticeCounters, LatticeReport, ResidualReport, RuntimeCounters, RuntimeReport,
};
pub use throttle::ThrottledDecoder;
