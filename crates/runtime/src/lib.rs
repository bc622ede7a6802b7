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
//!   distances, each with its own seeded stream and cadence — and its own
//!   QoS contract: a per-lattice push policy (Block/Drop), an outstanding
//!   queue budget, a shed-rate SLO, and optionally its own decoder factory
//!   ([`LatticeDecoder`], e.g. lookup for d=3 patches beside union-find for
//!   d=7),
//! * [`source`] — the seeded endless syndrome stream, one per lattice,
//!   interleaved on independent cadences by [`InterleavedSource`] (same
//!   seed, same stream, which is what makes stream-versus-batch equivalence
//!   testable),
//! * [`packet`] — bit-packed [`SyndromePacket`]s and their fixed-size
//!   `u64`-word wire codec; the header carries a format version and the
//!   `lattice_id` + ancilla count, so mis-routed or mis-sized records are
//!   rejected instead of silently misdecoding,
//! * [`queue`] — the bounded lock-free ring buffer (pure
//!   `std::sync::atomic`, no external deps), which is also each channel's
//!   flow control; the engine gives each worker its own ring and lets idle
//!   workers steal from busy ones,
//! * [`stage`] — the pipeline stages the engine is wired from: bounded
//!   channels over the ring, the QoS admission gate, the
//!   own-then-steal batch mux, the prepared-decoder decode stage and its
//!   supervised worker loop, frame and depth sinks, and the source stage —
//!   every stage reporting its flow through a uniform [`StageReport`],
//! * [`config`] — the [`RuntimeConfig`] / [`MachineConfig`] run
//!   configuration (re-exported through [`engine`] for compatibility),
//! * [`engine`] — the [`StreamingEngine`], which wires the stages into the
//!   one running, backpressured shape — `source → gate → channel[w] → steal
//!   → decode → frame`: one paced source thread
//!   spreading every lattice's rounds across the channels, and a
//!   work-stealing pool of decoder workers built from a
//!   [`DecoderFactory`](nisqplus_decoders::DecoderFactory), each keeping one
//!   prepared decoder per code distance and decoding up to
//!   [`RuntimeConfig::batch_size`] consecutive rounds per batch through the
//!   prepared, allocation-free
//!   [`Decoder::decode_into`](nisqplus_decoders::Decoder::decode_into) path,
//! * [`frame`] — the sharded Pauli frames (one per lattice) the workers
//!   commit corrections to,
//! * [`fault`] — deterministic fault injection and self-healing: a seeded
//!   [`FaultPlan`] schedules worker crashes (caught and answered by a
//!   supervisor restart that re-prepares decoders over the same frame
//!   shard), on-the-wire packet corruption (quarantined, never panicking
//!   the pool) and channel stalls (bounded by a backpressure watchdog), all
//!   reconciled — with the burst episodes lattices carry in their specs —
//!   in the report's [`FaultReport`],
//! * [`throttle`] — a wrapper making any decoder deliberately slow (for all
//!   lattices or one code distance), so the backlog blow-up can be provoked
//!   on demand,
//! * [`obs`] — the live observability plane: bounded-memory log-bucketed
//!   latency histograms ([`LogHistogram`]), a fixed-capacity structured
//!   [`EventJournal`] (sheds, stalls, budget exhaustion, steals, verdict
//!   flips), and a snapshot sampler taking periodic [`MetricsSnapshot`]s,
//! * [`report`] — schema-versioned, dependency-free JSON export of the
//!   final report,
//! * [`scenario`] — the scenario plane: versioned replayable
//!   [`SyndromeTrace`]s (record a live run's full stream, replay it
//!   byte-identically through the same pipeline) and scripted elastic
//!   machines ([`ScenarioScript`]: lattices added, retired, or re-tuned at
//!   scripted rounds, flowing through the packet header's compat guard),
//! * [`telemetry`] — live atomic counters and the final [`RuntimeReport`]:
//!   queue-depth timeline, latency histograms, throughput, and the measured
//!   backlog growth compared against the closed-form
//!   [`BacklogModel`](nisqplus_system::backlog::BacklogModel) (the
//!   empirical counterpart of Figures 5 and 6), aggregate *and* per lattice
//!   ([`LatticeReport`]): which patch is falling behind, under which QoS
//!   contract, served by which decoder, at what shed rate (verdicted
//!   against its SLO) — and, when the run enables the residual analysis, at
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
pub mod fault;
pub mod frame;
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
pub use fault::{
    CorruptionFault, CrashFault, FaultInjections, FaultInjector, FaultPlan, FaultReport, StallFault,
};
pub use frame::ShardedPauliFrame;
pub use lattice_set::{LatticeDecoder, LatticeSet, LatticeSpec};
pub use obs::{
    EventJournal, EventKind, EventSeverity, HistogramSnapshot, JournalSnapshot, LocalHistogram,
    LogHistogram, MetricsSnapshot, ObsPlane, RuntimeEvent,
};
pub use packet::{PacketCodec, PacketError, SyndromePacket};
pub use queue::{RingFull, SpmcRing};
pub use report::{ExportError, Json, SCHEMA_VERSION};
pub use scenario::{
    golden_summary, record_run, replay_run, GoldenSummary, ScenarioAction, ScenarioError,
    ScenarioScript, SyndromeTrace, TraceRecorder, TraceSource, TRACE_VERSION,
};
pub use source::{
    BurstOverlay, ElasticEvent, ElasticEventKind, InterleavedSource, NoiseEpoch, NoiseSpec,
    SourcedRound, SyndromeSource,
};
pub use stage::{PipelineOptions, StageReport};
pub use telemetry::{
    CounterSnapshot, DepthSample, LatencyProfile, LatencyQuantiles, LatticeCounterSnapshot,
    LatticeCounters, LatticeReport, ResidualReport, RuntimeCounters, RuntimeReport,
    WorkerCounterSnapshot,
};
pub use throttle::ThrottledDecoder;
