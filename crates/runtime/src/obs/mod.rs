//! The observability plane: bounded latency books and the event journal.
//!
//! Two bounded-memory pieces ride beside the pipeline (the flow counters
//! live with their owners: [`RuntimeCounters`](crate::telemetry::RuntimeCounters)
//! and the stages' own books, read into
//! [`StageReport`](crate::stage::StageReport)s at end of run; the one time
//! series of a run is the source's depth timeline,
//! [`RuntimeReport::depth_timeline`](crate::telemetry::RuntimeReport::depth_timeline)):
//!
//! * [`LocalHistogram`] — HDR-style log-bucketed latency histograms
//!   (decode and emit-to-commit), replacing unbounded per-round sample
//!   vectors.  Fixed 128 buckets, mergeable across workers, quantiles exact
//!   to within one bucket width.  Every worker keeps exact per-lattice books
//!   in these plain-integer histograms; the engine merges their
//!   [`HistogramSnapshot`]s at end of run.  [`LogHistogram`] is the same
//!   layout over atomics, for a recorder shared between threads.
//! * [`EventJournal`] — a bounded ring of structured [`RuntimeEvent`]s
//!   (shed, stall, budget exhaustion, crash, ...) with severity and
//!   per-lattice/worker attribution.
//!
//! Both are allocation-free after construction on the paths the pipeline
//! hits per round (histogram record, journal publish) —
//! `tests/allocation_free.rs` enforces it.

pub mod hist;
pub mod journal;

pub use hist::{
    bucket_bounds, bucket_index, HistogramSnapshot, LocalHistogram, LogHistogram, BUCKETS,
};
pub use journal::{
    EventCounts, EventJournal, EventKind, EventSeverity, JournalSnapshot, RuntimeEvent,
};
