//! The live observability plane.
//!
//! Everything the pipeline knows about itself while it is running lives
//! here, in three bounded-memory pieces threaded through the producer, the
//! workers, and the sinks (the flow counters themselves live with their
//! owners: [`RuntimeCounters`](crate::telemetry::RuntimeCounters) and the
//! stages' own books, read into
//! [`StageReport`](crate::stage::StageReport)s at end of run):
//!
//! * [`LogHistogram`] / [`LocalHistogram`] — HDR-style log-bucketed
//!   latency histograms (decode and emit-to-commit), replacing unbounded
//!   per-round sample vectors.  Fixed 128 buckets, mergeable across
//!   workers, quantiles exact to within one bucket width.  Workers keep
//!   exact per-lattice books in plain-integer [`LocalHistogram`]s and, when
//!   a sampler runs, feed the shared machine-wide [`LogHistogram`] with one
//!   relaxed atomic add per round for its live quantiles.
//! * [`EventJournal`] — a bounded ring of structured [`RuntimeEvent`]s
//!   (shed, stall, budget exhaustion, steal, verdict flip) with severity
//!   and per-lattice/worker attribution.
//! * [`MetricsSnapshot`]s — periodic samples of all of the above, taken by
//!   a cadenced sampler thread so liveness is observable mid-run.
//!
//! The [`ObsPlane`] bundles the three; the engine builds one per run.
//! Everything here is allocation-free after construction on the paths the
//! pipeline hits per round (histogram record, journal publish) —
//! `tests/allocation_free.rs` enforces it.

pub mod hist;
pub mod journal;
pub mod snapshot;

pub use hist::{
    bucket_bounds, bucket_index, HistogramSnapshot, LocalHistogram, LogHistogram, BUCKETS,
};
pub use journal::{
    EventCounts, EventJournal, EventKind, EventSeverity, JournalSnapshot, RuntimeEvent,
};
pub(crate) use snapshot::run_sampler;
pub use snapshot::MetricsSnapshot;

use crate::config::ObsConfig;
use std::sync::{Arc, Mutex};

/// Upper bound on snapshots kept; samples past it are dropped, never grown.
const MAX_SNAPSHOTS: usize = 1024;

/// How many of the newest resident events the end-of-run
/// [`JournalSnapshot`] carries verbatim.
const JOURNAL_TAIL: usize = 64;

/// The bundle of live observability state shared by every pipeline stage.
#[derive(Debug)]
pub struct ObsPlane {
    config: ObsConfig,
    journal: EventJournal,
    decode_hist: Arc<LogHistogram>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
}

impl ObsPlane {
    /// A plane configured by `config`.
    #[must_use]
    pub fn new(config: ObsConfig) -> Self {
        ObsPlane {
            journal: EventJournal::new(config.journal_capacity),
            config,
            decode_hist: Arc::new(LogHistogram::new()),
            snapshots: Mutex::new(Vec::new()),
        }
    }

    /// The plane's configuration.
    #[must_use]
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Whether a sampler thread runs (`snapshot_cadence_us > 0`) — and with
    /// it, whether anything reads the live decode histogram.
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.config.snapshot_cadence_us > 0
    }

    /// The event journal.
    #[must_use]
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The machine-wide decode-latency histogram (all lattices, all
    /// workers), the sampler's source for live quantiles.  When a sampler
    /// runs, workers clone the `Arc` at startup and feed it with
    /// single-atomic-add [`LogHistogram::record_bucket`] writes on every
    /// decode; the exact end-of-run latency profiles come from the workers'
    /// private [`LocalHistogram`] books instead.
    #[must_use]
    pub fn decode_hist(&self) -> &Arc<LogHistogram> {
        &self.decode_hist
    }

    /// Appends a sampler-produced snapshot to the bounded snapshot log;
    /// samples past `MAX_SNAPSHOTS` are dropped: the log keeps the first ticks.
    pub fn push_snapshot(&self, snapshot: MetricsSnapshot) {
        let mut log = self.snapshots.lock().expect("snapshot log poisoned");
        if log.len() < MAX_SNAPSHOTS {
            log.push(snapshot);
        }
    }

    /// Drains the snapshot log (called once, at end of run).
    #[must_use]
    pub fn take_snapshots(&self) -> Vec<MetricsSnapshot> {
        std::mem::take(&mut *self.snapshots.lock().expect("snapshot log poisoned"))
    }

    /// The journal's end-of-run snapshot, with the `JOURNAL_TAIL` newest
    /// events.
    #[must_use]
    pub fn journal_snapshot(&self) -> JournalSnapshot {
        self.journal.snapshot(JOURNAL_TAIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            seq,
            elapsed_ns: seq * 1000,
            counters: crate::telemetry::RuntimeCounters::new(1, 1).snapshot(),
            queue_depth: 0,
            backlog: 0,
            per_lattice_backlog: vec![0],
            decode_p50_ns: 0.0,
            decode_p99_ns: 0.0,
            decode_p999_ns: 0.0,
            events_published: 0,
            events_overwritten: 0,
        }
    }

    #[test]
    fn snapshot_log_is_bounded() {
        let plane = ObsPlane::new(ObsConfig::default());
        for seq in 0..MAX_SNAPSHOTS as u64 + 3 {
            plane.push_snapshot(sample(seq));
        }
        let kept = plane.take_snapshots();
        assert_eq!(kept.len(), MAX_SNAPSHOTS);
        assert_eq!(kept[MAX_SNAPSHOTS - 1].seq, MAX_SNAPSHOTS as u64 - 1);
        assert!(plane.take_snapshots().is_empty());
    }
}
