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
//!   exact per-lattice books in plain-integer [`LocalHistogram`]s and feed
//!   the shared machine-wide [`LogHistogram`] with one relaxed atomic add
//!   per round, so the sampler can read live quantiles without taxing the
//!   decode path.
//! * [`EventJournal`] — a bounded ring of structured [`RuntimeEvent`]s
//!   (shed, stall, budget exhaustion, steal, verdict flip) with severity
//!   and per-lattice/worker attribution.
//! * [`MetricsSnapshot`]s — periodic samples of all of the above, taken by
//!   a cadenced sampler thread so liveness is observable mid-run.
//!
//! The [`ObsPlane`] bundles the three and is owned by the
//! [`PipelineGraph`](crate::stage::PipelineGraph); a custom
//! [`RuntimeObserver`] can be installed through
//! [`PipelineOptions`](crate::stage::PipelineOptions) to tap events and
//! snapshots live.  Everything here is allocation-free after construction
//! on the paths the pipeline hits per round (histogram record, journal
//! publish) — `tests/allocation_free.rs` enforces it.

pub mod hist;
pub mod journal;
pub mod snapshot;

pub use hist::{
    bucket_bounds, bucket_index, HistogramSnapshot, LocalHistogram, LogHistogram, BUCKETS,
};
pub use journal::{
    EventCounts, EventJournal, EventKind, EventSeverity, JournalSnapshot, RuntimeEvent,
    RuntimeObserver,
};
pub use snapshot::MetricsSnapshot;

use crate::config::ObsConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The bundle of live observability state shared by every pipeline stage.
#[derive(Debug)]
pub struct ObsPlane {
    config: ObsConfig,
    journal: EventJournal,
    decode_hist: Arc<LogHistogram>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
    snapshots_dropped: AtomicU64,
    observer: Option<Box<dyn RuntimeObserver>>,
}

impl ObsPlane {
    /// A plane configured by `config`, with no external observer.
    #[must_use]
    pub fn new(config: ObsConfig) -> Self {
        Self::with_observer(config, None)
    }

    /// A plane with an optional external [`RuntimeObserver`] tap.
    #[must_use]
    pub fn with_observer(config: ObsConfig, observer: Option<Box<dyn RuntimeObserver>>) -> Self {
        let journal = EventJournal::new(config.journal_capacity);
        let snapshots = Mutex::new(Vec::with_capacity(config.max_snapshots.min(4096)));
        ObsPlane {
            config,
            journal,
            decode_hist: Arc::new(LogHistogram::new()),
            snapshots,
            snapshots_dropped: AtomicU64::new(0),
            observer,
        }
    }

    /// The plane's configuration.
    #[must_use]
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// The event journal.
    #[must_use]
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The machine-wide decode-latency histogram (all lattices, all
    /// workers), the sampler's source for live quantiles.  Workers clone
    /// the `Arc` at startup and feed it with single-atomic-add
    /// [`LogHistogram::record_bucket`] writes on every decode; the exact
    /// end-of-run latency profiles come from the workers' private
    /// [`LocalHistogram`] books instead.
    #[must_use]
    pub fn decode_hist(&self) -> &Arc<LogHistogram> {
        &self.decode_hist
    }

    /// Publishes an event into the journal (allocation-free) and forwards
    /// it to the installed observer, if any.
    pub fn publish(
        &self,
        kind: EventKind,
        severity: EventSeverity,
        lattice_id: Option<u32>,
        worker_id: Option<u32>,
        elapsed_ns: u64,
        value: u64,
    ) {
        let event = self
            .journal
            .publish(kind, severity, lattice_id, worker_id, elapsed_ns, value);
        if let Some(observer) = &self.observer {
            observer.on_event(&event);
        }
    }

    /// Appends a sampler-produced snapshot to the bounded snapshot log
    /// (dropping — and counting — samples past `max_snapshots`) and
    /// forwards it to the installed observer.
    pub fn push_snapshot(&self, snapshot: MetricsSnapshot) {
        if let Some(observer) = &self.observer {
            observer.on_snapshot(&snapshot);
        }
        let mut log = self.snapshots.lock().expect("snapshot log poisoned");
        if log.len() < self.config.max_snapshots {
            log.push(snapshot);
        } else {
            self.snapshots_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshots recorded so far (cheap length read).
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.lock().expect("snapshot log poisoned").len()
    }

    /// Snapshots dropped after the log filled.
    #[must_use]
    pub fn snapshots_dropped(&self) -> u64 {
        self.snapshots_dropped.load(Ordering::Relaxed)
    }

    /// Drains the snapshot log (called once, at end of run).
    #[must_use]
    pub fn take_snapshots(&self) -> Vec<MetricsSnapshot> {
        std::mem::take(&mut *self.snapshots.lock().expect("snapshot log poisoned"))
    }

    /// The journal's end-of-run snapshot, with the configured recent-event
    /// tail.
    #[must_use]
    pub fn journal_snapshot(&self) -> JournalSnapshot {
        self.journal.snapshot(self.config.journal_tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, Default)]
    struct CountingObserver {
        events: Arc<AtomicUsize>,
        snapshots: Arc<AtomicUsize>,
    }

    impl RuntimeObserver for CountingObserver {
        fn on_event(&self, _event: &RuntimeEvent) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        fn on_snapshot(&self, _snapshot: &MetricsSnapshot) {
            self.snapshots.fetch_add(1, Ordering::Relaxed);
        }
    }

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
    fn observer_sees_every_event_and_snapshot() {
        let observer = CountingObserver::default();
        let events = Arc::clone(&observer.events);
        let snapshots = Arc::clone(&observer.snapshots);
        let plane = ObsPlane::with_observer(ObsConfig::default(), Some(Box::new(observer)));
        plane.publish(EventKind::Shed, EventSeverity::Warning, Some(0), None, 5, 1);
        plane.push_snapshot(sample(0));
        assert_eq!(events.load(Ordering::Relaxed), 1);
        assert_eq!(snapshots.load(Ordering::Relaxed), 1);
        assert_eq!(plane.journal().published(), 1);
        assert_eq!(plane.snapshot_count(), 1);
    }

    #[test]
    fn snapshot_log_is_bounded_and_counts_drops() {
        let config = ObsConfig {
            max_snapshots: 2,
            ..ObsConfig::default()
        };
        let plane = ObsPlane::new(config);
        for seq in 0..5 {
            plane.push_snapshot(sample(seq));
        }
        assert_eq!(plane.snapshot_count(), 2);
        assert_eq!(plane.snapshots_dropped(), 3);
        let kept = plane.take_snapshots();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].seq, 1);
        assert_eq!(plane.snapshot_count(), 0);
    }
}
