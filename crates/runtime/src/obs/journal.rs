//! The event journal: a bounded ring of structured runtime events.
//!
//! Counters say *how much*; the journal says *what happened, when, to
//! whom*.  Every noteworthy pipeline incident — a shed round, a
//! backpressure stall, an exhausted QoS budget, a cross-channel steal, a
//! per-lattice verdict flip, a worker crash and its restart, a quarantined
//! record, a burst-noise episode, a watchdog trip, a scripted lattice
//! coming online or retiring — is published as a
//! [`RuntimeEvent`] with a severity and per-lattice/per-worker attribution.  The journal is a
//! fixed-capacity ring: old events are overwritten (and counted as
//! overwritten), publish never allocates, and per-kind/per-severity totals
//! survive even when the events themselves have been rotated out.
//!
//! Publishing takes a short mutex critical section (a slot copy and a few
//! counter bumps).  Events are rare relative to rounds — a healthy run
//! publishes almost nothing — so the lock is uncontended exactly when the
//! pipeline is busiest.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How bad a [`RuntimeEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventSeverity {
    /// Expected under load; useful for trend-watching (stalls, steals).
    Info,
    /// Service degraded by policy (shed rounds, exhausted budgets).
    Warning,
    /// The run's verdict is changing (a lattice falling behind).
    Critical,
}

impl EventSeverity {
    /// Every severity beside its label, in declaration order (so
    /// `severity as usize` indexes it).  The labels' only spelling.
    pub(crate) const LABELS: [(EventSeverity, &'static str); 3] = [
        (EventSeverity::Info, "info"),
        (EventSeverity::Warning, "warning"),
        (EventSeverity::Critical, "critical"),
    ];

    /// A stable lowercase label (used in exports and logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize].1
    }
}

impl fmt::Display for EventSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of incident a [`RuntimeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A round was discarded under the `Drop` push policy (`value` = round).
    Shed,
    /// The source stalled on a full downstream seam under the `Block`
    /// policy (`value` = spin iterations burned on the round).
    BackpressureStall,
    /// A QoS budget refused an admission (`value` = round).
    BudgetExhausted,
    /// A worker stole work from a foreign channel (`value` = records
    /// stolen in the batch).
    Steal,
    /// A lattice's live backlog verdict flipped (`value` = backlog at the
    /// flip; severity Critical when falling behind, Info on recovery).
    VerdictFlip,
    /// A worker's decode loop panicked and was caught by its supervisor
    /// (`value` = rounds the worker had committed before dying).
    WorkerCrash,
    /// A crashed worker's replacement came up: decoders re-prepared, the
    /// dead worker's frame shard adopted (`value` = restart attempt, 1-based).
    WorkerRestart,
    /// A record failed wire validation and was discarded instead of decoded
    /// (`value` = the worker's running quarantine total).
    Quarantine,
    /// A burst-noise episode began blanketing a lattice (`value` = the
    /// lattice round the episode starts at).
    BurstStart,
    /// A burst-noise episode ended (`value` = the first calm round).
    BurstEnd,
    /// The producer's stall watchdog expired on a blocked seam and degraded
    /// the round instead of hanging (`value` = round force-shed).
    WatchdogTrip,
    /// A scripted [`ScenarioScript`](crate::scenario::ScenarioScript) action
    /// brought a dormant lattice online (`value` = the machine-global round
    /// it fired at).
    LatticeAdded,
    /// A scripted action retired a lattice: its stream truncated, its
    /// packet-header watermark armed (`value` = the rounds it emitted
    /// before retiring).
    LatticeRetired,
}

/// Number of [`EventKind`] variants (sizes the per-kind counter array).
const KINDS: usize = EventKind::LABELS.len();

impl EventKind {
    /// Every kind beside its label, in declaration order (so `kind as usize`
    /// indexes it).  The labels' only spelling.
    pub(crate) const LABELS: [(EventKind, &'static str); 13] = [
        (EventKind::Shed, "shed"),
        (EventKind::BackpressureStall, "backpressure_stall"),
        (EventKind::BudgetExhausted, "budget_exhausted"),
        (EventKind::Steal, "steal"),
        (EventKind::VerdictFlip, "verdict_flip"),
        (EventKind::WorkerCrash, "worker_crash"),
        (EventKind::WorkerRestart, "worker_restart"),
        (EventKind::Quarantine, "quarantine"),
        (EventKind::BurstStart, "burst_start"),
        (EventKind::BurstEnd, "burst_end"),
        (EventKind::WatchdogTrip, "watchdog_trip"),
        (EventKind::LatticeAdded, "lattice_added"),
        (EventKind::LatticeRetired, "lattice_retired"),
    ];

    /// A stable snake_case label (used in exports and logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize].1
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One journal entry.  Plain `Copy` data: publishing moves no heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// Monotonic publish sequence number (global across kinds).
    pub seq: u64,
    /// Nanoseconds since the pipeline epoch.
    pub elapsed_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// How bad it is.
    pub severity: EventSeverity,
    /// The lattice involved, when the event is lattice-scoped.
    pub lattice_id: Option<u32>,
    /// The worker involved, when the event is worker-scoped.
    pub worker_id: Option<u32>,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub value: u64,
}

impl Default for RuntimeEvent {
    fn default() -> Self {
        RuntimeEvent {
            seq: 0,
            elapsed_ns: 0,
            kind: EventKind::Shed,
            severity: EventSeverity::Info,
            lattice_id: None,
            worker_id: None,
            value: 0,
        }
    }
}

/// Per-kind event totals (never rotated out, unlike the events themselves),
/// indexed by kind: `counts[EventKind::Shed]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts([u64; KINDS]);

impl std::ops::Index<EventKind> for EventCounts {
    type Output = u64;

    fn index(&self, kind: EventKind) -> &u64 {
        &self.0[kind as usize]
    }
}

impl std::ops::IndexMut<EventKind> for EventCounts {
    fn index_mut(&mut self, kind: EventKind) -> &mut u64 {
        &mut self.0[kind as usize]
    }
}

/// A plain-data copy of the journal's state: totals plus the most recent
/// events still resident in the ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Events published over the journal's lifetime.
    pub published: u64,
    /// Events overwritten by ring rotation (`published - overwritten`
    /// were still resident, before the `recent` tail cut).
    pub overwritten: u64,
    /// Info-severity events published.
    pub info: u64,
    /// Warning-severity events published.
    pub warning: u64,
    /// Critical-severity events published.
    pub critical: u64,
    /// Per-kind totals.
    pub counts: EventCounts,
    /// The newest resident events, oldest first (bounded by the journal
    /// tail configured at snapshot time).
    pub recent: Vec<RuntimeEvent>,
}

struct Ring {
    slots: Vec<RuntimeEvent>,
    /// Next slot to write.
    head: usize,
    /// Occupied slots (grows to capacity, then sticks).
    len: usize,
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.slots.len())
            .field("head", &self.head)
            .field("len", &self.len)
            .finish()
    }
}

/// The bounded event ring.  See the module docs.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<Ring>,
    published: AtomicU64,
    overwritten: AtomicU64,
    severity_counts: [AtomicU64; 3],
    kind_counts: [AtomicU64; KINDS],
}

impl EventJournal {
    /// A journal holding at most `capacity` resident events (clamped to at
    /// least 1).  All storage is allocated here, up front.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            ring: Mutex::new(Ring {
                slots: vec![RuntimeEvent::default(); capacity.max(1)],
                head: 0,
                len: 0,
            }),
            published: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            severity_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Resident capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring
            .lock()
            .expect("event journal poisoned")
            .slots
            .len()
    }

    /// Events published over the journal's lifetime.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events overwritten by ring rotation.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Publishes one event, assigning its sequence number.  Allocation-free:
    /// the event is copied into a preallocated ring slot (overwriting — and
    /// counting — the oldest resident event when full).  Returns the stored
    /// event.
    pub fn publish(
        &self,
        kind: EventKind,
        severity: EventSeverity,
        lattice_id: Option<u32>,
        worker_id: Option<u32>,
        elapsed_ns: u64,
        value: u64,
    ) -> RuntimeEvent {
        let seq = self.published.fetch_add(1, Ordering::Relaxed);
        self.severity_counts[severity as usize].fetch_add(1, Ordering::Relaxed);
        self.kind_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        let event = RuntimeEvent {
            seq,
            elapsed_ns,
            kind,
            severity,
            lattice_id,
            worker_id,
            value,
        };
        let mut ring = self.ring.lock().expect("event journal poisoned");
        let capacity = ring.slots.len();
        let head = ring.head;
        ring.slots[head] = event;
        ring.head = (head + 1) % capacity;
        if ring.len < capacity {
            ring.len += 1;
        } else {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        event
    }

    /// Copies totals plus the newest `tail` resident events (oldest first)
    /// into a [`JournalSnapshot`].
    #[must_use]
    pub fn snapshot(&self, tail: usize) -> JournalSnapshot {
        let ring = self.ring.lock().expect("event journal poisoned");
        let capacity = ring.slots.len();
        let take = tail.min(ring.len);
        let mut recent = Vec::with_capacity(take);
        // Oldest of the tail sits `take` slots behind the head.
        let start = (ring.head + capacity - take) % capacity;
        for i in 0..take {
            recent.push(ring.slots[(start + i) % capacity]);
        }
        JournalSnapshot {
            published: self.published.load(Ordering::Relaxed),
            overwritten: self.overwritten.load(Ordering::Relaxed),
            info: self.severity_counts[EventSeverity::Info as usize].load(Ordering::Relaxed),
            warning: self.severity_counts[EventSeverity::Warning as usize].load(Ordering::Relaxed),
            critical: self.severity_counts[EventSeverity::Critical as usize]
                .load(Ordering::Relaxed),
            counts: EventCounts(std::array::from_fn(|kind| {
                self.kind_counts[kind].load(Ordering::Relaxed)
            })),
            recent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish_n(journal: &EventJournal, n: u64) {
        for round in 0..n {
            journal.publish(
                EventKind::Shed,
                EventSeverity::Warning,
                Some(0),
                None,
                round * 10,
                round,
            );
        }
    }

    #[test]
    fn sequence_numbers_are_assigned_in_publish_order() {
        let journal = EventJournal::new(8);
        publish_n(&journal, 3);
        let snap = journal.snapshot(8);
        let seqs: Vec<u64> = snap.recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(snap.published, 3);
        assert_eq!(snap.overwritten, 0);
        assert_eq!(snap.warning, 3);
        assert_eq!(snap.counts[EventKind::Shed], 3);
    }

    #[test]
    fn a_full_ring_overwrites_oldest_first_and_counts_it() {
        let journal = EventJournal::new(4);
        publish_n(&journal, 10);
        let snap = journal.snapshot(4);
        assert_eq!(snap.published, 10);
        assert_eq!(snap.overwritten, 6);
        // The four newest survive, in order.
        let seqs: Vec<u64> = snap.recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_tail_cuts_from_the_newest_end() {
        let journal = EventJournal::new(8);
        publish_n(&journal, 5);
        let snap = journal.snapshot(2);
        let seqs: Vec<u64> = snap.recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn severity_and_kind_totals_survive_rotation() {
        let journal = EventJournal::new(2);
        journal.publish(EventKind::Steal, EventSeverity::Info, None, Some(1), 0, 4);
        journal.publish(
            EventKind::VerdictFlip,
            EventSeverity::Critical,
            Some(2),
            None,
            5,
            40,
        );
        publish_n(&journal, 3); // rotates both earlier events out
        let snap = journal.snapshot(2);
        assert_eq!(snap.info, 1);
        assert_eq!(snap.critical, 1);
        assert_eq!(snap.warning, 3);
        assert_eq!(snap.counts[EventKind::Steal], 1);
        assert_eq!(snap.counts[EventKind::VerdictFlip], 1);
        assert_eq!(snap.counts[EventKind::Shed], 3);
        assert_eq!(snap.recent.len(), 2);
    }

    #[test]
    fn fault_kinds_have_stable_labels_and_distinct_counters() {
        let kinds = [
            EventKind::WorkerCrash,
            EventKind::WorkerRestart,
            EventKind::Quarantine,
            EventKind::BurstStart,
            EventKind::BurstEnd,
            EventKind::WatchdogTrip,
        ];
        let journal = EventJournal::new(16);
        for (i, kind) in kinds.iter().enumerate() {
            for _ in 0..=i {
                journal.publish(*kind, EventSeverity::Warning, Some(0), Some(1), 0, 7);
            }
        }
        let snap = journal.snapshot(16);
        assert_eq!(snap.counts[EventKind::WorkerCrash], 1);
        assert_eq!(snap.counts[EventKind::WorkerRestart], 2);
        assert_eq!(snap.counts[EventKind::Quarantine], 3);
        assert_eq!(snap.counts[EventKind::BurstStart], 4);
        assert_eq!(snap.counts[EventKind::BurstEnd], 5);
        assert_eq!(snap.counts[EventKind::WatchdogTrip], 6);
        let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "worker_crash",
                "worker_restart",
                "quarantine",
                "burst_start",
                "burst_end",
                "watchdog_trip"
            ]
        );
    }

    #[test]
    fn label_tables_are_in_declaration_order() {
        for (index, (kind, _)) in EventKind::LABELS.iter().enumerate() {
            assert_eq!(*kind as usize, index, "{kind}");
        }
        for (index, (severity, _)) in EventSeverity::LABELS.iter().enumerate() {
            assert_eq!(*severity as usize, index, "{severity}");
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let journal = EventJournal::new(0);
        assert_eq!(journal.capacity(), 1);
        publish_n(&journal, 2);
        assert_eq!(journal.snapshot(4).recent.len(), 1);
    }
}
