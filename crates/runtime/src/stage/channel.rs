//! The bounded channel between pipeline stages.
//!
//! A [`Channel`] is the lock-free [`SpmcRing`] plus its sender-side
//! statistics.  The ring's `tail` is the only book of the capacity bound: a
//! send is a push, a full ring is the counted refusal (the caller retries —
//! backpressure — or sheds), a receive is a pop.  An accepted send never
//! waits and a refusal never loses a record.
//!
//! Who writes what: the one sender writes the slot lines, the ring's `head`
//! and its cached copy of `tail`, and this channel's own statistics, each a
//! plain store; a receive writes the ring's `tail` and nothing else.  In a
//! channel that keeps up, the only line a round moves from sender to
//! receiver is its slot; the sender reads `tail` only when its cached copy
//! says the ring is full or could raise the occupancy peak, and — refused —
//! once per yield of its wait.
//!
//! Records are the same fixed-size `u64`-word packets the ring stores (the
//! typed view lives one layer up: [`PacketCodec`](crate::packet::PacketCodec)
//! encodes and validates, [`DecodeStage`](crate::stage::DecodeStage)
//! consumes).  Like the ring, a channel has one sender and any number of
//! receivers: a run builds exactly one, of `queue_capacity` slots, and
//! every decode worker pops from it, so whichever worker is free takes the
//! next round and no placement or rebalancing sits between the two.

use crate::queue::SpmcRing;
use crate::stage::{resume_stride, StageReport};
use crate::telemetry::bump;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded channel: the ring is the flow control.  One thread sends (see
/// [`SpmcRing`]); any number receive.
///
/// ```rust
/// use nisqplus_runtime::stage::Channel;
///
/// let channel = Channel::new(2, 1);
/// assert!(channel.try_send(&[7]));
/// assert!(channel.try_send(&[8]));
/// assert!(!channel.try_send(&[9]), "full");
/// let mut out = [0u64];
/// assert!(channel.try_recv(&mut out));
/// assert_eq!(out, [7]);
/// assert!(channel.try_send(&[9]), "the pop freed a slot");
/// ```
#[derive(Debug)]
pub struct Channel {
    ring: SpmcRing,
    stats: SenderStats,
}

/// The channel's own statistics, written by the sender only — plain stores,
/// on a line of their own so a refused send never invalidates anything a
/// receiver reads.
#[derive(Debug, Default)]
#[repr(align(64))]
struct SenderStats {
    /// Sends refused by a full ring.
    refused: AtomicU64,
    /// The most records resident right after any send.
    occupancy_peak: AtomicU64,
}

impl Channel {
    /// A channel with `capacity` slots of `words_per_slot` words each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `words_per_slot` is zero.
    #[must_use]
    pub fn new(capacity: usize, words_per_slot: usize) -> Self {
        Channel {
            ring: SpmcRing::new(capacity, words_per_slot),
            stats: SenderStats::default(),
        }
    }

    /// Attempts to send one record.  Returns `false` — counting a refusal,
    /// enqueueing nothing — when the ring is full; the caller chooses
    /// between retrying (backpressure) and shedding.
    ///
    /// # Panics
    ///
    /// Panics if `record.len()` differs from [`Channel::words_per_slot`].
    pub fn try_send(&self, record: &[u64]) -> bool {
        let stats = &self.stats;
        if self.ring.try_push(record).is_err() {
            bump(&stats.refused, 1);
            return false;
        }
        // The peak is exact without reading the receivers' cursor on every
        // send: `pushed − cached tail` bounds the occupancy from above (the
        // true `tail` can only be further on), so `tail` is looked up only
        // when that bound exceeds the recorded peak — whenever it does not,
        // the true figure could not have raised the peak either.  The lookup
        // refreshes the ring's cached copy, which keeps the bound tight.
        let pushed = self.ring.pushed();
        let peak = stats.occupancy_peak.load(Ordering::Relaxed);
        if pushed - self.ring.cached_tail() > peak {
            let resident = pushed.saturating_sub(self.ring.refresh_tail());
            if resident > peak {
                stats.occupancy_peak.store(resident, Ordering::Relaxed);
            }
        }
        true
    }

    /// What a sender waits for after a refused send, before it sends again:
    /// [`resume_stride`] slots claimed by receivers ([`SpmcRing::has_room`]),
    /// so that a full channel's sender offers once per eighth of the ring
    /// instead of once per record.  It reads the ring's `tail`, so the
    /// sender asks it once per yield of its wait.  A refusal still loses
    /// nothing and the wait adds nothing to the bound — a sender that does
    /// not wait is merely refused again.
    pub(crate) fn can_resume(&self) -> bool {
        self.ring
            .has_room(resume_stride(self.ring.capacity() as u64))
    }

    /// Attempts to receive one record into `out`.  Returns `false` when the
    /// channel is empty.  Any consumer thread may call this concurrently;
    /// each record is delivered to exactly one consumer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`Channel::words_per_slot`].
    pub fn try_recv(&self, out: &mut [u64]) -> bool {
        self.ring.try_pop(out)
    }

    /// The channel's slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// The fixed record size, in `u64` words.
    #[must_use]
    pub fn words_per_slot(&self) -> usize {
        self.ring.words_per_slot()
    }

    /// A point-in-time occupancy estimate (see [`SpmcRing::len`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if the snapshot occupancy is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// This channel's [`StageReport`]: accepted = sends and emitted =
    /// receives, both read off the ring's own cursors; rejected = refused
    /// sends; occupancy peak = the most records resident right after any
    /// send (pushed, not yet claimed by a receiver).
    #[must_use]
    pub fn report(&self, stage: impl Into<String>) -> StageReport {
        StageReport {
            accepted: self.ring.pushed(),
            emitted: self.ring.popped(),
            rejected: self.stats.refused.load(Ordering::Relaxed),
            occupancy_peak: self.stats.occupancy_peak.load(Ordering::Relaxed),
            ..StageReport::named(stage)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_fills_a_slot_and_recv_frees_it() {
        let channel = Channel::new(2, 2);
        assert!(channel.try_send(&[1, 2]));
        assert!(channel.try_send(&[3, 4]));
        assert!(!channel.try_send(&[5, 6]), "full");
        assert_eq!(channel.len(), 2);
        let mut out = [0u64; 2];
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [1, 2]);
        assert_eq!(channel.len(), 1);
        assert!(channel.try_send(&[5, 6]));
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [3, 4]);
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [5, 6]);
        assert!(!channel.try_recv(&mut out), "drained");
    }

    #[test]
    fn report_tracks_flow_refusals_and_occupancy() {
        let channel = Channel::new(2, 1);
        let mut out = [0u64];
        assert!(channel.try_send(&[1]));
        assert!(channel.try_send(&[2]));
        assert!(!channel.try_send(&[3]));
        assert!(!channel.try_send(&[3]));
        assert!(channel.try_recv(&mut out));
        assert!(channel.try_send(&[3]));
        let report = channel.report("channel");
        assert_eq!(report.stage, "channel");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.emitted, 1);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.occupancy_peak, 2);
        assert_eq!(report.stall_cycles, 0, "an accepted send never waits");
    }

    /// The peak is the true peak, not the sender's stale upper bound: fill to
    /// five, drain to one, fill to three.  At the sixth send the cached view
    /// still says nothing was ever popped (bound 6, true occupancy 2).
    #[test]
    fn occupancy_peak_is_exact_under_a_stale_cached_view() {
        let channel = Channel::new(16, 1);
        let mut out = [0u64];
        for record in 0..5 {
            assert!(channel.try_send(&[record]));
        }
        assert_eq!(channel.report("c").occupancy_peak, 5);
        for _ in 0..4 {
            assert!(channel.try_recv(&mut out));
        }
        for record in 5..7 {
            assert!(channel.try_send(&[record]));
        }
        assert_eq!(channel.len(), 3);
        assert_eq!(channel.report("c").occupancy_peak, 5);
        // Climbing past the old peak is still seen, one send at a time.
        for record in 7..11 {
            assert!(channel.try_send(&[record]));
        }
        assert_eq!(channel.len(), 7);
        assert_eq!(channel.report("c").occupancy_peak, 7);
    }

    /// The refused sender's wait, single-threaded: on a full 16-slot channel
    /// one receive is not worth a retry, `capacity / 8` are; channels of
    /// 1, 2 and 3 slots degenerate to waiting for one slot.
    #[test]
    fn a_refused_sender_resumes_after_an_eighth_of_the_ring() {
        let mut out = [0u64];
        let channel = Channel::new(16, 1);
        assert!(channel.can_resume(), "empty");
        for lap in 0..3 {
            while channel.try_send(&[lap]) {}
            assert!(!channel.can_resume(), "full");
            assert!(channel.try_recv(&mut out));
            assert!(!channel.can_resume(), "one slot of 16 is not worth a line");
            assert!(channel.try_recv(&mut out));
            assert!(channel.can_resume());
            assert!(channel.try_send(&[lap]) && channel.try_send(&[lap]));
        }
        for capacity in [1usize, 2, 3] {
            let channel = Channel::new(capacity, 1);
            while channel.try_send(&[0]) {}
            assert!(!channel.can_resume(), "capacity {capacity}: full");
            assert!(channel.try_recv(&mut out));
            assert!(channel.can_resume(), "capacity {capacity}");
            assert!(channel.try_send(&[1]));
        }
    }

    /// The ring keeps the books under concurrency, down to one slot: one
    /// sender and three receivers hammer channels of 1, 2 and 3 slots; the
    /// occupancy never exceeds the capacity at any send, every record is
    /// delivered exactly once, and at quiescence pushed == popped and the
    /// channel is empty.
    #[test]
    fn books_balance_under_concurrency_at_small_capacities() {
        use std::thread;
        const RECORDS: u64 = 10_000;
        for capacity in [1usize, 2, 3] {
            let channel = Channel::new(capacity, 1);
            let received = AtomicU64::new(0);
            let id_sum = AtomicU64::new(0);
            thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let mut out = [0u64];
                        while received.load(Ordering::Relaxed) < RECORDS {
                            if channel.try_recv(&mut out) {
                                assert!(out[0] < RECORDS, "foreign record {:#x}", out[0]);
                                id_sum.fetch_add(out[0], Ordering::Relaxed);
                                received.fetch_add(1, Ordering::Relaxed);
                            } else {
                                thread::yield_now();
                            }
                        }
                    });
                }
                let mut sent = 0u64;
                while sent < RECORDS {
                    if channel.try_send(&[sent]) {
                        sent += 1;
                        // `len()` is clamped to the capacity; the cursors
                        // are not (`popped` is read second, so it can only
                        // make the difference smaller than it ever was).
                        let report = channel.report("c");
                        let resident = report.accepted.saturating_sub(report.emitted);
                        assert!(resident <= capacity as u64, "{report:?}");
                    } else {
                        thread::yield_now();
                    }
                }
            });
            assert_eq!(received.load(Ordering::Relaxed), RECORDS);
            assert_eq!(id_sum.load(Ordering::Relaxed), RECORDS * (RECORDS - 1) / 2);
            let report = channel.report("c");
            assert_eq!((report.accepted, report.emitted), (RECORDS, RECORDS));
            assert!(report.occupancy_peak <= capacity as u64, "{report:?}");
            assert!(channel.is_empty());
        }
    }
}
