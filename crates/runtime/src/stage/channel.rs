//! The credit-carrying channel between pipeline stages.
//!
//! A [`CreditChannel`] pairs the lock-free [`SpmcRing`] with a
//! [`CreditCounter`] granting exactly the ring's capacity: a send consumes
//! a credit *before* touching the ring, a receive returns the credit
//! *after* its slot is handed back.  A sender holding a credit is therefore
//! guaranteed a slot — at worst it waits out another consumer's in-flight
//! pop (pops complete out of order across workers, so the freed credit and
//! the freed slot can briefly belong to different positions).  Backpressure
//! surfaces exclusively as a failed credit acquisition — a counted,
//! observable stall at the seam — never as a lost record.
//!
//! Who writes what: a send writes the slot line it fills, the ring's `head`,
//! the credit loop's senders' line and this channel's own sender statistics;
//! a receive writes the slot's sequence word, the ring's `tail` and the
//! credit loop's receivers' line.  In a channel that keeps up, the only line
//! a round moves between the two threads is its slot; a send looks at the
//! receivers' line only when its cached view of the credits is exhausted or
//! could raise the occupancy peak (see [`CreditCounter`]).
//!
//! Records are the same fixed-size `u64`-word packets the ring stores (the
//! typed view lives one layer up: [`PacketCodec`](crate::packet::PacketCodec)
//! encodes and validates, [`DecodeStage`](crate::stage::DecodeStage)
//! consumes).  Like the ring, a channel is multi-consumer-safe: any worker
//! may receive, which is what lets an idle worker steal from a busy
//! channel through [`StealMux`](crate::stage::StealMux).

use crate::queue::SpmcRing;
use crate::stage::credit::CreditCounter;
use crate::stage::StageReport;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded channel whose capacity is enforced by a credit loop.
///
/// ```rust
/// use nisqplus_runtime::stage::CreditChannel;
///
/// let channel = CreditChannel::new(2, 1);
/// assert!(channel.try_send(&[7]));
/// assert!(channel.try_send(&[8]));
/// assert!(!channel.try_send(&[9]), "credits exhausted");
/// let mut out = [0u64];
/// assert!(channel.try_recv(&mut out));
/// assert_eq!(out, [7]);
/// assert!(channel.try_send(&[9]), "the pop returned a credit");
/// ```
#[derive(Debug)]
pub struct CreditChannel {
    ring: SpmcRing,
    credits: CreditCounter,
    stats: SenderStats,
}

/// The channel's own statistics, all written by senders only — on a line of
/// their own so a refused send never invalidates anything a receiver reads.
#[derive(Debug, Default)]
#[repr(align(64))]
struct SenderStats {
    /// Sends refused for want of a credit.
    refused: AtomicU64,
    /// Spins a credited send spent waiting out another consumer's pop.
    slot_waits: AtomicU64,
}

impl CreditChannel {
    /// A channel with `capacity` slots of `words_per_slot` words each, and
    /// `capacity` credits granted up front.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `words_per_slot` is zero.
    #[must_use]
    pub fn new(capacity: usize, words_per_slot: usize) -> Self {
        CreditChannel {
            ring: SpmcRing::new(capacity, words_per_slot),
            credits: CreditCounter::new(capacity as u64),
            stats: SenderStats::default(),
        }
    }

    /// Attempts to send one record.  Returns `false` — counting a refusal,
    /// enqueueing nothing — when no credit is available; the caller chooses
    /// between retrying (backpressure) and shedding.
    ///
    /// # Panics
    ///
    /// Panics if `record.len()` differs from [`CreditChannel::words_per_slot`].
    pub fn try_send(&self, record: &[u64]) -> bool {
        let Some(grant) = self.credits.acquire() else {
            self.stats.refused.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        // A held credit guarantees a slot, but the slot one lap back may
        // still be mid-handoff in another consumer (credits are fungible;
        // pops complete out of order).  That wait is bounded by a few word
        // copies, so spin it out rather than failing a credited send.
        while self.ring.try_push(record).is_err() {
            self.stats.slot_waits.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
        self.credits.record_peak(grant);
        true
    }

    /// Attempts to receive one record into `out`, returning the freed
    /// slot's credit to senders.  Returns `false` when the channel is
    /// empty.  Any consumer thread may call this concurrently; each record
    /// is delivered to exactly one consumer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`CreditChannel::words_per_slot`].
    pub fn try_recv(&self, out: &mut [u64]) -> bool {
        if !self.ring.try_pop(out) {
            return false;
        }
        self.credits.release();
        true
    }

    /// The channel's slot count (== its credit grant).
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

    /// The channel's credit loop (for telemetry; the loop is driven by
    /// [`CreditChannel::try_send`]/[`CreditChannel::try_recv`]).
    #[must_use]
    pub fn credits(&self) -> &CreditCounter {
        &self.credits
    }

    /// This channel's [`StageReport`]: accepted = sends, emitted =
    /// receives, rejected = refused sends, plus the credit-loop totals and
    /// the occupancy high-water mark (the most credits in flight right after
    /// any send: records in the ring, plus any a receiver has popped but not
    /// yet returned the credit for).  The credit loop owns the flow totals:
    /// every send consumed a credit, every receive issued one back.
    #[must_use]
    pub fn report(&self, stage: impl Into<String>) -> StageReport {
        StageReport {
            stage: stage.into(),
            accepted: self.credits.consumed(),
            emitted: self.credits.issued(),
            rejected: self.stats.refused.load(Ordering::Relaxed),
            credits_issued: self.credits.issued(),
            credits_consumed: self.credits.consumed(),
            occupancy_peak: self.credits.in_flight_peak(),
            stall_cycles: self.stats.slot_waits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_consumes_credit_and_recv_replenishes() {
        let channel = CreditChannel::new(2, 2);
        assert!(channel.try_send(&[1, 2]));
        assert!(channel.try_send(&[3, 4]));
        // Credit exhaustion, not ring-full, is the refusal signal.
        assert!(!channel.try_send(&[5, 6]));
        assert_eq!(channel.credits().available(), 0);
        let mut out = [0u64; 2];
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [1, 2]);
        assert_eq!(channel.credits().available(), 1);
        assert!(channel.try_send(&[5, 6]));
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [3, 4]);
        assert!(channel.try_recv(&mut out));
        assert_eq!(out, [5, 6]);
        assert!(!channel.try_recv(&mut out), "drained");
    }

    #[test]
    fn report_tracks_flow_refusals_and_occupancy() {
        let channel = CreditChannel::new(2, 1);
        let mut out = [0u64];
        assert!(channel.try_send(&[1]));
        assert!(channel.try_send(&[2]));
        assert!(!channel.try_send(&[3]));
        assert!(!channel.try_send(&[3]));
        assert!(channel.try_recv(&mut out));
        assert!(channel.try_send(&[3]));
        let report = channel.report("channel.0");
        assert_eq!(report.stage, "channel.0");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.emitted, 1);
        assert_eq!(report.rejected, 2);
        assert_eq!(report.credits_consumed, 3);
        assert_eq!(report.credits_issued, 1);
        assert_eq!(report.occupancy_peak, 2);
    }

    /// The peak is the true peak, not the sender's stale upper bound: fill to
    /// five, drain to one, fill to three.  At the sixth send the cached view
    /// still says no credit ever came back (bound 6, true occupancy 2).
    #[test]
    fn occupancy_peak_is_exact_under_a_stale_cached_view() {
        let channel = CreditChannel::new(16, 1);
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

    /// The credit loop keeps its books under concurrency: a producer and
    /// two consumers hammer one channel; afterwards every credit is home
    /// and consumed == issued.
    #[test]
    fn credit_books_balance_under_concurrency() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::thread;
        const RECORDS: u64 = 10_000;
        let channel = CreditChannel::new(8, 1);
        let received = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut out = [0u64];
                    while received.load(Ordering::Relaxed) < RECORDS {
                        if channel.try_recv(&mut out) {
                            received.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut sent = 0u64;
            while sent < RECORDS {
                if channel.try_send(&[sent]) {
                    sent += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        assert_eq!(received.load(Ordering::Relaxed), RECORDS);
        assert_eq!(channel.credits().available(), 8);
        assert_eq!(channel.credits().consumed(), RECORDS);
        assert_eq!(channel.credits().issued(), RECORDS);
        assert!(channel.is_empty());
    }
}
