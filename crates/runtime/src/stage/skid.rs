//! The skid buffer: absorbing a stalled handshake without losing a beat.
//!
//! In a latency-insensitive hardware pipeline, a skid buffer sits between a
//! producer's *valid* and a consumer's *ready*: when the consumer deasserts
//! ready mid-transfer, the in-flight item "skids" into the buffer instead
//! of being dropped or forcing the producer to re-present it.  The software
//! analogue here is exactly that: a [`SkidBuffer`] owns one or two slots,
//! accepts an item while downstream is stalled, and drains into the
//! downstream seam when it becomes ready again — item storage is recycled,
//! so steady-state operation allocates nothing.
//!
//! The pipeline's source uses a skid at its send seam: a record whose
//! target [`CreditChannel`](crate::stage::CreditChannel) is out of credits
//! rests in the skid while the source spins (each failed drain is one
//! counted stall cycle), which is what makes the `Block` push policy
//! lossless by construction — the record exists in exactly one place at
//! every instant of the stall.

use crate::stage::StageReport;
use std::collections::VecDeque;

/// A small FIFO decoupling buffer with recycled slot storage.
///
/// ```rust
/// use nisqplus_runtime::stage::SkidBuffer;
///
/// let mut skid: SkidBuffer<u64> = SkidBuffer::new(2);
/// assert!(skid.try_accept(7).is_ok());
/// assert!(skid.try_accept(8).is_ok());
/// assert_eq!(skid.try_accept(9), Err(9), "full: the item comes back");
/// // Downstream ready for one item only:
/// let mut taken = Vec::new();
/// skid.drain_with(|item| {
///     if taken.is_empty() {
///         taken.push(*item);
///         true
///     } else {
///         false // downstream stalled again
///     }
/// });
/// assert_eq!(taken, vec![7]);
/// assert_eq!(skid.len(), 1);
/// ```
#[derive(Debug)]
pub struct SkidBuffer<T> {
    /// Occupied slots, front = oldest.
    ready: VecDeque<T>,
    /// Recycled storage for future accepts.
    spare: Vec<T>,
    capacity: usize,
    accepted: u64,
    drained: u64,
    rejected: u64,
    stalls: u64,
    occupancy_peak: usize,
}

impl<T> SkidBuffer<T> {
    /// A skid buffer holding at most `capacity` items (hardware skids are
    /// one or two entries deep; anything larger is a queue, not a skid).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a skid buffer needs at least one slot");
        SkidBuffer {
            ready: VecDeque::with_capacity(capacity),
            spare: Vec::with_capacity(capacity),
            capacity,
            accepted: 0,
            drained: 0,
            rejected: 0,
            stalls: 0,
            occupancy_peak: 0,
        }
    }

    /// Accepts `item`, or returns it to the caller when the skid is full
    /// (the upstream stage must stall — nothing is dropped).
    pub fn try_accept(&mut self, item: T) -> Result<(), T> {
        if self.ready.len() == self.capacity {
            self.rejected += 1;
            return Err(item);
        }
        self.ready.push_back(item);
        self.accepted += 1;
        self.occupancy_peak = self.occupancy_peak.max(self.ready.len());
        Ok(())
    }

    /// Accepts an item built in place, reusing a recycled slot when one is
    /// available (no allocation in steady state).  Returns `false` — and
    /// builds nothing — when the skid is full.
    pub fn accept_with(&mut self, fill: impl FnOnce(&mut T)) -> bool
    where
        T: Default,
    {
        if self.ready.len() == self.capacity {
            self.rejected += 1;
            return false;
        }
        let mut slot = self.spare.pop().unwrap_or_default();
        fill(&mut slot);
        self.ready.push_back(slot);
        self.accepted += 1;
        self.occupancy_peak = self.occupancy_peak.max(self.ready.len());
        true
    }

    /// Offers items to `sink` in FIFO order until it refuses one or the
    /// skid empties; returns how many it took.  A refusal counts one stall
    /// cycle and leaves the refused item (and everything behind it) in
    /// place, in order.
    pub fn drain_with(&mut self, mut sink: impl FnMut(&T) -> bool) -> usize {
        let mut taken = 0;
        while let Some(front) = self.ready.front() {
            if sink(front) {
                let slot = self.ready.pop_front().expect("front observed above");
                self.spare.push(slot);
                self.drained += 1;
                taken += 1;
            } else {
                self.stalls += 1;
                break;
            }
        }
        taken
    }

    /// Discards the oldest resident item without delivering it (a counted
    /// shed: the explicit lossy path for `Drop`-policy seams — nothing is
    /// ever lost implicitly).  Returns `false` when the skid is empty.
    pub fn discard_front(&mut self) -> bool {
        match self.ready.pop_front() {
            Some(slot) => {
                self.spare.push(slot);
                self.rejected += 1;
                true
            }
            None => false,
        }
    }

    /// Items currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// Returns `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// The slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This skid's [`StageReport`]: accepted/emitted flow, refused accepts
    /// plus explicit discards under `rejected`, downstream stalls, and the
    /// occupancy high-water mark.  The skid is single-owner (`&mut` on every
    /// hot-path call), so its books are plain integers — no atomics per
    /// round.
    #[must_use]
    pub fn report(&self, stage: impl Into<String>) -> StageReport {
        StageReport {
            stage: stage.into(),
            accepted: self.accepted,
            emitted: self.drained,
            rejected: self.rejected,
            credits_issued: 0,
            credits_consumed: 0,
            occupancy_peak: self.occupancy_peak as u64,
            stall_cycles: self.stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing in, nothing lost: every accepted item comes out exactly
    /// once, in order, under an adversarial on/off stall pattern.
    #[test]
    fn no_loss_no_reorder_under_stall() {
        let mut skid: SkidBuffer<u64> = SkidBuffer::new(2);
        let mut next_in = 0u64;
        let mut out = Vec::new();
        // Downstream readiness flips on a pattern unrelated to arrivals.
        for step in 0..1000 {
            if skid.try_accept(next_in).is_ok() {
                next_in += 1;
            }
            let ready = step % 3 != 0;
            if ready {
                skid.drain_with(|item| {
                    out.push(*item);
                    true
                });
            } else {
                // Stalled: a drain attempt takes nothing and loses nothing.
                let before = skid.len();
                skid.drain_with(|_| false);
                assert_eq!(skid.len(), before);
            }
        }
        skid.drain_with(|item| {
            out.push(*item);
            true
        });
        assert_eq!(out, (0..next_in).collect::<Vec<u64>>());
        assert!(skid.is_empty());
    }

    #[test]
    fn full_skid_returns_the_item_instead_of_dropping() {
        let mut skid: SkidBuffer<&str> = SkidBuffer::new(1);
        assert!(skid.try_accept("a").is_ok());
        assert_eq!(skid.try_accept("b"), Err("b"));
        let report = skid.report("skid");
        assert_eq!(report.accepted, 1);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.occupancy_peak, 1);
    }

    /// `accept_with` recycles drained slots: after warm-up, accepting
    /// through a full drain cycle reuses the same storage.
    #[test]
    fn accept_with_recycles_storage() {
        let mut skid: SkidBuffer<Vec<u64>> = SkidBuffer::new(2);
        assert!(skid.accept_with(|slot| {
            slot.clear();
            slot.extend_from_slice(&[1, 2, 3]);
        }));
        let mut seen = Vec::new();
        skid.drain_with(|item| {
            seen.push(item.clone());
            true
        });
        assert_eq!(seen, vec![vec![1, 2, 3]]);
        // The drained Vec went to the spare pool; the next accept must not
        // grow a fresh allocation but reuse its capacity.
        assert!(skid.accept_with(|slot| {
            assert!(slot.capacity() >= 3, "recycled slot keeps its storage");
            slot.clear();
            slot.extend_from_slice(&[4, 5]);
        }));
        seen.clear();
        skid.drain_with(|item| {
            seen.push(item.clone());
            true
        });
        assert_eq!(seen, vec![vec![4, 5]]);
    }

    #[test]
    fn stall_cycles_are_counted_per_refused_drain() {
        let mut skid: SkidBuffer<u64> = SkidBuffer::new(2);
        skid.try_accept(1).unwrap();
        for _ in 0..5 {
            assert_eq!(skid.drain_with(|_| false), 0);
        }
        assert_eq!(skid.report("skid").stall_cycles, 5);
        assert_eq!(skid.drain_with(|_| true), 1);
        assert_eq!(skid.report("skid").emitted, 1);
    }

    #[test]
    fn discard_front_is_an_explicit_counted_shed() {
        let mut skid: SkidBuffer<u64> = SkidBuffer::new(2);
        skid.try_accept(1).unwrap();
        skid.try_accept(2).unwrap();
        assert!(skid.discard_front());
        // The survivor is still deliverable, in order.
        let mut out = Vec::new();
        skid.drain_with(|item| {
            out.push(*item);
            true
        });
        assert_eq!(out, vec![2]);
        assert!(!skid.discard_front(), "empty skid has nothing to shed");
        let report = skid.report("skid");
        assert_eq!(report.rejected, 1);
        assert_eq!(report.emitted, 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _: SkidBuffer<u64> = SkidBuffer::new(0);
    }
}
