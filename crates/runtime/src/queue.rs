//! The bounded lock-free syndrome ring buffer.
//!
//! The queue between syndrome generation and the decoder workers is the one
//! data structure on the runtime's hot path, so it mirrors the shape used by
//! production streaming decoders (cf. the riscv-qcu pipeline): a bounded ring
//! of fixed-size slots, a producer cursor, a consumer cursor, and per-slot
//! sequence numbers in the style of Vyukov's bounded queue.  Slots carry raw
//! `u64` words (a bit-packed [`SyndromePacket`](crate::packet::SyndromePacket))
//! rather than an owned type, which lets the whole structure be built from
//! `std::sync::atomic` primitives in entirely safe Rust: payload words are
//! plain relaxed atomic stores/loads whose visibility is ordered by the
//! release/acquire handoff on the slot sequence number.
//!
//! Storage is one flat allocation of 64-byte-aligned cache lines.  A slot is
//! `ceil((1 + words_per_slot) / 8)` consecutive lines: its sequence word
//! first, its payload right behind it.  A record of up to seven words (a
//! d = 5 packet is five) therefore crosses from producer to consumer on
//! exactly one line, and no two slots ever share one — a consumer handing
//! slot `i` back never invalidates the line the producer is filling slot
//! `i + 1` on.  The cursors `head` (written by producers) and `tail`
//! (written by consumers) each sit on a line of their own.
//!
//! The implementation is multi-producer/multi-consumer-safe (both cursors
//! advance by compare-and-swap), though the runtime drives it in SPMC mode:
//! one producer thread pushing at the syndrome-generation cadence, many
//! decoder workers popping.
//!
//! The ring *is* the flow control of a channel: its slot sequence words are
//! the one book of the capacity bound, exact at every capacity ≥ 1.  Slot
//! `i`'s word counts in units of 2·position — `2p` free for position `p`,
//! `2p + 1` published at `p`, `2(p + capacity)` handed back for the next
//! lap — so "published" and "free one lap on" never coincide, whatever the
//! capacity.  A full ring is [`RingFull`];
//! [`Channel`](crate::stage::Channel) counts that refusal at the
//! stage seam and adds nothing to the bound.

use std::sync::atomic::{AtomicU64, Ordering};

/// Error returned by [`SpmcRing::try_push`] when the ring is full.
///
/// The caller decides the policy: drop the packet (and count it) or spin
/// until a worker frees a slot (backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// Words on one cache line.
const LINE_WORDS: usize = 8;

/// One 64-byte cache line of slot storage.  Word 0 of a slot's first line is
/// the slot's sequence number; the payload follows, spilling onto further
/// lines of the same slot when it exceeds seven words.
#[derive(Debug)]
#[repr(align(64))]
struct Line([AtomicU64; LINE_WORDS]);

/// Payload word `k` of `slot`: word `k + 1` of its lines, the sequence word
/// being word 0.
fn payload_word(slot: &[Line], k: usize) -> &AtomicU64 {
    &slot[(k + 1) / LINE_WORDS].0[(k + 1) % LINE_WORDS]
}

/// A 64-byte-aligned wrapper keeping the producer and consumer cursors on
/// separate cache lines.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CacheAligned(AtomicU64);

/// A bounded lock-free single-producer/multi-consumer ring buffer of
/// fixed-size `u64`-word records.
///
/// ```rust
/// use nisqplus_runtime::queue::SpmcRing;
///
/// let ring = SpmcRing::new(4, 2);
/// ring.try_push(&[1, 2]).unwrap();
/// ring.try_push(&[3, 4]).unwrap();
/// let mut out = [0u64; 2];
/// assert!(ring.try_pop(&mut out));
/// assert_eq!(out, [1, 2]);
/// assert_eq!(ring.len(), 1);
/// ```
#[derive(Debug)]
pub struct SpmcRing {
    /// `capacity * lines_per_slot` lines; slot `i` owns
    /// `lines[i * lines_per_slot..][..lines_per_slot]`.
    lines: Box<[Line]>,
    capacity: u64,
    words_per_slot: usize,
    lines_per_slot: usize,
    /// Next index to push (producer cursor).
    head: CacheAligned,
    /// Next index to pop (consumer cursor).
    tail: CacheAligned,
}

impl SpmcRing {
    /// Creates a ring with `capacity` slots of `words_per_slot` words each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `words_per_slot` is zero.
    #[must_use]
    pub fn new(capacity: usize, words_per_slot: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(words_per_slot > 0, "slot word count must be positive");
        let lines_per_slot = (1 + words_per_slot).div_ceil(LINE_WORDS);
        let lines = (0..capacity * lines_per_slot)
            .map(|line| {
                // A slot's sequence word starts free for the slot's own index.
                let seq = 2 * (line / lines_per_slot) as u64;
                let is_seq = |word| word == 0 && line % lines_per_slot == 0;
                Line(std::array::from_fn(|word| {
                    AtomicU64::new(if is_seq(word) { seq } else { 0 })
                }))
            })
            .collect();
        SpmcRing {
            lines,
            capacity: capacity as u64,
            words_per_slot,
            lines_per_slot,
            head: CacheAligned::default(),
            tail: CacheAligned::default(),
        }
    }

    /// The number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The fixed record size, in `u64` words.
    #[must_use]
    pub fn words_per_slot(&self) -> usize {
        self.words_per_slot
    }

    /// The lines of the slot position `pos` maps to.
    fn slot(&self, pos: u64) -> &[Line] {
        let first = (pos % self.capacity) as usize * self.lines_per_slot;
        &self.lines[first..first + self.lines_per_slot]
    }

    /// Records ever pushed (the producer cursor).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.head.0.load(Ordering::Relaxed)
    }

    /// Records ever popped (the consumer cursor).
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.tail.0.load(Ordering::Relaxed)
    }

    /// A snapshot of the current occupancy.  Exact when quiescent; during
    /// concurrent pushes and pops it is a consistent point-in-time estimate,
    /// which is all the backlog telemetry needs.
    #[must_use]
    pub fn len(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        head.saturating_sub(tail).min(self.capacity) as usize
    }

    /// Returns `true` if the snapshot occupancy is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the next `slots` pushes (`1 ≤ slots ≤ capacity`) would all
    /// find room: reads the sequence word of the *last* slot they would fill
    /// and nothing else.  This is what a refused producer waits on instead of
    /// retrying [`SpmcRing::try_push`]: on a full ring the slot at `head` is
    /// the slot at `tail` — the line a consumer is reading its record from
    /// and about to hand back — whereas a slot further on is written by a
    /// consumer exactly once, when it gets there, so polling it takes no line
    /// from anybody until the answer changes.  A hint, hence `Relaxed`: the
    /// push that follows does its own acquire.
    pub(crate) fn has_room(&self, slots: u64) -> bool {
        debug_assert!((1..=self.capacity).contains(&slots));
        let last = self.head.0.load(Ordering::Relaxed) + slots - 1;
        self.slot(last)[0].0[0].load(Ordering::Relaxed) >= 2 * last
    }

    /// Attempts to enqueue one record without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`RingFull`] when all slots are occupied; the record is not
    /// enqueued and the caller chooses between dropping and backpressure.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`SpmcRing::words_per_slot`].
    pub fn try_push(&self, words: &[u64]) -> Result<(), RingFull> {
        assert_eq!(
            words.len(),
            self.words_per_slot,
            "pushed record has {} words, slots hold {}",
            words.len(),
            self.words_per_slot
        );
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = self.slot(pos);
            let seq = &slot[0].0[0];
            let current = seq.load(Ordering::Acquire);
            if current == 2 * pos {
                // Slot is free at our position: claim it.
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        for (k, &value) in words.iter().enumerate() {
                            payload_word(slot, k).store(value, Ordering::Relaxed);
                        }
                        // Publish: consumers' acquire-load of `seq` orders the
                        // payload stores above before their payload loads.
                        seq.store(2 * pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if current < 2 * pos {
                // The slot still holds an unconsumed record from one lap ago.
                return Err(RingFull);
            } else {
                // Another producer claimed this position; catch up.
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue one record into `out` without blocking.
    ///
    /// Returns `false` when the ring is empty.  Any consumer thread may call
    /// this concurrently; each record is delivered to exactly one consumer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`SpmcRing::words_per_slot`].
    pub fn try_pop(&self, out: &mut [u64]) -> bool {
        assert_eq!(
            out.len(),
            self.words_per_slot,
            "pop buffer has {} words, slots hold {}",
            out.len(),
            self.words_per_slot
        );
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = self.slot(pos);
            let seq = &slot[0].0[0];
            let current = seq.load(Ordering::Acquire);
            if current == 2 * pos + 1 {
                // Slot holds a published record at our position: claim it.
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        for (k, out_word) in out.iter_mut().enumerate() {
                            *out_word = payload_word(slot, k).load(Ordering::Relaxed);
                        }
                        // Hand the slot back to the producer one lap later.
                        seq.store(2 * (pos + self.capacity), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if current <= 2 * pos {
                // Nothing published at our position yet.
                return false;
            } else {
                // Another consumer claimed this position; catch up.
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    #[test]
    fn fifo_order_single_threaded() {
        let ring = SpmcRing::new(8, 1);
        for i in 0..8u64 {
            ring.try_push(&[i]).unwrap();
        }
        assert_eq!(ring.try_push(&[99]), Err(RingFull));
        assert_eq!(ring.len(), 8);
        let mut out = [0u64];
        for i in 0..8u64 {
            assert!(ring.try_pop(&mut out));
            assert_eq!(out[0], i);
        }
        assert!(!ring.try_pop(&mut out));
        assert!(ring.is_empty());
    }

    #[test]
    fn wraps_around_many_laps() {
        let ring = SpmcRing::new(4, 2);
        let mut out = [0u64; 2];
        for lap in 0..1000u64 {
            ring.try_push(&[lap, lap * 2]).unwrap();
            assert!(ring.try_pop(&mut out));
            assert_eq!(out, [lap, lap * 2]);
        }
        assert!(ring.is_empty());
    }

    /// A one-slot ring is a ring: "published at `p`" and "free for `p + 1`"
    /// are different sequence words, so the second push is refused instead of
    /// overwriting the first record, and order holds lap after lap.
    #[test]
    fn one_slot_ring_refuses_the_second_push_and_keeps_fifo_order() {
        let ring = SpmcRing::new(1, 1);
        let mut out = [0u64];
        assert!(!ring.try_pop(&mut out));
        for lap in 0..3u64 {
            ring.try_push(&[lap]).unwrap();
            assert_eq!(ring.try_push(&[99]), Err(RingFull), "lap {lap}");
            assert_eq!(ring.len(), 1);
            assert!(ring.try_pop(&mut out));
            assert_eq!(out[0], lap);
            assert!(!ring.try_pop(&mut out), "lap {lap}");
        }
        assert_eq!((ring.pushed(), ring.popped()), (3, 3));
    }

    /// `has_room(k)` is exactly "at most `capacity − k` records resident",
    /// read off one slot: on a full 16-slot ring one pop makes room for one
    /// push and not for two, lap after lap.
    #[test]
    fn has_room_counts_the_slots_handed_back() {
        let ring = SpmcRing::new(16, 1);
        let mut out = [0u64];
        assert!(ring.has_room(16), "empty");
        for lap in 0..3u64 {
            while ring.try_push(&[lap]).is_ok() {}
            assert_eq!(ring.len(), 16);
            assert!(!ring.has_room(1), "lap {lap}: full");
            for popped in 1..=16u64 {
                assert!(ring.try_pop(&mut out));
                for slots in 1..=16u64 {
                    assert_eq!(ring.has_room(slots), slots <= popped, "lap {lap}");
                }
            }
        }
        // One slot: the slot ahead is the slot at `head`.
        let ring = SpmcRing::new(1, 1);
        assert!(ring.has_room(1));
        ring.try_push(&[7]).unwrap();
        assert!(!ring.has_room(1));
        assert!(ring.try_pop(&mut out));
        assert!(ring.has_room(1));
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpmcRing::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "pushed record has")]
    fn wrong_record_size_rejected() {
        let ring = SpmcRing::new(2, 3);
        let _ = ring.try_push(&[1]);
    }

    /// One producer, several consumers: every record is delivered exactly
    /// once and the per-record payload stays intact (no torn reads).
    #[test]
    fn spmc_delivers_each_record_exactly_once() {
        const RECORDS: u64 = 20_000;
        const CONSUMERS: usize = 4;
        let ring = SpmcRing::new(64, 3);
        let delivered = AtomicU64::new(0);
        let checksum = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..CONSUMERS {
                s.spawn(|| {
                    let mut out = [0u64; 3];
                    loop {
                        if ring.try_pop(&mut out) {
                            // Payload integrity: words are derived from the
                            // record id; a torn read would break the relation.
                            assert_eq!(out[1], out[0].wrapping_mul(31));
                            assert_eq!(out[2], !out[0]);
                            checksum.fetch_add(out[0], Ordering::Relaxed);
                            if delivered.fetch_add(1, Ordering::Relaxed) + 1 == RECORDS {
                                return;
                            }
                        } else if delivered.load(Ordering::Relaxed) >= RECORDS {
                            return;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut pushed = 0u64;
            while pushed < RECORDS {
                let record = [pushed, pushed.wrapping_mul(31), !pushed];
                if ring.try_push(&record).is_ok() {
                    pushed += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        assert_eq!(delivered.load(Ordering::Relaxed), RECORDS);
        // Sum 0..RECORDS — every id delivered exactly once.
        assert_eq!(
            checksum.load(Ordering::Relaxed),
            RECORDS * (RECORDS - 1) / 2
        );
    }

    /// A slot is a whole number of 64-byte lines and the ring allocates
    /// exactly `capacity × lines_per_slot` of them.
    #[test]
    fn slots_are_whole_aligned_lines() {
        assert_eq!(std::mem::align_of::<Line>(), 64);
        assert_eq!(std::mem::size_of::<Line>(), 64);
        for (words_per_slot, lines_per_slot) in [(1, 1), (5, 1), (7, 1), (8, 2), (15, 2), (16, 3)] {
            let ring = SpmcRing::new(6, words_per_slot);
            assert_eq!(
                ring.lines_per_slot, lines_per_slot,
                "{words_per_slot} words"
            );
            assert_eq!(ring.lines.len(), 6 * lines_per_slot);
            assert_eq!(ring.lines.as_ptr() as usize % 64, 0);
        }
    }

    /// Exactly-once delivery with several producers and consumers, for
    /// payloads that fit inside one line (1, 7), fill the second exactly
    /// (15) and straddle or exceed a line boundary (8, 9, 16), on rings of
    /// 1, 2, 3 and 8 slots.  Every word of every popped record is checked
    /// against the record's id.
    #[test]
    fn mpmc_delivers_every_word_exactly_once_across_line_boundaries() {
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 4_000;
        const RECORDS: u64 = PRODUCERS * PER_PRODUCER;
        // Word 0 is the record's id; every later word is derived from it.
        let word_of = |id: u64, k: usize| match k {
            0 => id,
            _ => (id ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(2 * k as u64 + 1),
        };
        let wide = [1usize, 7, 8, 9, 15, 16].map(|words| (8usize, words));
        let narrow = [1usize, 2, 3].map(|capacity| (capacity, 9usize));
        for (capacity, words_per_slot) in wide.into_iter().chain(narrow) {
            let ring = SpmcRing::new(capacity, words_per_slot);
            let delivered = AtomicU64::new(0);
            let id_sum = AtomicU64::new(0);
            thread::scope(|s| {
                for _ in 0..CONSUMERS {
                    s.spawn(|| {
                        let mut out = vec![0u64; words_per_slot];
                        while delivered.load(Ordering::Relaxed) < RECORDS {
                            if !ring.try_pop(&mut out) {
                                thread::yield_now();
                                continue;
                            }
                            let id = out[0];
                            assert!(id < RECORDS, "torn or foreign record {id:#x}");
                            for (k, &word) in out.iter().enumerate() {
                                assert_eq!(word, word_of(id, k), "record {id} word {k}");
                            }
                            id_sum.fetch_add(id, Ordering::Relaxed);
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                for producer in 0..PRODUCERS {
                    let ring = &ring;
                    s.spawn(move || {
                        let mut record = vec![0u64; words_per_slot];
                        for id in (producer * PER_PRODUCER)..((producer + 1) * PER_PRODUCER) {
                            for (k, word) in record.iter_mut().enumerate() {
                                *word = word_of(id, k);
                            }
                            while ring.try_push(&record).is_err() {
                                thread::yield_now();
                            }
                        }
                    });
                }
            });
            assert_eq!(delivered.load(Ordering::Relaxed), RECORDS);
            assert_eq!(id_sum.load(Ordering::Relaxed), RECORDS * (RECORDS - 1) / 2);
            assert!(ring.is_empty());
        }
    }

    /// Drops under pressure never corrupt the stream: whatever does get
    /// through arrives in order.
    #[test]
    fn order_is_preserved_under_drops() {
        let ring = SpmcRing::new(4, 1);
        let mut accepted = Vec::new();
        let mut out = [0u64];
        for i in 0..100u64 {
            if ring.try_push(&[i]).is_ok() {
                accepted.push(i);
            }
            if i % 3 == 0 && ring.try_pop(&mut out) {
                assert_eq!(out[0], accepted.remove(0));
            }
        }
        while ring.try_pop(&mut out) {
            assert_eq!(out[0], accepted.remove(0));
        }
        assert!(accepted.is_empty());
    }
}
