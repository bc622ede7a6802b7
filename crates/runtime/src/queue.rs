//! The bounded lock-free syndrome ring buffer.
//!
//! The queue between syndrome generation and the decoder workers is the one
//! data structure on the runtime's hot path, so it mirrors the shape used by
//! production streaming decoders (cf. the riscv-qcu pipeline, where one
//! producer hart feeds a ring that several worker harts pop): a bounded ring
//! of fixed-size slots, exactly one sender and any number of receivers.
//! Slots carry raw `u64` words (a bit-packed
//! [`SyndromePacket`](crate::packet::SyndromePacket)) rather than an owned
//! type, which lets the whole structure be built from `std::sync::atomic`
//! primitives in entirely safe Rust: payload words are plain relaxed atomic
//! stores/loads whose visibility is ordered by the release/acquire pairs
//! tabled below.
//!
//! Storage is one flat allocation of 64-byte-aligned cache lines.  A slot is
//! `ceil((1 + words_per_slot) / 8)` consecutive lines: its stamp word first,
//! its payload right behind it.  A record of up to seven words (a d = 5
//! packet is five) therefore crosses from sender to receiver on exactly one
//! line, and no two slots ever share one.
//!
//! Who writes what: the sender alone writes every slot line and its own line
//! (`head`, plus its cached copy of `tail`); receivers write `tail` and
//! nothing else.  `tail` is thus the one book of the capacity bound, exact
//! at every capacity ≥ 1, and only `tail` advances by compare-and-swap.  A
//! push loads no word a receiver writes — it reads the real `tail` only when
//! its cached copy says the ring is full — and issues no locked instruction.
//!
//! | Step | Ordering | Pairs with | What it orders |
//! |---|---|---|---|
//! | the sender stores slot `pos`'s stamp, `pos + 1` | `Release` | a receiver's stamp load | the payload stores before it |
//! | a receiver loads the stamp | `Acquire` | the stamp store | its payload loads after it |
//! | a receiver's successful CAS of `tail`, `pos → pos + 1` | `Release` | the sender's `tail` load | its payload loads before it |
//! | the sender loads `tail` (cached copy says full) | `Acquire` | the CAS | its overwrite of slot `pos` after it |
//!
//! A receiver reads first and claims second: it copies a published slot,
//! then CASes `tail` from the slot's position to the next.  The sender
//! overwrites position `p`'s slot (for `p + capacity`) only after it has
//! seen `tail > p`, so a receiver whose CAS succeeds copied an intact
//! record; one that copied a record the sender was overwriting loses its
//! CAS and discards the copy.  A stamp is one more than the position last
//! published in its slot, so no stamp repeats and there is no ABA.
//!
//! A full ring is [`RingFull`]; [`Channel`](crate::stage::Channel) counts
//! that refusal at the stage seam and adds nothing to the bound.

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
/// the slot's stamp; the payload follows, spilling onto further lines of the
/// same slot when it exceeds seven words.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line([AtomicU64; LINE_WORDS]);

/// Payload word `k` of `slot`: word `k + 1` of its lines, the stamp being
/// word 0.
fn payload_word(slot: &[Line], k: usize) -> &AtomicU64 {
    &slot[(k + 1) / LINE_WORDS].0[(k + 1) % LINE_WORDS]
}

/// The words only the sender writes, on a line of their own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct SenderLine {
    /// Next position to push.
    head: AtomicU64,
    /// The last `tail` the sender loaded: a lower bound of the true one.
    tail_seen: AtomicU64,
    /// Set while a push is in flight (debug builds), so that a second
    /// sender is caught.  A plain load and store, not a locked swap: it may
    /// miss an overlap, it never reports one that did not happen.
    #[cfg(debug_assertions)]
    pushing: std::sync::atomic::AtomicBool,
}

/// The receivers' cursor, on a line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CacheAligned(AtomicU64);

/// A bounded lock-free single-producer/multi-consumer ring buffer of
/// fixed-size `u64`-word records.
///
/// **One sender.**  [`SpmcRing::try_push`] may be called by one thread at a
/// time only (debug builds panic on overlapping pushes they catch); any
/// number of threads may call [`SpmcRing::try_pop`] concurrently with it
/// and with each other.
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
    sender: SenderLine,
    /// Next position to pop.
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
        SpmcRing {
            // Every stamp starts at 0: nothing published anywhere.
            lines: (0..capacity * lines_per_slot)
                .map(|_| Line::default())
                .collect(),
            capacity: capacity as u64,
            words_per_slot,
            lines_per_slot,
            sender: SenderLine::default(),
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

    /// Records ever pushed (the sender's cursor).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.sender.head.load(Ordering::Relaxed)
    }

    /// Records ever popped (the receivers' cursor).
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.tail.0.load(Ordering::Relaxed)
    }

    /// A snapshot of the current occupancy.  Exact when quiescent; during
    /// concurrent pushes and pops it is a consistent point-in-time estimate,
    /// which is all the backlog telemetry needs.
    #[must_use]
    pub fn len(&self) -> usize {
        let head = self.sender.head.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        head.saturating_sub(tail).min(self.capacity) as usize
    }

    /// Returns `true` if the snapshot occupancy is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sender's cached copy of `tail`: a lower bound of
    /// [`SpmcRing::popped`], read off the sender's own line.
    pub(crate) fn cached_tail(&self) -> u64 {
        self.sender.tail_seen.load(Ordering::Relaxed)
    }

    /// Sender only: loads the real `tail` — the one `Acquire` that lets the
    /// sender overwrite a slot a receiver has claimed — and caches it.
    pub(crate) fn refresh_tail(&self) -> u64 {
        let tail = self.tail.0.load(Ordering::Acquire);
        self.sender.tail_seen.store(tail, Ordering::Relaxed);
        tail
    }

    /// Whether the next `slots` pushes (`1 ≤ slots ≤ capacity`) would all
    /// find room: at most `capacity − slots` records resident.  It reads
    /// `tail`, the line every receiver's claim writes, so a refused sender
    /// asks it once per yield of its wait, not once per spin turn.  A hint,
    /// hence `Relaxed`: the push that follows does its own acquire.
    pub(crate) fn has_room(&self, slots: u64) -> bool {
        debug_assert!((1..=self.capacity).contains(&slots));
        let head = self.sender.head.load(Ordering::Relaxed);
        head + slots <= self.tail.0.load(Ordering::Relaxed) + self.capacity
    }

    /// Attempts to enqueue one record without blocking.  One sender only
    /// (see [`SpmcRing`]).
    ///
    /// # Errors
    ///
    /// Returns [`RingFull`] when all slots are occupied; the record is not
    /// enqueued and the caller chooses between dropping and backpressure.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`SpmcRing::words_per_slot`];
    /// in debug builds, if it catches a second thread pushing at once.
    pub fn try_push(&self, words: &[u64]) -> Result<(), RingFull> {
        assert_eq!(
            words.len(),
            self.words_per_slot,
            "pushed record has {} words, slots hold {}",
            words.len(),
            self.words_per_slot
        );
        #[cfg(debug_assertions)]
        let _one_sender = OneSender::enter(&self.sender.pushing);
        let pos = self.sender.head.load(Ordering::Relaxed);
        // Full by the cached copy: look at the real `tail`, once.
        if pos - self.cached_tail() >= self.capacity && pos - self.refresh_tail() >= self.capacity {
            return Err(RingFull);
        }
        let slot = self.slot(pos);
        for (k, &value) in words.iter().enumerate() {
            payload_word(slot, k).store(value, Ordering::Relaxed);
        }
        slot[0].0[0].store(pos + 1, Ordering::Release);
        self.sender.head.store(pos + 1, Ordering::Release);
        Ok(())
    }

    /// Attempts to dequeue one record into `out` without blocking.
    ///
    /// Returns `false` when the ring is empty, leaving `out` unspecified.
    /// Any receiver thread may call this concurrently; each record is
    /// delivered to exactly one receiver.
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
            let stamp = slot[0].0[0].load(Ordering::Acquire);
            if stamp <= pos {
                // Nothing published at our position yet.
                return false;
            }
            if stamp > pos + 1 {
                // Already claimed and overwritten a lap on: catch up.
                pos = self.tail.0.load(Ordering::Relaxed);
                continue;
            }
            // Read, then claim: the copy counts only if the claim succeeds.
            for (k, out_word) in out.iter_mut().enumerate() {
                *out_word = payload_word(slot, k).load(Ordering::Relaxed);
            }
            match self.tail.0.compare_exchange_weak(
                pos,
                pos + 1,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => pos = actual,
            }
        }
    }
}

/// The debug builds' one-sender check: flags a push in flight on entry and
/// clears the flag on drop.
#[cfg(debug_assertions)]
struct OneSender<'a>(&'a std::sync::atomic::AtomicBool);

#[cfg(debug_assertions)]
impl<'a> OneSender<'a> {
    fn enter(pushing: &'a std::sync::atomic::AtomicBool) -> Self {
        assert!(
            !pushing.load(Ordering::Relaxed),
            "SpmcRing::try_push overlapped another push: a ring has one sender"
        );
        pushing.store(true, Ordering::Relaxed);
        OneSender(pushing)
    }
}

#[cfg(debug_assertions)]
impl Drop for OneSender<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
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
    /// are different states, so the second push is refused instead of
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

    /// `has_room(k)` is exactly "at most `capacity − k` records resident":
    /// on a full 16-slot ring one pop makes room for one push and not for
    /// two, lap after lap.
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

    /// The sender reads `tail` only when its cached copy says the ring is
    /// full: pops alone leave the cache where it was, and the push that
    /// finds the ring full by the cache refreshes it.
    #[test]
    fn the_sender_reads_tail_only_when_its_copy_says_full() {
        let ring = SpmcRing::new(4, 1);
        let mut out = [0u64];
        for i in 0..4 {
            ring.try_push(&[i]).unwrap();
        }
        assert!(ring.try_pop(&mut out) && ring.try_pop(&mut out));
        assert_eq!(ring.cached_tail(), 0, "nobody asked");
        ring.try_push(&[4]).unwrap();
        assert_eq!(
            ring.cached_tail(),
            2,
            "the fifth push found the ring full by its copy"
        );
        ring.try_push(&[5]).unwrap();
        assert_eq!(ring.try_push(&[6]), Err(RingFull));
        assert_eq!((ring.cached_tail(), ring.popped()), (2, 2));
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

    /// A push that starts while another is in flight panics in a debug
    /// build (the flag is raised by hand: a real overlap is a race).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a ring has one sender")]
    fn a_second_sender_is_caught_in_debug_builds() {
        let ring = SpmcRing::new(2, 1);
        ring.sender.pushing.store(true, Ordering::Relaxed);
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
    /// exactly `capacity × lines_per_slot` of them; the sender's words and
    /// `tail` each fill a line of their own.
    #[test]
    fn slots_are_whole_aligned_lines() {
        assert_eq!(std::mem::align_of::<Line>(), 64);
        assert_eq!(std::mem::size_of::<Line>(), 64);
        assert_eq!(std::mem::size_of::<SenderLine>(), 64);
        assert_eq!(std::mem::size_of::<CacheAligned>(), 64);
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

    /// Word `k` of record `id`: the id itself, then words derived from it,
    /// so a record mixed from two laps fails the check.
    fn word_of(id: u64, k: usize) -> u64 {
        match k {
            0 => id,
            _ => (id ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(2 * k as u64 + 1),
        }
    }

    /// One sender pushes `records` ids in order into `ring` while three
    /// receivers pop; every word of every popped record is checked against
    /// the record's id, and each id is delivered exactly once.  The first
    /// bad record stops every thread, so a failure fails the test instead of
    /// hanging it.
    fn deliver_exactly_once(ring: &SpmcRing, records: u64) {
        const RECEIVERS: usize = 3;
        let words_per_slot = ring.words_per_slot();
        let delivered = AtomicU64::new(0);
        let copies: Vec<AtomicU64> = (0..records).map(|_| AtomicU64::new(0)).collect();
        let failure = std::sync::Mutex::new(None::<String>);
        let stop = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|s| {
            for _ in 0..RECEIVERS {
                s.spawn(|| {
                    let mut out = vec![0u64; words_per_slot];
                    while delivered.load(Ordering::Relaxed) < records
                        && !stop.load(Ordering::Relaxed)
                    {
                        if !ring.try_pop(&mut out) {
                            thread::yield_now();
                            continue;
                        }
                        let id = out[0];
                        let bad = if id >= records {
                            Some(format!("torn or foreign record {id:#x}"))
                        } else if let Some(k) =
                            (0..words_per_slot).find(|&k| out[k] != word_of(id, k))
                        {
                            Some(format!("record {id} word {k}: {:#x}", out[k]))
                        } else if copies[id as usize].fetch_add(1, Ordering::Relaxed) > 0 {
                            Some(format!("record {id} delivered twice"))
                        } else {
                            None
                        };
                        if let Some(bad) = bad {
                            failure.lock().unwrap().get_or_insert(bad);
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let mut record = vec![0u64; words_per_slot];
            for id in 0..records {
                for (k, word) in record.iter_mut().enumerate() {
                    *word = word_of(id, k);
                }
                while ring.try_push(&record).is_err() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    thread::yield_now();
                }
            }
        });
        let what = format!("capacity {}, {words_per_slot} words", ring.capacity());
        assert_eq!(failure.into_inner().unwrap(), None, "{what}");
        assert_eq!(delivered.load(Ordering::Relaxed), records, "{what}");
        assert!(ring.is_empty(), "{what}");
    }

    /// Exactly-once delivery with one producer and three consumers, for
    /// payloads that fit inside one line (1, 7), fill the second exactly
    /// (15) and straddle or exceed a line boundary (8, 9, 16), on rings of
    /// 1, 2, 3 and 8 slots.
    #[test]
    fn spmc_delivers_every_word_exactly_once_across_line_boundaries() {
        let wide = [1usize, 7, 8, 9, 15, 16].map(|words| (8usize, words));
        let narrow = [1usize, 2, 3].map(|capacity| (capacity, 9usize));
        for (capacity, words_per_slot) in wide.into_iter().chain(narrow) {
            deliver_exactly_once(&SpmcRing::new(capacity, words_per_slot), 8_000);
        }
    }

    /// The sender laps receivers that are still copying: on rings of 1, 2
    /// and 3 slots the slot a receiver reads is routinely the one the sender
    /// is overwriting for the next lap, and that receiver's claim must fail.
    /// Records of 1, 7, 8, 9, 15 and 16 words, so a torn copy can straddle a
    /// line boundary.
    #[test]
    fn lapping_receivers_never_deliver_a_torn_record() {
        for capacity in [1usize, 2, 3] {
            for words_per_slot in [1usize, 7, 8, 9, 15, 16] {
                deliver_exactly_once(&SpmcRing::new(capacity, words_per_slot), 4_000);
            }
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
