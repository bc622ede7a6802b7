//! Error syndromes and detection events.
//!
//! The error syndrome of the surface code is "a bit string of length equal to
//! the total number of ancilla qubits" (Section II-C1 of the paper).  Ancillas
//! reporting a `+1` measurement are called *hot syndromes* or *detection
//! events*; decoding maps the hot syndromes to a set of corrections.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A full error syndrome: one bit per ancilla qubit.
///
/// Bit `i` corresponds to the ancilla with index `i` in the owning
/// [`Lattice`](crate::lattice::Lattice); `true` means the ancilla reported a
/// detection event.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Syndrome {
    bits: Vec<bool>,
}

impl Syndrome {
    /// Creates an all-clear syndrome of the given length.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Syndrome {
            bits: vec![false; len],
        }
    }

    /// Creates a syndrome from an explicit bit vector.
    #[must_use]
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Syndrome { bits }
    }

    /// Creates a syndrome of length `len` with the listed ancillas hot.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    #[must_use]
    pub fn from_hot(len: usize, hot: &[usize]) -> Self {
        let mut s = Syndrome::new(len);
        for &i in hot {
            s.set(i, true);
        }
        s
    }

    /// The number of ancilla bits in the syndrome.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the syndrome has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Returns `true` if ancilla `index` reported a detection event.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn is_hot(&self, index: usize) -> bool {
        self.bits[index]
    }

    /// Sets the detection bit of ancilla `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, hot: bool) {
        self.bits[index] = hot;
    }

    /// Flips the detection bit of ancilla `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn flip(&mut self, index: usize) {
        self.bits[index] = !self.bits[index];
    }

    /// Resets the syndrome to all-clear on `len` ancillas, reusing the
    /// existing allocation when it is large enough (the analogue of
    /// [`PauliString::reset_identity`](crate::pauli::PauliString::reset_identity)).
    pub fn reset_clear(&mut self, len: usize) {
        self.bits.clear();
        self.bits.resize(len, false);
    }

    /// Returns `true` if any ancilla reported a detection event.
    #[must_use]
    pub fn any_hot(&self) -> bool {
        self.bits.iter().any(|&b| b)
    }

    /// The number of hot ancillas.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Indices of the hot ancillas, in ascending order.
    #[must_use]
    pub fn hot_indices(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect()
    }

    /// XORs another syndrome into this one (symmetric difference of hot sets).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &Syndrome) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot xor syndromes of lengths {} and {}",
            self.len(),
            other.len()
        );
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a ^= *b;
        }
    }

    /// Returns the XOR of two syndromes as a new syndrome.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor(&self, other: &Syndrome) -> Syndrome {
        let mut out = self.clone();
        out.xor_with(other);
        out
    }

    /// Iterates over the detection bits in ancilla-index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// A view of the raw bit vector.
    #[must_use]
    pub fn as_bits(&self) -> &[bool] {
        &self.bits
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Syndrome {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Syndrome {
            bits: iter.into_iter().collect(),
        }
    }
}

/// A bit-packed syndrome: one bit per ancilla, stored in `u64` words.
///
/// [`Syndrome`] stores one `bool` per ancilla, which is convenient for the
/// decoders but wasteful on the wire: the streaming runtime moves syndromes
/// through a lock-free ring buffer whose slots are fixed arrays of `u64`
/// words, so a d=9 syndrome (144 ancillas) packs into three words instead of
/// 144 bytes.  `PackedSyndrome` is the transport representation; it
/// round-trips losslessly with [`Syndrome`] and iterates its detection
/// events with popcount/trailing-zeros scans rather than a per-bit walk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PackedSyndrome {
    len: usize,
    words: Vec<u64>,
}

impl PackedSyndrome {
    /// The number of `u64` words needed to pack `len` ancilla bits.
    #[must_use]
    pub fn words_for(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// Creates an all-clear packed syndrome of the given bit length.
    #[must_use]
    pub fn new(len: usize) -> Self {
        PackedSyndrome {
            len,
            words: vec![0; Self::words_for(len)],
        }
    }

    /// Packs an unpacked [`Syndrome`].
    #[must_use]
    pub fn from_syndrome(syndrome: &Syndrome) -> Self {
        let mut packed = PackedSyndrome::default();
        packed.pack_from(syndrome);
        packed
    }

    /// Re-packs `syndrome` into this buffer, taking its bit length and
    /// reusing the existing allocation when it is large enough — the
    /// allocation-free counterpart of [`PackedSyndrome::from_syndrome`] for
    /// a producer that packs one round after another.
    pub fn pack_from(&mut self, syndrome: &Syndrome) {
        self.len = syndrome.len();
        self.words.clear();
        self.words.resize(Self::words_for(self.len), 0);
        for (i, hot) in syndrome.iter().enumerate() {
            if hot {
                self.words[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Reconstructs a packed syndrome from raw words (e.g. read back out of
    /// a ring-buffer slot).  Bits beyond `len` in the last word are masked
    /// off, so slot padding cannot leak into the syndrome.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`PackedSyndrome::words_for`]`(len)`.
    #[must_use]
    pub fn from_words(len: usize, mut words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            Self::words_for(len),
            "expected {} words for {len} bits, got {}",
            Self::words_for(len),
            words.len()
        );
        let tail_bits = len % 64;
        if tail_bits != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
        PackedSyndrome { len, words }
    }

    /// Unpacks back into a [`Syndrome`].
    #[must_use]
    pub fn to_syndrome(&self) -> Syndrome {
        (0..self.len).map(|i| self.is_hot(i)).collect()
    }

    /// Unpacks into an existing [`Syndrome`] buffer without allocating.
    ///
    /// The buffer is resized to this syndrome's bit length (a no-op in a
    /// steady-state loop where the length never changes).
    pub fn write_to_syndrome(&self, out: &mut Syndrome) {
        out.bits.clear();
        out.bits.extend((0..self.len).map(|i| self.is_hot(i)));
    }

    /// Overwrites this packed syndrome from raw words, reusing the existing
    /// allocation — the allocation-free counterpart of
    /// [`PackedSyndrome::from_words`].  Bits beyond `len` in the last word
    /// are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from
    /// [`PackedSyndrome::words_for`]`(self.len())`.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            Self::words_for(self.len),
            "expected {} words for {} bits, got {}",
            Self::words_for(self.len),
            self.len,
            words.len()
        );
        self.words.copy_from_slice(words);
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// The number of ancilla bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the syndrome has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if ancilla `index` reported a detection event.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn is_hot(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Sets the detection bit of ancilla `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, hot: bool) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        let mask = 1u64 << (index % 64);
        if hot {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// The number of hot ancillas (one `popcount` per word).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if any ancilla reported a detection event.
    #[must_use]
    pub fn any_hot(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The packed words, least-significant bit first.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the hot ancilla indices in ascending order using
    /// trailing-zeros scans (skipping clear words wholesale), as the
    /// riscv-qcu style streaming pipelines do.
    #[must_use]
    pub fn defect_indices(&self) -> DefectIndices<'_> {
        DefectIndices {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// XORs another packed syndrome into this one.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &PackedSyndrome) {
        assert_eq!(
            self.len, other.len,
            "cannot xor packed syndromes of lengths {} and {}",
            self.len, other.len
        );
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a ^= *b;
        }
    }
}

impl From<&Syndrome> for PackedSyndrome {
    fn from(syndrome: &Syndrome) -> Self {
        PackedSyndrome::from_syndrome(syndrome)
    }
}

impl From<&PackedSyndrome> for Syndrome {
    fn from(packed: &PackedSyndrome) -> Self {
        packed.to_syndrome()
    }
}

impl fmt::Display for PackedSyndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.is_hot(i)))?;
        }
        Ok(())
    }
}

/// Iterator over the hot bit indices of a [`PackedSyndrome`].
///
/// Produced by [`PackedSyndrome::defect_indices`]; yields indices in
/// ascending order by clearing the lowest set bit of each word in turn.
#[derive(Debug, Clone)]
pub struct DefectIndices<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for DefectIndices<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * 64 + bit)
    }
}

/// Detection events accumulated across multiple stabilizer-measurement rounds.
///
/// In a lifetime (Monte-Carlo) simulation, each full iteration of the
/// stabilizer circuit is one *cycle* (Section VII).  With noisy measurements
/// a detection event is a *change* of an ancilla's value between consecutive
/// rounds rather than the raw value itself; this type records per-round
/// events for decoders that consume space-time syndromes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectionEvents {
    rounds: Vec<Syndrome>,
}

impl DetectionEvents {
    /// Creates an empty record.
    #[must_use]
    pub fn new() -> Self {
        DetectionEvents { rounds: Vec::new() }
    }

    /// Appends the detection events of one measurement round.
    pub fn push_round(&mut self, events: Syndrome) {
        self.rounds.push(events);
    }

    /// The number of recorded rounds.
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if no rounds have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The detection events of round `round`, if recorded.
    #[must_use]
    pub fn round(&self, round: usize) -> Option<&Syndrome> {
        self.rounds.get(round)
    }

    /// Collapses all rounds into a single syndrome by XOR.
    ///
    /// For code-capacity simulations with perfect measurements this recovers
    /// the ordinary spatial syndrome.
    #[must_use]
    pub fn collapse(&self) -> Syndrome {
        let Some(first) = self.rounds.first() else {
            return Syndrome::new(0);
        };
        let mut acc = first.clone();
        for round in &self.rounds[1..] {
            acc.xor_with(round);
        }
        acc
    }

    /// Total number of detection events across all rounds.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.rounds.iter().map(Syndrome::weight).sum()
    }

    /// Iterates over the recorded rounds.
    pub fn iter(&self) -> impl Iterator<Item = &Syndrome> {
        self.rounds.iter()
    }
}

impl FromIterator<Syndrome> for DetectionEvents {
    fn from_iter<T: IntoIterator<Item = Syndrome>>(iter: T) -> Self {
        DetectionEvents {
            rounds: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_syndrome_is_all_clear() {
        let s = Syndrome::new(12);
        assert_eq!(s.len(), 12);
        assert!(!s.any_hot());
        assert_eq!(s.weight(), 0);
        assert!(s.hot_indices().is_empty());
    }

    #[test]
    fn set_flip_and_query() {
        let mut s = Syndrome::new(4);
        s.set(1, true);
        s.flip(3);
        s.flip(3);
        assert!(s.is_hot(1));
        assert!(!s.is_hot(3));
        assert_eq!(s.weight(), 1);
        assert_eq!(s.hot_indices(), vec![1]);
        assert_eq!(s.to_string(), "0100");
    }

    #[test]
    fn from_hot_builds_expected_pattern() {
        let s = Syndrome::from_hot(6, &[0, 5]);
        assert_eq!(s.hot_indices(), vec![0, 5]);
        assert_eq!(s.weight(), 2);
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a = Syndrome::from_hot(5, &[0, 1, 3]);
        let b = Syndrome::from_hot(5, &[1, 4]);
        let c = a.xor(&b);
        assert_eq!(c.hot_indices(), vec![0, 3, 4]);
        // XOR with itself clears everything.
        assert!(!a.xor(&a).any_hot());
    }

    #[test]
    #[should_panic(expected = "cannot xor")]
    fn xor_length_mismatch_panics() {
        let mut a = Syndrome::new(3);
        let b = Syndrome::new(4);
        a.xor_with(&b);
    }

    #[test]
    fn collect_from_iterator() {
        let s: Syndrome = [true, false, true].into_iter().collect();
        assert_eq!(s.weight(), 2);
    }

    #[test]
    fn detection_events_collapse() {
        let mut events = DetectionEvents::new();
        events.push_round(Syndrome::from_hot(4, &[0, 2]));
        events.push_round(Syndrome::from_hot(4, &[2, 3]));
        assert_eq!(events.num_rounds(), 2);
        assert_eq!(events.total_events(), 4);
        let collapsed = events.collapse();
        assert_eq!(collapsed.hot_indices(), vec![0, 3]);
    }

    #[test]
    fn empty_detection_events_collapse_to_empty() {
        let events = DetectionEvents::new();
        assert!(events.is_empty());
        assert_eq!(events.collapse().len(), 0);
    }

    #[test]
    fn packed_round_trip_preserves_everything() {
        let s = Syndrome::from_hot(130, &[0, 1, 63, 64, 65, 127, 128, 129]);
        let packed = PackedSyndrome::from_syndrome(&s);
        assert_eq!(packed.len(), 130);
        assert_eq!(packed.weight(), s.weight());
        assert_eq!(packed.to_syndrome(), s);
        assert_eq!(packed.defect_indices().collect::<Vec<_>>(), s.hot_indices());
        assert_eq!(packed.to_string(), s.to_string());
    }

    #[test]
    fn pack_from_reuses_the_buffer_across_lengths() {
        let mut packed = PackedSyndrome::from_syndrome(&Syndrome::from_hot(144, &[0, 143]));
        let capacity = packed.words.capacity();
        for syndrome in [
            Syndrome::from_hot(8, &[1, 6]),
            Syndrome::from_hot(130, &[63, 64, 129]),
            Syndrome::new(0),
        ] {
            packed.pack_from(&syndrome);
            assert_eq!(packed, PackedSyndrome::from_syndrome(&syndrome));
            assert_eq!(packed.words.capacity(), capacity);
        }
    }

    #[test]
    fn packed_word_counts() {
        assert_eq!(PackedSyndrome::words_for(0), 0);
        assert_eq!(PackedSyndrome::words_for(1), 1);
        assert_eq!(PackedSyndrome::words_for(64), 1);
        assert_eq!(PackedSyndrome::words_for(65), 2);
        assert_eq!(PackedSyndrome::new(40).words().len(), 1);
        assert_eq!(PackedSyndrome::new(144).words().len(), 3);
    }

    #[test]
    fn packed_set_and_query() {
        let mut p = PackedSyndrome::new(70);
        assert!(!p.any_hot());
        p.set(69, true);
        p.set(3, true);
        p.set(3, false);
        assert!(p.is_hot(69));
        assert!(!p.is_hot(3));
        assert_eq!(p.weight(), 1);
        assert_eq!(p.defect_indices().collect::<Vec<_>>(), vec![69]);
    }

    #[test]
    fn packed_from_words_masks_slot_padding() {
        // A 40-bit syndrome read out of a 64-bit slot word with garbage in the
        // upper 24 bits must come back clean.
        let p = PackedSyndrome::from_words(40, vec![u64::MAX]);
        assert_eq!(p.weight(), 40);
        assert!(p.defect_indices().all(|i| i < 40));
        let via_conversion: Syndrome = (&p).into();
        assert_eq!(via_conversion.weight(), 40);
    }

    #[test]
    #[should_panic(expected = "expected 2 words")]
    fn packed_from_words_rejects_wrong_word_count() {
        let _ = PackedSyndrome::from_words(65, vec![0]);
    }

    #[test]
    fn packed_xor_matches_unpacked_xor() {
        let a = Syndrome::from_hot(100, &[0, 50, 99]);
        let b = Syndrome::from_hot(100, &[50, 64]);
        let mut pa = PackedSyndrome::from_syndrome(&a);
        pa.xor_with(&PackedSyndrome::from_syndrome(&b));
        assert_eq!(pa.to_syndrome(), a.xor(&b));
    }

    #[test]
    fn empty_packed_syndrome() {
        let p = PackedSyndrome::new(0);
        assert!(p.is_empty());
        assert_eq!(p.defect_indices().count(), 0);
        assert_eq!(p.to_syndrome().len(), 0);
    }
}
