//! Error syndromes.
//!
//! The error syndrome of the surface code is "a bit string of length equal to
//! the total number of ancilla qubits" (Section II-C1 of the paper).  Ancillas
//! reporting a `+1` measurement are called *hot syndromes* or *detection
//! events*; decoding maps the hot syndromes to a set of corrections.
//!
//! There is one representation, from the sampler to the decoder: [`Syndrome`]
//! keeps one bit per ancilla in `u64` words.  The same words are the payload
//! of the streaming runtime's wire records (a d=9 syndrome is three words),
//! and the decoders find the detection events by trailing-zeros scans of them
//! ([`Lattice::for_each_defect`](crate::lattice::Lattice::for_each_defect)).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A full error syndrome: one bit per ancilla qubit, packed in `u64` words.
///
/// Bit `i` corresponds to the ancilla with index `i` in the owning
/// [`Lattice`](crate::lattice::Lattice) and lives in word `i / 64` at bit
/// `i % 64`; a set bit means the ancilla reported a detection event.
///
/// **Invariant (tail-clean):** every bit at index `>= len` is zero after
/// every constructor and mutator, so the derived `Eq` / `Hash` compare bit
/// patterns and the padding of a wire slot never leaks into a syndrome.
#[derive(Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Syndrome {
    len: usize,
    words: Vec<u64>,
}

/// By hand, so that `clone_from` reuses the word buffer — the one
/// allocation-free copy of the streaming hot path (the derived `clone_from`
/// is `*self = source.clone()`, one allocation per round).
impl Clone for Syndrome {
    fn clone(&self) -> Self {
        Syndrome {
            len: self.len,
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.words.clone_from(&source.words);
    }
}

impl Syndrome {
    /// The number of `u64` words holding `len` ancilla bits.
    #[must_use]
    pub fn words_for(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// Creates an all-clear syndrome of the given length.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Syndrome {
            len,
            words: vec![0; Self::words_for(len)],
        }
    }

    /// Creates a syndrome of length `len` with the listed ancillas hot.
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
        self.len
    }

    /// Returns `true` if the syndrome has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The word index and bit mask of ancilla `index`, range-checked: a bit
    /// at `index >= len` can lie inside the last word, where no slice bound
    /// would stop it from breaking tail-clean.
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(
            index < self.len,
            "ancilla {index} out of range for a {}-bit syndrome",
            self.len
        );
        (index / 64, 1 << (index % 64))
    }

    /// Returns `true` if ancilla `index` reported a detection event.
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn is_hot(&self, index: usize) -> bool {
        let (word, mask) = self.locate(index);
        self.words[word] & mask != 0
    }

    /// Sets the detection bit of ancilla `index`.
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, hot: bool) {
        let (word, mask) = self.locate(index);
        if hot {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
    }

    /// Flips the detection bit of ancilla `index`.
    /// Panics if `index` is out of range.
    pub fn flip(&mut self, index: usize) {
        let (word, mask) = self.locate(index);
        self.words[word] ^= mask;
    }

    /// Resets to all-clear on `len` ancillas, reusing the allocation (like
    /// [`PauliString::reset_identity`](crate::pauli::PauliString::reset_identity)).
    pub fn reset_clear(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(Self::words_for(len), 0);
    }

    /// Returns `true` if any ancilla reported a detection event.
    #[must_use]
    pub fn any_hot(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The number of hot ancillas (one `popcount` per word).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the hot ancillas, in ascending order.
    #[must_use]
    pub fn hot_indices(&self) -> Vec<usize> {
        self.defect_indices().collect()
    }

    /// Iterates the hot ancilla indices in ascending order using
    /// trailing-zeros scans (skipping clear words wholesale).
    #[must_use]
    pub fn defect_indices(&self) -> DefectIndices<'_> {
        DefectIndices {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// XORs another syndrome into this one (symmetric difference of hot sets).
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &Syndrome) {
        assert_eq!(self.len, other.len, "cannot xor unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Returns the XOR of two syndromes as a new syndrome (panics like
    /// [`Syndrome::xor_with`]).
    #[must_use]
    pub fn xor(&self, other: &Syndrome) -> Syndrome {
        let mut out = self.clone();
        out.xor_with(other);
        out
    }

    /// Iterates over the detection bits in ancilla-index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.is_hot(i))
    }

    /// The packed words: syndrome bit `i` is bit `i % 64` of word `i / 64`.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the bits from raw words (e.g. read back out of a
    /// ring-buffer slot), keeping the length and the allocation.  Bits
    /// beyond `len` in the last word are masked off, so slot padding cannot
    /// leak into the syndrome.  Panics unless `words.len()` is
    /// [`Syndrome::words_for`]`(self.len())`.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        let expected = self.words.len();
        assert_eq!(words.len(), expected, "expected {expected} words");
        self.words.copy_from_slice(words);
        let padding = self.words.len() * 64 - self.len;
        if let Some(last) = self.words.last_mut() {
            *last &= u64::MAX >> padding;
        }
    }

    /// Exactly `out.clone_from(self)`.  Kept for one caller only: the
    /// frozen `benchmark/` crate (`benchmark/src/layers.rs`) names it and
    /// cannot change in the same PR.  Everything else calls `clone_from`.
    pub fn write_to_syndrome(&self, out: &mut Syndrome) {
        out.clone_from(self);
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Syndrome {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut s = Syndrome::default();
        for hot in iter {
            if s.len % 64 == 0 {
                s.words.push(0);
            }
            s.len += 1;
            s.set(s.len - 1, hot);
        }
        s
    }
}

/// Iterator over the hot bit indices of a [`Syndrome`], ascending
/// ([`Syndrome::defect_indices`]): clears each word's lowest set bit in turn.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Tail-clean, from outside: `weight` counts no bit that `iter` cannot see.
    fn assert_tail_clean(s: &Syndrome) {
        assert_eq!(s.weight(), s.iter().filter(|&b| b).count(), "{s}");
    }

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
        for len in [64, 130] {
            let s: Syndrome = (0..len).map(|i| i % 3 == 0).collect();
            let hot: Vec<usize> = (0..len).step_by(3).collect();
            assert_eq!(s, Syndrome::from_hot(len, &hot));
            assert_eq!(s, s.iter().collect());
            assert_tail_clean(&s);
        }
    }

    #[test]
    fn packed_round_trip_preserves_everything() {
        let s = Syndrome::from_hot(130, &[0, 1, 63, 64, 65, 127, 128, 129]);
        let mut restored = Syndrome::new(130);
        restored.copy_from_words(s.words());
        assert_eq!(restored, s);
        assert_eq!(restored.weight(), 8);
        assert_eq!(s.defect_indices().collect::<Vec<_>>(), s.hot_indices());
        assert!(s.to_string().starts_with("110") && s.to_string().ends_with("0111"));
    }

    #[test]
    fn clone_from_reuses_the_buffer_across_lengths() {
        let mut buffer = Syndrome::from_hot(144, &[0, 143]);
        let capacity = buffer.words.capacity();
        for syndrome in [
            Syndrome::from_hot(8, &[1, 6]),
            Syndrome::from_hot(130, &[63, 64, 129]),
            Syndrome::new(0),
        ] {
            buffer.clone_from(&syndrome);
            assert_eq!(buffer, syndrome);
            assert_eq!(buffer.words.capacity(), capacity);
            let mut shimmed = Syndrome::new(144);
            syndrome.write_to_syndrome(&mut shimmed);
            assert_eq!(shimmed, syndrome);
        }
    }

    #[test]
    fn packed_word_counts() {
        assert_eq!(Syndrome::words_for(0), 0);
        assert_eq!(Syndrome::words_for(1), 1);
        assert_eq!(Syndrome::words_for(64), 1);
        assert_eq!(Syndrome::words_for(65), 2);
        assert_eq!(Syndrome::new(40).words().len(), 1);
        assert_eq!(Syndrome::new(144).words().len(), 3);
    }

    #[test]
    fn packed_set_and_query() {
        let mut p = Syndrome::new(70);
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
        // upper 24 bits must come back clean — and stay clean when reused.
        let mut p = Syndrome::new(40);
        p.copy_from_words(&[u64::MAX]);
        assert_eq!(p.weight(), 40);
        assert!(p.defect_indices().all(|i| i < 40));
        assert_eq!(p, (0..40).map(|_| true).collect());
        p.xor_with(&Syndrome::from_hot(40, &[39]));
        assert_tail_clean(&p);
        p.reset_clear(130);
        assert_eq!(p, Syndrome::new(130));
        p.reset_clear(3);
        assert_eq!(p, Syndrome::new(3));
    }

    #[test]
    #[should_panic(expected = "expected 2 words")]
    fn packed_from_words_rejects_wrong_word_count() {
        Syndrome::new(65).copy_from_words(&[0]);
    }

    #[test]
    fn packed_xor_matches_unpacked_xor() {
        let a = Syndrome::from_hot(100, &[0, 50, 99]);
        let b = Syndrome::from_hot(100, &[50, 64]);
        let unpacked: Syndrome = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
        assert_eq!(a.xor(&b), unpacked);
        assert_eq!(unpacked.hot_indices(), vec![0, 64, 99]);
    }

    #[test]
    fn empty_packed_syndrome() {
        let p = Syndrome::new(0);
        assert!(p.is_empty());
        assert_eq!(p.defect_indices().count(), 0);
        assert_eq!(p, Syndrome::default());
        assert_eq!(p.to_string(), "");
    }

    /// `index == len` must panic even where that bit lies inside the last
    /// word (40, 130) — a packed word has no bounds check of its own there.
    macro_rules! panics_at_len {
        ($($name:ident: $len:expr, $op:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "out of range")]
            fn $name() {
                let op: fn(&mut Syndrome, usize) = $op;
                op(&mut Syndrome::new($len), $len);
            }
        )*};
    }
    panics_at_len! {
        set_at_len_40_panics: 40, |s, i| s.set(i, true);
        set_at_len_64_panics: 64, |s, i| s.set(i, true);
        set_at_len_130_panics: 130, |s, i| s.set(i, true);
        flip_at_len_40_panics: 40, |s, i| s.flip(i);
        flip_at_len_64_panics: 64, |s, i| s.flip(i);
        flip_at_len_130_panics: 130, |s, i| s.flip(i);
        is_hot_at_len_40_panics: 40, |s, i| assert!(!s.is_hot(i));
        is_hot_at_len_64_panics: 64, |s, i| assert!(!s.is_hot(i));
        is_hot_at_len_130_panics: 130, |s, i| assert!(!s.is_hot(i));
    }
}
