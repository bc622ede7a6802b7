//! [`Bits`]: a fixed-width bitboard over a sector's ancilla grid.
//!
//! The grid decoders — union-find here and the SFQ mesh in `nisqplus-core` —
//! walk a sector's `rows × cols` ancilla grid
//! ([`Lattice::sector_grid`](nisqplus_qec::lattice::Lattice::sector_grid))
//! and hold a set of its vertices as bit `v % 64` of word `v / 64` of a
//! `[u64; W]`.  Ancillas are numbered sector-major, so vertex `v` is the
//! sector's ancilla `offset + v`, and a sector's defects are a copy of the
//! syndrome's bit range ([`Bits::defects`]), with no lookup per defect.
//! A move on the grid is then a shift of the whole set: `plus(1)` steps every
//! member one column right, `minus(cols)` one row up.  Rows do not wrap, so
//! a caller masks off the members a shift carries across a row's end.
//!
//! Both decoders pick `W` from the word ladder {1, 2, 4, 8, 16}: one word
//! holds a sector to d = 7, sixteen words to d = [`MAX_DISTANCE`].

use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::syndrome::Syndrome;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// The largest distance whose sector grid, with union-find's two boundary
/// vertices, fits the top of the word ladder: 16 words.
pub const MAX_DISTANCE: usize = 31;

/// Panics, naming `decoder`, unless a grid decoder takes distance `d`
/// (at most [`MAX_DISTANCE`]).
pub fn assert_distance_supported(decoder: &str, d: usize) {
    assert!(
        d <= MAX_DISTANCE,
        "{decoder} supports distances up to {MAX_DISTANCE} (16 words per sector grid), not d = {d}"
    );
}

/// A set of grid vertices `0..64·W`: vertex `v` is bit `v % 64` of word
/// `v / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits<const W: usize>(pub(crate) [u64; W]);

impl<const W: usize> Bits<W> {
    /// The empty set.
    pub const EMPTY: Self = Bits([0; W]);

    /// The hot ancillas of `sector` as grid vertices: one copy of the
    /// syndrome's bit range for the sector ([`Lattice::sector_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match `lattice`, or if a
    /// sector of it does not fit in `64·W` bits.
    #[must_use]
    pub fn defects(lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Self {
        let mut bits = Bits::EMPTY;
        lattice.sector_bits(syndrome, sector, &mut bits.0);
        bits
    }

    /// The vertices `0..n`, for `n <= 64·W`.
    #[must_use]
    pub fn below(n: usize) -> Self {
        debug_assert!(n <= 64 * W);
        Bits(std::array::from_fn(|w| match n.saturating_sub(64 * w) {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1 << k) - 1,
        }))
    }

    /// Whether `v` is a member.
    #[must_use]
    pub fn contains(self, v: usize) -> bool {
        self.0[v / 64] >> (v % 64) & 1 == 1
    }

    /// Adds `v`.
    pub fn insert(&mut self, v: usize) {
        self.0[v / 64] |= 1 << (v % 64);
    }

    /// Adds `v` if it is absent, removes it if it is present.
    pub fn toggle(&mut self, v: usize) {
        self.0[v / 64] ^= 1 << (v % 64);
    }

    /// Whether the set has no member.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The number of members.
    #[must_use]
    pub fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The smallest member.
    #[must_use]
    pub fn first(self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.0[w].trailing_zeros() as usize)
    }

    /// The members, ascending: word by word, each word's lowest set bit at a
    /// time.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                let bit = word.trailing_zeros() as usize;
                word &= word.checked_sub(1)?;
                Some(w * 64 + bit)
            })
        })
    }

    /// `{v + s : v ∈ self, v + s < 64·W}`, for `s < 64·W`.
    #[must_use]
    pub fn plus(self, s: u32) -> Self {
        // Word `w` of the result is the top half of the word pair `q` and
        // `q + 1` words below it, shifted left by `r`.
        let (q, r) = ((s / 64) as usize, s % 64);
        Bits(std::array::from_fn(|w| {
            let high = u128::from(self.word(w.wrapping_sub(q)));
            let low = u128::from(self.word(w.wrapping_sub(q + 1)));
            ((high << 64 | low) << r >> 64) as u64
        }))
    }

    /// `{v − s : v ∈ self, v ≥ s}`, for `s < 64·W`.
    #[must_use]
    pub fn minus(self, s: u32) -> Self {
        let (q, r) = ((s / 64) as usize, s % 64);
        Bits(std::array::from_fn(|w| {
            let high = u128::from(self.word(w + q + 1));
            let low = u128::from(self.word(w + q));
            ((high << 64 | low) >> r) as u64
        }))
    }

    /// Word `i`, or zero past the last word (a wrapped-around `i` included).
    fn word(self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }
}

impl<const W: usize> BitAnd for Bits<W> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] & rhs.0[w]))
    }
}

impl<const W: usize> BitOr for Bits<W> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] | rhs.0[w]))
    }
}

impl<const W: usize> BitXor for Bits<W> {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        Bits(std::array::from_fn(|w| self.0[w] ^ rhs.0[w]))
    }
}

impl<const W: usize> Not for Bits<W> {
    type Output = Self;
    fn not(self) -> Self {
        Bits(self.0.map(|w| !w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pseudo-random set of `64·W` vertices, about one in three present.
    fn sample<const W: usize>(seed: u64) -> (Bits<W>, Vec<bool>) {
        let mut state = seed | 1;
        let model: Vec<bool> = (0..64 * W)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 3 == 0
            })
            .collect();
        let mut bits = Bits::EMPTY;
        for v in model
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(v, _)| v)
        {
            bits.insert(v);
            bits.insert(v);
        }
        (bits, model)
    }

    fn members<const W: usize>(bits: Bits<W>) -> Vec<bool> {
        (0..64 * W).map(|v| bits.contains(v)).collect()
    }

    /// The members of a `Vec<bool>` model, ascending.
    fn model_members(model: &[bool]) -> Vec<usize> {
        (0..model.len()).filter(|&v| model[v]).collect()
    }

    /// `iter` against the model on `bits` and on `bits` with its low `k`
    /// words emptied, for every `k`: the word walk's skip over empty words.
    fn check_iter<const W: usize>(bits: Bits<W>, model: &[bool]) {
        for k in 0..=W {
            let mut bits = bits;
            bits.0[..k].fill(0);
            let mut model = model.to_vec();
            model[..64 * k].fill(false);
            assert_eq!(
                bits.iter().collect::<Vec<_>>(),
                model_members(&model),
                "W={W} low {k} words empty"
            );
        }
    }

    /// Every shift of every word count the grids use up to four words, the
    /// cross-word ones included, against a `Vec<bool>` model.
    fn check_against_model<const W: usize>() {
        for seed in 1..4 {
            let (bits, model) = sample::<W>(seed * 0x9E37_79B9);
            check_iter(bits, &model);
            assert_eq!(
                bits.count_ones() as usize,
                model.iter().filter(|&&b| b).count()
            );
            for s in 0..64 * W {
                let plus: Vec<bool> = (0..64 * W).map(|v| v >= s && model[v - s]).collect();
                let minus: Vec<bool> = (0..64 * W)
                    .map(|v| v + s < 64 * W && model[v + s])
                    .collect();
                assert_eq!(members(bits.plus(s as u32)), plus, "W={W} plus {s}");
                assert_eq!(members(bits.minus(s as u32)), minus, "W={W} minus {s}");
            }
            for n in 0..=64 * W {
                let below: Vec<bool> = (0..64 * W).map(|v| v < n).collect();
                assert_eq!(members(Bits::<W>::below(n)), below, "W={W} below {n}");
            }
        }
    }

    #[test]
    fn shifts_match_a_vec_bool_model_at_every_offset() {
        check_against_model::<1>();
        check_against_model::<2>();
        check_against_model::<4>();
    }

    /// `iter` at the ladder's wide rungs, on dense and sparse sets (a lone
    /// high member, the top bit of every word, one member per word) with
    /// every run of low words emptied.
    #[test]
    fn iter_matches_a_vec_bool_model_on_the_wide_words() {
        fn check<const W: usize>() {
            for seed in 1..4 {
                let (bits, model) = sample::<W>(seed * 0x9E37_79B9);
                check_iter(bits, &model);
            }
            let sparse: [Vec<bool>; 3] = [
                (0..64 * W).map(|v| v == 64 * W - 1).collect(),
                (0..64 * W).map(|v| v % 64 == 63).collect(),
                (0..64 * W).map(|v| v % 64 == v / 64).collect(),
            ];
            for model in sparse {
                let mut bits = Bits::<W>::EMPTY;
                for v in model_members(&model) {
                    bits.insert(v);
                }
                check_iter(bits, &model);
            }
        }
        check::<8>();
        check::<16>();
    }
}
