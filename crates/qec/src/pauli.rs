//! Single-qubit Pauli operators and Pauli strings.
//!
//! The surface code discretizes arbitrary physical noise into the Pauli group
//! `{I, X, Y, Z}` acting on data qubits (Section II-C of the paper).  This
//! module provides a compact representation of Pauli operators on individual
//! qubits and on the whole data-qubit register, together with the group
//! operations the rest of the stack relies on (composition, commutation with
//! stabilizers, weight counting).
//!
//! Modulo phase a Pauli is its two component bits, so a [`PauliString`] is
//! two bitplanes of `u64` words — the X components, then the Z components.
//! Composition is an XOR of words, weight a popcount, and the supports walk
//! set bits, so a string costs what its words and its non-identity operators
//! cost, not one step per qubit.  The same words are the error payload of the
//! streaming runtime's wire records and traces.

use crate::syndrome::DefectIndices;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, Mul};

/// A single-qubit Pauli operator.
///
/// `Y` is tracked explicitly even though the decoder treats it as a
/// simultaneous `X` and `Z` error, exactly as the paper describes for the
/// stabilizer measurement (Section II-C1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub enum Pauli {
    /// The identity operator.
    #[default]
    I,
    /// The bit-flip operator.
    X,
    /// The combined bit- and phase-flip operator (`Y = iXZ`).
    Y,
    /// The phase-flip operator.
    Z,
}

impl Pauli {
    /// All four Pauli operators, in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The three non-identity Pauli operators.
    pub const ERRORS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns `true` if this operator is the identity.
    #[must_use]
    pub fn is_identity(self) -> bool {
        self == Pauli::I
    }

    /// Returns `true` if this operator has an `X` component (`X` or `Y`).
    ///
    /// X components are what the Z stabilizers of the surface code detect.
    #[must_use]
    pub fn has_x_component(self) -> bool {
        matches!(self, Pauli::X | Pauli::Y)
    }

    /// Returns `true` if this operator has a `Z` component (`Z` or `Y`).
    ///
    /// Z components are what the X stabilizers of the surface code detect.
    #[must_use]
    pub fn has_z_component(self) -> bool {
        matches!(self, Pauli::Z | Pauli::Y)
    }

    /// Returns `true` if `self` and `other` commute as operators.
    ///
    /// Two single-qubit Paulis anticommute exactly when they are distinct and
    /// both non-identity.
    #[must_use]
    pub fn commutes_with(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }

    /// Composes two Paulis, ignoring the global phase.
    ///
    /// The Pauli group modulo phase is isomorphic to `Z_2 x Z_2`; composition
    /// is component-wise XOR of the X and Z parts.
    #[must_use]
    pub fn compose(self, other: Pauli) -> Pauli {
        Pauli::from_components(
            self.has_x_component() ^ other.has_x_component(),
            self.has_z_component() ^ other.has_z_component(),
        )
    }

    /// Builds a Pauli from its X and Z component flags.
    #[must_use]
    pub fn from_components(x: bool, z: bool) -> Pauli {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Returns the weight contribution of this operator (0 for `I`, 1 otherwise).
    #[must_use]
    pub fn weight(self) -> usize {
        usize::from(!self.is_identity())
    }
}

impl Mul for Pauli {
    type Output = Pauli;

    fn mul(self, rhs: Pauli) -> Pauli {
        self.compose(rhs)
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// The Pauli whose component bits are `x | z << 1`; [`PauliString`]'s
/// `Index` hands out references into it.
static BY_COMPONENTS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Z, Pauli::Y];

/// A Pauli operator on a register of qubits, stored as two bitplanes.
///
/// The string is indexed by data-qubit index (see
/// [`Lattice`](crate::lattice::Lattice) for the index convention).  It is the
/// canonical representation of both injected physical errors and decoder
/// corrections.
///
/// The words are the X plane, then the Z plane, each `ceil(len / 64)` words
/// wide: qubit `i` is bit `i % 64` of word `i / 64` of a plane, set in the X
/// plane when the qubit carries an X component (`X` or `Y`) and in the Z
/// plane when it carries a Z component (`Z` or `Y`).
///
/// **Invariant (tail-clean):** every bit at a qubit index `>= len` is zero in
/// both planes after every constructor and mutator, so the derived `Eq` /
/// `Hash` compare operators and the padding of a wire slot never leaks into a
/// string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PauliString {
    len: usize,
    words: Vec<u64>,
}

impl PauliString {
    /// The number of `u64` words holding a string on `len` qubits: two
    /// bitplanes of `ceil(len / 64)` words each.
    #[must_use]
    pub fn words_for(len: usize) -> usize {
        2 * len.div_ceil(64)
    }

    /// Creates an identity Pauli string on `len` qubits.
    #[must_use]
    pub fn identity(len: usize) -> Self {
        PauliString {
            len,
            words: vec![0; Self::words_for(len)],
        }
    }

    /// Creates a string with `pauli` applied on each listed qubit and identity elsewhere.
    ///
    /// Qubits listed more than once compose (so listing a qubit twice cancels).
    ///
    /// # Panics
    ///
    /// Panics if any index in `qubits` is `>= len`.
    #[must_use]
    pub fn from_sparse(len: usize, qubits: &[usize], pauli: Pauli) -> Self {
        let mut s = PauliString::identity(len);
        for &q in qubits {
            s.apply(q, pauli);
        }
        s
    }

    /// The number of qubits the string acts on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the string acts on zero qubits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The X plane and the Z plane.
    fn planes(&self) -> (&[u64], &[u64]) {
        self.words.split_at(self.words.len() / 2)
    }

    /// The X-component plane: bit `i % 64` of word `i / 64` is set when
    /// qubit `i` carries `X` or `Y`.
    pub(crate) fn x_plane(&self) -> &[u64] {
        self.planes().0
    }

    /// The Z-component plane: bit `i % 64` of word `i / 64` is set when
    /// qubit `i` carries `Z` or `Y`.
    pub(crate) fn z_plane(&self) -> &[u64] {
        self.planes().1
    }

    /// The X-plane and Z-plane word indices and the bit mask of qubit
    /// `index`, range-checked: a bit at `index >= len` can lie inside a
    /// plane's last word, where no slice bound would stop it from breaking
    /// tail-clean.
    fn locate(&self, index: usize) -> (usize, usize, u64) {
        assert!(
            index < self.len,
            "qubit {index} out of range for a {}-qubit string",
            self.len
        );
        let word = index / 64;
        (word, self.words.len() / 2 + word, 1 << (index % 64))
    }

    /// The component bits of qubit `index`, `x | z << 1`.
    fn components(&self, index: usize) -> usize {
        let (x, z, mask) = self.locate(index);
        usize::from(self.words[x] & mask != 0) | usize::from(self.words[z] & mask != 0) << 1
    }

    /// Returns the operator acting on qubit `index`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Pauli> {
        (index < self.len).then(|| BY_COMPONENTS[self.components(index)])
    }

    /// Left-multiplies the operator on qubit `index` by `pauli` (composition).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn apply(&mut self, index: usize, pauli: Pauli) {
        let (x, z, mask) = self.locate(index);
        if pauli.has_x_component() {
            self.words[x] ^= mask;
        }
        if pauli.has_z_component() {
            self.words[z] ^= mask;
        }
    }

    /// Left-multiplies the operators on the `count` qubits `first`,
    /// `first + stride`, `first + 2·stride`, … by `pauli`, on the words: a
    /// run of consecutive qubits (`stride` 1) is one masked XOR per word it
    /// touches, a strided run one XOR per qubit.
    ///
    /// # Panics
    ///
    /// Panics if the run's last qubit is `>= self.len()`.
    // Inlined across crates with the lattice's chain toggles.
    #[inline]
    pub fn apply_run(&mut self, pauli: Pauli, first: usize, count: usize, stride: usize) {
        let Some(last) = count.checked_sub(1).map(|k| first + k * stride) else {
            return;
        };
        assert!(
            last < self.len,
            "qubit {last} out of range for a {}-qubit string",
            self.len
        );
        let plane = self.words.len() / 2;
        let (x, z) = self.words.split_at_mut(plane);
        if pauli.has_x_component() {
            toggle_run(x, first, count, stride);
        }
        if pauli.has_z_component() {
            toggle_run(z, first, count, stride);
        }
    }

    /// Sets the operator on qubit `index`, replacing whatever was there.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, pauli: Pauli) {
        let (x, z, mask) = self.locate(index);
        for (word, on) in [(x, pauli.has_x_component()), (z, pauli.has_z_component())] {
            if on {
                self.words[word] |= mask;
            } else {
                self.words[word] &= !mask;
            }
        }
    }

    /// Resets every operator to the identity, keeping the allocation: one
    /// fill of the words.
    ///
    /// This is the reuse hook for allocation-free decode loops: a caller can
    /// hold one `PauliString` buffer and hand it to
    /// `Decoder::decode_into`-style APIs round after round.
    pub fn fill_identity(&mut self) {
        self.words.fill(0);
    }

    /// Resets the string to the identity on `len` qubits, reusing the
    /// existing allocation when it is large enough.
    pub fn reset_identity(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(Self::words_for(len), 0);
    }

    /// Composes `other` into `self` (ignoring global phase): one XOR per word.
    ///
    /// # Panics
    ///
    /// Panics if the two strings act on a different number of qubits.
    pub fn compose_with(&mut self, other: &PauliString) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compose pauli strings of lengths {} and {}",
            self.len(),
            other.len()
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns the composition of `self` and `other` as a new string.
    ///
    /// # Panics
    ///
    /// Panics if the two strings act on a different number of qubits.
    #[must_use]
    pub fn composed(&self, other: &PauliString) -> PauliString {
        let mut out = self.clone();
        out.compose_with(other);
        out
    }

    /// The number of qubits on which the string acts non-trivially (one
    /// popcount per word pair).
    #[must_use]
    pub fn weight(&self) -> usize {
        let (x, z) = self.planes();
        x.iter()
            .zip(z)
            .map(|(x, z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the string is the identity on every qubit.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// Indices of qubits carrying an X component (`X` or `Y`), ascending.
    #[must_use]
    pub fn x_support(&self) -> Vec<usize> {
        DefectIndices::over(self.x_plane()).collect()
    }

    /// Indices of qubits carrying a Z component (`Z` or `Y`), ascending.
    #[must_use]
    pub fn z_support(&self) -> Vec<usize> {
        DefectIndices::over(self.z_plane()).collect()
    }

    /// Indices of qubits on which the string acts non-trivially, ascending.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        let (x, z) = self.planes();
        let either: Vec<u64> = x.iter().zip(z).map(|(x, z)| x | z).collect();
        DefectIndices::over(&either).collect()
    }

    /// Parity (`true` = odd) of the overlap between this string's Z components
    /// and the given qubit set.
    ///
    /// This is the measurement outcome of an X-type stabilizer or logical-X
    /// operator supported on `qubits`.
    #[must_use]
    pub fn z_overlap_parity(&self, qubits: &[usize]) -> bool {
        overlap_parity(self.z_plane(), qubits)
    }

    /// Parity (`true` = odd) of the overlap between this string's X components
    /// and the given qubit set.
    ///
    /// This is the measurement outcome of a Z-type stabilizer or logical-Z
    /// operator supported on `qubits`.
    #[must_use]
    pub fn x_overlap_parity(&self, qubits: &[usize]) -> bool {
        overlap_parity(self.x_plane(), qubits)
    }

    /// Iterates over the per-qubit operators.
    pub fn iter(&self) -> impl Iterator<Item = Pauli> + '_ {
        (0..self.len).map(|i| BY_COMPONENTS[self.components(i)])
    }

    /// Overwrites this string with the contents of `other`, reusing the
    /// existing allocation when it is large enough.
    ///
    /// This is the copy analogue of [`PauliString::fill_identity`] for
    /// allocation-free hot loops.
    pub fn copy_from(&mut self, other: &PauliString) {
        self.len = other.len;
        self.words.clone_from(&other.words);
    }

    /// The words: the X plane, then the Z plane, qubit `i` at bit `i % 64`
    /// of word `i / 64` of each.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites both planes from raw words (e.g. read back out of a
    /// ring-buffer slot or a trace), keeping the length and the allocation.
    /// Bits beyond `len` in each plane's last word are masked off, so slot
    /// padding cannot leak into the string.  Panics unless `words.len()` is
    /// [`PauliString::words_for`]`(self.len())`.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        let expected = self.words.len();
        assert_eq!(words.len(), expected, "expected {expected} words");
        self.words.copy_from_slice(words);
        let plane = expected / 2;
        if plane > 0 {
            let mask = u64::MAX >> (plane * 64 - self.len);
            self.words[plane - 1] &= mask;
            self.words[2 * plane - 1] &= mask;
        }
    }
}

/// Toggles the `count` bits `first, first + stride, …` of `plane`: a mask
/// per word for consecutive bits, a bit at a time otherwise.
fn toggle_run(plane: &mut [u64], first: usize, count: usize, stride: usize) {
    if stride == 1 {
        let (mut q, last) = (first, first + count - 1);
        while q <= last {
            // Bits `q..=high` of the run lie in word `q / 64`.
            let high = last.min(q | 63);
            plane[q / 64] ^= u64::MAX >> (63 - (high - q)) << (q % 64);
            q = high + 1;
        }
    } else {
        for q in (0..count).map(|k| first + k * stride) {
            plane[q / 64] ^= 1 << (q % 64);
        }
    }
}

/// Parity of the set bits of `plane` at the listed qubits; a qubit past the
/// plane counts as clear.
fn overlap_parity(plane: &[u64], qubits: &[usize]) -> bool {
    let bit = |q: usize| plane.get(q / 64).map_or(0, |word| word >> (q % 64) & 1);
    qubits.iter().fold(0, |parity, &q| parity ^ bit(q)) == 1
}

impl Index<usize> for PauliString {
    type Output = Pauli;

    fn index(&self, index: usize) -> &Pauli {
        &BY_COMPONENTS[self.components(index)]
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.iter() {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<Pauli> for PauliString {
    fn from_iter<T: IntoIterator<Item = Pauli>>(iter: T) -> Self {
        let paulis: Vec<Pauli> = iter.into_iter().collect();
        let mut string = PauliString::identity(paulis.len());
        for (i, p) in paulis.into_iter().enumerate() {
            string.set(i, p);
        }
        string
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_commutes_with_everything() {
        for p in Pauli::ALL {
            assert!(Pauli::I.commutes_with(p));
            assert!(p.commutes_with(Pauli::I));
        }
    }

    #[test]
    fn distinct_nontrivial_paulis_anticommute() {
        for a in Pauli::ERRORS {
            for b in Pauli::ERRORS {
                if a == b {
                    assert!(a.commutes_with(b));
                } else {
                    assert!(!a.commutes_with(b));
                }
            }
        }
    }

    #[test]
    fn composition_matches_group_table() {
        assert_eq!(Pauli::X * Pauli::Z, Pauli::Y);
        assert_eq!(Pauli::Z * Pauli::X, Pauli::Y);
        assert_eq!(Pauli::X * Pauli::X, Pauli::I);
        assert_eq!(Pauli::Y * Pauli::Y, Pauli::I);
        assert_eq!(Pauli::Z * Pauli::Z, Pauli::I);
        assert_eq!(Pauli::X * Pauli::Y, Pauli::Z);
        assert_eq!(Pauli::Y * Pauli::Z, Pauli::X);
        assert_eq!(Pauli::I * Pauli::Z, Pauli::Z);
    }

    #[test]
    fn components_round_trip() {
        for p in Pauli::ALL {
            assert_eq!(
                Pauli::from_components(p.has_x_component(), p.has_z_component()),
                p
            );
        }
    }

    #[test]
    fn y_has_both_components() {
        assert!(Pauli::Y.has_x_component());
        assert!(Pauli::Y.has_z_component());
        assert!(!Pauli::X.has_z_component());
        assert!(!Pauli::Z.has_x_component());
    }

    #[test]
    fn string_weight_and_support() {
        let mut s = PauliString::identity(5);
        assert_eq!(s.weight(), 0);
        assert!(s.is_identity());
        s.apply(1, Pauli::X);
        s.apply(3, Pauli::Z);
        s.apply(4, Pauli::Y);
        assert_eq!(s.weight(), 3);
        assert_eq!(s.support(), vec![1, 3, 4]);
        assert_eq!(s.x_support(), vec![1, 4]);
        assert_eq!(s.z_support(), vec![3, 4]);
    }

    /// A run toggles what applying its qubits one by one toggles, across
    /// word boundaries, in both planes.
    #[test]
    fn apply_run_equals_applying_each_qubit() {
        for len in [1, 63, 64, 65, 200] {
            for pauli in Pauli::ALL {
                for (first, stride) in [(0, 1), (1, 1), (60, 1), (63, 1), (0, 5), (7, 61)] {
                    for count in 0..=len {
                        if count > 0 && first + (count - 1) * stride >= len {
                            break;
                        }
                        let mut run = PauliString::identity(len);
                        run.apply_run(pauli, first, count, stride);
                        let mut each = PauliString::identity(len);
                        for k in 0..count {
                            each.apply(first + k * stride, pauli);
                        }
                        assert_eq!(run, each, "{len} {pauli} {first}+{stride}*{count}");
                    }
                }
            }
        }
    }

    #[test]
    fn applying_same_pauli_twice_cancels() {
        let mut s = PauliString::identity(3);
        s.apply(0, Pauli::Z);
        s.apply(0, Pauli::Z);
        assert!(s.is_identity());
    }

    #[test]
    fn apply_composes_rather_than_overwrites() {
        let mut s = PauliString::identity(1);
        s.apply(0, Pauli::X);
        s.apply(0, Pauli::Z);
        assert_eq!(s[0], Pauli::Y);
        s.set(0, Pauli::Z);
        assert_eq!(s[0], Pauli::Z);
    }

    #[test]
    fn from_sparse_cancels_duplicates() {
        let s = PauliString::from_sparse(4, &[0, 2, 2], Pauli::Z);
        assert_eq!(s[0], Pauli::Z);
        assert_eq!(s[2], Pauli::I);
        assert_eq!(s.weight(), 1);
    }

    #[test]
    fn overlap_parities() {
        let s = PauliString::from_sparse(6, &[0, 2, 4], Pauli::Z);
        assert!(s.z_overlap_parity(&[0, 1]));
        assert!(!s.z_overlap_parity(&[0, 2]));
        assert!(!s.x_overlap_parity(&[0, 2]));
        let y = PauliString::from_sparse(6, &[1], Pauli::Y);
        assert!(y.z_overlap_parity(&[1]));
        assert!(y.x_overlap_parity(&[1]));
    }

    #[test]
    fn composition_of_strings() {
        let a = PauliString::from_sparse(4, &[0, 1], Pauli::X);
        let b = PauliString::from_sparse(4, &[1, 2], Pauli::Z);
        let c = a.composed(&b);
        assert_eq!(c[0], Pauli::X);
        assert_eq!(c[1], Pauli::Y);
        assert_eq!(c[2], Pauli::Z);
        assert_eq!(c[3], Pauli::I);
    }

    #[test]
    #[should_panic(expected = "cannot compose")]
    fn composing_mismatched_lengths_panics() {
        let mut a = PauliString::identity(3);
        let b = PauliString::identity(4);
        a.compose_with(&b);
    }

    #[test]
    fn display_round_trip() {
        let s: PauliString = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z]
            .into_iter()
            .collect();
        assert_eq!(s.to_string(), "IXYZ");
        assert_eq!(Pauli::Y.to_string(), "Y");
    }

    #[test]
    fn collect_from_iterator() {
        let s: PauliString = [Pauli::X, Pauli::I, Pauli::Z].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s.weight(), 2);
    }

    #[test]
    fn copy_from_reuses_the_buffer() {
        let src = PauliString::from_sparse(5, &[1, 3], Pauli::Y);
        let mut dst = PauliString::identity(5);
        let base = dst.words.as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.words.as_ptr(), base, "copy_from must not reallocate");
    }

    #[test]
    fn pack_unpack_round_trips_every_pauli() {
        let mut s = PauliString::identity(130);
        for (i, p) in (0..130).zip(Pauli::ALL.iter().cycle()) {
            s.set(i, *p);
        }
        let mut out = PauliString::identity(130);
        out.copy_from_words(s.words());
        assert_eq!(out, s);
        assert_eq!(out.iter().collect::<PauliString>(), s);
    }

    #[test]
    fn words_for_covers_both_planes() {
        assert_eq!(PauliString::words_for(0), 0);
        assert_eq!(PauliString::words_for(1), 2);
        assert_eq!(PauliString::words_for(64), 2);
        assert_eq!(PauliString::words_for(65), 4);
        assert_eq!(PauliString::identity(145).words().len(), 6);
    }

    /// A string's words go into the front of a larger record slot, and come
    /// back out of a slot whose padding bits are garbage.
    #[test]
    fn pack_ignores_trailing_capacity_and_unpack_ignores_padding_bits() {
        let s = PauliString::from_sparse(3, &[0, 2], Pauli::X);
        let mut slot = vec![0xdead_u64; PauliString::words_for(3) + 2];
        slot[..s.words().len()].copy_from_slice(s.words());
        assert_eq!(slot[PauliString::words_for(3)..], [0xdead, 0xdead]);
        // Pollute padding bits above qubit 2 in both planes.
        slot[0] |= !0b111;
        slot[1] |= !0b111;
        let mut out = PauliString::identity(3);
        out.copy_from_words(&slot[..PauliString::words_for(3)]);
        assert_eq!(out, s);
    }

    #[test]
    #[should_panic(expected = "expected 4 words")]
    fn copy_from_words_rejects_wrong_word_count() {
        PauliString::identity(65).copy_from_words(&[0, 0]);
    }

    fn hash_of(s: &PauliString) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut hasher);
        hasher.finish()
    }

    /// Tail-clean: no mutator leaves a bit past `len` that the derived
    /// `Eq` / `Hash` would see.
    #[test]
    fn shrinking_and_polluted_words_stay_tail_clean() {
        let mut s = PauliString::from_sparse(145, &[0, 12, 13, 63, 64, 144], Pauli::Y);
        s.reset_identity(145);
        s.set(100, Pauli::X);
        s.reset_identity(13);
        assert_eq!(s, PauliString::identity(13));
        assert_eq!(hash_of(&s), hash_of(&PauliString::identity(13)));

        for len in [1, 13, 63, 64, 65, 145] {
            let mut clean = PauliString::identity(len);
            clean.set(0, Pauli::Y);
            clean.set(len - 1, Pauli::Y);
            let mut polluted = vec![u64::MAX; PauliString::words_for(len)];
            let plane = polluted.len() / 2;
            for (word, &bits) in polluted.iter_mut().zip(clean.words()) {
                *word = bits;
            }
            let padding = !(u64::MAX >> (plane * 64 - len));
            polluted[plane - 1] |= padding;
            polluted[2 * plane - 1] |= padding;
            let mut out = PauliString::identity(len);
            out.copy_from_words(&polluted);
            assert_eq!(out, clean, "len {len}");
            assert_eq!(hash_of(&out), hash_of(&clean), "len {len}");
            assert_eq!(out.weight(), 2.min(len), "len {len}");
        }
    }

    /// `index == len` must panic even where that bit lies inside a plane's
    /// last word (13, 130) — a word has no bounds check of its own there.
    macro_rules! panics_at_len {
        ($($name:ident: $len:expr, $op:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "out of range")]
            fn $name() {
                let op: fn(&mut PauliString, usize) = $op;
                op(&mut PauliString::identity($len), $len);
            }
        )*};
    }
    panics_at_len! {
        index_at_len_13_panics: 13, |s, i| assert_eq!(s[i], Pauli::I);
        index_at_len_64_panics: 64, |s, i| assert_eq!(s[i], Pauli::I);
        index_at_len_130_panics: 130, |s, i| assert_eq!(s[i], Pauli::I);
        set_at_len_13_panics: 13, |s, i| s.set(i, Pauli::Z);
        apply_at_len_130_panics: 130, |s, i| s.apply(i, Pauli::X);
    }

    #[test]
    fn get_past_len_is_none() {
        let s = PauliString::identity(13);
        assert_eq!(s.get(12), Some(Pauli::I));
        assert_eq!(s.get(13), None);
        assert_eq!(s.get(64), None);
    }
}
