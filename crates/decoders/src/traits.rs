//! The common decoder interface and correction types.
//!
//! Every decoder in the workspace — the software baselines in this crate and
//! the SFQ mesh decoder in `nisqplus-core` — consumes a syndrome for one
//! stabilizer sector and writes the correction into a caller-owned
//! [`PauliString`] ([`Decoder::decode_into`]); [`Decoder::decode`] is the
//! same code behind a fresh buffer, returned as a [`Correction`].  A
//! [`Matching`] is a pairing of defects that the matching decoders and the
//! analysis code build and toggle into a correction buffer.

use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One element of a defect pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchPair {
    /// Two detection events paired with each other (by ancilla index).
    Defects(usize, usize),
    /// A detection event paired with the nearest lattice boundary.
    ToBoundary(usize),
}

impl MatchPair {
    /// Returns a canonical form with defect indices in ascending order.
    #[must_use]
    pub fn canonical(self) -> MatchPair {
        match self {
            MatchPair::Defects(a, b) if a > b => MatchPair::Defects(b, a),
            other => other,
        }
    }

    /// The number of data qubits the corresponding correction chain crosses.
    #[must_use]
    pub fn chain_length(&self, lattice: &Lattice) -> usize {
        match *self {
            MatchPair::Defects(a, b) => lattice.ancilla_distance(a, b),
            MatchPair::ToBoundary(a) => lattice.boundary_distance(a),
        }
    }
}

/// A complete pairing of the detection events of one sector.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Matching {
    pairs: Vec<MatchPair>,
}

impl Matching {
    /// Creates an empty matching.
    #[must_use]
    pub fn new() -> Self {
        Matching { pairs: Vec::new() }
    }

    /// Creates a matching from a list of pairs.
    #[must_use]
    pub fn from_pairs(pairs: Vec<MatchPair>) -> Self {
        Matching { pairs }
    }

    /// Adds one pair to the matching.
    pub fn push(&mut self, pair: MatchPair) {
        self.pairs.push(pair);
    }

    /// The pairs of the matching.
    #[must_use]
    pub fn pairs(&self) -> &[MatchPair] {
        &self.pairs
    }

    /// The number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if the matching contains no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total chain length (number of data qubits) of the matching.
    #[must_use]
    pub fn total_weight(&self, lattice: &Lattice) -> usize {
        self.pairs.iter().map(|p| p.chain_length(lattice)).sum()
    }

    /// Returns `true` if every defect in `defects` appears exactly once.
    #[must_use]
    pub fn covers_exactly(&self, defects: &[usize]) -> bool {
        let mut seen = Vec::new();
        for pair in &self.pairs {
            match *pair {
                MatchPair::Defects(a, b) => {
                    seen.push(a);
                    seen.push(b);
                }
                MatchPair::ToBoundary(a) => seen.push(a),
            }
        }
        seen.sort_unstable();
        let mut expected = defects.to_vec();
        expected.sort_unstable();
        seen == expected
    }

    /// Toggles the matching's correction chains into `out` for the given
    /// sector, on top of whatever `out` already holds.
    ///
    /// X-sector matchings correct Z errors (and vice versa), so the chain data
    /// qubits receive `Z` flips in the X sector and `X` flips in the Z sector.
    ///
    /// # Panics
    ///
    /// Panics if a pair's ancillas are not in one sector, or if `out` is not
    /// indexed by the lattice's data qubits.
    pub fn apply_to(&self, lattice: &Lattice, sector: Sector, out: &mut PauliString) {
        let pauli = sector_correction_pauli(sector);
        for pair in &self.pairs {
            match *pair {
                MatchPair::Defects(a, b) => lattice.apply_correction_path(a, b, pauli, out),
                MatchPair::ToBoundary(a) => lattice.apply_boundary_path(a, pauli, out),
            }
        }
    }
}

impl FromIterator<MatchPair> for Matching {
    fn from_iter<T: IntoIterator<Item = MatchPair>>(iter: T) -> Self {
        Matching {
            pairs: iter.into_iter().collect(),
        }
    }
}

/// The Pauli flip a correction applies in a given sector.
///
/// The X sector detects Z errors, so its corrections are Z flips; the Z
/// sector detects X errors and corrects with X flips.
#[must_use]
pub fn sector_correction_pauli(sector: Sector) -> Pauli {
    match sector {
        Sector::X => Pauli::Z,
        Sector::Z => Pauli::X,
    }
}

/// A decoder's output: the Pauli flips that correct one sector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Correction {
    flips: PauliString,
}

impl Correction {
    /// Creates a correction directly from a Pauli string.
    #[must_use]
    pub fn from_pauli_string(flips: PauliString) -> Self {
        Correction { flips }
    }

    /// The Pauli flips to apply to the data qubits.
    #[must_use]
    pub fn pauli_string(&self) -> &PauliString {
        &self.flips
    }

    /// The number of data qubits flipped by the correction.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.flips.weight()
    }

    /// Consumes the correction, returning the underlying Pauli string.
    #[must_use]
    pub fn into_pauli_string(self) -> PauliString {
        self.flips
    }
}

impl fmt::Display for Correction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "correction of weight {}", self.weight())
    }
}

/// A surface-code decoder operating on one stabilizer sector at a time.
///
/// A decoder's output depends only on (lattice, syndrome, sector).  State it
/// keeps between calls (hence `&mut self`) may be scratch, or a memo of that
/// function, such as union-find's table of low-weight decodes; never
/// anything that makes one call's answer depend on an earlier call.
///
/// `Send` is a supertrait so that decoders can be moved onto worker threads
/// (the streaming runtime hands one decoder instance to each worker) without
/// wrapper types; all decoders in the workspace are also `Sync`, which the
/// compile-time assertions in this crate's and `nisqplus-core`'s tests pin
/// down.
pub trait Decoder: Send {
    /// A short human-readable name for reports ("mwpm", "union-find", "sfq-mesh", ...).
    fn name(&self) -> &str;

    /// Precomputes lattice-keyed state (sector graphs, flat index maps, edge
    /// templates) and sizes the decoder's scratch arenas, so that subsequent
    /// [`Decoder::decode_into`] calls on the same lattice run the amortized
    /// hot path — ideally without any heap allocation.
    ///
    /// Calling `prepare` is optional: decoders that cache prepared state also
    /// build it lazily on the first decode of an unseen lattice.  It
    /// is idempotent, and preparing for a new lattice replaces the state for
    /// the old one.  The default implementation is a no-op for decoders with
    /// nothing to precompute.
    fn prepare(&mut self, lattice: &Lattice) {
        let _ = lattice;
    }

    /// Decodes one sector's syndrome, overwriting `out` with the correction's
    /// Pauli flips (any previous contents of `out`, whatever its size, are
    /// discarded).
    ///
    /// This is the one decode method a decoder writes.  A caller that holds
    /// one `PauliString` buffer per sector can decode round after round
    /// without allocating: the prepared decoders in the workspace do not
    /// allocate here in steady state.
    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    );

    /// Decodes one sector's syndrome into a fresh [`Correction`]:
    /// [`Decoder::decode_into`] behind a newly allocated buffer.
    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        let mut flips = PauliString::identity(lattice.num_data());
        self.decode_into(lattice, syndrome, sector, &mut flips);
        Correction::from_pauli_string(flips)
    }
}

impl<D: Decoder + ?Sized> Decoder for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn prepare(&mut self, lattice: &Lattice) {
        (**self).prepare(lattice);
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        (**self).decode_into(lattice, syndrome, sector, out);
    }
}

/// A boxed decoder, movable across worker threads.
///
/// `Box<dyn Decoder>` itself implements [`Decoder`] (forwarding `name`,
/// `prepare` and `decode_into`), so wrappers generic over a `D: Decoder` —
/// e.g. a throttling or logging adapter — can wrap the product of any
/// [`DecoderFactory`] without knowing the concrete decoder type.
pub type DynDecoder = Box<dyn Decoder>;

/// A thread-shareable factory producing fresh decoder instances.
///
/// Worker pools cannot share one `&mut` decoder, so instead each worker asks
/// the factory for its own instance.  Any `Fn() -> DynDecoder` closure is a
/// factory:
///
/// ```rust
/// use nisqplus_decoders::{DecoderFactory, DynDecoder, GreedyMatchingDecoder};
///
/// let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;
/// let per_worker = factory.build();
/// assert_eq!(per_worker.name(), "greedy-matching");
/// ```
pub trait DecoderFactory: Send + Sync {
    /// Builds one fresh decoder instance (typically one per worker thread).
    fn build(&self) -> DynDecoder;
}

impl<F> DecoderFactory for F
where
    F: Fn() -> DynDecoder + Send + Sync,
{
    fn build(&self) -> DynDecoder {
        self()
    }
}

/// A reference-counted, thread-shareable decoder factory.
///
/// This is the currency of *heterogeneous* decoder assignment: a runtime can
/// hold one shared factory per lattice (or per distance class) and hand
/// clones of the `Arc` to every worker.  `Arc<dyn DecoderFactory>` itself
/// implements [`DecoderFactory`] by delegation, so shared and plain factories
/// are interchangeable at every call site.
pub type SharedDecoderFactory = std::sync::Arc<dyn DecoderFactory>;

impl DecoderFactory for SharedDecoderFactory {
    fn build(&self) -> DynDecoder {
        (**self).build()
    }
}

/// Sorts defect pairs by chain length (then lexicographically) — the shared
/// edge ordering used by the greedy decoders.
#[must_use]
pub fn sorted_defect_edges(lattice: &Lattice, defects: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut edges = Vec::new();
    for (i, &a) in defects.iter().enumerate() {
        for &b in &defects[i + 1..] {
            edges.push((lattice.ancilla_distance(a, b), a, b));
        }
    }
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::lattice::Lattice;

    fn lattice() -> Lattice {
        Lattice::new(5).unwrap()
    }

    #[test]
    fn match_pair_canonicalization() {
        assert_eq!(
            MatchPair::Defects(5, 2).canonical(),
            MatchPair::Defects(2, 5)
        );
        assert_eq!(
            MatchPair::Defects(1, 4).canonical(),
            MatchPair::Defects(1, 4)
        );
        assert_eq!(
            MatchPair::ToBoundary(3).canonical(),
            MatchPair::ToBoundary(3)
        );
    }

    #[test]
    fn matching_covers_exactly() {
        let m = Matching::from_pairs(vec![MatchPair::Defects(1, 4), MatchPair::ToBoundary(7)]);
        assert!(m.covers_exactly(&[1, 4, 7]));
        assert!(!m.covers_exactly(&[1, 4]));
        assert!(!m.covers_exactly(&[1, 4, 7, 9]));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn matching_to_correction_clears_syndrome() {
        let lat = lattice();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let (a, b) = (xs[2], xs[7]);
        let m = Matching::from_pairs(vec![MatchPair::Defects(a, b)]);
        let mut flips = PauliString::identity(lat.num_data());
        m.apply_to(&lat, Sector::X, &mut flips);
        let syndrome = lat.syndrome_of(&flips);
        let mut defects = lat.defects(&syndrome, Sector::X);
        defects.sort_unstable();
        let mut expected = vec![a, b];
        expected.sort_unstable();
        assert_eq!(defects, expected);
        assert_eq!(flips.weight(), lat.ancilla_distance(a, b));
        // Applying the same chains again toggles them back out.
        m.apply_to(&lat, Sector::X, &mut flips);
        assert!(flips.is_identity());
    }

    #[test]
    fn sector_correction_paulis() {
        assert_eq!(sector_correction_pauli(Sector::X), Pauli::Z);
        assert_eq!(sector_correction_pauli(Sector::Z), Pauli::X);
    }

    #[test]
    fn sorted_edges_are_ascending() {
        let lat = lattice();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let defects = vec![xs[0], xs[3], xs[10], xs[15]];
        let edges = sorted_defect_edges(&lat, &defects);
        assert_eq!(edges.len(), 6);
        for w in edges.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn identity_correction_has_zero_weight() {
        let c = Correction::from_pauli_string(PauliString::identity(10));
        assert_eq!(c.weight(), 0);
        assert_eq!(c.pauli_string().len(), 10);
        assert_eq!(c.to_string(), "correction of weight 0");
    }

    /// Compile-time assertion: every decoder in this crate is `Send + Sync`,
    /// and boxed decoders can cross thread boundaries.  A decoder gaining a
    /// non-thread-safe field (`Rc`, raw pointer, ...) fails this at compile
    /// time, not at runtime inside the worker pool.
    #[test]
    fn decoders_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<crate::lookup::LookupDecoder>();
        assert_send_sync::<crate::matching::GreedyMatchingDecoder>();
        assert_send_sync::<crate::matching::ExactMatchingDecoder>();
        assert_send_sync::<crate::union_find::UnionFindDecoder>();
        assert_send::<super::DynDecoder>();
    }

    #[test]
    fn boxed_decoders_forward_the_trait() {
        use crate::matching::GreedyMatchingDecoder;
        let lat = lattice();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let syndrome =
            nisqplus_qec::syndrome::Syndrome::from_hot(lat.num_ancillas(), &[xs[0], xs[1]]);
        let mut plain = GreedyMatchingDecoder::new();
        let mut boxed: DynDecoder = Box::new(GreedyMatchingDecoder::new());
        assert_eq!(boxed.name(), plain.name());
        boxed.prepare(&lat);
        assert_eq!(
            boxed.decode(&lat, &syndrome, Sector::X),
            plain.decode(&lat, &syndrome, Sector::X)
        );
        let mut from_box = PauliString::identity(lat.num_data());
        let mut from_plain = PauliString::identity(lat.num_data());
        boxed.decode_into(&lat, &syndrome, Sector::X, &mut from_box);
        plain.decode_into(&lat, &syndrome, Sector::X, &mut from_plain);
        assert_eq!(from_box, from_plain);
    }

    #[test]
    fn shared_factories_delegate() {
        use super::SharedDecoderFactory;
        use crate::matching::GreedyMatchingDecoder;
        let shared: SharedDecoderFactory =
            std::sync::Arc::new(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        assert_eq!(shared.build().name(), "greedy-matching");
        // The Arc is itself a factory, so it satisfies factory bounds.
        fn assert_factory<T: DecoderFactory>(_: &T) {}
        assert_factory(&shared);
        assert_factory(&shared.clone());
    }

    #[test]
    fn closure_factories_build_fresh_decoders() {
        use super::{DecoderFactory, DynDecoder};
        use crate::matching::GreedyMatchingDecoder;
        let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;
        let lat = lattice();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let syndrome =
            nisqplus_qec::syndrome::Syndrome::from_hot(lat.num_ancillas(), &[xs[0], xs[1]]);
        // Two workers building from the same factory decode independently and
        // identically.
        let mut a = factory.build();
        let mut b = factory.build();
        assert_eq!(a.name(), b.name());
        assert_eq!(
            a.decode(&lat, &syndrome, Sector::X),
            b.decode(&lat, &syndrome, Sector::X)
        );
        // Factories are shareable across threads.
        fn assert_factory<T: DecoderFactory>(_: &T) {}
        assert_factory(&factory);
    }
}
