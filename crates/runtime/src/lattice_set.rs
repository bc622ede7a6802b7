//! The lattice registry: one engine, many logical qubits.
//!
//! The paper's backlog argument (Section III) and the SQV expansion
//! (Figure 10) are about a *machine*, not a single surface-code patch: every
//! logical qubit has its own lattice streaming syndromes every ~400 ns, and
//! the decoder fabric must keep up with all of them at once.  A
//! [`LatticeSet`] registers N lattices — of possibly different distances,
//! noise channels, seeds and cadences — under dense integer ids, which is
//! what the packet header's `lattice_id` field refers to and what the
//! per-lattice telemetry is keyed by.
//!
//! Every lattice's rounds share the machine's one ring and its one
//! [`PushPolicy`](crate::PushPolicy): a spec says what its lattice streams
//! and which decoder serves it, not how its rounds are admitted.

use crate::source::NoiseSpec;
use nisqplus_decoders::traits::{DecoderFactory, DynDecoder, SharedDecoderFactory};
use nisqplus_qec::lattice::Lattice;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_qec::QecError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A per-lattice decoder-factory override: this lattice's rounds are decoded
/// by instances built from *this* factory instead of the machine-wide one.
///
/// This is how a machine mixes decoder algorithms — e.g. the exhaustive
/// lookup decoder for its d=3 patches beside union-find for its d=7 patches.
/// Two lattices holding clones of the same `LatticeDecoder` (same underlying
/// `Arc`) share one prepared decoder instance per worker when their
/// distances match; distinct factories always get distinct instances.
///
/// The wrapper exists so [`LatticeSpec`] stays `Clone`/`Debug`/`PartialEq`:
/// factories themselves are opaque, so equality is identity (`Arc::ptr_eq`)
/// and the field is skipped by serialization (a deserialized spec falls back
/// to the machine-wide factory).
#[derive(Clone)]
pub struct LatticeDecoder(SharedDecoderFactory);

impl LatticeDecoder {
    /// Wraps a factory for use as a per-lattice override.
    #[must_use]
    pub fn new(factory: impl DecoderFactory + 'static) -> Self {
        LatticeDecoder(Arc::new(factory))
    }

    /// Wraps an already-shared factory without another allocation.
    #[must_use]
    pub fn from_shared(factory: SharedDecoderFactory) -> Self {
        LatticeDecoder(factory)
    }

    /// Builds one fresh decoder instance from the override's factory.
    #[must_use]
    pub fn build(&self) -> DynDecoder {
        self.0.build()
    }

    /// A token identifying the underlying factory: two overrides with equal
    /// keys share prepared decoder instances (per worker, per distance).
    #[must_use]
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as *const () as usize
    }
}

impl fmt::Debug for LatticeDecoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LatticeDecoder")
            .field(&format_args!("{:#x}", self.key()))
            .finish()
    }
}

impl PartialEq for LatticeDecoder {
    /// Identity equality: same shared factory, not same algorithm.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Everything that defines one logical qubit's syndrome stream, plus the
/// decoder that serves it.
///
/// The stream fields (`distance`, `noise`, `seed`, `rounds`,
/// `cadence_cycles`, `retunes`) say what the lattice *produces*;
/// [`LatticeSpec::decoder`] optionally overrides the machine-wide decoder
/// factory.  What happens when the fabric cannot keep up is the machine's
/// one [`PushPolicy`](crate::PushPolicy) at its one ring, the same for every
/// lattice.  The builder methods chain:
///
/// ```rust
/// use nisqplus_runtime::LatticeSpec;
///
/// let spec = LatticeSpec::new(3).with_rounds(500).with_seed(7);
/// assert_eq!((spec.rounds, spec.seed), (500, 7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeSpec {
    /// Surface-code distance of this lattice.
    pub distance: usize,
    /// The stochastic error channel driving this lattice's stream.
    pub noise: NoiseSpec,
    /// Seed of this lattice's syndrome stream (independent per lattice; the
    /// same `(distance, noise, seed)` triple always yields the same stream).
    pub seed: u64,
    /// Number of syndrome-generation rounds this lattice streams.
    pub rounds: u64,
    /// Syndrome-generation period in decoder clock cycles (mapped to
    /// nanoseconds by the engine's cycle-time converter).  `0` disables
    /// pacing for this lattice: its rounds are interleaved round-robin with
    /// other unpaced lattices as fast as the producer can generate them.
    pub cadence_cycles: usize,
    /// Changes of this lattice's channel, keyed on its own rounds: from
    /// each entry's round on, the stream samples the entry's channel until
    /// the next re-tune.  A re-calibration is one entry; a burst of noise
    /// is two, one to the hot channel at its first round and one back at
    /// its end.  Entries take effect in round order; of two at one round,
    /// the later entry wins.  Part of the stream's replayable identity.
    /// Empty streams `noise` throughout.
    pub retunes: Vec<(u64, NoiseSpec)>,
    /// Per-lattice decoder override; `None` uses the factory passed to
    /// [`StreamingEngine::run`](crate::StreamingEngine::run).  Not
    /// serialized (factories are code, not data).
    #[serde(skip)]
    pub decoder: Option<LatticeDecoder>,
}

impl LatticeSpec {
    /// A paper-shaped spec: pure dephasing at 3%, 10 000 rounds, one round
    /// per 400 ns, the machine-wide decoder.
    #[must_use]
    pub fn new(distance: usize) -> Self {
        LatticeSpec {
            distance,
            noise: NoiseSpec::PureDephasing { p: 0.03 },
            seed: 2020,
            rounds: 10_000,
            cadence_cycles: crate::engine::RuntimeConfig::PAPER_CADENCE_CYCLES,
            retunes: Vec::new(),
            decoder: None,
        }
    }

    /// Sets the noise channel.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of rounds streamed.
    #[must_use]
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the syndrome-generation cadence in decoder clock cycles (`0`
    /// disables pacing).
    #[must_use]
    pub fn with_cadence_cycles(mut self, cadence_cycles: usize) -> Self {
        self.cadence_cycles = cadence_cycles;
        self
    }

    /// Re-tunes this lattice's channel to `noise` from its round
    /// `round` on (see [`LatticeSpec::retunes`]).
    #[must_use]
    pub fn with_retune(mut self, round: u64, noise: NoiseSpec) -> Self {
        self.retunes.push((round, noise));
        self
    }

    /// Assigns this lattice its own decoder factory.
    #[must_use]
    pub fn with_decoder(mut self, factory: impl DecoderFactory + 'static) -> Self {
        self.decoder = Some(LatticeDecoder::new(factory));
        self
    }

    /// Assigns an already-shared decoder factory (lattices holding clones of
    /// the same `Arc` share prepared instances per worker and distance).
    #[must_use]
    pub fn with_shared_decoder(mut self, factory: SharedDecoderFactory) -> Self {
        self.decoder = Some(LatticeDecoder::from_shared(factory));
        self
    }
}

/// A dense registry of lattices served by one engine.
///
/// Lattice ids are indices into the registration order: the first spec gets
/// id 0, the second id 1, and so on.  The set also fixes the record size of
/// the run — ring records are sized for the *largest* registered lattice
/// (see [`PacketCodec`](crate::packet::PacketCodec)).
#[derive(Debug, Clone)]
pub struct LatticeSet {
    specs: Vec<LatticeSpec>,
    lattices: Vec<Arc<Lattice>>,
}

impl LatticeSet {
    /// Builds and validates the lattices for `specs`, in id order.
    ///
    /// Lattices of equal distance share one underlying [`Lattice`] instance
    /// (the surface-code layout is a pure function of the distance), so
    /// prepared decoder state and scratch arenas keyed by distance are reused
    /// across them.
    ///
    /// # Errors
    ///
    /// Returns a [`QecError`] if any distance is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or any spec streams zero rounds.
    pub fn new(specs: Vec<LatticeSpec>) -> Result<Self, QecError> {
        assert!(
            !specs.is_empty(),
            "a lattice set needs at least one lattice"
        );
        let mut lattices: Vec<Arc<Lattice>> = Vec::with_capacity(specs.len());
        for spec in &specs {
            assert!(spec.rounds > 0, "every lattice streams at least one round");
            let existing = lattices
                .iter()
                .find(|l| l.distance() == spec.distance)
                .cloned();
            let lattice = match existing {
                Some(shared) => shared,
                None => Arc::new(Lattice::new(spec.distance)?),
            };
            lattices.push(lattice);
        }
        Ok(LatticeSet { specs, lattices })
    }

    /// The number of registered lattices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if no lattices are registered (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec registered under `lattice_id`.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn spec(&self, lattice_id: usize) -> &LatticeSpec {
        &self.specs[lattice_id]
    }

    /// The lattice registered under `lattice_id`.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn lattice(&self, lattice_id: usize) -> &Arc<Lattice> {
        &self.lattices[lattice_id]
    }

    /// Iterates `(lattice_id, spec, lattice)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &LatticeSpec, &Arc<Lattice>)> {
        self.specs
            .iter()
            .zip(&self.lattices)
            .enumerate()
            .map(|(id, (spec, lattice))| (id, spec, lattice))
    }

    /// The ancilla count (syndrome bit length) of each lattice, in id order.
    #[must_use]
    pub fn ancilla_bits(&self) -> Vec<usize> {
        self.lattices.iter().map(|l| l.num_ancillas()).collect()
    }

    /// The data-qubit count of each lattice, in id order — what sizes the
    /// packed-error payload of an error-carrying
    /// [`PacketCodec`](crate::packet::PacketCodec).
    #[must_use]
    pub fn data_bits(&self) -> Vec<usize> {
        self.lattices.iter().map(|l| l.num_data()).collect()
    }

    /// The largest ancilla count across the set — what sizes the ring records.
    #[must_use]
    pub fn max_ancillas(&self) -> usize {
        self.lattices
            .iter()
            .map(|l| l.num_ancillas())
            .max()
            .expect("set is non-empty")
    }

    /// The number of `u64` words the largest lattice's syndrome needs.
    #[must_use]
    pub fn max_syndrome_words(&self) -> usize {
        Syndrome::words_for(self.max_ancillas())
    }

    /// Total rounds streamed across all lattices.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.specs.iter().map(|s| s.rounds).sum()
    }

    /// The distinct code distances in the set, ascending.
    #[must_use]
    pub fn distances(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.specs.iter().map(|s| s.distance).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_specs() -> Vec<LatticeSpec> {
        [3, 5, 3, 7]
            .iter()
            .map(|&d| {
                let mut spec = LatticeSpec::new(d);
                spec.rounds = 10;
                spec
            })
            .collect()
    }

    #[test]
    fn ids_follow_registration_order() {
        let set = LatticeSet::new(mixed_specs()).unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.spec(0).distance, 3);
        assert_eq!(set.spec(1).distance, 5);
        assert_eq!(set.spec(3).distance, 7);
        assert_eq!(set.lattice(3).distance(), 7);
        assert_eq!(set.total_rounds(), 40);
        assert_eq!(set.distances(), vec![3, 5, 7]);
        let ids: Vec<usize> = set.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn equal_distances_share_one_lattice_instance() {
        let set = LatticeSet::new(mixed_specs()).unwrap();
        assert!(Arc::ptr_eq(set.lattice(0), set.lattice(2)));
        assert!(!Arc::ptr_eq(set.lattice(0), set.lattice(1)));
    }

    #[test]
    fn record_sizing_tracks_the_largest_lattice() {
        let set = LatticeSet::new(mixed_specs()).unwrap();
        // d=7: 48 ancillas -> largest syndrome in the set.
        assert_eq!(set.max_ancillas(), set.lattice(3).num_ancillas());
        assert_eq!(
            set.max_syndrome_words(),
            Syndrome::words_for(set.max_ancillas())
        );
        let bits = set.ancilla_bits();
        assert_eq!(bits.len(), 4);
        assert_eq!(bits[0], set.lattice(0).num_ancillas());
    }

    #[test]
    #[should_panic(expected = "at least one lattice")]
    fn empty_set_rejected() {
        let _ = LatticeSet::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_round_lattice_rejected() {
        let mut spec = LatticeSpec::new(3);
        spec.rounds = 0;
        let _ = LatticeSet::new(vec![spec]);
    }

    #[test]
    fn invalid_distance_is_an_error() {
        assert!(LatticeSet::new(vec![LatticeSpec::new(4)]).is_err());
    }

    #[test]
    fn builders_chain_and_default_to_inherit() {
        use nisqplus_decoders::GreedyMatchingDecoder;
        assert!(LatticeSpec::new(3).decoder.is_none());
        let spec = LatticeSpec::new(5)
            .with_noise(NoiseSpec::Depolarizing { p: 0.01 })
            .with_seed(7)
            .with_rounds(123)
            .with_cadence_cycles(0)
            .with_decoder(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        assert_eq!(spec.distance, 5);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rounds, 123);
        assert_eq!(spec.cadence_cycles, 0);
        assert_eq!(
            spec.decoder.as_ref().unwrap().build().name(),
            "greedy-matching"
        );
    }

    #[test]
    fn decoder_override_equality_is_identity() {
        use nisqplus_decoders::GreedyMatchingDecoder;
        let shared: SharedDecoderFactory =
            Arc::new(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        let a = LatticeDecoder::from_shared(shared.clone());
        let b = LatticeDecoder::from_shared(shared);
        let c = LatticeDecoder::new(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        assert!(a != c);
        assert_ne!(a.key(), c.key());
        // Spec clones share the factory and compare equal.
        let mut spec_a = LatticeSpec::new(3);
        spec_a.decoder = Some(a.clone());
        let spec_b = spec_a.clone();
        assert_eq!(spec_a, spec_b);
        let mut spec_c = spec_a.clone();
        spec_c.decoder = Some(c);
        assert!(spec_a != spec_c);
    }
}
