//! A decoder wrapper that enforces a minimum wall-clock service time.
//!
//! The acceptance experiment of the paper's Section III needs a decoder that
//! is *deliberately* slower than syndrome generation, so the exponential
//! backlog can be observed empirically rather than modeled.
//! [`ThrottledDecoder`] wraps any [`Decoder`] and spins until a configured
//! floor has elapsed, emulating a slow software decoder (e.g. MWPM at
//! ~100 µs/round, Section IV) without changing the corrections produced.
//! Because it is just a `Decoder`, it plugs into the pipeline's decode
//! stage like any other factory product — the tests and examples use it to
//! overload the pipeline on demand.  To slow only
//! some patches of a machine, give those lattices a throttled per-lattice
//! override ([`ThrottledDecoder::factory`] into
//! [`LatticeSpec::with_shared_decoder`](crate::LatticeSpec::with_shared_decoder)).

use crate::stage::pause;
use nisqplus_decoders::traits::{Decoder, DynDecoder, SharedDecoderFactory};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`Decoder`] whose every decode takes at least a fixed time.
#[derive(Debug, Clone)]
pub struct ThrottledDecoder<D> {
    inner: D,
    floor: Duration,
    name: String,
}

impl<D: Decoder> ThrottledDecoder<D> {
    /// Wraps `inner`, forcing each decode to take at least `floor_ns`
    /// nanoseconds of wall-clock time.
    #[must_use]
    pub fn new(inner: D, floor_ns: u64) -> Self {
        let name = format!("throttled({})@{}ns", inner.name(), floor_ns);
        ThrottledDecoder {
            inner,
            floor: Duration::from_nanos(floor_ns),
            name,
        }
    }

    /// The enforced minimum service time.
    #[must_use]
    pub fn floor(&self) -> Duration {
        self.floor
    }

    /// The wrapped decoder.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl ThrottledDecoder<DynDecoder> {
    /// A factory whose every product is `factory`'s product wrapped in a
    /// `floor_ns` throttle — the shape a per-lattice
    /// [`LatticeSpec::with_shared_decoder`](crate::LatticeSpec::with_shared_decoder)
    /// override wants, so one patch of a machine can be served by a
    /// deliberately slow decoder while its neighbours run at full speed.
    #[must_use]
    pub fn factory(factory: SharedDecoderFactory, floor_ns: u64) -> SharedDecoderFactory {
        Arc::new(move || Box::new(ThrottledDecoder::new(factory.build(), floor_ns)) as DynDecoder)
    }
}

impl<D> ThrottledDecoder<D> {
    /// Spins out the remainder of the floor after `start` with the shared
    /// busy wait ([`pause`]), whose occasional yield keeps throttled workers
    /// from starving the producer on machines with fewer cores than
    /// threads; the floor is wall-clock, so yielding never shortens it.
    fn spin_out(&self, start: Instant) {
        let mut turns = 0u32;
        while start.elapsed() < self.floor {
            pause(&mut turns);
        }
    }
}

impl<D: Decoder> Decoder for ThrottledDecoder<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare(&mut self, lattice: &Lattice) {
        // Preparation is a one-off, not a per-round service: no floor.
        self.inner.prepare(lattice);
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        let start = Instant::now();
        self.inner.decode_into(lattice, syndrome, sector, out);
        self.spin_out(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_decoders::GreedyMatchingDecoder;
    use nisqplus_qec::pauli::Pauli;

    #[test]
    fn throttling_slows_but_does_not_change_corrections() {
        let lattice = Lattice::new(3).unwrap();
        let error = PauliString::from_sparse(lattice.num_data(), &[4], Pauli::Z);
        let syndrome = lattice.syndrome_of(&error);

        let mut plain = GreedyMatchingDecoder::new();
        let mut throttled = ThrottledDecoder::new(GreedyMatchingDecoder::new(), 200_000);

        let start = Instant::now();
        let fast = plain.decode(&lattice, &syndrome, Sector::X);
        let slow = throttled.decode(&lattice, &syndrome, Sector::X);
        assert_eq!(fast.pauli_string(), slow.pauli_string());
        assert!(
            start.elapsed() >= Duration::from_micros(200),
            "throttle floor not enforced"
        );
    }

    #[test]
    fn throttled_factories_wrap_any_factory_product() {
        use nisqplus_decoders::traits::{DecoderFactory, DynDecoder, SharedDecoderFactory};
        let base: SharedDecoderFactory =
            Arc::new(|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
        let throttled = ThrottledDecoder::factory(base, 800);
        assert_eq!(throttled.build().name(), "throttled(greedy-matching)@800ns");
    }

    #[test]
    fn name_reflects_wrapping() {
        let throttled = ThrottledDecoder::new(GreedyMatchingDecoder::new(), 800);
        assert_eq!(throttled.name(), "throttled(greedy-matching)@800ns");
        assert_eq!(throttled.floor(), Duration::from_nanos(800));
        assert_eq!(throttled.inner().name(), "greedy-matching");
    }
}
