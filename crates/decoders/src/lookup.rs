//! Exhaustive lookup-table decoding for small lattices.
//!
//! Several of the neural-network decoders surveyed in Section IV of the paper
//! combine a learned model with a lookup table for small code distances.  For
//! `d = 3` (and in principle any lattice whose sector has at most
//! [`LookupDecoder::MAX_TABLE_BITS`] ancillas) the table can simply be built
//! exhaustively: for every possible syndrome, store a minimum-weight error
//! pattern producing it.  This provides an *exact* maximum-likelihood
//! reference (under i.i.d. noise) against which the approximate decoders can
//! be calibrated in unit tests and ablation benches.
//!
//! Table hits hand out borrowed slices — the seed implementation cloned the
//! stored correction `Vec` on every decode — and each ancilla's key bit is
//! precomputed per sector, so [`Decoder::decode_into`] is allocation-free.

use crate::traits::{sector_correction_pauli, Correction, Decoder};
use nisqplus_qec::error::QecError;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::collections::HashSet;

/// The lookup table of one stabilizer sector.
#[derive(Debug, Clone)]
struct SectorTable {
    /// Ancilla index -> its bit in the syndrome key: the sector's ancillas
    /// in ascending order (other-sector entries are never read).
    bit_of: Vec<usize>,
    /// Key -> minimum-weight error support producing that syndrome.
    entries: Vec<Option<Vec<usize>>>,
}

/// The table key of a syndrome: one bit per hot ancilla of the sector.
fn syndrome_key(lattice: &Lattice, bit_of: &[usize], syndrome: &Syndrome, sector: Sector) -> usize {
    let mut key = 0usize;
    lattice.for_each_defect(syndrome, sector, |a| key |= 1 << bit_of[a]);
    key
}

/// A decoder backed by an exhaustive syndrome-to-correction table.
///
/// The table is built once per (lattice, sector) pair at construction time by
/// enumerating error patterns in order of increasing weight, so each syndrome
/// maps to one of its minimum-weight preimages.
#[derive(Debug, Clone)]
pub struct LookupDecoder {
    distance: usize,
    /// Sector tables in `[X, Z]` order.
    sectors: [SectorTable; 2],
}

impl LookupDecoder {
    /// The largest number of same-sector ancillas for which a table is built.
    ///
    /// `d = 3` has 6 ancillas per sector (64 syndromes); `d = 5` has 20
    /// (about a million syndromes), which is the practical ceiling.
    pub const MAX_TABLE_BITS: usize = 20;

    /// Builds lookup tables for both sectors of the given lattice.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidDistance`] if the lattice is too large for
    /// exhaustive enumeration (more than [`Self::MAX_TABLE_BITS`] ancillas in
    /// a sector).
    pub fn new(lattice: &Lattice) -> Result<Self, QecError> {
        let per_sector = lattice.ancillas_per_sector();
        if per_sector > Self::MAX_TABLE_BITS {
            return Err(QecError::InvalidDistance {
                distance: lattice.distance(),
            });
        }
        Ok(LookupDecoder {
            distance: lattice.distance(),
            sectors: [
                Self::build_table(lattice, Sector::X),
                Self::build_table(lattice, Sector::Z),
            ],
        })
    }

    /// The code distance the tables were built for.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// The stored minimum-weight correction support for a syndrome, borrowed
    /// straight from the table (no cloning).
    #[must_use]
    pub fn correction_support(
        &self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
    ) -> &[usize] {
        assert_eq!(
            lattice.distance(),
            self.distance,
            "lookup decoder was built for distance {} but used with distance {}",
            self.distance,
            lattice.distance()
        );
        let table = &self.sectors[sector.index()];
        table
            .entries
            .get(syndrome_key(lattice, &table.bit_of, syndrome, sector))
            .and_then(|entry| entry.as_deref())
            .unwrap_or_default()
    }

    fn build_table(lattice: &Lattice, sector: Sector) -> SectorTable {
        let mut bit_of = vec![0usize; lattice.num_ancillas()];
        for (i, a) in lattice.ancillas_in_sector(sector).enumerate() {
            bit_of[a] = i;
        }
        let num_syndromes = 1usize << lattice.ancillas_per_sector();
        let mut entries: Vec<Option<Vec<usize>>> = vec![None; num_syndromes];
        entries[0] = Some(Vec::new());
        let mut remaining = num_syndromes - 1;

        let pauli = sector_correction_pauli(sector);
        let num_data = lattice.num_data();

        // Breadth-first enumeration over error weight: start from the empty
        // error and extend known minimum-weight patterns by one qubit at a
        // time, so the first pattern reaching a syndrome has minimum weight.
        let mut frontier: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new())];
        while remaining > 0 && !frontier.is_empty() {
            let mut next_frontier: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut seen_this_round: HashSet<usize> = HashSet::new();
            for (_, support) in &frontier {
                let start = support.last().map_or(0, |&q| q + 1);
                for q in start..num_data {
                    let mut new_support = support.clone();
                    new_support.push(q);
                    let error = PauliString::from_sparse(num_data, &new_support, pauli);
                    let syndrome = lattice.syndrome_of(&error);
                    let new_key = syndrome_key(lattice, &bit_of, &syndrome, sector);
                    if entries[new_key].is_none() {
                        entries[new_key] = Some(new_support.clone());
                        remaining -= 1;
                    }
                    if seen_this_round.insert(new_key) {
                        next_frontier.push((new_key, new_support));
                    }
                }
            }
            frontier = next_frontier;
        }
        SectorTable { bit_of, entries }
    }
}

impl Decoder for LookupDecoder {
    fn name(&self) -> &str {
        "lookup-table"
    }

    fn prepare(&mut self, lattice: &Lattice) {
        // Tables are built at construction; preparing for a different
        // lattice rebuilds them, honouring the trait contract that prepared
        // state for a new lattice replaces the old.
        //
        // # Panics
        //
        // Panics if the new lattice exceeds [`Self::MAX_TABLE_BITS`] ancillas
        // per sector — exhaustive tables for it cannot exist at all.
        if lattice.distance() != self.distance {
            *self = LookupDecoder::new(lattice).unwrap_or_else(|_| {
                panic!(
                    "lookup decoder cannot be prepared for distance {}: more than {} ancillas \
                     per sector",
                    lattice.distance(),
                    Self::MAX_TABLE_BITS
                )
            });
        }
    }

    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        let support = self.correction_support(lattice, syndrome, sector);
        let pauli = sector_correction_pauli(sector);
        Correction::from_pauli_string(PauliString::from_sparse(lattice.num_data(), support, pauli))
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        let pauli = sector_correction_pauli(sector);
        for &q in self.correction_support(lattice, syndrome, sector) {
            out.apply(q, pauli);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use nisqplus_qec::pauli::Pauli;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_large_lattices() {
        let lat = Lattice::new(7).unwrap();
        assert!(LookupDecoder::new(&lat).is_err());
    }

    #[test]
    fn builds_for_distance_three() {
        let lat = Lattice::new(3).unwrap();
        let decoder = LookupDecoder::new(&lat).unwrap();
        assert_eq!(decoder.distance(), 3);
        assert_eq!(decoder.name(), "lookup-table");
    }

    #[test]
    fn every_syndrome_has_a_table_entry() {
        let lat = Lattice::new(3).unwrap();
        let decoder = LookupDecoder::new(&lat).unwrap();
        for sector in Sector::ALL {
            let table = &decoder.sectors[sector.index()];
            assert_eq!(table.entries.len(), 1 << 6);
            let key_bits: Vec<usize> = lat
                .ancillas_in_sector(sector)
                .map(|a| table.bit_of[a])
                .collect();
            assert_eq!(key_bits, (0..6).collect::<Vec<_>>());
            for (key, entry) in table.entries.iter().enumerate() {
                assert!(entry.is_some(), "syndrome key {key} has no table entry");
            }
        }
    }

    #[test]
    fn corrections_always_clear_the_syndrome() {
        let lat = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lat).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = PureDephasing::new(0.15).unwrap();
        for _ in 0..200 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let correction = decoder.decode(&lat, &syndrome, Sector::X);
            let state = classify_residual(&lat, &error, correction.pauli_string(), Sector::X);
            assert_ne!(state, LogicalState::InvalidCorrection);
        }
    }

    #[test]
    fn decode_into_matches_decode_without_cloning() {
        let lat = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lat).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let model = PureDephasing::new(0.2).unwrap();
        let mut buf = PauliString::identity(lat.num_data());
        for _ in 0..100 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let via_decode = decoder.decode(&lat, &syndrome, Sector::X);
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            assert_eq!(&buf, via_decode.pauli_string());
            // The borrowed-slice accessor agrees with the correction weight.
            let support = decoder.correction_support(&lat, &syndrome, Sector::X);
            assert_eq!(support.len(), via_decode.weight());
        }
    }

    #[test]
    fn single_errors_are_always_corrected() {
        let lat = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lat).unwrap();
        for q in 0..lat.num_data() {
            for (pauli, sector) in [(Pauli::Z, Sector::X), (Pauli::X, Sector::Z)] {
                let error = PauliString::from_sparse(lat.num_data(), &[q], pauli);
                let syndrome = lat.syndrome_of(&error);
                let correction = decoder.decode(&lat, &syndrome, sector);
                assert_eq!(
                    classify_residual(&lat, &error, correction.pauli_string(), sector),
                    LogicalState::Success,
                    "lookup failed on single {pauli} at {q}"
                );
            }
        }
    }

    #[test]
    fn table_corrections_are_minimum_weight() {
        // The lookup correction can never be heavier than the actual error.
        let lat = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lat).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let model = PureDephasing::new(0.1).unwrap();
        for _ in 0..100 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let correction = decoder.decode(&lat, &syndrome, Sector::X);
            assert!(
                correction.weight() <= error.z_support().len(),
                "lookup correction weight {} exceeds error weight {}",
                correction.weight(),
                error.z_support().len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "built for distance")]
    fn using_wrong_distance_panics() {
        let lat3 = Lattice::new(3).unwrap();
        let lat5 = Lattice::new(5).unwrap();
        let mut decoder = LookupDecoder::new(&lat3).unwrap();
        let _ = decoder.decode(&lat5, &Syndrome::new(lat5.num_ancillas()), Sector::X);
    }

    #[test]
    fn preparing_same_lattice_is_a_noop() {
        let lat3 = Lattice::new(3).unwrap();
        let mut decoder = LookupDecoder::new(&lat3).unwrap();
        decoder.prepare(&lat3);
        assert_eq!(decoder.distance(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot be prepared for distance 7")]
    fn preparing_beyond_the_table_ceiling_panics() {
        let lat3 = Lattice::new(3).unwrap();
        let lat7 = Lattice::new(7).unwrap();
        let mut decoder = LookupDecoder::new(&lat3).unwrap();
        decoder.prepare(&lat7);
    }
}
