//! The mesh decoder's accuracy loss as exact regression numbers.
//!
//! The SFQ mesh is an *approximate* decoder: Figure 10 of the paper is the
//! gap between it and minimum-weight perfect matching, variant by variant.
//! These tests pin that gap as counts — over every pure-dephasing pattern at
//! d = 3 and over a fixed sample at d = 5 — so a change to tie order, path
//! shape or cycle accounting fails a test instead of silently moving the
//! figure.

use nisqplus_core::{DecoderVariant, SfqMeshDecoder};
use nisqplus_decoders::{Decoder, ExactMatchingDecoder};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_residual, LogicalState};
use nisqplus_qec::pauli::{Pauli, PauliString};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What the decoders did with a set of dephasing patterns.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    /// Patterns each mesh variant failed on, in `DecoderVariant::ALL` order.
    mesh_failures: [usize; 4],
    /// Patterns whose outcome under the final design differs from MWPM's.
    final_disagrees_with_mwpm: usize,
}

fn tally(lattice: &Lattice, patterns: impl Iterator<Item = PauliString>) -> Tally {
    let sector = Sector::X;
    let mut mesh: Vec<SfqMeshDecoder> = DecoderVariant::ALL
        .iter()
        .map(|&variant| SfqMeshDecoder::new(variant))
        .collect();
    let mut mwpm = ExactMatchingDecoder::new();
    let mut tally = Tally {
        mesh_failures: [0; 4],
        final_disagrees_with_mwpm: 0,
    };
    for error in patterns {
        let syndrome = lattice.syndrome_of(&error);
        let outcome = |decoder: &mut dyn Decoder| {
            let correction = decoder.decode(lattice, &syndrome, sector);
            classify_residual(lattice, &error, correction.pauli_string(), sector)
        };
        let exact = outcome(&mut mwpm);
        let mut last = exact;
        for (decoder, failures) in mesh.iter_mut().zip(&mut tally.mesh_failures) {
            last = outcome(decoder);
            *failures += usize::from(last.is_failure());
        }
        // `last` is the final design's: the last of `DecoderVariant::ALL`.
        tally.final_disagrees_with_mwpm += usize::from(last != exact);
        if error.weight() <= 1 {
            assert_eq!(exact, LogicalState::Success, "MWPM on {error}");
            assert_eq!(last, LogicalState::Success, "final design on {error}");
        }
    }
    tally
}

#[test]
fn every_dephasing_pattern_at_distance_three() {
    assert_eq!(DecoderVariant::ALL[3], DecoderVariant::Final);
    let lattice = Lattice::new(3).unwrap();
    let qubits = lattice.num_data();
    assert_eq!(qubits, 13);
    let patterns = (0u32..1 << qubits).map(|bits| {
        (0..qubits)
            .map(|q| {
                if bits >> q & 1 == 1 {
                    Pauli::Z
                } else {
                    Pauli::I
                }
            })
            .collect::<PauliString>()
    });
    assert_eq!(
        tally(&lattice, patterns),
        Tally {
            mesh_failures: [6976, 6976, 6336, 4096],
            final_disagrees_with_mwpm: 2304,
        }
    );
}

#[test]
fn a_fixed_sample_at_distance_five() {
    let lattice = Lattice::new(5).unwrap();
    let model = PureDephasing::new(0.05).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xACC0_5A17);
    let patterns = (0..20_000).map(|_| model.sample(&lattice, &mut rng));
    assert_eq!(
        tally(&lattice, patterns),
        Tally {
            mesh_failures: [10399, 9990, 6533, 885],
            final_disagrees_with_mwpm: 725,
        }
    );
}
