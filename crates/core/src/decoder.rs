//! [`SfqMeshDecoder`]: the paper's decoder behind the common [`Decoder`] trait.
//!
//! The decoder runs the greedy mesh algorithm of [`crate::algorithm`] and
//! records per-decode statistics — mesh cycles, wall-clock nanoseconds, and
//! whether the decode completed — which are what Table IV and Figure 10(c)
//! of the paper report.  The cycle counts are the closed-form timings of
//! Section V-C, not a pulse-by-pulse simulation.

use crate::algorithm::{Defects, GreedyMeshAlgorithm, PreparedMesh};
use crate::config::{DecoderVariant, MeshConfig};
use crate::hardware::DecoderModuleHardware;
use nisqplus_decoders::traits::{Correction, Decoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Statistics of the most recent decode call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodeStats {
    /// Number of detection events decoded.
    pub defects: usize,
    /// Mesh clock cycles consumed.
    pub cycles: usize,
    /// Wall-clock decode time in nanoseconds (cycles x module latency).
    pub time_ns: f64,
    /// Whether every hot syndrome was cleared.
    pub completed: bool,
}

/// The approximate SFQ mesh decoder of the paper.
///
/// The decoder implements [`Decoder`], so it can be dropped into any
/// experiment alongside the software baselines, and exposes per-decode cycle
/// and timing statistics via [`SfqMeshDecoder::last_stats`].
#[derive(Debug, Clone)]
pub struct SfqMeshDecoder {
    variant: DecoderVariant,
    algorithm: GreedyMeshAlgorithm,
    cycle_time_ps: f64,
    last_stats: Option<DecodeStats>,
    name: String,
    /// The algorithm's tables and working memory for the last lattice
    /// decoded; built by `prepare` (or the first decode on a lattice), so a
    /// prepared decoder's `decode_into` never allocates.
    prepared: Option<PreparedMesh>,
}

impl SfqMeshDecoder {
    /// Creates a decoder for one of the paper's design variants.
    #[must_use]
    pub fn new(variant: DecoderVariant) -> Self {
        Self::with_config(variant, variant.config())
    }

    /// Creates a decoder with an explicit mesh configuration (for ablations
    /// beyond the four named variants).
    #[must_use]
    pub fn with_config(variant: DecoderVariant, config: MeshConfig) -> Self {
        // The synthesized module's latency is a constant of the ERSFQ cell
        // library; synthesizing it costs more than a hundred decodes, so it
        // is done once per process, not once per decoder.
        static ERSFQ_CYCLE_TIME_PS: OnceLock<f64> = OnceLock::new();
        let cycle_time_ps =
            *ERSFQ_CYCLE_TIME_PS.get_or_init(|| DecoderModuleHardware::ersfq().cycle_time_ps());
        SfqMeshDecoder {
            variant,
            algorithm: GreedyMeshAlgorithm::new(config),
            cycle_time_ps,
            last_stats: None,
            name: format!("sfq-mesh-{}", variant.label()),
            prepared: None,
        }
    }

    /// The full design (reset + boundary + equidistant handshake).
    #[must_use]
    pub fn final_design() -> Self {
        SfqMeshDecoder::new(DecoderVariant::Final)
    }

    /// Overrides the per-cycle latency (picoseconds) used to convert cycles
    /// into nanoseconds.
    #[must_use]
    pub fn with_cycle_time_ps(mut self, cycle_time_ps: f64) -> Self {
        self.cycle_time_ps = cycle_time_ps;
        self
    }

    /// The design variant this decoder implements.
    #[must_use]
    pub fn variant(&self) -> DecoderVariant {
        self.variant
    }

    /// The per-cycle latency in picoseconds used for timing conversion.
    #[must_use]
    pub fn cycle_time_ps(&self) -> f64 {
        self.cycle_time_ps
    }

    /// Statistics of the most recent [`Decoder::decode`] call, if any.
    #[must_use]
    pub fn last_stats(&self) -> Option<DecodeStats> {
        self.last_stats
    }

    fn ensure_prepared(&mut self, lattice: &Lattice) {
        if self.prepared.as_ref().map(PreparedMesh::distance) != Some(lattice.distance()) {
            self.prepared = Some(PreparedMesh::build(
                self.algorithm.config(),
                lattice,
                &Sector::ALL,
            ));
        }
    }
}

impl Decoder for SfqMeshDecoder {
    fn name(&self) -> &str {
        &self.name
    }

    /// # Panics
    ///
    /// Panics if `lattice.distance()` exceeds 31.
    fn prepare(&mut self, lattice: &Lattice) {
        self.ensure_prepared(lattice);
    }

    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        let mut flips = PauliString::default();
        self.decode_into(lattice, syndrome, sector, &mut flips);
        Correction::from_pauli_string(flips)
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        self.ensure_prepared(lattice);
        let prepared = self.prepared.as_mut().expect("just prepared");
        let outcome = self.algorithm.decode_prepared(
            lattice,
            sector,
            Defects::Hot(syndrome),
            prepared,
            out,
            None,
        );
        self.last_stats = Some(DecodeStats {
            defects: outcome.defects,
            cycles: outcome.cycles,
            time_ns: outcome.cycles as f64 * self.cycle_time_ps * 1e-3,
            completed: outcome.completed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
    use nisqplus_qec::lattice::Coord;
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use nisqplus_qec::pauli::Pauli;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn final_design_corrects_every_single_error() {
        for d in [3, 5, 7, 9] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = SfqMeshDecoder::final_design();
            for q in 0..lat.num_data() {
                for (pauli, sector) in [(Pauli::Z, Sector::X), (Pauli::X, Sector::Z)] {
                    let error = PauliString::from_sparse(lat.num_data(), &[q], pauli);
                    let syndrome = lat.syndrome_of(&error);
                    let correction = decoder.decode(&lat, &syndrome, sector);
                    assert_eq!(
                        classify_residual(&lat, &error, correction.pauli_string(), sector),
                        LogicalState::Success,
                        "final design failed on single {pauli} at qubit {q}, d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn final_design_corrections_always_clear_the_syndrome() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let model = PureDephasing::new(0.08).unwrap();
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = SfqMeshDecoder::final_design();
            for _ in 0..100 {
                let error = model.sample(&lat, &mut rng);
                let syndrome = lat.syndrome_of(&error);
                let correction = decoder.decode(&lat, &syndrome, Sector::X);
                let state = classify_residual(&lat, &error, correction.pauli_string(), Sector::X);
                assert_ne!(
                    state,
                    LogicalState::InvalidCorrection,
                    "final design produced an invalid correction at d={d}"
                );
            }
        }
    }

    #[test]
    fn baseline_variant_fails_more_often_than_final() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let model = PureDephasing::new(0.04).unwrap();
        let lat = Lattice::new(5).unwrap();
        let trials = 400;
        let mut failures = [0usize; 2];
        for _ in 0..trials {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            for (slot, variant) in [DecoderVariant::Baseline, DecoderVariant::Final]
                .iter()
                .enumerate()
            {
                let mut decoder = SfqMeshDecoder::new(*variant);
                let correction = decoder.decode(&lat, &syndrome, Sector::X);
                if classify_residual(&lat, &error, correction.pauli_string(), Sector::X)
                    .is_failure()
                {
                    failures[slot] += 1;
                }
            }
        }
        assert!(
            failures[0] > failures[1],
            "baseline ({}) should fail more than final ({})",
            failures[0],
            failures[1]
        );
    }

    #[test]
    fn stats_are_recorded_and_timed() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = SfqMeshDecoder::final_design();
        assert!(decoder.last_stats().is_none());
        let q = lat.cell(Coord::new(2, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let _ = decoder.decode(&lat, &syndrome, Sector::X);
        let stats = decoder.last_stats().unwrap();
        assert_eq!(stats.defects, 2);
        assert!(stats.cycles > 0);
        assert!(stats.completed);
        let expected_ns = stats.cycles as f64 * decoder.cycle_time_ps() * 1e-3;
        assert!((stats.time_ns - expected_ns).abs() < 1e-9);
        assert!(
            stats.time_ns < 25.0,
            "simple decodes finish well under 25 ns"
        );
    }

    #[test]
    fn decoder_names_include_variant() {
        assert_eq!(SfqMeshDecoder::final_design().name(), "sfq-mesh-final");
        assert_eq!(
            SfqMeshDecoder::new(DecoderVariant::Baseline).name(),
            "sfq-mesh-baseline"
        );
        assert_eq!(
            SfqMeshDecoder::final_design().variant(),
            DecoderVariant::Final
        );
    }

    #[test]
    fn cycle_time_override() {
        let decoder = SfqMeshDecoder::final_design().with_cycle_time_ps(200.0);
        assert_eq!(decoder.cycle_time_ps(), 200.0);
    }

    #[test]
    fn decode_into_matches_decode_and_records_stats() {
        let lat = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let model = PureDephasing::new(0.08).unwrap();
        let mut decoder = SfqMeshDecoder::final_design();
        decoder.prepare(&lat);
        let mut buf = PauliString::identity(lat.num_data());
        for _ in 0..50 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let via_decode = decoder.decode(&lat, &syndrome, Sector::X);
            let stats_decode = decoder.last_stats().unwrap();
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            let stats_into = decoder.last_stats().unwrap();
            assert_eq!(&buf, via_decode.pauli_string());
            assert_eq!(stats_decode, stats_into);
        }
    }

    /// Compile-time assertion: the SFQ mesh decoder is `Send + Sync`, so the
    /// streaming runtime can hand one instance to each worker thread (or
    /// share a prototype to clone from) without wrappers.
    #[test]
    fn mesh_decoder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SfqMeshDecoder>();
        assert_send_sync::<DecodeStats>();
        fn assert_send<T: Send>() {}
        assert_send::<nisqplus_decoders::DynDecoder>();
    }
}
