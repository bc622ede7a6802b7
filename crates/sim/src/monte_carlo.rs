//! The Monte-Carlo lifetime simulation loop.
//!
//! Each trial simulates one error-correction cycle in the code-capacity
//! setting the paper uses for its accuracy results: sample a fresh error from
//! the channel, extract the (perfect) syndrome, decode one sector, apply the
//! correction and classify the residual.  Trials are independent, seeded
//! deterministically, and distributed over worker threads.

use crate::stats::wilson_interval;
use nisqplus_core::{DecodeStats, DecoderVariant, SfqMeshDecoder};
use nisqplus_decoders::Decoder;
use nisqplus_qec::error_model::ErrorModel;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::classify_residual_operator;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of one Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of independent trials (error-correction cycles).
    pub trials: usize,
    /// Base RNG seed; every worker derives its own stream from it.
    pub seed: u64,
    /// The stabilizer sector to decode.
    pub sector: Sector,
    /// Number of worker threads (`None` = use all available cores).
    pub threads: Option<usize>,
}

impl MonteCarloConfig {
    /// A configuration with the given number of trials and defaults otherwise.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        MonteCarloConfig {
            trials,
            seed: 0x5158_u64,
            sector: Sector::X,
            threads: None,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sector to decode.
    #[must_use]
    pub fn with_sector(mut self, sector: Sector) -> Self {
        self.sector = sector;
        self
    }

    /// Sets an explicit worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Aggregated result of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloResult {
    /// Trials simulated.
    pub trials: usize,
    /// Trials that ended in a logical error or an invalid correction.
    pub failures: usize,
    /// Total detection events observed across all trials.
    pub total_defects: usize,
    /// Per-trial decoder cycle counts, when the decoder reports them.
    pub cycle_samples: Vec<usize>,
    /// Per-trial decode times in nanoseconds, when the decoder reports them.
    pub time_ns_samples: Vec<f64>,
}

impl MonteCarloResult {
    /// The logical error rate `PL` (failures / trials).
    #[must_use]
    pub fn logical_error_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// A 95% Wilson confidence interval on the logical error rate.
    #[must_use]
    pub fn confidence_interval(&self) -> (f64, f64) {
        wilson_interval(self.failures, self.trials)
    }

    /// The average number of detection events per trial.
    #[must_use]
    pub fn mean_defects(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.total_defects as f64 / self.trials as f64
        }
    }
}

/// Runs a lifetime simulation with an arbitrary decoder.
///
/// `make_decoder` constructs one decoder per worker thread; `read_stats`
/// extracts per-decode statistics from the decoder after each trial (return
/// `None` for decoders that do not report any).
pub fn run_lifetime<M, D, F, S>(
    lattice: &Lattice,
    model: &M,
    config: &MonteCarloConfig,
    make_decoder: F,
    read_stats: S,
) -> MonteCarloResult
where
    M: ErrorModel + Sync,
    D: Decoder,
    F: Fn() -> D + Sync,
    S: Fn(&D) -> Option<DecodeStats> + Sync,
{
    let threads = config
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
        .min(config.trials.max(1));
    struct WorkerResult {
        failures: usize,
        defects: usize,
        cycles: Vec<usize>,
        times: Vec<f64>,
    }

    // Workers are joined in spawn order, so the concatenated samples do not
    // depend on which worker finishes first.
    let workers: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let make_decoder = &make_decoder;
                let read_stats = &read_stats;
                let trials =
                    config.trials / threads + usize::from(worker < config.trials % threads);
                let seed = config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1));
                let sector = config.sector;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut decoder = make_decoder();
                    decoder.prepare(lattice);
                    // One buffer each for the whole run: a trial costs a scan
                    // of the data qubits plus what its errors and defects
                    // cost, and allocates nothing.
                    let mut error = PauliString::identity(lattice.num_data());
                    let mut syndrome = Syndrome::new(lattice.num_ancillas());
                    let mut correction = PauliString::identity(lattice.num_data());
                    let mut failures = 0usize;
                    let mut defects = 0usize;
                    let mut cycles = Vec::new();
                    let mut times = Vec::new();
                    for _ in 0..trials {
                        model.sample_into(lattice, &mut rng, &mut error);
                        lattice.syndrome_into(&error, &mut syndrome);
                        lattice.for_each_defect(&syndrome, sector, |_| defects += 1);
                        decoder.decode_into(lattice, &syndrome, sector, &mut correction);
                        // Composition commutes up to phase: the residual can
                        // be built in the correction's buffer.
                        correction.compose_with(&error);
                        if classify_residual_operator(lattice, &correction, sector).is_failure() {
                            failures += 1;
                        }
                        if let Some(stats) = read_stats(&decoder) {
                            if cycles.capacity() == 0 {
                                cycles.reserve_exact(trials);
                                times.reserve_exact(trials);
                            }
                            cycles.push(stats.cycles);
                            times.push(stats.time_ns);
                        }
                    }
                    WorkerResult {
                        failures,
                        defects,
                        cycles,
                        times,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let samples = workers.iter().map(|worker| worker.cycles.len()).sum();
    let mut out = MonteCarloResult {
        trials: config.trials,
        failures: 0,
        total_defects: 0,
        cycle_samples: Vec::with_capacity(samples),
        time_ns_samples: Vec::with_capacity(samples),
    };
    for worker in workers {
        out.failures += worker.failures;
        out.total_defects += worker.defects;
        out.cycle_samples.extend(worker.cycles);
        out.time_ns_samples.extend(worker.times);
    }
    out
}

/// Convenience wrapper: runs a lifetime simulation of the SFQ mesh decoder in
/// a given design variant, collecting cycle and timing statistics.
pub fn run_sfq_lifetime<M>(
    lattice: &Lattice,
    model: &M,
    config: &MonteCarloConfig,
    variant: DecoderVariant,
) -> MonteCarloResult
where
    M: ErrorModel + Sync,
{
    run_lifetime(
        lattice,
        model,
        config,
        || SfqMeshDecoder::new(variant),
        SfqMeshDecoder::last_stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_decoders::ExactMatchingDecoder;
    use nisqplus_qec::error_model::PureDephasing;

    #[test]
    fn zero_error_rate_never_fails() {
        let lattice = Lattice::new(3).unwrap();
        let model = PureDephasing::new(0.0).unwrap();
        let config = MonteCarloConfig::new(200).with_threads(2);
        let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        assert_eq!(result.trials, 200);
        assert_eq!(result.failures, 0);
        assert_eq!(result.logical_error_rate(), 0.0);
        assert_eq!(result.total_defects, 0);
        assert_eq!(result.cycle_samples.len(), 200);
    }

    #[test]
    fn certain_error_rate_mostly_fails() {
        let lattice = Lattice::new(3).unwrap();
        let model = PureDephasing::new(0.5).unwrap();
        let config = MonteCarloConfig::new(200).with_threads(2).with_seed(7);
        let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        assert!(
            result.logical_error_rate() > 0.2,
            "rate {}",
            result.logical_error_rate()
        );
        assert!(result.mean_defects() > 1.0);
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let lattice = Lattice::new(5).unwrap();
        let model = PureDephasing::new(0.06).unwrap();
        let config = MonteCarloConfig::new(300).with_threads(3).with_seed(42);
        let a = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        let b = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        // The whole result, per-trial samples included: worker `i`'s samples
        // come `i`-th whichever worker finishes first.
        assert_eq!(a, b);
        assert_eq!(a.cycle_samples.len(), 300);
        assert_eq!(a.time_ns_samples.len(), 300);
    }

    #[test]
    fn works_with_software_decoders_too() {
        let lattice = Lattice::new(3).unwrap();
        let model = PureDephasing::new(0.05).unwrap();
        let config = MonteCarloConfig::new(100).with_threads(2);
        let result = run_lifetime(&lattice, &model, &config, ExactMatchingDecoder::new, |_| {
            None
        });
        assert_eq!(result.trials, 100);
        assert!(result.cycle_samples.is_empty());
        assert!(result.logical_error_rate() < 0.2);
    }

    #[test]
    fn confidence_interval_brackets_the_estimate() {
        let result = MonteCarloResult {
            trials: 1000,
            failures: 100,
            total_defects: 0,
            cycle_samples: vec![],
            time_ns_samples: vec![],
        };
        let (lo, hi) = result.confidence_interval();
        assert!(lo < 0.1 && 0.1 < hi);
        assert!(lo > 0.07 && hi < 0.14);
    }

    #[test]
    fn final_design_beats_baseline_at_low_p() {
        let lattice = Lattice::new(5).unwrap();
        let model = PureDephasing::new(0.03).unwrap();
        let config = MonteCarloConfig::new(400).with_threads(4).with_seed(3);
        let final_run = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        let baseline = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Baseline);
        assert!(
            final_run.logical_error_rate() < baseline.logical_error_rate(),
            "final {} vs baseline {}",
            final_run.logical_error_rate(),
            baseline.logical_error_rate()
        );
    }
}
