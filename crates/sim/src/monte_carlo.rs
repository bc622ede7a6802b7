//! The Monte-Carlo lifetime simulation loop.
//!
//! Each trial simulates one error-correction cycle in the code-capacity
//! setting the paper uses for its accuracy results: sample a fresh error from
//! the channel, extract the (perfect) syndrome, decode one sector, apply the
//! correction and classify the residual.  Trials are independent, seeded
//! deterministically, and distributed over worker threads.

use crate::stats::{wilson_interval, SampleCounts};
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
    /// The trials' decoder cycle counts, when the decoder reports them: one
    /// count per cycle value, not one sample per trial.
    pub cycle_samples: SampleCounts<usize>,
    /// The trials' decode times in nanoseconds, when the decoder reports
    /// them: each cycle value's count at the time the decoder reported for
    /// that value.
    pub time_ns_samples: SampleCounts<f64>,
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
/// `None` for decoders that do not report any), and `max_cycles` is the
/// most cycles it reports (0 if it reports none).  Each worker counts the
/// trials per cycle value in one array of `max_cycles + 1` buckets, sized
/// before its first trial, so a call's memory does not grow with its trial
/// count.
///
/// # Panics
///
/// Panics if `read_stats` reports more than `max_cycles` cycles.
pub fn run_lifetime<M, D, F, S>(
    lattice: &Lattice,
    model: &M,
    config: &MonteCarloConfig,
    make_decoder: F,
    read_stats: S,
    max_cycles: usize,
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
        /// Per cycle value: the trials that took it, and the time the
        /// decoder reported for it.
        buckets: Vec<(usize, f64)>,
    }

    // One worker's share of the trials, on its own stream.
    let run_worker = |worker: usize| {
        let trials = config.trials / threads + usize::from(worker < config.trials % threads);
        let seed = config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker as u64 + 1));
        let sector = config.sector;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut decoder = make_decoder();
        decoder.prepare(lattice);
        // One buffer each for the whole run: a trial costs a few word fills
        // and XORs (two planes of ⌈n/64⌉ words per string) plus what its
        // errors and defects cost, and allocates nothing.
        let mut error = PauliString::identity(lattice.num_data());
        let mut syndrome = Syndrome::new(lattice.num_ancillas());
        let mut correction = PauliString::identity(lattice.num_data());
        let mut failures = 0usize;
        let mut defects = 0usize;
        let mut buckets = vec![(0usize, 0.0f64); max_cycles + 1];
        for _ in 0..trials {
            model.sample_into(lattice, &mut rng, &mut error);
            lattice.syndrome_into(&error, &mut syndrome);
            defects += lattice.defect_count(&syndrome, sector);
            decoder.decode_into(lattice, &syndrome, sector, &mut correction);
            // Composition commutes up to phase: the residual can be built in
            // the correction's buffer.
            correction.compose_with(&error);
            if classify_residual_operator(lattice, &correction, sector).is_failure() {
                failures += 1;
            }
            if let Some(stats) = read_stats(&decoder) {
                let Some((count, time_ns)) = buckets.get_mut(stats.cycles) else {
                    panic!(
                        "a decode took {} cycles, past the cap of {max_cycles}",
                        stats.cycles
                    );
                };
                debug_assert!(*count == 0 || *time_ns == stats.time_ns);
                *count += 1;
                *time_ns = stats.time_ns;
            }
        }
        WorkerResult {
            failures,
            defects,
            buckets,
        }
    };

    // The calling thread is worker 0 and the others are spawned, so a
    // one-thread run starts no thread.
    let workers: Vec<WorkerResult> = std::thread::scope(|scope| {
        let run_worker = &run_worker;
        let handles: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || run_worker(worker)))
            .collect();
        let first = run_worker(0);
        std::iter::once(first)
            .chain(handles.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    });

    let mut workers = workers.into_iter();
    let mut total = workers.next().expect("one worker at least");
    for worker in workers {
        total.failures += worker.failures;
        total.defects += worker.defects;
        for (into, &(count, time_ns)) in total.buckets.iter_mut().zip(&worker.buckets) {
            if count > 0 {
                *into = (into.0 + count, time_ns);
            }
        }
    }
    // One run per cycle value taken, each vector allocated once.
    let taken = total
        .buckets
        .iter()
        .filter(|&&(count, _)| count > 0)
        .count();
    let mut cycles = Vec::with_capacity(taken);
    let mut times = Vec::with_capacity(taken);
    for (value, &(count, time_ns)) in total.buckets.iter().enumerate() {
        if count > 0 {
            cycles.push((value, count));
            times.push((time_ns, count));
        }
    }
    MonteCarloResult {
        trials: config.trials,
        failures: total.failures,
        total_defects: total.defects,
        cycle_samples: SampleCounts::from_runs(cycles),
        time_ns_samples: SampleCounts::from_runs(times),
    }
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
        variant.config().max_cycles_on(lattice),
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
        let result = run_lifetime(
            &lattice,
            &model,
            &config,
            ExactMatchingDecoder::new,
            |_| None,
            0,
        );
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
            cycle_samples: SampleCounts::default(),
            time_ns_samples: SampleCounts::default(),
        };
        let (lo, hi) = result.confidence_interval();
        assert!(lo < 0.1 && 0.1 < hi);
        assert!(lo > 0.07 && hi < 0.14);
    }

    /// `(failures, total_defects, Σ cycle_samples, max cycle_samples)` of a
    /// mesh lifetime run on PureDephasing noise, two worker threads.
    fn lifetime_integers(
        distance: usize,
        p: f64,
        trials: usize,
        variant: DecoderVariant,
    ) -> [usize; 4] {
        let lattice = Lattice::new(distance).unwrap();
        let model = PureDephasing::new(p).unwrap();
        let config = MonteCarloConfig::new(trials)
            .with_threads(2)
            .with_seed(2020);
        let result = run_sfq_lifetime(&lattice, &model, &config, variant);
        assert_eq!(result.cycle_samples.len(), trials);
        [
            result.failures,
            result.total_defects,
            result.cycle_samples.iter().sum(),
            result.cycle_samples.iter().copied().max().unwrap_or(0),
        ]
    }

    /// The lifetime operating point pinned to the integer: the benchmark's
    /// `lifetime_mesh_d9` point (d = 9, p = 0.05, seed 2020) and every
    /// variant at d = 5, p = 0.08.  A change to the sampler or the mesh
    /// decode that alters one pairing, chain or cycle count shows here.
    /// The gap sampler's threshold table calls no libm, so the values hold
    /// on every IEEE host; they are the values its `ln` predecessor gave.
    #[test]
    fn lifetime_operating_point_is_pinned() {
        assert_eq!(
            lifetime_integers(9, 0.05, 20_000, DecoderVariant::Final),
            [708, 235_747, 439_053, 104],
            "d=9 p=0.05 final"
        );
        for (variant, expected) in [
            (DecoderVariant::Baseline, [1_488, 9_261, 31_268, 264]),
            (DecoderVariant::WithReset, [1_420, 9_261, 198_119, 264]),
            (
                DecoderVariant::WithResetAndBoundary,
                [1_131, 9_261, 13_527, 24],
            ),
            (DecoderVariant::Final, [251, 9_261, 28_806, 38]),
        ] {
            assert_eq!(
                lifetime_integers(5, 0.08, 2_000, variant),
                expected,
                "d=5 p=0.08 {variant:?}"
            );
        }
    }

    /// The counts hold every trial's sample: for each variant at d = 5 on
    /// two threads, the cycle and time multisets equal the decoder's
    /// per-trial reports, collected one by one and sorted.  WithReset's
    /// stalls run to the cycle cap, so its last bucket is exercised.
    #[test]
    fn counts_equal_the_per_trial_reports() {
        let lattice = Lattice::new(5).unwrap();
        let model = PureDephasing::new(0.08).unwrap();
        let config = MonteCarloConfig::new(2_000).with_threads(2).with_seed(2020);
        for variant in DecoderVariant::ALL {
            let reports = std::sync::Mutex::new(Vec::new());
            let cap = variant.config().max_cycles_on(&lattice);
            let result = run_lifetime(
                &lattice,
                &model,
                &config,
                || SfqMeshDecoder::new(variant),
                |decoder: &SfqMeshDecoder| {
                    let stats = decoder.last_stats();
                    reports.lock().unwrap().extend(stats);
                    stats
                },
                cap,
            );
            let reports = reports.into_inner().unwrap();
            assert_eq!(reports.len(), 2_000, "{variant:?}");
            let mut cycles: Vec<usize> = reports.iter().map(|s| s.cycles).collect();
            cycles.sort_unstable();
            let mut times: Vec<f64> = reports.iter().map(|s| s.time_ns).collect();
            times.sort_unstable_by(f64::total_cmp);
            assert_eq!(result.cycle_samples.len(), 2_000, "{variant:?}");
            assert_eq!(result.time_ns_samples.len(), 2_000, "{variant:?}");
            assert!(
                result.cycle_samples.iter().copied().eq(cycles),
                "{variant:?}"
            );
            assert!(
                result.time_ns_samples.iter().copied().eq(times),
                "{variant:?}"
            );
            if variant == DecoderVariant::WithReset {
                assert_eq!(result.cycle_samples.iter().max(), Some(&cap));
            }
        }
    }

    /// A call keeps one run per cycle value, so its result holds at most
    /// `cap + 1` runs however many trials it simulates.
    #[test]
    fn a_result_holds_at_most_one_run_per_cycle_value() {
        let lattice = Lattice::new(5).unwrap();
        let model = PureDephasing::new(0.08).unwrap();
        let cap = DecoderVariant::WithReset.config().max_cycles_on(&lattice);
        for trials in [100, 20_000] {
            let config = MonteCarloConfig::new(trials).with_threads(2);
            let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::WithReset);
            assert_eq!(result.cycle_samples.len(), trials);
            assert!(result.cycle_samples.runs().len() <= cap + 1);
            assert!(result.time_ns_samples.runs().len() <= cap + 1);
        }
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
