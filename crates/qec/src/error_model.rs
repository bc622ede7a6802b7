//! Stochastic error channels used by the Monte-Carlo lifetime simulations.
//!
//! The paper's methodology section (Section VII) evaluates the decoder under
//! the **depolarizing channel** (Pauli X, Y, Z each with probability `p/3`)
//! and presents its headline results under the **pure dephasing channel**
//! (Pauli Z with probability `p`), sampled i.i.d. on every data qubit each
//! cycle.  Both channels are provided here, together with a generic biased
//! channel that interpolates between them.

use crate::error::QecError;
use crate::lattice::Lattice;
use crate::pauli::{Pauli, PauliString};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A stochastic single-qubit error channel applied i.i.d. to every data qubit.
pub trait ErrorModel {
    /// The total probability that a given data qubit suffers *some* error in
    /// one cycle.
    fn physical_error_rate(&self) -> f64;

    /// Samples an error pattern over all data qubits of a lattice.
    fn sample<R: Rng + ?Sized>(&self, lattice: &Lattice, rng: &mut R) -> PauliString {
        let mut error = PauliString::default();
        self.sample_into(lattice, rng, &mut error);
        error
    }

    /// Samples an error pattern over all data qubits of a lattice into a
    /// caller-provided buffer (resized to the lattice, its allocation
    /// reused), by gap sampling: one draw per *faulty* qubit for the distance
    /// to it, one more where the channel has several fault types to pick
    /// from, and one closing draw that runs past the last qubit — `flips + 1`
    /// draws under pure dephasing, whatever the lattice's size.  A seed's
    /// stream is reproducible per platform (the gaps go through `f64::ln`).
    fn sample_into<R: Rng + ?Sized>(&self, lattice: &Lattice, rng: &mut R, error: &mut PauliString);
}

/// The uniform → gap map of the sampler, stated once: a draw `u ∈ [0, 1)`
/// becomes `⌊ln u / ln(1 − p)⌋` healthy qubits before the next faulty one, so
/// `P(gap ≥ k) = P(u ≤ (1 − p)^k) = (1 − p)^k` — the geometric law of i.i.d.
/// faults of rate `p`.  The cast saturates: `p = 0` divides by `-0.0` and
/// yields `usize::MAX` ("none left") for every `u`, `p = 1` divides by `−∞`
/// and yields 0.  `f64::ln` is the platform libm's, which does not promise
/// the last bit: a seed reproduces its stream on one platform, not across
/// them (a quotient within an ulp of an integer is what it would take).
fn gap(u: f64, ln_healthy: f64) -> usize {
    (u.ln() / ln_healthy) as usize
}

/// The one sampler behind every channel: walks the data qubits [`gap`] by
/// gap at total fault rate `rate` and asks `fault` which Pauli each faulty
/// qubit suffers.
fn sample_faults<R: Rng + ?Sized>(
    rate: f64,
    lattice: &Lattice,
    rng: &mut R,
    error: &mut PauliString,
    mut fault: impl FnMut(&mut R) -> Pauli,
) {
    let num_qubits = lattice.num_data();
    error.reset_identity(num_qubits);
    let ln_healthy = (-rate).ln_1p();
    let mut qubit = 0usize;
    loop {
        qubit = qubit.saturating_add(gap(rng.gen(), ln_healthy));
        if qubit >= num_qubits {
            return;
        }
        error.set(qubit, fault(rng));
        qubit += 1;
    }
}

fn validate_probability(p: f64) -> Result<f64, QecError> {
    if (0.0..=1.0).contains(&p) && p.is_finite() {
        Ok(p)
    } else {
        Err(QecError::InvalidProbability { value: p })
    }
}

/// The symmetric depolarizing channel: X, Y and Z each occur with probability `p/3`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Depolarizing {
    p: f64,
}

impl Depolarizing {
    /// Creates a depolarizing channel of total error probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, QecError> {
        Ok(Depolarizing {
            p: validate_probability(p)?,
        })
    }

    /// The total error probability `p`.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl ErrorModel for Depolarizing {
    fn physical_error_rate(&self) -> f64 {
        self.p
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        sample_faults(self.p, lattice, rng, error, |rng| {
            Pauli::ERRORS[(rng.gen::<f64>() * 3.0) as usize]
        });
    }
}

/// The pure dephasing channel: Z occurs with probability `p`, nothing else.
///
/// This is the error model under which the paper reports its accuracy
/// threshold (≈5%) and pseudo-thresholds (3.5%–5%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PureDephasing {
    p: f64,
}

impl PureDephasing {
    /// Creates a pure dephasing channel of error probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, QecError> {
        Ok(PureDephasing {
            p: validate_probability(p)?,
        })
    }

    /// The phase-flip probability `p`.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl ErrorModel for PureDephasing {
    fn physical_error_rate(&self) -> f64 {
        self.p
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        sample_faults(self.p, lattice, rng, error, |_| Pauli::Z);
    }
}

/// A biased Pauli channel with independent probabilities for X, Y and Z.
///
/// `BiasedChannel` generalizes both [`Depolarizing`] (`px = py = pz = p/3`)
/// and [`PureDephasing`] (`px = py = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasedChannel {
    px: f64,
    py: f64,
    pz: f64,
}

impl BiasedChannel {
    /// Creates a biased channel from individual X, Y and Z probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if any probability is outside
    /// `[0, 1]` or if they sum to more than 1.
    pub fn new(px: f64, py: f64, pz: f64) -> Result<Self, QecError> {
        validate_probability(px)?;
        validate_probability(py)?;
        validate_probability(pz)?;
        validate_probability(px + py + pz)?;
        Ok(BiasedChannel { px, py, pz })
    }

    /// The individual probabilities `(px, py, pz)`.
    #[must_use]
    pub fn probabilities(&self) -> (f64, f64, f64) {
        (self.px, self.py, self.pz)
    }
}

impl ErrorModel for BiasedChannel {
    fn physical_error_rate(&self) -> f64 {
        self.px + self.py + self.pz
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        let rate = self.physical_error_rate();
        // Shares of a fault, as cumulative fractions: with `pz = 0` the
        // second is exactly 1 and a `Z` is impossible, not merely unlikely.
        let (x_share, xy_share) = (self.px / rate, (self.px + self.py) / rate);
        sample_faults(rate, lattice, rng, error, |rng| {
            let r: f64 = rng.gen();
            if r < x_share {
                Pauli::X
            } else if r < xy_share {
                Pauli::Y
            } else {
                Pauli::Z
            }
        });
    }
}

/// How a [`DriftingErrorModel`]'s rate evolves with the round index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DriftKind {
    /// Linear ramp: `rate(n) = base + per_round * n`.
    Ramp {
        /// Per-round rate increment (may be negative for a cool-down ramp).
        per_round: f64,
    },
    /// Sinusoidal oscillation:
    /// `rate(n) = base + amplitude * sin(2π * n / period_rounds)`.
    Sinusoid {
        /// Peak deviation from the base rate.
        amplitude: f64,
        /// Oscillation period in rounds.
        period_rounds: f64,
    },
}

/// A pure-dephasing channel whose phase-flip probability varies with the
/// measurement-round index — noise *physics*, as opposed to the fault plane's
/// injected wire corruption.
///
/// `DriftingErrorModel` is a rate *schedule*: [`rate_at`](Self::rate_at) maps
/// a round index to an instantaneous dephasing probability (clamped to
/// `[0, 1]`), which the runtime's syndrome sources turn into a per-round
/// [`PureDephasing`] channel.  A round draws once per fault, so a drifting
/// stream is a function of its seed *and* its schedule — bit-for-bit
/// reproducible from the two, and sharing with a differently scheduled
/// stream only the rounds before the rates part.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftingErrorModel {
    base: f64,
    kind: DriftKind,
}

impl DriftingErrorModel {
    /// Creates a linear ramp starting at `base` and moving by `per_round`
    /// each round.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `base` is outside `[0, 1]`
    /// and [`QecError::InvalidDriftParameter`] if `per_round` is not finite.
    pub fn ramp(base: f64, per_round: f64) -> Result<Self, QecError> {
        if !per_round.is_finite() {
            return Err(QecError::InvalidDriftParameter {
                name: "per_round",
                value: per_round,
            });
        }
        Ok(DriftingErrorModel {
            base: validate_probability(base)?,
            kind: DriftKind::Ramp { per_round },
        })
    }

    /// Creates a sinusoid oscillating around `base` with the given peak
    /// `amplitude` and `period_rounds`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `base` is outside `[0, 1]`
    /// and [`QecError::InvalidDriftParameter`] if `amplitude` is negative or
    /// not finite, or `period_rounds` is not strictly positive and finite.
    pub fn sinusoid(base: f64, amplitude: f64, period_rounds: f64) -> Result<Self, QecError> {
        if !amplitude.is_finite() || amplitude < 0.0 {
            return Err(QecError::InvalidDriftParameter {
                name: "amplitude",
                value: amplitude,
            });
        }
        if !period_rounds.is_finite() || period_rounds <= 0.0 {
            return Err(QecError::InvalidDriftParameter {
                name: "period_rounds",
                value: period_rounds,
            });
        }
        Ok(DriftingErrorModel {
            base: validate_probability(base)?,
            kind: DriftKind::Sinusoid {
                amplitude,
                period_rounds,
            },
        })
    }

    /// The rate at round 0 of the schedule.
    #[must_use]
    pub fn base_rate(&self) -> f64 {
        self.base
    }

    /// The drift shape.
    #[must_use]
    pub fn kind(&self) -> DriftKind {
        self.kind
    }

    /// The instantaneous dephasing probability at the given round, clamped
    /// to `[0, 1]`.
    #[must_use]
    pub fn rate_at(&self, round: u64) -> f64 {
        let n = round as f64;
        let raw = match self.kind {
            DriftKind::Ramp { per_round } => self.base + per_round * n,
            DriftKind::Sinusoid {
                amplitude,
                period_rounds,
            } => self.base + amplitude * (std::f64::consts::TAU * n / period_rounds).sin(),
        };
        raw.clamp(0.0, 1.0)
    }

    /// Returns the schedule with base and drift magnitude scaled by
    /// `factor` — how burst episodes amplify a drifting patch.  The scaled
    /// rate is still clamped to `[0, 1]` by [`rate_at`](Self::rate_at).
    #[must_use]
    pub fn amplified(&self, factor: f64) -> Self {
        let kind = match self.kind {
            DriftKind::Ramp { per_round } => DriftKind::Ramp {
                per_round: per_round * factor,
            },
            DriftKind::Sinusoid {
                amplitude,
                period_rounds,
            } => DriftKind::Sinusoid {
                amplitude: amplitude * factor,
                period_rounds,
            },
        };
        DriftingErrorModel {
            base: (self.base * factor).clamp(0.0, 1.0),
            kind,
        }
    }
}

/// A transient noise episode that blankets a patch for a window of rounds.
///
/// This is *physics* — an elevated physical error rate the decoder must ride
/// out, classified by the streaming residual path — distinct from the fault
/// plane's injected wire corruption, which the packet codec quarantines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstEvent {
    /// First round (inclusive) the burst covers.
    pub start_round: u64,
    /// Number of consecutive rounds the burst lasts.
    pub rounds: u64,
    /// Multiplier applied to the patch's error rate inside the window.
    pub factor: f64,
}

impl BurstEvent {
    /// Creates a burst covering `rounds` rounds from `start_round` with the
    /// given rate multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidDriftParameter`] if `factor` is negative
    /// or not finite.
    pub fn new(start_round: u64, rounds: u64, factor: f64) -> Result<Self, QecError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(QecError::InvalidDriftParameter {
                name: "factor",
                value: factor,
            });
        }
        Ok(BurstEvent {
            start_round,
            rounds,
            factor,
        })
    }

    /// Whether the given round falls inside the burst window.
    #[must_use]
    pub fn covers(&self, round: u64) -> bool {
        round >= self.start_round && round < self.end_round()
    }

    /// One past the last covered round.
    #[must_use]
    pub fn end_round(&self) -> u64 {
        self.start_round.saturating_add(self.rounds)
    }

    /// The amplified rate for a patch whose quiescent rate is `base`,
    /// clamped to `[0, 1]`.
    #[must_use]
    pub fn amplified_rate(&self, base: f64) -> f64 {
        (base * self.factor).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The oracle the gap sampler is checked against: one Bernoulli draw per
    /// data qubit, in qubit order — the sampler this module used to run.
    fn sample_single<R: Rng + ?Sized>((px, py, pz): (f64, f64, f64), rng: &mut R) -> Pauli {
        let r: f64 = rng.gen();
        if r < px {
            Pauli::X
        } else if r < px + py {
            Pauli::Y
        } else if r < px + py + pz {
            Pauli::Z
        } else {
            Pauli::I
        }
    }

    fn oracle_sample<R: Rng + ?Sized>(
        rates: (f64, f64, f64),
        lattice: &Lattice,
        rng: &mut R,
    ) -> PauliString {
        PauliString::from_ops(
            (0..lattice.num_data())
                .map(|_| sample_single(rates, rng))
                .collect(),
        )
    }

    /// Significance level of every χ² test below; they run at fixed seeds, so
    /// each either passes forever or never did.
    const Z_ALPHA_0_001: f64 = 3.0902;

    /// The χ² critical value at `α = 0.001` (Wilson–Hilferty).
    fn chi2_critical(df: usize) -> f64 {
        let k = df as f64;
        k * (1.0 - 2.0 / (9.0 * k) + Z_ALPHA_0_001 * (2.0 / (9.0 * k)).sqrt()).powi(3)
    }

    /// Two-sample χ² of homogeneity between histograms of equal totals:
    /// `(statistic, degrees of freedom)`.  Neighbouring cells are pooled until
    /// each holds 20 observations between the samples.
    fn chi2_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
        assert_eq!(a.iter().sum::<u64>(), b.iter().sum::<u64>());
        let mut cells: Vec<(u64, u64)> = Vec::new();
        let mut pool = (0u64, 0u64);
        for (&x, &y) in a.iter().zip(b) {
            pool = (pool.0 + x, pool.1 + y);
            if pool.0 + pool.1 >= 20 {
                cells.push(std::mem::take(&mut pool));
            }
        }
        if let Some(last) = cells.last_mut() {
            *last = (last.0 + pool.0, last.1 + pool.1);
        }
        let statistic = cells
            .iter()
            .map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64)
            .sum();
        (statistic, cells.len().saturating_sub(1))
    }

    /// Weight histogram and per-qubit fault counts of `rounds` samples.
    fn tally(
        lattice: &Lattice,
        rounds: u64,
        mut sample: impl FnMut() -> PauliString,
    ) -> (Vec<u64>, Vec<u64>) {
        let n = lattice.num_data();
        let (mut weights, mut marginals) = (vec![0u64; n + 1], vec![0u64; n]);
        for _ in 0..rounds {
            let error = sample();
            assert_eq!(error.len(), n);
            weights[error.weight()] += 1;
            for (qubit, op) in error.iter().enumerate() {
                marginals[qubit] += u64::from(op != Pauli::I);
            }
        }
        (weights, marginals)
    }

    /// Distribution parity with the per-qubit oracle at every size and rate
    /// the repository samples at: the error-weight histogram, and each
    /// qubit's fault count as its own 2 × 2 table (qubits are independent
    /// within either sampler, so the statistics add to a χ² of `n` degrees).
    #[test]
    fn gap_sampling_matches_the_per_qubit_oracle_in_weight_and_position() {
        const ROUNDS: u64 = 20_000;
        for distance in [3, 5, 9] {
            let lattice = Lattice::new(distance).unwrap();
            for p in [0.001, 0.03, 0.05, 0.3] {
                let model = PureDephasing::new(p).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(2020);
                let mut oracle_rng = ChaCha8Rng::seed_from_u64(2021);
                let (weights, marginals) =
                    tally(&lattice, ROUNDS, || model.sample(&lattice, &mut rng));
                let (oracle_weights, oracle_marginals) = tally(&lattice, ROUNDS, || {
                    oracle_sample((0.0, 0.0, p), &lattice, &mut oracle_rng)
                });
                let (statistic, df) = chi2_two_sample(&weights, &oracle_weights);
                assert!(
                    df >= 1 && statistic < chi2_critical(df),
                    "d={distance} p={p} weights: chi2 {statistic:.1} at {df} df"
                );
                let statistic: f64 = marginals
                    .iter()
                    .zip(&oracle_marginals)
                    .map(|(&x, &y)| chi2_two_sample(&[x, ROUNDS - x], &[y, ROUNDS - y]).0)
                    .sum();
                let df = lattice.num_data();
                assert!(
                    statistic < chi2_critical(df),
                    "d={distance} p={p} marginals: chi2 {statistic:.1} at {df} df"
                );
            }
        }
    }

    /// `I : X : Y : Z` shares of the two channels that spend a draw on which
    /// fault, against the oracle.
    #[test]
    fn empirical_rates_are_close_to_nominal() {
        fn shares(mut sample: impl FnMut() -> PauliString) -> [u64; 4] {
            let mut counts = [0u64; 4];
            for _ in 0..20_000 {
                for op in sample().iter() {
                    counts[op as usize] += 1;
                }
            }
            counts
        }
        let lattice = Lattice::new(5).unwrap();
        let depolarizing = Depolarizing::new(0.1).unwrap();
        let lopsided = BiasedChannel::new(0.01, 0.002, 0.1).unwrap();
        let third = 0.1 / 3.0;
        let mut rng = ChaCha8Rng::seed_from_u64(2020);
        let mut oracle_rng = ChaCha8Rng::seed_from_u64(2021);
        for (name, rates, sampled) in [
            (
                "depolarizing",
                (third, third, third),
                shares(|| depolarizing.sample(&lattice, &mut rng)),
            ),
            (
                "biased",
                lopsided.probabilities(),
                shares(|| lopsided.sample(&lattice, &mut rng)),
            ),
        ] {
            let oracle = shares(|| oracle_sample(rates, &lattice, &mut oracle_rng));
            let (statistic, df) = chi2_two_sample(&sampled, &oracle);
            assert_eq!(df, 3, "{name}: {sampled:?} vs {oracle:?}");
            assert!(
                statistic < chi2_critical(df),
                "{name}: chi2 {statistic:.1}, {sampled:?} vs {oracle:?}"
            );
        }
    }

    /// An RNG that counts the draws made from it.
    struct Counting<R>(R, u64);

    impl<R: rand::RngCore> rand::RngCore for Counting<R> {
        fn next_u32(&mut self) -> u32 {
            self.1 += 1;
            self.0.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// What a round costs: one draw per fault plus the closing one under
    /// dephasing — at `p = 0` and `p = 1` too — and one more per fault where
    /// the channel picks among fault types.
    #[test]
    fn a_round_draws_once_per_fault_plus_once() {
        let lattice = Lattice::new(9).unwrap();
        let mut rng = Counting(ChaCha8Rng::seed_from_u64(7), 0);
        let mut error = PauliString::default();
        for p in [0.0, 0.001, 0.05, 0.3, 1.0] {
            for _ in 0..200 {
                let before = rng.1;
                PureDephasing::new(p)
                    .unwrap()
                    .sample_into(&lattice, &mut rng, &mut error);
                assert_eq!(rng.1 - before, error.weight() as u64 + 1, "p = {p}");
                let before = rng.1;
                Depolarizing::new(p)
                    .unwrap()
                    .sample_into(&lattice, &mut rng, &mut error);
                assert_eq!(rng.1 - before, 2 * error.weight() as u64 + 1, "p = {p}");
            }
        }
    }

    /// The uniform → gap map at its edges and on one pinned stream.
    #[test]
    fn gap_map_edges_and_first_gaps_of_a_seed() {
        let ln_healthy = |p: f64| (-p).ln_1p();
        // p = 0 (and a rate too small to tell from it): no draw finds a
        // fault, and the saturated gap saturates the qubit index too.
        for u in [0.0, 0.5, 1.0 - f64::EPSILON / 2.0] {
            assert_eq!(gap(u, ln_healthy(0.0)), usize::MAX);
            assert_eq!(gap(u, ln_healthy(1.0)), 0);
        }
        assert_eq!(gap(0.5, ln_healthy(1e-300)), usize::MAX);
        assert_eq!(7usize.saturating_add(gap(0.5, ln_healthy(0.0))), usize::MAX);
        // 0.95^13 = 0.5133…, 0.95^14 = 0.4876…
        let ln_q = ln_healthy(0.05);
        assert_eq!(
            (gap(0.5, ln_q), gap(0.96, ln_q), gap(0.0, ln_q)),
            (13, 0, usize::MAX)
        );
        let mut rng = ChaCha8Rng::seed_from_u64(2020);
        let first: Vec<usize> = (0..8).map(|_| gap(rng.gen(), ln_q)).collect();
        assert_eq!(first, [50, 5, 24, 2, 0, 7, 36, 47]);
    }

    #[test]
    fn sample_into_draws_what_sample_draws() {
        let lattice = Lattice::new(5).unwrap();
        let model = Depolarizing::new(0.2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut rng_into = ChaCha8Rng::seed_from_u64(99);
        // Starts at the wrong length: `sample_into` resizes its buffer.
        let mut buffer = PauliString::identity(3);
        for _ in 0..20 {
            model.sample_into(&lattice, &mut rng_into, &mut buffer);
            assert_eq!(buffer, model.sample(&lattice, &mut rng));
        }
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(Depolarizing::new(-0.1).is_err());
        assert!(Depolarizing::new(1.1).is_err());
        assert!(Depolarizing::new(f64::NAN).is_err());
        assert!(PureDephasing::new(2.0).is_err());
        assert!(BiasedChannel::new(0.5, 0.5, 0.5).is_err());
        assert!(BiasedChannel::new(0.1, 0.1, 0.1).is_ok());
    }

    #[test]
    fn zero_probability_never_errors() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PureDephasing::new(0.0).unwrap();
        for _ in 0..100 {
            assert!(model.sample(&lattice, &mut rng).is_identity());
        }
    }

    #[test]
    fn unit_probability_always_errors() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = PureDephasing::new(1.0).unwrap();
        let depol = Depolarizing::new(1.0).unwrap();
        for _ in 0..100 {
            assert!(model
                .sample(&lattice, &mut rng)
                .iter()
                .all(|op| op == Pauli::Z));
            assert_eq!(
                depol.sample(&lattice, &mut rng).weight(),
                lattice.num_data()
            );
        }
    }

    #[test]
    fn dephasing_only_produces_z() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = PureDephasing::new(0.5).unwrap();
        for _ in 0..100 {
            let error = model.sample(&lattice, &mut rng);
            assert!(error.weight() > 0);
            assert!(error.iter().all(|op| op == Pauli::I || op == Pauli::Z));
        }
    }

    #[test]
    fn biased_channel_matches_components() {
        let lattice = Lattice::new(5).unwrap();
        let model = BiasedChannel::new(0.0, 0.0, 0.25).unwrap();
        assert!((model.physical_error_rate() - 0.25).abs() < 1e-12);
        assert_eq!(model.probabilities(), (0.0, 0.0, 0.25));
        // A share of zero is impossible, not merely unlikely.
        let no_z = BiasedChannel::new(0.2, 0.1, 0.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..100 {
            let error = model.sample(&lattice, &mut rng);
            assert!(error.iter().all(|op| op == Pauli::I || op == Pauli::Z));
            assert!(no_z
                .sample(&lattice, &mut rng)
                .iter()
                .all(|op| op != Pauli::Z));
        }
    }

    #[test]
    fn sample_covers_all_data_qubits() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = Depolarizing::new(0.2).unwrap();
        let error = model.sample(&lattice, &mut rng);
        assert_eq!(error.len(), lattice.num_data());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let lattice = Lattice::new(7).unwrap();
        let model = Depolarizing::new(0.1).unwrap();
        let a = model.sample(&lattice, &mut ChaCha8Rng::seed_from_u64(42));
        let b = model.sample(&lattice, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn ramp_drifts_linearly_and_clamps() {
        let drift = DriftingErrorModel::ramp(0.01, 0.001).unwrap();
        assert!((drift.rate_at(0) - 0.01).abs() < 1e-12);
        assert!((drift.rate_at(10) - 0.02).abs() < 1e-12);
        // Far past the ramp the rate saturates at 1.
        assert_eq!(drift.rate_at(10_000_000), 1.0);
        // A cool-down ramp clamps at 0.
        let cool = DriftingErrorModel::ramp(0.01, -0.001).unwrap();
        assert_eq!(cool.rate_at(1000), 0.0);
    }

    #[test]
    fn sinusoid_oscillates_around_base() {
        let drift = DriftingErrorModel::sinusoid(0.05, 0.02, 100.0).unwrap();
        assert!((drift.rate_at(0) - 0.05).abs() < 1e-12);
        assert!((drift.rate_at(25) - 0.07).abs() < 1e-9);
        assert!((drift.rate_at(75) - 0.03).abs() < 1e-9);
        // One full period returns (numerically close) to base.
        assert!((drift.rate_at(100) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn drift_parameters_are_validated() {
        assert!(DriftingErrorModel::ramp(1.5, 0.0).is_err());
        assert!(DriftingErrorModel::ramp(0.1, f64::NAN).is_err());
        assert!(DriftingErrorModel::sinusoid(0.1, -0.1, 10.0).is_err());
        assert!(DriftingErrorModel::sinusoid(0.1, 0.1, 0.0).is_err());
        assert!(DriftingErrorModel::sinusoid(0.1, 0.1, f64::INFINITY).is_err());
        assert!(BurstEvent::new(0, 10, -1.0).is_err());
        assert!(BurstEvent::new(0, 10, f64::NAN).is_err());
    }

    #[test]
    fn amplified_drift_scales_and_clamps() {
        let drift = DriftingErrorModel::ramp(0.02, 0.001).unwrap();
        let hot = drift.amplified(10.0);
        assert!((hot.rate_at(0) - 0.2).abs() < 1e-12);
        assert!((hot.rate_at(10) - 0.3).abs() < 1e-12);
        let sin = DriftingErrorModel::sinusoid(0.04, 0.01, 64.0).unwrap();
        let hot = sin.amplified(5.0);
        assert!((hot.base_rate() - 0.2).abs() < 1e-12);
        match hot.kind() {
            DriftKind::Sinusoid {
                amplitude,
                period_rounds,
            } => {
                assert!((amplitude - 0.05).abs() < 1e-12);
                assert!((period_rounds - 64.0).abs() < 1e-12);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn burst_window_arithmetic() {
        let burst = BurstEvent::new(100, 50, 8.0).unwrap();
        assert!(!burst.covers(99));
        assert!(burst.covers(100));
        assert!(burst.covers(149));
        assert!(!burst.covers(150));
        assert_eq!(burst.end_round(), 150);
        assert!((burst.amplified_rate(0.03) - 0.24).abs() < 1e-12);
        assert_eq!(burst.amplified_rate(0.5), 1.0);
        // Degenerate saturating window.
        let tail = BurstEvent::new(u64::MAX, 10, 1.0).unwrap();
        assert_eq!(tail.end_round(), u64::MAX);
    }
}
