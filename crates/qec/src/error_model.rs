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

    /// Samples the error applied to a single data qubit.
    fn sample_single<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli;

    /// Samples an error pattern over all data qubits of a lattice.
    fn sample<R: Rng + ?Sized>(&self, lattice: &Lattice, rng: &mut R) -> PauliString {
        let mut error = PauliString::default();
        self.sample_into(lattice, rng, &mut error);
        error
    }

    /// Samples an error pattern over all data qubits of a lattice into a
    /// caller-provided buffer, reusing its allocation: exactly one
    /// [`sample_single`](Self::sample_single) per data qubit, in ascending
    /// qubit order, so the draws are those of [`sample`](Self::sample).
    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        error.reset_identity(lattice.num_data());
        for qubit in 0..lattice.num_data() {
            error.set(qubit, self.sample_single(rng));
        }
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

    fn sample_single<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        let r: f64 = rng.gen();
        if r < self.p / 3.0 {
            Pauli::X
        } else if r < 2.0 * self.p / 3.0 {
            Pauli::Y
        } else if r < self.p {
            Pauli::Z
        } else {
            Pauli::I
        }
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

    fn sample_single<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        if rng.gen::<f64>() < self.p {
            Pauli::Z
        } else {
            Pauli::I
        }
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

    fn sample_single<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        let r: f64 = rng.gen();
        if r < self.px {
            Pauli::X
        } else if r < self.px + self.py {
            Pauli::Y
        } else if r < self.px + self.py + self.pz {
            Pauli::Z
        } else {
            Pauli::I
        }
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
/// [`PureDephasing`] channel.  Because every dephasing channel consumes
/// exactly one RNG draw per data qubit regardless of its rate, swapping the
/// rate mid-stream never perturbs the random sequence — drifting streams stay
/// bit-for-bit reproducible from the seed.
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
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PureDephasing::new(0.0).unwrap();
        for _ in 0..1000 {
            assert_eq!(model.sample_single(&mut rng), Pauli::I);
        }
    }

    #[test]
    fn unit_probability_always_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = PureDephasing::new(1.0).unwrap();
        for _ in 0..100 {
            assert_eq!(model.sample_single(&mut rng), Pauli::Z);
        }
        let depol = Depolarizing::new(1.0).unwrap();
        for _ in 0..100 {
            assert_ne!(depol.sample_single(&mut rng), Pauli::I);
        }
    }

    #[test]
    fn dephasing_only_produces_z() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = PureDephasing::new(0.5).unwrap();
        for _ in 0..1000 {
            let p = model.sample_single(&mut rng);
            assert!(p == Pauli::I || p == Pauli::Z);
        }
    }

    #[test]
    fn empirical_rates_are_close_to_nominal() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = Depolarizing::new(0.3).unwrap();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            let idx = match model.sample_single(&mut rng) {
                Pauli::I => 0,
                Pauli::X => 1,
                Pauli::Y => 2,
                Pauli::Z => 3,
            };
            counts[idx] += 1;
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.7).abs() < 0.01);
        for &c in &counts[1..] {
            assert!((frac(c) - 0.1).abs() < 0.01);
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
    fn biased_channel_matches_components() {
        let model = BiasedChannel::new(0.0, 0.0, 0.25).unwrap();
        assert!((model.physical_error_rate() - 0.25).abs() < 1e-12);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..500 {
            let p = model.sample_single(&mut rng);
            assert!(p == Pauli::I || p == Pauli::Z);
        }
        assert_eq!(model.probabilities(), (0.0, 0.0, 0.25));
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
