//! Monte-Carlo lifetime simulation, threshold estimation and statistics.
//!
//! The paper benchmarks its decoder with "lifetime simulation, or simply
//! Monte Carlo benchmarking" (Section VII): stochastically inject errors,
//! extract the syndrome, decode, apply the correction, and check for logical
//! errors; the ratio of logical errors to simulated cycles is the logical
//! error rate `PL`.  This crate provides that harness plus the downstream
//! analysis the evaluation section relies on:
//!
//! * [`monte_carlo`] — the (parallel, seeded) lifetime simulation loop,
//! * [`threshold`] — logical-error-rate curves over `(p, d)` grids,
//!   pseudo-thresholds and the accuracy threshold (Figure 10 a/b),
//! * [`fit`] — fitting `PL ≈ c1 (p/pth)^(c2 d)` to extract the effective
//!   code-distance factor `c2` (Table V),
//! * [`stats`] — summary statistics, histograms and confidence intervals,
//! * [`timing`] — converting decoder cycles into nanoseconds (Table IV and
//!   Figure 10 c).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fit;
pub mod monte_carlo;
pub mod stats;
pub mod threshold;
pub mod timing;

pub use fit::{fit_scaling_exponent, ScalingFit};
pub use monte_carlo::{run_lifetime, run_sfq_lifetime, MonteCarloConfig, MonteCarloResult};
pub use stats::{histogram, wilson_interval, SampleCounts, Summary};
pub use threshold::{accuracy_threshold, pseudo_threshold, ErrorRateCurve, ErrorRatePoint};
pub use timing::{CycleTimeConverter, ExecutionTimeRow};
