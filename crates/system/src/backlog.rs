//! The decoding-backlog execution-time model (Section III, Figures 5 and 6).
//!
//! If the decoder processes syndrome data slower than the machine generates
//! it (`f = r_gen / r_proc > 1`), every T gate must wait for the accumulated
//! backlog, and the data generated *while waiting* (error correction never
//! stops, even when the logical computation is stalled) compounds: the stall
//! before the k-th T gate grows like `f^k`.  Two models are provided:
//!
//! * [`BacklogModel`] — the closed-form recurrence from the paper's proof
//!   sketch (`R_i = f R_{i-1} + (f - 1) g_i`),
//! * [`BacklogSimulation`] — a discrete-event simulation of the syndrome
//!   queue that walks the actual gate schedule of a benchmark.
//!
//! Both agree (see the cross-validation tests), which is the point of
//! Figure 5/6: the blow-up is intrinsic to any decoder with `f > 1`.

use crate::benchmarks::{BenchmarkCircuit, LogicalGate};
use serde::{Deserialize, Serialize};

/// The wall-clock decomposition of one benchmark execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTimeline {
    /// The decoding ratio `f = r_gen / r_proc`.
    pub ratio: f64,
    /// Pure compute time (no stalls), in seconds.
    pub compute_s: f64,
    /// Total time spent stalled at T gates waiting for the decoder, in seconds.
    pub stall_s: f64,
    /// Total wall-clock time, in seconds.
    pub wall_clock_s: f64,
}

impl ExecutionTimeline {
    /// The slowdown factor relative to a backlog-free execution.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.compute_s == 0.0 {
            1.0
        } else {
            self.wall_clock_s / self.compute_s
        }
    }
}

/// Closed-form backlog model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacklogModel {
    /// Syndrome-generation cycle time in nanoseconds (the paper assumes
    /// 400 ns for superconducting devices).
    pub syndrome_cycle_ns: f64,
    /// Decoder time per syndrome-generation cycle's worth of data, in
    /// nanoseconds.
    pub decode_time_ns: f64,
}

impl BacklogModel {
    /// The syndrome cycle the paper assumes (400 ns).
    pub const DEFAULT_SYNDROME_CYCLE_NS: f64 = 400.0;

    /// Creates a model from the syndrome cycle and decoder latency.
    ///
    /// # Panics
    ///
    /// Panics if either time is not positive.
    #[must_use]
    pub fn new(syndrome_cycle_ns: f64, decode_time_ns: f64) -> Self {
        assert!(
            syndrome_cycle_ns > 0.0 && decode_time_ns > 0.0,
            "times must be positive"
        );
        BacklogModel {
            syndrome_cycle_ns,
            decode_time_ns,
        }
    }

    /// Creates a model directly from the decoding ratio `f`.
    #[must_use]
    pub fn from_ratio(ratio: f64) -> Self {
        BacklogModel::new(
            Self::DEFAULT_SYNDROME_CYCLE_NS,
            Self::DEFAULT_SYNDROME_CYCLE_NS * ratio,
        )
    }

    /// The decoding ratio `f = r_gen / r_proc` (equivalently decode time over
    /// generation time).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.decode_time_ns / self.syndrome_cycle_ns
    }

    /// Evaluates the closed-form model on a benchmark, assuming one syndrome
    /// cycle per logical gate and T gates spread evenly.
    #[must_use]
    pub fn execution_time(&self, benchmark: &BenchmarkCircuit) -> ExecutionTimeline {
        let f = self.ratio();
        let cycle_s = self.syndrome_cycle_ns * 1e-9;
        let total = benchmark.total_gates() as f64;
        let k = benchmark.t_gates() as f64;
        let compute_s = total * cycle_s;
        if f <= 1.0 || k == 0.0 {
            return ExecutionTimeline {
                ratio: f,
                compute_s,
                stall_s: 0.0,
                wall_clock_s: compute_s,
            };
        }
        // Gap (in cycles) between consecutive T gates.
        let gap = total / k;
        // R_i = f * R_{i-1} + (f - 1) * gap; sum the stalls over all k T gates.
        let mut stall_cycles = 0.0f64;
        let mut r = 0.0f64;
        for _ in 0..benchmark.t_gates() {
            r = f * r + (f - 1.0) * gap;
            stall_cycles += r;
            if !stall_cycles.is_finite() {
                break;
            }
        }
        let stall_s = stall_cycles * cycle_s;
        ExecutionTimeline {
            ratio: f,
            compute_s,
            stall_s,
            wall_clock_s: compute_s + stall_s,
        }
    }

    /// The steady-state backlog growth in *rounds of undecoded syndrome data
    /// per generated round* for a gate-free stream (no T-gate stalls).
    ///
    /// Each generation cycle adds one round of data and the decoder retires
    /// `1/f` rounds, so the queue grows by `1 - 1/f` rounds per cycle when
    /// `f > 1` and is stable (growth 0) otherwise.  This is the slope the
    /// streaming runtime measures empirically; see
    /// [`BacklogComparison::against_model`].
    #[must_use]
    pub fn steady_state_growth_per_round(&self) -> f64 {
        let f = self.ratio();
        if f <= 1.0 {
            0.0
        } else {
            1.0 - 1.0 / f
        }
    }

    /// The asymptotic backlog growth per T gate: the last stall is roughly
    /// `f^k` cycles.
    #[must_use]
    pub fn final_stall_cycles(&self, benchmark: &BenchmarkCircuit) -> f64 {
        let f = self.ratio();
        if f <= 1.0 {
            return 0.0;
        }
        let gap = benchmark.total_gates() as f64 / benchmark.t_gates().max(1) as f64;
        let mut r = 0.0f64;
        for _ in 0..benchmark.t_gates() {
            r = f * r + (f - 1.0) * gap;
            if !r.is_finite() {
                break;
            }
        }
        r
    }
}

/// Discrete-event simulation of the syndrome queue over a gate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacklogSimulation {
    model: BacklogModel,
}

impl BacklogSimulation {
    /// Creates a simulation using the given backlog model parameters.
    #[must_use]
    pub fn new(model: BacklogModel) -> Self {
        BacklogSimulation { model }
    }

    /// Walks the benchmark's gate schedule cycle by cycle.
    ///
    /// Every gate occupies one syndrome cycle; syndrome data accumulates in a
    /// queue that the decoder drains at rate `1/f`; a T gate cannot execute
    /// until all data generated *before* it has been decoded, and the
    /// machine keeps generating syndrome data while it waits.
    #[must_use]
    pub fn run(&self, benchmark: &BenchmarkCircuit) -> ExecutionTimeline {
        let f = self.model.ratio();
        let cycle_s = self.model.syndrome_cycle_ns * 1e-9;
        let sequence = benchmark.gate_sequence();
        let compute_s = sequence.len() as f64 * cycle_s;
        if f <= 1.0 {
            return ExecutionTimeline {
                ratio: f,
                compute_s,
                stall_s: 0.0,
                wall_clock_s: compute_s,
            };
        }

        // Backlog measured in cycles-worth of undecoded syndrome data.
        let mut backlog = 0.0f64;
        let mut stall_cycles = 0.0f64;
        for gate in sequence {
            if gate == LogicalGate::T {
                // Wait until the backlog accumulated so far is decoded; while
                // waiting, new data is generated and joins the *next* backlog.
                let wait = backlog * f;
                stall_cycles += wait;
                backlog = wait; // data generated during the wait
                if !stall_cycles.is_finite() {
                    break;
                }
            }
            // One cycle of computation: one unit generated, 1/f units decoded.
            backlog += 1.0 - 1.0 / f;
        }
        let stall_s = stall_cycles * cycle_s;
        ExecutionTimeline {
            ratio: f,
            compute_s,
            stall_s,
            wall_clock_s: compute_s + stall_s,
        }
    }
}

/// An empirically measured backlog trajectory in model terms: how many
/// rounds of syndrome data were generated, and how many were still
/// undecoded when generation stopped.
///
/// The streaming runtime (`nisqplus-runtime`) stores none of these: its run
/// report computes one on request from what it measured, for the whole
/// run (`RuntimeReport::measured`) or for one lattice of a multi-lattice
/// run (`LatticeReport::measured(workers)`).  A per-lattice view divides
/// the lattice's own service time by the pool width it is given, which,
/// given the full pool, assumes the pool is entirely available to that
/// lattice — an optimistic capacity bound when several lattices compete
/// for the same workers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredBacklog {
    /// Rounds of syndrome data generated.
    pub rounds: u64,
    /// Rounds still undecoded at the end of generation.
    pub final_backlog: u64,
    /// Rounds *shed* (dropped by a load-shedding push policy) during
    /// generation.  Shed rounds are lost, not owed: they never enter the
    /// backlog, so `final_backlog` alone understates how far the decoder
    /// fell behind.  The reconciliation is
    /// `rounds = decoded + final_backlog + shed` at the instant generation
    /// stops; [`MeasuredBacklog::unserved_per_round`] restores the shed
    /// rounds to the growth accounting.
    pub shed: u64,
    /// Mean decode service time per round, in nanoseconds, *divided by the
    /// number of parallel workers* (i.e. the aggregate service time).
    pub service_time_ns: f64,
    /// Mean inter-arrival time between generated rounds, in nanoseconds.
    pub inter_arrival_ns: f64,
}

impl MeasuredBacklog {
    /// The measured backlog growth in rounds per generated round.
    ///
    /// Shed rounds do **not** count here (they are not owed work); under a
    /// load-shedding policy compare with
    /// [`MeasuredBacklog::unserved_per_round`], which does count them.
    #[must_use]
    pub fn growth_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.final_backlog as f64 / self.rounds as f64
        }
    }

    /// The fraction of generated rounds that were shed.
    #[must_use]
    pub fn shed_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.shed as f64 / self.rounds as f64
        }
    }

    /// Rounds the decoder failed to serve per generated round: backlog still
    /// owed *plus* rounds shed.  Under backpressure (`shed == 0`) this equals
    /// [`MeasuredBacklog::growth_per_round`]; under load shedding it is the
    /// honest overload measure that the queue-only view hides.
    #[must_use]
    pub fn unserved_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            (self.final_backlog + self.shed) as f64 / self.rounds as f64
        }
    }

    /// The effective decoding ratio `f` implied by the measured service and
    /// arrival rates.
    #[must_use]
    pub fn effective_ratio(&self) -> f64 {
        if self.inter_arrival_ns <= 0.0 {
            0.0
        } else {
            self.service_time_ns / self.inter_arrival_ns
        }
    }

    /// The [`BacklogModel`] parameterized by the *measured* rates — the
    /// apples-to-apples model for this run.
    ///
    /// # Panics
    ///
    /// Panics if either measured time is not positive.
    #[must_use]
    pub fn effective_model(&self) -> BacklogModel {
        BacklogModel::new(self.inter_arrival_ns, self.service_time_ns)
    }
}

/// Measured-versus-modeled backlog growth: the empirical validation of
/// Figures 5 and 6 that the streaming runtime produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacklogComparison {
    /// Growth per round predicted by the model under the measured rates.
    pub predicted_growth_per_round: f64,
    /// Growth per round actually observed.
    pub measured_growth_per_round: f64,
    /// The effective decoding ratio `f` of the run.
    pub effective_ratio: f64,
}

impl BacklogComparison {
    /// Compares a measured trajectory against the closed-form model driven by
    /// the same (measured) generation and service rates.
    #[must_use]
    pub fn against_model(measured: &MeasuredBacklog) -> Self {
        let predicted = if measured.inter_arrival_ns > 0.0 && measured.service_time_ns > 0.0 {
            measured.effective_model().steady_state_growth_per_round()
        } else {
            0.0
        };
        BacklogComparison {
            predicted_growth_per_round: predicted,
            measured_growth_per_round: measured.growth_per_round(),
            effective_ratio: measured.effective_ratio(),
        }
    }

    /// The multiplicative disagreement between measurement and model
    /// (`>= 1`; `1.0` is perfect agreement).  When both growths are
    /// effectively zero (a stable queue, `f <= 1`) the agreement is perfect
    /// by convention; when exactly one is zero the factor is infinite.
    #[must_use]
    pub fn agreement_factor(&self) -> f64 {
        let (a, b) = (
            self.measured_growth_per_round,
            self.predicted_growth_per_round,
        );
        // Backlogs below one round per thousand generated are noise: both
        // sides call the queue stable.
        const STABLE: f64 = 1e-3;
        if a < STABLE && b < STABLE {
            return 1.0;
        }
        if a <= 0.0 || b <= 0.0 {
            return f64::INFINITY;
        }
        (a / b).max(b / a)
    }

    /// Whether the measurement validates the model to within `factor`x.
    #[must_use]
    pub fn within(&self, factor: f64) -> bool {
        self.agreement_factor() <= factor
    }
}

/// Sweeps the decoding ratio and reports the wall-clock time of a benchmark
/// at each point (the data behind Figure 6).
#[must_use]
pub fn runtime_vs_ratio(
    benchmark: &BenchmarkCircuit,
    ratios: &[f64],
    syndrome_cycle_ns: f64,
) -> Vec<(f64, ExecutionTimeline)> {
    ratios
        .iter()
        .map(|&r| {
            let model = BacklogModel::new(syndrome_cycle_ns, syndrome_cycle_ns * r.max(1e-6));
            (r, model.execution_time(benchmark))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_decoders_add_no_stall() {
        let model = BacklogModel::from_ratio(0.5);
        let timeline = model.execution_time(&BenchmarkCircuit::cuccaro_adder());
        assert_eq!(timeline.stall_s, 0.0);
        assert!((timeline.slowdown() - 1.0).abs() < 1e-12);
        let sim = BacklogSimulation::new(model).run(&BenchmarkCircuit::cuccaro_adder());
        assert_eq!(sim.stall_s, 0.0);
    }

    #[test]
    fn slow_decoders_blow_up_exponentially() {
        let model = BacklogModel::from_ratio(1.5);
        let small = model.execution_time(&BenchmarkCircuit::cnx_log_depth());
        let large = model.execution_time(&BenchmarkCircuit::barenco_half_dirty_toffoli());
        // More T gates -> astronomically more stall time.
        assert!(large.wall_clock_s > small.wall_clock_s);
        assert!(small.slowdown() > 1e3, "slowdown {}", small.slowdown());
    }

    #[test]
    fn section_three_example_is_astronomical() {
        // The paper: ratio 2 on the 686-T-gate example gives ~1e196 seconds.
        let model = BacklogModel::from_ratio(2.0);
        let timeline = model.execution_time(&BenchmarkCircuit::multiply_controlled_not_100());
        assert!(
            timeline.wall_clock_s > 1e150,
            "wall clock {} should be astronomically large",
            timeline.wall_clock_s
        );
    }

    #[test]
    fn ratio_is_decode_over_generation() {
        let model = BacklogModel::new(400.0, 800.0);
        assert!((model.ratio() - 2.0).abs() < 1e-12);
        let model = BacklogModel::new(400.0, 20.0);
        assert!(model.ratio() < 1.0);
    }

    #[test]
    fn model_and_simulation_agree_to_leading_order() {
        let model = BacklogModel::from_ratio(1.2);
        let bench = BenchmarkCircuit::cnx_log_depth();
        let analytic = model.execution_time(&bench);
        let simulated = BacklogSimulation::new(model).run(&bench);
        // Both blow up by the same exponential order of magnitude.
        let log_a = analytic.wall_clock_s.log10();
        let log_s = simulated.wall_clock_s.log10();
        assert!(
            (log_a - log_s).abs() < 2.0,
            "analytic 1e{log_a:.1} vs simulated 1e{log_s:.1}"
        );
    }

    #[test]
    fn final_stall_grows_with_t_count() {
        let model = BacklogModel::from_ratio(1.1);
        let few = model.final_stall_cycles(&BenchmarkCircuit::cnx_log_depth());
        let many = model.final_stall_cycles(&BenchmarkCircuit::barenco_half_dirty_toffoli());
        assert!(many > few);
        assert_eq!(
            BacklogModel::from_ratio(0.9).final_stall_cycles(&BenchmarkCircuit::cnx_log_depth()),
            0.0
        );
    }

    #[test]
    fn runtime_sweep_is_monotone_in_ratio() {
        let bench = BenchmarkCircuit::takahashi_adder();
        let sweep = runtime_vs_ratio(&bench, &[0.25, 0.5, 1.0, 1.25, 1.5], 400.0);
        assert_eq!(sweep.len(), 5);
        for pair in sweep.windows(2) {
            assert!(pair[1].1.wall_clock_s >= pair[0].1.wall_clock_s);
        }
        // Below ratio 1 everything is identical to pure compute time.
        assert!((sweep[0].1.wall_clock_s - sweep[2].1.wall_clock_s).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_model_panics() {
        let _ = BacklogModel::new(0.0, 10.0);
    }

    #[test]
    fn steady_state_growth_matches_ratio() {
        assert_eq!(
            BacklogModel::from_ratio(0.5).steady_state_growth_per_round(),
            0.0
        );
        assert_eq!(
            BacklogModel::from_ratio(1.0).steady_state_growth_per_round(),
            0.0
        );
        let growth = BacklogModel::from_ratio(2.0).steady_state_growth_per_round();
        assert!((growth - 0.5).abs() < 1e-12);
        let growth = BacklogModel::from_ratio(1.25).steady_state_growth_per_round();
        assert!((growth - 0.2).abs() < 1e-12);
    }

    #[test]
    fn measured_backlog_growth_and_ratio() {
        let measured = MeasuredBacklog {
            rounds: 10_000,
            final_backlog: 5_000,
            shed: 0,
            service_time_ns: 800.0,
            inter_arrival_ns: 400.0,
        };
        assert!((measured.growth_per_round() - 0.5).abs() < 1e-12);
        assert!((measured.effective_ratio() - 2.0).abs() < 1e-12);
        assert!((measured.effective_model().ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_of_consistent_measurement_agrees() {
        // f = 2 -> the model predicts growth 0.5/round; a measurement showing
        // 0.45/round agrees to within 1.2x.
        let measured = MeasuredBacklog {
            rounds: 10_000,
            final_backlog: 4_500,
            shed: 0,
            service_time_ns: 800.0,
            inter_arrival_ns: 400.0,
        };
        let cmp = BacklogComparison::against_model(&measured);
        assert!((cmp.predicted_growth_per_round - 0.5).abs() < 1e-12);
        assert!((cmp.measured_growth_per_round - 0.45).abs() < 1e-12);
        assert!(cmp.within(1.2));
        assert!(!cmp.within(1.05));
        assert!((cmp.agreement_factor() - 0.5 / 0.45).abs() < 1e-9);
    }

    #[test]
    fn stable_queues_agree_trivially() {
        // A fast decoder: f < 1, no growth on either side.
        let measured = MeasuredBacklog {
            rounds: 10_000,
            final_backlog: 3,
            shed: 0,
            service_time_ns: 100.0,
            inter_arrival_ns: 400.0,
        };
        let cmp = BacklogComparison::against_model(&measured);
        assert_eq!(cmp.predicted_growth_per_round, 0.0);
        assert_eq!(cmp.agreement_factor(), 1.0);
        assert!(cmp.within(2.0));
    }

    #[test]
    fn one_sided_growth_never_agrees() {
        // The model says stable but the measurement grew substantially.
        let measured = MeasuredBacklog {
            rounds: 1_000,
            final_backlog: 400,
            shed: 0,
            service_time_ns: 100.0,
            inter_arrival_ns: 400.0,
        };
        let cmp = BacklogComparison::against_model(&measured);
        assert_eq!(cmp.agreement_factor(), f64::INFINITY);
        assert!(!cmp.within(1e6));
    }

    #[test]
    fn empty_measurement_is_degenerate_but_finite() {
        let measured = MeasuredBacklog {
            rounds: 0,
            final_backlog: 0,
            shed: 0,
            service_time_ns: 0.0,
            inter_arrival_ns: 0.0,
        };
        assert_eq!(measured.growth_per_round(), 0.0);
        assert_eq!(measured.effective_ratio(), 0.0);
        let cmp = BacklogComparison::against_model(&measured);
        assert_eq!(cmp.agreement_factor(), 1.0);
    }
}
