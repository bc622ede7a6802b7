//! Required-code-distance comparison across decoders (Figure 11).
//!
//! Figure 11 asks: to run an algorithm with 100 T gates at a fixed target
//! reliability, what code distance does each decoder need?  Two effects
//! matter: the decoder's intrinsic accuracy (threshold and effective-distance
//! factor) and the decoding backlog.  A decoder slower than syndrome
//! generation stalls at every T gate, and the extra syndrome-measurement
//! rounds accumulated while stalled all contribute to the logical failure
//! budget, inflating the code distance it needs — by roughly 10x at the
//! error rates of interest.

use crate::backlog::BacklogModel;
use crate::benchmarks::BenchmarkCircuit;
use crate::sqv::ScalingModel;
use serde::{Deserialize, Serialize};

/// Accuracy and latency profile of one decoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderProfile {
    /// Display name.
    pub name: String,
    /// The logical-error-rate scaling model of the decoder.
    pub model: ScalingModel,
    /// Decode latency per syndrome-generation cycle's worth of data, in
    /// nanoseconds.
    pub decode_latency_ns: f64,
    /// Whether the backlog penalty applies (set to `false` for the
    /// theoretical backlog-free reference decoder).
    pub subject_to_backlog: bool,
}

impl DecoderProfile {
    /// The SFQ mesh decoder: approximate accuracy (Table V), but a decode
    /// time of at most ~20 ns per round — far below syndrome generation.
    #[must_use]
    pub fn sfq(distance_hint: usize) -> Self {
        DecoderProfile {
            name: "SFQ Decoder".into(),
            model: ScalingModel::sfq_paper(distance_hint),
            decode_latency_ns: 20.0,
            subject_to_backlog: true,
        }
    }

    /// Software minimum-weight perfect matching: ideal accuracy, but orders
    /// of magnitude slower than syndrome generation once communication with
    /// the cryostat is included.
    #[must_use]
    pub fn mwpm() -> Self {
        DecoderProfile {
            name: "MWPM".into(),
            model: ScalingModel::ideal_mwpm(),
            decode_latency_ns: 100_000.0,
            subject_to_backlog: true,
        }
    }

    /// The neural-network decoder of Chamberland & Ronagh: ~800 ns inference.
    #[must_use]
    pub fn neural_network() -> Self {
        DecoderProfile {
            name: "NNet".into(),
            model: ScalingModel {
                c1: 0.03,
                pth: 0.08,
                c2: 0.45,
            },
            decode_latency_ns: 800.0,
            subject_to_backlog: true,
        }
    }

    /// The union-find decoder in the paper's profile (Section VIII): almost
    /// MWPM accuracy (threshold lower by ~0.4%) at ~900 ns a decode, more
    /// than twice the syndrome-generation time.  These are the paper's
    /// figures; this repository's implementation is measured by the
    /// benchmark's `decoders.union_find.round_ns` row.
    #[must_use]
    pub fn union_find() -> Self {
        DecoderProfile {
            name: "Union Find".into(),
            model: ScalingModel {
                c1: 0.03,
                pth: 0.099,
                c2: 0.5,
            },
            decode_latency_ns: 900.0,
            subject_to_backlog: true,
        }
    }

    /// A hypothetical MWPM decoder with the backlog ignored — the reference
    /// line of Figure 11.
    #[must_use]
    pub fn mwpm_without_backlog() -> Self {
        DecoderProfile {
            name: "MWPM Without Backlog".into(),
            model: ScalingModel::ideal_mwpm(),
            decode_latency_ns: 100_000.0,
            subject_to_backlog: false,
        }
    }

    /// The standard panel of Figure 11, in plotting order.
    #[must_use]
    pub fn figure_11_panel() -> Vec<DecoderProfile> {
        vec![
            DecoderProfile::sfq(5),
            DecoderProfile::mwpm(),
            DecoderProfile::neural_network(),
            DecoderProfile::union_find(),
            DecoderProfile::mwpm_without_backlog(),
        ]
    }
}

/// Parameters of the required-distance calculation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonSetup {
    /// Number of T gates in the algorithm (the paper uses 100).
    pub t_gates: usize,
    /// Syndrome generation cycle in nanoseconds.
    pub syndrome_cycle_ns: f64,
    /// Acceptable total failure probability for the whole algorithm.
    pub target_failure: f64,
    /// Largest code distance considered before giving up.
    pub max_distance: usize,
}

impl Default for ComparisonSetup {
    fn default() -> Self {
        ComparisonSetup {
            t_gates: 100,
            syndrome_cycle_ns: 400.0,
            target_failure: 0.5,
            max_distance: 2001,
        }
    }
}

/// The effective number of error-correction rounds each logical gate is
/// exposed to, once the decoder's backlog is accounted for.
#[must_use]
pub fn effective_rounds_per_gate(profile: &DecoderProfile, setup: &ComparisonSetup) -> f64 {
    let d_rounds = 1.0f64; // one measurement round per logical gate at minimum
    if !profile.subject_to_backlog {
        return d_rounds;
    }
    let model = BacklogModel::new(setup.syndrome_cycle_ns, profile.decode_latency_ns.max(1e-3));
    let ratio = model.ratio();
    if ratio <= 1.0 {
        return d_rounds;
    }
    // The algorithm (t_gates gates, all of them T for the purpose of the
    // bound) accumulates an average stall per gate; every stalled round is an
    // extra exposure to logical errors.
    let bench = BenchmarkCircuit::new("comparison", 1, setup.t_gates, setup.t_gates);
    let timeline = model.execution_time(&bench);
    let total_rounds = timeline.wall_clock_s / (setup.syndrome_cycle_ns * 1e-9);
    (total_rounds / setup.t_gates as f64).max(d_rounds)
}

/// The smallest code distance at which the decoder meets the target failure
/// probability for the whole algorithm, or `None` if no distance up to the
/// configured maximum suffices.
#[must_use]
pub fn required_code_distance(
    profile: &DecoderProfile,
    physical_error_rate: f64,
    setup: &ComparisonSetup,
) -> Option<usize> {
    if physical_error_rate >= profile.model.pth {
        return None;
    }
    let rounds_per_gate = effective_rounds_per_gate(profile, setup);
    let budget_per_round = setup.target_failure / (setup.t_gates as f64 * rounds_per_gate);
    let mut d = 3usize;
    while d <= setup.max_distance {
        let pl = profile.model.logical_error_rate(physical_error_rate, d);
        if pl <= budget_per_round {
            return Some(d);
        }
        d += 2;
    }
    None
}

/// One decoder's Figure 11 curve: `(p, required distance)` points, where
/// `None` means the decoder cannot reach the target at that error rate.
pub type DistanceCurve = Vec<(f64, Option<usize>)>;

/// Sweeps physical error rates for the whole Figure 11 panel.
///
/// Returns, for each decoder, the list of `(p, required distance)` points
/// (absent entries mean the decoder cannot reach the target at that rate).
#[must_use]
pub fn figure_11_sweep(
    physical_error_rates: &[f64],
    setup: &ComparisonSetup,
) -> Vec<(DecoderProfile, DistanceCurve)> {
    DecoderProfile::figure_11_panel()
        .into_iter()
        .map(|profile| {
            let points = physical_error_rates
                .iter()
                .map(|&p| (p, required_code_distance(&profile, p, setup)))
                .collect();
            (profile, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_decoders_pay_no_backlog_penalty() {
        let setup = ComparisonSetup::default();
        let sfq = DecoderProfile::sfq(5);
        assert_eq!(effective_rounds_per_gate(&sfq, &setup), 1.0);
        let reference = DecoderProfile::mwpm_without_backlog();
        assert_eq!(effective_rounds_per_gate(&reference, &setup), 1.0);
    }

    #[test]
    fn slow_decoders_pay_a_huge_backlog_penalty() {
        let setup = ComparisonSetup::default();
        let nn = DecoderProfile::neural_network();
        let rounds = effective_rounds_per_gate(&nn, &setup);
        assert!(rounds > 1e3, "rounds per gate {rounds}");
        let uf = DecoderProfile::union_find();
        assert!(effective_rounds_per_gate(&uf, &setup) > 1e3);
    }

    #[test]
    fn sfq_needs_smaller_distance_than_backlogged_mwpm() {
        let setup = ComparisonSetup::default();
        let p = 1e-3;
        let sfq = required_code_distance(&DecoderProfile::sfq(5), p, &setup).unwrap();
        let mwpm = required_code_distance(&DecoderProfile::mwpm(), p, &setup).unwrap();
        let nn = required_code_distance(&DecoderProfile::neural_network(), p, &setup).unwrap();
        assert!(
            mwpm >= 2 * sfq,
            "backlogged MWPM distance {mwpm} should dwarf the SFQ distance {sfq}"
        );
        assert!(nn > sfq);
    }

    #[test]
    fn backlog_free_mwpm_beats_everything_at_low_error_rates() {
        let setup = ComparisonSetup::default();
        let p = 1e-4;
        let reference =
            required_code_distance(&DecoderProfile::mwpm_without_backlog(), p, &setup).unwrap();
        let sfq = required_code_distance(&DecoderProfile::sfq(5), p, &setup).unwrap();
        assert!(reference <= sfq);
    }

    #[test]
    fn required_distance_grows_toward_threshold() {
        let setup = ComparisonSetup::default();
        let profile = DecoderProfile::sfq(5);
        let low = required_code_distance(&profile, 1e-4, &setup).unwrap();
        let high = required_code_distance(&profile, 2e-2, &setup).unwrap();
        assert!(high > low);
        // Above the threshold no distance works.
        assert!(required_code_distance(&profile, 0.06, &setup).is_none());
    }

    #[test]
    fn sweep_covers_the_whole_panel() {
        let setup = ComparisonSetup::default();
        let sweep = figure_11_sweep(&[1e-4, 1e-3, 1e-2], &setup);
        assert_eq!(sweep.len(), 5);
        for (_, points) in &sweep {
            assert_eq!(points.len(), 3);
        }
    }
}
