//! Soak-scale regression suite: the in-stream residual classification
//! against a reference, and the bounded-memory guarantees that make
//! million-round runs possible.
//!
//! * The residual property: the per-lattice [`ResidualReport`]s a run files
//!   (workers tally residuals the moment corrections commit, the producer
//!   tallies shed rounds, nothing O(rounds) retained) must equal a reference
//!   computed after the fact from the *same* run's recorded trace and
//!   correction history — across seeds, distances {3, 5, 7}, worker counts,
//!   Block/Drop push policies, timing-dependent sheds and scripted
//!   elasticity.
//! * The memory property: growing a run 10× (20k → 200k rounds) must not
//!   grow the retained telemetry — timelines, correction history, journal,
//!   histograms and the serialized report all stay within a constant
//!   factor.
//!
//! [`ResidualReport`]: nisqplus_runtime::ResidualReport

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::report::report_to_string;
use nisqplus_runtime::{
    record_run, FaultPlan, LatticeSpec, MachineConfig, NoiseSpec, PushPolicy, RuntimeOutcome,
    ScenarioScript, StreamingEngine, ThrottledDecoder,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn greedy() -> DynDecoder {
    Box::new(GreedyMatchingDecoder::new())
}

/// A three-lattice machine (d = 3, 5, 7) with the residual analysis on and
/// the full correction history kept (what the reference below pairs
/// against).  Two wire records are poisoned, so every run sheds at least the
/// quarantined rounds.
fn residual_config(policy: PushPolicy, seed: u64, workers: usize) -> MachineConfig {
    let mut config = MachineConfig::new(&[3, 5, 7], seed);
    for (i, spec) in config.lattices.iter_mut().enumerate() {
        *spec = LatticeSpec::new([3, 5, 7][i])
            .with_noise(NoiseSpec::PureDephasing { p: 0.04 })
            .with_seed(seed + i as u64)
            .with_rounds(40)
            .with_cadence_cycles(0);
    }
    config.workers = workers;
    config.queue_capacity = 512;
    config.push_policy = policy;
    config.analyze_residuals = true;
    config.record_corrections = true;
    config.fault = FaultPlan::default()
        .corrupt_record(0, 2, 1, 3)
        .corrupt_record(2, 7, 0, 11);
    config
}

/// The reference classification, computed from one finished run's own
/// records: every round of the recorded trace carries the error that was
/// actually sampled (whatever script, burst or re-tune shaped it), and it
/// was served either by the correction recorded under its `(lattice,
/// round)` or — when none was recorded — by nothing at all, i.e. it was shed
/// and gets the identity.  Reading recorded errors instead of re-deriving
/// the seeded streams is what lets this hold for timing-dependent sheds and
/// scripted machines alike.
fn residual_oracle(engine: &StreamingEngine, outcome: &RuntimeOutcome) -> Vec<ResidualTally> {
    let set = engine.lattice_set();
    let trace = outcome.trace.as_ref().expect("run was recorded");
    let applied: HashMap<(u32, u64), &PauliString> = outcome
        .corrections
        .iter()
        .map(|c| ((c.lattice_id, c.round), &c.correction))
        .collect();
    let mut tallies = vec![ResidualTally::default(); set.len()];
    for round in &trace.rounds {
        let lattice = set.lattice(round.lattice_id as usize);
        let mut error = PauliString::identity(lattice.num_data());
        error.unpack_from(&round.error_words);
        let identity = PauliString::identity(lattice.num_data());
        let correction = applied
            .get(&(round.lattice_id, round.round))
            .copied()
            .unwrap_or(&identity);
        tallies[round.lattice_id as usize].record(lattice, &error, correction);
    }
    tallies
}

/// Runs `config` once, recorded, and requires the run's own residual books
/// — the final report and the live failure counters — to equal the
/// reference.  Returns the outcome for case-specific assertions.
fn assert_residuals_match_the_oracle(
    config: MachineConfig,
    factory: &dyn nisqplus_decoders::traits::DecoderFactory,
) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(config).expect("valid config");
    let outcome = record_run(&engine, factory);
    let oracle = residual_oracle(&engine, &outcome);
    for (lattice, expected) in outcome.report.lattices.iter().zip(&oracle) {
        let residual = lattice.residual.as_ref().expect("residuals on");
        assert_eq!(
            &residual.total(),
            expected,
            "lattice {} (d={}): in-stream residual tally drifted from the reference",
            lattice.lattice_id,
            lattice.distance
        );
        assert_eq!(residual.decoded.rounds, lattice.counters.decoded);
        assert_eq!(residual.shed.rounds, lattice.counters.dropped);
        assert_eq!(
            lattice.counters.generated,
            lattice.counters.decoded + lattice.counters.dropped
        );
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random seeds, worker counts and both push policies, the
    /// in-stream classification equals the reference on every lattice of a
    /// mixed-distance machine.
    #[test]
    fn streaming_residuals_match_the_oracle_for_any_seed(
        seed in 0u64..1_000,
        workers in 1usize..4,
        drop_policy in any::<bool>(),
    ) {
        let policy = if drop_policy { PushPolicy::Drop } else { PushPolicy::Block };
        let outcome = assert_residuals_match_the_oracle(residual_config(policy, seed, workers), &greedy);
        prop_assert_eq!(outcome.report.counters.dropped, 2, "the two poisoned records");
    }
}

/// Timing-dependent sheds: a two-slot ring in front of a throttled worker
/// overflows wherever the scheduler lets it.  Which rounds are shed differs
/// run to run; the books must match the reference whichever they were.
#[test]
fn streaming_residuals_match_the_oracle_under_a_full_drop_ring() {
    let mut config = residual_config(PushPolicy::Drop, 4242, 1);
    config.queue_capacity = 2;
    let outcome = assert_residuals_match_the_oracle(config, &|| {
        Box::new(ThrottledDecoder::new(GreedyMatchingDecoder::new(), 30_000)) as DynDecoder
    });
    assert!(
        outcome.report.counters.dropped > 2,
        "the tiny ring must shed beyond the two poisoned records"
    );
}

/// A scripted machine: the d=3 patch is re-tuned mid-run and retired early,
/// so its stream is neither `spec.rounds` long nor drawn from `spec.noise`
/// throughout — the reference reads what was actually emitted.
#[test]
fn streaming_residuals_match_the_oracle_under_retire_and_retune() {
    let mut config = residual_config(PushPolicy::Block, 2020, 2);
    config.scenario = ScenarioScript::default()
        .set_error_rate(30, 0, NoiseSpec::Depolarizing { p: 0.08 })
        .retire_lattice(60, 0);
    let outcome = assert_residuals_match_the_oracle(config, &greedy);
    let retired = &outcome.report.lattices[0];
    assert!(
        retired.rounds < 40,
        "retirement must truncate the stream (streamed {})",
        retired.rounds
    );
    assert!(retired.noise_epochs.len() > 1, "the re-tune cut an epoch");
}

/// One soak-postured run: streaming residuals, capped correction ring, no
/// shed-round lists, bounded timelines.  Returns the outcome and the size
/// of the serialized report — the end-to-end proxy for retained telemetry.
fn soak_postured_run(rounds_total: u64) -> (RuntimeOutcome, usize) {
    let mut config = MachineConfig::new(&[3, 3], 0xB0B);
    for spec in &mut config.lattices {
        spec.rounds = rounds_total / 2;
        spec.cadence_cycles = 0;
        spec.noise = NoiseSpec::PureDephasing { p: 0.03 };
    }
    config.workers = 2;
    config.queue_capacity = 256;
    config.analyze_residuals = true;
    config.record_corrections = true;
    config.correction_cap = Some(16);
    config.max_depth_samples = 256;
    config.obs.snapshot_cadence_us = 0;
    let outcome = StreamingEngine::with_machine(config)
        .expect("valid config")
        .run(&greedy);
    let json_len = report_to_string(&outcome.report).len();
    (outcome, json_len)
}

/// Growing the run 10× must leave every retained structure at its cap and
/// the serialized report within a constant factor — the memory regression
/// gate for soak scale.
#[test]
fn telemetry_memory_is_bounded_in_the_round_count() {
    let (small, small_len) = soak_postured_run(20_000);
    let (large, large_len) = soak_postured_run(200_000);
    // The correction history is a ring, not a log.
    assert!(small.corrections.len() <= 16 * 2);
    assert!(large.corrections.len() <= 16 * 2);
    for outcome in [&small, &large] {
        let report = &outcome.report;
        assert!(report.depth_timeline.len() <= 256 + 1);
        for lattice in &report.lattices {
            // Streaming tallies classified every round without retaining any.
            let residual = lattice.residual.as_ref().expect("residuals on");
            assert_eq!(
                residual.total().rounds,
                lattice.counters.generated,
                "every generated round classified exactly once"
            );
        }
        assert_eq!(
            report.counters.generated,
            report.counters.decoded + report.counters.dropped
        );
    }
    // 10× the rounds, same retained telemetry: the serialized report may
    // drift a little (histogram shapes, bigger numbers print wider), but
    // must stay within a constant factor — O(rounds) retention would show
    // up as ~10×.
    assert!(
        (large_len as f64) < 2.0 * small_len as f64,
        "200k-round report serialized to {large_len} bytes vs {small_len} at 20k — \
         telemetry is growing with the round count"
    );
}
