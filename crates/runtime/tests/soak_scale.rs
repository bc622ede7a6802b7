//! Soak-scale regression suite: the in-stream residual classification
//! against a reference, and the bounded-memory guarantees that make
//! million-round runs possible.
//!
//! * The residual property: the per-lattice [`ResidualReport`]s a run files
//!   (workers tally residuals the moment corrections commit, the producer
//!   tallies shed rounds, nothing O(rounds) retained) must equal a reference
//!   computed after the fact from the machine's offline stream and the
//!   run's correction history — across seeds, distances {3, 5, 7}, worker
//!   counts, Block/Drop push policies, timing-dependent sheds and a
//!   re-tune.  The pipeline's one feed is the live source, so this also
//!   checks that a run serves exactly the offline stream.
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
    EventKind, InterleavedSource, LatticeSpec, MachineConfig, NoiseSpec, PushPolicy,
    RuntimeOutcome, StreamingEngine, ThrottledDecoder,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn greedy() -> DynDecoder {
    Box::new(GreedyMatchingDecoder::new())
}

/// A three-lattice machine (d = 3, 5, 7) with the residual analysis on and
/// the full correction history kept (what the reference below pairs
/// against).
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
    config
}

/// The reference classification, computed from the machine's offline stream
/// and one finished run's corrections: every round the machine's
/// `InterleavedSource` serves carries its seeded error (whatever burst or
/// re-tune shaped it), and it was served either by the correction recorded
/// under its `(lattice, round)` or — when none was recorded — by nothing at
/// all, i.e. it was shed and gets the identity.  Pairing by `(lattice,
/// round)` is what lets this hold for timing-dependent sheds.
fn residual_oracle(engine: &StreamingEngine, outcome: &RuntimeOutcome) -> Vec<ResidualTally> {
    let set = engine.lattice_set();
    let mut source =
        InterleavedSource::new(set, &engine.config().cycle_time).expect("valid machine");
    let applied: HashMap<(u32, u64), &PauliString> = outcome
        .corrections
        .iter()
        .map(|c| ((c.lattice_id, c.round), &c.correction))
        .collect();
    let mut tallies = vec![ResidualTally::default(); set.len()];
    while let Some(round) = source.next_round() {
        let lattice = set.lattice(round.lattice_id as usize);
        let identity = PauliString::identity(lattice.num_data());
        let correction = applied
            .get(&(round.lattice_id, round.round))
            .copied()
            .unwrap_or(&identity);
        tallies[round.lattice_id as usize].record(lattice, &round.error, correction);
    }
    tallies
}

/// Runs `config` once and requires the run's books to hold and
/// its residual tallies to equal the reference.  Returns the outcome for
/// case-specific assertions.
fn assert_residuals_match_the_oracle(
    config: MachineConfig,
    factory: &dyn nisqplus_decoders::traits::DecoderFactory,
) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(config).expect("valid config");
    let outcome = engine.run(factory);
    outcome.check_invariants().unwrap();
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
        prop_assert_eq!(outcome.report.counters.dropped, 0, "120 rounds never fill a 512-slot ring");
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
        outcome.report.counters.dropped > 0,
        "the tiny ring must shed"
    );
}

/// A re-tuned machine: the d=3 patch switches to depolarizing noise at its
/// own round 10, so its stream is not drawn from `spec.noise` throughout —
/// the reference reads the stream the source serves, re-tune included.
#[test]
fn streaming_residuals_match_the_oracle_under_a_retune() {
    let mut config = residual_config(PushPolicy::Block, 2020, 2);
    config.lattices[0].retunes = vec![(10, NoiseSpec::Depolarizing { p: 0.08 })];
    let outcome = assert_residuals_match_the_oracle(config, &greedy);
    let retuned = &outcome.report.lattices[0];
    assert_eq!(retuned.counters.generated, 40);
    let epochs: Vec<(u64, u64, &str)> = (retuned.noise_epochs.iter())
        .map(|e| (e.start_round, e.end_round, e.label.as_str()))
        .collect();
    assert_eq!(epochs, [(0, 10, "dephasing"), (10, 40, "depolarizing")]);
    assert_eq!(outcome.report.journal.counts[EventKind::NoiseChange], 1);
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
        // Streaming tallies classified every round without retaining any.
        outcome.check_invariants().unwrap();
        assert!(outcome.report.depth_timeline.len() <= 256 + 1);
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
