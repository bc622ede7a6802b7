//! Stream-versus-batch equivalence and backlog-growth integration tests.
//!
//! The streaming runtime must be a *transparent* transport: pushing a seeded
//! syndrome stream through the lock-free queue and a pool of workers must
//! yield exactly the corrections a plain offline loop produces on the same
//! stream.  These tests pin that down for one worker (byte-identical
//! per-round corrections, in order) and for many workers (identical merged
//! logical frame), plus the empirical backlog-growth experiment against the
//! closed-form model.

use nisqplus_decoders::{DecoderFactory, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::Sector;
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::{
    NoiseSpec, PushPolicy, RuntimeConfig, StreamingEngine, SyndromeSource, ThrottledDecoder,
};
use proptest::prelude::*;

fn greedy_factory() -> impl DecoderFactory {
    || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
}

fn equivalence_config(distance: usize, rounds: u64, workers: usize, seed: u64) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(distance);
    // Depolarizing noise exercises both stabilizer sectors.
    config.noise = NoiseSpec::Depolarizing { p: 0.04 };
    config.seed = seed;
    config.rounds = rounds;
    config.workers = workers;
    config.cadence_cycles = 0; // un-paced: equivalence is about data, not timing
    config.queue_capacity = 128;
    config.push_policy = PushPolicy::Block;
    config.record_corrections = true;
    config
}

/// Decodes the same seeded stream in a plain offline loop, mirroring the
/// worker's decode-both-sectors-and-compose step exactly.
fn batch_decode(config: &RuntimeConfig) -> (Vec<PauliString>, PauliFrame) {
    let engine = StreamingEngine::new(*config).expect("valid config");
    let mut source = SyndromeSource::new(engine.lattice().clone(), config.noise, config.seed)
        .expect("valid noise");
    let mut decoder = greedy_factory().build();
    let lattice = engine.lattice().clone();
    let mut frame = PauliFrame::new(lattice.num_data());
    let mut corrections = Vec::new();
    for _ in 0..config.rounds {
        let syndrome = source.next_syndrome();
        let x = decoder.decode(&lattice, &syndrome, Sector::X);
        let z = decoder.decode(&lattice, &syndrome, Sector::Z);
        let mut correction = x.into_pauli_string();
        correction.compose_with(z.pauli_string());
        frame.record(&correction);
        corrections.push(correction);
    }
    (corrections, frame)
}

#[test]
fn single_worker_stream_matches_batch_decode_exactly() {
    let config = equivalence_config(3, 400, 1, 11);
    let (batch_corrections, batch_frame) = batch_decode(&config);

    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();

    assert_eq!(outcome.report.counters.decoded, config.rounds);
    for (streamed, batch) in outcome.corrections.iter().zip(&batch_corrections) {
        assert_eq!(
            &streamed.correction, batch,
            "round {} diverged between stream and batch",
            streamed.round
        );
    }
    // One worker, one shard: the frame is byte-identical too.
    assert_eq!(outcome.frame().shards().len(), 1);
    assert_eq!(&outcome.frame().merged(), batch_frame.as_pauli_string());
}

#[test]
fn multi_worker_stream_preserves_the_logical_frame() {
    let config = equivalence_config(5, 1_200, 4, 23);
    let (batch_corrections, batch_frame) = batch_decode(&config);

    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();

    // Work was actually spread across the pool...
    assert_eq!(outcome.frame().shards().len(), 4);
    assert_eq!(outcome.report.counters.decoded, config.rounds);
    // ...yet the merged Pauli frame is exactly the sequential one (Pauli
    // composition is commutative modulo the phase the frame discards).
    assert_eq!(&outcome.frame().merged(), batch_frame.as_pauli_string());
    // And per-round corrections are still byte-identical: each round is an
    // independent decode, so which worker ran it cannot matter.
    for (streamed, batch) in outcome.corrections.iter().zip(&batch_corrections) {
        assert_eq!(&streamed.correction, batch);
    }
}

/// Batched-window decoding is transparent: for every window size k the
/// streamed per-round corrections and the merged frame are byte-identical to
/// the sequential reference decode of the same seeded stream.
#[test]
fn stream_matches_batch_for_every_window_size() {
    for k in [1usize, 4, 16] {
        for workers in [1usize, 3] {
            let mut config = equivalence_config(3, 400, workers, 77);
            config.batch_size = k;
            let (batch_corrections, batch_frame) = batch_decode(&config);
            let engine = StreamingEngine::new(config).unwrap();
            let outcome = engine.run(&greedy_factory());
            outcome.check_invariants().unwrap();
            assert_eq!(outcome.report.batch_size, k);
            assert_eq!(outcome.report.counters.decoded, config.rounds);
            assert!(
                outcome.report.counters.batches <= config.rounds,
                "batches must cover rounds (k={k})"
            );
            assert_eq!(&outcome.frame().merged(), batch_frame.as_pauli_string());
            for (streamed, batch) in outcome.corrections.iter().zip(&batch_corrections) {
                assert_eq!(
                    &streamed.correction, batch,
                    "round {} diverged at window k={k}, {workers} worker(s)",
                    streamed.round
                );
            }
        }
    }
}

/// Three workers popping one ring never corrupt the output, down to a ring
/// of one slot: whichever worker claims each round, every round is decoded
/// exactly once into the sequential reference's correction, and the merged
/// frame matches the reference's.
#[test]
fn a_shared_ring_pool_preserves_the_frame() {
    let mut config = equivalence_config(3, 600, 3, 99);
    config.batch_size = 4;
    let (batch_corrections, batch_frame) = batch_decode(&config);
    for queue_capacity in [1, 2, 3, 4096] {
        config.queue_capacity = queue_capacity;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome.check_invariants().unwrap();
        let report = &outcome.report;
        assert_eq!(report.counters.decoded, config.rounds, "{queue_capacity}");
        let channel = report.stages.iter().find(|s| s.stage == "channel").unwrap();
        assert!(
            channel.occupancy_peak <= queue_capacity as u64,
            "{channel:?}"
        );
        // Every round decoded exactly once: one correction per round, in
        // round order, each the sequential reference's.
        let rounds: Vec<u64> = outcome.corrections.iter().map(|c| c.round).collect();
        assert_eq!(rounds, (0..config.rounds).collect::<Vec<u64>>());
        for (streamed, batch) in outcome.corrections.iter().zip(&batch_corrections) {
            assert_eq!(&streamed.correction, batch, "round {}", streamed.round);
        }
        assert_eq!(&outcome.frame().merged(), batch_frame.as_pauli_string());
    }
}

#[test]
fn throttled_stream_grows_backlog_as_the_model_predicts() {
    let mut config = equivalence_config(3, 300, 1, 5);
    config.record_corrections = false;
    // ~50 us cadence against a 200 us floor per decode() call — two sector
    // decodes per round make that >= 400 us of service per round, f >= 8 —
    // so the backlog grows decisively even under debug-build and single-core
    // scheduling noise.
    config.cadence_cycles = 307_276;
    config.queue_capacity = 512;
    let floor_ns = 200_000;

    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&|| {
        Box::new(ThrottledDecoder::new(
            GreedyMatchingDecoder::new(),
            floor_ns,
        )) as DynDecoder
    });
    outcome.check_invariants().unwrap();
    let report = &outcome.report;

    assert_eq!(report.counters.decoded, config.rounds);
    assert!(
        report.final_backlog > config.rounds / 4,
        "an f~4 decoder must fall well behind, backlog was {}",
        report.final_backlog
    );
    assert!(!report.queue_stayed_bounded());
    // The backlog grows over the run: later timeline samples sit above the
    // first quarter's.
    let timeline = &report.depth_timeline;
    let early = timeline[timeline.len() / 4].backlog;
    let late = timeline[timeline.len() - 1].backlog;
    assert!(late > early, "backlog should grow: {early} -> {late}");
    // Growth within 3x of the closed-form model at the measured rates (the
    // release-build example asserts the tighter 2x bound).
    let comparison = report.comparison();
    assert!(
        comparison.within(3.0),
        "measured {:.3} vs predicted {:.3} rounds/round",
        comparison.measured_growth_per_round,
        comparison.predicted_growth_per_round
    );
}

/// What a fast decoder guarantees whatever the scheduler does at any one
/// instant: nothing is lost, the model predicts no growth, and the queue
/// keeps coming back to its floor — the round just pushed, plus at most one
/// in a worker's hands — where a decoder that cannot keep up leaves the
/// floor after the first few rounds and never returns.
///
/// A 300-round run keeps six depth samples, two per third.  On a loaded
/// host the workers run in slices, and the backlog saws up and back down
/// to the floor between two samples 64 rounds apart; a slicing period in
/// step with the stride can hide the floor from every sample of a run.  So
/// the same machine runs at three cadences, whose strides span three
/// different times, and the floor is looked for in each third of any run.
///
/// Deliberately not judged: the backlog at the one instant generation stops
/// (`queue_stayed_bounded`; a single deschedule of a worker fails it), and
/// how *many* samples sit above the floor (a source that was descheduled
/// emits its overdue rounds as one burst, and a sample taken inside it sees
/// the burst so far).
#[test]
fn fast_decoder_keeps_the_queue_bounded() {
    let mut config = equivalence_config(3, 300, 2, 7);
    config.record_corrections = false;
    let mut thirds = vec![Vec::new(); 3];
    // ~400, 500 and 600 us cadences: far slower than even a debug-build
    // decode, and a third of a run (40 ms or more) far longer than any
    // deschedule.
    for hundred_us in [4, 5, 6] {
        config.cadence_cycles = hundred_us * 614_552;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome.check_invariants().unwrap();
        let report = &outcome.report;
        assert_eq!(report.counters.decoded, config.rounds);
        assert_eq!(report.comparison().predicted_growth_per_round, 0.0);
        let backlogs: Vec<u64> = report.depth_timeline.iter().map(|s| s.backlog).collect();
        assert_eq!(
            backlogs.len(),
            6,
            "one sample per 64 rounds, ⌈300 / 64⌉ = 5, plus the final round"
        );
        for (third, samples) in thirds.iter_mut().zip(backlogs.chunks(2)) {
            third.extend_from_slice(samples);
        }
    }
    for third in &thirds {
        assert!(
            third.iter().any(|&backlog| backlog <= 2),
            "the queue never drained during a third of the run: {thirds:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Stream-equals-batch holds for arbitrary seeds and worker counts.
    #[test]
    fn stream_matches_batch_for_any_seed(seed in 0u64..1_000, workers in 1usize..4) {
        let config = equivalence_config(3, 120, workers, seed);
        let (batch_corrections, batch_frame) = batch_decode(&config);
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        prop_assert_eq!(outcome.check_invariants(), Ok(()));
        prop_assert_eq!(&outcome.frame().merged(), batch_frame.as_pauli_string());
        prop_assert_eq!(outcome.corrections.len(), batch_corrections.len());
        for (streamed, batch) in outcome.corrections.iter().zip(&batch_corrections) {
            prop_assert_eq!(&streamed.correction, batch);
        }
    }
}
