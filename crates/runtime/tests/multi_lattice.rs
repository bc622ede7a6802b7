//! Multi-lattice sharding integration tests: stream-versus-batch equivalence
//! on the sharded path, per-lattice telemetry correctness, and
//! aggregate-equals-sum counter invariants.
//!
//! The engine must be a transparent transport *per lattice*: interleaving N
//! seeded streams through one ring fabric and one worker pool must yield,
//! for every lattice, exactly the corrections and merged frame a plain
//! offline loop produces on that lattice's own stream.  And the per-lattice
//! telemetry must answer "which patch is falling behind" truthfully: a
//! deliberately slowed patch reports GROWING while its neighbours stay
//! BOUNDED, and every aggregate flow counter equals the sum of its
//! per-lattice slices.

use nisqplus_decoders::{DecoderFactory, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::Sector;
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::{
    MachineConfig, NoiseSpec, PushPolicy, RuntimeOutcome, StreamingEngine, SyndromeSource,
    ThrottledDecoder,
};
use proptest::prelude::*;

fn greedy_factory() -> impl DecoderFactory {
    || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
}

/// An unpaced machine of the given distances, seeded per lattice, with
/// depolarizing noise exercising both stabilizer sectors.
fn machine(distances: &[usize], rounds: u64, workers: usize, base_seed: u64) -> MachineConfig {
    let mut config = MachineConfig::new(distances, base_seed);
    for spec in &mut config.lattices {
        spec.noise = NoiseSpec::Depolarizing { p: 0.04 };
        spec.rounds = rounds;
        spec.cadence_cycles = 0; // un-paced: equivalence is about data, not timing
    }
    config.workers = workers;
    config.queue_capacity = 256;
    config.push_policy = PushPolicy::Block;
    config.record_corrections = true;
    config
}

/// Decodes one lattice's seeded stream in a plain offline loop, mirroring
/// the worker's decode-both-sectors-and-compose step exactly.
fn sequential_decode(
    engine: &StreamingEngine,
    lattice_id: usize,
) -> (Vec<PauliString>, PauliFrame) {
    let set = engine.lattice_set();
    let spec = set.spec(lattice_id);
    let lattice = set.lattice(lattice_id).clone();
    let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed).unwrap();
    let mut decoder = greedy_factory().build();
    let mut frame = PauliFrame::new(lattice.num_data());
    let mut corrections = Vec::new();
    for _ in 0..spec.rounds {
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

/// Asserts that every lattice's streamed corrections and merged frame are
/// byte-identical to its sequential reference decode.
fn assert_sharded_equivalence(engine: &StreamingEngine, outcome: &RuntimeOutcome) {
    let set = engine.lattice_set();
    for lattice_id in 0..set.len() {
        let (batch_corrections, batch_frame) = sequential_decode(engine, lattice_id);
        let streamed: Vec<&PauliString> = outcome
            .corrections
            .iter()
            .filter(|c| c.lattice_id as usize == lattice_id)
            .map(|c| &c.correction)
            .collect();
        assert_eq!(
            streamed.len(),
            batch_corrections.len(),
            "lattice {lattice_id} round count"
        );
        for (round, (s, b)) in streamed.iter().zip(&batch_corrections).enumerate() {
            assert_eq!(
                *s, b,
                "lattice {lattice_id} round {round} diverged between sharded stream and batch"
            );
        }
        assert_eq!(
            &outcome.frame_for(lattice_id).merged(),
            batch_frame.as_pauli_string(),
            "lattice {lattice_id} merged frame"
        );
        assert_eq!(
            outcome.frame_for(lattice_id).total_recorded(),
            set.spec(lattice_id).rounds
        );
    }
}

#[test]
fn sharded_stream_matches_per_lattice_batch_decode() {
    // Mixed distances, multiple lattices per distance, a pool smaller than
    // the lattice count: every sharing/interleaving axis is exercised.
    let config = machine(&[3, 5, 3, 7], 200, 2, 41);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    assert_eq!(outcome.report.num_lattices, 4);
    assert_eq!(outcome.report.distances, vec![3, 5, 7]);
    assert_eq!(outcome.report.counters.decoded, 800);
    assert_eq!(outcome.frames.len(), 4);
    assert_sharded_equivalence(&engine, &outcome);
}

#[test]
fn sharded_equivalence_holds_for_every_window_size() {
    for k in [1usize, 4, 16] {
        let mut config = machine(&[3, 5], 150, 2, 13);
        config.batch_size = k;
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        assert_eq!(outcome.report.counters.decoded, 300, "k={k}");
        assert_sharded_equivalence(&engine, &outcome);
    }
}

/// The aggregate counters are the per-lattice slices summed (by
/// construction); what can still disagree are the *independent* books kept
/// beside them — the sinks' latency histograms and the frames — including
/// under load shedding, where drops are attributed per lattice.
#[test]
fn aggregate_counters_equal_the_sum_of_per_lattice_counters() {
    let mut config = machine(&[3, 5, 3], 300, 1, 29);
    config.record_corrections = false;
    config.queue_capacity = 4; // tiny ring: force drops
    config.push_policy = PushPolicy::Drop;
    let factory =
        || Box::new(ThrottledDecoder::new(GreedyMatchingDecoder::new(), 30_000)) as DynDecoder;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&factory);
    let agg = outcome.report.counters;
    assert!(agg.dropped > 0, "tiny ring should overflow");
    assert_eq!(agg.generated, agg.decoded + agg.dropped);
    for (lattice, frame) in outcome.report.lattices.iter().zip(&outcome.frames) {
        assert_eq!(
            lattice.decode_latency.summary.count as u64,
            lattice.counters.decoded
        );
        assert_eq!(frame.total_recorded(), lattice.counters.generated);
    }
    assert_eq!(
        outcome.report.decode_latency.summary.count as u64,
        agg.decoded
    );
}

/// The per-lattice telemetry correctness experiment: lattice 0 (d=5) is
/// served by a decoder throttled *only at d=5*, so its backlog must GROW,
/// while lattice 1 (d=3) decodes at full speed and must stay BOUNDED.
///
/// Lattice 0 streams a shorter window than lattice 1: its backlog is
/// measured while the overload is live, and the pool has drained the d=5
/// wreckage long before lattice 1's generation (and measurement) ends —
/// per-lattice boundedness is about *that lattice's* ability to keep up.
#[test]
fn throttled_lattice_grows_while_neighbour_stays_bounded() {
    let mut config = machine(&[5, 3], 0, 2, 17);
    // ~100 us cadence on both lattices (307_276 cycles * 162.72 ps * 2 ≈ 100 us).
    config.lattices[0].rounds = 150;
    config.lattices[0].cadence_cycles = 614_552;
    config.lattices[1].rounds = 900;
    config.lattices[1].cadence_cycles = 614_552;
    config.record_corrections = false;
    config.queue_capacity = 2048;
    // 200 us floor per d=5 sector decode: two sectors per round make the
    // d=5 service >= 400 us against a 100 us cadence, f >= 4 even with both
    // workers on it; d=3 rounds decode in microseconds.
    let floor_ns = 200_000;
    let factory = move || {
        Box::new(ThrottledDecoder::for_distance(
            GreedyMatchingDecoder::new(),
            floor_ns,
            5,
        )) as DynDecoder
    };
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&factory);
    let report = &outcome.report;
    assert_eq!(report.counters.decoded, 1050);

    let slow = &report.lattices[0];
    let fast = &report.lattices[1];
    assert!(
        slow.final_backlog > slow.rounds / 4,
        "throttled d=5 lattice must fall well behind, backlog was {} of {} rounds",
        slow.final_backlog,
        slow.rounds
    );
    assert!(
        !slow.queue_stayed_bounded(),
        "lattice 0 must report GROWING"
    );
    assert!(
        fast.queue_stayed_bounded(),
        "unthrottled d=3 lattice must report BOUNDED, backlog was {} of {} rounds",
        fast.final_backlog,
        fast.rounds
    );
    assert_eq!(report.lattices_falling_behind(), vec![0]);
    // The slow lattice's own service time reflects the throttle floor; the
    // fast lattice's does not.
    assert!(slow.decode_latency.summary.mean > 2.0 * floor_ns as f64 * 0.9);
    assert!(fast.decode_latency.summary.mean < floor_ns as f64);
    // Aggregate flow counters still reconcile with the slices.
    assert_eq!(
        report.counters.decoded,
        report
            .lattices
            .iter()
            .map(|l| l.counters.decoded)
            .sum::<u64>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded stream-equals-batch holds for arbitrary seeds and worker
    /// counts.
    #[test]
    fn sharded_stream_matches_batch_for_any_seed(seed in 0u64..1_000, workers in 1usize..4) {
        let config = machine(&[3, 5, 3], 80, workers, seed);
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        for lattice_id in 0..3 {
            let (batch_corrections, batch_frame) = sequential_decode(&engine, lattice_id);
            prop_assert_eq!(
                &outcome.frame_for(lattice_id).merged(),
                batch_frame.as_pauli_string()
            );
            let streamed: Vec<&PauliString> = outcome
                .corrections
                .iter()
                .filter(|c| c.lattice_id as usize == lattice_id)
                .map(|c| &c.correction)
                .collect();
            prop_assert_eq!(streamed.len(), batch_corrections.len());
            for (s, b) in streamed.iter().zip(&batch_corrections) {
                prop_assert_eq!(*s, b);
            }
        }
    }
}
