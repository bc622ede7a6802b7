//! Multi-lattice sharding integration tests: stream-versus-batch equivalence
//! on the sharded path (with the machine-wide decoder and with per-lattice
//! decoders), per-lattice telemetry correctness, aggregate-equals-sum
//! counter invariants, and the measured cost of shedding at a full ring.
//!
//! The engine must be a transparent transport *per lattice*: interleaving N
//! seeded streams through one ring fabric and one worker pool must yield,
//! for every lattice, exactly the corrections and merged frame a plain
//! offline loop produces on that lattice's own stream.  And the per-lattice
//! telemetry must answer "which patch is falling behind" truthfully: a
//! deliberately slowed patch reports GROWING while its neighbours stay
//! BOUNDED, and every aggregate flow counter equals the sum of its
//! per-lattice slices.

use nisqplus_decoders::{
    Decoder, DecoderFactory, DynDecoder, GreedyMatchingDecoder, LookupDecoder,
    SharedDecoderFactory, UnionFindDecoder,
};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::{
    MachineConfig, NoiseSpec, PushPolicy, RuntimeConfig, RuntimeOutcome, StreamingEngine,
    SyndromeSource, ThrottledDecoder,
};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A throttled greedy factory: slow enough that an un-paced producer
/// outruns the pool, fast enough to keep the tests quick.
fn slow_factory(floor_ns: u64) -> impl DecoderFactory {
    move || {
        Box::new(ThrottledDecoder::new(
            GreedyMatchingDecoder::new(),
            floor_ns,
        )) as DynDecoder
    }
}

/// Decodes one lattice's seeded stream with `decoder` in a plain offline
/// loop, mirroring the worker's decode-both-sectors-and-compose step
/// exactly.
fn sequential_decode(
    engine: &StreamingEngine,
    lattice_id: usize,
    decoder: &mut dyn Decoder,
) -> (Vec<PauliString>, PauliFrame) {
    let set = engine.lattice_set();
    let spec = set.spec(lattice_id);
    let lattice = set.lattice(lattice_id).clone();
    let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed).unwrap();
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

/// Asserts that the run's books hold and every lattice's streamed
/// corrections and merged frame are byte-identical to its sequential
/// reference decode.
fn assert_sharded_equivalence(engine: &StreamingEngine, outcome: &RuntimeOutcome) {
    outcome.check_invariants().unwrap();
    let set = engine.lattice_set();
    for lattice_id in 0..set.len() {
        let (batch_corrections, batch_frame) =
            sequential_decode(engine, lattice_id, &mut *greedy_factory().build());
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
    }
}

#[test]
fn sharded_stream_matches_per_lattice_batch_decode() {
    // Mixed distances, multiple lattices per distance, a pool smaller than
    // the lattice count: every sharing/interleaving axis is exercised.
    let config = machine(&[3, 5, 3, 7], 200, 2, 41);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
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

/// Heterogeneous decoder assignment is transparent: each lattice's streamed
/// corrections are byte-identical to a sequential run of *that lattice's
/// own* decoder, and the report names each lattice's decoder.
#[test]
fn heterogeneous_factories_match_same_decoder_sequential_runs() {
    let mut config = machine(&[3, 5, 3], 0, 2, 21);
    for (spec, rounds) in config.lattices.iter_mut().zip([120, 100, 80]) {
        spec.rounds = rounds;
    }
    // d=3 served by the exhaustive lookup table, beside a d=5 patch on the
    // machine-wide union-find factory and a second d=3 patch on the default
    // factory: same distance, other factory — it must NOT share the lookup
    // decoder.
    config.lattices[0] = (config.lattices[0].clone()).with_decoder(|| {
        Box::new(LookupDecoder::new(&Lattice::new(3).unwrap()).unwrap()) as DynDecoder
    });
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
    outcome.check_invariants().unwrap();

    assert_eq!(outcome.report.lattices[0].decoder, "lookup-table");
    assert_eq!(outcome.report.lattices[1].decoder, "union-find");
    assert_eq!(outcome.report.lattices[2].decoder, "union-find");
    assert_eq!(outcome.report.decoder(), "lookup-table+union-find");

    let references: [&mut dyn Decoder; 3] = [
        &mut LookupDecoder::new(&Lattice::new(3).unwrap()).unwrap(),
        &mut UnionFindDecoder::new(),
        &mut UnionFindDecoder::new(),
    ];
    for (lattice_id, reference) in references.into_iter().enumerate() {
        let (reference_corrections, reference_frame) =
            sequential_decode(&engine, lattice_id, reference);
        let streamed: Vec<&PauliString> = outcome
            .corrections
            .iter()
            .filter(|c| c.lattice_id as usize == lattice_id)
            .map(|c| &c.correction)
            .collect();
        assert_eq!(streamed.len(), reference_corrections.len());
        for (round, (s, b)) in streamed.iter().zip(&reference_corrections).enumerate() {
            assert_eq!(
                *s, b,
                "lattice {lattice_id} round {round} diverged from its own decoder's \
                 sequential run"
            );
        }
        assert_eq!(
            &outcome.frame_for(lattice_id).merged(),
            reference_frame.as_pauli_string(),
            "lattice {lattice_id} merged frame"
        );
    }
}

/// The books hold under load shedding, where drops are attributed per
/// lattice, and the sinks' latency histograms — books the checker does not
/// read — count every decoded round.
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
    outcome.check_invariants().unwrap();
    let agg = outcome.report.counters;
    assert!(agg.dropped > 0, "tiny ring should overflow");
    for lattice in &outcome.report.lattices {
        assert_eq!(
            lattice.decode_latency.summary.count as u64,
            lattice.counters.decoded
        );
    }
    assert_eq!(
        outcome.report.decode_latency.summary.count as u64,
        agg.decoded
    );
}

/// The regression for shed rounds vanishing from backlog accounting, on a
/// machine-wide Drop run at an eight-slot ring: the books hold
/// (`measured.shed == dropped`, per lattice and machine-wide), and the shed
/// rounds are restored to the growth math.
#[test]
fn shed_rounds_reconcile_with_measured_backlog() {
    let mut config = machine(&[3, 3], 200, 1, 11);
    for spec in &mut config.lattices {
        spec.noise = NoiseSpec::Depolarizing { p: 0.05 };
    }
    config.record_corrections = false;
    config.push_policy = PushPolicy::Drop;
    config.queue_capacity = 8;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&slow_factory(20_000));
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert!(report.counters.dropped > 0, "overload must shed");

    let workers = report.worker_batches.len();
    for lattice in &report.lattices {
        let measured = lattice.measured(workers);
        // The unserved measure restores shed rounds to the growth math.
        assert!(measured.unserved_per_round() >= measured.growth_per_round());
        assert!(
            (measured.shed_per_round()
                - lattice.counters.dropped as f64 / lattice.counters.generated as f64)
                .abs()
                < 1e-12
        );
    }
    assert_eq!(report.verdict(), "SHEDDING");
}

/// The residual analysis prices shedding: one seeded stream, run once under
/// the Drop policy at a one-slot ring and once under Block, fails more
/// often when shed; the books' residual coverage says each run's tallies
/// split exactly into the decoded and the shed rounds.
#[test]
fn residual_analysis_measures_the_logical_cost_of_shedding() {
    let rounds = 200;
    let run = |push_policy, queue_capacity| {
        let mut config = machine(&[3], rounds, 1, 31);
        config.lattices[0].noise = NoiseSpec::Depolarizing { p: 0.05 };
        config.record_corrections = false;
        config.analyze_residuals = true;
        config.push_policy = push_policy;
        config.queue_capacity = queue_capacity;
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&slow_factory(25_000));
        outcome.check_invariants().unwrap();
        // The analysis recorded corrections internally but the caller did
        // not ask for them.
        assert!(outcome.corrections.is_empty());
        outcome.report.lattices[0].clone()
    };
    let drop = run(PushPolicy::Drop, 1);
    let block = run(PushPolicy::Block, 256);
    assert!(drop.counters.dropped > 0);
    assert_eq!(block.counters.dropped, 0);

    let drop_residual = drop.residual.expect("analysis requested");
    let block_residual = block.residual.expect("analysis requested");
    assert_eq!(block_residual.decoded.rounds, rounds);

    // The two runs stream the *same* seeded errors, so the only difference
    // is the shedding — and it must cost measurable failures.
    assert!(
        drop_residual.failure_rate() > block_residual.failure_rate(),
        "shedding must cost logical failures: drop {:.4} vs block {:.4}",
        drop_residual.failure_rate(),
        block_residual.failure_rate()
    );
    // A shed round is worse than a decoded one.  The sign needs a decoded
    // sample of some size: the Drop run decodes a handful of its 200
    // rounds, so it is asserted against the Block run's 200 decoded rounds
    // of the same stream instead.
    assert!(drop_residual.shed.failure_rate() > block_residual.decoded.failure_rate());
    // Shed rounds fail whenever the round's error was nontrivial — at 5%
    // depolarizing on 13 data qubits roughly half the rounds.  Well above
    // zero, and the dominant failure class is an uncleared syndrome.
    assert!(drop_residual.shed.failure_rate() > 0.2);
    assert!(drop_residual.shed.invalid_corrections >= drop_residual.shed.logical_errors);
}

/// The per-lattice telemetry correctness experiment: lattice 0 (d=5) is
/// served by its own throttled decoder, so its backlog must GROW,
/// while lattice 1 (d=3) decodes at full speed and must stay BOUNDED.
///
/// Lattice 0 streams a shorter window than lattice 1: its backlog is
/// measured while the overload is live.  Both lattices' rounds share the
/// one FIFO ring, so lattice 1's rounds queue behind lattice 0's until the
/// pool has spun those out; per-lattice boundedness is about *that
/// lattice's* ability to keep up once they have.  So lattice 1's window is
/// sized from lattice 0's total floor, not from the cores the host has
/// free: it streams for five times the floor of all of lattice 0's rounds,
/// so lattice 0 has drained long before lattice 1's generation (and
/// measurement) ends even on one core shared with another busy process,
/// where every throttled decode also waits out that process's time slice.
#[test]
fn throttled_lattice_grows_while_neighbour_stays_bounded() {
    // 400 ns: the paper's syndrome period.
    let period_cycles = RuntimeConfig::PAPER_CADENCE_CYCLES;
    let mut config = machine(&[5, 3], 0, 2, 17);
    // Lattice 0 streams one round per ~1 ms and, on its own decoder, spins
    // a 2 ms floor per sector decode: two sectors per round make its service
    // >= 4 ms, f >= 2 even with both workers on it.
    let floor_ns = 2_000_000;
    let slow_rounds = 20;
    config.lattices[0].rounds = slow_rounds;
    config.lattices[0].cadence_cycles = period_cycles * 2_500;
    // Lattice 1 streams one round per ~200 us on the machine-wide factory,
    // which decodes in microseconds, for five times lattice 0's total floor
    // (5 x 80 ms = 400 ms, 2,000 rounds).
    let total_floor_ns = slow_rounds * 2 * floor_ns;
    let fast_period_ns = 200_000;
    let fast_rounds = 5 * total_floor_ns / fast_period_ns;
    config.lattices[1].rounds = fast_rounds;
    config.lattices[1].cadence_cycles = period_cycles * 500;
    config.record_corrections = false;
    config.queue_capacity = 4096;
    let greedy: SharedDecoderFactory = Arc::new(greedy_factory());
    config.lattices[0] = (config.lattices[0].clone())
        .with_shared_decoder(ThrottledDecoder::factory(greedy, floor_ns));
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert_eq!(report.counters.decoded, slow_rounds + fast_rounds);

    let slow = &report.lattices[0];
    let fast = &report.lattices[1];
    assert!(
        slow.final_backlog > slow.counters.generated / 4,
        "throttled d=5 lattice must fall well behind, backlog was {} of {} rounds",
        slow.final_backlog,
        slow.counters.generated
    );
    assert!(
        !slow.queue_stayed_bounded(),
        "lattice 0 must report GROWING"
    );
    assert!(
        fast.queue_stayed_bounded(),
        "unthrottled d=3 lattice must report BOUNDED, backlog was {} of {} rounds",
        fast.final_backlog,
        fast.counters.generated
    );
    assert_eq!(report.lattices_falling_behind(), vec![0]);
    // The slow lattice's own service time reflects the throttle floor; the
    // fast lattice's does not.
    assert!(slow.decode_latency.summary.mean > 2.0 * floor_ns as f64 * 0.9);
    assert!(fast.decode_latency.summary.mean < floor_ns as f64);
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
        prop_assert_eq!(outcome.check_invariants(), Ok(()));
        for lattice_id in 0..3 {
            let (batch_corrections, batch_frame) =
                sequential_decode(&engine, lattice_id, &mut *greedy_factory().build());
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
