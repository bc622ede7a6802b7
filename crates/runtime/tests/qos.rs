//! Per-lattice QoS integration tests: mixed push policies, per-lattice
//! queue budgets, heterogeneous decoder assignment, shed-rate SLO verdicts,
//! and the end-of-run residual analysis that prices load shedding in
//! logical errors.
//!
//! The contract under test: each lattice's QoS fields are honoured
//! *independently* — a `Drop` patch sheds under overload while a `Block`
//! neighbour stays lossless on the same rings and workers — and everything
//! shed is accounted for: per-lattice `dropped` counters reconcile with
//! `MeasuredBacklog::shed`, shed rounds enter the frame path as identity
//! corrections, and the residual analysis reports what those identities cost
//! in logical errors.

use nisqplus_decoders::{
    Decoder, DecoderFactory, DynDecoder, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::{
    LatticeSpec, MachineConfig, NoiseSpec, PushPolicy, StreamingEngine, SyndromeSource,
    ThrottledDecoder,
};

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

fn unpaced_spec(distance: usize, seed: u64, rounds: u64) -> LatticeSpec {
    LatticeSpec::new(distance)
        .with_noise(NoiseSpec::Depolarizing { p: 0.05 })
        .with_seed(seed)
        .with_rounds(rounds)
        .with_cadence_cycles(0)
}

fn machine_of(lattices: Vec<LatticeSpec>) -> MachineConfig {
    let mut config = MachineConfig::new(&[3], 0);
    config.lattices = lattices;
    config.workers = 1;
    config.queue_capacity = 512;
    config.push_policy = PushPolicy::Block;
    config
}

/// One machine, two contracts: lattice 0 may shed (tight budget), lattice 1
/// must not lose a round.  Under a machine-wide throttle the Drop lattice
/// sheds while the Block lattice stays lossless, and every counter
/// reconciles.
#[test]
fn drop_patch_sheds_while_block_neighbour_stays_lossless() {
    let rounds = 150;
    let config = machine_of(vec![
        unpaced_spec(3, 1, rounds)
            .with_push_policy(PushPolicy::Drop)
            .with_queue_budget(2)
            .with_shed_slo(1e-6),
        unpaced_spec(3, 2, rounds).with_shed_slo(0.5),
    ]);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&slow_factory(30_000));
    let report = &outcome.report;
    let drop = &report.lattices[0];
    let block = &report.lattices[1];

    // The Drop lattice shed; its policy is its own, not the machine's.
    assert!(drop.counters.dropped > 0, "tight budget must shed");
    assert!(drop.shed_rate() > 0.0);
    assert_eq!(drop.push_policy, PushPolicy::Drop);
    assert!(drop.push_policy_overridden);
    assert_eq!(drop.queue_budget, Some(2));
    assert_eq!(drop.verdict(), "SHEDDING");
    // The Block lattice inherited the machine policy and lost nothing.
    assert_eq!(block.counters.dropped, 0);
    assert_eq!(block.counters.decoded, rounds);
    assert_eq!(block.push_policy, PushPolicy::Block);
    assert!(!block.push_policy_overridden);
    assert_eq!(block.shed_rate(), 0.0);

    // SLO verdicts: the Drop lattice violates its (absurdly strict) SLO,
    // the Block lattice trivially meets its own.
    assert_eq!(drop.meets_shed_slo(), Some(false));
    assert_eq!(block.meets_shed_slo(), Some(true));

    // Everything generated is accounted for, per lattice and in aggregate.
    assert_eq!(
        drop.counters.decoded + drop.counters.dropped,
        drop.counters.generated
    );

    // Shed rounds were fed into the frame path as identity corrections, so
    // each lattice's frame owns up to every generated round.
    assert_eq!(outcome.frame_for(0).total_recorded(), rounds);
    assert_eq!(outcome.frame_for(1).total_recorded(), rounds);

    // The budget is a cap, and the lane reached it: no sampled instant saw
    // more of the Drop lattice's rounds outstanding than its budget allows,
    // and the gate's high-water mark is the budget itself (the neighbour has
    // no budget lane to raise it).
    assert!(!report.depth_timeline.is_empty());
    for sample in &report.depth_timeline {
        assert!(sample.per_lattice_backlog[0] <= 2, "{sample:?}");
    }
    let gate = report.stages.iter().find(|s| s.stage == "gate").unwrap();
    assert_eq!(gate.occupancy_peak, 2);
}

/// The regression for shed rounds vanishing from backlog accounting: the
/// per-lattice `dropped` counters must reconcile with `MeasuredBacklog`
/// (rounds owed versus rounds shed), per lattice and machine-wide.
#[test]
fn shed_rounds_reconcile_with_measured_backlog() {
    let mut config = machine_of(vec![
        unpaced_spec(3, 11, 200).with_queue_budget(2),
        unpaced_spec(3, 12, 200),
    ]);
    config.push_policy = PushPolicy::Drop;
    config.queue_capacity = 8; // tiny shared rings: lattice 1 sheds too
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&slow_factory(20_000));
    let report = &outcome.report;
    assert!(report.counters.dropped > 0, "overload must shed");

    for lattice in &report.lattices {
        // Shed rounds are owed nowhere — but they must be *counted*: the
        // measured trajectory carries them next to the backlog.
        assert_eq!(lattice.measured.shed, lattice.counters.dropped);
        assert_eq!(lattice.measured.rounds, lattice.counters.generated);
        // At quiescence every generated round was decoded or shed.
        assert_eq!(
            lattice.counters.decoded + lattice.counters.dropped,
            lattice.counters.generated
        );
        // The unserved measure restores shed rounds to the growth math.
        assert!(lattice.measured.unserved_per_round() >= lattice.measured.growth_per_round());
        assert!(
            (lattice.measured.shed_per_round()
                - lattice.counters.dropped as f64 / lattice.counters.generated as f64)
                .abs()
                < 1e-12
        );
        // Identity corrections cover the shed rounds in the frame path.
        assert_eq!(
            outcome.frame_for(lattice.lattice_id).total_recorded(),
            lattice.counters.generated
        );
    }
    // Machine-wide, the measured shed count is the aggregate drop counter —
    // the rounds that previously vanished from the accounting.
    assert_eq!(report.measured.shed, report.counters.dropped);
    assert_eq!(
        report.measured.shed,
        report.lattices.iter().map(|l| l.measured.shed).sum::<u64>()
    );
    assert_eq!(report.verdict(), "SHEDDING");
}

/// Sequential reference decode of one lattice's seeded stream with a caller-
/// supplied decoder.
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

/// Heterogeneous decoder assignment is transparent: each lattice's streamed
/// corrections are byte-identical to a sequential run of *that lattice's
/// own* decoder, and the report names each lattice's decoder.
#[test]
fn heterogeneous_factories_match_same_decoder_sequential_runs() {
    let mut config = machine_of(vec![
        // d=3 served by the exhaustive lookup table...
        unpaced_spec(3, 21, 120).with_decoder(|| {
            Box::new(LookupDecoder::new(&Lattice::new(3).unwrap()).unwrap()) as DynDecoder
        }),
        // ...beside a d=5 patch on the machine-wide union-find factory.
        unpaced_spec(5, 22, 100),
        // A second d=3 patch on the default factory: same distance, other
        // factory — it must NOT share the lookup decoder.
        unpaced_spec(3, 23, 80),
    ]);
    config.workers = 2;
    config.record_corrections = true;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);

    assert_eq!(outcome.report.lattices[0].decoder, "lookup-table");
    assert_eq!(outcome.report.lattices[1].decoder, "union-find");
    assert_eq!(outcome.report.lattices[2].decoder, "union-find");
    assert_eq!(outcome.report.decoder, "lookup-table+union-find");

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

/// The residual analysis prices shedding: the Drop lattice's measured
/// failure rate exceeds its lossless Block twin's (same distance, noise and
/// workload), its shed tally covers exactly the dropped rounds, and the
/// decoded/shed split covers every generated round.
#[test]
fn residual_analysis_measures_the_logical_cost_of_shedding() {
    let rounds = 200;
    let mut config = machine_of(vec![
        unpaced_spec(3, 31, rounds)
            .with_push_policy(PushPolicy::Drop)
            .with_queue_budget(1),
        unpaced_spec(3, 31, rounds), // identical stream, lossless contract
    ]);
    config.analyze_residuals = true;
    config.record_corrections = false;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&slow_factory(25_000));
    // The analysis recorded corrections internally but the caller did not
    // ask for them.
    assert!(outcome.corrections.is_empty());

    let drop = &outcome.report.lattices[0];
    let block = &outcome.report.lattices[1];
    assert!(drop.counters.dropped > 0);
    assert_eq!(block.counters.dropped, 0);

    let drop_residual = drop.residual.expect("analysis requested");
    let block_residual = block.residual.expect("analysis requested");
    // Coverage: decoded + shed classifications == generated rounds.
    assert_eq!(drop_residual.shed.rounds, drop.counters.dropped);
    assert_eq!(drop_residual.decoded.rounds, drop.counters.decoded);
    assert_eq!(drop_residual.total().rounds, drop.counters.generated);
    assert_eq!(block_residual.shed.rounds, 0);
    assert_eq!(block_residual.decoded.rounds, rounds);

    // The two lattices stream the *same* seeded errors, so the only
    // difference is the shedding — and it must cost measurable failures.
    assert!(
        drop_residual.failure_rate() > block_residual.failure_rate(),
        "shedding must cost logical failures: drop {:.4} vs block {:.4}",
        drop_residual.failure_rate(),
        block_residual.failure_rate()
    );
    // A shed round is worse than a decoded one.  The sign needs a decoded
    // sample of some size: this lattice decodes one or two of its 200
    // rounds, so it is asserted against the Block twin's 200 decoded rounds
    // of the same stream instead.
    assert!(drop_residual.shed.failure_rate() > block_residual.decoded.failure_rate());
    // Shed rounds fail whenever the round's error was nontrivial — at 5%
    // depolarizing on 13 data qubits roughly half the rounds.  Well above
    // zero, and the dominant failure class is an uncleared syndrome.
    assert!(drop_residual.shed.failure_rate() > 0.2);
    assert!(drop_residual.shed.invalid_corrections >= drop_residual.shed.logical_errors);
}

/// A Block lattice with a queue budget never sheds: the producer absorbs
/// the overload as backpressure attributed to that lattice.
#[test]
fn block_lattice_with_budget_backpressures_instead_of_shedding() {
    let rounds = 60;
    let config = machine_of(vec![
        unpaced_spec(3, 41, rounds).with_queue_budget(1),
        unpaced_spec(3, 42, rounds),
    ]);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&slow_factory(20_000));
    let budgeted = &outcome.report.lattices[0];
    assert_eq!(budgeted.counters.dropped, 0);
    assert_eq!(budgeted.counters.decoded, rounds);
    assert!(
        budgeted.counters.backpressure_spins > 0,
        "budget of 1 outstanding round against a 20 us floor must spin"
    );
    assert_eq!(outcome.frame_for(0).total_recorded(), rounds);
}
