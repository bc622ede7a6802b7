//! Scenario demo: one elastic machine under time-varying noise, recorded to
//! a replayable trace — and the replay proven byte-identical.
//!
//! A three-lattice machine runs everything the scenario plane offers in a
//! single pass:
//!
//! * lattice 0 (d=3) — the burst target: rounds 20..50 run at 5x the base
//!   dephasing rate ([`BurstEvent`] overlay),
//! * lattice 1 (d=5) — the drift target: its dephasing rate follows a
//!   sinusoid ([`DriftingErrorModel`]), one full period over the run,
//! * lattice 2 (d=3) — the elastic target: pre-registered but *dormant*, it
//!   is hot-added at machine-global round 60 (no worker has prepared its
//!   decoder until its first record arrives) and retired at round 200, its
//!   stream truncating and draining to a final frame through the packet
//!   codec's retirement watermark,
//!
//! while a scripted re-tune swaps lattice 0's channel to depolarizing noise
//! at round 120 — visible afterwards as a cut in its noise-epoch timeline.
//!
//! The run is recorded by a [`TraceRecorder`] tap ([`record_run`]); the
//! recorded [`SyndromeTrace`] is then re-served through the *same* pipeline
//! by a [`TraceSource`] ([`replay_run`]).  The assertions at the bottom are
//! the acceptance criteria: the replay reproduces the live run's
//! [`GoldenSummary`] — counters, per-lattice shed counts, merged-frame
//! digests, residual tallies — *exactly*, and the scenario actually
//! happened (journal counts the add and the retire, the retired stream is
//! truncated, the re-tune cut an epoch).
//!
//! Run with `cargo run --release --example scenario_runtime`.  The trace
//! format and the scripting model are documented in `docs/OPERATIONS.md`
//! (operator view) and `docs/ARCHITECTURE.md` (wire view).

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::error_model::{BurstEvent, DriftingErrorModel};
use nisqplus_runtime::{
    golden_summary, record_run, replay_run, EventKind, LatticeSpec, MachineConfig, NoiseSpec,
    PushPolicy, ScenarioScript, StreamingEngine,
};

/// Rounds configured per lattice (the retired lattice streams fewer).
const ROUNDS: u64 = 160;

fn machine() -> MachineConfig {
    let mut config = MachineConfig::new(&[3, 5, 3], 7100);
    config.lattices = vec![
        // Burst target: 5x dephasing over rounds 20..50.
        LatticeSpec::new(3)
            .with_noise(NoiseSpec::PureDephasing { p: 0.015 })
            .with_seed(7100)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(0)
            .with_burst(BurstEvent::new(20, 30, 5.0).expect("valid burst")),
        // Drift target: one sinusoid period across the run.
        LatticeSpec::new(5)
            .with_noise(NoiseSpec::Drifting {
                model: DriftingErrorModel::sinusoid(0.01, 0.008, ROUNDS as f64)
                    .expect("valid drift"),
            })
            .with_seed(7101)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(0),
        // Elastic target: dormant until the script adds it.
        LatticeSpec::new(3)
            .with_noise(NoiseSpec::PureDephasing { p: 0.02 })
            .with_seed(7102)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(0),
    ];
    config.workers = 2;
    config.queue_capacity = 4_096;
    config.push_policy = PushPolicy::Block;
    config.analyze_residuals = true;
    config.scenario = ScenarioScript::default()
        .add_lattice(60, 2)
        .set_error_rate(120, 0, NoiseSpec::Depolarizing { p: 0.04 })
        .retire_lattice(200, 2);
    config
}

fn main() {
    let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;

    println!(
        "scenario run: 3 lattices (d=3 burst, d=5 drift, d=3 elastic) x {ROUNDS} rounds on 2 \
         workers"
    );
    println!("  script: add lattice 2 @ round 60; re-tune lattice 0 @ 120; retire lattice 2 @ 200");
    println!();

    // --- Act one: the live run, recorded round by round. -----------------
    let engine = StreamingEngine::with_machine(machine()).expect("valid config");
    let live = record_run(&engine, &factory);
    println!("{}", live.report);
    println!();

    let report = &live.report;
    let golden = golden_summary(&live);
    let trace = live
        .trace
        .clone()
        .expect("record_run records a trace")
        .with_golden(golden.clone());

    // --- The scenario actually happened. ---------------------------------
    assert_eq!(
        report.journal.counts[EventKind::LatticeAdded],
        1,
        "the hot-add fired"
    );
    assert_eq!(
        report.journal.counts[EventKind::LatticeRetired],
        1,
        "the retire fired"
    );
    let elastic = &report.lattices[2];
    assert!(
        elastic.rounds > 0 && elastic.rounds < ROUNDS,
        "the elastic lattice came online and was truncated (streamed {})",
        elastic.rounds
    );
    assert_eq!(
        live.frame_for(2).total_recorded(),
        elastic.rounds,
        "every pre-watermark round drained to the final frame"
    );
    assert!(
        report.lattices[0].noise_epochs.len() >= 3,
        "burst boundaries and the re-tune cut lattice 0's timeline into epochs"
    );
    assert_eq!(
        report.counters.quarantined, 0,
        "a clean drain, no stragglers"
    );
    assert_eq!(
        report.counters.dropped, 0,
        "blocking backpressure sheds nothing"
    );
    assert_eq!(trace.len() as u64, report.counters.generated);

    // --- Act two: the replay, byte for byte. -----------------------------
    let replay_engine = StreamingEngine::with_machine(machine()).expect("valid config");
    let replayed = replay_run(&replay_engine, &trace, &factory);
    let replay_summary = golden_summary(&replayed);
    assert_eq!(
        replay_summary, golden,
        "replaying the recorded trace must reproduce the live outcome exactly"
    );
    for id in 0..3 {
        assert_eq!(
            replayed.frame_for(id).merged(),
            live.frame_for(id).merged(),
            "lattice {id}'s merged Pauli frame must be byte-identical under replay"
        );
    }

    println!(
        "recorded {} rounds across {} lattices; replayed them byte-identically",
        trace.len(),
        report.lattices.len()
    );
    println!(
        "elastic lattice streamed {}/{ROUNDS} rounds (added @60, retired @200), {} noise epochs \
         on the burst lattice, frame digests {:?}",
        elastic.rounds,
        report.lattices[0].noise_epochs.len(),
        golden.frame_digests
    );
    println!("replay == live: counters, shed counts, frames, residual tallies all exact.");
}
