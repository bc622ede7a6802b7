//! Scenario-plane integration tests: the golden-trace regression suite and
//! the elastic-machine edge cases.
//!
//! The golden traces under `tests/traces/` are recorded runs of small but
//! scenario-rich machines (burst episodes, drifting noise, scripted
//! add/retire/re-tune).  Each file pins the reference outcome — counters,
//! per-lattice shed counts, merged-frame digests, residual tallies — as a
//! [`GoldenSummary`]; replaying the trace through today's pipeline must
//! reproduce every pinned quantity exactly.  Any change that perturbs
//! routing, decoding, frame commits or residual classification on a recorded
//! stream fails here byte-for-byte, not statistically.
//!
//! Regenerate the corpus (after an *intentional* stream-shape change) with:
//!
//! ```text
//! NISQ_TRACE_REGEN=1 cargo test -p nisqplus-runtime --test scenario
//! ```
//!
//! Regeneration self-checks: the live run is replayed before the file is
//! written, and the two outcomes must already agree.

use nisqplus_decoders::{DecoderFactory, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::error_model::{BurstEvent, DriftingErrorModel};
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::{
    golden_summary, record_run, replay_run, EventKind, MachineConfig, NoiseSpec, PacketCodec,
    PacketError, PushPolicy, ScenarioScript, StreamingEngine, SyndromePacket, SyndromeTrace,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn greedy_factory() -> impl DecoderFactory {
    || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
}

/// A deterministic scenario machine: un-paced, blocking backpressure, ample
/// ring capacity, streaming residual classification.  Shed decisions are
/// timing-dependent, so golden configurations must be shed-free by
/// construction.
fn scenario_machine(distances: &[usize], rounds: u64, base_seed: u64) -> MachineConfig {
    let mut config = MachineConfig::new(distances, base_seed);
    for spec in &mut config.lattices {
        spec.rounds = rounds;
        spec.cadence_cycles = 0;
    }
    config.workers = 2;
    config.queue_capacity = 1024;
    config.push_policy = PushPolicy::Block;
    config.analyze_residuals = true;
    config
}

/// Golden case 1: a d=3 patch riding out a 6× burst episode mid-stream.
fn d3_burst_machine() -> MachineConfig {
    let mut config = scenario_machine(&[3], 64, 41);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.02 };
    config.lattices[0].burst = Some(BurstEvent::new(12, 10, 6.0).expect("valid burst").into());
    config
}

/// Golden case 2: a d=5 patch under sinusoidally drifting dephasing.
fn d5_drift_machine() -> MachineConfig {
    let mut config = scenario_machine(&[5], 48, 97);
    config.lattices[0].noise = NoiseSpec::Drifting {
        model: DriftingErrorModel::sinusoid(0.015, 0.01, 16.0).expect("valid drift"),
    };
    config
}

/// Golden case 3: an elastic two-patch machine — the d=5 patch hot-added at
/// global round 12, the d=3 patch re-tuned at 24 and retired at 48, with a
/// burst and a ramp drift layered on top.
fn d3d5_elastic_machine() -> MachineConfig {
    let mut config = scenario_machine(&[3, 5], 40, 2020);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.03 };
    config.lattices[0].burst = Some(BurstEvent::new(5, 8, 3.0).expect("valid burst").into());
    config.lattices[1].noise = NoiseSpec::Drifting {
        model: DriftingErrorModel::ramp(0.01, 0.0005).expect("valid drift"),
    };
    config.scenario = ScenarioScript::default()
        .add_lattice(12, 1)
        .set_error_rate(24, 0, NoiseSpec::Depolarizing { p: 0.05 })
        .retire_lattice(48, 0);
    config
}

/// The committed golden corpus: `(file_stem, machine)` pairs.
fn golden_cases() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("d3_burst", d3_burst_machine()),
        ("d5_drift", d5_drift_machine()),
        ("d3d5_elastic", d3d5_elastic_machine()),
    ]
}

fn trace_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/traces")).join(format!("{name}.json"))
}

/// Records `config` live, pins its outcome, self-checks the replay, and
/// writes the trace file.
fn regenerate(name: &str, config: &MachineConfig) -> SyndromeTrace {
    let engine = StreamingEngine::with_machine(config.clone()).expect("valid golden machine");
    let outcome = record_run(&engine, &greedy_factory());
    let golden = golden_summary(&outcome);
    let trace = outcome
        .trace
        .expect("record_run records a trace")
        .with_golden(golden.clone());
    let replay_engine =
        StreamingEngine::with_machine(config.clone()).expect("valid golden machine");
    let replayed = replay_run(&replay_engine, &trace, &greedy_factory());
    assert_eq!(
        golden_summary(&replayed),
        golden,
        "golden case {name}: replay diverged from the live run it was recorded from"
    );
    trace
        .write_to(trace_path(name))
        .expect("golden trace written");
    trace
}

/// The golden-trace regression suite: every committed trace replays to its
/// pinned summary exactly.  Set `NISQ_TRACE_REGEN=1` to re-record the corpus
/// instead (the regenerated files must then be committed).
#[test]
fn golden_traces_replay_to_their_pinned_summaries() {
    let regen = std::env::var_os("NISQ_TRACE_REGEN").is_some();
    for (name, config) in golden_cases() {
        let trace = if regen {
            regenerate(name, &config)
        } else {
            SyndromeTrace::read_from(trace_path(name)).unwrap_or_else(|err| {
                panic!(
                    "golden trace {name} unreadable ({err}); regenerate the corpus with \
                     NISQ_TRACE_REGEN=1 and commit the files"
                )
            })
        };
        let golden = trace
            .golden
            .clone()
            .unwrap_or_else(|| panic!("golden trace {name} carries no pinned summary"));
        let engine = StreamingEngine::with_machine(config).expect("valid golden machine");
        let outcome = replay_run(&engine, &trace, &greedy_factory());
        assert_eq!(
            golden_summary(&outcome),
            golden,
            "golden trace {name}: replay no longer reproduces the pinned outcome"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying a trace is byte-equivalent to the live run that recorded
    /// it — for any seed, not just the pinned corpus.
    #[test]
    fn recorded_runs_replay_identically(seed in 0u64..1_000) {
        let mut config = scenario_machine(&[3], 32, seed);
        config.lattices[0].noise = NoiseSpec::Depolarizing { p: 0.04 };
        let engine = StreamingEngine::with_machine(config.clone()).unwrap();
        let live = record_run(&engine, &greedy_factory());
        let trace = live.trace.clone().expect("record_run records a trace");
        prop_assert_eq!(trace.len() as u64, live.report.counters.generated);

        let replay_engine = StreamingEngine::with_machine(config).unwrap();
        let replayed = replay_run(&replay_engine, &trace, &greedy_factory());
        prop_assert_eq!(golden_summary(&replayed), golden_summary(&live));
        prop_assert_eq!(
            replayed.report.counters.decoded,
            live.report.counters.decoded
        );
    }
}

/// A record claiming a round at or past a lattice's retirement watermark is
/// quarantined as a *typed* error — never a panic — while earlier in-flight
/// rounds still verify and drain.
#[test]
fn straggler_records_for_retired_lattices_are_quarantined_as_typed_errors() {
    let codec = PacketCodec::for_lattice_bits(&[8, 8]);
    let syndrome = Syndrome::new(8);
    let mut record = vec![0u64; codec.words_per_packet()];
    codec.encode(&SyndromePacket::new(1, 7, 0, &syndrome), &mut record);
    assert!(codec.verify(&record).is_ok(), "live lattices verify freely");

    codec.retire_lattice(1, 5);
    assert_eq!(
        codec.verify(&record),
        Err(PacketError::RetiredLattice {
            lattice_id: 1,
            round: 7,
            final_round: 5,
        })
    );

    // The in-flight backlog (rounds below the watermark) still drains.
    codec.encode(&SyndromePacket::new(1, 4, 0, &syndrome), &mut record);
    assert_eq!(codec.verify(&record), Ok(1));
    // The sibling lattice is untouched.
    codec.encode(&SyndromePacket::new(0, 7, 0, &syndrome), &mut record);
    assert_eq!(codec.verify(&record), Ok(0));
}

/// A mid-run scripted retirement truncates the stream, journals the event,
/// and quarantines nothing: every round emitted before the watermark drains
/// to the final frame.
#[test]
fn scripted_retirement_truncates_the_stream_and_drains_cleanly() {
    let mut config = scenario_machine(&[3, 3], 32, 7);
    config.scenario = ScenarioScript::default().retire_lattice(20, 1);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    let report = &outcome.report;

    let survivor = &report.lattices[0];
    let retired = &report.lattices[1];
    assert_eq!(survivor.rounds, 32, "the surviving lattice streams in full");
    assert!(
        retired.rounds < 32,
        "retirement must truncate the stream (streamed {})",
        retired.rounds
    );
    assert_eq!(report.counters.generated, 32 + retired.rounds);
    assert_eq!(report.counters.decoded, report.counters.generated);
    assert_eq!(report.counters.quarantined, 0, "a drain is not a fault");
    assert_eq!(report.journal.counts[EventKind::LatticeRetired], 1);
    assert_eq!(report.journal.counts[EventKind::LatticeAdded], 0);
    assert_eq!(
        outcome.frames[1].total_recorded(),
        retired.rounds,
        "every pre-watermark round reaches the final frame"
    );
}

/// A hot-added lattice of a distance no worker has decoded yet comes online
/// cleanly: decoders prepare lazily on the slot's first record.
#[test]
fn hot_added_lattice_of_unprepared_distance_comes_online() {
    let mut config = scenario_machine(&[3, 5], 24, 13);
    config.scenario = ScenarioScript::default().add_lattice(16, 1);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    let report = &outcome.report;

    let added = &report.lattices[1];
    assert_eq!(
        added.rounds, 24,
        "a hot-added lattice streams its full configured rounds"
    );
    assert_eq!(report.counters.generated, 48);
    assert_eq!(report.counters.decoded, 48);
    assert_eq!(report.counters.quarantined, 0);
    assert_eq!(report.journal.counts[EventKind::LatticeAdded], 1);
    assert_eq!(outcome.frames[1].total_recorded(), 24);
}

/// The degenerate script rounds: an `AddLattice` at round 0 is
/// indistinguishable from a statically live lattice, and a `RetireLattice`
/// at the machine's final round fires on the terminal poll without
/// truncating anything.
#[test]
fn add_at_round_zero_and_retire_at_final_round_are_clean_boundaries() {
    let mut config = scenario_machine(&[3, 3], 16, 23);
    config.scenario = ScenarioScript::default()
        .add_lattice(0, 1)
        .retire_lattice(32, 0);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    let report = &outcome.report;

    assert_eq!(report.lattices[0].rounds, 16);
    assert_eq!(report.lattices[1].rounds, 16);
    assert_eq!(report.counters.generated, 32);
    assert_eq!(report.counters.decoded, 32);
    assert_eq!(report.counters.quarantined, 0);
    assert_eq!(report.journal.counts[EventKind::LatticeAdded], 1);
    assert_eq!(report.journal.counts[EventKind::LatticeRetired], 1);
}

/// A scripted re-tune cuts the lattice's noise timeline into epochs at the
/// firing round, with each epoch reporting its own regime.
#[test]
fn scripted_retune_cuts_noise_epochs() {
    let mut config = scenario_machine(&[3], 32, 5);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.02 };
    config.scenario =
        ScenarioScript::default().set_error_rate(16, 0, NoiseSpec::PureDephasing { p: 0.08 });
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());

    let epochs = &outcome.report.lattices[0].noise_epochs;
    assert_eq!(epochs.len(), 2, "one cut at the scripted re-tune");
    assert_eq!(epochs[0].start_round, 0);
    assert_eq!(epochs[0].end_round, epochs[1].start_round);
    assert_eq!(epochs[1].end_round, 32);
    assert!((epochs[0].mean_rate - 0.02).abs() < 1e-12);
    assert!((epochs[1].mean_rate - 0.08).abs() < 1e-12);
}
