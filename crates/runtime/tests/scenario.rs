//! Scenario-plane integration tests: the golden-trace regression suite and
//! the elastic-machine edge cases.
//!
//! The golden traces under `tests/traces/` are recorded runs of small but
//! scenario-rich machines (burst episodes, drifting noise, scripted
//! add/retire/re-tune).  Each file pins the reference outcome — counters,
//! per-lattice shed counts, merged-frame digests, residual tallies — as a
//! [`GoldenSummary`]; replaying the trace through today's pipeline must
//! reproduce every pinned quantity exactly, with its books holding.  Any change that perturbs
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
use nisqplus_runtime::{
    golden_summary, record_run, replay_run, EventKind, ExportError, MachineConfig, NoiseSpec,
    PushPolicy, RuntimeOutcome, ScenarioScript, StreamingEngine, SyndromeTrace,
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
    config.lattices[0].burst = Some(BurstEvent::new(12, 10, 6.0).expect("valid burst"));
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
    config.lattices[0].burst = Some(BurstEvent::new(5, 8, 3.0).expect("valid burst"));
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
    outcome.check_invariants().unwrap();
    let golden = golden_summary(&outcome);
    let trace = outcome
        .trace
        .expect("record_run records a trace")
        .with_golden(golden.clone());
    let replay_engine =
        StreamingEngine::with_machine(config.clone()).expect("valid golden machine");
    let replayed = replay_run(&replay_engine, &trace, &greedy_factory()).expect("the trace fits");
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
/// pinned summary exactly, and its books hold.  Set `NISQ_TRACE_REGEN=1` to
/// re-record the corpus instead (the regenerated files must then be
/// committed).
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
        let outcome = replay_run(&engine, &trace, &greedy_factory()).expect("the trace fits");
        outcome
            .check_invariants()
            .unwrap_or_else(|broken| panic!("golden trace {name}: {broken}"));
        assert_eq!(
            golden_summary(&outcome),
            golden,
            "golden trace {name}: replay no longer reproduces the pinned outcome"
        );
    }
}

/// A replay journals no noise change — the trace is the record: its feed
/// carries no noise schedule, and its lattices report no epochs — so a bursty
/// machine's replay holds its books.
#[test]
fn a_replay_of_a_bursty_machine_journals_no_noise_change() {
    let engine = StreamingEngine::with_machine(d3_burst_machine()).unwrap();
    let live = record_run(&engine, &greedy_factory());
    let trace = live.trace.clone().expect("record_run records a trace");
    let replayed = replay_run(&engine, &trace, &greedy_factory()).expect("the trace fits");
    live.check_invariants().unwrap();
    replayed.check_invariants().unwrap();
    let changes = |outcome: &RuntimeOutcome| {
        let report = &outcome.report;
        let epochs = report.lattices[0].noise_epochs.len();
        (report.journal.counts[EventKind::NoiseChange], epochs)
    };
    assert_eq!((changes(&live), changes(&replayed)), ((2, 3), (0, 0)));
}

/// Wherever a burst window sits against the end of a 64-round stream —
/// inside it, flush with its end, straddling it, past it, empty, or cut
/// short by a retirement at global round 35 — the lattice's epochs are
/// exactly the schedule's segments it reached, the journal holds one noise
/// change per boundary it crossed, and the books hold.
#[test]
fn every_burst_window_journals_exactly_the_boundaries_it_crossed() {
    const CALM: &str = "dephasing";
    const HOT: &str = "dephasing+burst";
    type Case = ((u64, u64), Option<u64>, &'static [(u64, u64, &'static str)]);
    let cases: [Case; 6] = [
        (
            (12, 22),
            None,
            &[(0, 12, CALM), (12, 22, HOT), (22, 64, CALM)],
        ),
        ((54, 64), None, &[(0, 54, CALM), (54, 64, HOT)]),
        ((60, 70), None, &[(0, 60, CALM), (60, 64, HOT)]),
        ((80, 85), None, &[(0, 64, CALM)]),
        ((20, 20), None, &[(0, 64, CALM)]),
        ((30, 40), Some(35), &[(0, 30, CALM), (30, 35, HOT)]),
    ];
    for ((start, end), retire_at, expected) in cases {
        let mut config = scenario_machine(&[3], 64, 41);
        config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.02 };
        config.lattices[0].burst = Some(BurstEvent::new(start, end - start, 6.0).unwrap());
        if let Some(at) = retire_at {
            config.scenario = ScenarioScript::default().retire_lattice(at, 0);
        }
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome
            .check_invariants()
            .unwrap_or_else(|broken| panic!("burst [{start},{end}): {broken}"));
        let report = &outcome.report;
        let epochs: Vec<(u64, u64, &str)> = (report.lattices[0].noise_epochs.iter())
            .map(|e| (e.start_round, e.end_round, e.label.as_str()))
            .collect();
        assert_eq!(epochs, expected, "burst [{start},{end})");
        let changes = report.journal.counts[EventKind::NoiseChange];
        assert_eq!(changes, expected.len() as u64 - 1, "burst [{start},{end})");
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
        let replayed =
            replay_run(&replay_engine, &trace, &greedy_factory()).expect("the trace fits");
        prop_assert_eq!(live.check_invariants(), Ok(()));
        prop_assert_eq!(replayed.check_invariants(), Ok(()));
        prop_assert_eq!(golden_summary(&replayed), golden_summary(&live));
    }
}

/// A trace replayed on a machine of another shape is refused with
/// `SyndromeTrace::check_against`'s typed error before the pipeline starts.
#[test]
fn mismatched_replay_returns_a_typed_error() {
    let d3 = StreamingEngine::with_machine(scenario_machine(&[3], 16, 3)).unwrap();
    let live = record_run(&d3, &greedy_factory());
    live.check_invariants().unwrap();
    let trace = live.trace.expect("record_run records a trace");
    let d5 = StreamingEngine::with_machine(scenario_machine(&[5], 16, 3)).unwrap();
    assert!(matches!(
        replay_run(&d5, &trace, &greedy_factory()),
        Err(ExportError::Schema(_))
    ));
}

/// A mid-run scripted retirement truncates the stream, journals the event,
/// and loses nothing: every round emitted before it drains to the final
/// frame.
#[test]
fn scripted_retirement_truncates_the_stream_and_drains_cleanly() {
    let mut config = scenario_machine(&[3, 3], 32, 7);
    config.scenario = ScenarioScript::default().retire_lattice(20, 1);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    // Every round emitted before the retirement reaches the final frame.
    outcome.check_invariants().unwrap();
    let report = &outcome.report;

    let survivor = &report.lattices[0].counters;
    let retired = &report.lattices[1].counters;
    assert_eq!(
        survivor.generated, 32,
        "the surviving lattice streams in full"
    );
    assert!(
        retired.generated < 32,
        "retirement must truncate the stream (streamed {})",
        retired.generated
    );
    assert_eq!(report.counters.dropped, 0);
    assert_eq!(report.journal.counts[EventKind::LatticeRetired], 1);
    assert_eq!(report.journal.counts[EventKind::LatticeAdded], 0);
}

/// A hot-added lattice of a distance no worker has decoded yet comes online
/// cleanly: decoders prepare lazily on the slot's first record.
#[test]
fn hot_added_lattice_of_unprepared_distance_comes_online() {
    let mut config = scenario_machine(&[3, 5], 24, 13);
    config.scenario = ScenarioScript::default().add_lattice(16, 1);
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let report = &outcome.report;

    assert_eq!(
        report.lattices[1].counters.generated, 24,
        "a hot-added lattice streams its full configured rounds"
    );
    assert_eq!(report.counters.decoded, 48);
    assert_eq!(report.journal.counts[EventKind::LatticeAdded], 1);
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
    outcome.check_invariants().unwrap();
    let report = &outcome.report;

    assert_eq!(report.lattices[0].counters.generated, 16);
    assert_eq!(report.lattices[1].counters.generated, 16);
    assert_eq!(report.counters.decoded, 32);
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
    outcome.check_invariants().unwrap();

    let epochs = &outcome.report.lattices[0].noise_epochs;
    assert_eq!(epochs.len(), 2, "one cut at the scripted re-tune");
    assert_eq!(epochs[0].start_round, 0);
    assert_eq!(epochs[0].end_round, epochs[1].start_round);
    assert_eq!(epochs[1].end_round, 32);
    assert!((epochs[0].mean_rate - 0.02).abs() < 1e-12);
    assert!((epochs[1].mean_rate - 0.08).abs() < 1e-12);
}
