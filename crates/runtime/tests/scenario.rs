//! Scenario-plane integration tests: the golden-trace regression suite, the
//! burst-window and re-tune edges of the noise schedule, and replay checks.
//!
//! The golden traces under `tests/traces/` are recorded runs of small but
//! scenario-rich machines (a burst of noise, a step schedule, a re-tune
//! inside a burst, one re-tune per round).  Each file pins the reference
//! outcome — counters, per-lattice shed counts, merged-frame digests,
//! residual tallies — as a [`GoldenSummary`]; replaying the trace through
//! today's pipeline must reproduce every pinned quantity exactly, with its
//! books holding, and a live run of the same machine must emit the file's
//! rounds.  Any change that perturbs the stream, routing, decoding, frame
//! commits or residual classification fails here byte-for-byte, not
//! statistically.
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
use nisqplus_runtime::{
    golden_summary, record_run, replay_run, EventKind, ExportError, MachineConfig, NoiseSpec,
    PushPolicy, RuntimeOutcome, StreamingEngine, SyndromeTrace,
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

/// Golden case 1: a d=3 patch riding out a 6× burst over its rounds
/// 12..22 — two re-tunes, to the hot channel and back.
fn d3_burst_machine() -> MachineConfig {
    let mut config = scenario_machine(&[3], 64, 41);
    let base = NoiseSpec::PureDephasing { p: 0.02 };
    let hot = NoiseSpec::PureDephasing { p: 0.02 * 6.0 };
    config.lattices[0].noise = base;
    config.lattices[0].retunes = vec![(12, hot), (22, base)];
    config
}

/// Golden case 2: a d=5 patch whose dephasing steps, every four rounds,
/// through 1.5 %, 2.5 %, 1.5 % and 0.5 % and round again — a sinusoid's
/// samples at its quarter periods, with no libm call.
fn d5_steps_machine() -> MachineConfig {
    const STEPS: [f64; 4] = [0.015, 0.025, 0.015, 0.005];
    let mut config = scenario_machine(&[5], 48, 97);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: STEPS[0] };
    config.lattices[0].retunes = (4..48)
        .step_by(4)
        .map(|r: u64| {
            (
                r,
                NoiseSpec::PureDephasing {
                    p: STEPS[(r / 4) as usize % 4],
                },
            )
        })
        .collect();
    config
}

/// Golden case 3: a two-patch machine, both live from round 0 — the d=3
/// patch under a 3× burst over its rounds 5..13, re-tuned to depolarizing
/// noise (also 3×) at its own round 12, inside the burst; the d=5 patch
/// under a ramp, one re-tune per round.
fn d3d5_retune_machine() -> MachineConfig {
    let mut config = scenario_machine(&[3, 5], 40, 2020);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.03 };
    config.lattices[0].retunes = vec![
        (5, NoiseSpec::PureDephasing { p: 0.03 * 3.0 }),
        (12, NoiseSpec::Depolarizing { p: 0.05 * 3.0 }),
        (13, NoiseSpec::Depolarizing { p: 0.05 }),
    ];
    config.lattices[1].noise = NoiseSpec::PureDephasing { p: 0.01 };
    config.lattices[1].retunes = (1..40)
        .map(|r: u64| {
            (
                r,
                NoiseSpec::PureDephasing {
                    p: 0.01 + 0.0005 * r as f64,
                },
            )
        })
        .collect();
    config
}

/// The committed golden corpus: `(file_stem, machine)` pairs.
fn golden_cases() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("d3_burst", d3_burst_machine()),
        ("d5_steps", d5_steps_machine()),
        ("d3d5_retune", d3d5_retune_machine()),
    ]
}

fn trace_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/traces")).join(format!("{name}.json"))
}

/// Records `config` live and pins its outcome on the recorded trace.
fn record(config: &MachineConfig) -> SyndromeTrace {
    let engine = StreamingEngine::with_machine(config.clone()).expect("valid golden machine");
    let outcome = record_run(&engine, &greedy_factory());
    outcome.check_invariants().unwrap();
    let golden = golden_summary(&outcome);
    (outcome.trace.expect("record_run records a trace")).with_golden(golden)
}

/// Records `config` live, self-checks the replay, and writes the trace file.
fn regenerate(name: &str, config: &MachineConfig) -> SyndromeTrace {
    let trace = record(config);
    let golden = trace.golden.clone().expect("recorded with its summary");
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
/// pinned summary exactly, its books hold, and a live run of its machine
/// emits its rounds.  Set `NISQ_TRACE_REGEN=1` to re-record the corpus
/// instead (the regenerated files must then be committed).
#[test]
fn golden_traces_replay_to_their_pinned_summaries() {
    let regen = std::env::var_os("NISQ_TRACE_REGEN").is_some();
    for (name, config) in golden_cases() {
        let trace = if regen {
            regenerate(name, &config)
        } else {
            let trace = SyndromeTrace::read_from(trace_path(name)).unwrap_or_else(|err| {
                panic!(
                    "golden trace {name} unreadable ({err}); regenerate the corpus with \
                     NISQ_TRACE_REGEN=1 and commit the files"
                )
            });
            assert!(
                record(&config).rounds == trace.rounds,
                "golden trace {name}: a live run no longer emits the recorded rounds"
            );
            trace
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
/// carries no noise schedule, and its lattices report no epochs — so a
/// re-tuned machine's replay holds its books.
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

/// Wherever a burst — two re-tunes, to 6× the base at its first round
/// and back at its end — sits against the end of a 64-round stream (inside
/// it, flush with its end, straddling it, past it, or empty), the lattice's
/// epochs are exactly the schedule's segments it reached, the journal holds
/// one noise change per boundary it crossed, and the books hold.  An empty
/// burst is two re-tunes at one round, the second (back to the base)
/// winning: it still cuts the timeline there.
#[test]
fn every_burst_window_journals_exactly_the_boundaries_it_crossed() {
    const CALM: f64 = 0.02;
    const HOT: f64 = 0.02 * 6.0;
    type Case = ((u64, u64), &'static [(u64, u64, f64)]);
    let cases: [Case; 5] = [
        ((12, 22), &[(0, 12, CALM), (12, 22, HOT), (22, 64, CALM)]),
        ((54, 64), &[(0, 54, CALM), (54, 64, HOT)]),
        ((60, 70), &[(0, 60, CALM), (60, 64, HOT)]),
        ((80, 85), &[(0, 64, CALM)]),
        ((20, 20), &[(0, 20, CALM), (20, 64, CALM)]),
    ];
    for ((start, end), expected) in cases {
        let mut config = scenario_machine(&[3], 64, 41);
        let base = NoiseSpec::PureDephasing { p: CALM };
        config.lattices[0].noise = base;
        config.lattices[0].retunes =
            vec![(start, NoiseSpec::PureDephasing { p: HOT }), (end, base)];
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome
            .check_invariants()
            .unwrap_or_else(|broken| panic!("burst [{start},{end}): {broken}"));
        let report = &outcome.report;
        let epochs: Vec<(u64, u64, f64)> = (report.lattices[0].noise_epochs.iter())
            .map(|e| (e.start_round, e.end_round, e.mean_rate))
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

/// A key the trace format does not have is refused, typed and named, not
/// skipped: here the golden summary's `quarantined` count, a key traces
/// carried before the quarantine plane was deleted.
#[test]
fn a_golden_trace_with_an_unknown_key_is_refused() {
    let text = std::fs::read_to_string(trace_path("d3_burst")).expect("golden trace");
    let stale = text.replacen(
        "    \"workers\": 2,\n",
        "    \"workers\": 2,\n    \"quarantined\": 0,\n",
        1,
    );
    assert_ne!(stale, text, "the golden summary names its workers");
    let doc = nisqplus_runtime::report::parse(&stale).expect("still JSON");
    match SyndromeTrace::from_json(&doc) {
        Err(ExportError::Schema(message)) => {
            assert!(
                message.contains("unknown key 'quarantined' in GoldenSummary"),
                "{message}"
            );
        }
        other => panic!("a stale key must fail with Schema, got {other:?}"),
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

/// A re-tune cuts the lattice's noise timeline into epochs at its round,
/// with each epoch reporting its own regime, and journals the one cut.
#[test]
fn scripted_retune_cuts_noise_epochs() {
    let mut config = scenario_machine(&[3], 32, 5);
    config.lattices[0].noise = NoiseSpec::PureDephasing { p: 0.02 };
    config.lattices[0].retunes = vec![(16, NoiseSpec::PureDephasing { p: 0.08 })];
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();

    let report = &outcome.report;
    let epochs = &report.lattices[0].noise_epochs;
    let bounds: Vec<(u64, u64)> = epochs
        .iter()
        .map(|e| (e.start_round, e.end_round))
        .collect();
    assert_eq!(bounds, [(0, 16), (16, 32)], "one cut at the re-tune");
    assert_eq!(report.journal.counts[EventKind::NoiseChange], 1);
    assert!((epochs[0].mean_rate - 0.02).abs() < 1e-12);
    assert!((epochs[1].mean_rate - 0.08).abs() < 1e-12);
}
