//! Scenario-plane integration tests: the golden-trace regression suite and
//! the burst-window and re-tune edges of the noise schedule.
//!
//! The golden traces under `tests/traces/` are the streams of small but
//! scenario-rich machines (a burst of noise, a step schedule, a re-tune
//! inside a burst, one re-tune per round), each drained offline from the
//! machine's `InterleavedSource`.  Each file also pins the outcome of a live
//! run — counters, per-lattice shed counts, merged-frame digests, residual
//! tallies — as a [`GoldenSummary`]: today's stream must equal the file's
//! rounds, and a live run of today's pipeline must reproduce every pinned
//! quantity exactly, with its books holding.  Any change that perturbs the
//! stream, routing, decoding, frame commits or residual classification
//! fails here byte-for-byte, not statistically.
//!
//! Regenerate the corpus (after an *intentional* stream-shape change) with:
//!
//! ```text
//! NISQ_TRACE_REGEN=1 cargo test -p nisqplus-runtime --test scenario golden_traces
//! ```
//!
//! Regeneration self-checks: a file is written only if a second live run
//! gives the same summary as the first.

use nisqplus_decoders::{DecoderFactory, DynDecoder, GreedyMatchingDecoder};
use nisqplus_runtime::{
    golden_summary, EventKind, ExportError, GoldenSummary, InterleavedSource, MachineConfig,
    NoiseSpec, PushPolicy, StreamingEngine, SyndromeTrace,
};
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

/// The machine's stream, drained offline from its `InterleavedSource`.
fn offline_stream(engine: &StreamingEngine) -> SyndromeTrace {
    let set = engine.lattice_set();
    let source =
        InterleavedSource::new(set, &engine.config().cycle_time).expect("valid golden machine");
    SyndromeTrace::drain(set, source)
}

/// The summary of one live run of `engine`, whose books must hold.
fn live_summary(name: &str, engine: &StreamingEngine) -> GoldenSummary {
    let outcome = engine.run(&greedy_factory());
    outcome
        .check_invariants()
        .unwrap_or_else(|broken| panic!("golden trace {name}: {broken}"));
    golden_summary(&outcome)
}

/// The golden-trace regression suite: every committed trace's lattices and
/// rounds are its machine's offline stream, and its pinned summary is a live
/// run's, whose books hold.  Set `NISQ_TRACE_REGEN=1` to rewrite the corpus
/// first from the offline stream and a live run (the regenerated files must
/// then be committed).
#[test]
fn golden_traces_are_the_offline_stream_and_a_live_runs_summary() {
    let regen = std::env::var_os("NISQ_TRACE_REGEN").is_some();
    for (name, config) in golden_cases() {
        let engine = StreamingEngine::with_machine(config).expect("valid golden machine");
        let stream = offline_stream(&engine);
        let live = live_summary(name, &engine);
        if regen {
            assert_eq!(
                live_summary(name, &engine),
                live,
                "golden case {name}: two live runs of one machine disagree"
            );
            (stream.clone().with_golden(live.clone()))
                .write_to(trace_path(name))
                .expect("golden trace written");
        }
        let trace = SyndromeTrace::read_from(trace_path(name)).unwrap_or_else(|err| {
            panic!(
                "golden trace {name} unreadable ({err}); regenerate the corpus with \
                 NISQ_TRACE_REGEN=1 and commit the files"
            )
        });
        assert!(
            trace.lattices == stream.lattices && trace.rounds == stream.rounds,
            "golden trace {name}: the machine's stream no longer equals the file's rounds"
        );
        assert_eq!(
            trace.golden,
            Some(live),
            "golden trace {name}: a live run no longer reproduces the pinned outcome"
        );
    }
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
