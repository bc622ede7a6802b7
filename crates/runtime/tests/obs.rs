//! Integration tests of the observability plane: histogram accuracy
//! against exact quantiles, JSON export round trips on real runs, bounded
//! timelines and journals.

use nisqplus_decoders::{Decoder, DynDecoder, GreedyMatchingDecoder, UnionFindDecoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::obs::{bucket_bounds, bucket_index};
use nisqplus_runtime::report::{parse, report_from_str, report_to_string, Json};
use nisqplus_runtime::{
    EventKind, ExportError, LogHistogram, MachineConfig, NoiseSpec, PushPolicy, RuntimeConfig,
    StreamingEngine, ThrottledDecoder, Violation, Violations, SCHEMA_VERSION,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The exported document's key paths as schema v18 writes them,
/// in document order, arrays collapsed to `[]`.
const SCHEMA_LISTING: &str = include_str!("report_schema_v18.txt");

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
        "the exported key paths differ from crates/runtime/tests/report_schema_v18.txt: bump \
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

/// A real multi-lattice run that sheds (a machine-wide Drop policy at a
/// two-slot ring, shed rounds, journal events) survives the JSON export
/// round trip exactly, and a bumped `schema_version` is rejected on the way
/// back in.
#[test]
fn multi_lattice_qos_report_round_trips_through_json() {
    let mut config = MachineConfig::new(&[3, 3], 77);
    for spec in &mut config.lattices {
        spec.noise = NoiseSpec::PureDephasing { p: 0.02 };
        spec.rounds = 300;
    }
    config.workers = 2;
    config.queue_capacity = 2;
    config.push_policy = PushPolicy::Drop;
    config.analyze_residuals = true;
    let engine = StreamingEngine::with_machine(config).unwrap();
    // Throttle so the two-slot ring actually refuses rounds.
    let outcome = engine
        .run(&|| Box::new(ThrottledDecoder::new(UnionFindDecoder::new(), 20_000)) as DynDecoder);
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert!(report.counters.dropped > 0, "the full ring must shed");

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
    assert!(
        !text.contains("\"fault\""),
        "v18 dropped the fault-injection report with the plane that filled it"
    );
    assert_schema_is_pinned_and_documented(&text);
    let reloaded = report_from_str(&text).expect("round trip");
    assert_eq!(&reloaded, report, "JSON must round-trip bit-for-bit");
    assert_eq!(failures(&reloaded), failures(report));

    // A document from a future schema — or from the previous one, v17,
    // which still stored the fault-injection report — is refused, loudly
    // and typed.
    assert_eq!(SCHEMA_VERSION, 18);
    for other_version in [SCHEMA_VERSION + 1, 17] {
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
    assert_ne!(restamped, journal, "the shed events name lattice 0");
    match report_from_str(&format!("{head}{restamped}")) {
        Err(ExportError::Schema(message)) => {
            assert!(message.contains("'lattice_id'"), "{message}");
        }
        other => panic!("lattice 2^32 must fail with Schema, got {other:?}"),
    }

    // A misspelt key is refused and named, not skipped.
    let misspelt = text.replacen("\"generated\":", "\"genrated\":", 1);
    assert_ne!(misspelt, text, "the counters name the generated rounds");
    match report_from_str(&misspelt) {
        Err(ExportError::Schema(message)) => {
            assert!(message.contains("unknown key 'genrated'"), "{message}");
        }
        other => panic!("a misspelt key must fail with Schema, got {other:?}"),
    }
}

/// The backlog views are computed from the keys that own their inputs, at
/// both levels: `measured()` reads the machine's counters, backlog,
/// inter-arrival time and decode mean over the pool width, and each
/// `lattices[i].measured(workers)` the lattice's own.  The views, the
/// comparisons and the decoder label read back bit for bit from a report
/// that went through the JSON round trip.
#[test]
fn backlog_views_are_computed_from_their_owners() {
    let mut config = MachineConfig::new(&[3, 5], 5);
    for spec in &mut config.lattices {
        spec.rounds = 400;
        spec.cadence_cycles = 0;
    }
    config.push_policy = PushPolicy::Drop;
    config.queue_capacity = 2;
    config.workers = 2;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&greedy_factory());
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert_eq!(report.worker_batches.len(), 2);

    let machine = report.measured();
    assert_eq!(machine.rounds, report.counters.generated);
    assert_eq!(machine.final_backlog, report.final_backlog);
    assert_eq!(machine.shed, report.counters.dropped);
    let service_ns = report.decode_latency.summary.mean / 2.0;
    assert_eq!(machine.service_time_ns.to_bits(), service_ns.to_bits());
    assert_eq!(
        machine.inter_arrival_ns.to_bits(),
        report.inter_arrival_ns.to_bits()
    );
    for lattice in &report.lattices {
        let view = lattice.measured(2);
        assert_eq!(view.rounds, lattice.counters.generated);
        assert_eq!(view.final_backlog, lattice.final_backlog);
        assert_eq!(view.shed, lattice.counters.dropped);
        let service_ns = lattice.decode_latency.summary.mean / 2.0;
        assert_eq!(view.service_time_ns.to_bits(), service_ns.to_bits());
        assert_eq!(
            view.inter_arrival_ns.to_bits(),
            lattice.inter_arrival_ns.to_bits()
        );
    }
    assert_eq!(report.decoder(), "greedy-matching");

    let reloaded = report_from_str(&report_to_string(report)).expect("round trip");
    assert_eq!(&reloaded, report);
    let bits = |m: nisqplus_system::backlog::MeasuredBacklog| {
        let times = [m.service_time_ns, m.inter_arrival_ns].map(f64::to_bits);
        (m.rounds, m.final_backlog, m.shed, times)
    };
    let comparison_bits = |c: nisqplus_system::backlog::BacklogComparison| {
        let growths = [c.predicted_growth_per_round, c.measured_growth_per_round];
        (growths.map(f64::to_bits), c.effective_ratio.to_bits())
    };
    assert_eq!(bits(reloaded.measured()), bits(report.measured()));
    assert_eq!(
        comparison_bits(reloaded.comparison()),
        comparison_bits(report.comparison())
    );
    for (after, before) in reloaded.lattices.iter().zip(&report.lattices) {
        assert_eq!(bits(after.measured(2)), bits(before.measured(2)));
        assert_eq!(
            comparison_bits(after.comparison(2)),
            comparison_bits(before.comparison(2))
        );
    }
    assert_eq!(reloaded.decoder(), report.decoder());
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
        ["source", "depth", "channel", "decode.0", "decode.1"]
    );
    assert_eq!(report.stages[0].accepted, 2_000);
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
    // restart: ten events into a four-slot ring.  Its decoder panics on
    // every 40th sector decode, so on five of the 100 rounds.
    struct PanicsEvery40th {
        inner: GreedyMatchingDecoder,
        decodes: Arc<AtomicU64>,
    }
    impl Decoder for PanicsEvery40th {
        fn name(&self) -> &str {
            "panics-every-40th"
        }
        fn decode_into(
            &mut self,
            l: &Lattice,
            s: &Syndrome,
            sector: Sector,
            out: &mut PauliString,
        ) {
            if self.decodes.fetch_add(1, Ordering::Relaxed) % 40 == 39 {
                panic!("decoder bug");
            }
            self.inner.decode_into(l, s, sector, out);
        }
    }
    let decodes = Arc::new(AtomicU64::new(0));
    let factory = move || {
        Box::new(PanicsEvery40th {
            inner: GreedyMatchingDecoder::new(),
            decodes: Arc::clone(&decodes),
        }) as DynDecoder
    };
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&factory);
    let crashes = Violation::Crashes {
        crashed: 5,
        restarted: 5,
    };
    assert_eq!(outcome.check_invariants(), Err(Violations(vec![crashes])));
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
/// run's length is known before round 0 — the sum of the configured
/// rounds — so a stride of at least
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
}
