//! `report::parse` as a byte-level parser of outside input: it returns a
//! value or a typed [`JsonError`](nisqplus_runtime::report::JsonError) for
//! any text — never a panic, never a stack overflow — in time linear in the
//! input, and it is the exact inverse of `Json::to_pretty`.  The typed
//! readers behind it (`report_from_json`, `SyndromeTrace::from_json`) get the
//! same treatment: a mutated document is a value or a typed error.

use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_runtime::report::{parse, report_from_json, report_to_string, Json};
use nisqplus_runtime::{
    GoldenSummary, InterleavedSource, LatticeSet, LatticeSpec, RuntimeConfig, StreamingEngine,
    SyndromeTrace, TraceRecorder, TraceSource,
};
use nisqplus_sim::timing::CycleTimeConverter;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The exported report of one small real run, the seed of the mutation test.
fn real_report_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut config = RuntimeConfig::new(3);
        config.rounds = 64;
        config.cadence_cycles = 0;
        let engine = StreamingEngine::new(config).expect("valid config");
        let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
        report_to_string(&outcome.report)
    })
}

/// A recorded trace of a small two-lattice machine, as text, and the machine.
fn real_trace() -> &'static (String, LatticeSet) {
    static TRACE: OnceLock<(String, LatticeSet)> = OnceLock::new();
    TRACE.get_or_init(|| {
        let set = LatticeSet::new(vec![
            LatticeSpec::new(3).with_rounds(12).with_seed(5),
            LatticeSpec::new(5).with_rounds(6).with_seed(6),
        ])
        .expect("valid lattice set");
        let mut source = InterleavedSource::new(&set, &CycleTimeConverter::paper_reference())
            .expect("valid source");
        let mut recorder = TraceRecorder::new(&set);
        while let Some(round) = source.next_round() {
            recorder.record(&round);
        }
        let golden = GoldenSummary {
            decoder: "union-find".to_string(),
            workers: 2,
            generated: 18,
            decoded: 18,
            dropped: 0,
            quarantined: 0,
            shed: vec![0; 2],
            frame_digests: vec![u64::MAX, 1],
            residuals: vec![Default::default(); 2],
        };
        let trace = recorder.into_trace().with_golden(golden);
        (trace.to_json().to_pretty(), set)
    })
}

/// A mutation of a real document, drawn by the two typed-reader tests.
type Mutation = (
    Vec<(prop::sample::Index, u8)>, // bytes to overwrite
    prop::sample::Index,            // where to cut the tail off ...
    bool,                           // ... if at all
    prop::sample::Index,            // the node of the parsed tree to replace ...
    Json,                           // ... and what with
);

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        any::<prop::sample::Index>(),
        any::<bool>(),
        any::<prop::sample::Index>(),
        ArbJson { depth: 1 },
    )
}

fn node_count(tree: &Json) -> usize {
    1 + match tree {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, value)| node_count(value)).sum(),
        _ => 0,
    }
}

/// Replaces the `target`-th node of `tree`, in document order, with `with`.
fn graft(tree: &mut Json, target: &mut usize, with: &Json) -> bool {
    if *target == 0 {
        *tree = with.clone();
        return true;
    }
    *target -= 1;
    match tree {
        Json::Arr(items) => items.iter_mut().any(|item| graft(item, target, with)),
        Json::Obj(fields) => fields
            .iter_mut()
            .any(|(_, value)| graft(value, target, with)),
        _ => false,
    }
}

/// The trees a typed reader must survive, made from one real document:
/// `text` with a few bytes overwritten and perhaps cut short — if that still
/// parses, which is rare — and its tree with one node replaced by something
/// arbitrary: a wrong type, an integer too large for its field, a `null`.
fn hostile_trees(text: &str, (edits, cut, truncate, at, with): Mutation) -> Vec<Json> {
    let mut bytes = text.as_bytes().to_vec();
    for (at, byte) in edits {
        let at = at.index(bytes.len());
        bytes[at] = byte;
    }
    if truncate {
        bytes.truncate(cut.index(bytes.len()));
    }
    let mut trees: Vec<Json> = parse(&String::from_utf8_lossy(&bytes))
        .into_iter()
        .collect();
    let mut tree = parse(text).expect("the unmutated document parses");
    let mut target = at.index(node_count(&tree));
    assert!(graft(&mut tree, &mut target, &with));
    trees.push(tree);
    trees
}

/// Generates [`Json`] trees: every variant, finite numbers of any magnitude,
/// strings over quotes, escapes, control and non-ASCII characters.
#[derive(Debug, Clone, Copy)]
struct ArbJson {
    depth: usize,
}

fn arb_string(rng: &mut TestRng) -> String {
    let alphabet: Vec<char> = "aZ7 \"\\/\n\u{1}\u{e9}\u{2603}\u{1F600}".chars().collect();
    (0..rng.below(12))
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        // Five leaf kinds; arrays and objects only while depth remains.
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let child = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::from(rng.next_u64() >> rng.below(64)),
            3 => {
                // Any bit pattern that is a finite number.
                let x = f64::from_bits(rng.next_u64());
                Json::Num(if x.is_finite() { x } else { 0.5 })
            }
            4 => Json::Str(arb_string(rng)),
            5 => Json::Arr((0..rng.below(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (arb_string(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse` inverts `to_pretty` on any tree of finite numbers.
    #[test]
    fn generated_trees_round_trip(doc in ArbJson { depth: 4 }) {
        prop_assert_eq!(parse(&doc.to_pretty()), Ok(doc));
    }

    /// Arbitrary text — raw bytes, runs of JSON's own tokens, which get much
    /// further into the grammar, and number literals of any magnitude — is a
    /// value or an error, and a value is one the writer can write: it
    /// re-serializes to an equal tree.  (An overflowing literal used to parse
    /// as infinity, which the writer prints as `null`.)
    #[test]
    fn arbitrary_text_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        tokens in prop::collection::vec(0usize..16, 0..64),
        (mantissa, exponent) in (0u64..100_000, 0u32..1_000),
    ) {
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "00e9", "null", "true", "-1.5e3",
            "key", " ", "\u{e9}",
        ];
        for text in [
            String::from_utf8_lossy(&bytes).into_owned(),
            tokens.iter().map(|&t| TOKENS[t]).collect(),
            format!("[-{mantissa}e{exponent}]"),
        ] {
            if let Ok(value) = parse(&text) {
                prop_assert_eq!(parse(&value.to_pretty()), Ok(value));
            }
        }
    }

    /// A real exported report — a few bytes overwritten, cut short, or one
    /// value replaced in its tree — is a report or a typed error.
    #[test]
    fn mutated_reports_never_panic(mutation in arb_mutation()) {
        for tree in hostile_trees(real_report_text(), mutation) {
            let _ = report_from_json(&tree);
        }
    }

    /// The trace twin: a mutated recorded trace is refused with a typed
    /// error, or loads into a trace that replays to its end — the replay
    /// source indexes by what `from_json` checked.
    #[test]
    fn mutated_traces_never_panic(mutation in arb_mutation()) {
        let (text, set) = real_trace();
        for tree in hostile_trees(text, mutation) {
            let Ok(trace) = SyndromeTrace::from_json(&tree) else { continue };
            let recorded = trace.len();
            if let Ok(mut replay) = TraceSource::new(trace, set) {
                let mut served = 0;
                while replay.next_round().is_some() {
                    served += 1;
                }
                prop_assert_eq!(served, recorded);
            }
        }
    }

    /// Unclosed nesting of any depth past the bound is refused with an
    /// error; the parser's recursion never follows it down.
    #[test]
    fn prefix_bombs_are_refused(depth in 129usize..100_000, opener in 0usize..3) {
        let opener = ["[", "{\"k\":", "[{\"k\":"][opener];
        prop_assert!(parse(&opener.repeat(depth)).is_err());
    }
}

#[test]
fn nesting_is_bounded_at_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(128)).is_ok());
    let err = parse(&nested(129)).unwrap_err();
    assert_eq!(err.offset, 128);
    // Aborted the process with a stack overflow before the bound existed.
    assert!(parse(&"[".repeat(1_000_000)).is_err());
    assert!(parse(&"{\"k\":".repeat(1_000_000)).is_err());
}

/// The fastest of five parses of one `len`-character string document.
fn string_parse_time(len: usize) -> Duration {
    let doc = format!("\"{}\"", "x".repeat(len));
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let value = parse(std::hint::black_box(&doc)).expect("a valid string");
            let elapsed = start.elapsed();
            assert_eq!(value.as_str().map(str::len), Some(len));
            elapsed
        })
        .min()
        .expect("five runs")
}

/// Parsing is linear in the document: eight times the text costs about
/// eight times the work.  (It was quadratic — 64× here — when every
/// character re-validated the rest of the input.)  The bound sits between
/// the two so scheduler noise cannot reach it from either side.
#[test]
fn a_megabyte_string_parses_in_linear_time() {
    let small = string_parse_time(128 * 1024);
    let large = string_parse_time(1024 * 1024);
    assert!(
        large < small * 24 + Duration::from_millis(1),
        "1 MiB string took {large:?}, 128 KiB took {small:?}: more than 24x"
    );
}
