//! Versioned, replayable syndrome traces.
//!
//! A [`SyndromeTrace`] is a full recording of what a run's source emitted:
//! every round, in machine-global emission order, with its syndrome *and* the
//! seeded error payload behind it.  [`TraceRecorder`] taps the live
//! [`InterleavedSource`](crate::source::InterleavedSource) as the producer
//! stage runs; [`TraceSource`] re-serves a recorded trace through the same
//! pipeline, so a replay exercises every stage downstream of sampling —
//! encode, route, decode, residual classification — against byte-identical
//! inputs.
//!
//! Traces serialize to the same JSON envelope as run reports
//! (`schema_version` + `kind: "syndrome_trace"`), with a trace-local
//! [`TRACE_VERSION`] for the payload layout, through the same mechanism:
//! this module holds the trace format's `record!` tables — each recorded
//! type's fields once, in document order, keys being the field names — and
//! `report::codec` derives writer and reader from them.  What the field
//! types cannot say (a round's lattice exists, its indices and payload fit
//! that lattice) is checked once after decoding, before anything indexes by
//! it.  Syndromes are stored as hot ancilla indices (sparse — most rounds
//! are quiet), error payloads as the string's own two-bitplane words
//! ([`PauliString::words`]), hex-encoded because JSON numbers cannot carry
//! full 64-bit patterns.  Wall-clock fields (`emitted_ns`) are deliberately
//! *not* recorded: a trace captures the stream's identity, not one machine's
//! timing.
//!
//! A trace may carry a [`GoldenSummary`] — the pinned outcome of a reference
//! run (frame digests, counters, residual tallies).  The golden-trace
//! regression suite replays each committed trace and asserts the fresh
//! outcome matches its summary exactly.

use crate::lattice_set::LatticeSet;
use crate::report::codec::{
    check_header, field, record, schema, with_header, Codec, Plain, Record, HEADER,
};
use crate::report::{ExportError, Json};
use crate::source::SourcedRound;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version of the trace payload layout.  Bumped whenever the meaning or
/// encoding of recorded rounds changes; readers reject other versions.
///
/// v2: a round's `hot` indices number ancillas sector-major — X ancillas
/// `0..n`, then Z ancillas `n..2n` for `n = d(d-1)`, each sector row-major
/// (`nisqplus_qec::lattice`'s index conventions).  v1 numbered them
/// row-major over the whole qubit grid, X and Z interleaved, so a v1 list
/// read today would put its defects on the wrong ancillas.
pub const TRACE_VERSION: u64 = 2;

/// The envelope's `schema_version` as trace files carry it: the report
/// schema current when trace layout v1 was cut.  The payload is versioned by
/// [`TRACE_VERSION`] alone, so report-schema bumps leave this — and the
/// committed corpus, byte for byte — alone.
const ENVELOPE_VERSION: u64 = 4;

/// The `kind` header value of trace documents.
const TRACE_KIND: &str = "syndrome_trace";

/// Seed of the word-fold digest.
const DIGEST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds a word stream into a 64-bit digest (splitmix-style
/// multiply-xorshift mixing).  Used to pin frames and
/// corrections in a [`GoldenSummary`] without storing them wholesale.
#[must_use]
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = DIGEST_SEED;
    for word in words {
        acc = (acc ^ word).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc ^= acc >> 31;
    }
    acc
}

/// Digest of a Pauli string's words (its two bitplanes), prefixed by its
/// length so strings of different sizes never collide on identical planes.
#[must_use]
pub fn digest_pauli(string: &PauliString) -> u64 {
    digest_words(std::iter::once(string.len() as u64).chain(string.words().iter().copied()))
}

/// The recorded shape of one lattice, pinned so a replay can verify the
/// machine it runs on matches the machine that was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLattice {
    /// Code distance.
    pub distance: usize,
    /// Number of ancilla (syndrome) bits.
    pub ancilla_bits: usize,
    /// Number of data qubits (error-payload length).
    pub data_bits: usize,
}

/// One recorded round, in machine-global emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRound {
    /// Id of the lattice the round belongs to.
    pub lattice_id: u32,
    /// Zero-based round index within that lattice's stream.
    pub round: u64,
    /// Virtual due instant (nanoseconds since the run epoch); `0.0` unpaced.
    pub due_ns: f64,
    /// Hot ancilla indices of the syndrome, ascending.
    pub hot: Vec<u32>,
    /// The seeded error's words ([`PauliString::words`]): its X plane, then
    /// its Z plane.
    pub error_words: Vec<u64>,
}

/// The pinned outcome of a reference run, stored alongside the trace that
/// produced it.  Only deterministic quantities are pinned — contended
/// counters (backpressure spins, batches) vary run to run and are
/// excluded by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenSummary {
    /// Name of the decoder the reference run used.
    pub decoder: String,
    /// Worker count of the reference run.
    pub workers: usize,
    /// Rounds the source emitted.
    pub generated: u64,
    /// Rounds decoded by the workers.
    pub decoded: u64,
    /// Rounds shed at the producer.
    pub dropped: u64,
    /// Per-lattice shed-round counts.
    pub shed: Vec<u64>,
    /// Per-lattice digests of the merged correction frame.
    pub frame_digests: Vec<u64>,
    /// Per-lattice residual tallies from the streaming classifier.
    pub residuals: Vec<ResidualTally>,
}

/// A recorded syndrome stream: lattice shapes, every emitted round, and an
/// optional pinned reference outcome.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SyndromeTrace {
    /// Shape of each recorded lattice, by id.
    pub lattices: Vec<TraceLattice>,
    /// Every emitted round, in machine-global emission order.
    pub rounds: Vec<TraceRound>,
    /// Pinned reference outcome, if the trace is a golden regression input.
    pub golden: Option<GoldenSummary>,
}

impl SyndromeTrace {
    /// The number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no rounds were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Attaches a pinned reference outcome (builder style).
    #[must_use]
    pub fn with_golden(mut self, golden: GoldenSummary) -> Self {
        self.golden = Some(golden);
        self
    }

    /// Checks that this trace was recorded on a machine shaped like `set`:
    /// same lattice count, and per lattice the same distance and bit widths.
    ///
    /// # Errors
    ///
    /// Returns [`ExportError::Schema`] naming the first mismatch.
    pub fn check_against(&self, set: &LatticeSet) -> Result<(), ExportError> {
        if self.lattices.len() != set.len() {
            return Err(ExportError::Schema(format!(
                "trace records {} lattices, machine has {}",
                self.lattices.len(),
                set.len()
            )));
        }
        for (id, recorded) in self.lattices.iter().enumerate() {
            let lattice = set.lattice(id);
            let live = TraceLattice {
                distance: lattice.distance(),
                ancilla_bits: lattice.num_ancillas(),
                data_bits: lattice.num_data(),
            };
            if *recorded != live {
                return Err(ExportError::Schema(format!(
                    "trace lattice {id} was recorded as d={} ({} ancillas, {} data qubits), \
                     machine has d={} ({} ancillas, {} data qubits)",
                    recorded.distance,
                    recorded.ancilla_bits,
                    recorded.data_bits,
                    live.distance,
                    live.ancilla_bits,
                    live.data_bits
                )));
            }
        }
        Ok(())
    }

    /// Serializes the trace to its versioned JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let header = vec![
            ("schema_version", Json::from(ENVELOPE_VERSION)),
            ("kind", Json::from(TRACE_KIND)),
            ("trace_version", Json::from(TRACE_VERSION)),
        ];
        with_header(header, self.encode())
    }

    /// Parses a trace from its JSON document, verifying the envelope
    /// (`schema_version`, `kind`) and [`TRACE_VERSION`], then the payload
    /// shape round by round.
    ///
    /// # Errors
    ///
    /// Fails with [`ExportError::Version`] on a stale `schema_version` and
    /// [`ExportError::Schema`] on any other malformation.
    pub fn from_json(doc: &Json) -> Result<Self, ExportError> {
        check_header(doc, ENVELOPE_VERSION, TRACE_KIND)?;
        let trace_version: u64 = field::<Plain, _>(doc, "trace_version")?;
        if trace_version != TRACE_VERSION {
            return Err(ExportError::Schema(format!(
                "trace layout v{trace_version} is not the v{TRACE_VERSION} this build reads"
            )));
        }
        let trace = Self::decode_record(doc, &[HEADER[0], HEADER[1], "trace_version"])?;
        trace.check_shape()?;
        Ok(trace)
    }

    /// Checks what the field types cannot: every round names a recorded
    /// lattice and fits its bit widths, and a golden summary has one entry
    /// per lattice.  [`TraceSource`] indexes by these without looking again.
    fn check_shape(&self) -> Result<(), ExportError> {
        for recorded in &self.rounds {
            let lattice_id = recorded.lattice_id;
            let shape = self.lattices.get(lattice_id as usize).ok_or_else(|| {
                ExportError::Schema(format!(
                    "round references lattice {lattice_id}, but the trace records {} lattices",
                    self.lattices.len()
                ))
            })?;
            if let Some(index) = recorded
                .hot
                .iter()
                .find(|&&index| index as usize >= shape.ancilla_bits)
            {
                return Err(ExportError::Schema(format!(
                    "hot index {index} out of range for {} ancillas",
                    shape.ancilla_bits
                )));
            }
            let expected = PauliString::words_for(shape.data_bits);
            if recorded.error_words.len() != expected {
                return Err(ExportError::Schema(format!(
                    "lattice {lattice_id} error payload has {} words, expected {expected} for {} \
                     data qubits",
                    recorded.error_words.len(),
                    shape.data_bits
                )));
            }
        }
        if let Some(golden) = &self.golden {
            for (name, len) in [
                ("shed", golden.shed.len()),
                ("frame_digests", golden.frame_digests.len()),
                ("residuals", golden.residuals.len()),
            ] {
                if len != self.lattices.len() {
                    return Err(ExportError::Schema(format!(
                        "golden '{name}' has {len} entries for {} lattices",
                        self.lattices.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Writes the trace to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), ExportError> {
        std::fs::write(path, self.to_json().to_pretty())?;
        Ok(())
    }

    /// Reads and validates a trace from `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, malformed JSON, or schema mismatches.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, ExportError> {
        Self::from_json(&crate::report::json::parse(&std::fs::read_to_string(
            path,
        )?)?)
    }
}

// The trace format: every recorded type's fields, once, in document order.
// (`ResidualTally` is written as run reports write it.)

/// A 64-bit pattern as `0x`-prefixed hex text: JSON numbers are doubles and
/// cannot carry one.
struct Hex;

impl Codec<Hex> for u64 {
    fn encode(&self) -> Json {
        Json::Str(format!("{self:#x}"))
    }

    /// Reads only the spelling `encode` writes — lowercase, no leading
    /// zero, no sign — so one value has one spelling.
    fn decode(value: &Json) -> Result<Self, ExportError> {
        let canonical = |text: &str| {
            let value = u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()?;
            (format!("{value:#x}") == text).then_some(value)
        };
        value
            .as_str()
            .and_then(canonical)
            .ok_or_else(|| schema("not a 64-bit hex string as `{:#x}` writes it"))
    }
}

record!(TraceLattice {
    distance,
    ancilla_bits,
    data_bits,
});

record!(TraceRound {
    lattice_id,
    round,
    due_ns,
    hot,
    error_words as Hex,
});

record!(GoldenSummary {
    decoder,
    workers,
    generated,
    decoded,
    dropped,
    shed,
    frame_digests as Hex,
    residuals,
});

record!(SyndromeTrace {
    lattices,
    rounds,
    golden,
});

/// Records every round an [`InterleavedSource`](crate::source::InterleavedSource)
/// emits.  The producer stage calls [`TraceRecorder::record`] on each
/// [`SourcedRound`] *before* shedding decisions, so the trace is the stream's
/// full content regardless of delivery outcome.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    lattices: Vec<TraceLattice>,
    rounds: Vec<TraceRound>,
}

impl TraceRecorder {
    /// Creates a recorder for a machine's lattice set.
    #[must_use]
    pub fn new(set: &LatticeSet) -> Self {
        let lattices = (0..set.len())
            .map(|id| {
                let lattice = set.lattice(id);
                TraceLattice {
                    distance: lattice.distance(),
                    ancilla_bits: lattice.num_ancillas(),
                    data_bits: lattice.num_data(),
                }
            })
            .collect();
        TraceRecorder {
            lattices,
            rounds: Vec::new(),
        }
    }

    /// Records one emitted round.
    pub fn record(&mut self, sourced: &SourcedRound) {
        self.rounds.push(TraceRound {
            lattice_id: sourced.lattice_id,
            round: sourced.round,
            due_ns: sourced.due_ns,
            hot: sourced
                .syndrome
                .hot_indices()
                .into_iter()
                .map(|i| i as u32)
                .collect(),
            error_words: sourced.error.words().to_vec(),
        });
    }

    /// Finishes recording, yielding the trace (no golden summary attached).
    #[must_use]
    pub fn into_trace(self) -> SyndromeTrace {
        SyndromeTrace {
            lattices: self.lattices,
            rounds: self.rounds,
            golden: None,
        }
    }
}

/// Re-serves a recorded trace as a round stream, interchangeable with the
/// live [`InterleavedSource`](crate::source::InterleavedSource) from the
/// pipeline's point of view.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: SyndromeTrace,
    cursor: usize,
}

impl TraceSource {
    /// Creates a replay source after checking the trace matches `set`
    /// ([`SyndromeTrace::check_against`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExportError::Schema`] if the trace's lattice shapes differ
    /// from the machine's.
    pub fn new(trace: SyndromeTrace, set: &LatticeSet) -> Result<Self, ExportError> {
        trace.check_against(set)?;
        Ok(TraceSource { trace, cursor: 0 })
    }

    /// Serves the next recorded round, or `None` when the trace is drained.
    pub fn next_round(&mut self) -> Option<SourcedRound> {
        let recorded = self.trace.rounds.get(self.cursor)?;
        self.cursor += 1;
        let shape = &self.trace.lattices[recorded.lattice_id as usize];
        let hot: Vec<usize> = recorded.hot.iter().map(|&i| i as usize).collect();
        let mut error = PauliString::identity(shape.data_bits);
        error.copy_from_words(&recorded.error_words);
        Some(SourcedRound {
            lattice_id: recorded.lattice_id,
            round: recorded.round,
            due_ns: recorded.due_ns,
            syndrome: Syndrome::from_hot(shape.ancilla_bits, &hot),
            error,
            // The trace is the record: a replay journals no noise change.
            noise_change: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::{LatticeSet, LatticeSpec};
    use crate::source::{InterleavedSource, NoiseSpec};
    use nisqplus_sim::timing::CycleTimeConverter;

    fn small_set() -> LatticeSet {
        LatticeSet::new(vec![
            LatticeSpec::new(3).with_rounds(8).with_seed(11),
            LatticeSpec::new(5)
                .with_rounds(4)
                .with_seed(12)
                .with_noise(NoiseSpec::Depolarizing { p: 0.02 }),
        ])
        .expect("valid lattice set")
    }

    fn record_all(set: &LatticeSet) -> SyndromeTrace {
        let mut source = InterleavedSource::new(set, &CycleTimeConverter::paper_reference())
            .expect("valid source");
        let mut recorder = TraceRecorder::new(set);
        while let Some(round) = source.next_round() {
            recorder.record(&round);
        }
        recorder.into_trace()
    }

    #[test]
    fn record_then_replay_reproduces_every_round() {
        let set = small_set();
        let trace = record_all(&set);
        assert_eq!(trace.len(), 12);

        let mut live = InterleavedSource::new(&set, &CycleTimeConverter::paper_reference())
            .expect("valid source");
        let mut replay = TraceSource::new(trace, &set).expect("trace matches set");
        while let Some(expected) = live.next_round() {
            let served = replay.next_round().expect("replay exhausted early");
            assert_eq!(served, expected);
        }
        assert!(replay.next_round().is_none());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let set = small_set();
        let trace = record_all(&set).with_golden(GoldenSummary {
            decoder: "greedy-matching".to_string(),
            workers: 2,
            generated: 12,
            decoded: 12,
            dropped: 0,
            shed: vec![0, 0],
            frame_digests: vec![u64::MAX, 0x1234_5678_9abc_def0],
            residuals: vec![ResidualTally::default(); 2],
        });
        let doc = trace.to_json();
        let back = SyndromeTrace::from_json(&doc).expect("round trip parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn readers_reject_bad_envelopes() {
        let set = small_set();
        let trace = record_all(&set);
        let mut doc = trace.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "schema_version" {
                    *value = Json::from(ENVELOPE_VERSION + 1);
                }
            }
        }
        assert!(matches!(
            SyndromeTrace::from_json(&doc),
            Err(ExportError::Version { .. })
        ));

        let mut doc = trace.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "kind" {
                    *value = Json::Str("runtime_report".to_string());
                }
            }
        }
        assert!(matches!(
            SyndromeTrace::from_json(&doc),
            Err(ExportError::Schema(_))
        ));

        let mut doc = trace.to_json();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "trace_version" {
                    *value = Json::from(TRACE_VERSION + 1);
                }
            }
        }
        assert!(matches!(
            SyndromeTrace::from_json(&doc),
            Err(ExportError::Schema(_))
        ));
    }

    #[test]
    fn replay_rejects_mismatched_machines() {
        let set = small_set();
        let trace = record_all(&set);
        let other = LatticeSet::new(vec![
            LatticeSpec::new(3).with_rounds(8),
            LatticeSpec::new(3).with_rounds(4),
        ])
        .expect("valid lattice set");
        let err = TraceSource::new(trace.clone(), &other).expect_err("shape mismatch");
        assert!(err.to_string().contains("lattice 1"));
        let fewer = LatticeSet::new(vec![LatticeSpec::new(3).with_rounds(8)]).expect("valid");
        assert!(TraceSource::new(trace, &fewer).is_err());
    }

    #[test]
    fn digests_are_order_and_length_sensitive() {
        assert_ne!(digest_words([1, 2]), digest_words([2, 1]));
        assert_ne!(digest_words([0]), digest_words([0, 0]));
        let a = PauliString::from_sparse(13, &[1, 7], nisqplus_qec::Pauli::X);
        let b = PauliString::from_sparse(13, &[1, 7], nisqplus_qec::Pauli::Z);
        assert_ne!(digest_pauli(&a), digest_pauli(&b));
        assert_eq!(digest_pauli(&a), digest_pauli(&a.clone()));
    }
}
