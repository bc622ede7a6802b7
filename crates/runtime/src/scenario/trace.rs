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
//! [`TRACE_VERSION`] for the payload layout.  Syndromes are stored as hot
//! ancilla indices (sparse — most rounds are quiet), error payloads as the
//! two-bitplane words of [`PauliString::pack_into`], hex-encoded because JSON
//! numbers cannot carry full 64-bit patterns.  Wall-clock fields
//! (`emitted_ns`) are deliberately *not* recorded: a trace captures the
//! stream's identity, not one machine's timing.
//!
//! A trace may carry a [`GoldenSummary`] — the pinned outcome of a reference
//! run (frame digests, counters, residual tallies).  The golden-trace
//! regression suite replays each committed trace and asserts the fresh
//! outcome matches its summary exactly.

use crate::lattice_set::LatticeSet;
use crate::report::{ExportError, Json};
use crate::source::SourcedRound;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version of the trace payload layout.  Bumped whenever the meaning or
/// encoding of recorded rounds changes; readers reject other versions.
pub const TRACE_VERSION: u64 = 1;

/// The envelope's `schema_version` as trace files carry it: the report
/// schema current when trace layout v1 was cut.  The payload is versioned by
/// [`TRACE_VERSION`] alone, so report-schema bumps leave this — and the
/// committed corpus, byte for byte — alone.
const ENVELOPE_VERSION: u64 = 4;

/// The `kind` header value of trace documents.
const TRACE_KIND: &str = "syndrome_trace";

/// Seed of the word-fold digest, shared with the packet checksum family.
const DIGEST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds a word stream into a 64-bit digest (splitmix-style mixing, same
/// construction as the packet trailer checksum).  Used to pin frames and
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

/// Digest of a Pauli string via its packed two-bitplane representation,
/// prefixed by its length so strings of different sizes never collide on
/// identical planes.
#[must_use]
pub fn digest_pauli(string: &PauliString) -> u64 {
    let mut words = vec![0u64; PauliString::packed_words(string.len())];
    string.pack_into(&mut words);
    digest_words(std::iter::once(string.len() as u64).chain(words))
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
    /// The seeded error, packed as [`PauliString::pack_into`] bitplanes.
    pub error_words: Vec<u64>,
}

/// The pinned outcome of a reference run, stored alongside the trace that
/// produced it.  Only deterministic quantities are pinned — contended
/// counters (backpressure spins, steals, batches) vary run to run and are
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
    /// Records quarantined by the compat guard.
    pub quarantined: u64,
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
        let lattices = Json::Arr(
            self.lattices
                .iter()
                .map(|l| {
                    Json::Obj(vec![
                        ("distance".to_string(), Json::from(l.distance)),
                        ("ancilla_bits".to_string(), Json::from(l.ancilla_bits)),
                        ("data_bits".to_string(), Json::from(l.data_bits)),
                    ])
                })
                .collect(),
        );
        let rounds = Json::Arr(self.rounds.iter().map(round_to_json).collect());
        let golden = match &self.golden {
            Some(g) => golden_to_json(g),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("schema_version".to_string(), Json::from(ENVELOPE_VERSION)),
            ("kind".to_string(), Json::Str(TRACE_KIND.to_string())),
            ("trace_version".to_string(), Json::from(TRACE_VERSION)),
            ("lattices".to_string(), lattices),
            ("rounds".to_string(), rounds),
            ("golden".to_string(), golden),
        ])
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
        let found = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ExportError::Schema("missing field 'schema_version'".to_string()))?;
        if found != ENVELOPE_VERSION {
            return Err(ExportError::Version {
                found,
                expected: ENVELOPE_VERSION,
            });
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| ExportError::Schema("missing field 'kind'".to_string()))?;
        if kind != TRACE_KIND {
            return Err(ExportError::Schema(format!(
                "expected a '{TRACE_KIND}' document, found kind '{kind}'"
            )));
        }
        let trace_version = doc
            .get("trace_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ExportError::Schema("missing field 'trace_version'".to_string()))?;
        if trace_version != TRACE_VERSION {
            return Err(ExportError::Schema(format!(
                "trace layout v{trace_version} is not the v{TRACE_VERSION} this build reads"
            )));
        }
        let lattices = arr(doc, "lattices")?
            .iter()
            .map(|l| {
                Ok(TraceLattice {
                    distance: req_usize(l, "distance")?,
                    ancilla_bits: req_usize(l, "ancilla_bits")?,
                    data_bits: req_usize(l, "data_bits")?,
                })
            })
            .collect::<Result<Vec<_>, ExportError>>()?;
        let rounds = arr(doc, "rounds")?
            .iter()
            .map(|r| round_from_json(r, &lattices))
            .collect::<Result<Vec<_>, ExportError>>()?;
        let golden = match doc.get("golden") {
            None | Some(Json::Null) => None,
            Some(g) => Some(golden_from_json(g, lattices.len())?),
        };
        Ok(SyndromeTrace {
            lattices,
            rounds,
            golden,
        })
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

fn round_to_json(r: &TraceRound) -> Json {
    Json::Obj(vec![
        (
            "lattice_id".to_string(),
            Json::from(u64::from(r.lattice_id)),
        ),
        ("round".to_string(), Json::from(r.round)),
        ("due_ns".to_string(), Json::Num(r.due_ns)),
        (
            "hot".to_string(),
            Json::Arr(r.hot.iter().map(|&i| Json::from(u64::from(i))).collect()),
        ),
        (
            "error_words".to_string(),
            Json::Arr(
                r.error_words
                    .iter()
                    .map(|w| Json::Str(format!("{w:#x}")))
                    .collect(),
            ),
        ),
    ])
}

fn round_from_json(v: &Json, lattices: &[TraceLattice]) -> Result<TraceRound, ExportError> {
    let lattice_id = req_u64(v, "lattice_id")?;
    let shape = lattices.get(lattice_id as usize).ok_or_else(|| {
        ExportError::Schema(format!(
            "round references lattice {lattice_id}, but the trace records {} lattices",
            lattices.len()
        ))
    })?;
    let hot = arr(v, "hot")?
        .iter()
        .map(|h| {
            let index = h.as_u64().ok_or_else(|| {
                ExportError::Schema("'hot' element is not an integer".to_string())
            })?;
            if index as usize >= shape.ancilla_bits {
                return Err(ExportError::Schema(format!(
                    "hot index {index} out of range for {} ancillas",
                    shape.ancilla_bits
                )));
            }
            Ok(index as u32)
        })
        .collect::<Result<Vec<_>, ExportError>>()?;
    let error_words = arr(v, "error_words")?
        .iter()
        .map(|w| {
            let text = w.as_str().ok_or_else(|| {
                ExportError::Schema("'error_words' element is not a string".to_string())
            })?;
            let digits = text.strip_prefix("0x").ok_or_else(|| {
                ExportError::Schema(format!("error word '{text}' is not 0x-prefixed hex"))
            })?;
            u64::from_str_radix(digits, 16)
                .map_err(|_| ExportError::Schema(format!("error word '{text}' is not valid hex")))
        })
        .collect::<Result<Vec<_>, ExportError>>()?;
    let expected = PauliString::packed_words(shape.data_bits);
    if error_words.len() != expected {
        return Err(ExportError::Schema(format!(
            "lattice {lattice_id} error payload has {} words, expected {expected} for {} data \
             qubits",
            error_words.len(),
            shape.data_bits
        )));
    }
    Ok(TraceRound {
        lattice_id: lattice_id as u32,
        round: req_u64(v, "round")?,
        due_ns: req_f64(v, "due_ns")?,
        hot,
        error_words,
    })
}

fn golden_to_json(g: &GoldenSummary) -> Json {
    Json::Obj(vec![
        ("decoder".to_string(), Json::Str(g.decoder.clone())),
        ("workers".to_string(), Json::from(g.workers)),
        ("generated".to_string(), Json::from(g.generated)),
        ("decoded".to_string(), Json::from(g.decoded)),
        ("dropped".to_string(), Json::from(g.dropped)),
        ("quarantined".to_string(), Json::from(g.quarantined)),
        (
            "shed".to_string(),
            Json::Arr(g.shed.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "frame_digests".to_string(),
            Json::Arr(
                g.frame_digests
                    .iter()
                    .map(|d| Json::Str(format!("{d:#x}")))
                    .collect(),
            ),
        ),
        (
            "residuals".to_string(),
            Json::Arr(
                g.residuals
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("rounds".to_string(), Json::from(t.rounds)),
                            ("successes".to_string(), Json::from(t.successes)),
                            ("logical_errors".to_string(), Json::from(t.logical_errors)),
                            (
                                "invalid_corrections".to_string(),
                                Json::from(t.invalid_corrections),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn golden_from_json(v: &Json, num_lattices: usize) -> Result<GoldenSummary, ExportError> {
    let shed = arr(v, "shed")?
        .iter()
        .map(|s| {
            s.as_u64()
                .ok_or_else(|| ExportError::Schema("'shed' element is not an integer".to_string()))
        })
        .collect::<Result<Vec<_>, ExportError>>()?;
    let frame_digests = arr(v, "frame_digests")?
        .iter()
        .map(|d| {
            let text = d.as_str().ok_or_else(|| {
                ExportError::Schema("'frame_digests' element is not a string".to_string())
            })?;
            let digits = text.strip_prefix("0x").ok_or_else(|| {
                ExportError::Schema(format!("frame digest '{text}' is not 0x-prefixed hex"))
            })?;
            u64::from_str_radix(digits, 16)
                .map_err(|_| ExportError::Schema(format!("frame digest '{text}' is not valid hex")))
        })
        .collect::<Result<Vec<_>, ExportError>>()?;
    let residuals = arr(v, "residuals")?
        .iter()
        .map(|t| {
            Ok(ResidualTally {
                rounds: req_u64(t, "rounds")?,
                successes: req_u64(t, "successes")?,
                logical_errors: req_u64(t, "logical_errors")?,
                invalid_corrections: req_u64(t, "invalid_corrections")?,
            })
        })
        .collect::<Result<Vec<_>, ExportError>>()?;
    for (name, len) in [
        ("shed", shed.len()),
        ("frame_digests", frame_digests.len()),
        ("residuals", residuals.len()),
    ] {
        if len != num_lattices {
            return Err(ExportError::Schema(format!(
                "golden '{name}' has {len} entries for {num_lattices} lattices"
            )));
        }
    }
    Ok(GoldenSummary {
        decoder: req_str(v, "decoder")?.to_string(),
        workers: req_usize(v, "workers")?,
        generated: req_u64(v, "generated")?,
        decoded: req_u64(v, "decoded")?,
        dropped: req_u64(v, "dropped")?,
        quarantined: req_u64(v, "quarantined")?,
        shed,
        frame_digests,
        residuals,
    })
}

fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ExportError> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is missing or not an array")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, ExportError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is missing or not an integer")))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, ExportError> {
    Ok(req_u64(v, key)? as usize)
}

fn req_f64(v: &Json, key: &str) -> Result<f64, ExportError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is missing or not a number")))
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ExportError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is missing or not a string")))
}

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
        let mut error_words = vec![0u64; PauliString::packed_words(sourced.error.len())];
        sourced.error.pack_into(&mut error_words);
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
            error_words,
        });
    }

    /// The number of rounds recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
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

    /// The number of rounds not yet served.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.rounds.len() - self.cursor
    }

    /// Serves the next recorded round, or `None` when the trace is drained.
    pub fn next_round(&mut self) -> Option<SourcedRound> {
        let recorded = self.trace.rounds.get(self.cursor)?;
        self.cursor += 1;
        let shape = &self.trace.lattices[recorded.lattice_id as usize];
        let hot: Vec<usize> = recorded.hot.iter().map(|&i| i as usize).collect();
        let mut error = PauliString::identity(shape.data_bits);
        error.unpack_from(&recorded.error_words);
        Some(SourcedRound {
            lattice_id: recorded.lattice_id,
            round: recorded.round,
            due_ns: recorded.due_ns,
            syndrome: Syndrome::from_hot(shape.ancilla_bits, &hot),
            error,
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
        assert_eq!(replay.remaining(), 12);
        while let Some(expected) = live.next_round() {
            let served = replay.next_round().expect("replay exhausted early");
            assert_eq!(served, expected);
        }
        assert!(replay.next_round().is_none());
        assert_eq!(replay.remaining(), 0);
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
            quarantined: 0,
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
