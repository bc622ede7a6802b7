//! Schema-versioned JSON export of [`RuntimeReport`]s.
//!
//! Everything a run measures — counters, stage reports, latency quantiles,
//! mid-run snapshots, the event journal — serializes to a single JSON
//! document headed by a `schema_version` field.  This module *is* the
//! format: one `record!` table per exported type lists its fields once, in
//! document order, and the crate-private `report::codec` derives the
//! writer and the reader from that one list — a key is its field's name, so
//! the two directions cannot drift apart.  Changing a table changes the
//! format: bump [`SCHEMA_VERSION`] (`tests/obs.rs` pins the key paths
//! against `tests/report_schema_v8.txt`).
//!
//! Reading rejects documents whose version does not match
//! [`SCHEMA_VERSION`] exactly, so a stale artifact fails loudly instead of
//! parsing into wrong numbers, and any missing, mistyped or out-of-range
//! field with an [`ExportError::Schema`] naming it.  The serialization
//! round-trips exactly: `report_from_str(report_to_string(r)) == r` for any
//! real report (floats use shortest-round-trip formatting).  Every key is
//! documented in `docs/OPERATIONS.md` (test-pinned).

use crate::config::PushPolicy;
use crate::fault::FaultReport;
use crate::obs::{
    EventCounts, EventKind, EventSeverity, JournalSnapshot, MetricsSnapshot, RuntimeEvent,
};
use crate::report::codec::{check_header, field, labels, record, with_header, Codec, Plain};
use crate::report::json::{parse, Json, JsonError};
use crate::source::NoiseEpoch;
use crate::stage::StageReport;
use crate::telemetry::{
    CounterSnapshot, DepthSample, LatencyProfile, LatencyQuantiles, LatticeCounterSnapshot,
    LatticeReport, ResidualReport, RuntimeReport, WorkerCounterSnapshot,
};
use nisqplus_qec::logical::ResidualTally;
use nisqplus_sim::stats::Summary;
use nisqplus_system::backlog::{BacklogComparison, MeasuredBacklog};
use std::fmt;
use std::path::Path;

/// The export schema version.  Bump on any breaking layout change; readers
/// reject any other version.
///
/// v2: fault-injection accounting — `counters.quarantined`, the six fault
/// event kinds in `journal.counts`, and the report-level `fault` object.
///
/// v3: soak-scale telemetry — three per-lattice residual failure counters
/// in `lattices[].counters` (gone again in v8).
///
/// v4: the scenario plane — per-lattice `noise_epochs` timelines, the
/// `lattice_added` / `lattice_retired` journal kinds, and per-lattice
/// `rounds` now reporting rounds *actually streamed* (elastic runs truncate
/// retired lattices).
///
/// v5: one owner per fact — the report-level `metrics` array is gone (it
/// was `stages` flattened to `stage.<name>.<field>`).
///
/// v6: the per-lattice backlog arrays are gone (each was a column of
/// `depth_timeline[i].per_lattice_backlog`, re-keyed), and `stages` files
/// no `skid` or `sink.<w>` row (restatements of `source` and `decode.<w>`).
///
/// v7: `stages[]` rows lose the two token-loop totals of the flow control
/// that was laid over the rings (on channel rows they repeated `emitted` /
/// `accepted`; a budget's flow is the lattice's own `enqueued` / `decoded`).
///
/// v8: `lattices[].counters` loses the three v3 keys: they restated
/// `lattices[].residual.{decoded,shed}`' failure counts, and nothing could
/// read them before the final report.
pub const SCHEMA_VERSION: u64 = 8;

/// Why an export or import failed.
#[derive(Debug)]
pub enum ExportError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The document is not valid JSON.
    Parse(JsonError),
    /// The document's schema version is not [`SCHEMA_VERSION`].
    Version {
        /// The version the document claims.
        found: u64,
        /// The version this build understands.
        expected: u64,
    },
    /// The document is valid JSON but not a valid export (missing or
    /// mistyped field, unknown label, wrong document kind).
    Schema(String),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(err) => write!(f, "io error: {err}"),
            ExportError::Parse(err) => write!(f, "{err}"),
            ExportError::Version { found, expected } => write!(
                f,
                "schema version mismatch: document is v{found}, this build reads v{expected}"
            ),
            ExportError::Schema(message) => write!(f, "schema error: {message}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(err: std::io::Error) -> Self {
        ExportError::Io(err)
    }
}

impl From<JsonError> for ExportError {
    fn from(err: JsonError) -> Self {
        ExportError::Parse(err)
    }
}

/// The only document kind this module writes or accepts.
const KIND: &str = "runtime_report";

// ---------------------------------------------------------------------------
// The format: every exported type's fields, once, in document order
// ---------------------------------------------------------------------------

record!(Summary {
    count,
    mean,
    std_dev,
    min,
    max,
});

record!(LatencyQuantiles {
    p50,
    p90,
    p99,
    p999,
});

record!(LatencyProfile {
    summary,
    quantiles,
    histogram_edges,
    histogram_density,
});

record!(CounterSnapshot {
    generated,
    enqueued,
    dropped,
    backpressure_spins,
    decoded,
    quarantined,
    stall_polls,
    stolen,
    batches,
});

record!(WorkerCounterSnapshot {
    decoded,
    stolen,
    batches,
    stall_polls,
});

record!(LatticeCounterSnapshot {
    generated,
    enqueued,
    dropped,
    backpressure_spins,
    decoded,
});

record!(DepthSample {
    round,
    elapsed_ns,
    queue_depth,
    backlog,
    per_lattice_backlog,
});

labels!(
    PushPolicy,
    "push policy",
    [(PushPolicy::Block, "block"), (PushPolicy::Drop, "drop")]
);

record!(MeasuredBacklog {
    rounds,
    final_backlog,
    shed,
    service_time_ns,
    inter_arrival_ns,
});

record!(BacklogComparison {
    predicted_growth_per_round,
    measured_growth_per_round,
    effective_ratio,
});

record!(ResidualTally {
    rounds,
    successes,
    logical_errors,
    invalid_corrections,
});

record!(ResidualReport { decoded, shed });

record!(StageReport {
    stage,
    accepted,
    emitted,
    rejected,
    occupancy_peak,
    stall_cycles,
});

labels!(EventKind, "event kind", EventKind::LABELS);
labels!(EventSeverity, "event severity", EventSeverity::LABELS);

record!(RuntimeEvent {
    seq,
    elapsed_ns,
    kind,
    severity,
    lattice_id,
    worker_id,
    value,
});

/// One key per [`EventKind`], under the kind's label, in label-table order.
impl Codec for EventCounts {
    fn encode(&self) -> Json {
        let count =
            |&(kind, label): &(EventKind, &str)| (label.to_string(), Json::from(self[kind]));
        Json::Obj(EventKind::LABELS.iter().map(count).collect())
    }

    fn decode(value: &Json) -> Result<Self, ExportError> {
        let mut counts = EventCounts::default();
        for (kind, label) in EventKind::LABELS {
            counts[kind] = field::<Plain, _>(value, label)?;
        }
        Ok(counts)
    }
}

record!(JournalSnapshot {
    published,
    overwritten,
    info,
    warning,
    critical,
    counts,
    recent,
});

record!(MetricsSnapshot {
    seq,
    elapsed_ns,
    counters,
    queue_depth,
    backlog,
    per_lattice_backlog,
    decode_p50_ns,
    decode_p99_ns,
    decode_p999_ns,
    events_published,
    events_overwritten,
});

record!(FaultReport {
    enabled,
    injected_crashes,
    observed_crashes,
    worker_restarts,
    injected_corruptions,
    quarantined,
    planned_bursts,
    bursts_started,
    bursts_ended,
    injected_stalls,
    watchdog_trips,
    degraded,
});

record!(NoiseEpoch {
    start_round,
    end_round,
    mean_rate,
    label,
});

record!(LatticeReport {
    lattice_id,
    distance,
    decoder,
    push_policy,
    push_policy_overridden,
    queue_budget,
    shed_slo,
    residual,
    rounds,
    noise_epochs,
    cadence_ns,
    inter_arrival_ns,
    counters,
    final_backlog,
    decode_latency,
    total_latency,
    measured,
    comparison,
});

record!(RuntimeReport {
    decoder,
    num_lattices,
    distances,
    workers,
    batch_size,
    rounds,
    cadence_ns,
    inter_arrival_ns,
    elapsed_s,
    counters,
    depth_timeline,
    max_queue_depth,
    final_backlog,
    throughput_per_s,
    decode_latency,
    total_latency,
    measured,
    comparison,
    lattices,
    worker_counters,
    stages,
    snapshots,
    journal,
    fault,
});

// ---------------------------------------------------------------------------
// RuntimeReport documents
// ---------------------------------------------------------------------------

/// Serializes `report` to a schema-versioned [`Json`] document.
#[must_use]
pub fn report_to_json(report: &RuntimeReport) -> Json {
    let header = vec![
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(KIND)),
    ];
    with_header(header, report.encode())
}

/// Reconstructs a [`RuntimeReport`] from a document produced by
/// [`report_to_json`].
///
/// # Errors
///
/// Rejects documents with a different [`SCHEMA_VERSION`], the wrong kind,
/// or any missing, mistyped or out-of-range field.
pub fn report_from_json(doc: &Json) -> Result<RuntimeReport, ExportError> {
    check_header(doc, SCHEMA_VERSION, KIND)?;
    RuntimeReport::decode(doc)
}

/// Serializes `report` to pretty-printed JSON text.
#[must_use]
pub fn report_to_string(report: &RuntimeReport) -> String {
    report_to_json(report).to_pretty()
}

/// Parses a report from JSON text.
///
/// # Errors
///
/// See [`report_from_json`]; also fails on malformed JSON.
pub fn report_from_str(text: &str) -> Result<RuntimeReport, ExportError> {
    report_from_json(&parse(text)?)
}

/// Writes `report` to `path` as schema-versioned JSON.
///
/// # Errors
///
/// Fails on I/O errors only.
pub fn write_report(path: impl AsRef<Path>, report: &RuntimeReport) -> Result<(), ExportError> {
    std::fs::write(path, report_to_string(report))?;
    Ok(())
}

/// Reads a report back from `path`.
///
/// # Errors
///
/// Fails on I/O errors, malformed JSON, or schema mismatches.
pub fn read_report(path: impl AsRef<Path>) -> Result<RuntimeReport, ExportError> {
    report_from_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_document_kind_is_rejected() {
        let header = vec![
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("not_a_report")),
        ];
        let doc = with_header(header, Json::Obj(Vec::new()));
        assert!(matches!(
            report_from_json(&doc),
            Err(ExportError::Schema(_))
        ));
    }
}
