//! Schema-versioned JSON export of [`RuntimeReport`]s.
//!
//! Everything a run measures — counters, stage reports, latency quantiles,
//! mid-run snapshots, the event journal — serializes to a single JSON
//! document headed by a `schema_version` field.  Reading rejects documents
//! whose version does not match [`SCHEMA_VERSION`] exactly, so a stale
//! artifact fails loudly instead of parsing into wrong numbers.  The
//! serialization round-trips exactly: `report_from_str(report_to_string(r))
//! == r` for any real report (floats use shortest-round-trip formatting).
//! The exported field layout is documented field by field in
//! `docs/OPERATIONS.md`.

use crate::config::PushPolicy;
use crate::obs::{
    EventCounts, EventKind, EventSeverity, JournalSnapshot, MetricsSnapshot, RuntimeEvent,
};
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
/// v3: soak-scale telemetry — per-lattice live residual counters
/// (`decode_failures`, `shed_failures`, the derived `live_failure_rate`).
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
pub const SCHEMA_VERSION: u64 = 6;

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

// ---------------------------------------------------------------------------
// Field access helpers
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, ExportError> {
    value
        .get(key)
        .ok_or_else(|| ExportError::Schema(format!("missing field '{key}'")))
}

fn get_f64(value: &Json, key: &str) -> Result<f64, ExportError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not a number")))
}

fn get_u64(value: &Json, key: &str) -> Result<u64, ExportError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not a non-negative integer")))
}

fn get_usize(value: &Json, key: &str) -> Result<usize, ExportError> {
    Ok(get_u64(value, key)? as usize)
}

fn get_bool(value: &Json, key: &str) -> Result<bool, ExportError> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not a boolean")))
}

fn get_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, ExportError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not a string")))
}

fn get_arr<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], ExportError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not an array")))
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

fn usize_arr(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

fn get_f64_arr(value: &Json, key: &str) -> Result<Vec<f64>, ExportError> {
    get_arr(value, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ExportError::Schema(format!("'{key}' element is not a number")))
        })
        .collect()
}

fn get_u64_arr(value: &Json, key: &str) -> Result<Vec<u64>, ExportError> {
    get_arr(value, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| ExportError::Schema(format!("'{key}' element is not an integer")))
        })
        .collect()
}

/// The only document kind this module writes or accepts.
const KIND: &str = "runtime_report";

fn check_header(doc: &Json) -> Result<(), ExportError> {
    let found = get_u64(doc, "schema_version")?;
    if found != SCHEMA_VERSION {
        return Err(ExportError::Version {
            found,
            expected: SCHEMA_VERSION,
        });
    }
    let kind = get_str(doc, "kind")?;
    if kind != KIND {
        return Err(ExportError::Schema(format!(
            "document kind is '{kind}', expected '{KIND}'"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Leaf converters
// ---------------------------------------------------------------------------

fn summary_to_json(s: &Summary) -> Json {
    obj(vec![
        ("count", Json::from(s.count)),
        ("mean", Json::Num(s.mean)),
        ("std_dev", Json::Num(s.std_dev)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
    ])
}

fn summary_from_json(v: &Json) -> Result<Summary, ExportError> {
    Ok(Summary {
        count: get_usize(v, "count")?,
        mean: get_f64(v, "mean")?,
        std_dev: get_f64(v, "std_dev")?,
        min: get_f64(v, "min")?,
        max: get_f64(v, "max")?,
    })
}

fn quantiles_to_json(q: &LatencyQuantiles) -> Json {
    obj(vec![
        ("p50", Json::Num(q.p50)),
        ("p90", Json::Num(q.p90)),
        ("p99", Json::Num(q.p99)),
        ("p999", Json::Num(q.p999)),
    ])
}

fn quantiles_from_json(v: &Json) -> Result<LatencyQuantiles, ExportError> {
    Ok(LatencyQuantiles {
        p50: get_f64(v, "p50")?,
        p90: get_f64(v, "p90")?,
        p99: get_f64(v, "p99")?,
        p999: get_f64(v, "p999")?,
    })
}

fn profile_to_json(p: &LatencyProfile) -> Json {
    obj(vec![
        ("summary", summary_to_json(&p.summary)),
        ("quantiles", quantiles_to_json(&p.quantiles)),
        ("histogram_edges", f64_arr(&p.histogram_edges)),
        ("histogram_density", f64_arr(&p.histogram_density)),
    ])
}

fn profile_from_json(v: &Json) -> Result<LatencyProfile, ExportError> {
    Ok(LatencyProfile {
        summary: summary_from_json(field(v, "summary")?)?,
        quantiles: quantiles_from_json(field(v, "quantiles")?)?,
        histogram_edges: get_f64_arr(v, "histogram_edges")?,
        histogram_density: get_f64_arr(v, "histogram_density")?,
    })
}

fn counters_to_json(c: &CounterSnapshot) -> Json {
    obj(vec![
        ("generated", Json::from(c.generated)),
        ("enqueued", Json::from(c.enqueued)),
        ("dropped", Json::from(c.dropped)),
        ("backpressure_spins", Json::from(c.backpressure_spins)),
        ("decoded", Json::from(c.decoded)),
        ("quarantined", Json::from(c.quarantined)),
        ("stall_polls", Json::from(c.stall_polls)),
        ("stolen", Json::from(c.stolen)),
        ("batches", Json::from(c.batches)),
    ])
}

fn counters_from_json(v: &Json) -> Result<CounterSnapshot, ExportError> {
    Ok(CounterSnapshot {
        generated: get_u64(v, "generated")?,
        enqueued: get_u64(v, "enqueued")?,
        dropped: get_u64(v, "dropped")?,
        backpressure_spins: get_u64(v, "backpressure_spins")?,
        decoded: get_u64(v, "decoded")?,
        quarantined: get_u64(v, "quarantined")?,
        stall_polls: get_u64(v, "stall_polls")?,
        stolen: get_u64(v, "stolen")?,
        batches: get_u64(v, "batches")?,
    })
}

fn worker_counters_to_json(c: &WorkerCounterSnapshot) -> Json {
    obj(vec![
        ("decoded", Json::from(c.decoded)),
        ("stolen", Json::from(c.stolen)),
        ("batches", Json::from(c.batches)),
        ("stall_polls", Json::from(c.stall_polls)),
    ])
}

fn worker_counters_from_json(v: &Json) -> Result<WorkerCounterSnapshot, ExportError> {
    Ok(WorkerCounterSnapshot {
        decoded: get_u64(v, "decoded")?,
        stolen: get_u64(v, "stolen")?,
        batches: get_u64(v, "batches")?,
        stall_polls: get_u64(v, "stall_polls")?,
    })
}

fn lattice_counters_to_json(c: &LatticeCounterSnapshot) -> Json {
    obj(vec![
        ("generated", Json::from(c.generated)),
        ("enqueued", Json::from(c.enqueued)),
        ("dropped", Json::from(c.dropped)),
        ("backpressure_spins", Json::from(c.backpressure_spins)),
        ("decoded", Json::from(c.decoded)),
        ("decode_failures", Json::from(c.decode_failures)),
        ("shed_failures", Json::from(c.shed_failures)),
        // Derived, exported for dashboards; the reader recomputes it.
        ("live_failure_rate", Json::Num(c.live_failure_rate())),
    ])
}

fn lattice_counters_from_json(v: &Json) -> Result<LatticeCounterSnapshot, ExportError> {
    Ok(LatticeCounterSnapshot {
        generated: get_u64(v, "generated")?,
        enqueued: get_u64(v, "enqueued")?,
        dropped: get_u64(v, "dropped")?,
        backpressure_spins: get_u64(v, "backpressure_spins")?,
        decoded: get_u64(v, "decoded")?,
        decode_failures: get_u64(v, "decode_failures")?,
        shed_failures: get_u64(v, "shed_failures")?,
    })
}

fn depth_sample_to_json(s: &DepthSample) -> Json {
    obj(vec![
        ("round", Json::from(s.round)),
        ("elapsed_ns", Json::from(s.elapsed_ns)),
        ("queue_depth", Json::from(s.queue_depth)),
        ("backlog", Json::from(s.backlog)),
        ("per_lattice_backlog", u64_arr(&s.per_lattice_backlog)),
    ])
}

fn depth_sample_from_json(v: &Json) -> Result<DepthSample, ExportError> {
    Ok(DepthSample {
        round: get_u64(v, "round")?,
        elapsed_ns: get_u64(v, "elapsed_ns")?,
        queue_depth: get_u64(v, "queue_depth")?,
        backlog: get_u64(v, "backlog")?,
        per_lattice_backlog: get_u64_arr(v, "per_lattice_backlog")?,
    })
}

fn push_policy_to_json(p: PushPolicy) -> Json {
    Json::from(match p {
        PushPolicy::Block => "block",
        PushPolicy::Drop => "drop",
    })
}

fn push_policy_from_json(v: &Json) -> Result<PushPolicy, ExportError> {
    match v.as_str() {
        Some("block") => Ok(PushPolicy::Block),
        Some("drop") => Ok(PushPolicy::Drop),
        _ => Err(ExportError::Schema("invalid push policy".to_string())),
    }
}

fn measured_to_json(m: &MeasuredBacklog) -> Json {
    obj(vec![
        ("rounds", Json::from(m.rounds)),
        ("final_backlog", Json::from(m.final_backlog)),
        ("shed", Json::from(m.shed)),
        ("service_time_ns", Json::Num(m.service_time_ns)),
        ("inter_arrival_ns", Json::Num(m.inter_arrival_ns)),
    ])
}

fn measured_from_json(v: &Json) -> Result<MeasuredBacklog, ExportError> {
    Ok(MeasuredBacklog {
        rounds: get_u64(v, "rounds")?,
        final_backlog: get_u64(v, "final_backlog")?,
        shed: get_u64(v, "shed")?,
        service_time_ns: get_f64(v, "service_time_ns")?,
        inter_arrival_ns: get_f64(v, "inter_arrival_ns")?,
    })
}

fn comparison_to_json(c: &BacklogComparison) -> Json {
    obj(vec![
        (
            "predicted_growth_per_round",
            Json::Num(c.predicted_growth_per_round),
        ),
        (
            "measured_growth_per_round",
            Json::Num(c.measured_growth_per_round),
        ),
        ("effective_ratio", Json::Num(c.effective_ratio)),
    ])
}

fn comparison_from_json(v: &Json) -> Result<BacklogComparison, ExportError> {
    Ok(BacklogComparison {
        predicted_growth_per_round: get_f64(v, "predicted_growth_per_round")?,
        measured_growth_per_round: get_f64(v, "measured_growth_per_round")?,
        effective_ratio: get_f64(v, "effective_ratio")?,
    })
}

fn tally_to_json(t: &ResidualTally) -> Json {
    obj(vec![
        ("rounds", Json::from(t.rounds)),
        ("successes", Json::from(t.successes)),
        ("logical_errors", Json::from(t.logical_errors)),
        ("invalid_corrections", Json::from(t.invalid_corrections)),
    ])
}

fn tally_from_json(v: &Json) -> Result<ResidualTally, ExportError> {
    Ok(ResidualTally {
        rounds: get_u64(v, "rounds")?,
        successes: get_u64(v, "successes")?,
        logical_errors: get_u64(v, "logical_errors")?,
        invalid_corrections: get_u64(v, "invalid_corrections")?,
    })
}

fn residual_to_json(r: &ResidualReport) -> Json {
    obj(vec![
        ("decoded", tally_to_json(&r.decoded)),
        ("shed", tally_to_json(&r.shed)),
    ])
}

fn residual_from_json(v: &Json) -> Result<ResidualReport, ExportError> {
    Ok(ResidualReport {
        decoded: tally_from_json(field(v, "decoded")?)?,
        shed: tally_from_json(field(v, "shed")?)?,
    })
}

fn stage_to_json(s: &StageReport) -> Json {
    obj(vec![
        ("stage", Json::from(s.stage.as_str())),
        ("accepted", Json::from(s.accepted)),
        ("emitted", Json::from(s.emitted)),
        ("rejected", Json::from(s.rejected)),
        ("credits_issued", Json::from(s.credits_issued)),
        ("credits_consumed", Json::from(s.credits_consumed)),
        ("occupancy_peak", Json::from(s.occupancy_peak)),
        ("stall_cycles", Json::from(s.stall_cycles)),
    ])
}

fn stage_from_json(v: &Json) -> Result<StageReport, ExportError> {
    Ok(StageReport {
        stage: get_str(v, "stage")?.to_string(),
        accepted: get_u64(v, "accepted")?,
        emitted: get_u64(v, "emitted")?,
        rejected: get_u64(v, "rejected")?,
        credits_issued: get_u64(v, "credits_issued")?,
        credits_consumed: get_u64(v, "credits_consumed")?,
        occupancy_peak: get_u64(v, "occupancy_peak")?,
        stall_cycles: get_u64(v, "stall_cycles")?,
    })
}

fn opt_u32_to_json(v: Option<u32>) -> Json {
    match v {
        Some(x) => Json::from(u64::from(x)),
        None => Json::Null,
    }
}

fn opt_u32_from_json(v: &Json, key: &str) -> Result<Option<u32>, ExportError> {
    match field(v, key)? {
        Json::Null => Ok(None),
        other => other
            .as_u64()
            .map(|x| Some(x as u32))
            .ok_or_else(|| ExportError::Schema(format!("field '{key}' is not an integer or null"))),
    }
}

fn event_to_json(e: &RuntimeEvent) -> Json {
    obj(vec![
        ("seq", Json::from(e.seq)),
        ("elapsed_ns", Json::from(e.elapsed_ns)),
        ("kind", Json::from(e.kind.label())),
        ("severity", Json::from(e.severity.label())),
        ("lattice_id", opt_u32_to_json(e.lattice_id)),
        ("worker_id", opt_u32_to_json(e.worker_id)),
        ("value", Json::from(e.value)),
    ])
}

fn event_from_json(v: &Json) -> Result<RuntimeEvent, ExportError> {
    let kind = match get_str(v, "kind")? {
        "shed" => EventKind::Shed,
        "backpressure_stall" => EventKind::BackpressureStall,
        "budget_exhausted" => EventKind::BudgetExhausted,
        "steal" => EventKind::Steal,
        "verdict_flip" => EventKind::VerdictFlip,
        "worker_crash" => EventKind::WorkerCrash,
        "worker_restart" => EventKind::WorkerRestart,
        "quarantine" => EventKind::Quarantine,
        "burst_start" => EventKind::BurstStart,
        "burst_end" => EventKind::BurstEnd,
        "watchdog_trip" => EventKind::WatchdogTrip,
        "lattice_added" => EventKind::LatticeAdded,
        "lattice_retired" => EventKind::LatticeRetired,
        other => return Err(ExportError::Schema(format!("unknown event kind '{other}'"))),
    };
    let severity = match get_str(v, "severity")? {
        "info" => EventSeverity::Info,
        "warning" => EventSeverity::Warning,
        "critical" => EventSeverity::Critical,
        other => {
            return Err(ExportError::Schema(format!(
                "unknown event severity '{other}'"
            )))
        }
    };
    Ok(RuntimeEvent {
        seq: get_u64(v, "seq")?,
        elapsed_ns: get_u64(v, "elapsed_ns")?,
        kind,
        severity,
        lattice_id: opt_u32_from_json(v, "lattice_id")?,
        worker_id: opt_u32_from_json(v, "worker_id")?,
        value: get_u64(v, "value")?,
    })
}

fn journal_to_json(j: &JournalSnapshot) -> Json {
    obj(vec![
        ("published", Json::from(j.published)),
        ("overwritten", Json::from(j.overwritten)),
        ("info", Json::from(j.info)),
        ("warning", Json::from(j.warning)),
        ("critical", Json::from(j.critical)),
        (
            "counts",
            obj(vec![
                ("shed", Json::from(j.counts.shed)),
                (
                    "backpressure_stall",
                    Json::from(j.counts.backpressure_stall),
                ),
                ("budget_exhausted", Json::from(j.counts.budget_exhausted)),
                ("steal", Json::from(j.counts.steal)),
                ("verdict_flip", Json::from(j.counts.verdict_flip)),
                ("worker_crash", Json::from(j.counts.worker_crash)),
                ("worker_restart", Json::from(j.counts.worker_restart)),
                ("quarantine", Json::from(j.counts.quarantine)),
                ("burst_start", Json::from(j.counts.burst_start)),
                ("burst_end", Json::from(j.counts.burst_end)),
                ("watchdog_trip", Json::from(j.counts.watchdog_trip)),
                ("lattice_added", Json::from(j.counts.lattice_added)),
                ("lattice_retired", Json::from(j.counts.lattice_retired)),
            ]),
        ),
        (
            "recent",
            Json::Arr(j.recent.iter().map(event_to_json).collect()),
        ),
    ])
}

fn journal_from_json(v: &Json) -> Result<JournalSnapshot, ExportError> {
    let counts = field(v, "counts")?;
    Ok(JournalSnapshot {
        published: get_u64(v, "published")?,
        overwritten: get_u64(v, "overwritten")?,
        info: get_u64(v, "info")?,
        warning: get_u64(v, "warning")?,
        critical: get_u64(v, "critical")?,
        counts: EventCounts {
            shed: get_u64(counts, "shed")?,
            backpressure_stall: get_u64(counts, "backpressure_stall")?,
            budget_exhausted: get_u64(counts, "budget_exhausted")?,
            steal: get_u64(counts, "steal")?,
            verdict_flip: get_u64(counts, "verdict_flip")?,
            worker_crash: get_u64(counts, "worker_crash")?,
            worker_restart: get_u64(counts, "worker_restart")?,
            quarantine: get_u64(counts, "quarantine")?,
            burst_start: get_u64(counts, "burst_start")?,
            burst_end: get_u64(counts, "burst_end")?,
            watchdog_trip: get_u64(counts, "watchdog_trip")?,
            lattice_added: get_u64(counts, "lattice_added")?,
            lattice_retired: get_u64(counts, "lattice_retired")?,
        },
        recent: get_arr(v, "recent")?
            .iter()
            .map(event_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn snapshot_to_json(s: &MetricsSnapshot) -> Json {
    obj(vec![
        ("seq", Json::from(s.seq)),
        ("elapsed_ns", Json::from(s.elapsed_ns)),
        ("counters", counters_to_json(&s.counters)),
        ("queue_depth", Json::from(s.queue_depth)),
        ("backlog", Json::from(s.backlog)),
        ("per_lattice_backlog", u64_arr(&s.per_lattice_backlog)),
        ("decode_p50_ns", Json::Num(s.decode_p50_ns)),
        ("decode_p99_ns", Json::Num(s.decode_p99_ns)),
        ("decode_p999_ns", Json::Num(s.decode_p999_ns)),
        ("events_published", Json::from(s.events_published)),
        ("events_overwritten", Json::from(s.events_overwritten)),
    ])
}

fn snapshot_from_json(v: &Json) -> Result<MetricsSnapshot, ExportError> {
    Ok(MetricsSnapshot {
        seq: get_u64(v, "seq")?,
        elapsed_ns: get_u64(v, "elapsed_ns")?,
        counters: counters_from_json(field(v, "counters")?)?,
        queue_depth: get_u64(v, "queue_depth")?,
        backlog: get_u64(v, "backlog")?,
        per_lattice_backlog: get_u64_arr(v, "per_lattice_backlog")?,
        decode_p50_ns: get_f64(v, "decode_p50_ns")?,
        decode_p99_ns: get_f64(v, "decode_p99_ns")?,
        decode_p999_ns: get_f64(v, "decode_p999_ns")?,
        events_published: get_u64(v, "events_published")?,
        events_overwritten: get_u64(v, "events_overwritten")?,
    })
}

fn fault_to_json(r: &crate::fault::FaultReport) -> Json {
    obj(vec![
        ("enabled", Json::Bool(r.enabled)),
        ("injected_crashes", Json::from(r.injected_crashes)),
        ("observed_crashes", Json::from(r.observed_crashes)),
        ("worker_restarts", Json::from(r.worker_restarts)),
        ("injected_corruptions", Json::from(r.injected_corruptions)),
        ("quarantined", Json::from(r.quarantined)),
        ("planned_bursts", Json::from(r.planned_bursts)),
        ("bursts_started", Json::from(r.bursts_started)),
        ("bursts_ended", Json::from(r.bursts_ended)),
        ("injected_stalls", Json::from(r.injected_stalls)),
        ("watchdog_trips", Json::from(r.watchdog_trips)),
        ("degraded", Json::Bool(r.degraded)),
    ])
}

fn fault_from_json(v: &Json) -> Result<crate::fault::FaultReport, ExportError> {
    Ok(crate::fault::FaultReport {
        enabled: get_bool(v, "enabled")?,
        injected_crashes: get_u64(v, "injected_crashes")?,
        observed_crashes: get_u64(v, "observed_crashes")?,
        worker_restarts: get_u64(v, "worker_restarts")?,
        injected_corruptions: get_u64(v, "injected_corruptions")?,
        quarantined: get_u64(v, "quarantined")?,
        planned_bursts: get_u64(v, "planned_bursts")?,
        bursts_started: get_u64(v, "bursts_started")?,
        bursts_ended: get_u64(v, "bursts_ended")?,
        injected_stalls: get_u64(v, "injected_stalls")?,
        watchdog_trips: get_u64(v, "watchdog_trips")?,
        degraded: get_bool(v, "degraded")?,
    })
}

fn noise_epoch_to_json(e: &NoiseEpoch) -> Json {
    obj(vec![
        ("start_round", Json::from(e.start_round)),
        ("end_round", Json::from(e.end_round)),
        ("mean_rate", Json::Num(e.mean_rate)),
        ("label", Json::from(e.label.as_str())),
    ])
}

fn noise_epoch_from_json(v: &Json) -> Result<NoiseEpoch, ExportError> {
    Ok(NoiseEpoch {
        start_round: get_u64(v, "start_round")?,
        end_round: get_u64(v, "end_round")?,
        mean_rate: get_f64(v, "mean_rate")?,
        label: get_str(v, "label")?.to_string(),
    })
}

fn lattice_to_json(l: &LatticeReport) -> Json {
    obj(vec![
        ("lattice_id", Json::from(l.lattice_id)),
        ("distance", Json::from(l.distance)),
        ("decoder", Json::from(l.decoder.as_str())),
        ("push_policy", push_policy_to_json(l.push_policy)),
        (
            "push_policy_overridden",
            Json::from(l.push_policy_overridden),
        ),
        (
            "queue_budget",
            match l.queue_budget {
                Some(b) => Json::from(b),
                None => Json::Null,
            },
        ),
        (
            "shed_slo",
            match l.shed_slo {
                Some(s) => Json::Num(s),
                None => Json::Null,
            },
        ),
        (
            "residual",
            match &l.residual {
                Some(r) => residual_to_json(r),
                None => Json::Null,
            },
        ),
        ("rounds", Json::from(l.rounds)),
        (
            "noise_epochs",
            Json::Arr(l.noise_epochs.iter().map(noise_epoch_to_json).collect()),
        ),
        ("cadence_ns", Json::Num(l.cadence_ns)),
        ("inter_arrival_ns", Json::Num(l.inter_arrival_ns)),
        ("counters", lattice_counters_to_json(&l.counters)),
        ("final_backlog", Json::from(l.final_backlog)),
        ("decode_latency", profile_to_json(&l.decode_latency)),
        ("total_latency", profile_to_json(&l.total_latency)),
        ("measured", measured_to_json(&l.measured)),
        ("comparison", comparison_to_json(&l.comparison)),
    ])
}

fn lattice_from_json(v: &Json) -> Result<LatticeReport, ExportError> {
    Ok(LatticeReport {
        lattice_id: get_usize(v, "lattice_id")?,
        distance: get_usize(v, "distance")?,
        decoder: get_str(v, "decoder")?.to_string(),
        push_policy: push_policy_from_json(field(v, "push_policy")?)?,
        push_policy_overridden: get_bool(v, "push_policy_overridden")?,
        queue_budget: match field(v, "queue_budget")? {
            Json::Null => None,
            other => Some(other.as_u64().ok_or_else(|| {
                ExportError::Schema("'queue_budget' is not an integer or null".to_string())
            })? as usize),
        },
        shed_slo: match field(v, "shed_slo")? {
            Json::Null => None,
            other => Some(other.as_f64().ok_or_else(|| {
                ExportError::Schema("'shed_slo' is not a number or null".to_string())
            })?),
        },
        residual: match field(v, "residual")? {
            Json::Null => None,
            other => Some(residual_from_json(other)?),
        },
        rounds: get_u64(v, "rounds")?,
        noise_epochs: get_arr(v, "noise_epochs")?
            .iter()
            .map(noise_epoch_from_json)
            .collect::<Result<_, _>>()?,
        cadence_ns: get_f64(v, "cadence_ns")?,
        inter_arrival_ns: get_f64(v, "inter_arrival_ns")?,
        counters: lattice_counters_from_json(field(v, "counters")?)?,
        final_backlog: get_u64(v, "final_backlog")?,
        decode_latency: profile_from_json(field(v, "decode_latency")?)?,
        total_latency: profile_from_json(field(v, "total_latency")?)?,
        measured: measured_from_json(field(v, "measured")?)?,
        comparison: comparison_from_json(field(v, "comparison")?)?,
    })
}

// ---------------------------------------------------------------------------
// RuntimeReport
// ---------------------------------------------------------------------------

/// Serializes `report` to a schema-versioned [`Json`] document.
#[must_use]
pub fn report_to_json(report: &RuntimeReport) -> Json {
    obj(vec![
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(KIND)),
        ("decoder", Json::from(report.decoder.as_str())),
        ("num_lattices", Json::from(report.num_lattices)),
        ("distances", usize_arr(&report.distances)),
        ("workers", Json::from(report.workers)),
        ("batch_size", Json::from(report.batch_size)),
        ("rounds", Json::from(report.rounds)),
        ("cadence_ns", Json::Num(report.cadence_ns)),
        ("inter_arrival_ns", Json::Num(report.inter_arrival_ns)),
        ("elapsed_s", Json::Num(report.elapsed_s)),
        ("counters", counters_to_json(&report.counters)),
        (
            "depth_timeline",
            Json::Arr(
                report
                    .depth_timeline
                    .iter()
                    .map(depth_sample_to_json)
                    .collect(),
            ),
        ),
        ("max_queue_depth", Json::from(report.max_queue_depth)),
        ("final_backlog", Json::from(report.final_backlog)),
        ("throughput_per_s", Json::Num(report.throughput_per_s)),
        ("decode_latency", profile_to_json(&report.decode_latency)),
        ("total_latency", profile_to_json(&report.total_latency)),
        ("measured", measured_to_json(&report.measured)),
        ("comparison", comparison_to_json(&report.comparison)),
        (
            "lattices",
            Json::Arr(report.lattices.iter().map(lattice_to_json).collect()),
        ),
        (
            "worker_counters",
            Json::Arr(
                report
                    .worker_counters
                    .iter()
                    .map(worker_counters_to_json)
                    .collect(),
            ),
        ),
        (
            "stages",
            Json::Arr(report.stages.iter().map(stage_to_json).collect()),
        ),
        (
            "snapshots",
            Json::Arr(report.snapshots.iter().map(snapshot_to_json).collect()),
        ),
        ("journal", journal_to_json(&report.journal)),
        ("fault", fault_to_json(&report.fault)),
    ])
}

/// Reconstructs a [`RuntimeReport`] from a document produced by
/// [`report_to_json`].
///
/// # Errors
///
/// Rejects documents with a different [`SCHEMA_VERSION`], the wrong kind,
/// or any missing/mistyped field.
pub fn report_from_json(doc: &Json) -> Result<RuntimeReport, ExportError> {
    check_header(doc)?;
    Ok(RuntimeReport {
        decoder: get_str(doc, "decoder")?.to_string(),
        num_lattices: get_usize(doc, "num_lattices")?,
        distances: get_u64_arr(doc, "distances")?
            .into_iter()
            .map(|d| d as usize)
            .collect(),
        workers: get_usize(doc, "workers")?,
        batch_size: get_usize(doc, "batch_size")?,
        rounds: get_u64(doc, "rounds")?,
        cadence_ns: get_f64(doc, "cadence_ns")?,
        inter_arrival_ns: get_f64(doc, "inter_arrival_ns")?,
        elapsed_s: get_f64(doc, "elapsed_s")?,
        counters: counters_from_json(field(doc, "counters")?)?,
        depth_timeline: get_arr(doc, "depth_timeline")?
            .iter()
            .map(depth_sample_from_json)
            .collect::<Result<_, _>>()?,
        max_queue_depth: get_u64(doc, "max_queue_depth")?,
        final_backlog: get_u64(doc, "final_backlog")?,
        throughput_per_s: get_f64(doc, "throughput_per_s")?,
        decode_latency: profile_from_json(field(doc, "decode_latency")?)?,
        total_latency: profile_from_json(field(doc, "total_latency")?)?,
        measured: measured_from_json(field(doc, "measured")?)?,
        comparison: comparison_from_json(field(doc, "comparison")?)?,
        lattices: get_arr(doc, "lattices")?
            .iter()
            .map(lattice_from_json)
            .collect::<Result<_, _>>()?,
        worker_counters: get_arr(doc, "worker_counters")?
            .iter()
            .map(worker_counters_from_json)
            .collect::<Result<_, _>>()?,
        stages: get_arr(doc, "stages")?
            .iter()
            .map(stage_from_json)
            .collect::<Result<_, _>>()?,
        snapshots: get_arr(doc, "snapshots")?
            .iter()
            .map(snapshot_from_json)
            .collect::<Result<_, _>>()?,
        journal: journal_from_json(field(doc, "journal")?)?,
        fault: fault_from_json(field(doc, "fault")?)?,
    })
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
        let doc = obj(vec![
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("not_a_report")),
        ]);
        assert!(matches!(
            report_from_json(&doc),
            Err(ExportError::Schema(_))
        ));
    }
}
