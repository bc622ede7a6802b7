//! Periodic mid-run samples of the pipeline's live state.
//!
//! A dedicated sampler thread (`run_sampler`, spawned by the engine when
//! [`ObsConfig::snapshot_cadence_us`](crate::config::ObsConfig) is
//! non-zero) wakes on a fixed cadence and copies the cheap-to-read live
//! state — counters, queue depth, per-lattice backlog, aggregate latency
//! quantiles, journal totals — into a [`MetricsSnapshot`].  The snapshot
//! log is bounded; liveness becomes observable *during* the run instead of
//! being reconstructed from end-of-run totals.

use crate::obs::{EventKind, EventSeverity, ObsPlane};
use crate::stage::Channel;
use crate::telemetry::{CounterSnapshot, RuntimeCounters};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// One sample of the pipeline's live state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sample sequence number, starting at 0.
    pub seq: u64,
    /// Nanoseconds since the pipeline epoch.
    pub elapsed_ns: u64,
    /// The aggregate runtime counters at sampling time.
    pub counters: CounterSnapshot,
    /// Records resident across all channels at sampling time.
    pub queue_depth: u64,
    /// Aggregate backlog (generated − decoded − dropped).
    pub backlog: u64,
    /// Backlog broken down per lattice, in lattice-id order.
    pub per_lattice_backlog: Vec<u64>,
    /// Live decode-latency median, nanoseconds (0 until the first decode).
    pub decode_p50_ns: f64,
    /// Live decode-latency 99th percentile, nanoseconds.
    pub decode_p99_ns: f64,
    /// Live decode-latency 99.9th percentile, nanoseconds.
    pub decode_p999_ns: f64,
    /// Journal events published so far.
    pub events_published: u64,
    /// Journal events rotated out so far.
    pub events_overwritten: u64,
}

/// The snapshot sampler: every `snapshot_cadence_us` it reads the live
/// counters, queue depths, latency quantiles and journal totals into one
/// [`MetricsSnapshot`], publishes a [`EventKind::VerdictFlip`] event when
/// the backlog trend changes direction (growing = the machine is falling
/// behind, [`EventSeverity::Critical`]; shrinking again = recovery,
/// [`EventSeverity::Info`]), and pushes the sample into the plane's bounded
/// log.  A final sample is always taken after `done` is set (the workers
/// have exited), so even a run shorter than one cadence gets exactly one
/// snapshot of its end state.
pub(crate) fn run_sampler(
    obs: &ObsPlane,
    counters: &RuntimeCounters,
    channels: &[Channel],
    done: &AtomicBool,
    epoch: Instant,
) {
    let cadence = Duration::from_micros(obs.config().snapshot_cadence_us);
    let mut seq = 0u64;
    let mut last_backlog = 0u64;
    let mut falling_behind = false;
    loop {
        let finished = done.load(Ordering::Acquire);
        let elapsed_ns = epoch.elapsed().as_nanos() as u64;
        let per_lattice_backlog = counters.per_lattice_backlog();
        let backlog: u64 = per_lattice_backlog.iter().sum();
        if !finished {
            let now_falling = backlog > last_backlog;
            if now_falling != falling_behind {
                let severity = if now_falling {
                    EventSeverity::Critical
                } else {
                    EventSeverity::Info
                };
                obs.journal().publish(
                    EventKind::VerdictFlip,
                    severity,
                    None,
                    None,
                    elapsed_ns,
                    backlog,
                );
                falling_behind = now_falling;
            }
            last_backlog = backlog;
        }
        let decode = obs.decode_hist().snapshot();
        obs.push_snapshot(MetricsSnapshot {
            seq,
            elapsed_ns,
            counters: counters.snapshot(),
            queue_depth: channels.iter().map(|c| c.len() as u64).sum(),
            backlog,
            per_lattice_backlog,
            decode_p50_ns: decode.quantile_ns(0.50),
            decode_p99_ns: decode.quantile_ns(0.99),
            decode_p999_ns: decode.quantile_ns(0.999),
            events_published: obs.journal().published(),
            events_overwritten: obs.journal().overwritten(),
        });
        seq += 1;
        if finished {
            return;
        }
        thread::park_timeout(cadence);
    }
}
