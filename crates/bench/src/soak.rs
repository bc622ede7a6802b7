//! The soak harness: one sustained multi-lattice streaming run at machine
//! scale, distilled into the repo-root `BENCH_soak.json` perf artifact.
//!
//! Where the criterion benches measure short, repeated runs, the soak drives
//! a *single* long run — the full profile streams at least a million rounds
//! over at least a hundred mixed-distance lattices — and checks the
//! properties that only show up at that scale: telemetry memory stays
//! bounded (streaming residual classification, capped timelines, no
//! correction history), the books balance (every generated round is decoded
//! or shed, never lost), and the tail latencies and shed rates hold steady.
//!
//! Two profiles, selected by environment:
//!
//! * **full** (the default): [`SoakProfile::FULL_ROUNDS`] rounds over
//!   [`SoakProfile::FULL_LATTICES`] lattices, distances cycling 3/5/7,
//!   a Drop-policy lane every fourth lattice, and lattice 0 served by a
//!   deliberately throttled decoder behind a tiny queue budget so sustained
//!   shedding (and its residual cost) is part of what the soak measures.
//! * **smoke** (`NISQ_SOAK_SMOKE=1`): [`SoakProfile::SMOKE_ROUNDS`] rounds
//!   over [`SoakProfile::SMOKE_LATTICES`] lattices, every lane under
//!   blocking backpressure (an un-paced producer outruns the workers, so
//!   any Drop lane would shed the moment the ring filled), so every verdict
//!   must come back `BOUNDED` — the CI-sized regression gate.
//!
//! `NISQ_SOAK_ROUNDS`, `NISQ_SOAK_LATTICES` and `NISQ_SOAK_WORKERS`
//! override either profile's scale.  [`run`] asserts the invariants;
//! [`emit`] writes the artifact (one `soak/aggregate` entry with the peak
//! RSS filled in, plus one conservative entry per QoS class), which
//! `examples/validate_bench.rs` checks in CI like every other `BENCH_*`
//! artifact.

use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_qec::logical::ResidualTally;
use nisqplus_runtime::report::write_bench_document;
use nisqplus_runtime::{
    BenchEntry, LatticeReport, LatticeSpec, MachineConfig, PushPolicy, RuntimeOutcome,
    RuntimeReport, StreamingEngine, ThrottledDecoder,
};
use std::sync::Arc;

/// The scale and shape of one soak run, resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakProfile {
    /// Total rounds streamed, split evenly across the lattices.
    pub rounds_total: u64,
    /// Number of lattices (logical qubits) served.
    pub num_lattices: usize,
    /// Decoder worker threads.
    pub workers: usize,
    /// Smoke mode: CI scale, no throttled lane, all verdicts must be
    /// `BOUNDED`.
    pub smoke: bool,
}

/// Which QoS class a soak lattice belongs to — the unit the per-class
/// artifact entries aggregate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakClass {
    /// Blocking backpressure: no round may be lost.
    Block,
    /// Load shedding under a queue budget: rounds may be dropped.
    Drop,
    /// The deliberately slow lane (full profile only): a throttled decoder
    /// behind a tiny budget, shedding sustainedly by design.
    Throttled,
}

impl SoakClass {
    /// The class's artifact-id suffix.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SoakClass::Block => "block",
            SoakClass::Drop => "drop",
            SoakClass::Throttled => "throttled",
        }
    }
}

impl SoakProfile {
    /// Full-profile default rounds (the ISSUE's soak floor).
    pub const FULL_ROUNDS: u64 = 1_000_000;
    /// Full-profile default lattice count.
    pub const FULL_LATTICES: usize = 100;
    /// Smoke-profile default rounds (CI scale).
    pub const SMOKE_ROUNDS: u64 = 50_000;
    /// Smoke-profile default lattice count.
    pub const SMOKE_LATTICES: usize = 16;
    /// Seed base: lattice `i` streams from `SEED_BASE + i`.
    pub const SEED_BASE: u64 = 0x50AC;
    /// Enforced decode floor of the throttled lane, nanoseconds.
    pub const THROTTLE_FLOOR_NS: u64 = 2_000;

    /// Resolves the profile from the environment: `NISQ_SOAK_SMOKE` picks
    /// the smoke defaults, `NISQ_SOAK_ROUNDS` / `NISQ_SOAK_LATTICES` /
    /// `NISQ_SOAK_WORKERS` override scale either way.
    #[must_use]
    pub fn from_env() -> Self {
        let smoke = std::env::var_os("NISQ_SOAK_SMOKE").is_some();
        let rounds_total = env_u64(
            "NISQ_SOAK_ROUNDS",
            if smoke {
                Self::SMOKE_ROUNDS
            } else {
                Self::FULL_ROUNDS
            },
        );
        let num_lattices = env_u64(
            "NISQ_SOAK_LATTICES",
            if smoke {
                Self::SMOKE_LATTICES as u64
            } else {
                Self::FULL_LATTICES as u64
            },
        )
        .max(1) as usize;
        let default_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 4);
        let workers = env_u64("NISQ_SOAK_WORKERS", default_workers as u64).max(1) as usize;
        SoakProfile {
            rounds_total: rounds_total.max(num_lattices as u64),
            num_lattices,
            workers,
            smoke,
        }
    }

    /// Rounds each lattice streams (the total split evenly).
    #[must_use]
    pub fn rounds_per_lattice(&self) -> u64 {
        (self.rounds_total / self.num_lattices as u64).max(1)
    }

    /// The QoS class of lattice `i`: in the full profile lattice 0 is the
    /// throttled lane and every fourth lattice a Drop lane, the rest running
    /// under blocking backpressure.  The smoke profile is all-Block: its
    /// gate demands every verdict come back `BOUNDED`, and a Drop lane
    /// under an un-paced producer sheds as soon as the ring fills.
    #[must_use]
    pub fn class_of(&self, i: usize) -> SoakClass {
        if self.smoke {
            SoakClass::Block
        } else if i == 0 {
            SoakClass::Throttled
        } else if i % 4 == 3 {
            SoakClass::Drop
        } else {
            SoakClass::Block
        }
    }

    /// The machine this profile describes: mixed distances (cycling 3/5/7),
    /// independent seeded streams, un-paced (the soak measures sustained
    /// capacity, not a cadence), streaming residual classification on, every
    /// O(rounds) structure bounded (`track_shed_rounds` off, no correction
    /// history, capped timelines and journal).
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let distances: Vec<usize> = (0..self.num_lattices).map(|i| [3, 5, 7][i % 3]).collect();
        let mut config = MachineConfig::new(&distances, Self::SEED_BASE);
        let rounds = self.rounds_per_lattice();
        let drop_budget = 256;
        let throttled = ThrottledDecoder::factory(
            Arc::new(|| Box::new(UnionFindDecoder::new()) as DynDecoder),
            Self::THROTTLE_FLOOR_NS,
        );
        for (i, spec) in config.lattices.iter_mut().enumerate() {
            let mut s = LatticeSpec::new(spec.distance)
                .with_seed(Self::SEED_BASE + i as u64)
                .with_rounds(rounds)
                .with_cadence_cycles(0);
            s = match self.class_of(i) {
                SoakClass::Block => s,
                SoakClass::Drop => s
                    .with_push_policy(PushPolicy::Drop)
                    .with_queue_budget(drop_budget),
                SoakClass::Throttled => s
                    .with_push_policy(PushPolicy::Drop)
                    .with_queue_budget(32)
                    .with_shed_slo(1.0)
                    .with_shared_decoder(throttled.clone()),
            };
            *spec = s;
        }
        config.workers = self.workers;
        // Smoke keeps the ring shallow enough that even a *full* ring at the
        // instant generation stops sits under the GROWING threshold
        // (`final_backlog * 20 < rounds_per_lattice`) — the all-BOUNDED gate
        // must hold however slowly the workers drain (debug builds, loaded
        // CI hosts).  The full profile gives the mixed-QoS lanes headroom.
        config.queue_capacity = if self.smoke {
            usize::try_from(rounds / 64)
                .unwrap_or(usize::MAX)
                .clamp(8, 512)
        } else {
            4096
        };
        config.push_policy = PushPolicy::Block;
        // The soak-scale memory posture: classify residuals in stream, keep
        // no correction history, no exact shed-round lists.
        config.analyze_residuals = true;
        config.record_corrections = false;
        config.correction_cap = Some(4096);
        config.track_shed_rounds = false;
        // No background sampler thread: on an oversubscribed host it
        // timeshares with the spinning pipeline (counters, histograms and
        // the journal still run, all bounded).
        config.obs.snapshot_cadence_us = 0;
        config
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `0` on platforms without procfs.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Runs the soak and asserts its scale-invariants before returning the
/// outcome:
///
/// * **conservation**, per lattice: every generated round was decoded or
///   shed (`generated == decoded + dropped`), and the streaming residual
///   tallies classified exactly the generated rounds;
/// * **live-counter agreement**: the per-lattice live failure counters the
///   workers and producer maintained equal the final report's tally;
/// * in **smoke** mode: every per-lattice verdict, and the aggregate, is
///   `BOUNDED`.
///
/// # Panics
///
/// Panics when any invariant fails — the soak is a regression gate, not a
/// best-effort survey.
#[must_use]
pub fn run(profile: &SoakProfile) -> RuntimeOutcome {
    let config = profile.machine_config();
    let engine = StreamingEngine::with_machine(config).expect("valid soak config");
    let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
    check_invariants(profile, &outcome.report);
    outcome
}

fn check_invariants(profile: &SoakProfile, report: &RuntimeReport) {
    let rounds = profile.rounds_per_lattice();
    for lattice in &report.lattices {
        let c = &lattice.counters;
        assert_eq!(
            c.generated, rounds,
            "lattice {} generated {} of its {} configured rounds",
            lattice.lattice_id, c.generated, rounds
        );
        assert_eq!(
            c.generated,
            c.decoded + c.dropped,
            "lattice {} leaked rounds: generated {} != decoded {} + dropped {}",
            lattice.lattice_id,
            c.generated,
            c.decoded,
            c.dropped
        );
        let residual = lattice
            .residual
            .as_ref()
            .expect("soak runs classify residuals");
        assert_eq!(
            residual.decoded.rounds, c.decoded,
            "lattice {} decoded-tally round count drifted from its counter",
            lattice.lattice_id
        );
        assert_eq!(
            residual.shed.rounds, c.dropped,
            "lattice {} shed-tally round count drifted from its counter",
            lattice.lattice_id
        );
        assert_eq!(
            c.live_failures(),
            residual.total().failures(),
            "lattice {} live failure counters drifted from the final tally",
            lattice.lattice_id
        );
        if profile.smoke {
            assert_eq!(
                lattice.verdict(),
                "BOUNDED",
                "smoke soak demands BOUNDED everywhere; lattice {} came back {}",
                lattice.lattice_id,
                lattice.verdict()
            );
        }
    }
    if profile.smoke {
        assert_eq!(
            report.verdict(),
            "BOUNDED",
            "smoke soak demands a BOUNDED aggregate verdict"
        );
    }
}

/// Distills one QoS class's member lattices into a single conservative
/// [`BenchEntry`]: counts and tallies are summed, latency quantiles take the
/// *worst* member (a class is as slow as its slowest lattice), and the
/// verdict is the worst across members (`GROWING` > `SHEDDING` >
/// `BOUNDED`).
#[must_use]
pub fn class_entry(
    id: impl Into<String>,
    report: &RuntimeReport,
    members: &[&LatticeReport],
) -> BenchEntry {
    let mut generated = 0u64;
    let mut decoded = 0u64;
    let mut dropped = 0u64;
    let mut rounds = 0u64;
    let mut final_backlog = 0u64;
    let mut tally = ResidualTally::default();
    let mut decode_p50: f64 = 0.0;
    let mut decode_p99: f64 = 0.0;
    let mut decode_p999: f64 = 0.0;
    let mut total_p99: f64 = 0.0;
    let mut total_p999: f64 = 0.0;
    let mut decode_mean_weighted = 0.0f64;
    let mut growing = false;
    let mut shedding = false;
    for lattice in members {
        let c = &lattice.counters;
        generated += c.generated;
        decoded += c.decoded;
        dropped += c.dropped;
        rounds += lattice.rounds;
        final_backlog += lattice.final_backlog;
        if let Some(residual) = &lattice.residual {
            tally.absorb(&residual.total());
        }
        decode_p50 = decode_p50.max(lattice.decode_latency.quantiles.p50);
        decode_p99 = decode_p99.max(lattice.decode_latency.quantiles.p99);
        decode_p999 = decode_p999.max(lattice.decode_latency.quantiles.p999);
        total_p99 = total_p99.max(lattice.total_latency.quantiles.p99);
        total_p999 = total_p999.max(lattice.total_latency.quantiles.p999);
        decode_mean_weighted += lattice.decode_latency.summary.mean * c.decoded as f64;
        match lattice.verdict() {
            "GROWING" => growing = true,
            "SHEDDING" => shedding = true,
            _ => {}
        }
    }
    let verdict = if growing {
        "GROWING"
    } else if shedding {
        "SHEDDING"
    } else {
        "BOUNDED"
    };
    BenchEntry {
        id: id.into(),
        lattices: members.len(),
        workers: report.workers,
        batch_size: report.batch_size,
        rounds,
        throughput_per_s: if report.elapsed_s > 0.0 {
            decoded as f64 / report.elapsed_s
        } else {
            0.0
        },
        decode_mean_ns: if decoded > 0 {
            decode_mean_weighted / decoded as f64
        } else {
            0.0
        },
        decode_p50_ns: decode_p50,
        decode_p99_ns: decode_p99,
        decode_p999_ns: decode_p999,
        total_p99_ns: total_p99,
        total_p999_ns: total_p999,
        shed: dropped,
        shed_rate: if generated > 0 {
            dropped as f64 / generated as f64
        } else {
            0.0
        },
        residual_failure_rate: tally.failure_rate(),
        peak_rss_bytes: None,
        final_backlog,
        verdict: verdict.to_string(),
    }
}

/// Writes `BENCH_soak.json` at the repository root: the `soak/aggregate`
/// entry (with this process's measured peak RSS) plus one entry per QoS
/// class present in the profile.  Returns the entries written.
pub fn emit(profile: &SoakProfile, report: &RuntimeReport) -> Vec<BenchEntry> {
    let mut aggregate = BenchEntry::from_report("soak/aggregate", report);
    // `0` means "no procfs here": not measured, so not written.
    aggregate.peak_rss_bytes = Some(peak_rss_bytes()).filter(|&bytes| bytes > 0);
    let mut entries = vec![aggregate];
    for class in [SoakClass::Block, SoakClass::Drop, SoakClass::Throttled] {
        let members: Vec<&LatticeReport> = report
            .lattices
            .iter()
            .filter(|l| profile.class_of(l.lattice_id) == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        entries.push(class_entry(
            format!("soak/class/{}", class.label()),
            report,
            &members,
        ));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soak.json");
    write_bench_document(path, "soak", &entries).expect("write BENCH_soak.json");
    eprintln!("bench-artifact: wrote {path} ({} entries)", entries.len());
    entries
}

/// The whole soak in one call — resolve the profile, run, assert, emit —
/// returning `(profile, outcome, entries)` for callers that print a summary.
#[must_use]
pub fn run_and_emit() -> (SoakProfile, RuntimeOutcome, Vec<BenchEntry>) {
    let profile = SoakProfile::from_env();
    eprintln!(
        "soak: {} rounds over {} lattices ({} workers, {} profile)",
        profile.rounds_per_lattice() * profile.num_lattices as u64,
        profile.num_lattices,
        profile.workers,
        if profile.smoke { "smoke" } else { "full" },
    );
    let outcome = run(&profile);
    let entries = emit(&profile, &outcome.report);
    (profile, outcome, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_profile_mixes_classes_and_distances() {
        let profile = SoakProfile {
            rounds_total: 1000,
            num_lattices: 12,
            workers: 2,
            smoke: false,
        };
        let config = profile.machine_config();
        assert_eq!(config.lattices.len(), 12);
        assert_eq!(profile.class_of(0), SoakClass::Throttled);
        assert_eq!(profile.class_of(3), SoakClass::Drop);
        assert_eq!(profile.class_of(1), SoakClass::Block);
        let distances: std::collections::BTreeSet<usize> =
            config.lattices.iter().map(|s| s.distance).collect();
        assert_eq!(distances.into_iter().collect::<Vec<_>>(), vec![3, 5, 7]);
        assert!(config.streams_residuals());
        assert!(!config.track_shed_rounds);
        assert!(!config.record_corrections);
        // The throttled lane sheds by design: Drop policy, tiny budget, its
        // own (slow) decoder.
        let lane = &config.lattices[0];
        assert_eq!(lane.push_policy, Some(PushPolicy::Drop));
        assert_eq!(lane.queue_budget, Some(32));
        assert!(lane.decoder.is_some());
    }

    #[test]
    fn smoke_profile_has_no_throttled_lane() {
        let profile = SoakProfile {
            rounds_total: 1000,
            num_lattices: 8,
            workers: 2,
            smoke: true,
        };
        let config = profile.machine_config();
        assert_eq!(profile.class_of(0), SoakClass::Block);
        assert!(config.lattices.iter().all(|s| s.decoder.is_none()));
    }

    #[test]
    fn tiny_smoke_soak_balances_and_stays_bounded() {
        let profile = SoakProfile {
            rounds_total: 2_000,
            num_lattices: 4,
            workers: 2,
            smoke: true,
        };
        // `run` itself asserts conservation, tally agreement and the
        // all-BOUNDED smoke gate.
        let outcome = run(&profile);
        assert_eq!(outcome.report.counters.generated, 2_000);
        let aggregate = BenchEntry::from_report("soak/aggregate", &outcome.report);
        let block = class_entry(
            "soak/class/block",
            &outcome.report,
            &outcome.report.lattices.iter().collect::<Vec<_>>(),
        );
        assert_eq!(aggregate.rounds, 2_000);
        assert_eq!(block.rounds, 2_000);
        assert_eq!(block.verdict, "BOUNDED");
    }
}
