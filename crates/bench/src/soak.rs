//! The soak harness: one sustained multi-lattice streaming run at machine
//! scale, asserting the invariants that only show up there.
//!
//! Where the `benchmark/` crate measures short, repeated runs, the soak
//! drives a *single* long run — the full profile streams a million rounds
//! over a hundred mixed-distance lattices — and checks the properties that
//! only show up at that scale: telemetry memory stays bounded (streaming
//! residual classification, capped timelines, no correction history) and
//! the books hold (`RuntimeOutcome::check_invariants`: every generated
//! round is decoded or shed, never lost).  It asserts; it publishes no
//! number.
//!
//! Two profiles, selected by environment:
//!
//! Both profiles run every lattice under blocking backpressure (the
//! machine-wide `Block` policy: an un-paced producer outruns the workers,
//! so a `Drop` machine would shed the moment the ring filled):
//!
//! * **full** (the default): [`SoakProfile::FULL_ROUNDS`] rounds over
//!   [`SoakProfile::FULL_LATTICES`] lattices, distances cycling 3/5/7.
//! * **smoke** (`NISQ_SOAK_SMOKE=1`): [`SoakProfile::SMOKE_ROUNDS`] rounds
//!   over [`SoakProfile::SMOKE_LATTICES`] lattices behind a shallow ring, so
//!   every verdict must come back `BOUNDED` — the CI-sized regression gate.
//!
//! [`SoakProfile`]'s fields are public for any other scale; [`run`] checks
//! the books.

use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_runtime::{LatticeSpec, MachineConfig, PushPolicy, RuntimeOutcome, StreamingEngine};

/// The scale and shape of one soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakProfile {
    /// Total rounds streamed, split evenly across the lattices.
    pub rounds_total: u64,
    /// Number of lattices (logical qubits) served.
    pub num_lattices: usize,
    /// Decoder worker threads.
    pub workers: usize,
    /// Smoke mode: CI scale, a shallow ring, all verdicts must be
    /// `BOUNDED`.
    pub smoke: bool,
}

impl SoakProfile {
    /// Full-profile rounds.
    pub const FULL_ROUNDS: u64 = 1_000_000;
    /// Full-profile lattice count.
    pub const FULL_LATTICES: usize = 100;
    /// Smoke-profile rounds (CI scale).
    pub const SMOKE_ROUNDS: u64 = 50_000;
    /// Smoke-profile lattice count.
    pub const SMOKE_LATTICES: usize = 16;
    /// Seed base: lattice `i` streams from `SEED_BASE + i`.
    pub const SEED_BASE: u64 = 0x50AC;

    /// Resolves the profile from the environment: the smoke scale when
    /// `NISQ_SOAK_SMOKE` is set, the full scale otherwise; two to four
    /// workers, by the host's parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let smoke = std::env::var_os("NISQ_SOAK_SMOKE").is_some();
        let (rounds_total, num_lattices) = if smoke {
            (Self::SMOKE_ROUNDS, Self::SMOKE_LATTICES)
        } else {
            (Self::FULL_ROUNDS, Self::FULL_LATTICES)
        };
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 4);
        SoakProfile {
            rounds_total,
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

    /// The machine this profile describes: mixed distances (cycling 3/5/7),
    /// independent seeded streams, un-paced (the soak measures sustained
    /// capacity, not a cadence), streaming residual classification on, every
    /// O(rounds) structure bounded (no correction history, capped timelines
    /// and journal).
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let distances: Vec<usize> = (0..self.num_lattices).map(|i| [3, 5, 7][i % 3]).collect();
        let mut config = MachineConfig::new(&distances, Self::SEED_BASE);
        let rounds = self.rounds_per_lattice();
        for (i, spec) in config.lattices.iter_mut().enumerate() {
            *spec = LatticeSpec::new(spec.distance)
                .with_seed(Self::SEED_BASE + i as u64)
                .with_rounds(rounds)
                .with_cadence_cycles(0);
        }
        config.workers = self.workers;
        // Smoke keeps the ring shallow enough that even a *full* ring at the
        // instant generation stops sits under the GROWING threshold
        // (`final_backlog * 20 < rounds_per_lattice`) — the all-BOUNDED gate
        // must hold however slowly the workers drain (debug builds, loaded
        // CI hosts).  The full profile gives the workers headroom.
        config.queue_capacity = if self.smoke {
            usize::try_from(rounds / 64)
                .unwrap_or(usize::MAX)
                .clamp(8, 512)
        } else {
            4096
        };
        config.push_policy = PushPolicy::Block;
        // The soak-scale memory posture: classify residuals in stream, keep
        // no correction history.
        config.analyze_residuals = true;
        config.record_corrections = false;
        config.correction_cap = Some(4096);
        config
    }
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

/// Runs the soak and checks it before returning the outcome: the run's
/// books hold ([`RuntimeOutcome::check_invariants`]), and in **smoke** mode
/// every per-lattice verdict, and the aggregate, is `BOUNDED`.
///
/// # Panics
///
/// Panics when any check fails — the soak is a regression gate, not a
/// best-effort survey.
#[must_use]
pub fn run(profile: &SoakProfile) -> RuntimeOutcome {
    let config = profile.machine_config();
    let engine = StreamingEngine::with_machine(config).expect("valid soak config");
    let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
    if let Err(broken) = outcome.check_invariants() {
        panic!("soak: {broken}");
    }
    let (report, behind) = (&outcome.report, outcome.report.lattices_falling_behind());
    assert!(
        !profile.smoke || (behind.is_empty() && report.queue_stayed_bounded()),
        "smoke soak demands BOUNDED everywhere: aggregate {}, lattices {behind:?} are not",
        report.verdict()
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_profile_mixes_distances() {
        let profile = SoakProfile {
            rounds_total: 1000,
            num_lattices: 12,
            workers: 2,
            smoke: false,
        };
        let config = profile.machine_config();
        assert_eq!(config.lattices.len(), 12);
        let distances: std::collections::BTreeSet<usize> =
            config.lattices.iter().map(|s| s.distance).collect();
        assert_eq!(distances.into_iter().collect::<Vec<_>>(), vec![3, 5, 7]);
        assert!(config.streams_residuals());
        assert!(!config.record_corrections);
        assert_eq!(config.push_policy, PushPolicy::Block);
        assert_eq!(config.queue_capacity, 4096);
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
        assert_eq!(config.push_policy, PushPolicy::Block);
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
        // `run` itself checks the books and the all-BOUNDED smoke gate.
        let outcome = run(&profile);
        assert_eq!(outcome.report.counters.generated, 2_000);
    }
}
