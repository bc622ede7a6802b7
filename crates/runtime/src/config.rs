//! Run configuration: the single-lattice front door ([`RuntimeConfig`]) and
//! the multi-lattice machine description ([`MachineConfig`]) the engine
//! actually executes, plus the full-queue [`PushPolicy`].
//!
//! These types describe *what* to run; the stages a run is wired from —
//! source, gate, channels, decode workers, sinks — live in [`crate::stage`],
//! and the wiring itself in [`crate::engine`].

use crate::fault::FaultPlan;
use crate::lattice_set::LatticeSpec;
use crate::scenario::ScenarioScript;
use crate::source::NoiseSpec;
use nisqplus_sim::timing::CycleTimeConverter;
use serde::{Deserialize, Serialize};

/// What the producer does when the ring buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PushPolicy {
    /// Spin (counting [`backpressure_spins`](crate::telemetry::CounterSnapshot::backpressure_spins))
    /// until a worker frees a slot.  No round is ever lost, so the backlog
    /// measured by the run is exact — this is the policy the backlog
    /// experiments use, with a ring deep enough to hold the whole backlog.
    Block,
    /// Drop the packet (counting
    /// [`dropped`](crate::telemetry::CounterSnapshot::dropped)) and move on,
    /// as a load-shedding hardware front-end would.
    Drop,
}

/// Configuration of the live observability plane
/// ([`crate::obs::ObsPlane`]): snapshot cadence and journal capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Sampler cadence in microseconds: how often the snapshot thread wakes
    /// and records a [`MetricsSnapshot`](crate::obs::MetricsSnapshot).  `0`
    /// disables the sampler thread entirely (the report's `snapshots` stay
    /// empty; counters, histograms and the journal still run).
    pub snapshot_cadence_us: u64,
    /// Resident capacity of the event journal ring (older events are
    /// overwritten and counted once it fills).
    pub journal_capacity: usize,
}

impl Default for ObsConfig {
    /// 500 µs snapshot cadence, a 1024-event journal.
    fn default() -> Self {
        ObsConfig {
            snapshot_cadence_us: 500,
            journal_capacity: 1024,
        }
    }
}

/// Configuration of a single-lattice streaming run.
///
/// This is the ergonomic front door for the common one-patch experiment; it
/// converts into a one-entry [`MachineConfig`], which is what the engine
/// actually runs.  Use [`MachineConfig`] directly to serve several logical
/// qubits at once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Surface-code distance of the streamed lattice.
    pub distance: usize,
    /// The stochastic error channel driving the stream.
    pub noise: NoiseSpec,
    /// Seed of the syndrome stream (same seed, same stream — see
    /// [`crate::source::SyndromeSource`]).
    pub seed: u64,
    /// Number of syndrome-generation rounds to stream.
    pub rounds: u64,
    /// Number of decoder worker threads.
    pub workers: usize,
    /// Syndrome-generation period in decoder clock cycles; mapped to
    /// nanoseconds through [`RuntimeConfig::cycle_time`].  `0` disables
    /// pacing: the producer generates as fast as the CPU allows (useful for
    /// deterministic equivalence tests and throughput benchmarks).
    pub cadence_cycles: usize,
    /// Converts [`RuntimeConfig::cadence_cycles`] into wall-clock
    /// nanoseconds (`nisqplus-sim`'s cycle→ns mapping).
    pub cycle_time: CycleTimeConverter,
    /// Total ring-buffer capacity in packets, split evenly across the
    /// per-worker rings (each ring holds `ceil(queue_capacity / workers)`
    /// packets).  For backlog experiments with [`PushPolicy::Block`], size
    /// this above the expected final backlog so the producer never stalls.
    pub queue_capacity: usize,
    /// Maximum number of consecutive rounds a worker pops from a ring and
    /// decodes as one batch, amortizing per-packet overhead (ring pop/steal
    /// scans, shared counter updates) across the window.  Latency telemetry
    /// stays per-packet (timestamps are chained inside the batch).  `1`
    /// reproduces the original packet-at-a-time behaviour; corrections are
    /// byte-identical for every value because rounds remain independent
    /// decoding problems.
    pub batch_size: usize,
    /// Full-queue policy.
    pub push_policy: PushPolicy,
    /// Hard upper bound on the number of
    /// [`DepthSample`](crate::telemetry::DepthSample)s kept on the timeline.
    /// The producer samples on a stride aiming at this many points; if a
    /// run outlives its stride estimate the timeline is compacted in place
    /// (keeping the peak-backlog and newest samples), so memory stays
    /// bounded at soak scale no matter how many rounds stream.
    pub max_depth_samples: usize,
    /// When `true`, every worker keeps the per-round corrections it
    /// committed, and
    /// [`RuntimeOutcome::corrections`](crate::engine::RuntimeOutcome::corrections)
    /// returns them sorted by `(lattice, round)` — the hook the
    /// stream-versus-batch equivalence tests use.
    pub record_corrections: bool,
    /// When `true`, every round's residual is classified *in stream*
    /// (packets carry the round's seeded error,
    /// [`crate::packet::PacketCodec::with_error_payload`]; workers classify
    /// as they commit, the producer classifies shed rounds against the
    /// identity as it sheds them), filling
    /// [`LatticeReport::residual`](crate::telemetry::LatticeReport::residual)
    /// — the measured logical cost of shedding versus backpressure — in
    /// O(lattices) memory no matter how many rounds stream.
    pub analyze_residuals: bool,
    /// When set, each worker keeps at most this many recorded corrections as
    /// a ring of the *most recent* rounds instead of the full history —
    /// the soak-scale memory bound for
    /// [`RuntimeConfig::record_corrections`].  `None` keeps every correction.
    pub correction_cap: Option<usize>,
    /// No effect; kept until `benchmark/` (which assigns it) can be edited.
    /// Which rounds were shed is in the journal: `Shed` / `WatchdogTrip`
    /// events carry the round as their `value`.
    pub track_shed_rounds: bool,
}

impl RuntimeConfig {
    /// The paper's 400 ns syndrome-generation period expressed in decoder
    /// clock cycles at the synthesized module latency (162.72 ps, Table III):
    /// `2458 * 162.72 ps ≈ 400 ns`.
    pub const PAPER_CADENCE_CYCLES: usize = 2458;

    /// Default batched-window size: small enough to keep per-round latency
    /// telemetry meaningful, large enough to amortize per-packet overhead.
    pub const DEFAULT_BATCH_SIZE: usize = 4;

    /// A paper-shaped default: pure dephasing at 3%, one round per 400 ns,
    /// two workers, a 4096-packet ring with blocking backpressure, 4-round
    /// decode windows.
    #[must_use]
    pub fn new(distance: usize) -> Self {
        RuntimeConfig {
            distance,
            noise: NoiseSpec::PureDephasing { p: 0.03 },
            seed: 2020,
            rounds: 10_000,
            workers: 2,
            cadence_cycles: Self::PAPER_CADENCE_CYCLES,
            cycle_time: CycleTimeConverter::paper_reference(),
            queue_capacity: 4096,
            batch_size: Self::DEFAULT_BATCH_SIZE,
            push_policy: PushPolicy::Block,
            max_depth_samples: 4096,
            record_corrections: false,
            analyze_residuals: false,
            correction_cap: None,
            track_shed_rounds: true,
        }
    }

    /// The syndrome-generation period in nanoseconds (`0.0` when pacing is
    /// disabled).
    #[must_use]
    pub fn cadence_ns(&self) -> f64 {
        self.cycle_time.cycles_to_ns(self.cadence_cycles)
    }
}

impl From<RuntimeConfig> for MachineConfig {
    /// A single-lattice run is a one-entry machine.
    fn from(config: RuntimeConfig) -> Self {
        MachineConfig {
            lattices: vec![LatticeSpec {
                distance: config.distance,
                noise: config.noise,
                seed: config.seed,
                rounds: config.rounds,
                cadence_cycles: config.cadence_cycles,
                burst: None,
                push_policy: None,
                queue_budget: None,
                shed_slo: None,
                decoder: None,
            }],
            workers: config.workers,
            cycle_time: config.cycle_time,
            queue_capacity: config.queue_capacity,
            batch_size: config.batch_size,
            push_policy: config.push_policy,
            max_depth_samples: config.max_depth_samples,
            record_corrections: config.record_corrections,
            analyze_residuals: config.analyze_residuals,
            correction_cap: config.correction_cap,
            track_shed_rounds: config.track_shed_rounds,
            obs: ObsConfig::default(),
            fault: FaultPlan::default(),
            scenario: ScenarioScript::default(),
        }
    }
}

/// Configuration of a multi-lattice streaming run: one engine serving a full
/// NISQ+ machine of N logical qubits.
///
/// Per-stream knobs (distance, noise, seed, rounds, cadence) live in each
/// [`LatticeSpec`]; the fields here configure the shared decoder fabric.
/// The field semantics match [`RuntimeConfig`]'s identically-named fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// The lattices to serve, in lattice-id order (id = index).
    pub lattices: Vec<LatticeSpec>,
    /// Number of decoder worker threads shared by all lattices.
    pub workers: usize,
    /// Converts every lattice's `cadence_cycles` into wall-clock nanoseconds.
    pub cycle_time: CycleTimeConverter,
    /// Total ring-buffer capacity in packets, split evenly across the
    /// per-worker rings.
    pub queue_capacity: usize,
    /// Maximum rounds a worker decodes as one batch (see
    /// [`RuntimeConfig::batch_size`]).
    pub batch_size: usize,
    /// Full-queue policy.
    pub push_policy: PushPolicy,
    /// Upper bound on the number of
    /// [`DepthSample`](crate::telemetry::DepthSample)s kept on the timeline.
    pub max_depth_samples: usize,
    /// When `true`, per-round corrections are kept, sorted by
    /// `(lattice, round)`.
    pub record_corrections: bool,
    /// When `true`, every round's residual is classified (shed rounds count
    /// as identity corrections), filling
    /// [`LatticeReport::residual`](crate::telemetry::LatticeReport::residual).
    pub analyze_residuals: bool,
    /// Ring bound on recorded corrections per worker (see
    /// [`RuntimeConfig::correction_cap`]).
    pub correction_cap: Option<usize>,
    /// No effect (see [`RuntimeConfig::track_shed_rounds`]).
    pub track_shed_rounds: bool,
    /// The live observability plane: snapshot cadence, journal capacity.
    pub obs: ObsConfig,
    /// The deterministic fault schedule for this run — worker crashes,
    /// packet corruption, channel stalls (see
    /// [`crate::fault`]).  Empty by default: a plan-free run pays nothing
    /// for the injection hooks.
    pub fault: FaultPlan,
    /// The scripted elastic reconfigurations for this run — lattices added,
    /// retired, or re-tuned at scripted machine-global rounds (see
    /// [`crate::scenario`]).  Empty by default: a script-free run is a
    /// static machine.
    pub scenario: ScenarioScript,
}

impl MachineConfig {
    /// A machine of `distances.len()` lattices with otherwise
    /// [`RuntimeConfig::new`]-shaped defaults; lattice `i` gets distance
    /// `distances[i]` and seed `base_seed + i` so the streams are
    /// independent.
    ///
    /// # Panics
    ///
    /// Panics if `distances` is empty.
    #[must_use]
    pub fn new(distances: &[usize], base_seed: u64) -> Self {
        assert!(
            !distances.is_empty(),
            "a machine needs at least one lattice"
        );
        let template = RuntimeConfig::new(distances[0]);
        MachineConfig {
            lattices: distances
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let mut spec = LatticeSpec::new(d);
                    spec.seed = base_seed + i as u64;
                    spec
                })
                .collect(),
            workers: template.workers,
            cycle_time: template.cycle_time,
            queue_capacity: template.queue_capacity,
            batch_size: template.batch_size,
            push_policy: template.push_policy,
            max_depth_samples: template.max_depth_samples,
            record_corrections: template.record_corrections,
            analyze_residuals: template.analyze_residuals,
            correction_cap: template.correction_cap,
            track_shed_rounds: template.track_shed_rounds,
            obs: ObsConfig::default(),
            fault: FaultPlan::default(),
            scenario: ScenarioScript::default(),
        }
    }

    /// `true` when this run classifies residuals in stream: packets carry
    /// errors, workers classify after decoding, the producer classifies shed
    /// rounds.
    #[must_use]
    pub fn streams_residuals(&self) -> bool {
        self.analyze_residuals
    }

    /// The push policy `spec` runs under: its own override, or this
    /// machine's [`MachineConfig::push_policy`] when it has none.
    #[must_use]
    pub fn policy_for(&self, spec: &LatticeSpec) -> PushPolicy {
        spec.push_policy.unwrap_or(self.push_policy)
    }

    /// The nominal *aggregate* inter-arrival time across the machine, in
    /// nanoseconds per round: `1 / Σ 1/cadence_i`.  Returns `0.0` if any
    /// lattice is unpaced (the aggregate arrival rate is then CPU-bound).
    #[must_use]
    pub fn aggregate_cadence_ns(&self) -> f64 {
        let mut rate_per_ns = 0.0f64;
        for spec in &self.lattices {
            let cadence = self.cycle_time.cycles_to_ns(spec.cadence_cycles);
            if cadence <= 0.0 {
                return 0.0;
            }
            rate_per_ns += 1.0 / cadence;
        }
        if rate_per_ns > 0.0 {
            1.0 / rate_per_ns
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> RuntimeConfig {
        let mut config = RuntimeConfig::new(3);
        config.rounds = 200;
        config.workers = 2;
        config.cadence_cycles = 0;
        config.queue_capacity = 64;
        config
    }

    #[test]
    fn paper_default_cadence_is_400ns() {
        let config = RuntimeConfig::new(5);
        assert!(
            (config.cadence_ns() - 400.0).abs() < 0.5,
            "{}",
            config.cadence_ns()
        );
    }

    #[test]
    fn unpaced_config_has_zero_cadence() {
        let config = fast_config();
        assert_eq!(config.cadence_ns(), 0.0);
    }

    #[test]
    fn aggregate_cadence_combines_arrival_rates() {
        let mut config = MachineConfig::new(&[3, 3], 0);
        for spec in &mut config.lattices {
            spec.cadence_cycles = RuntimeConfig::PAPER_CADENCE_CYCLES;
        }
        // Two 400 ns streams arrive every 200 ns in aggregate.
        assert!((config.aggregate_cadence_ns() - 200.0).abs() < 0.5);
        config.lattices[0].cadence_cycles = 0;
        assert_eq!(config.aggregate_cadence_ns(), 0.0);
    }

    #[test]
    fn single_lattice_config_is_a_one_entry_machine() {
        let config = fast_config();
        let machine: MachineConfig = config.into();
        assert_eq!(machine.lattices.len(), 1);
        assert_eq!(machine.lattices[0].distance, 3);
        assert_eq!(machine.lattices[0].rounds, 200);
        assert_eq!(machine.workers, config.workers);
        assert_eq!(machine.aggregate_cadence_ns(), config.cadence_ns());
    }
}
