//! The streaming engine: the run orchestration that turns seeded syndrome
//! streams into a [`RuntimeReport`].
//!
//! The engine itself is thin by design.  All of the moving parts — paced
//! generation, QoS admission, spread placement, bounded channels,
//! own-then-steal batch filling, the prepared-decoder hot path, frame and
//! depth sinks — live as stages in [`crate::stage`], wired together by a
//! [`PipelineGraph`]:
//!
//! ```text
//! source ──► gate ──► channel[w] ──► steal ──► decode ──► frame
//!  (paced)  (QoS)   (bounded rings)  (per worker, N threads)
//! ```
//!
//! [`StreamingEngine::run`] builds the graph — one bounded channel per
//! worker, spread placement, own-then-steal consumption — runs it to
//! completion, and folds the [`PipelineRun`] into the final
//! [`RuntimeOutcome`]: per-lattice reports, the depth timeline with its
//! per-lattice backlog breakdown, merged frames, the measured-versus-model
//! backlog comparison
//! ([`BacklogModel`](nisqplus_system::backlog::BacklogModel)), one
//! [`StageReport`](crate::stage::StageReport) per pipeline stage, and —
//! when [`MachineConfig::analyze_residuals`] is set — the measured logical
//! cost of shedding, classified in stream (workers tally decoded rounds as
//! they commit, the producer tallies shed rounds as it sheds).
//! [`StreamingEngine::run_with`] attaches [`PipelineOptions`] to the same
//! graph: an observer, the watchdog window, a trace to replay or record.
//!
//! Shed rounds stay accounted for end to end: they are fed into the
//! per-lattice frame path as identity corrections, carried in
//! [`MeasuredBacklog::shed`], and priced in measured logical failures by
//! the residual analysis.

use crate::frame::ShardedPauliFrame;
use crate::lattice_set::LatticeSet;
use crate::obs::HistogramSnapshot;
use crate::scenario::SyndromeTrace;
use crate::source::InterleavedSource;
use crate::stage::{PipelineGraph, PipelineOptions, PipelineRun};
use crate::telemetry::{
    LatencyProfile, LatticeReport, ResidualReport, RuntimeCounters, RuntimeReport, WorkerCounters,
};
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::QecError;
use nisqplus_system::backlog::{BacklogComparison, MeasuredBacklog};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use crate::config::{MachineConfig, PushPolicy, RuntimeConfig};

/// One round's committed correction, kept when
/// [`MachineConfig::record_corrections`] is set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundCorrection {
    /// Id of the lattice the correction belongs to.
    pub lattice_id: u32,
    /// The syndrome-generation round (within that lattice's stream) the
    /// correction belongs to.
    pub round: u64,
    /// The composed X- and Z-sector correction committed to the frame.
    pub correction: PauliString,
}

/// Everything a streaming run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// The telemetry report (counters, timelines, latencies, per-lattice
    /// breakdown, per-stage flow reports, model comparisons).
    pub report: RuntimeReport,
    /// One sharded Pauli frame per lattice, indexed by lattice id; each
    /// holds the per-worker shards and their merge for that lattice.
    pub frames: Vec<ShardedPauliFrame>,
    /// Per-round corrections sorted by `(lattice_id, round)`; empty unless
    /// [`MachineConfig::record_corrections`] was set.
    pub corrections: Vec<RoundCorrection>,
    /// The run's recorded syndrome trace; `None` unless the run was started
    /// through [`record_run`](crate::scenario::record_run) (or with
    /// [`PipelineOptions::record_trace`] set).
    pub trace: Option<SyndromeTrace>,
}

impl RuntimeOutcome {
    /// The sharded frame of lattice 0 — the whole machine for single-lattice
    /// runs.
    #[must_use]
    pub fn frame(&self) -> &ShardedPauliFrame {
        &self.frames[0]
    }

    /// The sharded frame of one lattice.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn frame_for(&self, lattice_id: usize) -> &ShardedPauliFrame {
        &self.frames[lattice_id]
    }
}

/// The streaming decode engine.
///
/// ```rust
/// use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
/// use nisqplus_runtime::{RuntimeConfig, StreamingEngine};
///
/// let mut config = RuntimeConfig::new(3);
/// config.rounds = 64;
/// config.workers = 1;
/// config.cadence_cycles = 0; // un-paced: stream as fast as possible
/// let engine = StreamingEngine::new(config).unwrap();
/// let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
/// assert_eq!(outcome.report.counters.decoded, 64);
/// ```
///
/// Serving several logical qubits at once — one engine, one worker pool,
/// per-lattice telemetry:
///
/// ```rust
/// use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
/// use nisqplus_runtime::{MachineConfig, StreamingEngine};
///
/// let mut config = MachineConfig::new(&[3, 5, 3], 7);
/// for spec in &mut config.lattices {
///     spec.rounds = 32;
///     spec.cadence_cycles = 0;
/// }
/// config.workers = 2;
/// let engine = StreamingEngine::with_machine(config).unwrap();
/// let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
/// assert_eq!(outcome.report.num_lattices, 3);
/// assert_eq!(outcome.report.counters.decoded, 96);
/// assert_eq!(outcome.report.lattices[1].counters.decoded, 32);
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    config: MachineConfig,
    set: Arc<LatticeSet>,
}

impl StreamingEngine {
    /// Validates a single-lattice configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`QecError`] if the distance is invalid or the noise
    /// probability is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds`, `workers`, `queue_capacity` or `batch_size` is
    /// zero.
    pub fn new(config: RuntimeConfig) -> Result<Self, QecError> {
        Self::with_machine(config.into())
    }

    /// Validates a multi-lattice configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns a [`QecError`] if any lattice distance is invalid or any
    /// noise probability is outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the lattice list is empty, any lattice streams zero rounds,
    /// `workers`, `queue_capacity` or `batch_size` is zero, or the scenario
    /// script fails [`ScenarioScript::validate`](crate::scenario::ScenarioScript::validate)
    /// against the machine.
    pub fn with_machine(config: MachineConfig) -> Result<Self, QecError> {
        assert!(config.workers > 0, "worker pool needs at least one worker");
        assert!(config.queue_capacity > 0, "ring needs at least one slot");
        assert!(
            config.batch_size > 0,
            "batch window needs at least one round"
        );
        let set = Arc::new(LatticeSet::new(config.lattices.clone())?);
        // Surface configuration errors now rather than inside the source
        // stage: building a throwaway source validates every noise spec,
        // and applying the fault plan's burst overlays to it validates
        // every amplified channel too.
        let mut probe = InterleavedSource::new(&set, &config.cycle_time)?;
        for burst in &config.fault.bursts {
            let lattice_id = burst.lattice_id as usize;
            assert!(
                lattice_id < set.len(),
                "burst fault names an unknown lattice"
            );
            probe.set_burst(lattice_id, set.spec(lattice_id).noise, burst.overlay)?;
        }
        if let Err(error) = config.scenario.validate(set.len()) {
            panic!("invalid scenario script: {error}");
        }
        Ok(StreamingEngine { config, set })
    }

    /// The run configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The registry of lattices being served.
    #[must_use]
    pub fn lattice_set(&self) -> &Arc<LatticeSet> {
        &self.set
    }

    /// The lattice registered under id 0 — the whole machine for engines
    /// built from a single-lattice [`RuntimeConfig`].
    #[must_use]
    pub fn lattice(&self) -> &Arc<nisqplus_qec::lattice::Lattice> {
        self.set.lattice(0)
    }

    /// Streams every lattice's configured rounds through the worker pool
    /// and reports the telemetry.
    ///
    /// The calling thread becomes the source; `config.workers` decoder
    /// threads are spawned for the duration of the call.  Returns once every
    /// generated round has been decoded (or shed) and all workers have
    /// exited.
    #[must_use]
    pub fn run(&self, factory: &dyn DecoderFactory) -> RuntimeOutcome {
        self.run_with(PipelineOptions::default(), factory)
    }

    /// Like [`StreamingEngine::run`], with `options` attached to the run: an
    /// observer, a shorter watchdog, a trace to replay or record.
    #[must_use]
    pub fn run_with(
        &self,
        options: PipelineOptions,
        factory: &dyn DecoderFactory,
    ) -> RuntimeOutcome {
        let counters = RuntimeCounters::new(self.set.len(), self.config.workers);
        let graph = PipelineGraph::new(&self.config, &self.set, options);
        let run = graph.run(factory, &counters);
        self.assemble_outcome(run, &counters)
    }

    /// Folds a finished [`PipelineRun`] into the final [`RuntimeOutcome`].
    fn assemble_outcome(&self, run: PipelineRun, counters: &RuntimeCounters) -> RuntimeOutcome {
        let config = &self.config;
        let set = &self.set;
        let PipelineRun {
            worker_outputs,
            depth_timeline,
            generation_elapsed_ns,
            final_backlog,
            lattice_stats,
            lattice_shed,
            shed_tallies,
            stage_reports,
            elapsed_s,
            snapshots,
            journal,
            fault: injections,
            trace,
            mut noise_epochs,
        } = run;
        // Per-lattice decoder names (same on every worker — they build from
        // the same factories); the machine-level headline joins the distinct
        // names, so a heterogeneous machine reads e.g. "lookup+union-find".
        let lattice_decoder_names: Vec<String> = worker_outputs
            .first()
            .map(|o| o.lattice_decoders.clone())
            .unwrap_or_default();
        let mut distinct_names: Vec<&str> = Vec::new();
        for name in &lattice_decoder_names {
            if !distinct_names.contains(&name.as_str()) {
                distinct_names.push(name);
            }
        }
        let decoder_name = distinct_names.join("+");

        // Regroup the per-worker, per-lattice outputs by lattice.  Latency
        // samples arrive as bounded log-bucket histograms (not raw vectors),
        // so regrouping is a counts merge — O(buckets) per worker-lattice
        // pair, independent of how many rounds were decoded.
        let mut per_lattice_decode: Vec<HistogramSnapshot> =
            vec![HistogramSnapshot::empty(); set.len()];
        let mut per_lattice_total: Vec<HistogramSnapshot> =
            vec![HistogramSnapshot::empty(); set.len()];
        let mut per_lattice_shards: Vec<Vec<PauliFrame>> = vec![Vec::new(); set.len()];
        // The residual analysis's decoded-round tallies, merged across
        // workers per lattice (absorb is an order-independent integer sum,
        // so worker interleaving cannot change the result).
        let mut decoded_tallies: Vec<ResidualTally> = vec![ResidualTally::default(); set.len()];
        let mut corrections = Vec::new();
        for output in worker_outputs {
            corrections.extend(output.corrections);
            for (lattice_id, lattice_output) in output.per_lattice.into_iter().enumerate() {
                per_lattice_decode[lattice_id].merge(&lattice_output.decode_hist);
                per_lattice_total[lattice_id].merge(&lattice_output.total_hist);
                decoded_tallies[lattice_id].absorb(&lattice_output.residuals);
                per_lattice_shards[lattice_id].push(lattice_output.frame);
            }
        }
        corrections.sort_by_key(|c| (c.lattice_id, c.round));

        // Per-lattice reports and frames.
        let mut lattices = Vec::with_capacity(set.len());
        let mut frames = Vec::with_capacity(set.len());
        let mut machine_decode = HistogramSnapshot::empty();
        let mut machine_total = HistogramSnapshot::empty();
        for (lattice_id, spec, lattice) in set.iter() {
            let decode_latency = LatencyProfile::from_histogram(&per_lattice_decode[lattice_id]);
            let total_latency = LatencyProfile::from_histogram(&per_lattice_total[lattice_id]);
            let stats = &lattice_stats[lattice_id];
            let snapshot = counters.per_lattice[lattice_id].snapshot();
            let shed_rounds = &lattice_shed[lattice_id];
            if config.track_shed_rounds {
                debug_assert_eq!(shed_rounds.len() as u64, snapshot.dropped);
            } else {
                debug_assert!(shed_rounds.is_empty(), "untracked shed lists stay empty");
            }
            // Elastic runs stream fewer rounds than configured — retired
            // lattices truncate, dormant adds may never fire, replays serve
            // whatever the trace holds — so every rate and model input is
            // normalised by what the lattice *actually* generated.
            let rounds_streamed = snapshot.generated;
            let inter_arrival_ns = stats.gen_elapsed_ns / rounds_streamed.max(1) as f64;
            let measured = MeasuredBacklog {
                rounds: rounds_streamed,
                final_backlog: stats.final_backlog,
                // Shed rounds are lost, not owed: they left the backlog the
                // moment they were dropped, so they are accounted here
                // explicitly instead of vanishing from the growth math.
                shed: snapshot.dropped,
                // Workers decode concurrently, so the aggregate service time
                // per round is the per-packet mean divided by the pool width
                // (an optimistic bound when other lattices compete for the
                // same pool; see the LatticeReport field docs).
                service_time_ns: decode_latency.summary.mean / config.workers as f64,
                inter_arrival_ns,
            };
            let comparison = BacklogComparison::against_model(&measured);
            // Already classified in stream: the workers tallied decoded
            // rounds, the producer tallied shed rounds — nothing O(rounds)
            // to walk.
            let residual = config.streams_residuals().then(|| ResidualReport {
                decoded: decoded_tallies[lattice_id],
                shed: shed_tallies[lattice_id],
            });
            lattices.push(LatticeReport {
                lattice_id,
                distance: spec.distance,
                decoder: lattice_decoder_names
                    .get(lattice_id)
                    .cloned()
                    .unwrap_or_default(),
                push_policy: config.policy_for(spec),
                push_policy_overridden: spec.push_policy.is_some(),
                queue_budget: spec.queue_budget,
                shed_slo: spec.shed_slo,
                residual,
                rounds: rounds_streamed,
                noise_epochs: std::mem::take(&mut noise_epochs[lattice_id]),
                cadence_ns: config.cycle_time.cycles_to_ns(spec.cadence_cycles),
                inter_arrival_ns,
                counters: snapshot,
                final_backlog: stats.final_backlog,
                decode_latency,
                total_latency,
                measured,
                comparison,
            });
            // Shed rounds enter the frame path as identity corrections: the
            // merged Pauli string is unchanged (nothing was corrected), but
            // the frame's recorded-cycle count owns up to every generated
            // round, so `total_recorded == generated` under shedding too.
            let mut shards = std::mem::take(&mut per_lattice_shards[lattice_id]);
            // Counted off the dropped counter, not the shed-round list: the
            // books must balance even when `track_shed_rounds` elides the
            // per-round indices.
            if snapshot.dropped > 0 {
                let mut shed_shard = PauliFrame::new(lattice.num_data());
                let identity = PauliString::identity(lattice.num_data());
                for _ in 0..snapshot.dropped {
                    shed_shard.record(&identity);
                }
                shards.push(shed_shard);
            }
            frames.push(ShardedPauliFrame::from_shards(lattice.num_data(), shards));
            machine_decode.merge(&per_lattice_decode[lattice_id]);
            machine_total.merge(&per_lattice_total[lattice_id]);
        }
        let decode_latency = LatencyProfile::from_histogram(&machine_decode);
        let total_latency = LatencyProfile::from_histogram(&machine_total);
        let snapshot = counters.snapshot();
        // The machine-level books follow the same rule: rounds are what the
        // source actually emitted, not what the specs configured.
        let total_rounds = snapshot.generated;
        let inter_arrival_ns = generation_elapsed_ns / total_rounds.max(1) as f64;
        let measured = MeasuredBacklog {
            rounds: total_rounds,
            final_backlog,
            shed: snapshot.dropped,
            // Workers decode concurrently, so the aggregate service time per
            // round is the per-packet mean divided by the pool width.
            service_time_ns: decode_latency.summary.mean / config.workers as f64,
            inter_arrival_ns,
        };
        let comparison = BacklogComparison::against_model(&measured);
        let throughput_per_s = if elapsed_s > 0.0 {
            snapshot.decoded as f64 / elapsed_s
        } else {
            0.0
        };
        let max_queue_depth = depth_timeline
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);

        let outcome = RuntimeOutcome {
            report: RuntimeReport {
                decoder: decoder_name,
                num_lattices: set.len(),
                distances: set.distances(),
                workers: config.workers,
                batch_size: config.batch_size,
                rounds: total_rounds,
                cadence_ns: config.aggregate_cadence_ns(),
                inter_arrival_ns,
                elapsed_s,
                counters: snapshot,
                depth_timeline,
                max_queue_depth,
                final_backlog,
                throughput_per_s,
                decode_latency,
                total_latency,
                measured,
                comparison,
                lattices,
                worker_counters: counters
                    .per_worker
                    .iter()
                    .map(WorkerCounters::snapshot)
                    .collect(),
                fault: crate::fault::FaultReport::assemble(
                    &config.fault,
                    injections,
                    &journal.counts,
                    snapshot.quarantined,
                ),
                stages: stage_reports,
                snapshots,
                journal,
            },
            frames,
            corrections,
            trace,
        };
        if let Some(path) = &config.obs.export_path {
            // Export is best-effort telemetry: a failed write must never
            // fail the run that produced the data.
            if let Err(error) = crate::report::write_report(path, &outcome.report) {
                eprintln!(
                    "nisqplus-runtime: report export to {} failed: {error}",
                    path.display()
                );
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::NoiseSpec;
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};

    fn fast_config() -> RuntimeConfig {
        let mut config = RuntimeConfig::new(3);
        config.rounds = 200;
        config.workers = 2;
        config.cadence_cycles = 0;
        config.queue_capacity = 64;
        config
    }

    fn greedy_factory() -> impl DecoderFactory {
        || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    }

    #[test]
    fn every_round_is_decoded_exactly_once() {
        let engine = StreamingEngine::new(fast_config()).unwrap();
        let outcome = engine.run(&greedy_factory());
        let counters = outcome.report.counters;
        assert_eq!(counters.generated, 200);
        assert_eq!(counters.enqueued, 200);
        assert_eq!(counters.decoded, 200);
        assert_eq!(counters.dropped, 0);
        assert_eq!(outcome.frame().total_recorded(), 200);
        assert_eq!(outcome.report.decode_latency.summary.count, 200);
        assert!(outcome.report.throughput_per_s > 0.0);
        assert!(!outcome.report.depth_timeline.is_empty());
        // Single lattice: the per-lattice breakdown is the whole report.
        assert_eq!(outcome.report.num_lattices, 1);
        assert_eq!(outcome.report.lattices.len(), 1);
        assert_eq!(outcome.report.lattices[0].counters.decoded, 200);
        assert_eq!(outcome.report.distances, vec![3]);
    }

    #[test]
    fn recorded_corrections_cover_every_round_in_order() {
        let mut config = fast_config();
        config.record_corrections = true;
        config.workers = 3;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let rounds: Vec<u64> = outcome.corrections.iter().map(|c| c.round).collect();
        assert_eq!(rounds, (0..200).collect::<Vec<u64>>());
        assert!(outcome.corrections.iter().all(|c| c.lattice_id == 0));
    }

    #[test]
    fn drop_policy_sheds_load_on_a_tiny_ring() {
        let mut config = fast_config();
        config.queue_capacity = 2;
        config.workers = 1;
        config.rounds = 500;
        config.push_policy = PushPolicy::Drop;
        // Slow the workers enough that an un-paced producer overruns the ring.
        let factory = || {
            Box::new(crate::throttle::ThrottledDecoder::new(
                GreedyMatchingDecoder::new(),
                50_000,
            )) as DynDecoder
        };
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&factory);
        let counters = outcome.report.counters;
        assert_eq!(counters.generated, 500);
        assert_eq!(counters.enqueued + counters.dropped, 500);
        assert!(counters.dropped > 0, "tiny ring should overflow");
        assert_eq!(counters.decoded, counters.enqueued);
        // Dropped rounds are shed, not owed: the backlog when generation
        // stopped is at most what fit in the ring plus the packets in flight
        // inside the single worker, never the full overrun.
        assert!(outcome.report.final_backlog <= 4);
        // The per-lattice slice sees the same drops.
        let lattice = &outcome.report.lattices[0];
        assert_eq!(lattice.counters.dropped, counters.dropped);
        assert!(!lattice.queue_stayed_bounded());
    }

    #[test]
    fn batched_windows_cover_every_round() {
        let mut config = fast_config();
        config.batch_size = 8;
        config.workers = 1;
        let engine = StreamingEngine::new(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let counters = outcome.report.counters;
        assert_eq!(counters.decoded, 200);
        assert_eq!(outcome.report.batch_size, 8);
        assert!(counters.batches >= 200 / 8);
        assert!(counters.batches <= 200);
        assert!(counters.mean_batch_fill() >= 1.0);
        assert_eq!(outcome.report.decode_latency.summary.count, 200);
    }

    /// The run's stage reports describe the whole graph and their books
    /// balance: what the source emitted equals what the channels accepted
    /// equals what the decode stages consumed.
    #[test]
    fn stage_reports_cover_the_graph_with_balanced_flow() {
        let engine = StreamingEngine::new(fast_config()).unwrap();
        let outcome = engine.run(&greedy_factory());
        let stages = &outcome.report.stages;
        let stage_of = |name: &str| {
            stages
                .iter()
                .find(|r| r.stage == name)
                .unwrap_or_else(|| panic!("missing stage report {name}"))
        };
        assert_eq!(stage_of("source").accepted, 200);
        assert_eq!(stage_of("source").emitted, 200);
        assert_eq!(stage_of("gate").accepted, 200);
        let channel_in: u64 = stages
            .iter()
            .filter(|r| r.stage.starts_with("channel."))
            .map(|r| r.accepted)
            .sum();
        let decode_out: u64 = stages
            .iter()
            .filter(|r| r.stage.starts_with("decode."))
            .map(|r| r.emitted)
            .sum();
        assert_eq!(channel_in, 200);
        assert_eq!(decode_out, 200);
        for report in stages.iter().filter(|r| r.stage.starts_with("channel.")) {
            assert_eq!(report.accepted, report.emitted, "pushed == popped");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_batch_size_rejected() {
        let mut config = fast_config();
        config.batch_size = 0;
        let _ = StreamingEngine::new(config);
    }

    #[test]
    fn invalid_noise_is_rejected_up_front() {
        let mut config = fast_config();
        config.noise = NoiseSpec::PureDephasing { p: 2.0 };
        assert!(StreamingEngine::new(config).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut config = fast_config();
        config.workers = 0;
        let _ = StreamingEngine::new(config);
    }

    #[test]
    #[should_panic(expected = "at least one lattice")]
    fn empty_machine_rejected() {
        let config = MachineConfig {
            lattices: Vec::new(),
            ..MachineConfig::new(&[3], 0)
        };
        let _ = StreamingEngine::with_machine(config);
    }
}
