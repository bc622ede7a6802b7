//! The streaming engine: the one place a run is assembled, from seeded
//! syndrome streams to the [`RuntimeReport`].
//!
//! All of the moving parts — paced generation, QoS admission, spread
//! placement, bounded channels, own-then-steal batch filling, the
//! prepared-decoder hot path, frame and depth sinks — live as stages in
//! [`crate::stage`]; the one shape they are wired into lives here:
//!
//! ```text
//! source ──► gate ──► channel[w] ──► steal ──► decode ──► frame
//!  (paced)  (QoS)   (bounded rings)  (per worker, N threads)
//! ```
//!
//! [`StreamingEngine::run_with`] builds the run's codec, one bounded channel
//! per worker, the observability plane and the fault injector, scopes the
//! sampler and the decode workers, drives the source stage on the calling
//! thread — round `r` of lattice `l` placed on channel `(l + r) % workers`,
//! every worker draining its own channel and stealing a batch from a
//! neighbour when it runs dry — joins, and folds what the source stage and
//! the workers hand back straight into the final [`RuntimeOutcome`]:
//! per-lattice reports, the depth timeline with its per-lattice backlog
//! breakdown, merged frames, the measured-versus-model backlog comparison
//! ([`BacklogModel`](nisqplus_system::backlog::BacklogModel)), one
//! [`StageReport`](crate::stage::StageReport) per pipeline stage, and —
//! when [`MachineConfig::analyze_residuals`] is set — the measured logical
//! cost of shedding, classified in stream (workers tally decoded rounds as
//! they commit, the producer tallies shed rounds as it sheds).
//! [`PipelineOptions`] attach to a run what is not its shape: the watchdog
//! window, a trace to replay or record.
//!
//! Shed rounds stay accounted for end to end: they are fed into the
//! per-lattice frame path as identity corrections, carried in
//! [`MeasuredBacklog::shed`], and priced in measured logical failures by
//! the residual analysis.

use crate::fault::{FaultInjector, FaultReport};
use crate::frame::ShardedPauliFrame;
use crate::lattice_set::LatticeSet;
use crate::obs::{run_sampler, HistogramSnapshot, ObsPlane};
use crate::packet::PacketCodec;
use crate::scenario::SyndromeTrace;
use crate::source::InterleavedSource;
use crate::stage::{run_source, run_worker, Channel, PipelineOptions, SourceSeat, WorkerSeat};
use crate::telemetry::{
    LatencyProfile, LatticeReport, ResidualReport, RuntimeCounters, RuntimeReport,
};
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::QecError;
use nisqplus_system::backlog::{BacklogComparison, MeasuredBacklog};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

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
    /// The machine's live source — noise specs validated, burst episodes and
    /// the scenario script applied.  Every live run streams a clone.
    source: InterleavedSource,
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
        // Configuration errors surface here, not inside a run: building the
        // source validates every noise spec and burst-amplified channel,
        // applying the script validates it against the machine.
        let mut source = InterleavedSource::new(&set, &config.cycle_time)?;
        if let Err(error) = source.apply_script(&config.scenario) {
            panic!("invalid scenario script: {error}");
        }
        Ok(StreamingEngine {
            config,
            set,
            source,
        })
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

    /// Like [`StreamingEngine::run`], with `options` attached to the run: a
    /// shorter watchdog, a trace to replay or record.
    ///
    /// # Panics
    ///
    /// Panics if `options.replay` holds a trace whose lattice shapes differ
    /// from the machine's.
    #[must_use]
    pub fn run_with(
        &self,
        options: PipelineOptions,
        factory: &dyn DecoderFactory,
    ) -> RuntimeOutcome {
        let (config, set) = (&self.config, &*self.set);
        let counters = RuntimeCounters::new(set.len(), config.workers);
        // The residual analysis widens the wire: each record carries its
        // round's seeded error after the syndrome, so workers classify
        // residuals as they commit.  Without it records keep the narrow
        // layout.
        let codec = if config.streams_residuals() {
            PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits())
        } else {
            PacketCodec::for_lattice_bits(&set.ancilla_bits())
        };
        let per_channel_capacity = config.queue_capacity.div_ceil(config.workers);
        let channels: Vec<Channel> = (0..config.workers)
            .map(|_| Channel::new(per_channel_capacity, codec.words_per_packet()))
            .collect();
        let obs = ObsPlane::new(config.obs.clone());
        let injector = FaultInjector::new(config.fault.clone());
        let done = AtomicBool::new(false);
        // The sampler outlives the source: it keeps sampling while workers
        // drain the channels, and stops only after they have joined.
        let sampler_done = AtomicBool::new(false);
        let epoch = Instant::now();

        let (mut source_run, worker_results) = thread::scope(|s| {
            let (codec, channels, counters) = (&codec, &channels[..], &counters);
            let (obs, injector, done, sampler_done) = (&obs, &injector, &done, &sampler_done);
            let sampler = obs.sampled().then(|| {
                s.spawn(move || run_sampler(obs, counters, channels, sampler_done, epoch))
            });
            let workers: Vec<_> = (0..config.workers)
                .map(|worker_id| {
                    s.spawn(move || {
                        run_worker(WorkerSeat {
                            worker_id,
                            set,
                            codec,
                            channels,
                            counters,
                            done,
                            epoch,
                            factory,
                            record_corrections: config.record_corrections,
                            correction_cap: config.correction_cap,
                            batch_size: config.batch_size,
                            obs,
                            injector,
                        })
                    })
                })
                .collect();

            let source_seat = SourceSeat {
                config,
                set,
                source: &self.source,
                codec,
                channels,
                counters,
                obs,
                injector,
                epoch,
            };
            let source_run = run_source(source_seat, options);
            done.store(true, Ordering::Release);

            let worker_results: Vec<_> = workers
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            sampler_done.store(true, Ordering::Release);
            if let Some(handle) = sampler {
                handle.thread().unpark();
                handle.join().expect("sampler thread panicked");
            }
            (source_run, worker_results)
        });
        let elapsed_s = epoch.elapsed().as_secs_f64();

        // ---- Fold the source stage's and the workers' results -----------
        // One row per stage: source, gate, depth sink, then every channel,
        // then every worker's decode stage — whose `emitted` is the rounds
        // that worker's sink committed, the owner of its `decoded` count.
        let mut stages = std::mem::take(&mut source_run.reports);
        for (index, channel) in channels.iter().enumerate() {
            stages.push(channel.report(format!("channel.{index}")));
        }
        let mut worker_outputs = Vec::with_capacity(worker_results.len());
        let mut worker_counters = Vec::with_capacity(worker_results.len());
        for ((output, decode_report), slice) in worker_results.into_iter().zip(&counters.per_worker)
        {
            worker_counters.push(slice.snapshot(decode_report.emitted));
            worker_outputs.push(output);
            stages.push(decode_report);
        }
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
            let stats = &source_run.lattice_stats[lattice_id];
            let snapshot = counters.per_lattice[lattice_id].snapshot();
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
                shed: source_run.shed_tallies[lattice_id],
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
                noise_epochs: std::mem::take(&mut source_run.noise_epochs[lattice_id]),
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
        let final_backlog = source_run.final_backlog;
        let inter_arrival_ns = source_run.generation_elapsed_ns / total_rounds.max(1) as f64;
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
        let depth_timeline = source_run.depth_timeline;
        let max_queue_depth = depth_timeline
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);

        let journal = obs.journal_snapshot();
        // A burst episode is stream content: the ledger counts the lattices
        // that carry one.
        let planned_bursts = config.lattices.iter().filter(|l| l.burst.is_some()).count();
        RuntimeOutcome {
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
                worker_counters,
                fault: FaultReport::assemble(
                    &config.fault,
                    planned_bursts as u64,
                    injector.snapshot(),
                    &journal.counts,
                    snapshot.quarantined,
                ),
                stages,
                snapshots: obs.take_snapshots(),
                journal,
            },
            frames,
            corrections,
            trace: source_run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::EventKind;
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

    /// A two-lattice unpaced Block machine of 100 rounds each.
    fn two_lattice_machine(workers: usize) -> MachineConfig {
        let mut config = MachineConfig::new(&[3, 3], 11);
        for spec in &mut config.lattices {
            spec.rounds = 100;
            spec.cadence_cycles = 0;
        }
        config.workers = workers;
        config.queue_capacity = 64;
        config
    }

    /// The pipeline with default options keeps the engine contract: every
    /// round decoded exactly once, every channel's books balanced at
    /// quiescence, one stage row per stage and nothing else.
    #[test]
    fn default_graph_decodes_every_round_and_balances_the_books() {
        let engine = StreamingEngine::with_machine(two_lattice_machine(2)).unwrap();
        let outcome = engine.run(&greedy_factory());
        let report = &outcome.report;
        assert_eq!(report.counters.generated, 200);
        assert_eq!(report.counters.decoded, 200);
        assert_eq!(report.counters.dropped, 0);
        assert_eq!(report.worker_counters.len(), 2);
        assert!(!report.depth_timeline.is_empty());
        assert!(report.lattices.iter().all(|l| l.counters.dropped == 0));
        let names: Vec<&str> = report.stages.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(
            names,
            [
                "source",
                "gate",
                "depth",
                "channel.0",
                "channel.1",
                "decode.0",
                "decode.1"
            ]
        );
        let channels = report
            .stages
            .iter()
            .filter(|r| r.stage.starts_with("channel."));
        let mut channel_flow = 0;
        for channel in channels {
            assert_eq!(
                channel.accepted, channel.emitted,
                "pushed == popped at quiescence"
            );
            channel_flow += channel.emitted;
        }
        assert_eq!(channel_flow, 200, "every round passed through a channel");
    }

    /// A worker's `decoded` is what its frame sink committed — the same
    /// number its decode stage row reports — and the workers' sum is the
    /// machine's.
    #[test]
    fn worker_decoded_counts_are_the_sinks_committed_counts() {
        for workers in [1, 3] {
            let engine = StreamingEngine::with_machine(two_lattice_machine(workers)).unwrap();
            let report = engine.run(&greedy_factory()).report;
            assert_eq!(report.worker_counters.len(), workers);
            for (w, worker) in report.worker_counters.iter().enumerate() {
                let name = format!("decode.{w}");
                let row = report.stages.iter().find(|r| r.stage == name).unwrap();
                assert_eq!(worker.decoded, row.emitted, "{name}");
            }
            let sum: u64 = report.worker_counters.iter().map(|w| w.decoded).sum();
            assert_eq!(sum, report.counters.decoded);
            assert_eq!(sum, 200);
        }
    }

    /// The engine keeps its validated source and every run streams a clone:
    /// a second run sees the same stream as the first.
    #[test]
    fn two_runs_of_one_engine_commit_equal_corrections() {
        let mut config = two_lattice_machine(2);
        config.record_corrections = true;
        config.lattices[1].burst = Some(crate::source::BurstOverlay {
            start_round: 10,
            rounds: 20,
            factor: 10.0,
        });
        let engine = StreamingEngine::with_machine(config).unwrap();
        let first = engine.run(&greedy_factory());
        let second = engine.run(&greedy_factory());
        assert_eq!(first.corrections.len(), 200);
        assert_eq!(first.corrections, second.corrections);
        // Which worker commits a round is the scheduler's business; the
        // merged frames are the stream's.
        for (a, b) in first.frames.iter().zip(&second.frames) {
            assert_eq!(a.merged(), b.merged());
        }
    }

    /// An injected worker crash is caught, journaled and answered by a
    /// restart that adopts the dead worker's frame shard: every generated
    /// round is still decoded exactly once.
    #[test]
    fn crashed_worker_is_restarted_and_no_round_is_lost() {
        crate::fault::silence_injected_crash_panics();
        // One worker: with a second one stealing, worker 0 is not guaranteed
        // to commit the 10 rounds that arm its crash.
        let mut config = two_lattice_machine(1);
        config.fault = crate::fault::FaultPlan::default().crash_worker(0, 10);
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&greedy_factory());
        let report = &outcome.report;
        assert_eq!(report.counters.generated, 200);
        assert_eq!(
            report.counters.decoded, 200,
            "the restarted worker drains the rest"
        );
        assert_eq!(report.counters.dropped, 0);
        assert_eq!(report.fault.injected_crashes, 1);
        assert_eq!(report.journal.counts[EventKind::WorkerCrash], 1);
        assert_eq!(report.journal.counts[EventKind::WorkerRestart], 1);
        // The crashed worker's shard survived: the merged per-lattice frames
        // carry every round.
        let committed: u64 = outcome.frames.iter().map(|f| f.total_recorded()).sum();
        assert_eq!(committed, 200);
    }

    /// A poisoned record is quarantined by the worker and shed-accounted by
    /// the producer: books reconcile, nothing panics, nothing misdecodes.
    #[test]
    fn corrupted_record_is_quarantined_and_shed_accounted() {
        let mut config = MachineConfig::new(&[3], 7);
        config.lattices[0].rounds = 100;
        config.lattices[0].cadence_cycles = 0;
        config.workers = 1;
        config.queue_capacity = 256;
        config.fault = crate::fault::FaultPlan::default().corrupt_record(0, 5, 2, 13);
        let engine = StreamingEngine::with_machine(config).unwrap();
        let report = engine.run(&greedy_factory()).report;
        assert_eq!(report.counters.generated, 100);
        assert_eq!(
            report.counters.decoded, 99,
            "the poisoned round is not decoded"
        );
        assert_eq!(report.counters.dropped, 1, "…it is shed-accounted");
        assert_eq!(
            report.counters.quarantined, 1,
            "…and quarantined at the worker"
        );
        assert_eq!(report.fault.injected_corruptions, 1);
        assert_eq!(report.journal.counts[EventKind::Quarantine], 1);
        assert_eq!(report.lattices[0].counters.dropped, 1);
    }

    /// A channel whose consumer never drains (an infinite injected stall on
    /// a Block lane) trips the watchdog: the run ends with force-shed
    /// rounds and WatchdogTrip events — each naming its round — instead of
    /// hanging forever.
    #[test]
    fn dead_consumer_trips_the_watchdog_instead_of_hanging() {
        let mut config = MachineConfig::new(&[3], 3);
        config.lattices[0].rounds = 4;
        config.lattices[0].cadence_cycles = 0;
        config.workers = 1;
        config.queue_capacity = 16;
        config.fault = crate::fault::FaultPlan::default().stall_channel(0, 0, u64::MAX);
        let engine = StreamingEngine::with_machine(config).unwrap();
        let options = PipelineOptions {
            watchdog: std::time::Duration::from_millis(20),
            ..PipelineOptions::default()
        };
        let report = engine.run_with(options, &greedy_factory()).report;
        assert_eq!(report.counters.generated, 4);
        assert_eq!(
            report.counters.decoded, 0,
            "the channel never delivered a round"
        );
        assert_eq!(report.counters.dropped, 4, "every round was force-shed");
        assert_eq!(report.lattices[0].counters.dropped, 4);
        assert_eq!(report.fault.injected_stalls, 1);
        assert_eq!(report.journal.counts[EventKind::WatchdogTrip], 4);
        let tripped: Vec<u64> = report
            .journal
            .recent
            .iter()
            .filter(|event| event.kind == EventKind::WatchdogTrip)
            .map(|event| event.value)
            .collect();
        assert_eq!(tripped, [0, 1, 2, 3]);
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
