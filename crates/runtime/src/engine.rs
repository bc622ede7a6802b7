//! The streaming engine: the one place a run is assembled, from seeded
//! syndrome streams to the [`RuntimeReport`].
//!
//! All of the moving parts — paced generation, the bounded channel, batch
//! filling, the prepared-decoder hot path, frame and depth sinks — live as
//! stages in [`crate::stage`]; the one shape they are wired into lives here:
//!
//! ```text
//! source ──► channel ──► decode[w] ──► frame
//!  (paced)   (one ring)   (N threads)
//! ```
//!
//! [`StreamingEngine::run`] builds the run's codec, one bounded channel
//! of `queue_capacity` slots and the event journal, checks that the
//! decoder factory builds, scopes the decode workers, drives the source stage — fed
//! by the machine's live
//! [`InterleavedSource`], the pipeline's only feed — on the calling thread
//! — every worker popping its next batch from the one channel — joins, and
//! folds what the source stage and the workers hand back straight into the
//! final [`RuntimeOutcome`]:
//! per-lattice reports, the depth timeline with its per-lattice backlog
//! breakdown, merged frames, the measurements the backlog comparison
//! against the [`BacklogModel`](nisqplus_system::backlog::BacklogModel) is
//! computed from ([`RuntimeReport::comparison`]), one
//! [`StageReport`](crate::stage::StageReport) per pipeline stage, and —
//! when [`MachineConfig::analyze_residuals`] is set — the measured logical
//! cost of shedding, classified in stream (workers tally decoded rounds as
//! they commit, the producer tallies shed rounds as it sheds).  A worker
//! crashes only when its decoder panics; its supervisor restarts it and
//! books the round the panic struck as shed, so every book holds and the
//! journal's `worker_crash` names the round.  A factory that panics is not
//! a crash: it panics `run` on the calling thread, before any round is
//! generated.
//!
//! Shed rounds — the source's and those lost to a decoder panic — stay
//! accounted for end to end: they are fed into the
//! per-lattice frame path as identity corrections, counted in
//! `counters.dropped` (the backlog view's
//! [`MeasuredBacklog::shed`](nisqplus_system::backlog::MeasuredBacklog::shed)),
//! and priced in measured logical failures by
//! the residual analysis.

use crate::frame::ShardedPauliFrame;
use crate::lattice_set::LatticeSet;
use crate::obs::{EventJournal, HistogramSnapshot};
use crate::packet::PacketCodec;
use crate::source::InterleavedSource;
use crate::stage::{
    run_source, run_worker, Channel, DecodeStage, SourceSeat, WorkerSeat, WATCHDOG,
};
use crate::telemetry::{
    LatencyProfile, LatticeReport, ResidualReport, RuntimeCounters, RuntimeReport,
};
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::QecError;
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
    /// Whether `corrections` holds every decoded round: recording was on and
    /// uncapped.
    pub(crate) complete_corrections: bool,
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
/// assert_eq!(outcome.report.lattices.len(), 3);
/// assert_eq!(outcome.report.counters.decoded, 96);
/// assert_eq!(outcome.report.lattices[1].counters.decoded, 32);
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    config: MachineConfig,
    set: Arc<LatticeSet>,
    /// The machine's live source — noise specs validated, re-tunes applied.
    /// Every live run streams a clone.
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
    /// noise probability — a lattice's own or a re-tune's — is outside
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the lattice list is empty, any lattice streams zero rounds,
    /// or `workers`, `queue_capacity` or `batch_size` is zero.
    pub fn with_machine(config: MachineConfig) -> Result<Self, QecError> {
        assert!(config.workers > 0, "worker pool needs at least one worker");
        assert!(config.queue_capacity > 0, "ring needs at least one slot");
        assert!(
            config.batch_size > 0,
            "batch window needs at least one round"
        );
        let set = Arc::new(LatticeSet::new(config.lattices.clone())?);
        // Configuration errors surface here, not inside a run: building the
        // source validates every noise spec and re-tune channel.
        let source = InterleavedSource::new(&set, &config.cycle_time)?;
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
    /// threads are spawned for the duration of the call, so a run is the
    /// calling thread plus exactly that many.  Returns once every generated
    /// round has been decoded (or shed) and all workers have exited.
    ///
    /// # Panics
    ///
    /// Panics, on the calling thread and before any round is generated, if
    /// the factory (or a lattice's own) panics while building a decoder.
    #[must_use]
    pub fn run(&self, factory: &dyn DecoderFactory) -> RuntimeOutcome {
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
        let channel = Channel::new(config.queue_capacity, codec.words_per_packet());
        let journal = EventJournal::new(config.obs.journal_capacity);
        // One decode stage is built here, before any thread starts, and
        // dropped: a factory that always panics panics `run` with its own
        // message, instead of a supervisor rebuilding it forever.  Each
        // worker then builds its own in its thread, under supervision.
        drop(DecodeStage::new(set, &codec, factory));
        let done = AtomicBool::new(false);
        let epoch = Instant::now();

        let (mut source_run, worker_results) = thread::scope(|s| {
            let (codec, channel, counters) = (&codec, &channel, &counters);
            let (journal, done) = (&journal, &done);
            let workers: Vec<_> = (0..config.workers)
                .map(|worker_id| {
                    s.spawn(move || {
                        run_worker(WorkerSeat {
                            worker_id,
                            set,
                            codec,
                            channel,
                            counters,
                            done,
                            epoch,
                            factory,
                            record_corrections: config.record_corrections,
                            correction_cap: config.correction_cap,
                            batch_size: config.batch_size,
                            journal,
                        })
                    })
                })
                .collect();

            let source_seat = SourceSeat {
                config,
                set,
                source: &self.source,
                codec,
                channel,
                counters,
                journal,
                epoch,
            };
            let source_run = run_source(source_seat, WATCHDOG);
            done.store(true, Ordering::Release);

            let worker_results: Vec<_> = workers
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            (source_run, worker_results)
        });
        let elapsed_s = epoch.elapsed().as_secs_f64();

        // ---- Fold the source stage's and the workers' results -----------
        // One row per stage: source, depth sink, the channel, then every
        // worker's decode stage — whose `emitted` is the rounds that worker's
        // sink committed and whose `stall_cycles` is its idle polls.
        let mut stages = vec![
            source_run.source,
            source_run.depth,
            channel.report("channel"),
        ];
        let (worker_outputs, decode_reports): (Vec<_>, Vec<_>) = worker_results.into_iter().unzip();
        stages.extend(decode_reports);
        let worker_batches = (counters.per_worker.iter())
            .map(|w| w.batches.load(Ordering::Relaxed))
            .collect();
        // Per-lattice decoder names (same on every worker — they build from
        // the same factories).
        let lattice_decoder_names: Vec<String> = worker_outputs
            .first()
            .map(|o| o.lattice_decoders.clone())
            .unwrap_or_default();

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
                source_run.shed_tallies[lattice_id].absorb(&lattice_output.shed);
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
            // Every rate is normalised by what the lattice generated.
            let inter_arrival_ns = stats.gen_elapsed_ns / snapshot.generated.max(1) as f64;
            // Already classified in stream: the workers tallied decoded
            // rounds and the rounds a panic lost, the producer the rounds it
            // shed — nothing O(rounds) to walk.
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
                residual,
                noise_epochs: std::mem::take(&mut source_run.noise_epochs[lattice_id]),
                cadence_ns: config.cycle_time.cycles_to_ns(spec.cadence_cycles),
                inter_arrival_ns,
                counters: snapshot,
                final_backlog: stats.final_backlog,
                decode_latency,
                total_latency,
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
        // The machine-level books follow the same rule.
        let inter_arrival_ns = source_run.generation_elapsed_ns / snapshot.generated.max(1) as f64;
        let depth_timeline = source_run.depth_timeline;
        let max_queue_depth = depth_timeline
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);

        RuntimeOutcome {
            report: RuntimeReport {
                batch_size: config.batch_size,
                cadence_ns: config.aggregate_cadence_ns(),
                inter_arrival_ns,
                elapsed_s,
                counters: snapshot,
                depth_timeline,
                max_queue_depth,
                final_backlog: source_run.final_backlog,
                decode_latency,
                total_latency,
                lattices,
                worker_batches,
                stages,
                journal: journal.snapshot(),
            },
            frames,
            corrections,
            complete_corrections: config.record_corrections && config.correction_cap.is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::{Violation, Violations};
    use crate::obs::EventKind;
    use crate::source::NoiseSpec;
    use crate::stage::panicking;
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
        outcome.check_invariants().unwrap();
        let counters = outcome.report.counters;
        assert_eq!(counters.generated, 200);
        assert_eq!(counters.decoded, 200);
        assert_eq!(outcome.report.decode_latency.summary.count, 200);
        assert!(!outcome.report.depth_timeline.is_empty());
        // Single lattice: the per-lattice breakdown is the whole report.
        assert_eq!(outcome.report.lattices.len(), 1);
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
        outcome.check_invariants().unwrap();
        assert_eq!(outcome.report.counters.generated, 500);
        assert!(
            outcome.report.counters.dropped > 0,
            "tiny ring should overflow"
        );
        // Dropped rounds are shed, not owed: the backlog when generation
        // stopped is at most what fit in the ring plus the packets in flight
        // inside the single worker, never the full overrun.
        assert!(outcome.report.final_backlog <= 4);
        assert!(!outcome.report.lattices[0].queue_stayed_bounded());
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
    /// balance: what the source emitted equals what the channel accepted
    /// (popping what it pushed) equals what the decode stages consumed —
    /// the last two are the checker's flow identities.
    #[test]
    fn stage_reports_cover_the_graph_with_balanced_flow() {
        let engine = StreamingEngine::new(fast_config()).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome.check_invariants().unwrap();
        let stages = &outcome.report.stages;
        let source = &stages[0];
        assert_eq!(
            (source.stage.as_str(), source.accepted, source.emitted),
            ("source", 200, 200)
        );
        let channel = stages.iter().find(|r| r.stage == "channel").unwrap();
        assert_eq!((channel.accepted, channel.emitted), (200, 200));
    }

    /// A short run is not sampled per round: the depth sink is offered all
    /// 5,000 rounds and keeps one per 64 plus the final one, ⌈5000 / 64⌉ + 1
    /// = 80.
    #[test]
    fn a_short_run_takes_one_depth_sample_per_64_rounds() {
        let mut config = fast_config();
        config.rounds = 5_000;
        let outcome = StreamingEngine::new(config).unwrap().run(&greedy_factory());
        outcome.check_invariants().unwrap();
        let depth = outcome
            .report
            .stages
            .iter()
            .find(|r| r.stage == "depth")
            .unwrap();
        assert_eq!(depth.accepted, 5_000);
        assert!(depth.emitted <= 80, "{} depth samples", depth.emitted);
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
    /// round decoded exactly once, the books balanced at quiescence, one
    /// stage row per stage and nothing else.
    #[test]
    fn default_graph_decodes_every_round_and_balances_the_books() {
        let engine = StreamingEngine::with_machine(two_lattice_machine(2)).unwrap();
        let outcome = engine.run(&greedy_factory());
        outcome.check_invariants().unwrap();
        let report = &outcome.report;
        assert_eq!(report.counters.decoded, 200);
        assert_eq!(report.worker_batches.len(), 2);
        assert!(!report.depth_timeline.is_empty());
        let names: Vec<&str> = report.stages.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(
            names,
            ["source", "depth", "channel", "decode.0", "decode.1"]
        );
    }

    /// Every worker files one `decode.<w>` row, whose `emitted` is what its
    /// frame sink committed — the rows sum to `decoded` — beside its entry
    /// of `worker_batches`; a crashed and restarted worker keeps one row,
    /// its idle polls on it.
    #[test]
    fn worker_decoded_counts_are_the_sinks_committed_counts() {
        // One paced worker, idle between rounds, whose decoder panics on
        // round 5 (decode 10 is its X sector): 19 rounds commit.
        let mut paced = MachineConfig::new(&[3], 5);
        paced.lattices[0].rounds = 20;
        // ≈ 163 µs a round: far above a debug-build decode, so the worker
        // idles before every round.
        paced.lattices[0].cadence_cycles = 1_000_000;
        paced.workers = 1;
        let greedy = greedy_factory();
        let panics = panicking(|n| n == 10);
        let legs: [(MachineConfig, &dyn DecoderFactory, u64, u64); 3] = [
            (two_lattice_machine(1), &greedy, 200, 0),
            (two_lattice_machine(3), &greedy, 200, 0),
            (paced, &panics, 19, 1),
        ];
        for (config, factory, rounds, crashes) in legs {
            let workers = config.workers;
            let engine = StreamingEngine::with_machine(config).unwrap();
            let report = engine.run(factory).report;
            let crashed = Violation::Crashes {
                crashed: crashes,
                restarted: crashes,
            };
            let expected = if crashes == 0 {
                Ok(())
            } else {
                Err(Violations(vec![crashed]))
            };
            assert_eq!(report.check_invariants(), expected);
            assert_eq!(report.counters.decoded, rounds);
            assert_eq!(report.counters.dropped, crashes);
            assert_eq!(report.worker_batches.len(), workers);
            let rows: Vec<_> = (0..workers)
                .map(|w| {
                    let name = format!("decode.{w}");
                    report.stages.iter().find(|r| r.stage == name).unwrap()
                })
                .collect();
            assert_eq!(rows.iter().map(|r| r.emitted).sum::<u64>(), rounds);
            if crashes > 0 {
                assert!(rows[0].stall_cycles > 0, "the paced worker idles");
            }
        }
    }

    /// The engine keeps its validated source and every run streams a clone:
    /// a second run sees the same stream as the first.
    #[test]
    fn two_runs_of_one_engine_commit_equal_corrections() {
        let mut config = two_lattice_machine(2);
        config.record_corrections = true;
        // A 10x burst on the 3% base over rounds 10..30: two re-tunes.
        let (base, hot) = (
            config.lattices[1].noise,
            NoiseSpec::PureDephasing { p: 0.3 },
        );
        config.lattices[1].retunes = vec![(10, hot), (30, base)];
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

    /// A decoder panic is caught, journaled and answered by a restart that
    /// adopts the dead worker's frame shard: the one round the panic struck
    /// is booked shed and named by the crash event, every other round is
    /// decoded exactly once, and only `Crashes` objects.
    #[test]
    fn crashed_worker_is_restarted_and_its_lost_round_is_booked_shed() {
        // The source serves the two unpaced lattices in turn, so decode 21
        // is the Z sector of the eleventh round served: lattice 0's round 5.
        let config = two_lattice_machine(1);
        let engine = StreamingEngine::with_machine(config).unwrap();
        let outcome = engine.run(&panicking(|n| n == 21));
        let crashed = Violation::Crashes {
            crashed: 1,
            restarted: 1,
        };
        assert_eq!(outcome.check_invariants(), Err(Violations(vec![crashed])));
        let counters = outcome.report.counters;
        assert_eq!(
            (counters.decoded, counters.dropped),
            (199, 1),
            "the restarted worker drains the rest"
        );
        assert_eq!(outcome.report.lattices[0].counters.dropped, 1);
        let crash = (outcome.report.journal.recent.iter())
            .find(|event| event.kind == EventKind::WorkerCrash)
            .unwrap();
        assert_eq!(
            (crash.lattice_id, crash.worker_id, crash.value),
            (Some(0), Some(0), 5)
        );
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

    /// An invalid re-tune channel is the engine's typed error, so no engine
    /// exists to start a thread — also one that a later re-tune at the same
    /// round would override.
    #[test]
    fn an_invalid_retune_is_a_typed_error() {
        let invalid = NoiseSpec::PureDephasing { p: 1.5 };
        let valid = NoiseSpec::PureDephasing { p: 0.1 };
        for retunes in [
            vec![(8, invalid)],
            vec![(4, valid), (8, invalid), (8, valid)],
        ] {
            let mut config = MachineConfig::from(fast_config());
            config.lattices[0].retunes = retunes;
            assert_eq!(
                StreamingEngine::with_machine(config).unwrap_err(),
                QecError::InvalidProbability { value: 1.5 }
            );
        }
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
