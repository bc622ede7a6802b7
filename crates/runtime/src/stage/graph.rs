//! The pipeline graph: wiring stages into a running, backpressured whole.
//!
//! A [`PipelineGraph`] assembles the streaming pipeline from the stage
//! building blocks and runs it to completion:
//!
//! ```text
//! source ──► gate ──► channel[w] ──► steal ──► decode ──► frame
//!  (paced)  (QoS)   (bounded rings)  (per worker, N threads)
//! ```
//!
//! One paced source runs on the calling thread; `workers` decode threads
//! each drive a steal → decode → frame chain.  Two bounds, one book each: a
//! channel's capacity is its ring's slot sequence words, a lattice's queue
//! budget is its own `enqueued − decoded` counters, read by the gate at
//! admission.  The shape is fixed: one channel per worker, round `r` of
//! lattice `l` placed on channel `(l + r) % workers`, every worker draining
//! its own channel and stealing a batch from a neighbour when it runs dry
//! ([`StealMux`]).
//! [`PipelineOptions`] carries what a caller may attach to a run — an
//! observer, the watchdog window, a trace to replay or record — not its
//! shape.  [`PipelineGraph::run`] returns a [`PipelineRun`]: the raw worker
//! outputs, timelines, per-lattice producer statistics, and one
//! [`StageReport`] per stage.

use crate::config::{MachineConfig, PushPolicy};
use crate::fault::{FaultInjections, FaultInjector, CRASH_PANIC_MARKER};
use crate::lattice_set::LatticeSet;
use crate::obs::{
    EventKind, EventSeverity, JournalSnapshot, MetricsSnapshot, ObsPlane, RuntimeObserver,
};
use crate::packet::{PacketCodec, SyndromePacket};
use crate::scenario::{SyndromeTrace, TraceRecorder, TraceSource};
use crate::source::{ElasticEvent, ElasticEventKind, InterleavedSource, NoiseEpoch, SourcedRound};
use crate::stage::channel::Channel;
use crate::stage::decode::DecodeStage;
use crate::stage::gate::{Admission, QosGate};
use crate::stage::mux::StealMux;
use crate::stage::sink::{DepthSink, FrameSink, WorkerOutput};
use crate::stage::StageReport;
use crate::telemetry::{DepthSample, LatticeCounters, RuntimeCounters};
use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_qec::logical::{classify_shed_round, LogicalState, ResidualTally};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What a caller may attach to one run of a [`PipelineGraph`]; the graph's
/// shape is not among it.
#[derive(Debug)]
pub struct PipelineOptions {
    /// An external tap on the run's events and snapshots; `None` keeps the
    /// journal and snapshot log as the only consumers.
    pub observer: Option<Box<dyn RuntimeObserver>>,
    /// The Block-lane backpressure watchdog: the longest the producer spins
    /// on one round (per refused lane) before force-shedding it with a
    /// [`EventKind::WatchdogTrip`] so a dead consumer degrades the run into
    /// a diagnostic report instead of hanging it forever.  The default is
    /// generous — orders of magnitude beyond any healthy stall — so
    /// existing runs and benches never meet it.
    pub watchdog: Duration,
    /// Re-serve this recorded trace instead of sampling the seeded sources.
    /// The trace's rounds flow through the same gate/channel/decode pipeline
    /// verbatim; the machine's scenario script and noise specs are ignored
    /// (the trace already embodies their effects).
    pub replay: Option<SyndromeTrace>,
    /// Tap every emitted round into a [`TraceRecorder`]; the finished
    /// [`SyndromeTrace`] is returned in [`PipelineRun::trace`].
    pub record_trace: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            observer: None,
            watchdog: Duration::from_secs(5),
            replay: None,
            record_trace: false,
        }
    }
}

/// Per-lattice generation statistics tracked by the source stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeGenStats {
    /// Elapsed nanoseconds at this lattice's last emission.
    pub gen_elapsed_ns: f64,
    /// This lattice's backlog at the instant its generation stopped.
    pub final_backlog: u64,
}

/// Everything a finished pipeline hands back to the engine.
#[derive(Debug)]
pub struct PipelineRun {
    /// One output per decode worker.
    pub worker_outputs: Vec<WorkerOutput>,
    /// The down-sampled aggregate + per-lattice backlog timeline.
    pub depth_timeline: Vec<DepthSample>,
    /// Elapsed nanoseconds when the source finished generating.
    pub generation_elapsed_ns: f64,
    /// Aggregate backlog at the instant generation stopped.
    pub final_backlog: u64,
    /// Per-lattice source statistics, in lattice-id order.
    pub lattice_stats: Vec<LatticeGenStats>,
    /// Rounds shed per lattice, in emission order.  Empty per-lattice lists
    /// when [`MachineConfig::track_shed_rounds`] is off — the counters still
    /// carry the shed totals, only the O(rounds) round lists are elided.
    pub lattice_shed: Vec<Vec<u64>>,
    /// Per-lattice residual tallies of the *shed* rounds, classified live by
    /// the producer when [`MachineConfig::analyze_residuals`] is on; all-zero
    /// otherwise.
    pub shed_tallies: Vec<ResidualTally>,
    /// One report per stage: source, gate, depth sink, then every channel,
    /// then every worker's decode stage.
    pub stage_reports: Vec<StageReport>,
    /// Wall-clock seconds from epoch to the last worker's exit.
    pub elapsed_s: f64,
    /// Mid-run metrics samples taken by the snapshot thread (empty when the
    /// sampler is disabled via `snapshot_cadence_us: 0`).
    pub snapshots: Vec<MetricsSnapshot>,
    /// The event journal's end-of-run snapshot: totals per severity/kind
    /// plus the configured tail of recent events.
    pub journal: JournalSnapshot,
    /// The fault injector's own books: how many scheduled faults fired
    /// (all-zero for a plan-free run).
    pub fault: FaultInjections,
    /// The recorded trace, when [`PipelineOptions::record_trace`] was set.
    pub trace: Option<SyndromeTrace>,
    /// Each lattice's noise timeline over the rounds it actually emitted
    /// (empty per-lattice lists on replay runs — the trace is the record).
    pub noise_epochs: Vec<Vec<NoiseEpoch>>,
}

/// Everything one decode worker needs, bundled to keep spawn sites tidy
/// (and to let tests drive a worker directly against hand-filled channels).
pub struct WorkerSeat<'a> {
    /// This worker's index, which is also its home channel's.
    pub worker_id: usize,
    /// The lattices being served.
    pub set: &'a LatticeSet,
    /// The shared wire codec.
    pub codec: &'a PacketCodec,
    /// The channels the worker consumes from.
    pub channels: &'a [Channel],
    /// The shared run counters.
    pub counters: &'a RuntimeCounters,
    /// Set once the source has finished generating.
    pub done: &'a AtomicBool,
    /// The run's epoch, for latency timestamps.
    pub epoch: Instant,
    /// The machine-wide decoder factory.
    pub factory: &'a dyn DecoderFactory,
    /// Whether committed corrections are kept per round.
    pub record_corrections: bool,
    /// When recording corrections, keep only the most recent this many per
    /// worker (`None` = unbounded; see [`MachineConfig::correction_cap`]).
    pub correction_cap: Option<usize>,
    /// Maximum rounds decoded as one batch.
    pub batch_size: usize,
    /// The run's observability plane (live decode histogram, event journal).
    pub obs: &'a ObsPlane,
    /// The run's armed fault schedule (crash hooks; a plan-free injector
    /// costs one branch per batch).
    pub injector: &'a FaultInjector,
}

impl fmt::Debug for WorkerSeat<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerSeat")
            .field("worker_id", &self.worker_id)
            .field("channels", &self.channels.len())
            .field("batch_size", &self.batch_size)
            .finish_non_exhaustive()
    }
}

/// One decode worker under supervision: the frame sink — the worker's
/// durable state — lives out here, outside the unwind boundary, while the
/// decode attempt loop runs inside [`catch_unwind`].  A panic in the decode
/// path (injected or real) is caught, journaled as a
/// [`EventKind::WorkerCrash`], and answered by a same-thread restart
/// ([`EventKind::WorkerRestart`]) that rebuilds the decode stage — freshly
/// `prepare`d decoders — over the *same* sink, so the replacement adopts
/// the dead worker's frame shard and every round it had already committed.
/// Returns the worker's output plus its decode [`StageReport`].
///
/// [`catch_unwind`]: std::panic::catch_unwind
pub fn run_worker(seat: WorkerSeat<'_>) -> (WorkerOutput, StageReport) {
    let worker_id = seat.worker_id;
    let mut sink = FrameSink::new(seat.set, seat.record_corrections)
        .with_correction_cap(seat.correction_cap)
        .with_obs(Arc::clone(seat.obs.decode_hist()));
    let mut stall_polls = 0u64;
    let mut restarts = 0u64;
    loop {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(&seat, &mut sink)
        }));
        match attempt {
            Ok((lattice_decoders, polls)) => {
                stall_polls += polls;
                let committed = sink.committed();
                let decode_report = StageReport {
                    stage: format!("decode.{worker_id}"),
                    accepted: committed,
                    emitted: committed,
                    stall_cycles: stall_polls,
                    ..StageReport::default()
                };
                return (sink.finish(lattice_decoders), decode_report);
            }
            Err(_) => {
                // The worker died mid-run.  Its sink — and every round it
                // committed — survives out here; journal the crash (value =
                // rounds the dead worker had committed), then go around the
                // loop: the next attempt re-prepares the decoders and
                // adopts the shard.
                seat.obs.publish(
                    EventKind::WorkerCrash,
                    EventSeverity::Critical,
                    None,
                    Some(worker_id as u32),
                    seat.epoch.elapsed().as_nanos() as u64,
                    sink.committed(),
                );
                restarts += 1;
                seat.obs.publish(
                    EventKind::WorkerRestart,
                    EventSeverity::Warning,
                    None,
                    Some(worker_id as u32),
                    seat.epoch.elapsed().as_nanos() as u64,
                    restarts,
                );
            }
        }
    }
}

/// One supervised decode attempt: fill batches own-channel-then-steal, decode
/// every record through the lattice's prepared hot path, commit to the
/// shared frame sink and count the round decoded — which is also what lowers
/// its lattice's outstanding count for the gate.
/// Returns `(lattice decoder names, stall polls)` when the stream drains;
/// unwinds into the supervisor if the decode path panics.
fn worker_loop(seat: &WorkerSeat<'_>, sink: &mut FrameSink) -> (Vec<String>, u64) {
    let worker_id = seat.worker_id;
    let (channels, counters, obs) = (seat.channels, seat.counters, seat.obs);
    let epoch = seat.epoch;
    let mut decode = DecodeStage::new(seat.set, seat.codec, seat.factory);
    let mux = StealMux::new(worker_id);
    // Reusable batch records, shared across lattices (records are sized for
    // the largest lattice of the set).
    let mut batch: Vec<Vec<u64>> = (0..seat.batch_size)
        .map(|_| vec![0u64; seat.codec.words_per_packet()])
        .collect();
    let worker_counters = &counters.per_worker[worker_id];
    let mut stall_polls = 0u64;
    loop {
        // The crash hook sits at the batch boundary: no record is in flight
        // inside the worker when an injected panic fires, so nothing a
        // restart can't recover is ever lost.
        if seat.injector.should_crash(worker_id, sink.committed()) {
            panic!("{CRASH_PANIC_MARKER}: worker {worker_id}");
        }
        // ---- Fill a batch: own channel first, then steal ----------------
        let fill = mux.fill(channels, &mut batch);
        if fill.stolen > 0 {
            worker_counters
                .stolen
                .fetch_add(fill.stolen, Ordering::Relaxed);
            obs.publish(
                EventKind::Steal,
                EventSeverity::Info,
                None,
                Some(worker_id as u32),
                epoch.elapsed().as_nanos() as u64,
                fill.stolen,
            );
        }
        if fill.filled == 0 {
            if seat.done.load(Ordering::Acquire) && channels.iter().all(Channel::is_empty) {
                return (decode.lattice_decoders().to_vec(), stall_polls);
            }
            worker_counters.stall_polls.fetch_add(1, Ordering::Relaxed);
            stall_polls += 1;
            std::hint::spin_loop();
            thread::yield_now();
            continue;
        }

        // ---- Decode the batch ------------------------------------------
        // Per-packet service time keeps its meaning (the full
        // unpack-to-commit span of that round — what the backlog model's `f`
        // ratio is about): timestamps are chained, one clock read per
        // packet, so batching amortizes the mux scans and counter updates
        // without flattening latency spikes into a batch mean.
        let mut prev = Instant::now();
        for record in &batch[..fill.filled] {
            let decoded = match decode.decode(record) {
                Ok(decoded) => decoded,
                Err(_) => {
                    // A record that fails validation is quarantined, never
                    // decoded: count it, journal it (value = the running
                    // quarantine total; no lattice attribution — the header
                    // that names the lattice is exactly what can't be
                    // trusted), and move on.  The producer already
                    // shed-accounted the round, so the backlog and frame
                    // books stay exact.
                    let total = counters.quarantined.fetch_add(1, Ordering::Relaxed) + 1;
                    obs.publish(
                        EventKind::Quarantine,
                        EventSeverity::Critical,
                        None,
                        Some(worker_id as u32),
                        epoch.elapsed().as_nanos() as u64,
                        total,
                    );
                    prev = Instant::now();
                    continue;
                }
            };
            let lattice_id = decoded.lattice_id as usize;
            let emitted_ns = decoded.emitted_ns;
            // The residual analysis classified this round during the decode;
            // a failure is surfaced live.
            if let Some((x, z)) = decoded.residual {
                if x != LogicalState::Success || z != LogicalState::Success {
                    counters.per_lattice[lattice_id]
                        .decode_failures
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            sink.commit(&decoded);
            let now = Instant::now();
            sink.record_latency(
                lattice_id,
                now.duration_since(prev).as_nanos() as u64,
                (now.duration_since(epoch).as_nanos() as u64).saturating_sub(emitted_ns),
            );
            counters.per_lattice[lattice_id]
                .decoded
                .fetch_add(1, Ordering::Relaxed);
            worker_counters.decoded.fetch_add(1, Ordering::Relaxed);
            prev = now;
        }
        worker_counters.batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the source stage hands back when generation ends.
struct SourceRun {
    depth_timeline: Vec<DepthSample>,
    generation_elapsed_ns: f64,
    final_backlog: u64,
    lattice_stats: Vec<LatticeGenStats>,
    lattice_shed: Vec<Vec<u64>>,
    shed_tallies: Vec<ResidualTally>,
    reports: Vec<StageReport>,
    trace: Option<SyndromeTrace>,
    noise_epochs: Vec<Vec<NoiseEpoch>>,
}

/// Where the source stage's rounds come from: the live seeded sources (with
/// scripted elasticity and fault-plan bursts applied) or a recorded trace
/// re-served verbatim.  Everything downstream of the feed — pacing, QoS
/// admission, routing, decode — is byte-identical between the two, which is
/// what makes replay a regression oracle.
enum RoundFeed {
    Live(Box<InterleavedSource>),
    Replay(TraceSource),
}

impl RoundFeed {
    /// Fills `out` with the next round; `false` when the feed has ended.  The
    /// live feed reuses `out`'s buffers; a replay re-materialises each
    /// recorded round (replays are regression runs, not the measured path).
    fn next_round_into(&mut self, out: &mut SourcedRound) -> bool {
        match self {
            RoundFeed::Live(source) => source.next_round_into(out),
            RoundFeed::Replay(source) => source.next_round().map(|round| *out = round).is_some(),
        }
    }

    /// Scripted actions fired since the last drain.  A replay feed never
    /// fires any: the recorded stream already reflects them.
    fn take_elastic_events(&mut self) -> Vec<ElasticEvent> {
        match self {
            RoundFeed::Live(source) => source.take_elastic_events(),
            RoundFeed::Replay(_) => Vec::new(),
        }
    }

    fn burst_overlay(&self, lattice_id: usize) -> Option<crate::source::BurstOverlay> {
        match self {
            RoundFeed::Live(source) => source.burst_overlay(lattice_id),
            RoundFeed::Replay(_) => None,
        }
    }

    fn noise_epochs(&self, set: &LatticeSet) -> Vec<Vec<NoiseEpoch>> {
        match self {
            RoundFeed::Live(source) => source.noise_epochs(),
            RoundFeed::Replay(_) => vec![Vec::new(); set.len()],
        }
    }
}

/// Applies the elastic events the feed fired during the last emission:
/// journals them, arms the codec's retirement watermark (so stragglers for
/// a retired lattice quarantine instead of decoding), and captures the
/// retiring lattice's backlog at the instant its generation stopped.
fn apply_elastic_events(
    feed: &mut RoundFeed,
    codec: &PacketCodec,
    counters: &RuntimeCounters,
    lattice_stats: &mut [LatticeGenStats],
    obs: &ObsPlane,
    epoch: Instant,
) {
    for event in feed.take_elastic_events() {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        match event.kind {
            ElasticEventKind::Added => {
                obs.publish(
                    EventKind::LatticeAdded,
                    EventSeverity::Info,
                    Some(event.lattice_id),
                    None,
                    now_ns,
                    event.at_round,
                );
            }
            ElasticEventKind::Retired { final_round } => {
                codec.retire_lattice(event.lattice_id, final_round);
                let lattice = event.lattice_id as usize;
                lattice_stats[lattice].final_backlog = counters.per_lattice[lattice].backlog();
                obs.publish(
                    EventKind::LatticeRetired,
                    EventSeverity::Warning,
                    Some(event.lattice_id),
                    None,
                    now_ns,
                    final_round,
                );
            }
            // Re-tunes are physics, not topology: they surface as noise
            // epochs in the report, not as journal events.
            ElasticEventKind::Retuned => {}
        }
    }
}

/// Retries `attempt` until it succeeds, counting every refusal as one
/// backpressure spin against the lattice, for at most `watchdog`: the one
/// lossless wait of a Block lane, whichever bound (budget or channel
/// capacity) is refusing.  Returns whether the attempt succeeded and how often it was
/// refused.  The clock is read only from the first refusal on, and then once
/// per 256 spins.
fn spin_until(
    lattice_counters: &LatticeCounters,
    watchdog: Duration,
    mut attempt: impl FnMut() -> bool,
) -> (bool, u64) {
    let mut spins = 0u64;
    let mut deadline: Option<Instant> = None;
    while !attempt() {
        lattice_counters
            .backpressure_spins
            .fetch_add(1, Ordering::Relaxed);
        spins += 1;
        let limit = *deadline.get_or_insert_with(|| Instant::now() + watchdog);
        if spins & 0xFF == 0 && Instant::now() >= limit {
            return (false, spins);
        }
        std::hint::spin_loop();
        thread::yield_now();
    }
    (true, spins)
}

/// Where round `round` of lattice `lattice_id` is placed: rounds spread over
/// the pool, offset by lattice id so co-cadenced lattices don't all land on
/// the same channel; stealing rebalances whatever placement gets wrong.  For
/// a single lattice this is plain round-robin.
fn spread_channel(lattice_id: u32, round: u64, channels: usize) -> usize {
    ((u64::from(lattice_id) + round) % channels as u64) as usize
}

/// The source stage of `graph`: paced interleaved generation, encoding
/// into one reused record, gate admission under each lattice's QoS lane,
/// spread placement into the channels, depth sampling — plus the
/// run's hostile-stream hooks: scheduled burst overlays, on-the-wire
/// corruption, channel-stall emulation and the backpressure watchdog.
fn run_source(
    graph: &PipelineGraph<'_>,
    gate: &mut QosGate,
    replay: Option<SyndromeTrace>,
    counters: &RuntimeCounters,
    epoch: Instant,
) -> SourceRun {
    let PipelineGraph {
        config,
        set,
        codec,
        channels,
        obs,
        injector,
        watchdog,
        record_trace,
        ..
    } = graph;
    // How many rounds each lattice will emit: the trace's own tallies on
    // replay (a retired lattice's recorded stream is already truncated), the
    // configured per-lattice rounds live (retirement is handled by its
    // elastic event as it fires).
    let mut expected_rounds: Vec<u64> = set.iter().map(|(_, spec, _)| spec.rounds).collect();
    let feed_total: u64;
    let mut feed = match replay {
        Some(trace) => {
            expected_rounds = vec![0; set.len()];
            for round in &trace.rounds {
                expected_rounds[round.lattice_id as usize] += 1;
            }
            feed_total = trace.len() as u64;
            RoundFeed::Replay(
                TraceSource::new(trace, set).expect("trace validated against the machine"),
            )
        }
        None => {
            let mut source = InterleavedSource::new(set, &config.cycle_time)
                .expect("config validated in StreamingEngine::with_machine");
            for burst in &injector.plan().bursts {
                let lattice_id = burst.lattice_id as usize;
                source
                    .set_burst(lattice_id, set.spec(lattice_id).noise, burst.overlay)
                    .expect("burst overlay validated in StreamingEngine::with_machine");
            }
            source
                .apply_script(&config.scenario)
                .expect("scenario script validated in StreamingEngine::with_machine");
            feed_total = set.total_rounds();
            RoundFeed::Live(Box::new(source))
        }
    };
    let mut recorder = record_trace.then(|| TraceRecorder::new(set));
    let total_rounds = feed_total;
    let mut depth = DepthSink::new(total_rounds, config.max_depth_samples);
    // The round's encoded record, overwritten every round: it rests here
    // while its channel is full, so a Block-lane round exists in
    // exactly one place at every instant of a stall, and a shed round is
    // simply never sent.
    let words = codec.words_per_packet();
    let mut record = vec![0u64; words];
    let mut lattice_stats = vec![LatticeGenStats::default(); set.len()];
    let mut lattice_shed: Vec<Vec<u64>> = vec![Vec::new(); set.len()];
    let mut shed_tallies = vec![ResidualTally::default(); set.len()];
    // The one place a shed round is accounted for, whichever seam shed it
    // (budget lane, full or stalled channel, watchdog, poisoned record).
    // With the residual analysis on it is classified here, the moment it is
    // shed: it gets the identity correction, so its residual *is* its seeded
    // error ([`classify_shed_round`] reads it in place, allocation-free).
    let mut account_shed = |sourced: &SourcedRound| {
        let lattice_id = sourced.lattice_id as usize;
        let lattice_counters = &counters.per_lattice[lattice_id];
        lattice_counters.dropped.fetch_add(1, Ordering::Relaxed);
        if config.streams_residuals() {
            let (x, z) = classify_shed_round(set.lattice(lattice_id), &sourced.error);
            shed_tallies[lattice_id].record_states(x, z);
            if x != LogicalState::Success || z != LogicalState::Success {
                lattice_counters
                    .shed_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if config.track_shed_rounds {
            lattice_shed[lattice_id].push(sourced.round);
        }
    };
    let mut emitted_total = 0u64;
    // One round and one packet for the whole run, refilled in place: the
    // loop below builds no syndrome or error of its own.
    let mut sourced = SourcedRound::default();
    let mut packet = SyndromePacket::new(0, 0, 0, &sourced.syndrome);

    while feed.next_round_into(&mut sourced) {
        // The tap sees every emitted round — including ones the gate will
        // shed — so a replay of the trace regenerates the *offered* load,
        // not just the admitted slice.
        if let Some(recorder) = recorder.as_mut() {
            recorder.record(&sourced);
        }
        // Actions fired during this emission logically precede the round:
        // arm retirement watermarks before the round is routed.
        apply_elastic_events(&mut feed, codec, counters, &mut lattice_stats, obs, epoch);
        if sourced.due_ns > 0.0 {
            // Pace generation to the lattice's hardware cadence.
            // `yield_now` keeps the spin cooperative on machines with
            // fewer cores than threads; the *measured* inter-arrival time
            // (not the nominal cadence) is what feeds the model
            // comparison, so imprecise pacing degrades the experiment's
            // rate, never its honesty.
            let target_ns = sourced.due_ns as u128;
            while epoch.elapsed().as_nanos() < target_ns {
                std::hint::spin_loop();
                thread::yield_now();
            }
        }
        let lattice_id = sourced.lattice_id;
        let emitted_ns = epoch.elapsed().as_nanos() as u64;
        // Burst boundaries are journaled as the stream crosses them — the
        // window itself is applied inside the source, keyed by round index
        // only, so the episode replays exactly.
        if let Some(overlay) = feed.burst_overlay(lattice_id as usize) {
            if sourced.round == overlay.start_round {
                obs.publish(
                    EventKind::BurstStart,
                    EventSeverity::Warning,
                    Some(lattice_id),
                    None,
                    emitted_ns,
                    overlay.start_round,
                );
            } else if sourced.round == overlay.end_round() {
                obs.publish(
                    EventKind::BurstEnd,
                    EventSeverity::Info,
                    Some(lattice_id),
                    None,
                    emitted_ns,
                    overlay.end_round(),
                );
            }
        }
        packet.lattice_id = lattice_id;
        packet.round = sourced.round;
        packet.emitted_ns = emitted_ns;
        packet.syndrome.clone_from(&sourced.syndrome);
        // A scheduled corruption poisons the encoded record *after* the
        // checksum is written — a bit flipped on the wire, not at the
        // source — so the worker's codec must catch it.
        let poison = injector.corrupt(lattice_id, sourced.round);
        if codec.carries_errors() {
            // The residual analysis rides the wire: the round's seeded error
            // travels with its syndrome so the decoding worker can classify
            // the residual the moment it commits.
            codec.encode_with_error(&packet, &sourced.error, &mut record);
        } else {
            codec.encode(&packet, &mut record);
        }
        if let Some((word, bit)) = poison {
            record[word % words] ^= 1u64 << (bit & 63);
        }
        let lattice_counters = &counters.per_lattice[lattice_id as usize];
        lattice_counters.generated.fetch_add(1, Ordering::Relaxed);
        let channel_index = spread_channel(lattice_id, sourced.round, channels.len());
        let channel = &channels[channel_index];
        // Whether an injected stall is holding this round's channel shut
        // (asking also arms a stall whose round has come).
        let channel_stalled = || {
            injector.has_stalls()
                && injector.stall_active(
                    channel_index,
                    emitted_total,
                    epoch.elapsed().as_nanos() as u64,
                )
        };
        // `delivered`: the record reached a channel.  A delivered *poisoned*
        // record is shed-accounted below (the worker will quarantine it, so
        // it never counts as enqueued) — the backlog, budget, frame and
        // residual books stay exact.
        let delivered = match gate.policy(lattice_id as usize) {
            PushPolicy::Block => {
                // Two bounds, both lossless: the lattice's own budget lane
                // first, then a channel slot; every refused retry is
                // one counted backpressure spin.  Stall *events* are
                // published once per contended round (value = spins), not
                // per spin — the journal records episodes, the counters
                // record magnitude.  Each lane spins at most `watchdog`
                // long; past that the round is force-shed with a
                // WatchdogTrip so a dead consumer cannot hang the run.
                let (admitted, budget_spins) = spin_until(lattice_counters, *watchdog, || {
                    gate.admit(lattice_id as usize, lattice_counters) != Admission::Blocked
                });
                if budget_spins > 0 {
                    obs.publish(
                        EventKind::BudgetExhausted,
                        EventSeverity::Warning,
                        Some(lattice_id),
                        None,
                        emitted_ns,
                        budget_spins,
                    );
                }
                let sent = admitted && {
                    let (sent, send_spins) = spin_until(lattice_counters, *watchdog, || {
                        !channel_stalled() && channel.try_send(&record)
                    });
                    if send_spins > 0 {
                        obs.publish(
                            EventKind::BackpressureStall,
                            EventSeverity::Info,
                            Some(lattice_id),
                            None,
                            emitted_ns,
                            send_spins,
                        );
                    }
                    sent
                };
                if !sent {
                    account_shed(&sourced);
                    obs.publish(
                        EventKind::WatchdogTrip,
                        EventSeverity::Critical,
                        Some(lattice_id),
                        None,
                        epoch.elapsed().as_nanos() as u64,
                        sourced.round,
                    );
                }
                sent
            }
            PushPolicy::Drop => {
                // Shed when the lattice's budget lane refuses *or* the
                // channel is full (or stalled); a shed round enters the
                // frame path as an identity correction later.
                let admission = gate.admit(lattice_id as usize, lattice_counters);
                let stalled = channel_stalled();
                let delivered =
                    admission == Admission::Granted && !stalled && channel.try_send(&record);
                if !delivered {
                    account_shed(&sourced);
                    if admission != Admission::Granted {
                        // Shed at the budget lane, not at a full channel.
                        obs.publish(
                            EventKind::BudgetExhausted,
                            EventSeverity::Warning,
                            Some(lattice_id),
                            None,
                            emitted_ns,
                            sourced.round,
                        );
                    }
                    obs.publish(
                        EventKind::Shed,
                        EventSeverity::Warning,
                        Some(lattice_id),
                        None,
                        emitted_ns,
                        sourced.round,
                    );
                }
                delivered
            }
        };
        if delivered && poison.is_some() {
            // The poisoned record is on the wire; the worker will reject
            // it, so the round is shed-accounted *now* and never counted
            // as enqueued.
            account_shed(&sourced);
            injector.corruption_delivered();
        } else if delivered {
            lattice_counters.enqueued.fetch_add(1, Ordering::Relaxed);
        }
        let stats = &mut lattice_stats[lattice_id as usize];
        // Reuse the emission timestamp: it is this round's generation
        // instant, and it spares a second clock read per round.
        stats.gen_elapsed_ns = emitted_ns as f64;
        if sourced.round + 1 == expected_rounds[lattice_id as usize] {
            // This lattice's generation just stopped: its backlog at this
            // instant is what its per-lattice model comparison predicts.
            stats.final_backlog = lattice_counters.backlog();
        }
        depth.observe(emitted_total, counters, || {
            (
                epoch.elapsed().as_nanos() as u64,
                channels.iter().map(|c| c.len() as u64).sum(),
            )
        });
        emitted_total += 1;
    }
    // The terminal `next_round` call still fires due actions (a retire
    // scheduled for the final round, an add that never came online): drain
    // them so their journal entries and watermarks land.
    apply_elastic_events(&mut feed, codec, counters, &mut lattice_stats, obs, epoch);
    let generation_elapsed_ns = epoch.elapsed().as_nanos() as f64;
    // The backlog at the instant generation stops is the quantity the
    // closed-form model predicts (rounds keep arriving only while the
    // machine runs); the workers drain the remainder afterwards.
    let final_backlog = counters.backlog();
    let totals = counters.snapshot();
    let source_report = StageReport {
        accepted: totals.generated,
        emitted: totals.enqueued,
        rejected: totals.dropped,
        stall_cycles: totals.backpressure_spins,
        ..StageReport::named("source")
    };
    let depth_report = depth.report("depth");
    SourceRun {
        depth_timeline: depth.finish(),
        generation_elapsed_ns,
        final_backlog,
        lattice_stats,
        lattice_shed,
        shed_tallies,
        reports: vec![source_report, depth_report],
        noise_epochs: feed.noise_epochs(set),
        trace: recorder.map(TraceRecorder::into_trace),
    }
}

/// The assembled pipeline: codec and one channel per worker, ready to run a
/// machine's streams through a worker pool.
#[derive(Debug)]
pub struct PipelineGraph<'a> {
    config: &'a MachineConfig,
    set: &'a LatticeSet,
    codec: PacketCodec,
    channels: Vec<Channel>,
    obs: ObsPlane,
    injector: FaultInjector,
    watchdog: Duration,
    replay: Option<SyndromeTrace>,
    record_trace: bool,
}

impl<'a> PipelineGraph<'a> {
    /// Wires the graph for `config`'s machine: one channel per worker of
    /// `queue_capacity / workers` slots.  The observability plane is built
    /// from `config.obs`.
    #[must_use]
    pub fn new(config: &'a MachineConfig, set: &'a LatticeSet, options: PipelineOptions) -> Self {
        let obs = ObsPlane::with_observer(config.obs.clone(), options.observer);
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
        let channels = (0..config.workers)
            .map(|_| Channel::new(per_channel_capacity, codec.words_per_packet()))
            .collect();
        PipelineGraph {
            config,
            set,
            codec,
            channels,
            obs,
            injector: FaultInjector::new(config.fault.clone()),
            watchdog: options.watchdog,
            replay: options.replay,
            record_trace: options.record_trace,
        }
    }

    /// The channel fan-out of this graph (one per worker).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The graph's observability plane.
    #[must_use]
    pub fn obs(&self) -> &ObsPlane {
        &self.obs
    }

    /// Runs the pipeline to completion: the calling thread becomes the
    /// source, `config.workers` decode threads are spawned for the
    /// duration of the call.  Returns once every generated round has been
    /// decoded (or shed) and all workers have exited.
    #[must_use]
    pub fn run(mut self, factory: &dyn DecoderFactory, counters: &RuntimeCounters) -> PipelineRun {
        let replay = self.replay.take();
        let graph = &self;
        let (config, set) = (graph.config, graph.set);
        let (codec, channels) = (&graph.codec, &graph.channels);
        // Admission is the source's own state: workers never see the gate.
        let mut gate = QosGate::for_machine(config, set);
        let (obs, injector) = (&graph.obs, &graph.injector);
        let done = AtomicBool::new(false);
        // The sampler outlives the source: it keeps sampling while workers
        // drain the channels, and stops only after they have joined.
        let sampler_done = AtomicBool::new(false);
        let epoch = Instant::now();

        let (worker_results, source_run) = thread::scope(|s| {
            let sampler = if obs.config().snapshot_cadence_us > 0 {
                let sampler_done = &sampler_done;
                Some(s.spawn(move || run_sampler(obs, counters, channels, sampler_done, epoch)))
            } else {
                None
            };
            let handles: Vec<_> = (0..config.workers)
                .map(|worker_id| {
                    let done = &done;
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

            let source_run = run_source(graph, &mut gate, replay, counters, epoch);
            done.store(true, Ordering::Release);

            let worker_results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            sampler_done.store(true, Ordering::Release);
            if let Some(handle) = sampler {
                handle.thread().unpark();
                handle.join().expect("sampler thread panicked");
            }
            (worker_results, source_run)
        });
        let elapsed_s = epoch.elapsed().as_secs_f64();

        let mut stage_reports = source_run.reports;
        stage_reports.insert(1, gate.report("gate"));
        for (index, channel) in channels.iter().enumerate() {
            stage_reports.push(channel.report(format!("channel.{index}")));
        }
        let mut worker_outputs = Vec::with_capacity(worker_results.len());
        for (output, decode_report) in worker_results {
            worker_outputs.push(output);
            stage_reports.push(decode_report);
        }
        PipelineRun {
            worker_outputs,
            depth_timeline: source_run.depth_timeline,
            generation_elapsed_ns: source_run.generation_elapsed_ns,
            final_backlog: source_run.final_backlog,
            lattice_stats: source_run.lattice_stats,
            lattice_shed: source_run.lattice_shed,
            shed_tallies: source_run.shed_tallies,
            stage_reports,
            elapsed_s,
            snapshots: obs.take_snapshots(),
            journal: obs.journal_snapshot(),
            fault: injector.snapshot(),
            trace: source_run.trace,
            noise_epochs: source_run.noise_epochs,
        }
    }
}

/// The snapshot sampler: every `snapshot_cadence_us` it reads the live
/// counters, queue depths, latency quantiles and journal totals into one
/// [`MetricsSnapshot`], publishes a [`EventKind::VerdictFlip`] event when
/// the backlog trend changes direction (growing = the machine is falling
/// behind, [`EventSeverity::Critical`]; shrinking again = recovery,
/// [`EventSeverity::Info`]), and pushes the sample into the plane's bounded
/// log.  A final sample is always taken after the workers exit, so even a
/// run shorter than one cadence gets exactly one snapshot of its end state.
fn run_sampler(
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
                let (severity, value) = if now_falling {
                    (EventSeverity::Critical, backlog)
                } else {
                    (EventSeverity::Info, backlog)
                };
                obs.publish(
                    EventKind::VerdictFlip,
                    severity,
                    None,
                    None,
                    elapsed_ns,
                    value,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObsConfig;
    use crate::lattice_set::LatticeSpec;
    use crate::source::{NoiseSpec, SyndromeSource};
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};

    fn greedy_factory() -> impl DecoderFactory {
        || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    }

    /// Deterministic work stealing: worker 0's home channel is empty, every
    /// packet sits in channel 1, and the source is already done.  Worker 0
    /// must steal and decode all of them, counting each theft.
    #[test]
    fn starved_worker_steals_from_a_foreign_channel() {
        let mut spec = LatticeSpec::new(3);
        spec.rounds = 20;
        let set = LatticeSet::new(vec![spec]).unwrap();
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channels = [
            Channel::new(64, codec.words_per_packet()),
            Channel::new(64, codec.words_per_packet()),
        ];
        let mut record = vec![0u64; codec.words_per_packet()];
        let mut source = SyndromeSource::new(
            set.lattice(0).clone(),
            NoiseSpec::PureDephasing { p: 0.1 },
            3,
        )
        .unwrap();
        for round in 0..20u64 {
            let packet = SyndromePacket::new(0, round, 0, &source.next_syndrome());
            codec.encode(&packet, &mut record);
            assert!(channels[1].try_send(&record));
        }
        let counters = RuntimeCounters::new(1, 2);
        let done = AtomicBool::new(true);
        let factory = greedy_factory();
        let obs = ObsPlane::new(ObsConfig::default());
        let injector = FaultInjector::disabled();
        let (output, decode_report) = run_worker(WorkerSeat {
            worker_id: 0,
            set: &set,
            codec: &codec,
            channels: &channels,
            counters: &counters,
            done: &done,
            epoch: Instant::now(),
            factory: &factory,
            record_corrections: true,
            correction_cap: None,
            batch_size: 4,
            obs: &obs,
            injector: &injector,
        });
        let snap = counters.snapshot();
        assert_eq!(snap.decoded, 20);
        assert_eq!(snap.stolen, 20, "every packet was a steal");
        assert_eq!(snap.batches, 5, "20 packets in windows of 4");
        // The per-worker slice seats the same counts on worker 0.
        let worker = counters.per_worker[0].snapshot();
        assert_eq!(worker.decoded, 20);
        assert_eq!(worker.stolen, 20);
        assert_eq!(worker.batches, 5);
        assert_eq!(counters.per_worker[1].snapshot().decoded, 0);
        assert_eq!(output.per_lattice[0].frame.recorded_cycles(), 20);
        let rounds: Vec<u64> = output.corrections.iter().map(|c| c.round).collect();
        assert_eq!(rounds, (0..20).collect::<Vec<u64>>());
        assert!(channels.iter().all(Channel::is_empty));
        // The stolen-from channel's books balance.
        let victim = channels[1].report("channel.1");
        assert_eq!((victim.accepted, victim.emitted), (20, 20));
        assert_eq!(decode_report.stage, "decode.0");
        assert_eq!(decode_report.accepted, 20);
    }

    /// A two-lattice worker routes each packet to its lattice's state: the
    /// d=3 and d=5 rounds land in separate frames with separate counters,
    /// even when interleaved in one channel.
    #[test]
    fn worker_routes_packets_by_lattice_id() {
        let mut spec3 = LatticeSpec::new(3);
        spec3.rounds = 6;
        spec3.seed = 1;
        let mut spec5 = LatticeSpec::new(5);
        spec5.rounds = 4;
        spec5.seed = 2;
        let set = LatticeSet::new(vec![spec3, spec5]).unwrap();
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channels = [Channel::new(64, codec.words_per_packet())];
        let mut record = vec![0u64; codec.words_per_packet()];
        for (lattice_id, rounds, seed) in [(0u32, 6u64, 1u64), (1, 4, 2)] {
            let mut source = SyndromeSource::new(
                set.lattice(lattice_id as usize).clone(),
                NoiseSpec::PureDephasing { p: 0.1 },
                seed,
            )
            .unwrap();
            for round in 0..rounds {
                let packet = SyndromePacket::new(lattice_id, round, 0, &source.next_syndrome());
                codec.encode(&packet, &mut record);
                assert!(channels[0].try_send(&record));
            }
        }
        let counters = RuntimeCounters::new(2, 1);
        let done = AtomicBool::new(true);
        let factory = greedy_factory();
        let obs = ObsPlane::new(ObsConfig::default());
        let injector = FaultInjector::disabled();
        let (output, _) = run_worker(WorkerSeat {
            worker_id: 0,
            set: &set,
            codec: &codec,
            channels: &channels,
            counters: &counters,
            done: &done,
            epoch: Instant::now(),
            factory: &factory,
            record_corrections: true,
            correction_cap: None,
            batch_size: 4,
            obs: &obs,
            injector: &injector,
        });
        assert_eq!(counters.snapshot().decoded, 10);
        assert_eq!(counters.per_lattice[0].snapshot().decoded, 6);
        assert_eq!(counters.per_lattice[1].snapshot().decoded, 4);
        assert_eq!(output.per_lattice[0].frame.recorded_cycles(), 6);
        assert_eq!(output.per_lattice[1].frame.recorded_cycles(), 4);
        assert_eq!(output.per_lattice[0].frame.len(), set.lattice(0).num_data());
        assert_eq!(output.per_lattice[1].frame.len(), set.lattice(1).num_data());
        assert_eq!(
            output
                .corrections
                .iter()
                .filter(|c| c.lattice_id == 1)
                .count(),
            4
        );
    }

    #[test]
    fn spread_placement_offsets_round_robin_by_lattice_id() {
        let placed = |lattice_id| -> Vec<usize> {
            (0..7)
                .map(|round| spread_channel(lattice_id, round, 3))
                .collect()
        };
        assert_eq!(placed(0), [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(placed(1), [1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(placed(5), [2, 0, 1, 2, 0, 1, 2]);
        // One channel takes everything.
        assert_eq!(spread_channel(4, 9, 1), 0);
    }

    /// The full graph with default options reproduces the engine contract:
    /// every round decoded exactly once, every channel's books balanced at
    /// quiescence.
    #[test]
    fn default_graph_decodes_every_round_and_balances_the_books() {
        let mut config = MachineConfig::new(&[3, 3], 11);
        for spec in &mut config.lattices {
            spec.rounds = 100;
            spec.cadence_cycles = 0;
        }
        config.workers = 2;
        config.queue_capacity = 64;
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        let counters = RuntimeCounters::new(set.len(), config.workers);
        let graph = PipelineGraph::new(&config, &set, PipelineOptions::default());
        assert_eq!(graph.channels(), 2);
        let factory = greedy_factory();
        let run = graph.run(&factory, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.generated, 200);
        assert_eq!(snap.decoded, 200);
        assert_eq!(snap.dropped, 0);
        assert_eq!(run.worker_outputs.len(), 2);
        assert!(!run.depth_timeline.is_empty());
        assert_eq!(run.lattice_shed, vec![Vec::<u64>::new(); 2]);
        // The stage reports are the graph, and nothing else.
        let names: Vec<&str> = run.stage_reports.iter().map(|r| r.stage.as_str()).collect();
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
        let channel_flow: u64 = run
            .stage_reports
            .iter()
            .filter(|r| r.stage.starts_with("channel."))
            .map(|r| r.emitted)
            .sum();
        assert_eq!(channel_flow, 200, "every round passed through a channel");
        for report in run
            .stage_reports
            .iter()
            .filter(|r| r.stage.starts_with("channel."))
        {
            assert_eq!(
                report.accepted, report.emitted,
                "pushed == popped at quiescence"
            );
        }
    }

    /// An injected worker crash is caught, journaled and answered by a
    /// restart that adopts the dead worker's frame shard: every generated
    /// round is still decoded exactly once.
    #[test]
    fn crashed_worker_is_restarted_and_no_round_is_lost() {
        crate::fault::silence_injected_crash_panics();
        let mut config = MachineConfig::new(&[3, 3], 11);
        for spec in &mut config.lattices {
            spec.rounds = 100;
            spec.cadence_cycles = 0;
        }
        // One worker: with a second one stealing, worker 0 is not guaranteed
        // to commit the 10 rounds that arm its crash.
        config.workers = 1;
        config.queue_capacity = 64;
        config.fault = crate::fault::FaultPlan::default().crash_worker(0, 10);
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        let counters = RuntimeCounters::new(set.len(), config.workers);
        let graph = PipelineGraph::new(&config, &set, PipelineOptions::default());
        let factory = greedy_factory();
        let run = graph.run(&factory, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.generated, 200);
        assert_eq!(snap.decoded, 200, "the restarted worker drains the rest");
        assert_eq!(snap.dropped, 0);
        assert_eq!(run.fault.crashes, 1);
        assert_eq!(run.journal.counts.worker_crash, 1);
        assert_eq!(run.journal.counts.worker_restart, 1);
        // The crashed worker's shard survived: the merged per-lattice frames
        // carry every round.
        let committed: u64 = run
            .worker_outputs
            .iter()
            .flat_map(|w| w.per_lattice.iter())
            .map(|l| l.frame.recorded_cycles())
            .sum();
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
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        let counters = RuntimeCounters::new(set.len(), config.workers);
        let graph = PipelineGraph::new(&config, &set, PipelineOptions::default());
        let factory = greedy_factory();
        let run = graph.run(&factory, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.generated, 100);
        assert_eq!(snap.decoded, 99, "the poisoned round is not decoded");
        assert_eq!(snap.dropped, 1, "…it is shed-accounted");
        assert_eq!(snap.quarantined, 1, "…and quarantined at the worker");
        assert_eq!(run.fault.corruptions, 1);
        assert_eq!(run.journal.counts.quarantine, 1);
        assert_eq!(run.lattice_shed[0], vec![5]);
    }

    /// A channel whose consumer never drains (an infinite injected stall on
    /// a Block lane) trips the watchdog: the run ends with force-shed
    /// rounds and WatchdogTrip events instead of hanging forever.
    #[test]
    fn dead_consumer_trips_the_watchdog_instead_of_hanging() {
        let mut config = MachineConfig::new(&[3], 3);
        config.lattices[0].rounds = 4;
        config.lattices[0].cadence_cycles = 0;
        config.workers = 1;
        config.queue_capacity = 16;
        config.fault = crate::fault::FaultPlan::default().stall_channel(0, 0, u64::MAX);
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        let counters = RuntimeCounters::new(set.len(), config.workers);
        let options = PipelineOptions {
            watchdog: Duration::from_millis(20),
            ..PipelineOptions::default()
        };
        let graph = PipelineGraph::new(&config, &set, options);
        let factory = greedy_factory();
        let run = graph.run(&factory, &counters);
        let snap = counters.snapshot();
        assert_eq!(snap.generated, 4);
        assert_eq!(snap.decoded, 0, "the channel never delivered a round");
        assert_eq!(snap.dropped, 4, "every round was force-shed");
        assert_eq!(run.journal.counts.watchdog_trip, 4);
        assert_eq!(run.fault.stalls, 1);
        assert_eq!(run.lattice_shed[0], vec![0, 1, 2, 3]);
    }
}
