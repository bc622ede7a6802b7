//! The source stage: paced generation, QoS admission, spread placement.
//!
//! `run_source` runs on the thread that called the engine.  It draws rounds
//! from the machine's [`InterleavedSource`] (or re-serves a recorded trace),
//! paces each to its lattice's cadence, encodes it into one reused record,
//! offers it to the lattice's lane of a [`QosGate`] it owns, places it on
//! channel `(lattice + round) % workers`, and samples the backlog into a
//! depth sink — plus the run's hostile-stream hooks: burst boundaries
//! journaled as the stream crosses them, on-the-wire corruption,
//! channel-stall emulation and the backpressure watchdog.  What it hands
//! back when generation ends is a `SourceRun`.
//! [`PipelineOptions`] carries what a caller may attach to a run — the
//! watchdog window, a trace to replay or record — all of it the source
//! stage's to act on.

use crate::config::{MachineConfig, PushPolicy};
use crate::fault::FaultInjector;
use crate::lattice_set::LatticeSet;
use crate::obs::{EventKind, EventSeverity, ObsPlane};
use crate::packet::{PacketCodec, SyndromePacket};
use crate::scenario::{SyndromeTrace, TraceRecorder, TraceSource};
use crate::source::{ElasticEvent, ElasticEventKind, InterleavedSource, NoiseEpoch, SourcedRound};
use crate::stage::{Admission, Channel, DepthSink, QosGate, StageReport};
use crate::telemetry::{DepthSample, LatticeCounters, RuntimeCounters};
use nisqplus_qec::logical::{classify_shed_round, ResidualTally};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// What a caller may attach to one run
/// ([`StreamingEngine::run_with`](crate::StreamingEngine::run_with)); the
/// pipeline's shape is not among it.
#[derive(Debug)]
pub struct PipelineOptions {
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
    /// [`SyndromeTrace`] is returned in
    /// [`RuntimeOutcome::trace`](crate::RuntimeOutcome::trace).
    pub record_trace: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            watchdog: Duration::from_secs(5),
            replay: None,
            record_trace: false,
        }
    }
}

/// Per-lattice generation statistics tracked by the source stage.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LatticeGenStats {
    /// Elapsed nanoseconds at this lattice's last emission.
    pub(crate) gen_elapsed_ns: f64,
    /// This lattice's backlog at the instant its generation stopped.
    pub(crate) final_backlog: u64,
}

/// What the source stage hands back when generation ends.
#[derive(Debug)]
pub(crate) struct SourceRun {
    /// The down-sampled aggregate + per-lattice backlog timeline.
    pub(crate) depth_timeline: Vec<DepthSample>,
    /// Elapsed nanoseconds when the source finished generating.
    pub(crate) generation_elapsed_ns: f64,
    /// Aggregate backlog at the instant generation stopped.
    pub(crate) final_backlog: u64,
    /// Per-lattice source statistics, in lattice-id order.
    pub(crate) lattice_stats: Vec<LatticeGenStats>,
    /// Per-lattice residual tallies of the *shed* rounds, classified as they
    /// were shed when [`MachineConfig::analyze_residuals`] is on; all-zero
    /// otherwise.
    pub(crate) shed_tallies: Vec<ResidualTally>,
    /// The source-side stage rows: `source`, `gate`, `depth`.
    pub(crate) reports: Vec<StageReport>,
    /// The recorded trace, when [`PipelineOptions::record_trace`] was set.
    pub(crate) trace: Option<SyndromeTrace>,
    /// Each lattice's noise timeline over the rounds it actually emitted
    /// (empty per-lattice lists on replay runs — the trace is the record).
    pub(crate) noise_epochs: Vec<Vec<NoiseEpoch>>,
}

/// Everything the source stage borrows from the run the engine wired.
pub(crate) struct SourceSeat<'a> {
    /// The machine being run.
    pub(crate) config: &'a MachineConfig,
    /// The lattices being served.
    pub(crate) set: &'a LatticeSet,
    /// The engine's validated live source; cloned for a live run, untouched
    /// by a replay.
    pub(crate) source: &'a InterleavedSource,
    /// The shared wire codec.
    pub(crate) codec: &'a PacketCodec,
    /// One channel per worker.
    pub(crate) channels: &'a [Channel],
    /// The shared run counters.
    pub(crate) counters: &'a RuntimeCounters,
    /// The run's observability plane (event journal).
    pub(crate) obs: &'a ObsPlane,
    /// The run's armed fault schedule (corruption and stall hooks).
    pub(crate) injector: &'a FaultInjector,
    /// The run's epoch, for pacing and emission timestamps.
    pub(crate) epoch: Instant,
}

/// Where the source stage's rounds come from: the live seeded sources (with
/// scripted elasticity and burst episodes applied) or a recorded trace
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
                obs.journal().publish(
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
                obs.journal().publish(
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

/// Turns of a source-side busy wait between two `yield_now` calls: enough
/// that a wait costs no syscall per clock read or poll, few enough that on a
/// host with one core the worker gets the processor within microseconds.
const TURNS_PER_YIELD: u32 = 64;

/// One turn of a source-side busy wait — the pacing wait and both Block-lane
/// waits share the run's `turns` count: a `spin_loop` hint, and every
/// [`TURNS_PER_YIELD`]th turn a `yield_now` instead.  Returns whether it
/// yielded.
fn pause(turns: &mut u32) -> bool {
    *turns = turns.wrapping_add(1);
    let yields = *turns % TURNS_PER_YIELD == 0;
    if yields {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
    yields
}

/// Retries `attempt` until it succeeds, counting every refusal as one
/// backpressure spin against the lattice, for at most `watchdog`: the one
/// lossless wait of a Block lane, whichever bound (budget or channel
/// capacity) is refusing.  Between a refusal and the next attempt it waits,
/// uncounted, for `can_resume` — a read that takes no line from a working
/// consumer per round.  Returns whether the attempt succeeded and how often it
/// was refused.  The clock is read at the first refusal, and then once per
/// yield.
fn spin_until(
    lattice_counters: &LatticeCounters,
    watchdog: Duration,
    turns: &mut u32,
    mut attempt: impl FnMut() -> bool,
    mut can_resume: impl FnMut() -> bool,
) -> (bool, u64) {
    let mut spins = 0u64;
    let mut deadline: Option<Instant> = None;
    while !attempt() {
        lattice_counters
            .backpressure_spins
            .fetch_add(1, Ordering::Relaxed);
        spins += 1;
        let limit = *deadline.get_or_insert_with(|| Instant::now() + watchdog);
        loop {
            if pause(turns) && Instant::now() >= limit {
                return (false, spins);
            }
            if can_resume() {
                break;
            }
        }
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

/// The source stage: paced interleaved generation, encoding into one reused
/// record, gate admission under each lattice's QoS lane, spread placement
/// into the channels, depth sampling — plus the run's hostile-stream hooks:
/// burst boundaries, on-the-wire corruption, channel-stall emulation and the
/// backpressure watchdog.
///
/// # Panics
///
/// Panics if `options.replay` holds a trace whose lattice shapes differ from
/// the machine's.
pub(crate) fn run_source(seat: SourceSeat<'_>, options: PipelineOptions) -> SourceRun {
    let SourceSeat {
        config,
        set,
        source,
        codec,
        channels,
        counters,
        obs,
        injector,
        epoch,
    } = seat;
    let PipelineOptions {
        watchdog,
        replay,
        record_trace,
    } = options;
    // Admission is the source's own state: workers never see the gate.
    let mut gate = QosGate::for_machine(config, set);
    // How many rounds each lattice will emit: the trace's own tallies on
    // replay (a retired lattice's recorded stream is already truncated), the
    // configured per-lattice rounds live (retirement is handled by its
    // elastic event as it fires).
    let (expected_rounds, mut feed): (Vec<u64>, RoundFeed) = match replay {
        Some(trace) => {
            let mut recorded = vec![0; set.len()];
            for round in &trace.rounds {
                recorded[round.lattice_id as usize] += 1;
            }
            let replay =
                TraceSource::new(trace, set).expect("the trace matches the engine's machine");
            (recorded, RoundFeed::Replay(replay))
        }
        None => (
            set.iter().map(|(_, spec, _)| spec.rounds).collect(),
            RoundFeed::Live(Box::new(source.clone())),
        ),
    };
    let total_rounds: u64 = expected_rounds.iter().sum();
    let mut recorder = record_trace.then(|| TraceRecorder::new(set));
    let mut depth = DepthSink::new(total_rounds, config.max_depth_samples);
    // The round's encoded record, overwritten every round: it rests here
    // while its channel is full, so a Block-lane round exists in
    // exactly one place at every instant of a stall, and a shed round is
    // simply never sent.
    let words = codec.words_per_packet();
    let mut record = vec![0u64; words];
    let mut lattice_stats = vec![LatticeGenStats::default(); set.len()];
    let mut shed_tallies = vec![ResidualTally::default(); set.len()];
    // The one place a shed round is accounted for, whichever seam shed it
    // (budget lane, full or stalled channel, watchdog, poisoned record).
    // With the residual analysis on it is classified here, the moment it is
    // shed: it gets the identity correction, so its residual *is* its seeded
    // error ([`classify_shed_round`] reads it in place, allocation-free).
    let mut account_shed = |sourced: &SourcedRound| {
        let lattice_id = sourced.lattice_id as usize;
        let dropped = &counters.per_lattice[lattice_id].dropped;
        dropped.fetch_add(1, Ordering::Relaxed);
        if config.streams_residuals() {
            let (x, z) = classify_shed_round(set.lattice(lattice_id), &sourced.error);
            shed_tallies[lattice_id].record_states(x, z);
        }
    };
    let mut emitted_total = 0u64;
    let mut turns = 0u32;
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
            // Pace generation to the lattice's hardware cadence.  The
            // occasional `yield_now` keeps the spin cooperative on machines
            // with fewer cores than threads; the *measured* inter-arrival
            // time (not the nominal cadence) is what feeds the model
            // comparison, so imprecise pacing degrades the experiment's
            // rate, never its honesty.
            let target_ns = sourced.due_ns as u128;
            while epoch.elapsed().as_nanos() < target_ns {
                pause(&mut turns);
            }
        }
        let lattice_id = sourced.lattice_id;
        let emitted_ns = epoch.elapsed().as_nanos() as u64;
        // Burst boundaries are journaled as the stream crosses them — the
        // window itself is applied inside the source, keyed by round index
        // only, so the episode replays exactly.
        if let Some(overlay) = feed.burst_overlay(lattice_id as usize) {
            if sourced.round == overlay.start_round {
                obs.journal().publish(
                    EventKind::BurstStart,
                    EventSeverity::Warning,
                    Some(lattice_id),
                    None,
                    emitted_ns,
                    overlay.start_round,
                );
            } else if sourced.round == overlay.end_round() {
                obs.journal().publish(
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
                // one counted backpressure spin, and between retries the
                // lane waits until an eighth of the bound has come free.
                // Stall *events* are published once per contended round
                // (value = spins), not per spin — the journal records
                // episodes, the counters record magnitude.  Each lane spins
                // at most `watchdog` long; past that the round is force-shed
                // with a WatchdogTrip so a dead consumer cannot hang the run.
                let resume_at = gate.resume_at(lattice_id as usize);
                let (admitted, budget_spins) = spin_until(
                    lattice_counters,
                    watchdog,
                    &mut turns,
                    || gate.admit(lattice_id as usize, lattice_counters) != Admission::Blocked,
                    || resume_at.map_or(true, |at| lattice_counters.outstanding() <= at),
                );
                if budget_spins > 0 {
                    obs.journal().publish(
                        EventKind::BudgetExhausted,
                        EventSeverity::Warning,
                        Some(lattice_id),
                        None,
                        emitted_ns,
                        budget_spins,
                    );
                }
                let sent = admitted && {
                    let (sent, send_spins) = spin_until(
                        lattice_counters,
                        watchdog,
                        &mut turns,
                        || !channel_stalled() && channel.try_send(&record),
                        || channel.can_resume(),
                    );
                    if send_spins > 0 {
                        obs.journal().publish(
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
                    obs.journal().publish(
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
                        obs.journal().publish(
                            EventKind::BudgetExhausted,
                            EventSeverity::Warning,
                            Some(lattice_id),
                            None,
                            emitted_ns,
                            sourced.round,
                        );
                    }
                    obs.journal().publish(
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
    let reports = vec![source_report, gate.report("gate"), depth.report("depth")];
    SourceRun {
        depth_timeline: depth.finish(),
        generation_elapsed_ns,
        final_backlog,
        lattice_stats,
        shed_tallies,
        reports,
        noise_epochs: feed.noise_epochs(set),
        trace: recorder.map(TraceRecorder::into_trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_wait_yields_every_64th_turn_and_on_no_other() {
        let mut turns = 0u32;
        let yielded: Vec<u32> = (1..=256).filter(|_| pause(&mut turns)).collect();
        assert_eq!(yielded, [64, 128, 192, 256]);
    }

    /// The Block-lane wait with the consumer played by the wait predicate
    /// itself, so no schedule is involved: a full 16-slot channel refuses
    /// once, the lane then waits out two receives (an eighth of the ring)
    /// without offering again, and the second offer is accepted.
    #[test]
    fn a_refused_lane_re_offers_once_an_eighth_of_the_ring_is_free() {
        let channel = Channel::new(16, 1);
        while channel.try_send(&[0]) {}
        let refused_filling = channel.report("c").rejected;
        let counters = LatticeCounters::default();
        let (mut turns, mut offers, mut received) = (0u32, 0u64, 0u64);
        let (sent, spins) = spin_until(
            &counters,
            Duration::from_secs(60),
            &mut turns,
            || {
                offers += 1;
                channel.try_send(&[1])
            },
            || {
                received += u64::from(channel.try_recv(&mut [0]));
                channel.can_resume()
            },
        );
        assert!(sent);
        assert_eq!((spins, offers, received), (1, 2, 2));
        assert_eq!(counters.backpressure_spins.load(Ordering::Relaxed), 1);
        assert_eq!(channel.report("c").rejected, refused_filling + 1);
    }

    /// Behind a dead consumer the wait ends at the watchdog, having offered
    /// once and polled — yielding as it went — ever since.
    #[test]
    fn the_watchdog_ends_a_wait_nobody_will_resume() {
        let channel = Channel::new(16, 1);
        while channel.try_send(&[0]) {}
        let (mut turns, mut offers) = (0u32, 0u64);
        let watchdog = Duration::from_millis(5);
        let started = Instant::now();
        let (sent, spins) = spin_until(
            &LatticeCounters::default(),
            watchdog,
            &mut turns,
            || {
                offers += 1;
                channel.try_send(&[1])
            },
            || channel.can_resume(),
        );
        assert!(!sent);
        assert!(started.elapsed() >= watchdog);
        assert_eq!((spins, offers), (1, 1));
        assert!(turns >= TURNS_PER_YIELD);
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
}
