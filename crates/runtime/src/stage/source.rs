//! The source stage: paced generation into the run's one channel.
//!
//! `run_source` runs on the thread that called the engine.  It draws rounds
//! from the machine's [`InterleavedSource`] (or re-serves a recorded trace),
//! paces each to its lattice's cadence, encodes it into one reused record,
//! sends it into the run's one channel under the machine's [`PushPolicy`],
//! and samples the backlog into a depth sink.  The ring is the only bound a
//! round meets: under `Block` a full ring stalls the source — for at most
//! the backpressure watchdog's window, past which the round is force-shed,
//! so a dead consumer cannot hang the run — and under `Drop` it sheds the
//! round.  What it hands back when generation ends is a `SourceRun`.
//! [`PipelineOptions`] carries what a caller may attach to a run — the
//! watchdog window, a trace to replay or record — all of it the source
//! stage's to act on.

use crate::config::{MachineConfig, PushPolicy};
use crate::lattice_set::LatticeSet;
use crate::obs::{EventJournal, EventKind, EventSeverity};
use crate::packet::{PacketCodec, SyndromePacket};
use crate::scenario::{SyndromeTrace, TraceRecorder, TraceSource};
use crate::source::{InterleavedSource, NoiseEpoch, SourcedRound};
use crate::stage::{pause, Channel, DepthSink, StageReport};
use crate::telemetry::{bump, DepthSample, LatticeCounters, RuntimeCounters};
use nisqplus_qec::logical::{classify_shed_round, ResidualTally};
use std::time::{Duration, Instant};

/// What a caller may attach to one run
/// ([`StreamingEngine::run_with`](crate::StreamingEngine::run_with)); the
/// pipeline's shape is not among it.
#[derive(Debug)]
pub struct PipelineOptions {
    /// The Block-policy backpressure watchdog: the longest the producer
    /// spins on one round before force-shedding it with a
    /// [`EventKind::WatchdogTrip`] so a dead consumer degrades the run into
    /// a diagnostic report instead of hanging it forever.  The default is
    /// generous — orders of magnitude beyond any healthy stall — so
    /// existing runs and benches never meet it.
    pub watchdog: Duration,
    /// Re-serve this recorded trace instead of sampling the seeded sources.
    /// The trace's rounds flow through the same channel/decode pipeline
    /// verbatim; the machine's noise specs and re-tunes are ignored
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
    /// The source's stage row.
    pub(crate) source: StageReport,
    /// The depth sink's stage row.
    pub(crate) depth: StageReport,
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
    /// The run's one channel, which every worker pops from.
    pub(crate) channel: &'a Channel,
    /// The shared run counters.
    pub(crate) counters: &'a RuntimeCounters,
    /// The run's event journal.
    pub(crate) journal: &'a EventJournal,
    /// The run's epoch, for pacing and emission timestamps.
    pub(crate) epoch: Instant,
}

/// Where the source stage's rounds come from: the live seeded sources (with
/// their noise schedules applied) or a recorded trace re-served verbatim.
/// Everything downstream of the feed — pacing, the ring, decode — is
/// byte-identical between the two, which is what makes replay a
/// regression oracle.
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

    fn noise_epochs(&self, set: &LatticeSet) -> Vec<Vec<NoiseEpoch>> {
        match self {
            RoundFeed::Live(source) => source.noise_epochs(),
            RoundFeed::Replay(_) => vec![Vec::new(); set.len()],
        }
    }
}

/// Journals the noise-schedule boundary `sourced` crossed.  Out of line and
/// cold: a crossing is rare, so the publish stays off the straight-line code
/// every round of `run_source`'s loop runs.
#[cold]
#[inline(never)]
fn journal_noise_change(journal: &EventJournal, sourced: &SourcedRound, epoch: Instant) {
    journal.publish(
        EventKind::NoiseChange,
        EventSeverity::Info,
        Some(sourced.lattice_id),
        None,
        epoch.elapsed().as_nanos() as u64,
        sourced.round,
    );
}

/// Retries `attempt` until it succeeds, counting every refusal as one
/// backpressure spin against the lattice, for at most `watchdog`: the one
/// lossless wait of the Block policy, on a full ring.  Between
/// a refusal and the next attempt it waits, uncounted, for `can_resume`.
/// That poll reads a line the workers write (the ring's `tail`), so it is
/// asked only on the wait's yield turns, every
/// [`TURNS_PER_YIELD`](crate::stage::TURNS_PER_YIELD)th: the workers' claims
/// and commits keep their lines between two polls.  Returns
/// whether the attempt succeeded and how often it was refused.  The clock is
/// read at the first refusal, and then once per yield.
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
        bump(&lattice_counters.backpressure_spins, 1);
        spins += 1;
        let limit = *deadline.get_or_insert_with(|| Instant::now() + watchdog);
        loop {
            if !pause(turns) {
                continue;
            }
            if Instant::now() >= limit {
                return (false, spins);
            }
            if can_resume() {
                break;
            }
        }
    }
    (true, spins)
}

/// The source stage: paced interleaved generation, encoding into one reused
/// record, sends into the channel under the machine's push policy, depth
/// sampling, and the backpressure watchdog.  A trace in
/// `options.replay` has already been checked against the machine by
/// [`StreamingEngine::run_with`](crate::StreamingEngine::run_with).
pub(crate) fn run_source(seat: SourceSeat<'_>, options: PipelineOptions) -> SourceRun {
    let SourceSeat {
        config,
        set,
        source,
        codec,
        channel,
        counters,
        journal,
        epoch,
    } = seat;
    let PipelineOptions {
        watchdog,
        replay,
        record_trace,
    } = options;
    // How many rounds each lattice will emit: the trace's own tallies on
    // replay, the configured per-lattice rounds live.
    let (expected_rounds, mut feed): (Vec<u64>, RoundFeed) = match replay {
        Some(trace) => {
            let mut recorded = vec![0; set.len()];
            for round in &trace.rounds {
                recorded[round.lattice_id as usize] += 1;
            }
            let replay = TraceSource::new(trace, set).expect("run_with checked the trace");
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
    // while the channel is full, so a Block-policy round exists in
    // exactly one place at every instant of a stall, and a shed round is
    // simply never sent.
    let mut record = vec![0u64; codec.words_per_packet()];
    let mut lattice_stats = vec![LatticeGenStats::default(); set.len()];
    let mut shed_tallies = vec![ResidualTally::default(); set.len()];
    // Rounds the source shed: its own refusals, apart from any round a
    // worker lost to a decoder panic.
    let mut shed_total = 0u64;
    // The one place the source accounts for a round it sheds, whichever
    // seam shed it (full channel, watchdog).
    // With the residual analysis on it is classified here, the moment it is
    // shed: it gets the identity correction, so its residual *is* its seeded
    // error ([`classify_shed_round`] reads it in place, allocation-free).
    let mut account_shed = |sourced: &SourcedRound| {
        let lattice_id = sourced.lattice_id as usize;
        bump(&counters.per_lattice[lattice_id].dropped, 1);
        shed_total += 1;
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
        // The tap sees every emitted round — including ones the source will
        // shed — so a replay of the trace regenerates the *offered* load,
        // not just the admitted slice.
        if let Some(recorder) = recorder.as_mut() {
            recorder.record(&sourced);
        }
        if sourced.noise_change {
            journal_noise_change(journal, &sourced, epoch);
        }
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
        packet.lattice_id = lattice_id;
        packet.round = sourced.round;
        packet.emitted_ns = emitted_ns;
        packet.syndrome.clone_from(&sourced.syndrome);
        if codec.carries_errors() {
            // The residual analysis rides the wire: the round's seeded error
            // travels with its syndrome so the decoding worker can classify
            // the residual the moment it commits.
            codec.encode_with_error(&packet, &sourced.error, &mut record);
        } else {
            codec.encode(&packet, &mut record);
        }
        let lattice_counters = &counters.per_lattice[lattice_id as usize];
        bump(&lattice_counters.generated, 1);
        // `delivered`: the record reached the channel.
        let delivered = match config.push_policy {
            PushPolicy::Block => {
                // One bound, lossless: a channel slot.  Every refused retry
                // is one counted backpressure spin, and between retries the
                // source waits until an eighth of the ring has come free.
                // Stall *events* are published once per contended round
                // (value = spins), not per spin — the journal records
                // episodes, the counters record magnitude.  The wait lasts
                // at most `watchdog`; past that the round is force-shed
                // with a WatchdogTrip so a dead consumer cannot hang the run.
                let (sent, spins) = spin_until(
                    lattice_counters,
                    watchdog,
                    &mut turns,
                    || channel.try_send(&record),
                    || channel.can_resume(),
                );
                if spins > 0 {
                    journal.publish(
                        EventKind::BackpressureStall,
                        EventSeverity::Info,
                        Some(lattice_id),
                        None,
                        emitted_ns,
                        spins,
                    );
                }
                if !sent {
                    account_shed(&sourced);
                    journal.publish(
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
                // Shed when the channel is full; a shed round enters the
                // frame path as an identity correction later.
                let delivered = channel.try_send(&record);
                if !delivered {
                    account_shed(&sourced);
                    journal.publish(
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
        if delivered {
            bump(&lattice_counters.enqueued, 1);
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
            (epoch.elapsed().as_nanos() as u64, channel.len() as u64)
        });
        emitted_total += 1;
    }
    let generation_elapsed_ns = epoch.elapsed().as_nanos() as f64;
    // The backlog at the instant generation stops is the quantity the
    // closed-form model predicts (rounds keep arriving only while the
    // machine runs); the workers drain the remainder afterwards.
    let final_backlog = counters.backlog();
    let totals = counters.snapshot();
    let source_report = StageReport {
        accepted: totals.generated,
        emitted: totals.enqueued,
        rejected: shed_total,
        stall_cycles: totals.backpressure_spins,
        ..StageReport::named("source")
    };
    SourceRun {
        source: source_report,
        depth: depth.report("depth"),
        depth_timeline: depth.finish(),
        generation_elapsed_ns,
        final_backlog,
        lattice_stats,
        shed_tallies,
        noise_epochs: feed.noise_epochs(set),
        trace: recorder.map(TraceRecorder::into_trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::EventKind;
    use crate::stage::TURNS_PER_YIELD;
    use std::sync::atomic::Ordering;

    /// The Block-policy wait with the consumer played by the wait predicate
    /// itself, so no schedule is involved: a full 16-slot channel refuses
    /// once, the source then waits out two receives (an eighth of the ring)
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

    /// A consumer that does not exist: the source runs into a four-slot
    /// channel that nothing pops, under the Block policy.  The first four
    /// rounds fit; each later one waits out the watchdog and is force-shed,
    /// counted dropped and named by one `watchdog_trip` — the run ends
    /// instead of hanging.
    #[test]
    fn dead_consumer_trips_the_watchdog_instead_of_hanging() {
        let mut config = MachineConfig::new(&[3], 3);
        config.lattices[0].rounds = 7;
        config.lattices[0].cadence_cycles = 0;
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        let source = InterleavedSource::new(&set, &config.cycle_time).unwrap();
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channel = Channel::new(4, codec.words_per_packet());
        let counters = RuntimeCounters::new(1, 1);
        let journal = EventJournal::new(64);
        let seat = SourceSeat {
            config: &config,
            set: &set,
            source: &source,
            codec: &codec,
            channel: &channel,
            counters: &counters,
            journal: &journal,
            epoch: Instant::now(),
        };
        let options = PipelineOptions {
            watchdog: Duration::from_millis(2),
            ..PipelineOptions::default()
        };
        let run = run_source(seat, options);
        let totals = counters.snapshot();
        assert_eq!(
            (totals.generated, totals.enqueued, totals.dropped),
            (7, 4, 3)
        );
        assert_eq!((run.source.emitted, run.source.rejected), (4, 3));
        assert_eq!(channel.len(), 4);
        let journal = journal.snapshot();
        let tripped: Vec<u64> = (journal.recent.iter())
            .filter(|event| event.kind == EventKind::WatchdogTrip)
            .map(|event| event.value)
            .collect();
        assert_eq!(tripped, [4, 5, 6]);
        assert_eq!(journal.counts[EventKind::WatchdogTrip], 3);
    }
}
