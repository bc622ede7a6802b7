//! The source stage: paced generation into the run's one channel.
//!
//! `run_source` runs on the thread that called the engine.  It draws rounds
//! from a clone of the machine's [`InterleavedSource`] — the pipeline's one
//! feed — paces each to its lattice's cadence, encodes it into one reused
//! record, sends it into the run's one channel under the machine's
//! [`PushPolicy`], and samples the backlog into a depth sink.  The ring is
//! the only bound a round meets: under `Block` a full ring stalls the
//! source — for at most the backpressure watchdog's window ([`WATCHDOG`]),
//! past which the round is force-shed, so a dead consumer cannot hang the
//! run — and under `Drop` it sheds the round.  What it hands back when
//! generation ends is a `SourceRun`.

use crate::config::{MachineConfig, PushPolicy};
use crate::lattice_set::LatticeSet;
use crate::obs::{EventJournal, EventKind, EventSeverity};
use crate::packet::{PacketCodec, SyndromePacket};
use crate::source::{InterleavedSource, NoiseEpoch, SourcedRound};
use crate::stage::{pause, Channel, DepthSink, StageReport};
use crate::telemetry::{bump, DepthSample, LatticeCounters, RuntimeCounters};
use nisqplus_qec::logical::{classify_shed_round, ResidualTally};
use std::time::{Duration, Instant};

/// The Block-policy backpressure watchdog: the longest the producer spins
/// on one round before force-shedding it with a [`EventKind::WatchdogTrip`],
/// so a dead consumer degrades the run into a diagnostic report instead of
/// hanging it forever.  Orders of magnitude beyond any healthy stall, so
/// healthy runs and benches never meet it.
pub(crate) const WATCHDOG: Duration = Duration::from_secs(5);

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
    /// Each lattice's noise timeline over the rounds it emitted.
    pub(crate) noise_epochs: Vec<Vec<NoiseEpoch>>,
}

/// Everything the source stage borrows from the run the engine wired.
pub(crate) struct SourceSeat<'a> {
    /// The machine being run.
    pub(crate) config: &'a MachineConfig,
    /// The lattices being served.
    pub(crate) set: &'a LatticeSet,
    /// The engine's validated live source; every run streams a clone.
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
/// sampling, and the backpressure watchdog, which force-sheds a round the
/// Block policy has waited on for `watchdog` ([`WATCHDOG`] in every run).
pub(crate) fn run_source(seat: SourceSeat<'_>, watchdog: Duration) -> SourceRun {
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
    // Boxed: with the clone on this frame, the d = 5 benchmark's commit
    // p50 read ~1.3x worse (alternated pairs, 2-vCPU VM); boxed it matches.
    let mut feed = Box::new(source.clone());
    // How many rounds each lattice will emit, and the run in all.
    let expected_rounds: Vec<u64> = set.iter().map(|(_, spec, _)| spec.rounds).collect();
    let total_rounds: u64 = expected_rounds.iter().sum();
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
        // One send under the machine's policy.  Block: one bound, lossless —
        // a channel slot.  Every refused retry is one counted backpressure
        // spin, and between retries the source waits until an eighth of
        // the ring has come free; the wait lasts at most `watchdog`, past
        // which the round is force-shed so a dead consumer cannot hang the
        // run.  Drop: a full channel sheds the round at once.
        let (sent, spins) = match config.push_policy {
            PushPolicy::Block => spin_until(
                lattice_counters,
                watchdog,
                &mut turns,
                || channel.try_send(&record),
                || channel.can_resume(),
            ),
            PushPolicy::Drop => (channel.try_send(&record), 0),
        };
        if spins > 0 {
            // Stall *events* are published once per contended round (value
            // = spins), not per spin — the journal records episodes, the
            // counters record magnitude.
            journal.publish(
                EventKind::BackpressureStall,
                EventSeverity::Info,
                Some(lattice_id),
                None,
                emitted_ns,
                spins,
            );
        }
        if sent {
            bump(&lattice_counters.enqueued, 1);
        } else {
            // A shed round enters the frame path as an identity correction
            // later.  Block names it a watchdog trip, at the trip's instant.
            account_shed(&sourced);
            let (kind, severity, at_ns) = match config.push_policy {
                PushPolicy::Block => (
                    EventKind::WatchdogTrip,
                    EventSeverity::Critical,
                    epoch.elapsed().as_nanos() as u64,
                ),
                PushPolicy::Drop => (EventKind::Shed, EventSeverity::Warning, emitted_ns),
            };
            journal.publish(kind, severity, Some(lattice_id), None, at_ns, sourced.round);
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
        noise_epochs: feed.noise_epochs(),
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
        let run = run_source(seat, Duration::from_millis(2));
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
