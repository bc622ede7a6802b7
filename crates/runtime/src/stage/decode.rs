//! The decode stage: the prepared-decoder hot path of one worker, and the
//! supervised worker loop that drives it.
//!
//! A `DecodeStage` owns everything a worker thread needs to turn a wire
//! record into a committed-ready correction without allocating in steady
//! state: one prepared decoder per distinct `(code distance, factory)` pair
//! (lattices of equal distance share layout — [`LatticeSet`] interns them —
//! so prepared sector graphs and scratch arenas are reused across lattices
//! served by the *same* factory), plus per-lattice reusable packet and
//! Pauli buffers.  `DecodeStage::decode` routes a record to
//! its lattice's prepared state by the header's `lattice_id`, validates and
//! unpacks it, decodes both sectors through the allocation-free
//! [`Decoder::decode_into`] path, and composes the sector corrections into
//! one [`PauliString`] borrowed out as a [`DecodedRound`].
//!
//! The stage is purely computational — it owns no queue and no thread.
//! `run_worker` is the thread: it fills batches from the run's one
//! [`Channel`], decodes every record, and commits to a
//! [`FrameSink`](crate::stage::FrameSink) (which also owns the count of
//! committed rounds); the sink and the in-flight batch both outlive a
//! crashed decode attempt.
//!
//! [`Decoder::decode_into`]: nisqplus_decoders::Decoder::decode_into

use crate::fault::{FaultInjector, CRASH_PANIC_MARKER};
use crate::lattice_set::{LatticeDecoder, LatticeSet};
use crate::obs::{EventJournal, EventKind, EventSeverity};
use crate::packet::{PacketCodec, SyndromePacket};
use crate::stage::{pause, Channel, FrameSink, StageReport, WorkerOutput};
use crate::telemetry::{bump, RuntimeCounters};
use nisqplus_decoders::traits::{DecoderFactory, DynDecoder};
use nisqplus_qec::lattice::Sector;
use nisqplus_qec::logical::{classify_both_sectors_into, LogicalState};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One decoded round, borrowed from the decode stage's reusable buffers:
/// valid until the stage decodes its next record.
#[derive(Debug)]
pub struct DecodedRound<'a> {
    /// Id of the lattice the round belongs to.
    pub lattice_id: u32,
    /// The round index within that lattice's stream.
    pub round: u64,
    /// The producer's emission timestamp (nanoseconds since the run epoch).
    pub emitted_ns: u64,
    /// The composed X- and Z-sector correction for the round.
    pub correction: &'a PauliString,
    /// The per-sector residual states of the round, classified in stream
    /// against the error carried by the record — present exactly when the
    /// codec carries an error payload
    /// ([`PacketCodec::with_error_payload`]).
    pub residual: Option<(LogicalState, LogicalState)>,
}

/// One lattice's reusable decode state: the prepared-decoder slot plus the
/// buffers the hot loop writes into.
#[derive(Debug)]
struct LatticeDecodeState {
    /// Index into the stage's deduplicated decoder list.
    decoder_slot: usize,
    packet: SyndromePacket,
    x_buf: PauliString,
    z_buf: PauliString,
    /// The record's carried error, unpacked here when the codec carries one.
    error_buf: PauliString,
    /// Scratch for the error∘correction composition during in-stream
    /// residual classification.
    residual_buf: PauliString,
}

/// The prepared-decoder decode stage of one worker thread.
pub(crate) struct DecodeStage<'a> {
    set: &'a LatticeSet,
    codec: &'a PacketCodec,
    decoders: Vec<DynDecoder>,
    /// Whether each decoder slot has been `prepare`d yet.  Preparation is
    /// lazy — it happens on the slot's first record — so a worker never pays
    /// for distances whose records all land on other workers.
    prepared: Vec<bool>,
    /// The name of the decoder serving each lattice, in lattice-id order.
    lattice_decoders: Vec<String>,
    states: Vec<LatticeDecodeState>,
}

impl std::fmt::Debug for DecodeStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeStage")
            .field("lattice_decoders", &self.lattice_decoders)
            .finish_non_exhaustive()
    }
}

impl<'a> DecodeStage<'a> {
    /// Builds the stage for every lattice of `set`: one decoder per
    /// distinct `(code distance, factory)` pair — per-lattice
    /// [`LatticeSpec::decoder`](crate::lattice_set::LatticeSpec::decoder)
    /// overrides beside the machine-wide `factory`.  Decoders are built now
    /// but `prepare`d lazily, each on the first record that routes to its
    /// slot.
    pub(crate) fn new(
        set: &'a LatticeSet,
        codec: &'a PacketCodec,
        factory: &dyn DecoderFactory,
    ) -> Self {
        let mut decoders: Vec<DynDecoder> = Vec::new();
        let mut lattice_decoders: Vec<String> = Vec::with_capacity(set.len());
        // (distance, factory identity, slot); None = the machine-wide factory.
        let mut slot_of: Vec<(usize, Option<usize>, usize)> = Vec::new();
        let mut states: Vec<LatticeDecodeState> = Vec::with_capacity(set.len());
        for (_, spec, lattice) in set.iter() {
            let factory_key = spec.decoder.as_ref().map(LatticeDecoder::key);
            let decoder_slot = match slot_of
                .iter()
                .find(|(d, k, _)| *d == spec.distance && *k == factory_key)
            {
                Some(&(_, _, slot)) => slot,
                None => {
                    let decoder = match &spec.decoder {
                        Some(per_lattice) => per_lattice.build(),
                        None => factory.build(),
                    };
                    decoders.push(decoder);
                    slot_of.push((spec.distance, factory_key, decoders.len() - 1));
                    decoders.len() - 1
                }
            };
            lattice_decoders.push(decoders[decoder_slot].name().to_string());
            states.push(LatticeDecodeState {
                decoder_slot,
                packet: SyndromePacket::new(0, 0, 0, &Syndrome::new(lattice.num_ancillas())),
                x_buf: PauliString::identity(lattice.num_data()),
                z_buf: PauliString::identity(lattice.num_data()),
                error_buf: PauliString::identity(lattice.num_data()),
                residual_buf: PauliString::identity(lattice.num_data()),
            });
        }
        DecodeStage {
            set,
            codec,
            prepared: vec![false; decoders.len()],
            decoders,
            lattice_decoders,
            states,
        }
    }

    /// Decodes one wire record through the lattice's prepared hot path.
    /// The returned [`DecodedRound`] borrows the lattice's composed
    /// correction buffer.
    ///
    /// # Panics
    ///
    /// On a record whose header fails [`PacketCodec::verify`] — an unknown
    /// lattice id, or an ancilla count other than the one registered for
    /// it.  Every record a worker pops was written by the run's own codec,
    /// whose `encode` panics on exactly those headers, so such a record is
    /// a bug: the supervisor books it as a crash that loses that record.
    pub(crate) fn decode(&mut self, record: &[u64]) -> DecodedRound<'_> {
        // Verify the header once, *before* indexing any per-lattice state.
        let lattice_id =
            self.codec
                .verify(record)
                .expect("a record written by the run's own codec verifies") as usize;
        let state = &mut self.states[lattice_id];
        let decoder = &mut self.decoders[state.decoder_slot];
        let lattice = self.set.lattice(lattice_id);
        if !self.prepared[state.decoder_slot] {
            // First record for this slot: prepare now.  Lattices of equal
            // distance are interned, so preparing against whichever lattice
            // arrives first covers every lattice the slot serves.
            decoder.prepare(lattice);
            self.prepared[state.decoder_slot] = true;
        }
        self.codec
            .unpack_verified_into(record, lattice_id as u32, &mut state.packet);
        // The decoder reads the words the unpack just copied.
        let syndrome = &state.packet.syndrome;
        decoder.decode_into(lattice, syndrome, Sector::X, &mut state.x_buf);
        decoder.decode_into(lattice, syndrome, Sector::Z, &mut state.z_buf);
        state.x_buf.compose_with(&state.z_buf);
        // In-stream residual classification: the record carries the seeded
        // error behind its syndrome, so the residual can be judged right
        // here, allocation-free.
        let residual = if self.codec.carries_errors() {
            self.codec
                .decode_error_into(record, lattice_id as u32, &mut state.error_buf);
            Some(classify_both_sectors_into(
                lattice,
                &state.error_buf,
                &state.x_buf,
                &mut state.residual_buf,
            ))
        } else {
            None
        };
        DecodedRound {
            lattice_id: state.packet.lattice_id,
            round: state.packet.round,
            emitted_ns: state.packet.emitted_ns,
            correction: &state.x_buf,
            residual,
        }
    }

    /// The name of the decoder serving each lattice, in lattice-id order.
    pub(crate) fn lattice_decoders(&self) -> &[String] {
        &self.lattice_decoders
    }
}

/// Everything one decode worker needs, bundled to keep the spawn site tidy
/// (and to let tests drive a worker directly against a hand-filled channel).
pub(crate) struct WorkerSeat<'a> {
    /// This worker's index.
    pub(crate) worker_id: usize,
    /// The lattices being served.
    pub(crate) set: &'a LatticeSet,
    /// The shared wire codec.
    pub(crate) codec: &'a PacketCodec,
    /// The run's one channel, which every worker pops from.
    pub(crate) channel: &'a Channel,
    /// The shared run counters.
    pub(crate) counters: &'a RuntimeCounters,
    /// Set once the source has finished generating.
    pub(crate) done: &'a AtomicBool,
    /// The run's epoch, for latency timestamps.
    pub(crate) epoch: Instant,
    /// The machine-wide decoder factory.
    pub(crate) factory: &'a dyn DecoderFactory,
    /// Whether committed corrections are kept per round.
    pub(crate) record_corrections: bool,
    /// When recording corrections, keep only the most recent this many per
    /// worker (`None` = unbounded; see
    /// [`MachineConfig::correction_cap`](crate::MachineConfig::correction_cap)).
    pub(crate) correction_cap: Option<usize>,
    /// Maximum rounds decoded as one batch.
    pub(crate) batch_size: usize,
    /// The run's event journal.
    pub(crate) journal: &'a EventJournal,
    /// The run's armed fault schedule (crash hooks; a plan-free injector
    /// costs one branch per batch).
    pub(crate) injector: &'a FaultInjector,
}

/// One decode worker under supervision: the frame sink and the in-flight
/// [`Batch`] — the worker's durable state — live out here, outside the
/// unwind boundary, while the decode attempt loop runs inside
/// [`catch_unwind`].  A panic in the decode path (injected or real) is
/// caught, journaled as a [`EventKind::WorkerCrash`], and answered by a
/// same-thread restart ([`EventKind::WorkerRestart`]) that rebuilds the
/// decode stage — freshly `prepare`d decoders — over the *same* sink and
/// batch, so the replacement adopts the dead worker's frame shard, every
/// round it had already committed, and the rest of its batch.  A real panic
/// loses only the record it panicked on: the batch's cursor had already
/// passed it, so the replacement resumes after it and never retries it — a
/// decoder that panics on every round still drains the channel.
/// Returns the worker's output plus its decode [`StageReport`], whose
/// `emitted` is the sink's committed count and whose `stall_cycles` is the
/// worker's `stall_polls` counter — both span every attempt, a crashed one
/// included.
///
/// [`catch_unwind`]: std::panic::catch_unwind
pub(crate) fn run_worker(seat: WorkerSeat<'_>) -> (WorkerOutput, StageReport) {
    let worker_id = seat.worker_id;
    let mut sink =
        FrameSink::new(seat.set, seat.record_corrections).with_correction_cap(seat.correction_cap);
    let mut batch = Batch::new(seat.batch_size, seat.codec.words_per_packet());
    let mut restarts = 0u64;
    loop {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(&seat, &mut sink, &mut batch)
        }));
        match attempt {
            Ok(lattice_decoders) => {
                let committed = sink.committed();
                let decode_report = StageReport {
                    stage: format!("decode.{worker_id}"),
                    accepted: committed,
                    emitted: committed,
                    stall_cycles: seat.counters.per_worker[worker_id]
                        .stall_polls
                        .load(Ordering::Relaxed),
                    ..StageReport::default()
                };
                return (sink.finish(lattice_decoders), decode_report);
            }
            Err(_) => {
                // The worker died mid-run.  Its sink — and every round it
                // committed — and its batch survive out here; journal the
                // crash (value = rounds the dead worker had committed), then
                // go around the loop: the next attempt re-prepares the
                // decoders, adopts the shard and finishes the batch.
                seat.journal.publish(
                    EventKind::WorkerCrash,
                    EventSeverity::Critical,
                    None,
                    Some(worker_id as u32),
                    seat.epoch.elapsed().as_nanos() as u64,
                    sink.committed(),
                );
                restarts += 1;
                seat.journal.publish(
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

/// A worker's in-flight batch: records popped from the channel and not yet
/// all decoded.  `records[next..filled]` are still to decode; the batch is
/// spent when `next == filled`.
struct Batch {
    /// Reusable records, shared across lattices (sized for the largest
    /// lattice of the set).
    records: Vec<Vec<u64>>,
    /// Records popped into `records` by the last fill.
    filled: usize,
    /// The next record to decode, advanced *before* its decode starts.
    next: usize,
}

impl Batch {
    fn new(batch_size: usize, words_per_packet: usize) -> Self {
        Batch {
            records: (0..batch_size)
                .map(|_| vec![0u64; words_per_packet])
                .collect(),
            filled: 0,
            next: 0,
        }
    }
}

/// One supervised decode attempt: fill batches from the shared channel,
/// decode every record through the lattice's prepared hot path, commit to
/// the shared frame sink and count the round decoded — which is also what
/// lowers its lattice's outstanding count for the gate.
/// An idle poll is one turn of the shared busy wait ([`pause`]), so the
/// worker spins on the channel and yields only every
/// [`TURNS_PER_YIELD`](crate::stage::TURNS_PER_YIELD)th empty poll.
/// Returns the lattice decoder names when the stream drains; unwinds into
/// the supervisor if the decode path panics.
fn worker_loop(seat: &WorkerSeat<'_>, sink: &mut FrameSink, batch: &mut Batch) -> Vec<String> {
    let worker_id = seat.worker_id;
    let (channel, counters) = (seat.channel, seat.counters);
    let epoch = seat.epoch;
    let mut decode = DecodeStage::new(seat.set, seat.codec, seat.factory);
    let worker_counters = &counters.per_worker[worker_id];
    let mut turns = 0u32;
    loop {
        if batch.next == batch.filled {
            // The crash hook sits at the batch boundary: no record is in
            // flight inside the worker when an injected panic fires, so
            // nothing a restart can't recover is ever lost.
            if seat.injector.should_crash(worker_id, sink.committed()) {
                panic!("{CRASH_PANIC_MARKER}: worker {worker_id}");
            }
            // ---- Fill a batch from the shared channel --------------------
            batch.next = 0;
            batch.filled = 0;
            while batch.filled < batch.records.len()
                && channel.try_recv(&mut batch.records[batch.filled])
            {
                batch.filled += 1;
            }
            if batch.filled == 0 {
                if seat.done.load(Ordering::Acquire) && channel.is_empty() {
                    return decode.lattice_decoders().to_vec();
                }
                bump(&worker_counters.stall_polls, 1);
                pause(&mut turns);
                continue;
            }
        }

        // ---- Decode the rest of the batch ------------------------------
        // Per-packet service time keeps its meaning (the full
        // unpack-to-commit span of that round — what the backlog model's `f`
        // ratio is about): timestamps are chained, one clock read per
        // packet, so batching amortizes the crash check and counter updates
        // without flattening latency spikes into a batch mean.
        let mut prev = Instant::now();
        while batch.next < batch.filled {
            let record = &batch.records[batch.next];
            // Past the record before its decode starts: if the decode
            // panics, the restarted attempt resumes after it.
            batch.next += 1;
            let decoded = decode.decode(record);
            let lattice_id = decoded.lattice_id as usize;
            let emitted_ns = decoded.emitted_ns;
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
            prev = now;
        }
        bump(&worker_counters.batches, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;
    use crate::source::{NoiseSpec, SyndromeSource};
    use nisqplus_decoders::GreedyMatchingDecoder;

    fn set_of(distances: &[usize]) -> LatticeSet {
        let specs: Vec<LatticeSpec> = distances
            .iter()
            .map(|&d| {
                let mut spec = LatticeSpec::new(d);
                spec.noise = NoiseSpec::PureDephasing { p: 0.05 };
                spec.rounds = 8;
                spec
            })
            .collect();
        LatticeSet::new(specs).unwrap()
    }

    fn factory() -> impl DecoderFactory {
        || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    }

    /// Drives worker 0, built by `factory`, to completion against
    /// `channel`, the source already done.
    fn drain_with_worker_0(
        set: &LatticeSet,
        codec: &PacketCodec,
        channel: &Channel,
        counters: &RuntimeCounters,
        journal: &EventJournal,
        factory: &dyn DecoderFactory,
    ) -> (WorkerOutput, StageReport) {
        run_worker(WorkerSeat {
            worker_id: 0,
            set,
            codec,
            channel,
            counters,
            done: &AtomicBool::new(true),
            epoch: Instant::now(),
            factory,
            record_corrections: true,
            correction_cap: None,
            batch_size: 4,
            journal,
            injector: &FaultInjector::disabled(),
        })
    }

    /// A channel holding `rounds` seeded records of lattice 0.
    fn filled_channel(set: &LatticeSet, codec: &PacketCodec, rounds: u64) -> Channel {
        let channel = Channel::new(64, codec.words_per_packet());
        let mut record = vec![0u64; codec.words_per_packet()];
        let mut source = SyndromeSource::new(
            set.lattice(0).clone(),
            NoiseSpec::PureDephasing { p: 0.1 },
            3,
        )
        .unwrap();
        for round in 0..rounds {
            let packet = SyndromePacket::new(0, round, 0, &source.next_syndrome());
            codec.encode(&packet, &mut record);
            assert!(channel.try_send(&record));
        }
        channel
    }

    fn one_lattice(rounds: u64) -> LatticeSet {
        let mut spec = LatticeSpec::new(3);
        spec.rounds = rounds;
        LatticeSet::new(vec![spec]).unwrap()
    }

    /// A worker drains the channel in batches of its size: 20 records in
    /// windows of 4, every one decoded and committed in order.
    #[test]
    fn a_worker_drains_the_channel_in_batches_of_its_size() {
        let set = one_lattice(20);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channel = filled_channel(&set, &codec, 20);
        let counters = RuntimeCounters::new(1, 1);
        let journal = EventJournal::new(64);
        let (output, decode_report) =
            drain_with_worker_0(&set, &codec, &channel, &counters, &journal, &factory());
        let snap = counters.snapshot();
        assert_eq!(snap.decoded, 20);
        assert_eq!(snap.batches, 5, "20 packets in windows of 4");
        // The per-worker slice seats the same counts on worker 0, beside
        // the rounds its sink committed.
        let worker = counters.per_worker[0].snapshot(decode_report.emitted);
        assert_eq!((worker.decoded, worker.batches), (20, 5));
        assert_eq!(output.per_lattice[0].frame.recorded_cycles(), 20);
        let rounds: Vec<u64> = output.corrections.iter().map(|c| c.round).collect();
        assert_eq!(rounds, (0..20).collect::<Vec<u64>>());
        let books = channel.report("channel");
        assert_eq!((books.accepted, books.emitted), (20, 20));
        assert!(channel.is_empty());
        assert_eq!(decode_report.stage, "decode.0");
        assert_eq!(decode_report.accepted, 20);
    }

    /// A decoder that panics on every round loses each round it panicked
    /// on and nothing else, and the worker still drains the channel: each
    /// restart resumes after the record that panicked instead of retrying
    /// it.  (`tests/fault.rs` pins the single-panic case: one round lost.)
    #[test]
    fn a_decoder_that_always_panics_still_drains_the_channel() {
        use nisqplus_qec::lattice::Lattice;

        struct AlwaysPanics;
        impl nisqplus_decoders::Decoder for AlwaysPanics {
            fn name(&self) -> &str {
                "always-panics"
            }
            fn decode_into(&mut self, _: &Lattice, _: &Syndrome, _: Sector, _: &mut PauliString) {
                panic!("decoder bug");
            }
        }

        let set = one_lattice(8);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channel = filled_channel(&set, &codec, 8);
        let counters = RuntimeCounters::new(1, 1);
        let journal = EventJournal::new(64);
        let always_panics = || Box::new(AlwaysPanics) as DynDecoder;
        let (output, report) =
            drain_with_worker_0(&set, &codec, &channel, &counters, &journal, &always_panics);
        assert!(channel.is_empty());
        assert_eq!((report.emitted, counters.snapshot().decoded), (0, 0));
        assert_eq!(output.per_lattice[0].frame.recorded_cycles(), 0);
        let counts = journal.snapshot().counts;
        assert_eq!(counts[EventKind::WorkerCrash], 8, "one crash per round");
        assert_eq!(counts[EventKind::WorkerRestart], 8);
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
        let channel = Channel::new(64, codec.words_per_packet());
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
                assert!(channel.try_send(&record));
            }
        }
        let counters = RuntimeCounters::new(2, 1);
        let journal = EventJournal::new(64);
        let (output, _) =
            drain_with_worker_0(&set, &codec, &channel, &counters, &journal, &factory());
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
    fn equal_distance_lattices_share_one_prepared_decoder() {
        let set = set_of(&[3, 5, 3]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let stage = DecodeStage::new(&set, &codec, &factory());
        // Two distinct distances → two prepared decoders for three lattices.
        assert_eq!(stage.decoders.len(), 2);
        assert_eq!(stage.states[0].decoder_slot, stage.states[2].decoder_slot);
        assert_ne!(stage.states[0].decoder_slot, stage.states[1].decoder_slot);
        assert_eq!(stage.lattice_decoders().len(), 3);
    }

    #[test]
    fn decoders_prepare_lazily_on_their_slots_first_record() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        assert!(
            stage.prepared.iter().all(|p| !p),
            "construction prepares nothing"
        );
        // Decode one record for lattice 1 only: its slot prepares, the
        // untouched d=3 slot stays cold — what makes a distance free for
        // workers that never see its records.
        let spec = set.spec(1);
        let mut source =
            SyndromeSource::new(set.lattice(1).clone(), spec.noise, spec.seed).unwrap();
        let syndrome = source.next_syndrome();
        let packet = SyndromePacket::new(1, 0, 3, &syndrome);
        let mut record = vec![0u64; codec.words_per_packet()];
        codec.encode(&packet, &mut record);
        stage.decode(&record);
        assert!(stage.prepared[stage.states[1].decoder_slot]);
        assert!(!stage.prepared[stage.states[0].decoder_slot]);
    }

    #[test]
    fn decode_routes_by_header_and_matches_a_direct_decode() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        let mut record = vec![0u64; codec.words_per_packet()];
        for lattice_id in [1u32, 0, 1] {
            let spec = set.spec(lattice_id as usize);
            let mut source = SyndromeSource::new(
                set.lattice(lattice_id as usize).clone(),
                spec.noise,
                spec.seed,
            )
            .unwrap();
            let syndrome = source.next_syndrome();
            let packet = SyndromePacket::new(lattice_id, 0, 17, &syndrome);
            codec.encode(&packet, &mut record);
            let decoded = stage.decode(&record);
            assert_eq!(decoded.lattice_id, lattice_id);
            assert_eq!(decoded.round, 0);
            assert_eq!(decoded.emitted_ns, 17);
            // The borrowed correction is the composed X∘Z correction of a
            // freshly prepared decoder fed the same syndrome.
            let lattice = set.lattice(lattice_id as usize);
            let mut reference = factory().build();
            reference.prepare(lattice);
            let mut x = PauliString::identity(lattice.num_data());
            let mut z = PauliString::identity(lattice.num_data());
            reference.decode_into(lattice, &syndrome, Sector::X, &mut x);
            reference.decode_into(lattice, &syndrome, Sector::Z, &mut z);
            x.compose_with(&z);
            assert_eq!(*decoded.correction, x);
        }
    }

    #[test]
    fn error_carrying_records_are_classified_in_stream() {
        use nisqplus_qec::logical::classify_both_sectors;
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits());
        let mut stage = DecodeStage::new(&set, &codec, &factory());
        let mut record = vec![0u64; codec.words_per_packet()];
        for lattice_id in [0u32, 1, 0, 1] {
            let spec = set.spec(lattice_id as usize);
            let lattice = set.lattice(lattice_id as usize);
            let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed).unwrap();
            let (error, syndrome) = source.next_error_and_syndrome();
            let packet = SyndromePacket::new(lattice_id, 0, 5, &syndrome);
            codec.encode_with_error(&packet, &error, &mut record);
            let decoded = stage.decode(&record);
            let expected = classify_both_sectors(lattice, &error, decoded.correction);
            assert_eq!(decoded.residual, Some(expected));
        }
        // An errorless codec leaves the classification off.
        let plain = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let mut plain_stage = DecodeStage::new(&set, &plain, &factory());
        let mut plain_record = vec![0u64; plain.words_per_packet()];
        let packet = SyndromePacket::new(0, 0, 5, &Syndrome::new(set.lattice(0).num_ancillas()));
        plain.encode(&packet, &mut plain_record);
        assert_eq!(plain_stage.decode(&plain_record).residual, None);
    }

    /// A header that fails `verify` is a bug, not a record to skip: the
    /// worker crashes on it, the supervisor restarts the worker, and only
    /// that record is lost — the clean records beside it still commit.
    /// (`packet.rs` pins the typed [`PacketError`](crate::packet::PacketError)
    /// `verify` returns for such a header.)
    #[test]
    fn a_header_that_fails_verify_crashes_the_worker_and_loses_only_its_record() {
        let set = set_of(&[3]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let channel = Channel::new(8, codec.words_per_packet());
        let mut record = vec![0u64; codec.words_per_packet()];
        for round in 0..3u64 {
            let packet = SyndromePacket::new(0, round, 0, &Syndrome::new(codec.syndrome_bits(0)));
            codec.encode(&packet, &mut record);
            if round == 1 {
                record[0] ^= 1 << 32; // names lattice 1, which the set lacks
            }
            assert!(channel.try_send(&record));
        }
        let counters = RuntimeCounters::new(1, 1);
        let journal = EventJournal::new(8);
        let (output, _) =
            drain_with_worker_0(&set, &codec, &channel, &counters, &journal, &factory());
        assert_eq!(counters.snapshot().decoded, 2);
        assert_eq!(output.per_lattice[0].frame.recorded_cycles(), 2);
        let counts = journal.snapshot().counts;
        assert_eq!(
            (
                counts[EventKind::WorkerCrash],
                counts[EventKind::WorkerRestart]
            ),
            (1, 1)
        );
    }
}
