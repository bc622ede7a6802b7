//! The traced run (`--trace 1`): per-layer numbers, measured from outside.
//!
//! Three sources, all built from public functions only:
//!
//! * a **single-threaded replica** of one round's path, run layer by layer
//!   over blocks of [`BLOCK_ROUNDS`] rounds with one span per block and
//!   layer — these are the *on-path* layers, and their self times add up to
//!   `trace.inline_round_ns`;
//! * **standalone** loops over the same rounds for components the replica
//!   cannot see into or the workload does not use (the `qec` halves of the
//!   streaming source, the other decoders, the telemetry primitives);
//! * one **threaded** run of the workload's own timed run, for what only the
//!   engine's own report knows (stalls, queue depth, tail latency).
//!
//! A layer the workload neither runs nor can be compared on is left out
//! here and reads 0 in the result.

use crate::stats::median;
use crate::trace::{self_times, SpanId, Tracer, BLOCK_ROUNDS, ROOT};
use crate::workloads::{
    lifetime_call, machine, stream_run, threads, LifetimeStats, Phase, Scale, Workload,
    LIFETIME_DISTANCE, LIFETIME_ERROR_RATE,
};
use crate::Outcome;
use nisqplus_core::{DecoderVariant, SfqMeshDecoder};
use nisqplus_decoders::{
    Decoder, ExactMatchingDecoder, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_both_sectors_into, classify_residual, LogicalState};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::report::report_to_string;
use nisqplus_runtime::stage::{DecodedRound, FrameSink};
use nisqplus_runtime::{
    EventJournal, EventKind, EventSeverity, InterleavedSource, LatticeSet, LogHistogram, NoiseSpec,
    PacketCodec, SpmcRing, SyndromePacket, SyndromeSource,
};
use nisqplus_sim::timing::CycleTimeConverter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Share of `--seconds` the replica may use; the rest covers the
/// standalone loops and the threaded run.
const REPLICA_SHARE: f64 = 0.4;
/// Replica blocks at most: a million rounds settle every layer's median,
/// and the span file stays a few megabytes.
const MAX_REPLICA_BLOCKS: u64 = 4096;
/// Blocks per standalone loop at full scale (exact matching at d = 9 costs
/// ~0.6 ms a round, so this is about a second there).
const STANDALONE_BLOCKS: usize = 8;
/// The replica's layer self times must explain its time this closely; the
/// remainder is loop and clock overhead of the block spans themselves.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

/// Whether the replica should run another block: at least a few, then
/// until its share of `--seconds` or the block cap is used up.
fn another_block(blocks: u64, scale: Scale, started: Instant, seconds: f64) -> bool {
    let (least, most) = if scale.divisor > 1 {
        (4, 4)
    } else {
        (64, MAX_REPLICA_BLOCKS)
    };
    blocks < least || (blocks < most && started.elapsed().as_secs_f64() < seconds * REPLICA_SHARE)
}

/// Nanoseconds per round of a span covering one block: the median over the
/// given spans, which shrugs off the blocks the host disturbed.
fn median_round_ns(block_ns: &[u64]) -> f64 {
    let as_f64: Vec<f64> = block_ns.iter().map(|&ns| ns as f64).collect();
    median(&as_f64) / BLOCK_ROUNDS as f64
}

/// The replica's self times, one per block and layer.
struct LayerTimes(BTreeMap<&'static str, Vec<u64>>);

impl LayerTimes {
    /// A layer's nanoseconds per round (0 for a layer that never ran).
    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |spans| median_round_ns(spans))
    }

    /// Fails the run when more than [`ATTRIBUTION_TOLERANCE`] of the
    /// replica's whole time is the block spans' own: loop and clock overhead
    /// no layer explains.
    fn check_attribution(&self, outcome: &mut Outcome) {
        let total = |spans: &Vec<u64>| spans.iter().sum::<u64>() as f64;
        let share =
            self.0.get("block").map_or(0.0, total) / self.0.values().map(total).sum::<f64>();
        if share > ATTRIBUTION_TOLERANCE {
            outcome.fail(format!(
                "{:.1} % of the replica's time is in no layer",
                100.0 * share
            ));
        }
    }
}

/// Blocks per standalone loop at this scale.
fn standalone_blocks(scale: Scale) -> usize {
    if scale.divisor > 1 {
        2
    } else {
        STANDALONE_BLOCKS
    }
}

/// Times one block of work as a span named `name` under `parent`; returns
/// its nanoseconds.
fn timed(tracer: &mut Tracer, name: &'static str, parent: SpanId, work: impl FnOnce()) -> u64 {
    let id = tracer.open(name, parent);
    work();
    tracer.close(id);
    let span = &tracer.spans()[id as usize - 1];
    span.end_ns - span.start_ns
}

/// Times `blocks` blocks of work as spans named `name` under `parent`;
/// returns nanoseconds per round.
fn standalone(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    blocks: usize,
    mut block: impl FnMut(usize),
) -> f64 {
    let block_ns: Vec<u64> = (0..blocks)
        .map(|index| timed(tracer, name, parent, || block(index)))
        .collect();
    median_round_ns(&block_ns)
}

/// Standalone `decode_into` over pre-generated syndromes: nanoseconds per
/// round, where a round decodes every sector in `sectors`.
fn decoder_round_ns(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    decoder: &mut dyn Decoder,
    lattice: &Lattice,
    syndromes: &[Syndrome],
    sectors: &[Sector],
) -> f64 {
    decoder.prepare(lattice);
    let mut out = PauliString::identity(lattice.num_data());
    standalone(
        tracer,
        name,
        parent,
        syndromes.len() / BLOCK_ROUNDS,
        |index| {
            for syndrome in &syndromes[index * BLOCK_ROUNDS..(index + 1) * BLOCK_ROUNDS] {
                for &sector in sectors {
                    decoder.decode_into(lattice, black_box(syndrome), sector, &mut out);
                }
                black_box(&out);
            }
        },
    )
}

/// `blocks` blocks of syndromes from the stream of `lattice` under `noise`.
fn reference_syndromes(
    lattice: &Arc<Lattice>,
    noise: NoiseSpec,
    seed: u64,
    blocks: usize,
) -> Vec<Syndrome> {
    let mut source = SyndromeSource::new(lattice.clone(), noise, seed).expect("valid noise");
    (0..blocks * BLOCK_ROUNDS)
        .map(|_| source.next_syndrome())
        .collect()
}

/// The decoders the workload does *not* serve with, timed standalone on the
/// reference lattice's stream so every trace carries the decoder table at
/// its own distance.  `on_path` is skipped (the replica times it).
fn decoder_table(
    tracer: &mut Tracer,
    parent: SpanId,
    outcome: &mut Outcome,
    lattice: &Lattice,
    syndromes: &[Syndrome],
    sectors: &[Sector],
    on_path: &str,
) {
    let mut table: Vec<(&'static str, Box<dyn Decoder>)> = vec![
        (
            "decoders.union_find.round_ns",
            Box::new(UnionFindDecoder::new()),
        ),
        (
            "decoders.greedy.round_ns",
            Box::new(GreedyMatchingDecoder::new()),
        ),
        (
            "decoders.exact.round_ns",
            Box::new(ExactMatchingDecoder::new()),
        ),
        (
            "core.mesh.round_ns",
            Box::new(SfqMeshDecoder::new(DecoderVariant::Final)),
        ),
    ];
    if lattice.distance() == 3 {
        // Exhaustive tables: the paper's exact reference at d = 3 only
        // (building one for d = 5 takes half a minute).
        let lookup = LookupDecoder::new(lattice).expect("d = 3 fits the table");
        table.push(("decoders.lookup.round_ns", Box::new(lookup)));
    }
    for (name, decoder) in &mut table {
        if *name != on_path {
            let ns = decoder_round_ns(
                tracer,
                name,
                parent,
                decoder.as_mut(),
                lattice,
                syndromes,
                sectors,
            );
            outcome.value(name, ns);
        }
    }
}

/// Reusable per-slot buffers of the streaming replica, one set per distinct
/// lattice size (what `DecodeStage` keeps per lattice).
struct SlotBuffers {
    packet: SyndromePacket,
    syndrome: Syndrome,
    x: PauliString,
    z: PauliString,
    error: PauliString,
    residual: PauliString,
}

impl SlotBuffers {
    fn for_lattice(lattice: &Lattice) -> Self {
        let syndrome = Syndrome::new(lattice.num_ancillas());
        let identity = PauliString::identity(lattice.num_data());
        SlotBuffers {
            packet: SyndromePacket::new(0, 0, 0, &syndrome),
            syndrome,
            x: identity.clone(),
            z: identity.clone(),
            error: identity.clone(),
            residual: identity,
        }
    }
}

/// Traces a streaming workload.
fn trace_streaming(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Outcome {
    let mut outcome = Outcome::default();
    // An endless stream: the replica stops on time, not on exhaustion.
    let config = machine(workload, seed, 1 << 40);
    let set = LatticeSet::new(config.lattices.clone()).expect("benchmark machines are valid");
    let carries_errors = config.streams_residuals();
    let codec = if carries_errors {
        PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits())
    } else {
        PacketCodec::for_lattice_bits(&set.ancilla_bits())
    };
    let ring = SpmcRing::new(config.queue_capacity, codec.words_per_packet());
    assert!(ring.capacity() >= BLOCK_ROUNDS, "a block must fit the ring");
    let mut source =
        InterleavedSource::new(&set, &config.cycle_time).expect("benchmark machines are valid");

    // One prepared decoder and one buffer set per distinct lattice size.
    let mut classes: Vec<Arc<Lattice>> = Vec::new();
    let class_of: Vec<usize> = (0..set.len())
        .map(|id| {
            let lattice = set.lattice(id);
            classes
                .iter()
                .position(|l| l.distance() == lattice.distance())
                .unwrap_or_else(|| {
                    classes.push(lattice.clone());
                    classes.len() - 1
                })
        })
        .collect();
    let prepare_started = Instant::now();
    let mut decoders: Vec<UnionFindDecoder> = classes
        .iter()
        .map(|lattice| {
            let mut decoder = UnionFindDecoder::new();
            decoder.prepare(lattice);
            decoder
        })
        .collect();
    let prepare_us = prepare_started.elapsed().as_secs_f64() * 1e6;

    let words = codec.words_per_packet();
    let mut rounds = Vec::with_capacity(BLOCK_ROUNDS);
    let mut records = vec![vec![0u64; words]; BLOCK_ROUNDS];
    let mut popped = vec![vec![0u64; words]; BLOCK_ROUNDS];
    let mut ids = vec![0usize; BLOCK_ROUNDS];
    let mut residuals: Vec<Option<(LogicalState, LogicalState)>> = vec![None; BLOCK_ROUNDS];
    let mut slots: Vec<Vec<SlotBuffers>> = (0..BLOCK_ROUNDS)
        .map(|_| {
            classes
                .iter()
                .map(|l| SlotBuffers::for_lattice(l))
                .collect()
        })
        .collect();
    let mut sink = FrameSink::new(&set, false);

    // ---- The replica: source → encode → push → pop → unpack → decode →
    // classify → commit, each layer over one block at a time. -------------
    let started = Instant::now();
    let mut blocks = 0u64;
    while another_block(blocks, scale, started, seconds) {
        let block = tracer.open("block", ROOT);
        tracer.span("runtime.source.next_round_ns", block, || {
            rounds.clear();
            for _ in 0..BLOCK_ROUNDS {
                rounds.push(
                    source
                        .next_round()
                        .expect("the replica's stream is endless"),
                );
            }
        });
        tracer.span("runtime.packet.encode_ns", block, || {
            for (round, record) in rounds.iter().zip(&mut records) {
                let packet = SyndromePacket::new(round.lattice_id, round.round, 0, &round.syndrome);
                if carries_errors {
                    codec.encode_with_error(&packet, &round.error, record);
                } else {
                    codec.encode(&packet, record);
                }
            }
        });
        tracer.span("runtime.queue.push_ns", block, || {
            for record in &records {
                ring.try_push(record).expect("a block fits the ring");
            }
        });
        tracer.span("runtime.queue.pop_ns", block, || {
            for record in &mut popped {
                assert!(ring.try_pop(record), "every pushed record pops");
            }
        });
        tracer.span("runtime.packet.decode_ns", block, || {
            for ((record, id), slot) in popped.iter().zip(&mut ids).zip(&mut slots) {
                // As the worker does: full validation, then the unpack.
                *id = codec.verify(record).expect("clean record") as usize;
                let buffers = &mut slot[class_of[*id]];
                codec
                    .try_decode_into(record, &mut buffers.packet)
                    .expect("clean record");
                buffers
                    .packet
                    .syndrome
                    .write_to_syndrome(&mut buffers.syndrome);
            }
        });
        tracer.span("decoders.union_find.round_ns", block, || {
            for (&id, slot) in ids.iter().zip(&mut slots) {
                let class = class_of[id];
                let (lattice, decoder, b) =
                    (&classes[class], &mut decoders[class], &mut slot[class]);
                decoder.decode_into(lattice, &b.syndrome, Sector::X, &mut b.x);
                decoder.decode_into(lattice, &b.syndrome, Sector::Z, &mut b.z);
                b.x.compose_with(&b.z);
            }
        });
        if carries_errors {
            tracer.span("qec.classify_ns", block, || {
                for (((record, &id), slot), residual) in
                    popped.iter().zip(&ids).zip(&mut slots).zip(&mut residuals)
                {
                    let class = class_of[id];
                    let b = &mut slot[class];
                    codec.decode_error_into(record, id as u32, &mut b.error);
                    *residual = Some(classify_both_sectors_into(
                        &classes[class],
                        &b.error,
                        &b.x,
                        &mut b.residual,
                    ));
                }
            });
        }
        tracer.span("runtime.frame.commit_ns", block, || {
            for ((&id, slot), &residual) in ids.iter().zip(&slots).zip(&residuals) {
                let b = &slot[class_of[id]];
                sink.commit(&DecodedRound {
                    lattice_id: b.packet.lattice_id,
                    round: b.packet.round,
                    emitted_ns: b.packet.emitted_ns,
                    correction: &b.x,
                    residual,
                });
                sink.record_latency(id, 1, 1);
            }
        });
        tracer.close(block);
        blocks += 1;
    }
    let replica_rounds = blocks * BLOCK_ROUNDS as u64;
    let replica = LayerTimes(self_times(tracer.spans()));
    outcome.attempted += replica_rounds;
    outcome.failed += replica_rounds - sink.committed().min(replica_rounds);

    // ---- Standalone components ------------------------------------------
    let group = tracer.open("standalone", ROOT);
    let table_blocks = standalone_blocks(scale);
    let noise = set.spec(0).noise;
    let model = PureDephasing::new(noise.physical_error_rate()).expect("valid probability");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut errors: Vec<PauliString> = Vec::with_capacity(BLOCK_ROUNDS);
    // The two `qec` halves of `next_round`, averaged over the lattice sizes
    // (the interleaved source serves them in equal shares).
    let (mut sample_ns, mut syndrome_ns) = (0.0, 0.0);
    for lattice in &classes {
        let (mut sample_spans, mut syndrome_spans) = (Vec::new(), Vec::new());
        for _ in 0..table_blocks {
            sample_spans.push(timed(tracer, "qec.sample_ns", group, || {
                errors.clear();
                for _ in 0..BLOCK_ROUNDS {
                    errors.push(model.sample(lattice, &mut rng));
                }
            }));
            syndrome_spans.push(timed(tracer, "qec.syndrome_ns", group, || {
                for error in &errors {
                    black_box(lattice.syndrome_of(error));
                }
            }));
        }
        sample_ns += median_round_ns(&sample_spans) / classes.len() as f64;
        syndrome_ns += median_round_ns(&syndrome_spans) / classes.len() as f64;
    }
    outcome.value("qec.sample_ns", sample_ns);
    outcome.value("qec.syndrome_ns", syndrome_ns);
    decoder_table(
        tracer,
        group,
        &mut outcome,
        set.lattice(0),
        &reference_syndromes(set.lattice(0), noise, seed, table_blocks),
        &[Sector::X, Sector::Z],
        "decoders.union_find.round_ns",
    );
    let histogram = LogHistogram::new();
    let hist_ns = standalone(
        tracer,
        "runtime.obs.hist_record_ns",
        group,
        table_blocks,
        |index| {
            for i in 0..BLOCK_ROUNDS {
                histogram.record(black_box((index * BLOCK_ROUNDS + i) as u64));
            }
        },
    );
    let journal = EventJournal::new(config.obs.journal_capacity);
    let journal_ns = standalone(
        tracer,
        "runtime.obs.journal_publish_ns",
        group,
        table_blocks,
        |index| {
            for i in 0..BLOCK_ROUNDS {
                black_box(journal.publish(
                    EventKind::BackpressureStall,
                    EventSeverity::Info,
                    Some(0),
                    None,
                    (index * BLOCK_ROUNDS + i) as u64,
                    1,
                ));
            }
        },
    );
    tracer.close(group);

    // ---- One threaded run, as the end-to-end measurement times them -------
    let (threaded, output) =
        stream_run(machine(workload, seed, scale.rounds(workload, Phase::Run)));
    outcome.absorb_run("threaded run", &threaded);
    let report = &output.report;
    let counters = report.counters;
    let export_started = Instant::now();
    black_box(report_to_string(report));
    let export_ms = export_started.elapsed().as_secs_f64() * 1e3;
    let threaded_round_ns = 1e9 / threaded.rounds_per_s;
    let source_side = [
        "runtime.source.next_round_ns",
        "runtime.packet.encode_ns",
        "runtime.queue.push_ns",
    ];
    let worker_side = [
        "runtime.queue.pop_ns",
        "runtime.packet.decode_ns",
        "decoders.union_find.round_ns",
        "qec.classify_ns",
        "runtime.frame.commit_ns",
    ];
    let side = |names: &[&str]| names.iter().map(|n| replica.ns(n)).sum::<f64>();
    let layers_ns = side(&source_side) + side(&worker_side);
    let inline_ns = layers_ns + replica.ns("block");
    replica.check_attribution(&mut outcome);
    let stall_cycles = |stage: &str| {
        report
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0.0, |s| s.stall_cycles as f64)
    };
    let per_round = |count: u64, rounds: u64| count as f64 / rounds.max(1) as f64;

    for name in source_side.iter().chain(&worker_side) {
        outcome.value(name, replica.ns(name));
    }
    outcome.value("decoders.union_find.prepare_us", prepare_us);
    outcome.value("runtime.obs.hist_record_ns", hist_ns);
    outcome.value("runtime.obs.journal_publish_ns", journal_ns);
    outcome.value(
        "runtime.source.lag_ratio",
        if report.cadence_ns > 0.0 {
            report.inter_arrival_ns / report.cadence_ns
        } else {
            0.0
        },
    );
    outcome.value(
        "runtime.source.backpressure_spins_per_round",
        per_round(counters.backpressure_spins, counters.generated),
    );
    outcome.value(
        "runtime.stage.service_mean_ns",
        report.decode_latency.summary.mean,
    );
    outcome.value(
        "runtime.stage.service_p99_ns",
        report.decode_latency.quantiles.p99,
    );
    outcome.value("runtime.stage.batch_fill_mean", counters.mean_batch_fill());
    outcome.value(
        "runtime.stage.stall_polls_per_round",
        per_round(counters.stall_polls, counters.decoded),
    );
    outcome.value("runtime.stage.stolen", counters.stolen as f64);
    outcome.value(
        "runtime.stage.max_queue_depth",
        report.max_queue_depth as f64,
    );
    outcome.value("runtime.stage.final_backlog", report.final_backlog as f64);
    outcome.value("runtime.stage.source.stall_cycles", stall_cycles("source"));
    outcome.value("runtime.stage.gate.stall_cycles", stall_cycles("gate"));
    outcome.value(
        "runtime.stage.channel.stall_cycles",
        stall_cycles("channel.0"),
    );
    outcome.value(
        "runtime.stage.decode.stall_cycles",
        stall_cycles("decode.0"),
    );
    outcome.value("runtime.report.export_ms", export_ms);
    outcome.value("runtime.total.p90_ns", report.total_latency.quantiles.p90);
    outcome.value("runtime.total.p99_ns", report.total_latency.quantiles.p99);
    outcome.value("runtime.total.p999_ns", report.total_latency.quantiles.p999);
    outcome.value(
        "runtime.total.samples",
        report.total_latency.summary.count as f64,
    );
    outcome.value(
        "runtime.residual_failure_rate",
        per_round(threaded.residual_failures, counters.generated),
    );
    outcome.value("trace.inline_round_ns", inline_ns);
    outcome.value("trace.block_overhead_ns", inline_ns - layers_ns);
    outcome.value("trace.threaded_round_ns", threaded_round_ns);
    outcome.value(
        "trace.unattributed_ns",
        threaded_round_ns - side(&source_side).max(side(&worker_side)),
    );
    outcome
}

/// Traces the offline lifetime workload.
fn trace_lifetime(seed: u64, seconds: f64, scale: Scale, tracer: &mut Tracer) -> Outcome {
    let workload = Workload::LifetimeMeshD9;
    let mut outcome = Outcome::default();
    let lattice = Arc::new(Lattice::new(LIFETIME_DISTANCE).expect("valid distance"));
    let model = PureDephasing::new(LIFETIME_ERROR_RATE).expect("valid probability");
    let sector = Sector::X;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut decoder = SfqMeshDecoder::new(DecoderVariant::Final);
    let mut errors = Vec::with_capacity(BLOCK_ROUNDS);
    let mut syndromes = Vec::with_capacity(BLOCK_ROUNDS);
    let mut corrections = Vec::with_capacity(BLOCK_ROUNDS);

    // ---- The replica of one Monte-Carlo trial, layer by layer ------------
    let started = Instant::now();
    let mut blocks = 0u64;
    while another_block(blocks, scale, started, seconds) {
        let block = tracer.open("block", ROOT);
        tracer.span("qec.sample_ns", block, || {
            errors.clear();
            for _ in 0..BLOCK_ROUNDS {
                errors.push(model.sample(&lattice, &mut rng));
            }
        });
        tracer.span("qec.syndrome_ns", block, || {
            syndromes.clear();
            for error in &errors {
                let syndrome = lattice.syndrome_of(error);
                black_box(lattice.defects(&syndrome, sector).len());
                syndromes.push(syndrome);
            }
        });
        tracer.span("core.mesh.round_ns", block, || {
            corrections.clear();
            for syndrome in &syndromes {
                corrections.push(decoder.decode(&lattice, syndrome, sector));
                black_box(decoder.last_stats());
            }
        });
        tracer.span("qec.classify_ns", block, || {
            for (error, correction) in errors.iter().zip(&corrections) {
                black_box(classify_residual(
                    &lattice,
                    error,
                    correction.pauli_string(),
                    sector,
                ));
            }
        });
        tracer.close(block);
        blocks += 1;
    }
    let replica_rounds = blocks * BLOCK_ROUNDS as u64;
    let replica = LayerTimes(self_times(tracer.spans()));
    outcome.attempted += replica_rounds;

    // ---- Standalone: the software decoders on the same d = 9 stream ------
    let group = tracer.open("standalone", ROOT);
    let noise = NoiseSpec::PureDephasing {
        p: LIFETIME_ERROR_RATE,
    };
    decoder_table(
        tracer,
        group,
        &mut outcome,
        &lattice,
        &reference_syndromes(&lattice, noise, seed, standalone_blocks(scale)),
        &[sector],
        "core.mesh.round_ns",
    );
    tracer.close(group);

    // ---- The real thing: one call of `run_sfq_lifetime` -------------------
    let trials = scale.rounds(workload, Phase::Run);
    let (result, wall_s) = lifetime_call(&lattice, seed, trials, threads());
    let stats = LifetimeStats::of(&result);
    outcome.attempted += trials;
    outcome.failed += trials - stats.cycle_samples.min(trials);
    // A trial's time on one of the call's threads.
    let trial_ns = threads().min(trials as usize) as f64 * wall_s * 1e9 / trials as f64;
    let on_path = [
        "qec.sample_ns",
        "qec.syndrome_ns",
        "core.mesh.round_ns",
        "qec.classify_ns",
    ];
    let layers_ns: f64 = on_path.iter().map(|n| replica.ns(n)).sum();
    let inline_ns = layers_ns + replica.ns("block");
    // Thread start-up, result vectors, the `Correction`'s matching metadata.
    let unattributed_ns = trial_ns - inline_ns;
    replica.check_attribution(&mut outcome);
    // Simulated time at the paper's synthesized module latency (162.72 ps,
    // Table III), as the figure binaries report it.
    let converter = CycleTimeConverter::paper_reference();
    let cycles_mean = stats.cycles_sum as f64 / stats.cycle_samples.max(1) as f64;
    let sim_ns_max = converter.cycles_to_ns(stats.cycles_max as usize);
    // The decoder's own nanoseconds must be its cycles at its own clock.
    let own_max_ns = stats.cycles_max as f64 * decoder.cycle_time_ps() * 1e-3;
    let reported_max = result.time_ns_samples.iter().copied().fold(0.0, f64::max);
    if (reported_max - own_max_ns).abs() > 1e-9 * own_max_ns.max(1.0) {
        outcome.fail(format!(
            "mesh reports a {reported_max} ns slowest decode, {} cycles are {own_max_ns} ns",
            stats.cycles_max
        ));
    }

    for name in on_path {
        outcome.value(name, replica.ns(name));
    }
    outcome.value("core.mesh.cycles_mean", cycles_mean);
    outcome.value("core.mesh.cycles_max", stats.cycles_max as f64);
    outcome.value(
        "core.mesh.sim_ns_mean",
        cycles_mean * converter.cycle_time_ps() * 1e-3,
    );
    outcome.value("core.mesh.sim_ns_max", sim_ns_max);
    outcome.value(
        "core.mesh.host_ns_per_cycle",
        replica.ns("core.mesh.round_ns") / cycles_mean.max(f64::MIN_POSITIVE),
    );
    outcome.value("sim.lifetime.trial_ns", trial_ns);
    outcome.value("sim.lifetime.unattributed_ns", unattributed_ns);
    outcome.value(
        "sim.logical_error_rate",
        stats.failures as f64 / stats.trials.max(1) as f64,
    );
    outcome.value("trace.inline_round_ns", inline_ns);
    outcome.value("trace.block_overhead_ns", inline_ns - layers_ns);
    outcome.value("trace.threaded_round_ns", wall_s * 1e9 / trials as f64);
    outcome.value("trace.unattributed_ns", unattributed_ns);
    outcome
}

/// Runs the traced measurement of `workload`; the spans stay in `tracer`
/// for the caller to write out.
#[must_use]
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Outcome {
    if workload.is_streaming() {
        trace_streaming(workload, seed, seconds, scale, tracer)
    } else {
        trace_lifetime(seed, seconds, scale, tracer)
    }
}
