//! The zero-allocation guards: a counting global allocator holds every
//! hot path that promises it to **zero** heap allocations in steady state —
//! a prepared decoder's `decode_into` loop, the offline Monte-Carlo trial
//! loop, streaming residual classification, the observability plane's
//! histogram records and journal publishes, the disabled fault hooks, the
//! source stage's round (generate, copy, encode) and a whole engine run,
//! whose allocations must not scale with its rounds.
//!
//! Built with `harness = false`: the allocation counter is process-wide, so
//! the guards run one after another on the only thread instead of beside
//! libtest's.  Any guard that fails panics, which fails `cargo test`.

use nisqplus_core::{DecoderVariant, SfqMeshDecoder};
use nisqplus_decoders::{
    Decoder, DynDecoder, GreedyMatchingDecoder, LookupDecoder, UnionFindDecoder,
};
use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::{
    EventJournal, EventKind, EventSeverity, FaultInjector, InterleavedSource, LatticeSet,
    LatticeSpec, LocalHistogram, MachineConfig, PacketCodec, RuntimeConfig, SourcedRound,
    StreamingEngine, SyndromePacket, ThrottledDecoder,
};
use nisqplus_sim::timing::CycleTimeConverter;
use nisqplus_sim::{run_sfq_lifetime, MonteCarloConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations, so the guards can assert
/// the steady-state loops never touch the heap.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn sample_syndromes(distance: usize, p: f64, count: usize) -> (Lattice, Vec<Syndrome>) {
    let lattice = Lattice::new(distance).expect("valid distance");
    let model = PureDephasing::new(p).expect("valid probability");
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED + distance as u64);
    let syndromes = (0..count)
        .map(|_| {
            let error = model.sample(&lattice, &mut rng);
            lattice.syndrome_of(&error)
        })
        .collect();
    (lattice, syndromes)
}

/// The allocation guard: after `prepare` and one warm-up pass (which may
/// still grow scratch capacities), a prepared decoder's `decode_into` loop
/// must run the steady state with zero heap allocations.
fn assert_allocation_free(name: &str, decoder: &mut dyn Decoder, distance: usize, p: f64) {
    let (lattice, syndromes) = sample_syndromes(distance, p, 64);
    decoder.prepare(&lattice);
    let mut out = PauliString::identity(lattice.num_data());
    // Warm-up: first decodes may still grow arena capacities to this
    // syndrome population's high-water mark.
    for syndrome in &syndromes {
        for sector in Sector::ALL {
            decoder.decode_into(&lattice, syndrome, sector, &mut out);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..4 {
        for syndrome in &syndromes {
            for sector in Sector::ALL {
                decoder.decode_into(&lattice, syndrome, sector, &mut out);
            }
        }
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "steady-state decode_into of `{name}` (d={distance}, p={p}) performed {allocated} heap \
         allocations over 512 sector decodes; the prepared hot path must not allocate"
    );
    eprintln!(
        "alloc-guard: {name:<16} d={distance} p={p}: 0 allocations over 512 steady-state decodes"
    );
}

/// Runs the allocation guard for every decoder that promises an
/// allocation-free hot path.
fn assert_steady_state_decode_is_allocation_free() {
    // Union-find at the repo benchmark's operating point (mostly-empty
    // sectors), at d = 7 on one word, where most misses hold several
    // clusters, at the historical mid point, where clusters are largest, so
    // its peel queue hits its high-water mark, and at a four-word grid.
    for (distance, p) in [(5, 0.03), (7, 0.03), (9, 0.06), (9, 0.15), (13, 0.15)] {
        assert_allocation_free("union-find", &mut UnionFindDecoder::new(), distance, p);
    }
    // The shape the runtime worker calls: a `DynDecoder` through the box's
    // forwarding impl, and a zero-floor throttle around union-find.
    let mut boxed: DynDecoder = Box::new(UnionFindDecoder::new());
    assert_allocation_free("boxed-union-find", &mut boxed, 5, 0.03);
    assert_allocation_free(
        "throttled-uf",
        &mut ThrottledDecoder::new(UnionFindDecoder::new(), 0),
        5,
        0.03,
    );
    assert_allocation_free(
        "greedy-matching",
        &mut GreedyMatchingDecoder::new(),
        9,
        0.06,
    );
    let lattice = Lattice::new(3).expect("valid distance");
    let mut lookup = LookupDecoder::new(&lattice).expect("d=3 fits the table");
    assert_allocation_free("lookup-table", &mut lookup, 3, 0.06);
    // The SFQ mesh at the lifetime workload's operating point and at a
    // four-word grid, the baseline variant where pairings with ghosts are
    // frequent, and reset without boundary, which walks the longest range of
    // completion times.
    for (distance, p) in [(9, 0.05), (13, 0.15)] {
        assert_allocation_free("sfq-mesh", &mut SfqMeshDecoder::final_design(), distance, p);
    }
    assert_allocation_free(
        "mesh-baseline",
        &mut SfqMeshDecoder::new(DecoderVariant::Baseline),
        5,
        0.08,
    );
    assert_allocation_free(
        "mesh-with-reset",
        &mut SfqMeshDecoder::new(DecoderVariant::WithReset),
        9,
        0.05,
    );
}

/// The offline trial loop's guard: a `run_sfq_lifetime` call allocates for
/// its thread, its decoder, its three buffers and its result vectors —
/// nothing per trial, so twice the trials must cost the same number of
/// allocations.
fn assert_lifetime_trials_are_allocation_free() {
    let lattice = Lattice::new(9).expect("valid distance");
    let model = PureDephasing::new(0.05).expect("valid probability");
    let allocations_of = |trials: usize| {
        let config = MonteCarloConfig::new(trials).with_threads(1).with_seed(7);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(result.cycle_samples.len(), trials);
        allocated
    };
    // Warm-up: the process's first mesh decoder synthesizes the module
    // hardware model for its cycle time.
    allocations_of(1);
    let (short, long) = (allocations_of(2_000), allocations_of(4_000));
    assert_eq!(
        short, long,
        "run_sfq_lifetime allocated {short} times for 2000 trials and {long} times for 4000; \
         the trial loop must not allocate"
    );
    eprintln!("alloc-guard: lifetime trials    : {short} allocations per call, 0 per trial");
}

/// The observability plane's own allocation guard: recording a latency into
/// a worker's log-bucket histogram and publishing an event into the bounded
/// journal are both on (or near) the decode hot path, so after construction
/// they must not touch the heap either.
fn assert_obs_hot_path_is_allocation_free() {
    let mut hist = LocalHistogram::new();
    let journal = EventJournal::new(256);
    // Warm-up (nothing to warm, but keep the shape parallel to the decoder
    // guard): one record and one publish before counting starts.
    hist.record(1_000);
    journal.publish(EventKind::Shed, EventSeverity::Warning, Some(0), None, 0, 0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..512u64 {
        hist.record(round * 977 + 13);
        journal.publish(
            EventKind::BackpressureStall,
            EventSeverity::Info,
            Some((round % 4) as u32),
            Some((round % 2) as u32),
            round * 100,
            round,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "histogram record + journal publish performed {allocated} heap allocations over 512 \
         steady-state rounds; the observability hot path must not allocate"
    );
    assert_eq!(hist.count(), 513);
    assert_eq!(journal.published(), 513);
    eprintln!("alloc-guard: obs hot path      : 0 allocations over 512 records + 512 publishes");
}

/// The streaming-residual guard: classifying a decoded round's residual
/// (and a shed round's) sits directly on the worker and producer hot paths
/// when residual analysis streams, so with the scratch residual buffer
/// prepared it must not allocate either — otherwise soak-scale runs would
/// pay a heap round-trip per round.  At d = 7, and at d = 17 and 31, whose
/// syndromes need more than eight words.
fn assert_streaming_residual_classification_is_allocation_free() {
    for distance in [7, 17, 31] {
        assert_residual_classification_is_allocation_free(distance);
    }
}

fn assert_residual_classification_is_allocation_free(distance: usize) {
    use nisqplus_qec::logical::{classify_both_sectors_into, classify_shed_round, ResidualTally};
    let (lattice, syndromes) = sample_syndromes(distance, 0.05, 32);
    let model = PureDephasing::new(0.05).expect("valid probability");
    let mut rng = ChaCha8Rng::seed_from_u64(0xC1A55);
    let errors: Vec<PauliString> = (0..32).map(|_| model.sample(&lattice, &mut rng)).collect();
    let mut decoder = UnionFindDecoder::new();
    decoder.prepare(&lattice);
    let mut correction = PauliString::identity(lattice.num_data());
    let mut residual = PauliString::identity(lattice.num_data());
    let mut tally = ResidualTally::default();
    // Warm-up: one classify of each kind before counting starts.
    let (x, z) = classify_both_sectors_into(&lattice, &errors[0], &correction, &mut residual);
    tally.record_states(x, z);
    let _ = classify_shed_round(&lattice, &errors[0]);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (error, syndrome) in errors.iter().zip(&syndromes) {
        for sector in Sector::ALL {
            decoder.decode_into(&lattice, syndrome, sector, &mut correction);
        }
        let (x, z) = classify_both_sectors_into(&lattice, error, &correction, &mut residual);
        tally.record_states(x, z);
        let (sx, sz) = classify_shed_round(&lattice, error);
        tally.record_states(sx, sz);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "streaming residual classification performed {allocated} heap allocations over 32 \
         decode+classify rounds at d={distance}; the in-stream residual path must not allocate"
    );
    assert_eq!(tally.rounds, 65);
    eprintln!(
        "alloc-guard: residual classify d={distance:<2}: 0 allocations over 32 decoded + 32 shed \
         classifications"
    );
}

/// The fault plane's allocation guard: with an empty [`FaultPlan`] (the
/// production default) the injector's hot-path hooks — the per-batch crash
/// check and the per-send stall gate —
/// sit on the decode path of every run, so they must be free of heap
/// allocations (and, plan-free, of clock reads and atomics beyond one load).
fn assert_fault_hooks_are_allocation_free() {
    let injector = FaultInjector::disabled();
    // Warm-up, parallel in shape to the other guards.
    assert!(!injector.should_crash(0, 0));
    assert!(!injector.stall_active(0, 0));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..512u64 {
        assert!(!injector.should_crash((round % 4) as usize, round));
        assert!(!injector.stall_active(round, round * 100));
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "disabled fault-injector hooks performed {allocated} heap allocations over 512 \
         steady-state rounds; the fault-free hot path must not allocate"
    );
    eprintln!("alloc-guard: fault hooks       : 0 allocations over 512 disabled-plan rounds");
}

/// The source side of the hand-off: generating a round into a reused
/// [`SourcedRound`], copying its syndrome into a reused packet (`clone_from`,
/// which must reuse the word buffer) and encoding the record — with and
/// without the error payload — is everything the source thread does per round
/// before the send, so on a mixed machine (buffers resized round by round) it
/// must not touch the heap once the largest lattice has been served.
fn assert_source_rounds_are_allocation_free() {
    let specs: Vec<LatticeSpec> = [3, 5, 7, 5, 3, 7]
        .into_iter()
        .enumerate()
        .map(|(id, distance)| {
            let mut spec = LatticeSpec::new(distance);
            spec.seed = id as u64;
            spec.rounds = 100;
            spec.cadence_cycles = 0;
            spec
        })
        .collect();
    let set = LatticeSet::new(specs).expect("valid lattice set");
    let plain = PacketCodec::for_lattice_bits(&set.ancilla_bits());
    let carrying = PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits());
    let mut source =
        InterleavedSource::new(&set, &CycleTimeConverter::paper_reference()).expect("valid noise");
    let mut round = SourcedRound::default();
    let mut packet = SyndromePacket::new(0, 0, 0, &round.syndrome);
    let mut plain_record = vec![0u64; plain.words_per_packet()];
    let mut carrying_record = vec![0u64; carrying.words_per_packet()];
    let mut emit = |rounds: u64| {
        for _ in 0..rounds {
            assert!(source.next_round_into(&mut round));
            packet.lattice_id = round.lattice_id;
            packet.round = round.round;
            packet.syndrome.clone_from(&round.syndrome);
            plain.encode(&packet, &mut plain_record);
            carrying.encode_with_error(&packet, &round.error, &mut carrying_record);
            std::hint::black_box((&plain_record, &carrying_record));
        }
    };
    // Warm-up: one round of every lattice grows the buffers to d = 7.
    emit(set.len() as u64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    emit(512);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "next_round_into + clone_from + encode performed {allocated} heap allocations over 512          rounds of a mixed d = 3/5/7 machine; the source round must not allocate"
    );
    eprintln!("alloc-guard: source round      : 0 allocations over 512 mixed-distance rounds");
}

/// The whole engine: a run allocates for its threads, decoders, rings,
/// report and (capped) timeline — nothing per round on either side of the
/// ring, so twice the rounds may cost only a handful of allocations more
/// (the odd `Vec` doubling in the report path), not thousands.
fn assert_engine_rounds_are_allocation_free() {
    let allocations_of = |rounds: u64| {
        let mut single = RuntimeConfig::new(5);
        single.rounds = rounds;
        // One worker: with two, whether the second ever receives a record
        // (and so prepares its decoder) in a run this short is up to the
        // scheduler.
        single.workers = 1;
        single.cadence_cycles = 0;
        single.record_corrections = false;
        single.max_depth_samples = 16;
        let mut config = MachineConfig::from(single);
        config.track_shed_rounds = false;
        let engine = StreamingEngine::with_machine(config).expect("valid machine");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as _);
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.report.counters.decoded, rounds);
        allocated
    };
    allocations_of(500);
    let (short, long) = (allocations_of(2_000), allocations_of(4_000));
    assert!(
        long <= short + 16,
        "StreamingEngine::run allocated {short} times for 2000 rounds and {long} times for          4000; neither side of the ring may allocate per round"
    );
    eprintln!(
        "alloc-guard: engine run        : {short} allocations for 2000 rounds, {long} for 4000"
    );
}

fn main() {
    assert_steady_state_decode_is_allocation_free();
    assert_lifetime_trials_are_allocation_free();
    assert_streaming_residual_classification_is_allocation_free();
    assert_obs_hot_path_is_allocation_free();
    assert_fault_hooks_are_allocation_free();
    assert_source_rounds_are_allocation_free();
    assert_engine_rounds_are_allocation_free();
}
