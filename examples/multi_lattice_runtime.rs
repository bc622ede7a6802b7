//! Multi-lattice streaming demo: one engine serving a full NISQ+ machine.
//!
//! Registers eight surface-code lattices of mixed distances d ∈ {3, 5, 7} —
//! eight logical qubits, each with its own seeded syndrome stream on its own
//! cadence — and serves them all through one decoder pool popping one ring.
//! The run checks its books ([`RuntimeOutcome::check_invariants`]) and
//! asserts the three invariants the sharded runtime promises:
//!
//! 1. every lattice's queue stays bounded (the decoder fabric keeps up with
//!    the whole machine, not just one patch),
//! 2. each lattice's measured backlog growth agrees with its own closed-form
//!    `BacklogModel` prediction to within 2x,
//! 3. each lattice's merged Pauli frame is byte-identical to decoding that
//!    lattice's stream sequentially offline — sharding is a transparent
//!    transport per logical qubit.
//!
//! Run with `cargo run --release --example multi_lattice_runtime`.

use nisqplus_decoders::{Decoder, DynDecoder, UnionFindDecoder};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::Sector;
use nisqplus_runtime::{
    MachineConfig, NoiseSpec, PushPolicy, RuntimeConfig, StreamingEngine, SyndromeSource,
};

/// The machine: eight logical qubits across three code distances.
const DISTANCES: [usize; 8] = [3, 3, 3, 5, 5, 5, 7, 7];

/// Per-lattice syndrome-generation period: the paper's 400 ns cadence scaled
/// by 250x (~100 us per round per lattice), so one shared CPU core can host
/// the producer and both workers.  Eight lattices make the *aggregate*
/// arrival one round per ~12.5 us — the pool-level load the machine puts on
/// the decoder fabric — and the dynamics depend only on the service/arrival
/// ratio, which the report compares at the measured rates.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 250;

/// Rounds streamed per lattice.
const ROUNDS_PER_LATTICE: u64 = 1_500;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = MachineConfig::new(&DISTANCES, 2020);
    for spec in &mut config.lattices {
        spec.noise = NoiseSpec::Depolarizing { p: 0.02 };
        spec.rounds = ROUNDS_PER_LATTICE;
        spec.cadence_cycles = CADENCE_CYCLES;
    }
    config.workers = 2;
    config.push_policy = PushPolicy::Block;
    config.queue_capacity = 16_384;

    let engine = StreamingEngine::with_machine(config.clone())?;
    println!(
        "streaming {} lattices (d in {:?}) x {} rounds @ {:.0} us per lattice round \
         ({:.1} us aggregate) on {} workers",
        DISTANCES.len(),
        engine.lattice_set().distances(),
        ROUNDS_PER_LATTICE,
        config.cycle_time.cycles_to_ns(CADENCE_CYCLES) / 1000.0,
        config.aggregate_cadence_ns() / 1000.0,
        config.workers
    );
    println!();
    let outcome = engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);
    println!("{}", outcome.report);
    println!();
    outcome.check_invariants()?;

    // --- 1. The fabric keeps up with every patch of the machine. ---------
    assert_eq!(
        outcome.report.counters.decoded,
        DISTANCES.len() as u64 * ROUNDS_PER_LATTICE
    );
    assert!(
        outcome.report.lattices_falling_behind().is_empty(),
        "no lattice may fall behind: {:?}",
        outcome.report.lattices_falling_behind()
    );
    assert!(outcome.report.queue_stayed_bounded());

    // --- 2. Each lattice's measured backlog agrees with its model. -------
    // Each lattice's view assumes the whole pool serves it: an optimistic
    // capacity bound, since the lattices share the workers.
    let workers = outcome.report.worker_batches.len();
    for lattice in &outcome.report.lattices {
        let comparison = lattice.comparison(workers);
        assert!(
            comparison.within(2.0),
            "lattice {} (d={}): measured growth {:.4} vs model {:.4} disagrees beyond 2x",
            lattice.lattice_id,
            lattice.distance,
            comparison.measured_growth_per_round,
            comparison.predicted_growth_per_round
        );
    }

    // --- 3. Sharding is transparent: per-lattice frames are byte-identical
    //        to decoding each lattice's stream sequentially. --------------
    let set = engine.lattice_set();
    for (lattice_id, spec, lattice) in set.iter() {
        let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed)?;
        let mut decoder = UnionFindDecoder::new();
        let mut frame = PauliFrame::new(lattice.num_data());
        for _ in 0..spec.rounds {
            let syndrome = source.next_syndrome();
            let x = decoder.decode(lattice, &syndrome, Sector::X);
            let z = decoder.decode(lattice, &syndrome, Sector::Z);
            let mut correction = x.into_pauli_string();
            correction.compose_with(z.pauli_string());
            frame.record(&correction);
        }
        assert_eq!(
            &outcome.frame_for(lattice_id).merged(),
            frame.as_pauli_string(),
            "lattice {lattice_id} diverged from its sequential decode"
        );
    }
    println!(
        "all {} lattices BOUNDED, per-lattice growth within 2x of each BacklogModel, and \
         every merged per-lattice frame byte-identical to its sequential decode.",
        DISTANCES.len()
    );
    println!();
    println!(
        "One engine serves the whole machine: every worker pops the next syndrome from one \
         ring and routes it by lattice_id, decoders are prepared once per code distance, and \
         the report's per-lattice breakdown says which patch would fall behind."
    );
    Ok(())
}
