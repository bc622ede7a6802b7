//! Chaos demo: one run that survives a worker crash, a burst-noise
//! episode, and a stalled ring — and can prove, frame by frame, that
//! nothing was lost.
//!
//! A three-lattice machine under the machine-wide `Block` policy, one
//! lattice carrying a burst episode, under a seeded [`FaultPlan`]:
//!
//! * lattice 0 (d=5) — the protected patch; it must come through the chaos
//!   byte-identical to a fault-free reference run,
//! * lattice 1 (d=3) — a plain neighbour sharing the ring,
//! * lattice 2 (d=3) — the burst target: rounds 40..60 run at 8x
//!   the base dephasing rate (two re-tunes, to the hot channel at round 40
//!   and back at round 60).  The burst is part of the stream's seeded
//!   identity, so the reference run replays the *same* burst and the frames
//!   still match exactly.
//!
//! On top of that, worker 0 is killed (an injected panic) after its tenth
//! committed round — the supervisor catches the unwind, re-prepares the
//! decoders, and the replacement adopts the dead worker's frame shard — and
//! the ring refuses sends for 2 ms starting at machine emission 50,
//! exercising the backpressure path without tripping the watchdog.
//!
//! The acceptance criteria: the run ends (no hang), no panic escapes, its
//! books hold ([`RuntimeOutcome::check_invariants`]), no round is shed,
//! lattices 0 and 2 end `BOUNDED`, and every lattice's merged Pauli frame is
//! byte-identical to the reference.
//!
//! Run with `cargo run --release --example chaos_runtime`.  The fault
//! taxonomy and every `fault:` report field are documented in
//! `docs/OPERATIONS.md`.

use nisqplus_decoders::{DynDecoder, UnionFindDecoder};
use nisqplus_runtime::{
    fault::silence_injected_crash_panics, EventKind, FaultPlan, LatticeSpec, MachineConfig,
    NoiseSpec, PushPolicy, RuntimeConfig, RuntimeOutcome, StreamingEngine,
};

/// Rounds streamed per lattice.
const ROUNDS: u64 = 300;

/// Per-lattice syndrome-generation period: the paper's 400 ns scaled by
/// 250x (~100 us) so the decoders keep up and the lattices can end the
/// run BOUNDED — the chaos, not the clock, is what's under test.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 250;

/// The base channel of every lattice.
const BASE: NoiseSpec = NoiseSpec::PureDephasing { p: 0.02 };

/// The channel of lattice 2's burst, rounds 40..60: 8x the base rate.
const HOT: NoiseSpec = NoiseSpec::PureDephasing { p: 0.02 * 8.0 };

/// Builds the three-lattice machine; `plan` is the only difference between
/// the chaos run and the fault-free reference.
fn machine(plan: FaultPlan) -> MachineConfig {
    let spec = |distance: usize, seed: u64| {
        LatticeSpec::new(distance)
            .with_noise(BASE)
            .with_seed(seed)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(CADENCE_CYCLES)
    };
    let mut config = MachineConfig::new(&[5, 3, 3], 9000);
    config.lattices = vec![
        spec(5, 9000),
        spec(3, 9001),
        spec(3, 9002).with_retune(40, HOT).with_retune(60, BASE),
    ];
    config.workers = 2;
    config.queue_capacity = 4_096;
    config.push_policy = PushPolicy::Block;
    config.fault = plan;
    config
}

fn run(plan: FaultPlan) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine(plan)).expect("valid config");
    engine.run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The injected crash is a real panic; keep its backtrace out of stderr
    // so the only panics this process prints are unexpected ones.
    silence_injected_crash_panics();

    let chaos_plan = FaultPlan::default()
        .crash_worker(0, 10) // kill worker 0 after 10 committed rounds
        .stall_ring(50, 2_000_000); // the ring refuses sends for 2 ms

    // The burst is physics, not a failure: the plan-free reference
    // streams the same episode, so the burst lattice's frames are comparable
    // byte for byte.
    let reference_plan = FaultPlan::default();

    println!("chaos run: 3 lattices (d=5, d=3, d=3; Block) x {ROUNDS} rounds on 2 workers");
    println!("  plan: kill worker 0 after 10 decodes; 8x burst on lattice 2 rounds 40..60;");
    println!("        stall the ring for 2 ms");
    println!();
    let chaos = run(chaos_plan);
    println!("{}", chaos.report);
    println!();
    let reference = run(reference_plan);

    // --- The books hold: the crash restarted, the burst's two edges
    // journaled as noise changes, every round decoded or shed. ------------
    chaos.check_invariants()?;
    reference.check_invariants()?;
    let report = &chaos.report;
    let counts = &report.journal.counts;
    assert_eq!(report.fault.injected_crashes, 1, "the crash fired");
    assert_eq!(report.fault.injected_stalls, 1);
    assert_eq!(
        counts[EventKind::NoiseChange],
        2,
        "the burst began and ended"
    );
    assert_eq!(
        counts[EventKind::WatchdogTrip],
        0,
        "a 2 ms stall must ride out on backpressure, far below the watchdog"
    );

    // --- Nothing was shed; lattices 0 and 2 stayed bounded. ---------------
    assert_eq!(report.counters.dropped, 0, "the stall was ridden out");
    for &id in &[0usize, 2] {
        let lattice = &report.lattices[id];
        assert_eq!(lattice.verdict(), "BOUNDED", "lattice {id} stayed bounded");
    }

    // --- Recovery is exact: every frame matches the reference. ------------
    assert_eq!(reference.report.counters.dropped, 0);
    for id in 0..3 {
        assert_eq!(
            chaos.frame_for(id).merged(),
            reference.frame_for(id).merged(),
            "lattice {id}'s merged Pauli frame must be byte-identical to the fault-free run"
        );
    }

    println!(
        "survived: crash caught+restarted ({} restart), burst 40..60 replayed, 2 ms stall \
         absorbed ({} watchdog trips)",
        counts[EventKind::WorkerRestart],
        counts[EventKind::WatchdogTrip]
    );
    println!(
        "recovery is exact: every lattice decoded {ROUNDS}/{ROUNDS} rounds with merged frames \
         byte-identical to the fault-free reference; the books hold."
    );
    Ok(())
}
