//! Scenario demo: one machine under time-varying noise, every re-tune
//! accounted for.
//!
//! A two-lattice machine runs everything the scenario plane offers in a
//! single live pass:
//!
//! * lattice 0 (d=3) — the burst target: rounds 20..50 run at 5x the base
//!   rate, and its channel becomes depolarizing at its own round 40, inside
//!   the burst (5x there too) — four re-tunes
//!   ([`LatticeSpec::with_retune`]) in all, counting the base channel's
//!   return at round 50,
//! * lattice 1 (d=5) — the step target: its dephasing rate steps through
//!   four levels, one per quarter of the run.
//!
//! Every edge of either lattice's noise schedule shows afterwards as a cut
//! in its noise-epoch timeline and a `noise_change` in the journal.
//!
//! The checks at the bottom are the acceptance criteria: the run's books
//! hold, the scenario actually happened (the re-tunes cut each lattice's
//! epochs exactly, one `noise_change` each), and blocking backpressure
//! shed nothing.  The run's [`GoldenSummary`](nisqplus_runtime::GoldenSummary)
//! — counters, per-lattice shed counts, merged-frame digests, residual
//! tallies, the quantities a golden trace pins — is printed last.
//!
//! Run with `cargo run --release --example scenario_runtime`.  The trace
//! format and the noise schedule are documented in `docs/OPERATIONS.md`
//! (operator view) and `docs/ARCHITECTURE.md` (wire view).

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_runtime::{
    golden_summary, EventKind, LatticeSpec, MachineConfig, NoiseSpec, PushPolicy, StreamingEngine,
};

/// Rounds streamed per lattice.
const ROUNDS: u64 = 160;

/// Lattice 1's dephasing rate in each quarter of the run.
const STEPS: [f64; 4] = [0.01, 0.018, 0.01, 0.002];

fn machine() -> MachineConfig {
    let mut config = MachineConfig::new(&[3, 5], 7100);
    config.lattices = vec![
        // Burst target: 5x dephasing over rounds 20..50, its channel
        // depolarizing from round 40 on.
        LatticeSpec::new(3)
            .with_noise(NoiseSpec::PureDephasing { p: 0.015 })
            .with_seed(7100)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(0)
            .with_retune(20, NoiseSpec::PureDephasing { p: 0.015 * 5.0 })
            .with_retune(40, NoiseSpec::Depolarizing { p: 0.04 * 5.0 })
            .with_retune(50, NoiseSpec::Depolarizing { p: 0.04 }),
        // Step target: one level per quarter of the run.
        LatticeSpec::new(5)
            .with_noise(NoiseSpec::PureDephasing { p: STEPS[0] })
            .with_seed(7101)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(0)
            .with_retune(ROUNDS / 4, NoiseSpec::PureDephasing { p: STEPS[1] })
            .with_retune(ROUNDS / 2, NoiseSpec::PureDephasing { p: STEPS[2] })
            .with_retune(3 * ROUNDS / 4, NoiseSpec::PureDephasing { p: STEPS[3] }),
    ];
    config.workers = 2;
    config.queue_capacity = 4_096;
    config.push_policy = PushPolicy::Block;
    config.analyze_residuals = true;
    config
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;

    println!(
        "scenario run: 2 lattices (d=3 burst + re-tune, d=5 steps) x {ROUNDS} rounds on 2 workers"
    );
    println!("  lattice 0: 5x burst over rounds 20..50, depolarizing from its round 40");
    println!("  lattice 1: dephasing steps {STEPS:?}, one per quarter of the run");
    println!();

    let engine = StreamingEngine::with_machine(machine())?;
    let live = engine.run(&factory);
    println!("{}", live.report);
    println!();
    live.check_invariants()?;
    let report = &live.report;

    // --- The scenario actually happened. ---------------------------------
    let epochs = |id: usize| -> Vec<(u64, u64, &str, f64)> {
        (report.lattices[id].noise_epochs.iter())
            .map(|e| (e.start_round, e.end_round, e.label.as_str(), e.mean_rate))
            .collect()
    };
    assert_eq!(
        epochs(0),
        [
            (0, 20, "dephasing", 0.015),
            (20, 40, "dephasing", 0.015 * 5.0),
            (40, 50, "depolarizing", 0.04 * 5.0),
            (50, ROUNDS, "depolarizing", 0.04),
        ],
        "the burst's edges and the re-tune cut lattice 0's timeline"
    );
    let quarter = ROUNDS / 4;
    let steps: Vec<(u64, u64, &str, f64)> = (0..4)
        .map(|i| {
            (
                i * quarter,
                (i + 1) * quarter,
                "dephasing",
                STEPS[i as usize],
            )
        })
        .collect();
    assert_eq!(epochs(1), steps, "each step cuts lattice 1's timeline");
    assert_eq!(
        report.journal.counts[EventKind::NoiseChange],
        6,
        "one noise change per cut: three on each lattice"
    );
    assert_eq!(
        report.counters.dropped, 0,
        "blocking backpressure sheds nothing"
    );

    let golden = golden_summary(&live);
    println!(
        "{} rounds across {} lattices; {} + {} noise epochs",
        report.counters.generated,
        report.lattices.len(),
        report.lattices[0].noise_epochs.len(),
        report.lattices[1].noise_epochs.len()
    );
    println!(
        "golden summary: {} on {} workers, {} generated / {} decoded / {} dropped, \
         shed {:?}, frame digests {:x?}",
        golden.decoder,
        golden.workers,
        golden.generated,
        golden.decoded,
        golden.dropped,
        golden.shed,
        golden.frame_digests
    );
    Ok(())
}
