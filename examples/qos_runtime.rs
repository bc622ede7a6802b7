//! Per-lattice QoS demo: what load shedding costs, measured per patch.
//!
//! A four-lattice machine under deliberate overload of its d=5 distance
//! class:
//!
//! * lattice 0 (d=5, `Drop`, queue budget 4, shed SLO 10%) — a best-effort
//!   patch that sheds rounds instead of queueing them,
//! * lattice 1 (d=5, `Block`) — a protected patch with the same stream
//!   shape: it never loses a round and its backlog GROWS instead,
//! * lattices 2 and 3 (d=3) — fast patches served by their own
//!   `LookupDecoder` factory (heterogeneous decoder assignment).  They stay
//!   lossless, but because rings are shared FIFO their rounds queue behind
//!   throttled d=5 rounds — the head-of-line coupling the report makes
//!   visible (and ROADMAP's lattice-affinity placement item would remove).
//!
//! The run enables the end-of-run residual analysis, so the report prices
//! the two contracts in *measured logical failures*: shed rounds enter the
//! per-lattice frame as identity corrections and their residuals are
//! classified against the replayed seeded error stream.  The assertions at
//! the bottom are the acceptance criteria: nonzero shed rate and measured
//! residual failure rate on the Drop patch, zero shed on the Block patch,
//! and a strictly higher failure rate under shedding than under
//! backpressure.  The event journal must tell the same story: one `shed`
//! event per dropped round (the totals reconcile exactly with the
//! counters) and `budget_exhausted` warnings from the Drop lane.
//!
//! Run with `cargo run --release --example qos_runtime`.  Every line of the
//! printed report is documented in `docs/OPERATIONS.md`.

use nisqplus_decoders::{DynDecoder, LookupDecoder, SharedDecoderFactory, UnionFindDecoder};
use nisqplus_qec::lattice::Lattice;
use nisqplus_runtime::{
    EventKind, LatticeSpec, MachineConfig, NoiseSpec, PushPolicy, RuntimeConfig, StreamingEngine,
    ThrottledDecoder,
};
use std::sync::Arc;

/// Rounds streamed per lattice.
const ROUNDS: u64 = 400;

/// Per-lattice syndrome-generation period: the paper's 400 ns scaled by
/// 250x (~100 us) so a single shared core can host producer and workers.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 250;

/// Wall-clock floor per d=5 sector decode: ~300 us per round against a
/// ~100 us per-patch cadence, so the d=5 class runs at f_eff ~ 3 — the
/// overload that forces the shed-versus-block choice.
const D5_FLOOR_NS: u64 = 150_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = |distance: usize, seed: u64| {
        LatticeSpec::new(distance)
            .with_noise(NoiseSpec::PureDephasing { p: 0.03 })
            .with_seed(seed)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(CADENCE_CYCLES)
    };
    // Both d=3 patches share one lookup factory (and therefore one prepared
    // decoder instance per worker).
    let lookup: SharedDecoderFactory = Arc::new(|| {
        Box::new(LookupDecoder::new(&Lattice::new(3).expect("d=3 is valid")).expect("d=3 fits"))
            as DynDecoder
    });

    let mut config = MachineConfig::new(&[5, 5, 3, 3], 2020);
    config.lattices = vec![
        spec(5, 2020)
            .with_push_policy(PushPolicy::Drop)
            .with_queue_budget(4)
            .with_shed_slo(0.10),
        spec(5, 2021).with_push_policy(PushPolicy::Block),
        spec(3, 2022).with_shared_decoder(lookup.clone()),
        spec(3, 2023).with_shared_decoder(lookup),
    ];
    config.workers = 3;
    config.queue_capacity = 16_384;
    config.push_policy = PushPolicy::Block;
    config.analyze_residuals = true;

    // The machine-wide factory: union-find, throttled only at d=5.
    let base: SharedDecoderFactory = Arc::new(|| Box::new(UnionFindDecoder::new()) as DynDecoder);
    let factory = ThrottledDecoder::factory_for_distance(base, D5_FLOOR_NS, 5);

    let engine = StreamingEngine::with_machine(config)?;
    println!(
        "streaming 4 lattices (d=5 Drop/budget 4, d=5 Block, 2x d=3 lookup) x {ROUNDS} rounds, \
         d=5 throttled to ~{} us per sector decode on 3 workers",
        D5_FLOOR_NS / 1000
    );
    println!();
    let outcome = engine.run(&factory);
    println!("{}", outcome.report);
    println!();

    let report = &outcome.report;
    let drop = &report.lattices[0];
    let block = &report.lattices[1];

    // --- The Drop patch shed, measurably. ------------------------------
    assert!(drop.counters.dropped > 0, "the Drop patch must shed");
    assert!(drop.shed_rate() > 0.10, "f_eff ~ 3 sheds well over the SLO");
    assert_eq!(drop.meets_shed_slo(), Some(false));
    assert_eq!(drop.verdict(), "SHEDDING");
    let drop_residual = drop.residual.expect("analysis enabled");
    assert_eq!(drop_residual.shed.rounds, drop.counters.dropped);
    assert!(
        drop_residual.failure_rate() > 0.0,
        "shedding must show a measured logical cost"
    );

    // --- The Block patch lost nothing (and paid in backlog instead). ----
    assert_eq!(block.counters.dropped, 0, "Block never sheds");
    assert_eq!(block.counters.decoded, ROUNDS);
    assert_eq!(block.shed_rate(), 0.0);
    let block_residual = block.residual.expect("analysis enabled");
    assert_eq!(block_residual.shed.rounds, 0);
    assert!(
        !block.queue_stayed_bounded(),
        "the protected overloaded patch pays with a growing backlog"
    );

    // --- Shedding is strictly worse than backpressure, in logical terms. -
    assert!(
        drop_residual.failure_rate() > block_residual.failure_rate(),
        "drop {:.4} must exceed block {:.4}",
        drop_residual.failure_rate(),
        block_residual.failure_rate()
    );

    // --- Heterogeneous decoders: per-lattice names in the report. -------
    assert_eq!(
        drop.decoder,
        format!("throttled(union-find)@{D5_FLOOR_NS}ns[d=5]")
    );
    assert_eq!(report.lattices[2].decoder, "lookup-table");
    assert_eq!(report.lattices[3].decoder, "lookup-table");
    assert!(
        report.decoder.contains('+'),
        "headline joins distinct names"
    );
    // The d=3 patches are lossless end to end.  Their own decodes are
    // microseconds, but shared FIFO rings make them wait behind throttled
    // d=5 rounds, so their queues can grow with the machine's — the
    // head-of-line coupling the per-lattice breakdown exposes.
    for fast in &report.lattices[2..] {
        assert_eq!(fast.counters.dropped, 0);
        assert_eq!(fast.counters.decoded, ROUNDS);
        assert_eq!(fast.residual.expect("analysis enabled").shed.rounds, 0);
    }

    // --- Every generated round is accounted for, shed rounds included. --
    for lattice in &report.lattices {
        assert_eq!(lattice.measured.shed, lattice.counters.dropped);
        assert_eq!(
            outcome.frame_for(lattice.lattice_id).total_recorded(),
            lattice.counters.generated,
            "identity corrections must cover shed rounds in the frame"
        );
    }

    // --- The event journal narrates the same story. ----------------------
    // Every shed round published one Shed event, so the journal's per-kind
    // totals reconcile exactly with the counters; the Drop lane's exhausted
    // budget additionally shows up as BudgetExhausted warnings.
    let journal = &report.journal;
    assert_eq!(
        journal.counts[EventKind::Shed],
        report.counters.dropped,
        "one Shed event per dropped round"
    );
    assert!(
        journal.counts[EventKind::BudgetExhausted] > 0,
        "the Drop lane's budget refusals must be journaled"
    );
    assert!(journal.warning > 0);
    assert!(
        !journal.recent.is_empty(),
        "the report carries the newest events verbatim"
    );
    println!(
        "journal: {} events published ({} overwritten) — shed {}, budget_exhausted {}, \
         backpressure_stall {}, steal {}, verdict_flip {}",
        journal.published,
        journal.overwritten,
        journal.counts[EventKind::Shed],
        journal.counts[EventKind::BudgetExhausted],
        journal.counts[EventKind::BackpressureStall],
        journal.counts[EventKind::Steal],
        journal.counts[EventKind::VerdictFlip]
    );
    println!();

    println!(
        "Drop patch shed {:.1}% of its rounds and measured a {:.2}% residual failure rate; \
         the Block patch shed nothing ({:.2}% failures) and grew a {}-round backlog instead.",
        drop.shed_rate() * 100.0,
        drop_residual.failure_rate() * 100.0,
        block_residual.failure_rate() * 100.0,
        block.final_backlog
    );
    println!();
    println!(
        "Per-lattice QoS in one engine: each patch chose its own drop policy, queue budget \
         and decoder, and the residual analysis priced the shed rounds in logical errors \
         instead of assuming them away."
    );
    Ok(())
}
