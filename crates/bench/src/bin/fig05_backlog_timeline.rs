//! Regenerates Figure 5: wall-clock time versus compute time when the decoder
//! is slower than syndrome generation (the backlog builds up at every T gate).
//!
//! Pass `--measured` (or set `NISQ_MEASURED=1`) to replace the closed-form
//! tables with an *empirical* run: the `nisqplus-runtime` streaming engine
//! decodes a live d=5 syndrome stream with progressively throttled decoders
//! and reports the measured backlog growth next to the model's prediction.

use nisqplus_bench::{print_header, print_table};
use nisqplus_core::SfqMeshDecoder;
use nisqplus_decoders::DynDecoder;
use nisqplus_runtime::{RuntimeConfig, StreamingEngine, ThrottledDecoder};
use nisqplus_system::backlog::BacklogModel;
use nisqplus_system::benchmarks::BenchmarkCircuit;

/// The measured mode: stream syndromes through the runtime at a fixed
/// cadence and compare the observed backlog slope against the model.
fn measured_mode() {
    print_header("Figure 5 (measured): empirical backlog growth from the streaming runtime");
    let mut config = RuntimeConfig::new(5);
    config.rounds = 4_000;
    config.workers = 2;
    // ~10 us per round: the paper's 400 ns cadence scaled so a shared CPU
    // core can host the producer and both workers (the dynamics depend only
    // on the service/arrival ratio f; see examples/streaming_runtime.rs).
    config.cadence_cycles = RuntimeConfig::PAPER_CADENCE_CYCLES * 25;
    config.queue_capacity = 8_192;
    let engine = StreamingEngine::new(config).expect("valid runtime config");

    let mut rows = Vec::new();
    for floor_ns in [0u64, 25_000, 60_000] {
        let factory = move || {
            if floor_ns == 0 {
                Box::new(SfqMeshDecoder::final_design()) as DynDecoder
            } else {
                Box::new(ThrottledDecoder::new(
                    SfqMeshDecoder::final_design(),
                    floor_ns,
                )) as DynDecoder
            }
        };
        let outcome = engine.run(&factory);
        let report = &outcome.report;
        let comparison = report.comparison();
        rows.push(vec![
            report.decoder(),
            format!("{:.2}", comparison.effective_ratio),
            format!("{:.4}", comparison.predicted_growth_per_round),
            format!("{:.4}", comparison.measured_growth_per_round),
            report.final_backlog.to_string(),
            format!("{:.2}x", comparison.agreement_factor()),
        ]);
    }
    print_table(
        &[
            "decoder",
            "f_eff",
            "model growth/round",
            "measured growth/round",
            "final backlog",
            "agreement",
        ],
        &rows,
    );
    println!();
    println!(
        "Paper reference: the closed-form model says a decoder with f > 1 accumulates \
         1 - 1/f rounds of backlog per generated round; here the slope is *measured* on a \
         live stream ({} rounds, {} workers, {:.1} us cadence) instead of modeled.",
        config.rounds,
        config.workers,
        config.cadence_ns() / 1000.0
    );
}

fn main() {
    let measured =
        std::env::args().any(|a| a == "--measured") || std::env::var_os("NISQ_MEASURED").is_some();
    if measured {
        measured_mode();
        return;
    }
    print_header("Figure 5: wall-clock growth at successive T gates (f > 1)");
    // A small illustrative schedule: 10 T gates, 10 Clifford gates between them.
    let bench = BenchmarkCircuit::new("illustration", 4, 110, 10);
    let cycle_ns = BacklogModel::DEFAULT_SYNDROME_CYCLE_NS;

    for ratio in [1.25f64, 1.5, 2.0] {
        let model = BacklogModel::from_ratio(ratio);
        println!("decoding ratio f = {:.2}", model.ratio());
        let gap = bench.total_gates() as f64 / bench.t_gates() as f64;
        let mut rows = Vec::new();
        let mut stall = 0.0f64;
        let mut cumulative_stall = 0.0f64;
        for t in 1..=bench.t_gates() {
            stall = ratio * stall + (ratio - 1.0) * gap;
            cumulative_stall += stall;
            let compute = gap * t as f64;
            rows.push(vec![
                t.to_string(),
                format!("{:.1}", compute * cycle_ns * 1e-3),
                format!("{:.1}", stall * cycle_ns * 1e-3),
                format!("{:.1}", (compute + cumulative_stall) * cycle_ns * 1e-3),
            ]);
        }
        print_table(
            &[
                "T gate #",
                "compute time (us)",
                "stall at this T gate (us)",
                "wall clock (us)",
            ],
            &rows,
        );
        println!();
    }
    println!(
        "Paper reference: with f > 1 the stall before the k-th T gate grows like f^k, so the \
         wall-clock curve bends away from the no-backlog diagonal (line a of Figure 5)."
    );
}
