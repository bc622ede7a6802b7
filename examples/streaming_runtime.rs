//! Streaming runtime demo: measure the decoding backlog instead of modeling it.
//!
//! Streams a distance-5 syndrome sequence through the lock-free runtime twice:
//!
//! 1. with the paper's SFQ mesh decoder, which keeps up with generation —
//!    the queue stays bounded (the point of NISQ+),
//! 2. with a deliberately throttled decoder slower than the cadence — the
//!    backlog grows without bound, and the measured growth per round lands
//!    within 2x of the closed-form `BacklogModel` prediction (the empirical
//!    counterpart of Figures 5 and 6).
//!
//! Each run reports its backlog over time (the depth timeline), decode
//! latency quantiles from the workers' bounded log-bucket histograms and
//! its event journal; the finished report is exported as schema-versioned
//! JSON and read back.
//!
//! Run with `cargo run --release --example streaming_runtime`.

use nisqplus_core::SfqMeshDecoder;
use nisqplus_decoders::DynDecoder;
use nisqplus_runtime::report::{read_report, write_report};
use nisqplus_runtime::{PushPolicy, RuntimeConfig, StreamingEngine, ThrottledDecoder};

/// Syndrome-generation period in decoder cycles: ~10 us per round.
///
/// The paper's superconducting machine emits a round every 400 ns
/// (`RuntimeConfig::PAPER_CADENCE_CYCLES`); on a shared CPU core the producer
/// and the workers timeshare, so the demo scales the cadence by 25x and keeps
/// the *ratios* faithful — the backlog dynamics depend only on
/// `f = service rate / arrival rate`, and the report compares against the
/// model at the measured rates.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 25;

/// Wall-clock floor per `decode()` call.  Each round decodes two stabilizer
/// sectors, so per-round service is at least 80 us per worker — 40 us in
/// aggregate across the two workers, i.e. f >= 4 against the 10 us cadence.
/// Single-core scheduling overhead pushes the realized service time higher
/// still, which is fine: the model comparison uses the *measured* service
/// and arrival rates, not these nominal ones.
const THROTTLE_FLOOR_NS: u64 = 40_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = RuntimeConfig::new(5);
    config.rounds = 12_000;
    config.workers = 2;
    config.cadence_cycles = CADENCE_CYCLES;
    config.push_policy = PushPolicy::Block;
    config.queue_capacity = 16_384; // deep enough to hold the full backlog

    // --- Run 1: the paper's decoder, faster than the stream. -------------
    let engine = StreamingEngine::new(config)?;
    println!(
        "streaming d={} / {} rounds @ {:.1} us per round on {} workers",
        config.distance,
        config.rounds,
        config.cadence_ns() / 1000.0,
        config.workers
    );
    println!();
    let fast = engine.run(&|| Box::new(SfqMeshDecoder::final_design()) as DynDecoder);
    println!("{}", fast.report);
    println!();
    fast.check_invariants()?;
    assert!(
        fast.report.queue_stayed_bounded(),
        "the SFQ mesh decoder must keep up with syndrome generation"
    );

    // Decode quantiles come straight from the workers' bounded histograms.
    let quantiles = &fast.report.decode_latency.quantiles;
    println!(
        "observability: {} depth samples; decode p50/p99/p999 = \
         {:.0}/{:.0}/{:.0} ns; journal published {} events",
        fast.report.depth_timeline.len(),
        quantiles.p50,
        quantiles.p99,
        quantiles.p999,
        fast.report.journal.published,
    );
    assert!(quantiles.p99 >= quantiles.p50);
    assert!(
        fast.report
            .stages
            .iter()
            .any(|stage| stage.stage == "channel"),
        "every stage files a report"
    );

    // --- Run 2: a deliberately throttled decoder (f > 1). ----------------
    let throttled = engine.run(&|| {
        Box::new(ThrottledDecoder::new(
            SfqMeshDecoder::final_design(),
            THROTTLE_FLOOR_NS,
        )) as DynDecoder
    });
    println!("{}", throttled.report);
    println!();
    throttled.check_invariants()?;

    // The backlog grows monotonically while generation runs...
    let timeline = &throttled.report.depth_timeline;
    println!("backlog timeline (throttled run):");
    for sample in timeline.iter().step_by(timeline.len().div_ceil(8).max(1)) {
        println!(
            "  round {:>6}  t = {:>7.2} ms  queue depth {:>6}  backlog {:>6}",
            sample.round,
            sample.elapsed_ns as f64 / 1e6,
            sample.queue_depth,
            sample.backlog
        );
    }
    let quarters: Vec<u64> = (0..4)
        .map(|q| timeline[(timeline.len() - 1) * (q + 1) / 4].backlog)
        .collect();
    assert!(
        quarters.windows(2).all(|w| w[0] < w[1]),
        "throttled backlog must grow monotonically, got {quarters:?}"
    );
    assert!(
        !throttled.report.queue_stayed_bounded(),
        "a decoder slower than generation cannot keep the queue bounded"
    );

    // ...and the measured growth validates the paper's closed-form model.
    let comparison = throttled.report.comparison();
    println!();
    println!(
        "measured backlog growth {:.3} rounds/round vs model {:.3} at f_eff = {:.2} \
         (agreement {:.2}x)",
        comparison.measured_growth_per_round,
        comparison.predicted_growth_per_round,
        comparison.effective_ratio,
        comparison.agreement_factor()
    );
    assert!(
        comparison.within(2.0),
        "measured growth must be within 2x of the BacklogModel prediction, got {:.2}x",
        comparison.agreement_factor()
    );
    // --- The export round trip. ------------------------------------------
    // Write the throttled run's report as schema-versioned JSON; reading it
    // back through the schema-checked parser must reproduce the in-memory
    // report exactly.
    let export_path = std::env::temp_dir().join("nisqplus_streaming_report.json");
    write_report(&export_path, &throttled.report)?;
    let reloaded = read_report(&export_path)?;
    assert_eq!(
        reloaded, throttled.report,
        "exported JSON must round-trip the report bit-for-bit"
    );
    println!(
        "observability: report exported to {} and reloaded intact \
         (schema v{}, {} depth samples, {} journal events)",
        export_path.display(),
        nisqplus_runtime::SCHEMA_VERSION,
        reloaded.depth_timeline.len(),
        reloaded.journal.published,
    );
    std::fs::remove_file(&export_path).ok();

    println!();
    println!(
        "The mesh decoder keeps the queue bounded at hardware cadence; any decoder with \
         f > 1 accumulates backlog at the modeled rate — measured, not just modeled."
    );
    Ok(())
}
