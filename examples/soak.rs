//! The soak driver: one sustained multi-lattice streaming run at machine
//! scale, asserting its invariants and printing a summary.
//!
//! ```text
//! cargo run --release --example soak                 # full: 1M rounds, 100 lattices
//! NISQ_SOAK_SMOKE=1 cargo run --release --example soak   # CI smoke: 50k rounds, 16 lattices
//! ```
//!
//! Both profiles mix distances (3/5/7) under blocking backpressure,
//! classify every round's residual *in stream* — memory stays
//! O(lattices), not O(rounds) — and assert conservation (every generated
//! round decoded or shed) per lattice.  The smoke profile additionally
//! demands every verdict come back `BOUNDED`.  The latency quantiles
//! printed are the engine's own exactly-merged aggregate; over the lattices
//! of the machine's push policy only what sums exactly is shown.  See `nisqplus_bench::soak` for the harness
//! itself and `docs/OPERATIONS.md` ("Running a soak") for the operator's
//! guide.

use nisqplus_bench::soak::{self, SoakProfile};
use nisqplus_qec::logical::ResidualTally;

/// Orders verdicts: `GROWING` is worse than `SHEDDING` is worse than
/// `BOUNDED`.
fn severity(verdict: &str) -> u8 {
    match verdict {
        "GROWING" => 2,
        "SHEDDING" => 1,
        _ => 0,
    }
}

fn main() {
    let profile = SoakProfile::from_env();
    let outcome = soak::run(&profile);
    let report = &outcome.report;
    println!(
        "soak {}: {} lattices d={:?} | {} workers | {} rounds in {:.2} s ({:.0} rounds/s)",
        if profile.smoke { "smoke" } else { "full" },
        report.lattices.len(),
        report
            .lattices
            .iter()
            .map(|l| l.distance)
            .collect::<std::collections::BTreeSet<_>>(),
        report.worker_batches.len(),
        report.counters.generated,
        report.elapsed_s,
        report.counters.decoded as f64 / report.elapsed_s,
    );
    println!(
        "  decoded {} | shed {} ({:.3}%) | verdict {}",
        report.counters.decoded,
        report.counters.dropped,
        100.0 * report.counters.dropped as f64 / report.counters.generated.max(1) as f64,
        report.verdict(),
    );
    let (decode, total) = (
        &report.decode_latency.quantiles,
        &report.total_latency.quantiles,
    );
    println!(
        "  decode p50 {:.0} ns p99 {:.0} ns p99.9 {:.0} ns | e2e p99 {:.0} ns p99.9 {:.0} ns",
        decode.p50, decode.p99, decode.p999, total.p99, total.p999,
    );
    let mut tally = ResidualTally::default();
    let mut worst = "BOUNDED";
    for lattice in &report.lattices {
        if let Some(residual) = &lattice.residual {
            tally.absorb(&residual.total());
        }
        if severity(lattice.verdict()) > severity(worst) {
            worst = lattice.verdict();
        }
    }
    println!(
        "  {:<9} {:>3} lattices | decoded {:>8} | shed {:>7} ({:>6.3}%) | residual fail {:>6.4}% | {}",
        format!("{:?}", profile.machine_config().push_policy),
        report.lattices.len(),
        report.counters.decoded,
        report.counters.dropped,
        100.0 * report.counters.dropped as f64 / report.counters.generated.max(1) as f64,
        100.0 * tally.failure_rate(),
        worst,
    );
    let rss = soak::peak_rss_bytes();
    if rss > 0 {
        println!("  peak RSS {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    println!("soak: every book-keeping identity held, and the verdict gate");
}
