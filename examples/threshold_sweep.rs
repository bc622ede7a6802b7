//! Compare the approximate SFQ mesh decoder against the software baselines
//! (exact matching / MWPM and union-find) on a small threshold sweep.
//!
//! Run with `cargo run --release --example threshold_sweep`.

use nisqplus_core::DecoderVariant;
use nisqplus_decoders::{ExactMatchingDecoder, UnionFindDecoder};
use nisqplus_qec::error_model::PureDephasing;
use nisqplus_qec::lattice::Lattice;
use nisqplus_sim::monte_carlo::{run_lifetime, run_sfq_lifetime, MonteCarloConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = 2_000;
    let physical_rates = [0.01, 0.02, 0.03, 0.04, 0.05];
    let distances = [3usize, 5, 7];

    println!("logical error rates (%) from {trials} trials per point, pure dephasing noise");
    println!();
    println!(
        "{:>6} {:>4} {:>12} {:>12} {:>12}",
        "p (%)", "d", "sfq-mesh", "mwpm", "union-find"
    );
    for &p in &physical_rates {
        for &d in &distances {
            let lattice = Lattice::new(d)?;
            let model = PureDephasing::new(p)?;
            let config = MonteCarloConfig::new(trials).with_seed(0xE0 + d as u64);

            let sfq = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
            let mwpm = run_lifetime(
                &lattice,
                &model,
                &config,
                ExactMatchingDecoder::new,
                |_| None,
                0,
            );
            let uf = run_lifetime(
                &lattice,
                &model,
                &config,
                UnionFindDecoder::new,
                |_| None,
                0,
            );

            println!(
                "{:>6.1} {:>4} {:>12.3} {:>12.3} {:>12.3}",
                p * 100.0,
                d,
                sfq.logical_error_rate() * 100.0,
                mwpm.logical_error_rate() * 100.0,
                uf.logical_error_rate() * 100.0
            );
        }
        println!();
    }
    println!(
        "The approximate hardware decoder gives up some accuracy relative to MWPM and \
         union-find — that is the price it pays for decoding in ~20 ns instead of hundreds of \
         nanoseconds (or worse), which is what keeps the machine free of decoding backlog."
    );
    Ok(())
}
