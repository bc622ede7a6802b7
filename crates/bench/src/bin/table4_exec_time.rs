//! Regenerates Table IV: decoder execution time (ns) per code distance,
//! aggregated across all simulated physical error rates.

use nisqplus_bench::{print_header, print_table, trials_from_env};
use nisqplus_core::{DecoderModuleHardware, DecoderVariant};
use nisqplus_qec::lattice::Lattice;
use nisqplus_qec::PureDephasing;
use nisqplus_sim::monte_carlo::{run_sfq_lifetime, MonteCarloConfig};
use nisqplus_sim::stats::SampleCounts;
use nisqplus_sim::timing::{CycleTimeConverter, ExecutionTimeRow};

fn main() {
    let trials = trials_from_env(2_000);
    print_header("Table IV: decoder execution time in nanoseconds");
    println!("({trials} trials per (d, p) point; set NISQ_TRIALS to change)");
    println!();

    let converter = CycleTimeConverter::new(DecoderModuleHardware::ersfq().cycle_time_ps());
    let error_rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10];
    let mut rows = Vec::new();
    for d in [3usize, 5, 7, 9] {
        let lattice = Lattice::new(d).expect("valid distance");
        let mut cycles = SampleCounts::default();
        for (i, &p) in error_rates.iter().enumerate() {
            let model = PureDephasing::new(p).expect("valid probability");
            let config = MonteCarloConfig::new(trials).with_seed(0xA11CE + i as u64);
            let result = run_sfq_lifetime(&lattice, &model, &config, DecoderVariant::Final);
            cycles.merge(&result.cycle_samples);
        }
        let row = ExecutionTimeRow::from_cycles(d, &cycles, &converter);
        rows.push(vec![
            d.to_string(),
            format!("{:.2}", row.max_ns),
            format!("{:.2}", row.average_ns),
            format!("{:.2}", row.std_dev_ns),
        ]);
    }
    print_table(
        &["Code Distance", "Max", "Average", "Standard Deviation"],
        &rows,
    );
    println!();
    println!(
        "Paper reference: d=3 3.74/0.28/0.58, d=5 9.28/0.72/1.09, d=7 14.2/2.00/1.99, \
         d=9 19.2/3.81/3.11 ns (at 162.72 ps per cycle)."
    );
    println!(
        "Cycle time used here: {:.2} ps per mesh cycle.",
        converter.cycle_time_ps()
    );
}
