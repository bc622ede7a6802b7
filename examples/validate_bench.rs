//! Validates the committed bench artifacts at the repository root.
//!
//! The runtime bench (`cargo bench --bench runtime`) ends by writing
//! `BENCH_streaming.json` and `BENCH_lattices.json`, and the soak driver
//! (`cargo run --release --example soak`) writes `BENCH_soak.json` —
//! schema-versioned, machine-readable perf artifacts distilled from full
//! engine runs.  This
//! validator re-reads both through the same parser the artifacts were
//! written with ([`nisqplus_runtime::report`]) and fails loudly when a file
//! is missing, malformed, carries a stale `schema_version`, or contains an
//! entry with an impossible shape (unknown verdict, empty suite, negative
//! or non-finite rates, quantiles out of order, shed exceeding rounds).
//! The soak artifact gets one extra audit: its `soak/class/*` QoS-class
//! entries must *partition* the `soak/aggregate` entry — lattices, rounds
//! and shed counts sum exactly.
//! CI runs it before *and* after regenerating the artifacts, so a bench
//! change that forgets to refresh the committed files cannot land silently.
//!
//! Run with `cargo run --example validate_bench`.

use nisqplus_runtime::report::read_bench_document;
use nisqplus_runtime::BenchEntry;
use std::process::ExitCode;

/// The artifacts every checkout must carry, relative to the repo root.
const ARTIFACTS: &[&str] = &[
    "BENCH_streaming.json",
    "BENCH_lattices.json",
    "BENCH_soak.json",
];

fn validate(path: &str) -> Result<(String, Vec<BenchEntry>), String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let (suite, entries) =
        read_bench_document(format!("{root}{path}")).map_err(|error| format!("{path}: {error}"))?;
    for entry in &entries {
        validate_entry(entry).map_err(|error| format!("{path}: entry '{}': {error}", entry.id))?;
    }
    if suite == "soak" {
        validate_soak_classes(&entries).map_err(|error| format!("{path}: {error}"))?;
    }
    Ok((suite, entries))
}

/// Shape checks every entry must pass regardless of suite: populated
/// identity fields, non-negative rates and latencies, quantiles in order.
fn validate_entry(entry: &BenchEntry) -> Result<(), String> {
    if entry.lattices == 0 {
        return Err("serves zero lattices".into());
    }
    if entry.workers == 0 {
        return Err("ran with zero workers".into());
    }
    if entry.rounds == 0 {
        return Err("streamed zero rounds".into());
    }
    let rates = [
        ("throughput_per_s", entry.throughput_per_s),
        ("decode_mean_ns", entry.decode_mean_ns),
        ("decode_p50_ns", entry.decode_p50_ns),
        ("decode_p99_ns", entry.decode_p99_ns),
        ("decode_p999_ns", entry.decode_p999_ns),
        ("total_p99_ns", entry.total_p99_ns),
        ("total_p999_ns", entry.total_p999_ns),
        ("shed_rate", entry.shed_rate),
        ("residual_failure_rate", entry.residual_failure_rate),
    ];
    for (name, value) in rates {
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "{name} is {value}, expected a finite non-negative number"
            ));
        }
    }
    for (name, value) in [
        ("shed_rate", entry.shed_rate),
        ("residual_failure_rate", entry.residual_failure_rate),
    ] {
        if value > 1.0 {
            return Err(format!("{name} is {value}, expected a fraction in [0, 1]"));
        }
    }
    // Quantiles of one distribution are monotone in the rank.
    let (d50, d99, d999) = (
        entry.decode_p50_ns,
        entry.decode_p99_ns,
        entry.decode_p999_ns,
    );
    let (t99, t999) = (entry.total_p99_ns, entry.total_p999_ns);
    for (low_name, low, high_name, high) in [
        ("decode_p50_ns", d50, "decode_p99_ns", d99),
        ("decode_p99_ns", d99, "decode_p999_ns", d999),
        ("total_p99_ns", t99, "total_p999_ns", t999),
    ] {
        if low > high {
            return Err(format!("{low_name} {low} exceeds {high_name} {high}"));
        }
    }
    if entry.shed > entry.rounds {
        return Err(format!(
            "shed {} rounds out of only {} streamed",
            entry.shed, entry.rounds
        ));
    }
    Ok(())
}

/// The soak artifact's books must balance: the `soak/class/*` QoS-class
/// breakdown partitions `soak/aggregate` — lattices, rounds and shed counts
/// sum exactly.
fn validate_soak_classes(entries: &[BenchEntry]) -> Result<(), String> {
    let aggregate = entries
        .iter()
        .find(|entry| entry.id == "soak/aggregate")
        .ok_or("missing the 'soak/aggregate' entry")?;
    let classes: Vec<&BenchEntry> = entries
        .iter()
        .filter(|entry| entry.id.starts_with("soak/class/"))
        .collect();
    if classes.is_empty() {
        return Err("no 'soak/class/*' entries to reconcile against the aggregate".into());
    }
    let lattices: usize = classes.iter().map(|entry| entry.lattices).sum();
    let rounds: u64 = classes.iter().map(|entry| entry.rounds).sum();
    let shed: u64 = classes.iter().map(|entry| entry.shed).sum();
    if lattices != aggregate.lattices {
        return Err(format!(
            "class lattices sum to {lattices}, aggregate serves {}",
            aggregate.lattices
        ));
    }
    if rounds != aggregate.rounds {
        return Err(format!(
            "class rounds sum to {rounds}, aggregate streamed {}",
            aggregate.rounds
        ));
    }
    if shed != aggregate.shed {
        return Err(format!(
            "class shed counts sum to {shed}, aggregate shed {}",
            aggregate.shed
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut failed = false;
    for path in ARTIFACTS {
        match validate(path) {
            Ok((suite, entries)) => {
                println!("{path}: suite '{suite}' OK ({} entries)", entries.len());
                for entry in &entries {
                    println!(
                        "  {:<36} {:>10.0} rounds/s  p99 {:>9.0} ns  shed {:>4}  {}",
                        entry.id,
                        entry.throughput_per_s,
                        entry.decode_p99_ns,
                        entry.shed,
                        entry.verdict
                    );
                }
            }
            Err(message) => {
                eprintln!("INVALID: {message}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "bench artifacts failed validation; regenerate with `cargo bench --bench runtime` \
             (and `cargo run --release --example soak` for BENCH_soak.json)"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
