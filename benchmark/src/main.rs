//! The repository benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! nisqplus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! nisqplus-benchmark run     [--seed <n>] [--smoke]
//! nisqplus-benchmark trace   [--seed <n>] [--smoke]
//! nisqplus-benchmark compare <baseline.json> <change.json>
//! ```
//!
//! The first form measures one workload and prints its result as the last
//! line of standard output; `run` and `trace` drive it once per workload and
//! repeat, each in a fresh process; `compare` applies the bounds.

mod compare;
mod json;
mod layers;
mod orchestrate;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::{object, to_line};
use nisqplus_runtime::report::Json;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, Workload};

/// The seed `run` and `trace` use unless told otherwise.
const DEFAULT_SEED: u64 = 2020;

/// One metric: the reported value and the samples it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples it was taken from (just the value for a single reading).
    pub samples: Vec<f64>,
}

/// What one measurement of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: rounds generated, trials simulated, rounds
    /// checked.
    pub attempted: u64,
    /// Operations that failed: rounds dropped, quarantined or lost, and
    /// rounds whose output differs from the reference.
    pub failed: u64,
    /// Broken invariants; any entry makes the result incorrect.
    pub problems: Vec<String>,
    /// Ungated readings worth a line beside the metrics.
    pub notes: Vec<String>,
    /// The metrics, in reporting order.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// Folds one engine run's books into the totals.
    pub fn absorb_run(&mut self, what: &str, run: &workloads::StreamRun) {
        self.attempted += run.generated;
        self.failed += run.failed;
        self.problems
            .extend(run.violations.iter().map(|v| format!("{what}: {v}")));
    }

    /// Records an ungated reading.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a broken invariant.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Records a single reading.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Measured {
            name,
            value,
            samples: vec![value],
        });
    }

    /// Records the best of a fixed number of short samples: the shared host
    /// only ever adds time, to most samples on a bad day, so the fastest one
    /// is the one it left alone (see README, "Noise").  The number of samples
    /// depends on `--seconds` alone, so faster code does not get more draws.
    pub fn best_of(&mut self, name: &'static str, samples: Vec<f64>, higher_is_better: bool) {
        let pick = if higher_is_better { f64::max } else { f64::min };
        self.metrics.push(Measured {
            name,
            value: samples
                .iter()
                .copied()
                .reduce(pick)
                .expect("at least one sample"),
            samples,
        });
    }

    /// Records the median of the samples: for a reading that is not a race
    /// against the clock, such as the rate an open loop's schedule fixes.
    pub fn median_of(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.push(Measured {
            name,
            value: stats::median(&samples),
            samples,
        });
    }

    /// `true` when nothing failed and every invariant held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Writes `text` to `benchmark/out/<file>`, where traces and result
/// documents go.
fn write_out(file: &str, text: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--key value` options and bare flags of one invocation.
struct Options {
    pairs: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            pairs: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => options.smoke = true,
                Some(key) => {
                    let value = iter.next().ok_or(format!("--{key} needs a value"))?;
                    options.pairs.push((key.to_string(), value.clone()));
                }
                None => options.positional.push(arg.clone()),
            }
        }
        Ok(options)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, value)) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read `{value}`")),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or(format!("missing --{key}"))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!("unknown option --{key}")),
            None => Ok(()),
        }
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// The file and the program must name the same metrics: nothing reported
/// twice or undeclared, and every end-to-end metric reported.  A traced run
/// may leave out the layers its workload does not run; those read 0.
fn check_names(
    declared: &[spec::MetricSpec],
    traced: bool,
    outcome: &Outcome,
) -> Result<(), String> {
    let mut emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    emitted.sort_unstable();
    let repeated = emitted.windows(2).find(|pair| pair[0] == pair[1]);
    let unknown = emitted
        .iter()
        .find(|name| !declared.iter().any(|m| m.name == **name));
    let missing = declared
        .iter()
        .find(|m| !traced && !emitted.contains(&m.name.as_str()));
    match (repeated, unknown, missing) {
        (None, None, None) => Ok(()),
        _ => Err(format!(
            "metrics differ from BENCHMARK.json: repeated {repeated:?}, undeclared {unknown:?}, \
             missing {:?}",
            missing.map(|m| &m.name)
        )),
    }
}

/// Measures one workload and prints the result line the driver reads.
fn measure(options: &Options) -> Result<ExitCode, String> {
    options.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = options.require("workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed: u64 = options.require("seed")?;
    let seconds: f64 = options.require("seconds")?;
    let traced = match options.require::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }

    let spec = Spec::embedded();
    let outcome = if traced {
        let mut tracer = trace::Tracer::new();
        let outcome = layers::run(workload, seed, seconds, options.scale(), &mut tracer);
        let path = write_out(&format!("trace.{name}.json"), &tracer.to_text(&name))?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        outcome
    } else {
        workloads::run(workload, seed, seconds, options.scale())?
    };

    let declared = spec.metrics(traced);
    check_names(declared, traced, &outcome)?;

    println!(
        "# {name} seed {seed} threads {} (host has {})",
        workloads::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut fields = Vec::new();
    for metric in declared {
        let measured = outcome.metrics.iter().find(|m| m.name == metric.name);
        let (value, samples) = measured.map_or((0.0, &[][..]), |m| (m.value, &m.samples[..]));
        let quartiles = stats::quartiles(samples).map_or(String::new(), |(q1, q3)| {
            format!(
                "  [decile {:.6e}, q1 {q1:.6e}, median {:.6e}, q3 {q3:.6e}, n {}]",
                stats::quantile(samples, if metric.higher_is_better { 0.9 } else { 0.1 }),
                stats::median(samples),
                samples.len()
            )
        });
        println!(
            "{:<46} {value:>16.6} {:<7}{quartiles}",
            metric.name, metric.unit
        );
        fields.push((
            metric.name.clone(),
            object([
                ("value", Json::Num(value)),
                ("unit", Json::from(metric.unit.as_str())),
            ]),
        ));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# INCORRECT: {problem}");
    }
    println!(
        "{}",
        to_line(&object([
            ("correct", Json::Bool(outcome.correct())),
            ("attempted", Json::from(outcome.attempted.max(1))),
            ("failed", Json::from(outcome.failed)),
            ("metrics", Json::Obj(fields)),
        ]))
    );
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(args)?;
    let command = options.positional.first().map(String::as_str);
    if command == Some("compare") {
        return orchestrate::compare_files(&options.positional[1..]);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: use `cargo run --release`".to_string());
    }
    match command {
        None => measure(&options),
        Some(kind @ ("run" | "trace")) if options.positional.len() == 1 => {
            options.only(&["seed"])?;
            let seed = options.get("seed")?.unwrap_or(DEFAULT_SEED);
            orchestrate::run_all(&if kind == "run" {
                orchestrate::Plan::run(seed, options.smoke)
            } else {
                orchestrate::Plan::trace(seed, options.smoke)
            })
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("nisqplus-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few thousand rounds: enough to walk every path in a debug build.
    const TINY: Scale = Scale { divisor: 500 };

    #[test]
    fn every_workload_reports_exactly_the_declared_metrics_and_checks_out() {
        let spec = Spec::embedded();
        let mut layers_seen = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            let outcome = workloads::run(workload, 11, 0.1, TINY).expect("measurable");
            check_names(&spec.end_to_end, false, &outcome).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                outcome.correct(),
                "{}: {:?}",
                workload.name(),
                outcome.problems
            );
            assert!(outcome.attempted > 0);
            for metric in &outcome.metrics {
                assert!(
                    metric.value > 0.0 && metric.samples.iter().all(|v| v.is_finite()),
                    "{} {}: end-to-end metrics are never 0",
                    workload.name(),
                    metric.name
                );
            }

            let mut tracer = trace::Tracer::new();
            let traced = layers::run(workload, 11, 0.1, TINY, &mut tracer);
            check_names(&spec.per_layer, true, &traced).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(traced.failed, 0, "{}", workload.name());
            assert!(!tracer.spans().is_empty());
            layers_seen.extend(traced.metrics.iter().map(|m| m.name));
        }
        // Every declared layer is measured by at least one workload.
        let declared: std::collections::BTreeSet<&str> =
            spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(layers_seen, declared);
    }

    #[test]
    fn options_parse_pairs_flags_and_positionals() {
        let args: Vec<String> = ["x", "--seed", "9", "--smoke", "--seconds", "2.5"]
            .map(String::from)
            .to_vec();
        let options = Options::parse(&args).unwrap();
        assert_eq!(options.positional, ["x"]);
        assert!(options.smoke);
        assert_eq!(options.get::<u64>("seed").unwrap(), Some(9));
        assert_eq!(options.require::<f64>("seconds").unwrap(), 2.5);
        assert!(options.require::<u64>("repeats").is_err());
        assert!(options.only(&["seed"]).is_err());
        assert!(options.get::<u64>("seconds").is_err());
        assert!(Options::parse(&["--seed".to_string()]).is_err());
    }
}
