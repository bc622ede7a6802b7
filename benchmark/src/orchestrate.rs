//! `run`, `trace` and `compare`: every workload, repeated and interleaved,
//! each measurement in a fresh process of this same binary.
//!
//! A fresh process per measurement keeps `peak_rss_mib` per workload and
//! keeps one workload's allocator and cache state out of the next; the
//! round-robin order spreads slow phases of a shared host over all
//! workloads instead of charging them to one.

use crate::compare::{compare, Verdict};
use crate::json::object;
use crate::spec::Spec;
use crate::stats::{median, quartiles};
use crate::workloads::{threads, Workload};
use crate::write_out;
use nisqplus_runtime::report::{parse, Json};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end measurements of every workload in a full `run`: single
/// measurements on a shared 2-core host spread ±13 %, medians of five
/// interleaved ones agreed within a few per cent.
const REPEATS: usize = 5;

/// `--seconds` of every child measurement: one repeat of the workload's
/// fixed work (`workloads::repeats`), about four seconds.
const CHILD_SECONDS: f64 = 4.0;

/// What `run` / `trace` should do.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Workload seed handed to every measurement.
    seed: u64,
    /// End-to-end measurements per workload (0: traced runs only).
    repeats: usize,
    /// 1/50 scale, same checks.
    smoke: bool,
    /// Result document name under `benchmark/out/`.
    file: &'static str,
}

impl Plan {
    /// `run`: [`REPEATS`] interleaved end-to-end measurements of every
    /// workload (one under `--smoke`), then one traced run each.
    #[must_use]
    pub fn run(seed: u64, smoke: bool) -> Plan {
        Plan {
            seed,
            repeats: if smoke { 1 } else { REPEATS },
            smoke,
            file: "run.json",
        }
    }

    /// `trace`: the traced runs only.
    #[must_use]
    pub fn trace(seed: u64, smoke: bool) -> Plan {
        Plan {
            seed,
            repeats: 0,
            smoke,
            file: "layers.json",
        }
    }
}

/// Everything the repeats of one workload reported.
#[derive(Debug, Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    correct: bool,
    /// `(name, unit, one value per repeat)`, in first-seen order.
    metrics: Vec<(String, String, Vec<f64>)>,
}

/// Runs one measurement in a child process and parses its result line.
fn measure_in_child(plan: &Plan, workload: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &CHILD_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if plan.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the measurement of {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "measuring {} ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or(format!("measuring {} printed nothing", workload.name()))?;
    parse(line).map_err(|e| format!("result line of {}: {e}", workload.name()))
}

fn absorb(collected: &mut Collected, result: &Json) -> Result<(), String> {
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("result line has no `{key}`"))
    };
    collected.attempted += count("attempted")?;
    collected.failed += count("failed")?;
    collected.correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result line has no `metrics`".to_string());
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric `{name}` has no value"))?;
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        match collected.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, values)) => values.push(value),
            None => collected
                .metrics
                .push((name.clone(), unit.to_string(), vec![value])),
        }
    }
    Ok(())
}

/// First line of a tool's output, or `unknown` (the driver's checkout is
/// not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload `plan.repeats` times end to end (interleaved), then
/// once traced; prints every metric and writes the result document.
pub fn run_all(plan: &Plan) -> Result<ExitCode, String> {
    let started = Instant::now();
    let mut collected: Vec<Collected> = Workload::ALL
        .iter()
        .map(|_| Collected {
            correct: true,
            ..Collected::default()
        })
        .collect();
    for repeat in 0..plan.repeats {
        for (workload, slot) in Workload::ALL.into_iter().zip(&mut collected) {
            eprintln!("[run {}/{}] {}", repeat + 1, plan.repeats, workload.name());
            absorb(slot, &measure_in_child(plan, workload, false)?)?;
        }
    }
    for (workload, slot) in Workload::ALL.into_iter().zip(&mut collected) {
        eprintln!("[trace] {}", workload.name());
        absorb(slot, &measure_in_child(plan, workload, true)?)?;
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, slot) in Workload::ALL.into_iter().zip(&collected) {
        all_correct &= slot.correct && slot.failed == 0;
        println!(
            "\n== {} — attempted {}, failed {}, correct {}",
            workload.name(),
            slot.attempted,
            slot.failed,
            slot.correct
        );
        let mut metrics = Vec::new();
        for (name, unit, values) in &slot.metrics {
            let mid = median(values);
            let (q1, q3) = quartiles(values).unwrap_or((mid, mid));
            println!(
                "{name:<46} {mid:>16.6} {unit:<7} [q1 {q1:.6e}, q3 {q3:.6e}, n {}]",
                values.len()
            );
            metrics.push((
                name.clone(),
                object([
                    ("unit", Json::from(unit.as_str())),
                    ("median", Json::Num(mid)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        workloads.push((
            workload.name(),
            object([
                ("attempted", Json::from(slot.attempted)),
                ("failed", Json::from(slot.failed)),
                ("correct", Json::Bool(slot.correct)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let doc = object([
        (
            "provenance",
            object([
                (
                    "commit",
                    Json::from(tool_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"])),
                ),
                ("rustc", Json::from(tool_line("rustc", &["-V"]))),
                (
                    "nproc",
                    Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
                ),
                ("threads", Json::from(threads())),
                ("seed", Json::from(plan.seed)),
                ("repeats", Json::from(plan.repeats)),
                ("seconds", Json::Num(CHILD_SECONDS)),
                ("smoke", Json::Bool(plan.smoke)),
                ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        ("workloads", object(workloads)),
    ]);
    let path = write_out(plan.file, &doc.to_pretty())?;
    println!(
        "\nwrote {} after {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("nisqplus-benchmark: an output check failed or operations failed");
        ExitCode::FAILURE
    })
}

/// `compare <baseline.json> <change.json>`.
pub fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [baseline, change] = paths else {
        return Err("usage: compare <baseline.json> <change.json>".to_string());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&Spec::embedded(), &read(baseline)?, &read(change)?)?;
    let mut regressed = 0;
    for row in &rows {
        println!(
            "{:<22} {:<46} {:>16.6} {:>16.6}  {}",
            row.workload, row.metric, row.baseline, row.change, row.verdict
        );
        regressed += usize::from(row.verdict == Verdict::Regressed);
    }
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
