//! `compare <baseline.json> <change.json>`: the gate that reads numbers.
//!
//! Per metric and workload, median against median:
//!
//! * a metric of simulated statistics ([`EXACT_METRICS`]) must be equal;
//! * a metric with a bound is `regressed` when the change's median is worse
//!   than the baseline's by more than the bound, `unresolved` when either
//!   side's quartile spread is wider than the bound and the change is not
//!   better on every run, and `ok` otherwise;
//! * a per-layer metric without a bound is listed for reading only;
//! * the share of failed operations must not grow;
//! * a workload or metric the baseline has and the change lacks is
//!   `regressed`: a lost number must not pass as an unchanged one;
//! * documents made with different run parameters (scale, repeats, seconds
//!   per measurement, threads) are not compared at all.

use crate::spec::Spec;
use crate::stats::{median, spread};
use nisqplus_runtime::report::Json;
use std::fmt;

/// Simulated statistics: exact for a seed, so two commits compare exactly
/// and any difference is a change of behaviour, not noise.
pub const EXACT_METRICS: [&str; 6] = [
    "sim.logical_error_rate",
    "core.mesh.cycles_mean",
    "core.mesh.cycles_max",
    "core.mesh.sim_ns_mean",
    "core.mesh.sim_ns_max",
    "runtime.residual_failure_rate",
];

/// The reading of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound (or equal, for an exact metric).
    Ok,
    /// Worse than the bound allows, or an exact metric that differs.
    Regressed,
    /// The run-to-run spread is wider than the bound: neither unchanged nor
    /// regressed can be claimed.
    Unresolved,
    /// No bound: shown for reading only.
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        })
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric (or `failed_share`).
    pub metric: String,
    /// Baseline median.
    pub baseline: f64,
    /// Change median.
    pub change: f64,
    /// The reading.
    pub verdict: Verdict,
}

/// Judges one bounded metric from the raw values of both sides.
#[must_use]
pub fn judge(baseline: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (base, new) = (median(baseline), median(change));
    let worse_by = if higher_is_better {
        base - new
    } else {
        new - base
    };
    if worse_by > bound * base.abs() {
        return Verdict::Regressed;
    }
    let fold = |values: &[f64], pick: fn(f64, f64) -> f64| {
        values.iter().copied().reduce(pick).expect("non-empty")
    };
    let all_better = if higher_is_better {
        fold(change, f64::min) > fold(baseline, f64::max)
    } else {
        fold(change, f64::max) < fold(baseline, f64::min)
    };
    if spread(baseline).max(spread(change)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn values_of(metric: &Json) -> Option<Vec<f64>> {
    let values: Vec<f64> = metric
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

fn workloads_of(doc: &Json) -> Result<&[(String, Json)], String> {
    match doc.get("workloads") {
        Some(Json::Obj(fields)) => Ok(fields),
        _ => Err("not a benchmark result: no `workloads` object".to_string()),
    }
}

/// The provenance fields that fix how much work a document's numbers come
/// from; two documents compare only when these agree.
const RUN_PARAMETERS: [&str; 4] = ["smoke", "repeats", "seconds", "threads"];

fn provenance<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get("provenance")?.get(key)
}

/// A row for something the baseline has and the change lost.
fn missing(workload: &str, metric: &str, baseline: f64) -> Row {
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        baseline,
        change: f64::NAN,
        verdict: Verdict::Regressed,
    }
}

/// Compares two result documents written by `run` or `trace`.
///
/// # Errors
///
/// Returns a message when either document is not a benchmark result, or
/// when the two were made with different run parameters.
pub fn compare(spec: &Spec, baseline: &Json, change: &Json) -> Result<Vec<Row>, String> {
    for key in RUN_PARAMETERS {
        let (base, new) = (provenance(baseline, key), provenance(change, key));
        if base.is_none() || base != new {
            let show = |value: Option<&Json>| {
                value.map_or("absent".to_string(), |v| v.to_pretty().trim().to_string())
            };
            return Err(format!(
                "the documents were made with different run parameters: `{key}` is {} in the \
                 baseline and {} in the change",
                show(base),
                show(new)
            ));
        }
    }
    let seed_of = |doc: &Json| provenance(doc, "seed").and_then(Json::as_u64);
    let same_seed = seed_of(baseline).is_some() && seed_of(baseline) == seed_of(change);
    let change_workloads = workloads_of(change)?;
    let mut rows = Vec::new();
    for (workload, base) in workloads_of(baseline)? {
        let Some((_, new)) = change_workloads.iter().find(|(name, _)| name == workload) else {
            rows.push(missing(workload, "(every metric)", f64::NAN));
            continue;
        };
        let failed_share = |side: &Json| {
            let count = |key: &str| side.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            count("failed") / count("attempted").max(1.0)
        };
        let (base_failed, new_failed) = (failed_share(base), failed_share(new));
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share".to_string(),
            baseline: base_failed,
            change: new_failed,
            verdict: if new_failed > base_failed {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
        let (Some(Json::Obj(base_metrics)), Some(new_metrics)) =
            (base.get("metrics"), new.get("metrics"))
        else {
            return Err(format!("workload `{workload}` has no `metrics` object"));
        };
        for (name, base_metric) in base_metrics {
            let Some(base_values) = values_of(base_metric) else {
                return Err(format!("baseline `{workload}` / `{name}` has no values"));
            };
            let Some(new_values) = new_metrics.get(name).and_then(values_of) else {
                rows.push(missing(workload, name, median(&base_values)));
                continue;
            };
            let declared = spec.metric(name);
            let verdict = if EXACT_METRICS.contains(&name.as_str()) {
                match (same_seed, base_values == new_values) {
                    (false, _) => Verdict::Unresolved,
                    (true, true) => Verdict::Ok,
                    (true, false) => Verdict::Regressed,
                }
            } else if let Some((bound, metric)) = declared.and_then(|m| Some((m.bound?, m))) {
                judge(&base_values, &new_values, metric.higher_is_better, bound)
            } else {
                Verdict::Info
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                baseline: median(&base_values),
                change: median(&new_values),
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::object;

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        // Throughput (higher is better) down 20 % against a 10 % bound.
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&base, &slow, true, 0.1), Verdict::Regressed);
        // Latency (lower is better) up 20 %.
        assert_eq!(judge(&slow, &base, false, 0.1), Verdict::Regressed);
        // The same data the other way round is an improvement.
        assert_eq!(judge(&slow, &base, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&base, &slow, false, 0.1), Verdict::Ok);
    }

    #[test]
    fn a_small_move_inside_a_tight_spread_is_ok() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let near = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(judge(&base, &near, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_all_better() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let also_noisy = [98.0, 135.0, 72.0, 118.0, 88.0];
        assert_eq!(judge(&noisy, &also_noisy, true, 0.1), Verdict::Unresolved);
        // Every run of the change beats every run of the baseline.
        let clearly_better = [150.0, 190.0, 145.0, 170.0, 160.0];
        assert_eq!(judge(&noisy, &clearly_better, true, 0.1), Verdict::Ok);
        // A regression stays a regression however noisy the runs are.
        let clearly_worse = [50.0, 70.0, 35.0, 60.0, 42.0];
        assert_eq!(judge(&noisy, &clearly_worse, true, 0.1), Verdict::Regressed);
    }

    fn document(seed: u64, failed: u64, rounds_per_s: &[f64], logical: f64) -> Json {
        let metric = |values: &[f64]| {
            object([(
                "values",
                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
            )])
        };
        object([
            (
                "provenance",
                object([
                    ("seed", Json::from(seed)),
                    ("smoke", Json::Bool(false)),
                    ("repeats", Json::from(5u64)),
                    ("seconds", Json::Num(4.0)),
                    ("threads", Json::from(2u64)),
                ]),
            ),
            (
                "workloads",
                object([(
                    "lifetime_mesh_d9",
                    object([
                        ("attempted", Json::from(1000u64)),
                        ("failed", Json::from(failed)),
                        (
                            "metrics",
                            object([
                                ("rounds_per_s", metric(rounds_per_s)),
                                ("sim.logical_error_rate", metric(&[logical])),
                                ("qec.sample_ns", metric(&[12.0])),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn documents_compare_per_metric_with_exact_and_failure_rules() {
        let spec = Spec::embedded();
        let base = document(7, 0, &[100.0, 101.0, 99.0], 0.0365);
        let verdicts = |change: &Json| -> Vec<(String, Verdict)> {
            compare(&spec, &base, change)
                .unwrap()
                .into_iter()
                .map(|row| (row.metric, row.verdict))
                .collect()
        };
        let same = verdicts(&base);
        assert!(same.contains(&("failed_share".to_string(), Verdict::Ok)));
        assert!(same.contains(&("rounds_per_s".to_string(), Verdict::Ok)));
        assert!(same.contains(&("sim.logical_error_rate".to_string(), Verdict::Ok)));
        assert!(same.contains(&("qec.sample_ns".to_string(), Verdict::Info)));

        let drifted = verdicts(&document(7, 0, &[100.0, 101.0, 99.0], 0.0366));
        assert!(drifted.contains(&("sim.logical_error_rate".to_string(), Verdict::Regressed)));
        let other_seed = verdicts(&document(8, 0, &[100.0, 101.0, 99.0], 0.0366));
        assert!(other_seed.contains(&("sim.logical_error_rate".to_string(), Verdict::Unresolved)));
        let failing = verdicts(&document(7, 3, &[100.0, 101.0, 99.0], 0.0365));
        assert!(failing.contains(&("failed_share".to_string(), Verdict::Regressed)));
        let slow = verdicts(&document(7, 0, &[60.0, 61.0, 59.0], 0.0365));
        assert!(slow.contains(&("rounds_per_s".to_string(), Verdict::Regressed)));

        assert!(compare(&spec, &Json::Null, &base).is_err());
    }

    /// Replaces `doc[path[0]][path[1]]…` by `value`, or removes it.
    fn edit(doc: &mut Json, path: &[&str], value: Option<Json>) {
        let Json::Obj(fields) = doc else {
            panic!("not an object at {path:?}");
        };
        let at = fields
            .iter()
            .position(|(key, _)| key == path[0])
            .unwrap_or_else(|| panic!("no field {}", path[0]));
        match (path.len(), value) {
            (1, Some(value)) => fields[at].1 = value,
            (1, None) => drop(fields.remove(at)),
            (_, value) => edit(&mut fields[at].1, &path[1..], value),
        }
    }

    #[test]
    fn what_the_change_lost_is_a_regression_and_other_run_parameters_an_error() {
        let spec = Spec::embedded();
        let base = document(7, 0, &[100.0, 101.0, 99.0], 0.0365);
        let lost = |path: &[&str]| {
            let mut change = base.clone();
            edit(&mut change, path, None);
            compare(&spec, &base, &change).unwrap()
        };
        let metrics = ["workloads", "lifetime_mesh_d9", "metrics"];
        for name in ["rounds_per_s", "qec.sample_ns"] {
            let rows = lost(&[&metrics[..], &[name]].concat());
            let row = rows.iter().find(|row| row.metric == name).unwrap();
            assert_eq!(row.verdict, Verdict::Regressed, "{name}");
            assert!(row.change.is_nan());
        }
        let rows = lost(&metrics[..2]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "lifetime_mesh_d9");
        assert_eq!(rows[0].verdict, Verdict::Regressed);

        for (key, other) in [
            ("smoke", Json::Bool(true)),
            ("repeats", Json::from(1u64)),
            ("seconds", Json::Num(8.0)),
            ("threads", Json::from(1u64)),
        ] {
            let mut change = base.clone();
            edit(&mut change, &["provenance", key], Some(other));
            let error = compare(&spec, &base, &change).unwrap_err();
            assert!(error.contains(key), "{error}");
            edit(&mut change, &["provenance", key], None);
            assert!(compare(&spec, &base, &change).is_err(), "{key} missing");
        }
    }
}
