//! `BENCHMARK.json`, read once at compile time: the metric names, units,
//! directions and regression bounds the program reports against.  The file
//! is the single source; a result whose metric names differ from it is an
//! error, not a silent drift.

use nisqplus_runtime::report::{parse, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// The share of the baseline median it may worsen by (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one driver run measures for.
    pub run_seconds: u64,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The definition compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is malformed (pinned by a unit test).
    #[must_use]
    pub fn embedded() -> Spec {
        Spec::from_text(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    fn from_text(text: &str) -> Result<Spec, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing list `{key}`"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = text_of(item, "better")?;
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("unknown direction `{other}`")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|item| text_of(item, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("missing `run_seconds`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared metrics of one kind: per-layer for a traced run,
    /// end-to-end otherwise.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up by name in either list.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn embedded_definition_meets_the_contract_limits() {
        let spec = Spec::embedded();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(seen.insert(&metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(Spec::from_text("{}").is_err());
        assert!(Spec::from_text("not json").is_err());
    }
}
