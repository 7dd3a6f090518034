//! `BENCHMARK.json` as the single source of metric names, units,
//! directions and bounds: embedded at build time, so the binary, `compare`
//! and the smoke test all judge by the file the driver reads.

use crate::json::Json;

/// The repo-root benchmark contract, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Spec {
    /// How long one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            root.get(key)
                .ok_or_else(|| format!("missing \"{key}\""))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key}: metric without \"{f}\""))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: match field("better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("{key}: better = \"{other}\"")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing \"run_seconds\"")?,
            workloads: root
                .get("workloads")
                .ok_or("missing \"workloads\"")?
                .as_arr()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_has_the_required_shape() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, crate::workload::NAMES);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        // Bounds are shares of the baseline, at most a quarter.
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        // Names are unique across both tables.
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }
}
