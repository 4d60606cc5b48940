//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are written down. `run` and `trace` refuse to
//! report a metric set that differs from it, and `compare` takes its
//! bounds from it.

use nestdb::proto::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let json = parse_json(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| json.get(key).and_then(Json::as_arr).unwrap_or_default();
        let text = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn the_contract_file_matches_the_code() {
        let spec = Spec::load().unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.find("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }
}
