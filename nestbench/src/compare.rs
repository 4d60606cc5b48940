//! `nestbench compare <a.jsonl> <b.jsonl>`: one row per (metric, workload)
//! — each side's median, the ratio with its base, the bound, the verdict.
//!
//! The rule is the guide's: a metric is `worse` only when its median moved
//! past the bound `BENCHMARK.json` fixes for it, and `unresolved` — not
//! "unchanged" — when either side's own run-to-run spread (interquartile
//! distance over median) is wider than that bound. Per-layer metrics have
//! no bound and get no verdict, except the exact counts, which must repeat.
//!
//! Each file holds one record per line, as `run`/`trace --append` write
//! them; a single `<w>.json` is a one-line set.

use crate::spec::{MetricDef, Spec};
use crate::stats::{median, spread};
use nestdb::proto::{parse_json, Json};
use std::collections::BTreeMap;

/// `(workload, metric)` → the values of every run in the set.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: not a nestbench record", n + 1))?;
        let metrics = record.get("result").and_then(|r| r.get("metrics"));
        let Some(Json::Obj(metrics)) = metrics else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Counts the program makes that must repeat exactly for equal seeds.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("exec.steps.")
        || name.starts_with("exec.rows_out.")
        || name.ends_with("_steps_exponent")
        || matches!(
            name,
            "storage.wal_bytes_per_mutation" | "storage.replayed_frames" | "proto.request_bytes"
        )
}

fn verdict(def: &MetricDef, a: &[f64], b: &[f64], ma: f64, mb: f64) -> &'static str {
    let Some(bound) = def.bound else {
        return match (is_exact_count(&def.name), ma == mb) {
            (true, true) => "same",
            (true, false) => "differs",
            (false, _) => "-",
        };
    };
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let worsening = if def.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if too_wide(a) || too_wide(b) {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else {
        "ok"
    }
}

fn show_spread(v: &[f64]) -> String {
    spread(v).map_or("n/a".to_string(), |s| format!("{s:.3}"))
}

/// Prints the table; `Ok(true)` when no row is `worse`, `unresolved` or
/// `differs`.
pub fn run(args: &[String], spec: &Spec) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: nestbench compare <a.jsonl> <b.jsonl>".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<34} {:<17} {:>13} {:>13} {:>9} {:>6} {:>8} {:>8}  verdict",
        "metric", "workload", "a", "b", "b/a", "bound", "spread_a", "spread_b"
    );
    let mut all_ok = true;
    for ((workload, name), va) in &a {
        let (Some(vb), Some(def)) = (b.get(&(workload.clone(), name.clone())), spec.find(name))
        else {
            continue;
        };
        let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
        if ma == 0.0 && mb == 0.0 {
            // a layer this workload does not exercise
            continue;
        }
        let v = verdict(def, va, vb, ma, mb);
        all_ok &= matches!(v, "ok" | "same" | "-");
        println!(
            "{name:<34} {workload:<17} {ma:>13.4} {mb:>13.4} {:>9.4} {:>6} {:>8} {:>8}  {v}",
            mb / ma,
            def.bound.map_or("-".to_string(), |x| format!("{x}")),
            show_spread(va),
            show_spread(vb),
        );
    }
    println!(
        "a = {a_path} (base of every ratio), b = {b_path}; medians of {} and {} runs per row at most",
        a.values().map(Vec::len).max().unwrap_or(0),
        b.values().map(Vec::len).max().unwrap_or(0)
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: Option<f64>, higher: bool) -> MetricDef {
        MetricDef {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn worse_only_past_the_bound_in_the_bad_direction() {
        let d = def(Some(0.10), false);
        assert_eq!(verdict(&d, &[100.0], &[109.0], 100.0, 109.0), "ok");
        assert_eq!(verdict(&d, &[100.0], &[111.0], 100.0, 111.0), "worse");
        assert_eq!(verdict(&d, &[100.0], &[50.0], 100.0, 50.0), "ok");
        let up = def(Some(0.10), true);
        assert_eq!(verdict(&up, &[100.0], &[89.0], 100.0, 89.0), "worse");
        assert_eq!(verdict(&up, &[100.0], &[150.0], 100.0, 150.0), "ok");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let d = def(Some(0.10), false);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(verdict(&d, &noisy, &steady, 100.0, 100.0), "unresolved");
        assert_eq!(verdict(&d, &steady, &noisy, 100.0, 100.0), "unresolved");
        assert_eq!(verdict(&d, &steady, &steady, 100.0, 100.0), "ok");
    }

    #[test]
    fn exact_counts_must_repeat_and_other_layer_metrics_get_no_verdict() {
        let mut d = def(None, false);
        assert_eq!(verdict(&d, &[1.0], &[2.0], 1.0, 2.0), "-");
        d.name = "exec.steps.point".to_string();
        assert_eq!(verdict(&d, &[7.0], &[7.0], 7.0, 7.0), "same");
        assert_eq!(verdict(&d, &[7.0], &[8.0], 7.0, 8.0), "differs");
    }
}
