//! What a `run` or `trace` reports: the metrics, the sample count behind
//! every percentile, operation counts, the host record, and the verdict of
//! the correctness checks.

use crate::gen::{Class, Workload};
use crate::run::Outcome;
use crate::server::Env;
use crate::spec::Spec;
use crate::stats::{median, percentile};
use nestdb::proto::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::Command;

pub struct Report {
    trace: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    host: Vec<(String, Json)>,
    /// Metric values by name; `check_against` orders them and adds units.
    values: BTreeMap<String, f64>,
    /// `(name, unit, value)` in `BENCHMARK.json` order.
    metrics: Vec<(String, String, f64)>,
    /// Samples behind each percentile or median.
    samples: BTreeMap<String, usize>,
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    checked: usize,
    problems: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn first_line_after(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Report {
    pub fn new(env: &Env, trace: bool, workload: Workload, seed: u64, seconds: f64) -> Report {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let host = vec![
            ("nproc".to_string(), Json::u64(nproc)),
            (
                "cpu".to_string(),
                Json::Str(first_line_after("/proc/cpuinfo", "model name")),
            ),
            (
                "kernel".to_string(),
                Json::Str(first_line_after("/proc/sys/kernel/osrelease", "")),
            ),
            (
                "rustc".to_string(),
                Json::Str(command_line("rustc", &["--version"])),
            ),
            (
                "git_rev".to_string(),
                Json::Str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            (
                "server_binary".to_string(),
                Json::Str(env.server_bin.display().to_string()),
            ),
            (
                "server_binary_mtime".to_string(),
                Json::u64(env.server_mtime()),
            ),
            ("clients".to_string(), Json::u64(crate::run::CLIENTS as u64)),
        ];
        Report {
            trace,
            workload,
            seed,
            seconds,
            host,
            values: BTreeMap::new(),
            metrics: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checked: 0,
            problems: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A metric that is the `p`-quantile of `values`, with its sample count.
    pub fn set_percentile(&mut self, name: &str, values: &mut [f64], p: f64) {
        self.set(name, percentile(values, p));
        self.samples.insert(name.to_string(), values.len());
    }

    pub fn set_median(&mut self, name: &str, values: &mut [f64]) {
        self.set(name, median(values));
        self.samples.insert(name.to_string(), values.len());
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Fold a wire pass's verdicts and operation counts into the report.
    pub fn absorb(&mut self, o: &mut Outcome) {
        self.attempted += o.attempted();
        self.failed += o.failed();
        self.checked += o.checked;
        self.problems.append(&mut o.problems);
        for log in &o.logs {
            for (class, _, _) in &log.lat {
                self.count(class.name(), 1);
            }
        }
    }

    /// The end-to-end metrics of a `run`.
    pub fn end_to_end(&mut self, w: Workload, o: &mut Outcome) {
        self.absorb(o);
        let in_window = o.latencies(|_, _| true).len() as f64;
        // latency is that of the workload's primary class — the write
        // acknowledgement on update-subscribe, the CALC+IFP closure on
        // fixpoint; the requests beside it count in throughput. A median
        // over a mix of 1 ms and 50 ms requests would sit on the edge
        // between the two and move with a handful of requests.
        let mut lat = match w {
            Workload::UpdateSubscribe => o.latencies(|_, class| class == Class::Update),
            Workload::Fixpoint => o.latencies(|_, class| class == Class::IfpTc),
            _ => o.latencies(|_, _| true),
        };
        self.set_median("setup_s", &mut o.setup_s.clone());
        self.set("throughput_rps", in_window / o.seconds);
        self.set_percentile("latency_p50_ms", &mut lat, 0.50);
        self.set_percentile("latency_p95_ms", &mut lat, 0.95);
        self.set("server_cpu_ms_per_req", o.cpu_ms / in_window.max(1.0));
        self.set("server_peak_rss_mb", o.peak_rss_mb);
        if in_window == 0.0 {
            self.problem("no request completed inside the window".to_string());
        }
    }

    /// Refuse a metric set that differs from `BENCHMARK.json`'s. A traced
    /// pass reports 0 for a per-layer metric its workload does not
    /// exercise (no `storage.*` on a read-only workload, say).
    pub fn check_against(&mut self, spec: &Spec) -> Result<(), String> {
        let defs = if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        if let Some(stray) = self
            .values
            .keys()
            .find(|name| !defs.iter().any(|d| &d.name == *name))
        {
            return Err(format!("metric {stray} is not in BENCHMARK.json"));
        }
        for def in defs {
            let value = match self.values.get(&def.name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => return Err(format!("metric {} was not measured", def.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            self.metrics
                .push((def.name.clone(), def.unit.clone(), value));
        }
        Ok(())
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, unit, value)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::f64(*value)),
                            ("unit".to_string(), Json::Str(unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    fn result_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::u64(self.attempted.max(1))),
            ("failed".to_string(), Json::u64(self.failed)),
            ("metrics".to_string(), self.metrics_json()),
        ])
    }

    /// Every metric as `name unit value`, the checks' verdict, and — last —
    /// the one-line JSON result.
    pub fn print(&self) {
        for (name, unit, value) in &self.metrics {
            match self.samples.get(name) {
                Some(n) => println!("{name} {unit} {value} n={n}"),
                None => println!("{name} {unit} {value}"),
            }
        }
        for problem in self.problems.iter().take(20) {
            eprintln!("FAILED CHECK: {problem}");
        }
        eprintln!(
            "{} {}: {} requests, {} failed, {} replies checked, {} problems",
            if self.trace { "trace" } else { "run" },
            self.workload.name(),
            self.attempted,
            self.failed,
            self.checked,
            self.problems.len()
        );
        println!("{}", self.result_json().render());
    }

    /// Write the full record to `<out>/<w>.json` (`layers-<w>.json` for a
    /// traced pass) and append it to `append` as one line, if given — the
    /// sets `compare` reads.
    pub fn write(&self, env: &Env, append: Option<&Path>) -> Result<(), String> {
        let u = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect())
        };
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), *v as u64))
            .collect();
        let record = Json::Obj(vec![
            ("nestbench".to_string(), Json::u64(1)),
            (
                "mode".to_string(),
                Json::Str(if self.trace { "trace" } else { "run" }.to_string()),
            ),
            (
                "workload".to_string(),
                Json::Str(self.workload.name().to_string()),
            ),
            ("seed".to_string(), Json::u64(self.seed)),
            ("seconds".to_string(), Json::f64(self.seconds)),
            ("host".to_string(), Json::Obj(self.host.clone())),
            ("op_counts".to_string(), u(&self.counts)),
            ("samples".to_string(), u(&samples)),
            (
                "replies_checked".to_string(),
                Json::u64(self.checked as u64),
            ),
            (
                "problems".to_string(),
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("result".to_string(), self.result_json()),
        ])
        .render();
        let name = if self.trace {
            format!("layers-{}.json", self.workload.name())
        } else {
            format!("{}.json", self.workload.name())
        };
        let path = env.out_dir.join(name);
        std::fs::write(&path, format!("{record}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(set) = append {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(set)
                .and_then(|mut f| writeln!(f, "{record}"))
                .map_err(|e| format!("{}: {e}", set.display()))?;
        }
        Ok(())
    }
}
