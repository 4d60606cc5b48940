//! `nestbench` — nestdb's one benchmark: newline-JSON requests over TCP
//! against a child `nestdb serve`, four workloads, end-to-end metrics with
//! tracing off and per-layer attribution from a separate traced pass.
//!
//! ```text
//! nestbench run     --workload <w> [--seed N] [--seconds S]
//! nestbench trace   --workload <w> [--seed N] [--seconds S]
//! nestbench compare <a.jsonl> <b.jsonl>
//! nestbench --workload <w> --seed N --seconds S --trace 0|1     (the driver's form)
//! ```
//!
//! `run` and `trace` print every metric as `name unit value`, write
//! `<target>/nestbench/<w>.json` (`trace` also `trace-<w>.json`, the span
//! dump), and end with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero on any correctness failure.

mod compare;
mod gen;
mod oracle;
mod report;
mod rng;
mod run;
mod server;
mod spec;
mod stats;
mod trace;
mod value;
mod wire;

use gen::Workload;
use report::Report;
use run::{Shape, CLIENTS};
use server::Env;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: nestbench run|trace --workload <point-read|join-scan|fixpoint|update-subscribe> \
[--seed N] [--seconds S] [--append <set.jsonl>]\n       nestbench compare <a.jsonl> <b.jsonl>";

struct Args {
    trace: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    append: Option<PathBuf>,
}

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let (mut trace, rest) = match args.first().map(String::as_str) {
        Some("run") => (false, &args[1..]),
        Some("trace") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = spec.run_seconds as f64;
    let mut append = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                // BENCHMARK.json is the list of workloads that can be asked for
                let listed = spec.workloads.iter().any(|name| name == value);
                workload = Some(
                    Workload::from_name(value)
                        .filter(|_| listed)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--append" => append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        trace,
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        append,
    })
}

fn measure(args: &Args, spec: &Spec) -> Result<Report, String> {
    let env = Env::locate()?;
    let mut report = Report::new(&env, args.trace, args.workload, args.seed, args.seconds);
    if args.trace {
        trace::trace_run(&env, args.workload, args.seed, args.seconds, &mut report)?;
    } else {
        let shape = Shape {
            seconds: args.seconds,
            clients: CLIENTS,
            setup_reps: SETUP_REPS,
            // the writing workload is killed and restarted once, to check
            // that every acknowledged update survived; `trace` times it
            recovery_reps: usize::from(args.workload == Workload::UpdateSubscribe),
        };
        let mut outcome = run::wire_pass(&env, args.workload, args.seed, shape)?;
        report.end_to_end(args.workload, &mut outcome);
    }
    report.check_against(spec)?;
    report.write(&env, args.append.as_deref())?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..], &spec) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // every guard (child server, scratch directory) has been dropped by the
    // time `measure` returns, on the error path too
    match measure(&parsed, &spec) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
