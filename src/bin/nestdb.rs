//! `nestdb` — an interactive shell for complex-object databases.
//!
//! ```text
//! $ cargo run --bin nestdb -- data/graph.no
//! nestdb> {[x:U, y:U] | G(x, y)}
//! nestdb> :classify {[u:U, v:U] | ifp(S; x:U, y:U | G(x,y) \/ exists z:U (S(x,z) /\ G(z,y)))(u, v)}
//! nestdb> :help
//! ```
//!
//! Subcommands: `analyze` (static analysis), `explain` (plans without
//! evaluation), `open` (shell attached to a durable database directory),
//! `save` (import a text database into a durable directory and
//! checkpoint, through the shell), `verify` (read-only integrity check of a durable
//! directory), `serve` (TCP query service speaking newline-delimited
//! JSON requests). With no subcommand, arguments are text database files
//! loaded into an in-memory shell.
//!
//! All logic lives in [`nestdb::shell::Shell`]; this binary is the stdin
//! loop.

use nestdb::check::{load_database, CorpusReport};
use nestdb::object::{Instance, Schema, Universe};
use nestdb::plan::json_escape;
use nestdb::proto::{Lang, Op, Request};
use nestdb::server::ServerConfig;
use nestdb::shell::Shell;
use nestdb::{Session, Store};
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::{Arc, RwLock};

/// A session over the database behind `--db` (or an empty one): the
/// single dispatch point `analyze` and `explain` route through.
fn session_for(db: Option<&String>) -> Result<Session, String> {
    let (universe, instance) = match db {
        Some(path) => {
            let loaded = load_database(path)?;
            (loaded.universe, loaded.instance)
        }
        None => (Universe::new(), Instance::empty(Schema::new())),
    };
    Ok(Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(universe, instance))))
        .build())
}

/// `nestdb analyze [--format json|text] [--deny] [--db <file.no>] <files…>`
///
/// Static analysis over query files: `.dl` files are Datalog¬ programs,
/// anything else is one CALC query per non-comment line. `--deny` exits
/// nonzero when *any* diagnostic (even a warning) is emitted — the CI
/// gate. Prints the report to stdout; never evaluates anything.
fn run_analyze(args: &[String]) -> i32 {
    let mut format = "text".to_string();
    let mut deny = false;
    let mut db: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "json" || f == "text" => format = f.clone(),
                other => {
                    eprintln!("error: --format needs json or text, got {other:?}");
                    return 2;
                }
            },
            "--deny" => deny = true,
            "--db" => match it.next() {
                Some(p) => db = Some(p.clone()),
                None => {
                    eprintln!("error: --db needs a database file");
                    return 2;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return 2;
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: nestdb analyze [--format json|text] [--deny] [--db <file.no>] <files…>");
        return 2;
    }
    let session = match session_for(db.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut report = CorpusReport::default();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return 2;
            }
        };
        report.add_file(&session, file, &src);
    }
    match format.as_str() {
        "json" => println!("{}", report.to_json()),
        _ => println!("{}", report.render_text()),
    }
    if deny && report.has_diagnostics() {
        let (errors, warnings) = report.diagnostic_counts();
        eprintln!("analyze --deny: {errors} error(s), {warnings} warning(s)");
        return 1;
    }
    0
}

/// `nestdb explain [--format json|text] [--deny] [--db <file.no>] <files…>`
///
/// Compile query files to optimized plans and print them without
/// evaluating. `.dl` files are Datalog¬ programs (planned under the
/// semi-naive delta rewrite), anything else is one CALC query per
/// non-comment line (planned under safe evaluation). `--db` supplies the
/// schema and the statistics the optimizer orders quantifiers by.
/// `--deny` exits nonzero when any input fails to plan — the CI gate.
fn run_explain(args: &[String]) -> i32 {
    let mut format = "text".to_string();
    let mut deny = false;
    let mut db: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "json" || f == "text" => format = f.clone(),
                other => {
                    eprintln!("error: --format needs json or text, got {other:?}");
                    return 2;
                }
            },
            "--deny" => deny = true,
            "--db" => match it.next() {
                Some(p) => db = Some(p.clone()),
                None => {
                    eprintln!("error: --db needs a database file");
                    return 2;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return 2;
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: nestdb explain [--format json|text] [--deny] [--db <file.no>] <files…>");
        return 2;
    }
    let session = match session_for(db.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // (source label, Ok(rendered plan) | Err(message))
    let mut results: Vec<(String, Result<String, String>)> = Vec::new();
    let json = format == "json";
    let explain = |lang: Lang, text: &str| -> Result<String, String> {
        let resp = session.run(&Request {
            op: Op::Explain,
            lang,
            text: text.to_string(),
            ..Request::default()
        });
        match resp.explain {
            Some(plan) => Ok(if json { plan.json } else { plan.text }),
            None => Err(resp
                .error
                .map(|e| e.message)
                .unwrap_or_else(|| "no plan in response".to_string())),
        }
    };
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return 2;
            }
        };
        if file.ends_with(".dl") {
            results.push((file.clone(), explain(Lang::Datalog, &src)));
        } else {
            for (lineno, line) in src.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('%') {
                    continue;
                }
                let label = format!("{file}:{}", lineno + 1);
                results.push((label, explain(Lang::Calc, line)));
            }
        }
    }
    let failures = results.iter().filter(|(_, r)| r.is_err()).count();
    if json {
        let items: Vec<String> = results
            .iter()
            .map(|(label, r)| match r {
                Ok(plan) => format!(
                    "{{\"source\": \"{}\", \"plan\": {plan}}}",
                    json_escape(label)
                ),
                Err(e) => format!(
                    "{{\"source\": \"{}\", \"error\": \"{}\"}}",
                    json_escape(label),
                    json_escape(e)
                ),
            })
            .collect();
        println!(
            "{{\"plans\": [{}], \"failures\": {failures}}}",
            items.join(", ")
        );
    } else {
        for (label, r) in &results {
            println!("== {label} ==");
            match r {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
        }
    }
    if deny && failures > 0 {
        eprintln!("explain --deny: {failures} input(s) failed to plan");
        return 1;
    }
    0
}

/// `nestdb verify <path…>`
///
/// Read-only integrity check. Directories are verified as durable
/// databases: the snapshot is decoded, the write-ahead log is scanned
/// frame by frame, and every checksum is checked — without modifying a
/// byte on disk. Plain files are loaded as text databases. Exits nonzero
/// if any path fails, printing the structured error (never panicking) so
/// CI and operators can gate on it.
fn run_verify(args: &[String]) -> i32 {
    if args.is_empty() {
        eprintln!("usage: nestdb verify <path…>");
        return 2;
    }
    let mut failures = 0;
    for path in args {
        let p = Path::new(path);
        if p.is_dir() {
            match nestdb::storage::verify(p) {
                Ok(r) => {
                    let wal = match r.wal_epoch {
                        Some(e) => format!("wal epoch {e} ({} frames)", r.wal_frames),
                        None => "no wal".to_string(),
                    };
                    println!(
                        "{path}: ok — snapshot epoch {} ({} bytes), {wal}; \
                         {} atoms, {} relations, {} tuples",
                        r.snapshot_epoch, r.snapshot_bytes, r.atoms, r.relations, r.tuples,
                    );
                    if r.stale_wal {
                        println!(
                            "{path}: note — wal predates the snapshot; \
                             it will be discarded on open"
                        );
                    }
                    if r.torn_tail_bytes > 0 {
                        println!(
                            "{path}: note — torn tail of {} byte(s); \
                             it will be truncated on open",
                            r.torn_tail_bytes,
                        );
                    }
                }
                Err(e) => {
                    eprintln!("{path}: FAILED — {e}");
                    failures += 1;
                }
            }
        } else {
            match load_database(path) {
                Ok(loaded) => println!("{path}: ok — {}", loaded.summary),
                Err(e) => {
                    eprintln!("{path}: FAILED — {e}");
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

/// `nestdb save <file.no> <dir>`
///
/// Import a text database file into a durable directory (created if it
/// does not exist; recovered if it does) and checkpoint: see
/// [`Shell::save_file_into`].
fn run_save(args: &[String]) -> i32 {
    let [src, dir] = args else {
        eprintln!("usage: nestdb save <file.no> <dir>");
        return 2;
    };
    match Shell::new().save_file_into(src, dir) {
        Ok(out) => {
            println!("{out}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `nestdb serve [--addr host:port] [--db <path>] [--tenant-steps N] [--tenant-refill N]`
///
/// Run the TCP query service: newline-delimited JSON requests in, one
/// JSON response line per request out (wire protocol in DESIGN.md §15).
/// `--db` takes either a durable database directory (opened with
/// recovery; inserts are logged) or a text database file (loaded into
/// memory). `--tenant-steps`/`--tenant-refill` size the per-tenant
/// admission-control buckets in governor steps.
fn run_serve(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:4617".to_string();
    let mut db: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("error: --addr needs host:port");
                    return 2;
                }
            },
            "--db" => match it.next() {
                Some(p) => db = Some(p.clone()),
                None => {
                    eprintln!("error: --db needs a database file or directory");
                    return 2;
                }
            },
            "--tenant-steps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.tenant_capacity_steps = n,
                None => {
                    eprintln!("error: --tenant-steps needs a number");
                    return 2;
                }
            },
            "--tenant-refill" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.tenant_refill_steps_per_sec = n,
                None => {
                    eprintln!("error: --tenant-refill needs a number");
                    return 2;
                }
            },
            flag => {
                eprintln!("error: unknown flag {flag}");
                eprintln!(
                    "usage: nestdb serve [--addr host:port] [--db <path>] \
                     [--tenant-steps N] [--tenant-refill N]"
                );
                return 2;
            }
        }
    }
    let session = match db.as_ref().filter(|p| Path::new(p.as_str()).is_dir()) {
        Some(dir) => {
            // durable directory: open through the protocol so recovery
            // messages surface the same way the shell prints them
            let session = match session_for(None) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let resp = session.run(&Request {
                op: Op::Open,
                text: dir.clone(),
                ..Request::default()
            });
            match (resp.ok, resp.message, resp.error) {
                (true, Some(msg), _) => println!("{msg}"),
                (true, None, _) => {}
                (false, _, err) => {
                    eprintln!(
                        "error: {}",
                        err.map(|e| e.message)
                            .unwrap_or_else(|| "open failed".into())
                    );
                    return 2;
                }
            }
            session
        }
        None => match session_for(db.as_ref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
    };
    match nestdb::service::serve(&addr, session, config) {
        Ok(server) => {
            println!("nestdb serving on {}", server.local_addr());
            server.join();
            0
        }
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            1
        }
    }
}

/// The stdin read-eval-print loop over an already set-up shell.
fn repl(mut shell: Shell) {
    let stdin = io::stdin();
    let interactive = std::env::var_os("TERM").is_some();
    if interactive {
        println!("nestdb — tractable query languages for complex objects (:help for help)");
    }
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("nestdb> ");
            let _ = io::stdout().flush();
        }
        let Some(Ok(line)) = lines.next() else { break };
        match shell.command(&line) {
            Ok(Some(out)) => println!("{out}"),
            Ok(None) => {}
            Err(e) if e == "quit" => break,
            Err(e) => println!("error: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => std::process::exit(run_analyze(&args[1..])),
        Some("explain") => std::process::exit(run_explain(&args[1..])),
        Some("verify") => std::process::exit(run_verify(&args[1..])),
        Some("save") => std::process::exit(run_save(&args[1..])),
        Some("serve") => std::process::exit(run_serve(&args[1..])),
        Some("open") => {
            // `nestdb open <dir>` — shell attached to a durable database:
            // recovery runs on open, every insert is logged before it is
            // applied, `:save` checkpoints.
            if args.len() != 2 {
                eprintln!("usage: nestdb open <dir>");
                std::process::exit(2);
            }
            let mut shell = Shell::new();
            match shell.command(&format!(":open {}", args[1])) {
                Ok(Some(out)) => println!("{out}"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            repl(shell);
            return;
        }
        _ => {}
    }
    let mut shell = Shell::new();
    for path in &args {
        match shell.load(path) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    repl(shell);
}
