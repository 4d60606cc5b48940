//! The traced pass: per-layer attribution **from outside**.
//!
//! The same generated request stream is replayed in-process, on one thread,
//! through the public functions of each crate, with a span recorded here —
//! in the benchmark's own files — around every call: `proto` decode and
//! encode, `Session::run`, and then the parser, the planner (cache hit or
//! a forced compile) and `Planned::execute` called once more on their own.
//! Spans stay in memory and are written out at the end. Two short wire
//! passes (one and two clients) give the `server.*` figures, and the
//! workloads that exercise them add the theorem-shape curves, the storage
//! micro-pass and the view-maintenance micro-pass.

use crate::gen::{
    cycle_db_text, op_line, q, view_line, Class, Data, Op, Stream, UpdData, UpdateStream, Workload,
};
use crate::report::Report;
use crate::run::{wire_pass, Shape};
use crate::server::{Env, Scratch};
use crate::stats::{loglog_slope, mean, median};
use nestdb::ivm::BaseDelta;
use nestdb::object::text::{parse_clause, parse_database, Clause};
use nestdb::object::{Governor, Limits, Universe};
use nestdb::plan::{CalcMode, DatalogMode, Output};
use nestdb::proto::{Json, Lang, Op as WireOp, Request, Strategy};
use nestdb::storage::{Db, DbOptions, SyncPolicy};
use nestdb::{Session, Store, ThreadPool};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Requests replayed in-process (after the same warm-up the wire passes
/// use). Fixed counts, so the exact-count metrics repeat.
fn replay_ops(w: Workload) -> (usize, usize) {
    match w {
        Workload::PointRead => (100, 600),
        Workload::JoinScan => (14, 70),
        Workload::Fixpoint => (10, 40),
        Workload::UpdateSubscribe => (120, 400),
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    req: usize,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent), req);
        let out = f();
        (out, self.close(id))
    }

    /// Every child must lie inside its parent and carry its request id.
    fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let p = &self.spans[p];
                if s.start_us < p.start_us || s.end_us > p.end_us || s.req != p.req {
                    return Err(format!(
                        "span {i} ({}) does not nest inside its parent ({})",
                        s.name, p.name
                    ));
                }
            }
        }
        Ok(())
    }

    fn dump(&self, w: Workload, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_us".to_string(), Json::f64(s.start_us)),
                    ("end_us".to_string(), Json::f64(s.end_us)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                    ("req".to_string(), Json::u64(s.req as u64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".to_string(), Json::Str(w.name().to_string())),
            ("spans".to_string(), Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------------

/// Per-request samples, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    fn report_means(&self, names: &[&str], report: &mut Report) {
        for name in names {
            if let Some(v) = self.0.get(*name) {
                report.set(name, mean(v));
            }
        }
    }
}

/// A request's text, parsed by its language's own parser.
enum Parsed {
    Calc(nestdb::core::Query),
    Algebra(nestdb::algebra::Expr),
    Datalog(nestdb::datalog::Program),
}

struct Replay {
    session: Session,
    /// Shares the store but owns its plan cache, so a compile can be forced
    /// (clear, then plan) without disturbing the session's hit ratio.
    shadow: Session,
    pool: ThreadPool,
    tracer: Tracer,
    samples: Samples,
    /// decode + run + encode per request: what the wire adds is measured
    /// against this.
    in_process_us: Vec<f64>,
    hits: u64,
    misses: u64,
    problems: Vec<String>,
}

fn unlimited() -> Governor {
    Governor::new(Limits::unlimited())
}

impl Replay {
    fn new(store: Store) -> Replay {
        let session = Session::builder()
            .store(Arc::new(RwLock::new(store)))
            .parallelism(1)
            .build();
        Replay {
            shadow: Session::builder()
                .store(session.store())
                .parallelism(1)
                .build(),
            session,
            pool: ThreadPool::new(1),
            tracer: Tracer::new(),
            samples: Samples::default(),
            in_process_us: Vec::new(),
            hits: 0,
            misses: 0,
            problems: Vec::new(),
        }
    }

    /// A request outside the measured stream (set-up, warm-up).
    fn call(&mut self, line: &str) -> Result<nestdb::Response, String> {
        let req = Request::from_json(line)?;
        let resp = self.session.run(&req);
        if resp.ok {
            Ok(resp)
        } else {
            Err(format!(
                "{:?} (request {})",
                resp.error,
                crate::wire::clip(line)
            ))
        }
    }

    /// One measured request: decode → run → encode under a root span, then
    /// the parser, planner and executor once more, each on its own.
    fn measure(&mut self, n: usize, op: &Op) {
        let root = self.tracer.open("request", None, n);
        let (req, decode_us) = self
            .tracer
            .span("proto.decode", root, n, || Request::from_json(&op.line));
        let Ok(req) = req else {
            self.problems.push(format!("request {n} does not decode"));
            self.tracer.close(root);
            return;
        };
        let before = self.session.plan_cache_stats();
        let session = &self.session;
        let (resp, run_us) = self
            .tracer
            .span("session.run", root, n, || session.run(&req));
        let after = self.session.plan_cache_stats();
        let (encoded, encode_us) = self.tracer.span("proto.encode", root, n, || resp.to_json());
        if !resp.ok {
            self.problems
                .push(format!("request {n} failed in-process: {:?}", resp.error));
        }
        let s = &mut self.samples;
        s.add("proto.decode_us", decode_us);
        s.add("proto.encode_us", encode_us);
        s.add("proto.request_bytes", op.line.len() as f64 + 1.0);
        s.add("proto.response_bytes", encoded.len() as f64 + 1.0);
        s.add("session.run_us", run_us);
        self.in_process_us.push(decode_us + run_us + encode_us);
        let missed = after.1 > before.1;
        self.hits += after.0 - before.0;
        self.misses += after.1 - before.1;

        let attributed = if req.op == WireOp::Eval {
            self.attribute(root, n, op.class, &req, missed)
                .unwrap_or_else(|e| {
                    self.problems.push(format!("request {n}: {e}"));
                    0.0
                })
        } else {
            0.0
        };
        self.samples.add("session.other_us", run_us - attributed);
        self.tracer.close(root);
    }

    /// Parse, plan and execute `req` again through the public entry
    /// points; returns the time the three took together.
    fn attribute(
        &mut self,
        root: usize,
        n: usize,
        class: Class,
        req: &Request,
        missed: bool,
    ) -> Result<f64, String> {
        let store = self.session.store();
        let t = &mut self.tracer;

        let (parse_span, parse_metric) = match req.lang {
            Lang::Calc => ("core.parse", "core.parse_us"),
            Lang::Algebra => ("algebra.parse", "algebra.parse_us"),
            Lang::Datalog => ("datalog.parse", "datalog.parse_us"),
        };
        let (parsed, parse_us) = t.span(parse_span, root, n, || {
            // parsing interns atoms, so it takes the store's write lock —
            // as it does inside `Session::run`
            let mut store = store.write().expect("store lock");
            let u = store.universe_mut();
            match req.lang {
                Lang::Calc => nestdb::core::parse_query(&req.text, u)
                    .map(Parsed::Calc)
                    .map_err(|e| e.render(&req.text)),
                Lang::Algebra => nestdb::algebra::parse_expr(&req.text, u)
                    .map(Parsed::Algebra)
                    .map_err(|e| e.to_string()),
                Lang::Datalog => nestdb::datalog::parse_program(&req.text, u)
                    .map(Parsed::Datalog)
                    .map_err(|e| e.render(&req.text)),
            }
        });
        let parsed = parsed?;
        self.samples.add(parse_metric, parse_us);

        // on a miss, time a compile (the shadow's cache is emptied first);
        // on a hit, time the lookup the session itself just did
        let (planner, plan_metric) = if missed {
            self.shadow.clear_plan_cache();
            (&self.shadow, "plan.compile_us")
        } else {
            (&self.session, "plan.lookup_us")
        };
        let store = store.read().expect("store lock");
        let instance = store.instance();
        let (planned, plan_us) = t.span("plan", root, n, || match &parsed {
            Parsed::Calc(query) => planner.plan_calc(instance, query, CalcMode::Safe),
            Parsed::Algebra(expr) => planner.plan_algebra(instance, expr),
            Parsed::Datalog(program) => {
                let mode = match req.strategy {
                    Strategy::Stratified => DatalogMode::Stratified,
                    _ => DatalogMode::SemiNaive,
                };
                planner.plan_datalog(instance, program, mode)
            }
        });
        let planned = planned.map_err(|e| e.to_string())?;
        self.samples.add(plan_metric, plan_us);

        let gov = unlimited();
        let pool = &self.pool;
        let (out, execute_us) = t.span("exec.execute", root, n, || {
            planned.execute(instance, &gov, pool)
        });
        let (rows, rounds) = match out.map_err(|e| e.to_string())? {
            Output::Relation(r) => (r.len(), None),
            Output::Idb(idb, stats) => {
                (idb.values().map(|r| r.len()).sum(), stats.map(|s| s.rounds))
            }
        };
        let c = class.name();
        let s = &mut self.samples;
        s.add(&format!("exec.execute_us.{c}"), execute_us);
        s.add(&format!("exec.steps.{c}"), gov.steps_spent() as f64);
        s.add(&format!("exec.rows_out.{c}"), rows as f64);
        if let Some(r) = rounds {
            s.add("datalog.rounds", r as f64);
        }
        Ok(parse_us + plan_us + execute_us)
    }

    fn report(&self, report: &mut Report) {
        let s = &self.samples;
        s.report_means(
            &[
                "proto.decode_us",
                "proto.encode_us",
                "proto.request_bytes",
                "proto.response_bytes",
                "core.parse_us",
                "datalog.parse_us",
                "algebra.parse_us",
                "plan.compile_us",
                "plan.lookup_us",
                "datalog.rounds",
                "session.run_us",
            ],
            report,
        );
        for class in Class::QUERIES {
            let c = class.name();
            let names = [
                format!("exec.execute_us.{c}"),
                format!("exec.steps.{c}"),
                format!("exec.rows_out.{c}"),
            ];
            s.report_means(&[&names[0], &names[1], &names[2]], report);
            if let (Some(steps), Some(rows)) = (s.0.get(&names[1]), s.0.get(&names[2])) {
                let rows: f64 = rows.iter().sum();
                report.set(
                    &format!("exec.steps_per_row.{c}"),
                    steps.iter().sum::<f64>() / rows.max(1.0),
                );
            }
        }
        if self.hits + self.misses > 0 {
            report.set(
                "plan.cache_hit_ratio",
                self.hits as f64 / (self.hits + self.misses) as f64,
            );
        }
        // the residual — row rendering and store locks — at the median
        let mut other = s.0.get("session.other_us").cloned().unwrap_or_default();
        report.set_median("session.other_us", &mut other);
    }
}

/// The store a read-only workload's server would load from `text`.
fn store_from_text(text: &str) -> Result<Store, String> {
    let mut universe = Universe::new();
    let (_, instance) = parse_database(text, &mut universe).map_err(|e| e.to_string())?;
    Ok(Store::with_data(universe, instance))
}

/// Alternates two streams: the writer's updates and the subscriber's reads
/// on one thread.
struct Interleave(Box<dyn Stream>, Box<dyn Stream>, bool);

impl Stream for Interleave {
    fn next_op(&mut self) -> Op {
        self.2 = !self.2;
        if self.2 {
            self.0.next_op()
        } else {
            self.1.next_op()
        }
    }
}

fn replay(w: Workload, seed: u64, scratch: &Scratch) -> Result<Replay, String> {
    let data = Data::new(w, seed);
    let (mut r, mut stream): (Replay, Box<dyn Stream>) = match &data {
        Data::Upd(upd) => {
            // durable, like the served store: open, load through the log,
            // materialize, then the writer's and the reader's streams
            // alternate on this one thread
            let mut r = Replay::new(Store::new());
            let dir = scratch.subdir("replay-db")?;
            r.call(&op_line("open", &dir.display().to_string()))?;
            for line in upd.schema_lines().iter().chain(&upd.load_lines()) {
                r.call(line)?;
            }
            for (view, program) in upd.view_programs() {
                r.call(&view_line("materialize", view, &program))?;
            }
            let mut pair = data.streams(w, seed, 2);
            let reads = pair.pop().expect("two streams");
            let updates = pair.pop().expect("two streams");
            (r, Box::new(Interleave(updates, reads, false)))
        }
        _ => (
            Replay::new(store_from_text(&data.db_text())?),
            data.streams(w, seed, 1).remove(0),
        ),
    };
    let (warmup, measured) = replay_ops(w);
    for _ in 0..warmup {
        r.call(&stream.next_op().line)?;
    }
    // warm-up requests filled the plan cache; the ratio counts from here
    for n in 0..measured {
        r.measure(n, &stream.next_op());
    }
    Ok(r)
}

// ---------------------------------------------------------------------------
// Theorem shapes (fixpoint)
// ---------------------------------------------------------------------------

/// Steps of CALC+IFP and semi-naive Datalog transitive closure on cycles
/// of growing size: the log–log slopes are the polynomial degrees Theorem
/// 4.1 promises (EXPERIMENTS.md E8 has ≈ 3.7 for IFP). The powerset
/// formulation at n = 4 must be refused by the governor, not hang.
fn theorem_shapes(report: &mut Report) -> Result<(), String> {
    let mut ifp = Vec::new();
    let mut datalog = Vec::new();
    for n in [8usize, 12, 16, 24, 32] {
        let mut r = Replay::new(store_from_text(&cycle_db_text(n))?);
        for (query, points) in [
            (q::ifp_tc("G"), &mut ifp),
            (q::dl_tc("G", "tc"), &mut datalog),
        ] {
            let resp = r.call(&query.line(true))?;
            let rows: usize = resp.relations.iter().map(|rel| rel.rows.len()).sum();
            if rows != n * n {
                report.problem(format!(
                    "closure of the {n}-cycle has {rows} rows, not {}",
                    n * n
                ));
            }
            let steps = resp.spend.map_or(0, |s| s.steps);
            points.push((n as f64, steps as f64));
        }
    }
    report.set("core.ifp_steps_exponent", loglog_slope(&ifp));
    report.set("datalog.seminaive_steps_exponent", loglog_slope(&datalog));

    let r = Replay::new(store_from_text(&cycle_db_text(4))?);
    let mut req = Request::from_json(&q::powerset_tc("G").line(true))?;
    req.limits = Some(nestdb::proto::LimitsSpec {
        max_steps: Some(300_000),
        max_range: Some(1 << 20),
        ..Default::default()
    });
    let resp = r.session.run(&req);
    if resp.ok || !resp.error.as_ref().is_some_and(|e| e.resource_trip) {
        report.problem(format!(
            "powerset closure at n = 4 was not refused as a resource trip: ok = {}, error = {:?}",
            resp.ok, resp.error
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Storage and view-maintenance micro-passes (update-subscribe)
// ---------------------------------------------------------------------------

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Insert `facts` one by one; returns per-insert microseconds.
fn insert_all(db: &mut Db, facts: &[String]) -> Result<Vec<f64>, String> {
    facts
        .iter()
        .map(|fact| match parse_clause(fact, db.universe_mut()) {
            Ok(Clause::Fact(name, row)) => {
                let t = Instant::now();
                db.insert(&name, row).map_err(|e| e.to_string())?;
                Ok(us(t))
            }
            other => Err(format!("{fact:?} is not a fact: {other:?}")),
        })
        .collect()
}

/// The `Db` public API on a scratch directory: synced and unsynced
/// appends (the difference is fsync), checkpoint, recovery.
fn storage_micro(seed: u64, scratch: &Scratch, report: &mut Report) -> Result<(), String> {
    const APPENDS: usize = 300;
    const TAIL: usize = 200;
    let data = UpdData::new(seed);
    let facts: Vec<String> = data.e.edges().map(|(a, b)| data.e.fact(a, b)).collect();
    let (head, tail) = (&facts[..APPENDS], &facts[APPENDS..APPENDS + TAIL]);
    let open = |dir: &Path, sync: SyncPolicy| {
        let options = DbOptions {
            sync,
            ..DbOptions::default()
        };
        Db::open(dir, options).map_err(|e| e.to_string())
    };
    let declare = |db: &mut Db| match parse_clause("schema E(U, U).", db.universe_mut()) {
        Ok(Clause::Schema(rel)) => db.declare(rel).map_err(|e| e.to_string()),
        other => Err(format!("schema clause parsed as {other:?}")),
    };

    let dir = scratch.subdir("storage-always")?;
    let mut db = open(&dir, SyncPolicy::Always)?;
    declare(&mut db)?;
    let before = dir_bytes(&dir);
    let mut synced = insert_all(&mut db, head)?;
    report.set_median("storage.append_us", &mut synced);
    report.set(
        "storage.wal_bytes_per_mutation",
        (dir_bytes(&dir) - before) as f64 / APPENDS as f64,
    );
    let t = Instant::now();
    db.save().map_err(|e| e.to_string())?;
    report.set("storage.checkpoint_ms", us(t) / 1e3);
    insert_all(&mut db, tail)?;
    let user_bytes: usize = head.iter().chain(tail).map(|f| f.len() + 1).sum();
    report.set(
        "storage.disk_bytes_per_user_byte",
        dir_bytes(&dir) as f64 / user_bytes as f64,
    );
    drop(db);
    let t = Instant::now();
    let db = open(&dir, SyncPolicy::Always)?;
    report.set("storage.recover_ms", us(t) / 1e3);
    report.set(
        "storage.replayed_frames",
        db.open_stats().replayed_frames as f64,
    );
    if db.instance().relation("E").len() != APPENDS + TAIL {
        report.problem("recovery lost acknowledged inserts".to_string());
    }

    let dir = scratch.subdir("storage-manual")?;
    let mut db = open(&dir, SyncPolicy::Manual)?;
    declare(&mut db)?;
    let mut unsynced = insert_all(&mut db, head)?;
    report.set_median("storage.append_nosync_us", &mut unsynced);
    Ok(())
}

/// `Store::materialize_view` and `Store::maintain_views` on the
/// update-subscribe data, one single-clause delta at a time.
fn ivm_micro(seed: u64, report: &mut Report) -> Result<(), String> {
    const DELTAS: usize = 200;
    let data = UpdData::new(seed);
    let mut store = store_from_text(&data.db_text())?;
    let t = Instant::now();
    for (view, program) in data.view_programs() {
        store
            .materialize_view(view, &program, &unlimited())
            .map_err(|e| e.to_string())?;
    }
    report.set("ivm.materialize_ms", us(t) / 1e3);

    let mut updates = UpdateStream::new(&data, seed);
    let (mut inserts, mut deletes, mut steps, mut changed) = (vec![], vec![], vec![], vec![]);
    while inserts.len() + deletes.len() < DELTAS {
        let clauses = updates.next_clauses();
        let single = clauses.len() == 1;
        for text in clauses {
            let clause = parse_clause(&text, store.universe_mut()).map_err(|e| e.to_string())?;
            let mut delta = BaseDelta::new();
            let timings = match &clause {
                Clause::Fact(name, row) => {
                    delta.insert(name, row.clone());
                    &mut inserts
                }
                Clause::Retract(name, row) => {
                    delta.delete(name, row.clone());
                    &mut deletes
                }
                Clause::Schema(_) => return Err("unexpected schema clause".to_string()),
            };
            let gov = unlimited();
            let t = Instant::now();
            let view_deltas = store
                .maintain_views(&delta, &gov)
                .map_err(|e| e.to_string())?;
            if single {
                // batches are applied clause by clause to keep the store
                // in step, but only single-clause updates are timed
                timings.push(us(t));
                steps.push(gov.steps_spent() as f64);
                changed.push(view_deltas.values().map(|d| d.len()).sum::<usize>() as f64);
            }
            store.apply_clause(clause)?;
        }
    }
    report.set_median("ivm.maintain_us.insert", &mut inserts);
    report.set_median("ivm.maintain_us.delete", &mut deletes);
    report.set("ivm.steps_per_delta", mean(&steps));
    report.set("ivm.rows_changed_per_delta", mean(&changed));
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

pub fn trace_run(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(env, &format!("trace-{}", w.name()))?;
    let replay = replay(w, seed, &scratch)?;
    replay.report(report);
    if let Err(e) = replay.tracer.check_nesting() {
        report.problem(e);
    }
    for p in &replay.problems {
        report.problem(p.clone());
    }
    replay
        .tracer
        .dump(w, &env.out_dir.join(format!("trace-{}.json", w.name())))?;
    report.count("replayed_in_process", replay_ops(w).1 as u64);

    // the wire passes: one client, then two, a quarter of the run length
    // each, one set-up; the second ends with three kill/restart probes
    let pass = |clients, recovery_reps| {
        wire_pass(
            env,
            w,
            seed,
            Shape {
                seconds: seconds / 4.0,
                clients,
                setup_reps: 1,
                recovery_reps,
            },
        )
    };
    let mut one = pass(1, 0)?;
    let mut two = pass(2, 3)?;
    let rps = |o: &crate::run::Outcome| o.latencies(|_, _| true).len() as f64 / o.seconds;
    report.set(
        "server.two_client_speedup",
        rps(&two) / rps(&one).max(f64::MIN_POSITIVE),
    );
    let in_process = median(&mut replay.in_process_us.clone());
    report.set(
        "server.wire_overhead_us",
        median(&mut one.latencies(|_, _| true)) * 1e3 - in_process,
    );
    report.set_percentile(
        "server.latency_p99_ms",
        &mut two.latencies(|_, _| true),
        0.99,
    );
    for (metric, stat) in [
        ("server.hist_p50_us", "p50_us"),
        ("server.hist_p99_us", "p99_us"),
        ("server.cache_hits", "cache_hits"),
        ("server.cache_misses", "cache_misses"),
        ("server.rejected", "rejected"),
        ("server.trips", "trips"),
    ] {
        report.set(metric, two.stats.stat(stat) as f64);
    }

    let mut restarts: Vec<f64> = two.recovery_s.iter().map(|s| s * 1e3).collect();
    report.set_median("wire.recovery_ms", &mut restarts);

    match w {
        Workload::Fixpoint => theorem_shapes(report)?,
        Workload::UpdateSubscribe => {
            let mut acks = two.latencies(|_, class| class == Class::Update);
            report.set_percentile("wire.update_ack_p50_ms", &mut acks.clone(), 0.50);
            report.set_percentile("wire.update_ack_p95_ms", &mut acks, 0.95);
            report.set_percentile("wire.push_lag_p50_ms", &mut two.push_lag_ms.clone(), 0.50);
            report.set_percentile("wire.push_lag_p95_ms", &mut two.push_lag_ms.clone(), 0.95);
            report.set_percentile(
                "wire.read_p50_ms",
                &mut two.latencies(|conn, _| conn == 1),
                0.50,
            );
            report.set(
                "wire.checkpoint_stall_ms",
                two.logs[0].checkpoint_ms.unwrap_or(0.0),
            );
            storage_micro(seed, &scratch, report)?;
            ivm_micro(seed, report)?;
        }
        _ => {}
    }
    report.absorb(&mut one);
    report.absorb(&mut two);
    Ok(())
}
