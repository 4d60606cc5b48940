//! The wire-level pass: a child server, closed-loop client threads (callers
//! wait for replies), a time-bounded measured window, then the correctness
//! checks and the kill/restart recovery probes.
//!
//! Nothing but the client loops runs inside the window: replies that the
//! oracle samples are kept as raw lines and parsed afterwards.

use crate::gen::{
    op_line, q, view_line, Class, Data, Expect, Query, ReaderStream, Stream, UpdData, UpdateStream,
    Workload, STATS_LINE, VIEW_HOP2, VIEW_REACH,
};
use crate::oracle::{closure, hop2_rows, pairs, same, Oracle, Relations};
use crate::server::{Env, Scratch, Server};
use crate::wire::{clip, is_ok, is_push, Conn, Reply};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads = connections. Fixed regardless of the host, so numbers
/// compare across hosts.
pub const CLIENTS: usize = 2;

/// Requests each client sends before the window opens (caches fill, lazy
/// set-up finishes); part of `setup_s`, not timed per request.
fn warmup_ops(w: Workload) -> usize {
    match w {
        Workload::PointRead => 100,
        Workload::JoinScan => 14,
        Workload::Fixpoint => 10,
        Workload::UpdateSubscribe => 60,
    }
}

/// One reply in this many is kept for the oracle (`fixpoint` keeps all).
fn sample_every(w: Workload) -> usize {
    match w {
        Workload::Fixpoint => 1,
        _ => 50,
    }
}

/// How a pass is sized; `run` and `trace` differ only in this.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub seconds: f64,
    pub clients: usize,
    /// Set-ups performed (all but the last are torn down again); the
    /// reported `setup_s` is their median.
    pub setup_reps: usize,
    /// Kill/restart probes after the window.
    pub recovery_reps: usize,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// `(class, seconds since the window opened at completion, latency ms)`.
    pub lat: Vec<(Class, f64, f64)>,
    pub failed: u64,
    /// Raw replies kept for the oracle.
    pub kept: Vec<(Expect, String)>,
    /// Push lines with their receipt time (subscriber only).
    pub pushes: Vec<(Instant, String)>,
    /// `(send time, views changed)` per acknowledged update (writer only).
    pub updates: Vec<(Instant, usize)>,
    /// Latency of the mid-window `save`, ms.
    pub checkpoint_ms: Option<f64>,
}

/// Everything a pass measured.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub seconds: f64,
    pub logs: Vec<ClientLog>,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub stats: Reply,
    pub recovery_s: Vec<f64>,
    /// Update → push-receipt lag, ms (update-subscribe).
    pub push_lag_ms: Vec<f64>,
    pub checked: usize,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Latencies (ms) of in-window requests on the connections and of the
    /// classes selected.
    pub fn latencies(&self, keep: impl Fn(usize, Class) -> bool) -> Vec<f64> {
        self.logs
            .iter()
            .enumerate()
            .flat_map(|(i, log)| log.lat.iter().map(move |s| (i, s)))
            .filter(|(i, (class, done, _))| *done <= self.seconds && keep(*i, *class))
            .map(|(_, (_, _, ms))| *ms)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.lat.len() as u64 + l.failed)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }
}

// ---------------------------------------------------------------------------
// The client loop
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    Deadline(Instant),
    /// Until another client raises the flag (the subscriber stops when the
    /// writer does).
    Flag,
}

struct Drive<'a> {
    until: Until,
    /// Window start: completion offsets are relative to it.
    epoch: Instant,
    sample_every: usize,
    /// This connection holds subscriptions: tell pushes from replies.
    subscribed: bool,
    stop: &'a AtomicBool,
    /// Send one `save` once this instant has passed (the writer's
    /// mid-window checkpoint).
    save_at: Option<Instant>,
}

fn drive(
    conn: &mut Conn,
    stream: &mut dyn Stream,
    d: Drive<'_>,
    log: &mut ClientLog,
) -> Result<(), String> {
    let mut buf = String::new();
    let mut save_at = d.save_at;
    let mut sent = 0usize;
    loop {
        let now = Instant::now();
        match d.until {
            Until::Count(n) if sent >= n => return Ok(()),
            Until::Deadline(t) if now >= t => return Ok(()),
            Until::Flag if d.stop.load(Ordering::SeqCst) => return Ok(()),
            _ => {}
        }
        if save_at.is_some_and(|t| now >= t) {
            save_at = None;
            let t = Instant::now();
            conn.call_ok(&op_line("save", ""))?;
            log.checkpoint_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        }
        let op = stream.next_op();
        sent += 1;
        let start = Instant::now();
        conn.send(&op.line)
            .map_err(|e| format!("send failed: {e}"))?;
        loop {
            conn.recv(&mut buf)
                .map_err(|e| format!("no reply ({e}) to {}", clip(&op.line)))?;
            if d.subscribed && is_push(&buf) {
                log.pushes.push((Instant::now(), std::mem::take(&mut buf)));
            } else {
                break;
            }
        }
        let done = Instant::now();
        if !is_ok(&buf) {
            log.failed += 1;
            log.kept.push((op.expect, std::mem::take(&mut buf)));
            continue;
        }
        log.lat.push((
            op.class,
            done.saturating_duration_since(d.epoch).as_secs_f64(),
            (done - start).as_secs_f64() * 1e3,
        ));
        if op.class == Class::Update {
            log.updates.push((start, buf.matches("\"view\":").count()));
        }
        if sent.is_multiple_of(d.sample_every) {
            log.kept.push((op.expect, std::mem::take(&mut buf)));
        }
    }
}

/// Run `streams` against `conns` on one thread each until `until`.
fn drive_all(
    conns: &mut [Conn],
    streams: &mut [Box<dyn Stream>],
    logs: &mut [ClientLog],
    epoch: Instant,
    until: Until,
    sample_every: usize,
) -> Result<(), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(logs.iter_mut())
            .map(|((conn, stream), log)| {
                let d = Drive {
                    until,
                    epoch,
                    sample_every,
                    subscribed: false,
                    stop: &stop,
                    save_at: None,
                };
                s.spawn(move || drive(conn, stream.as_mut(), d, log))
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "a client thread panicked".to_string())?
        })
    })
}

// ---------------------------------------------------------------------------
// Set-up helpers shared by all workloads
// ---------------------------------------------------------------------------

/// Every template once with `planned` true and false on a mini-relation:
/// the two evaluation paths must agree before anything is measured.
fn check_templates(conn: &mut Conn, mini: &[Query]) -> Result<(), String> {
    for query in mini {
        let planned = conn.call_ok(&query.line(true))?.relations()?;
        let walked = conn.call_ok(&query.line(false))?.relations()?;
        same(&walked, &planned)
            .map_err(|e| format!("planned and unplanned disagree on {:?}: {e}", query.text))?;
    }
    Ok(())
}

fn connect(server: &Server, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::connect(server.addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// Kill the server and time `restart → first eval reply`, `reps` times on
/// the same database; `verify` runs against the first restarted server.
fn recovery_probes(
    env: &Env,
    server: Server,
    db: &Path,
    probe: &str,
    reps: usize,
    mut verify: impl FnMut(&mut Conn) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut server = Some(server);
    let mut times = Vec::new();
    for rep in 0..reps {
        if let Some(s) = server.take() {
            s.kill();
        }
        let t = Instant::now();
        let s = Server::spawn(env, Some(db))?;
        let mut conn = Conn::connect(s.addr).map_err(|e| format!("connect: {e}"))?;
        conn.call_ok(probe)?;
        times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            verify(&mut conn)?;
        }
        server = Some(s);
    }
    Ok(times)
}

fn server_counters(server: &Server, o: &mut Outcome) -> Result<(), String> {
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    o.stats = conn.call_ok(STATS_LINE)?;
    for counter in ["rejected", "trips"] {
        if o.stats.stat(counter) != 0 {
            // admission or a budget bound: the numbers measure the limiter
            o.problems
                .push(format!("server {counter} = {}", o.stats.stat(counter)));
        }
    }
    Ok(())
}

fn check_kept(oracle: &mut Oracle, o: &mut Outcome) {
    for log in &mut o.logs {
        for (expect, line) in log.kept.drain(..) {
            o.checked += 1;
            let verdict = Reply::parse(&line).and_then(|r| oracle.check(&expect, &r));
            if let Err(e) = verdict {
                o.problems.push(format!("{expect:?}: {e}"));
            }
        }
    }
}

/// Open the measured window: run `window(start, deadline)` and charge the
/// server's CPU time across it. Nothing else runs meanwhile.
fn measured(
    server: &Server,
    o: &mut Outcome,
    window: impl FnOnce(Instant, Instant) -> Result<(), String>,
) -> Result<(), String> {
    let cpu0 = server.cpu_ms()?;
    let start = Instant::now();
    window(start, start + Duration::from_secs_f64(o.seconds))?;
    o.cpu_ms = server.cpu_ms()? - cpu0;
    o.peak_rss_mb = server.peak_rss_mb()?;
    Ok(())
}

fn empty_outcome(seconds: f64) -> Outcome {
    Outcome {
        setup_s: Vec::new(),
        seconds,
        logs: Vec::new(),
        cpu_ms: 0.0,
        peak_rss_mb: 0.0,
        stats: Reply::parse("{}").expect("an empty object parses"),
        recovery_s: Vec::new(),
        push_lag_ms: Vec::new(),
        checked: 0,
        problems: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// The read-only workloads
// ---------------------------------------------------------------------------

fn read_pass(
    env: &Env,
    scratch: &Scratch,
    w: Workload,
    seed: u64,
    shape: Shape,
) -> Result<Outcome, String> {
    let data = Data::new(w, seed);
    let mini = data.mini_queries();
    let db = scratch.path().join("db.no");
    std::fs::write(&db, data.db_text()).map_err(|e| format!("{}: {e}", db.display()))?;
    let mut o = empty_outcome(shape.seconds);
    let epoch = Instant::now();

    // set-up: spawn → loaded → templates agree → warm; repeated so the
    // reported time is a median, the last one is kept and measured
    let mut kept = None;
    for rep in 0..shape.setup_reps {
        let t = Instant::now();
        let server = Server::spawn(env, Some(&db))?;
        let mut conns = connect(&server, shape.clients)?;
        check_templates(&mut conns[0], &mini)?;
        let mut streams = data.streams(w, seed, shape.clients);
        let mut logs: Vec<ClientLog> = (0..shape.clients).map(|_| ClientLog::default()).collect();
        drive_all(
            &mut conns,
            &mut streams,
            &mut logs,
            epoch,
            Until::Count(warmup_ops(w)),
            usize::MAX,
        )?;
        if let Some(failed) = logs.iter().find(|l| l.failed > 0) {
            return Err(format!(
                "warm-up request failed: {}",
                clip(&failed.kept[0].1)
            ));
        }
        o.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == shape.setup_reps {
            kept = Some((server, conns, streams));
        }
    }
    let (server, mut conns, mut streams) = kept.ok_or("no set-up was asked for")?;

    // the measured window
    let mut logs: Vec<ClientLog> = (0..shape.clients).map(|_| ClientLog::default()).collect();
    measured(&server, &mut o, |start, deadline| {
        drive_all(
            &mut conns,
            &mut streams,
            &mut logs,
            start,
            Until::Deadline(deadline),
            sample_every(w),
        )
    })?;
    o.logs = logs;
    drop(conns);

    server_counters(&server, &mut o)?;
    let probe = data.probe().line(true);
    check_kept(&mut Oracle::new(data), &mut o);
    o.recovery_s = recovery_probes(env, server, &db, &probe, shape.recovery_reps, |_| Ok(()))?;
    Ok(o)
}

// ---------------------------------------------------------------------------
// update-subscribe
// ---------------------------------------------------------------------------

/// Updates applied after the final checkpoint and before the kill, so
/// every recovery replays the same length of log.
const RECOVERY_TAIL: usize = 300;

struct UpdSetup {
    server: Server,
    writer: Conn,
    subscriber: Conn,
    /// A one-client pass: the writer alone, nobody subscribed.
    solo: bool,
    /// The views as first materialized: the subscriber's starting copy.
    views: Vec<(&'static str, Relations)>,
}

/// spawn → `op: open` on a fresh directory (default `SyncPolicy::Always`)
/// → schema and base facts through the log → both views materialized →
/// templates agree → subscriber subscribed.
fn upd_setup(env: &Env, dir: &Path, data: &UpdData, solo: bool) -> Result<UpdSetup, String> {
    let server = Server::spawn(env, None)?;
    let mut writer = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut subscriber = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    writer.call_ok(&op_line("open", &dir.display().to_string()))?;
    for line in data.schema_lines().iter().chain(&data.load_lines()) {
        writer.call_ok(line)?;
    }
    let mut views = Vec::new();
    for (view, program) in data.view_programs() {
        let reply = writer.call_ok(&view_line("materialize", view, &program))?;
        views.push((view, reply.relations()?));
        if !solo {
            subscriber.call_ok(&view_line("subscribe", view, ""))?;
        }
    }
    check_templates(&mut writer, &data.mini_queries())?;
    Ok(UpdSetup {
        server,
        writer,
        subscriber,
        solo,
        views,
    })
}

/// Writer and subscriber side by side until `until` (the writer's bound;
/// the subscriber reads until the writer is done).
#[allow(clippy::too_many_arguments)]
fn upd_drive(
    writer: &mut Conn,
    subscriber: &mut Conn,
    solo: bool,
    updates: &mut UpdateStream,
    reads: &mut ReaderStream,
    logs: &mut [ClientLog],
    epoch: Instant,
    until: Until,
    save_at: Option<Instant>,
    sample_every: usize,
) -> Result<(), String> {
    let stop = AtomicBool::new(false);
    let (writer_log, subscriber_log) = logs.split_at_mut(1);
    let stop = &stop;
    let writer_drive = Drive {
        until,
        epoch,
        sample_every: usize::MAX,
        subscribed: false,
        stop,
        save_at,
    };
    if solo {
        return drive(writer, updates, writer_drive, &mut writer_log[0]);
    }
    std::thread::scope(|scope| {
        let b = scope.spawn(move || {
            let d = Drive {
                until: Until::Flag,
                epoch,
                sample_every,
                subscribed: true,
                stop,
                save_at: None,
            };
            drive(subscriber, reads, d, &mut subscriber_log[0])
        });
        let a = drive(writer, updates, writer_drive, &mut writer_log[0]);
        stop.store(true, Ordering::SeqCst);
        let b = b
            .join()
            .map_err(|_| "the subscriber thread panicked".to_string())?;
        a.and(b)
    })
}

/// Read push lines until the subscriber holds one per (update, changed
/// view) the writer was told about. The server fans out before it
/// acknowledges, so they are already on the wire.
fn drain_pushes(s: &mut UpdSetup, logs: &mut [ClientLog]) -> Result<(), String> {
    let expected: usize = if s.solo {
        0
    } else {
        logs[0].updates.iter().map(|(_, views)| views).sum()
    };
    s.subscriber
        .set_read_timeout(Duration::from_secs(5))
        .map_err(|e| e.to_string())?;
    let mut buf = String::new();
    while logs[1].pushes.len() < expected {
        s.subscriber.recv(&mut buf).map_err(|e| {
            format!(
                "{} of {expected} push lines arrived, then: {e}",
                logs[1].pushes.len()
            )
        })?;
        if !is_push(&buf) {
            return Err(format!("expected a push line, got {}", clip(&buf)));
        }
        logs[1]
            .pushes
            .push((Instant::now(), std::mem::take(&mut buf)));
    }
    Ok(())
}

fn upd_pass(env: &Env, scratch: &Scratch, seed: u64, shape: Shape) -> Result<Outcome, String> {
    let w = Workload::UpdateSubscribe;
    let data = Arc::new(UpdData::new(seed));
    let mut o = empty_outcome(shape.seconds);
    let epoch = Instant::now();

    let mut kept = None;
    for rep in 0..shape.setup_reps {
        let t = Instant::now();
        let dir = scratch.subdir(&format!("db{rep}"))?;
        let mut s = upd_setup(env, &dir, &data, shape.clients == 1)?;
        let mut updates = UpdateStream::new(&data, seed);
        let mut reads = ReaderStream::new(Arc::clone(&data), seed);
        let mut logs = vec![ClientLog::default(), ClientLog::default()];
        upd_drive(
            &mut s.writer,
            &mut s.subscriber,
            s.solo,
            &mut updates,
            &mut reads,
            &mut logs,
            epoch,
            Until::Count(warmup_ops(w)),
            None,
            usize::MAX,
        )?;
        if logs.iter().any(|l| l.failed > 0) {
            return Err("a warm-up request failed".to_string());
        }
        o.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == shape.setup_reps {
            kept = Some((s, updates, reads, logs, dir));
        }
    }
    let (mut s, mut updates, mut reads, mut logs, dir) = kept.ok_or("no set-up was asked for")?;
    // pushes and acknowledged updates carry over (the subscriber's copy of
    // the views needs them all); latencies start afresh
    for log in &mut logs {
        log.lat.clear();
    }

    let UpdSetup {
        server,
        writer,
        subscriber,
        solo,
        ..
    } = &mut s;
    let mut window_start = epoch;
    measured(server, &mut o, |start, deadline| {
        window_start = start;
        upd_drive(
            writer,
            subscriber,
            *solo,
            &mut updates,
            &mut reads,
            &mut logs,
            start,
            Until::Deadline(deadline),
            // one checkpoint at the midpoint: its stall lands inside the window
            Some(start + (deadline - start) / 2),
            sample_every(w),
        )
    })?;
    drain_pushes(&mut s, &mut logs)?;

    o.push_lag_ms = push_lags(&logs, window_start);
    check_views(&mut s, &data, &updates, &logs, &mut o)?;
    o.logs = logs;
    check_kept(&mut Oracle::new(Data::Upd(Arc::clone(&data))), &mut o);
    server_counters(&s.server, &mut o)?;

    if shape.recovery_reps > 0 {
        // a fixed length of log after a checkpoint, then SIGKILL
        let UpdSetup {
            server,
            mut writer,
            subscriber,
            ..
        } = s;
        drop(subscriber);
        writer.call_ok(&op_line("save", ""))?;
        for _ in 0..RECOVERY_TAIL {
            writer.call_ok(&updates.next_op().line)?;
        }
        drop(writer);
        let want = Relations::from([(
            "result".to_string(),
            pairs(&updates.graph, updates.graph.edges()),
        )]);
        let probe = Data::Upd(Arc::clone(&data)).probe().line(true);
        let scan = q::scan(data.e.rel).line(true);
        o.recovery_s = recovery_probes(env, server, &dir, &probe, shape.recovery_reps, |conn| {
            // every acknowledged update must have survived the kill
            same(&want, &conn.call_ok(&scan)?.relations()?)
                .map_err(|e| format!("after kill and restart, E differs: {e}"))
        })?;
    }
    Ok(o)
}

/// Lag from the writer's send of an update to the subscriber's receipt of
/// its (first) delta line, for updates sent inside the window. Pushes
/// arrive in update order, one per changed view.
fn push_lags(logs: &[ClientLog], window_start: Instant) -> Vec<f64> {
    let mut pushes = logs[1].pushes.iter();
    let mut lags = Vec::new();
    for &(sent, views) in &logs[0].updates {
        let first = pushes.by_ref().take(views).next();
        pushes.by_ref().take(views.saturating_sub(1)).for_each(drop);
        if let (Some((received, _)), true) = (first, sent >= window_start) {
            lags.push(received.saturating_duration_since(sent).as_secs_f64() * 1e3);
        }
    }
    lags
}

/// The subscriber's copy — the rows first materialized plus every pushed
/// delta — must equal a fresh evaluation of each view's program on the
/// final store, and both must equal what the generator's model implies.
fn check_views(
    s: &mut UpdSetup,
    data: &UpdData,
    updates: &UpdateStream,
    logs: &[ClientLog],
    o: &mut Outcome,
) -> Result<(), String> {
    for (_, line) in &logs[1].pushes {
        for (view, added, removed) in Reply::parse(line)?.deltas()? {
            let Some((_, copy)) = s.views.iter_mut().find(|(name, _)| *name == view) else {
                o.problems.push(format!("push for unknown view {view:?}"));
                continue;
            };
            for (rel, rows) in removed {
                let held = copy.entry(rel).or_default();
                for row in rows {
                    if !held.remove(&row) {
                        o.problems
                            .push(format!("{view}: push removed absent row {row:?}"));
                    }
                }
            }
            for (rel, rows) in added {
                let held = copy.entry(rel).or_default();
                for row in rows {
                    if !held.insert(row.clone()) {
                        o.problems
                            .push(format!("{view}: push added present row {row:?}"));
                    }
                }
            }
        }
    }
    let model = [
        (VIEW_REACH, closure(&updates.graph)),
        (VIEW_HOP2, hop2_rows(&updates.graph)),
    ];
    for (((view, program), (_, copy)), (_, rows)) in
        data.view_programs().iter().zip(&s.views).zip(model)
    {
        let query = Query {
            lang: "datalog",
            strategy: "semi-naive",
            text: program.clone(),
        };
        let fresh = s.writer.call_ok(&query.line(true))?.relations()?;
        o.checked += 2;
        if let (false, Err(e)) = (s.solo, same(&fresh, copy)) {
            o.problems.push(format!(
                "{view}: materialized + pushed deltas ≠ fresh eval: {e}"
            ));
        }
        if let Err(e) = same(&Relations::from([(view.to_string(), rows)]), &fresh) {
            o.problems.push(format!("{view}: fresh eval ≠ model: {e}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// One wire-level pass of `w`. A fresh scratch directory holds the
/// database; it is removed when the pass ends, however it ends.
pub fn wire_pass(env: &Env, w: Workload, seed: u64, shape: Shape) -> Result<Outcome, String> {
    let scratch = Scratch::new(env, w.name())?;
    match w {
        Workload::UpdateSubscribe => upd_pass(env, &scratch, seed, shape),
        _ => read_pass(env, &scratch, w, seed, shape),
    }
}
