//! The [`Session`] facade: one handle over every evaluation engine, and
//! the single dispatch point behind the wire protocol.
//!
//! A session bundles a [`Governor`] (budgets, cancellation), a plan
//! cache, and a shared [`Store`]
//! (universe + instance + optional durable [`Db`]). Every caller surface —
//! the shell, the `nestdb` CLI subcommands, the TCP server, embeddings —
//! reduces its work to one serializable [`Request`] and calls
//! [`Session::run`]:
//!
//! ```
//! use nestdb::Session;
//! use no_proto::{Lang, Request};
//!
//! let session = Session::builder().build();
//! let r = session.run(&Request {
//!     op: no_proto::Op::Insert,
//!     text: "schema G(U, U).".into(),
//!     ..Request::default()
//! });
//! assert!(r.ok);
//! session.run(&Request {
//!     op: no_proto::Op::Insert,
//!     text: "G('a', 'b').".into(),
//!     ..Request::default()
//! });
//! let r = session.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
//! assert_eq!(r.relations[0].rows, vec!["('a', 'b')".to_string()]);
//! ```
//!
//! Requests without a [`Request::limits`] override draw from the *same*
//! session governor allowance — the cross-engine analogue of the rule that
//! all strata of a stratified program share one budget. A request carrying
//! an override runs under a fresh per-request allowance (what the shell
//! does per evaluation and the server does per tenant).
//!
//! `run` is the one way in. Every `eval` parses, compiles to a
//! [`Planned`], executes it and renders the output; `planned` only picks
//! the plan. `planned: true`, the default, runs the served plan from the
//! cache; `planned: false` runs the tree-walk oracle
//! ([`Planner::oracle`]), compiled per request and never cached. The
//! engines themselves are bound in one place, `Physical::execute`.

use crate::error::Error;
use crate::reply;
use no_algebra::Expr;
use no_core::Query;
use no_datalog::Program;
use no_ivm::{decode_registry, encode_registry, BaseDelta, IvmError, ViewDelta, ViewRegistry};
use no_object::text::{import_clauses, parse_clause, render_database, Clause};
use no_object::{Governor, Instance, Limits, Schema, Universe};
use no_plan::{CacheKey, CalcMode, DatalogMode, Output, PlanCache, Planned, Planner};
use no_proto::{
    AnalysisOut, DeltaOut, ExplainOut, Lang, LimitsSpec, Mode, Op, Request, Response, Spend,
    StatsOut, ViewStatsOut,
};
use no_storage::{Db, DbOptions, ImportStats, SyncPolicy};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How many plans a session keeps in its LRU plan cache.
pub const PLAN_CACHE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// The mutable database state behind a session: an interning [`Universe`],
/// an in-memory [`Instance`], and — once attached — a durable [`Db`] that
/// takes over both. Shared behind `Arc<RwLock<_>>` with this protocol:
///
/// * `eval`, `explain` and `analyze` take the lock **shared**, once, from
///   parse through render, so independent reads overlap on independent
///   cores. Parsing needs `&mut Universe` to intern quoted atoms; a read
///   parses against an O(1) private clone instead and keeps the shared
///   lock when the text named only atoms the universe already holds.
///   `stats`, `subscribe` and a text-file `save` only ever read.
/// * `insert`, `update`, `materialize` and a checkpoint `save` take it
///   **exclusive** for the whole request and wait for in-flight reads;
///   `open` recovers first and takes it only to swap the database in.
/// * A read whose text names an atom never seen before drops the shared
///   lock, takes the exclusive one just long enough to intern the new
///   names, and starts over shared; [`StatsOut::store_exclusive_reads`]
///   counts these.
#[derive(Debug)]
pub struct Store {
    universe: Universe,
    instance: Instance,
    db: Option<Db>,
    views: ViewRegistry,
    /// Reads that took the exclusive lock to intern new atom names.
    exclusive_reads: u64,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// An empty in-memory store.
    pub fn new() -> Store {
        Store::with_data(Universe::new(), Instance::empty(Schema::new()))
    }

    /// A store over already-built data.
    pub fn with_data(universe: Universe, instance: Instance) -> Store {
        Store {
            universe,
            instance,
            db: None,
            views: ViewRegistry::new(),
            exclusive_reads: 0,
        }
    }

    /// The live universe: the durable store's when one is attached.
    pub fn universe(&self) -> &Universe {
        match &self.db {
            Some(db) => db.universe(),
            None => &self.universe,
        }
    }

    /// Mutable universe access (parsing interns atoms). Sound against a
    /// durable store: the universe is append-only and replay re-interns
    /// atom names from the logged clauses themselves.
    pub fn universe_mut(&mut self) -> &mut Universe {
        match &mut self.db {
            Some(db) => db.universe_mut(),
            None => &mut self.universe,
        }
    }

    /// The live instance: the durable store's when one is attached.
    pub fn instance(&self) -> &Instance {
        match &self.db {
            Some(db) => db.instance(),
            None => &self.instance,
        }
    }

    /// The attached durable database, if any.
    pub fn db(&self) -> Option<&Db> {
        self.db.as_ref()
    }

    /// Mutable access to the attached durable database.
    pub fn db_mut(&mut self) -> Option<&mut Db> {
        self.db.as_mut()
    }

    /// The materialized views maintained over this store.
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// Mutable access to the view registry (e.g. to drop a view or
    /// install a restored registry).
    pub fn views_mut(&mut self) -> &mut ViewRegistry {
        &mut self.views
    }

    /// Define (or replace) the materialized view `name` from Datalog¬
    /// source and evaluate it against the live instance.
    pub fn materialize_view(
        &mut self,
        name: &str,
        source: &str,
        gov: &Governor,
    ) -> Result<(), IvmError> {
        let program = no_datalog::parse_program(source, self.universe_mut())
            .map_err(|e| IvmError::Parse(e.to_string()))?;
        // the registry is taken out so its mutation can overlap the
        // instance borrow (both live behind `self`)
        let mut views = std::mem::take(&mut self.views);
        let result = views
            .materialize_program(name, source.to_string(), program, self.instance(), gov)
            .map(|_| ());
        self.views = views;
        result
    }

    /// Incrementally maintain every view under `delta`, which describes
    /// mutations **not yet applied** to the live instance. Transactional:
    /// an error leaves every view consistent with the pre-delta state.
    pub fn maintain_views(
        &mut self,
        delta: &BaseDelta,
        gov: &Governor,
    ) -> Result<BTreeMap<String, ViewDelta>, IvmError> {
        let mut views = std::mem::take(&mut self.views);
        let result = views.maintain(self.instance(), delta, gov);
        self.views = views;
        result
    }

    /// Re-materialize every view from scratch against the live instance
    /// (the recovery fallback when incremental state is unusable).
    pub fn recompute_views(&mut self, gov: &Governor) -> Result<(), IvmError> {
        let mut views = std::mem::take(&mut self.views);
        let result = views.recompute_all(self.instance(), gov);
        self.views = views;
        result
    }

    /// Persist the view registry into the attached durable database's
    /// views checkpoint (no-op without one).
    pub fn save_views_checkpoint(&mut self) -> Result<(), no_storage::StorageError> {
        if let Some(db) = &mut self.db {
            let body = encode_registry(&self.views, db.universe());
            db.save_views(&body)?;
        }
        Ok(())
    }

    /// Attach a durable database; it owns the live state from here on.
    pub fn attach(&mut self, db: Db) {
        self.db = Some(db);
    }

    /// Detach the durable database (files stay on disk) and return it
    /// with the views maintained over it. The views leave with the
    /// database: their rows hold its atom ids, which name other atoms in
    /// the in-memory store that is live afterwards. The directory's view
    /// checkpoint and log still hold them, and `op: open` restores them.
    pub fn detach(&mut self) -> Option<(Db, ViewRegistry)> {
        let db = self.db.take()?;
        Some((db, std::mem::take(&mut self.views)))
    }

    /// Apply one parsed clause — a `schema R(U).` declaration, a fact or
    /// a `delete` — after [`Instance::check`] accepts it. A durable store
    /// logs it first ([`Db`] checks again), an in-memory one applies it.
    /// Returns the one-line outcome message; errors are message strings
    /// too (they never poison the store). Views are the caller's: the
    /// session's batch writer maintains them around this call.
    pub fn apply_clause(&mut self, clause: Clause) -> Result<String, String> {
        let changes = self.instance().check(&clause)?;
        let mut message = match (&clause, changes) {
            (Clause::Schema(rel), _) => format!("declared {}", rel.name),
            (Clause::Fact(name, _), true) => format!("inserted into {name}"),
            (Clause::Fact(name, _), false) => format!("already in {name}"),
            (Clause::Retract(name, _), true) => format!("deleted from {name}"),
            (Clause::Retract(name, _), false) => format!("not in {name}"),
        };
        let Some(db) = &mut self.db else {
            self.instance.apply(clause);
            return Ok(message);
        };
        match clause {
            Clause::Schema(rel) => db.declare(rel),
            Clause::Fact(name, row) => db.insert(&name, row).map(drop),
            Clause::Retract(name, row) => db.delete(&name, &row).map(drop),
        }
        .map_err(|e| e.to_string())?;
        message.push_str(if changes {
            " (logged)"
        } else {
            " (nothing logged)"
        });
        Ok(message)
    }

    /// Import a text database: declare the relations it adds and insert
    /// the facts it adds, through [`Instance::check`] and the live
    /// backend's writer — a durable store logs each clause and fsyncs once
    /// ([`Db::import_text`]). Every view then catches up with the imported
    /// facts as its delta, also when the import failed partway.
    pub fn import(&mut self, src: &str, gov: &Governor) -> Result<ImportStats, String> {
        let (result, landed) = match &mut self.db {
            Some(db) => {
                let from = db.epoch_clauses().len();
                let result = db.import_text(src).map(drop).map_err(|e| e.to_string());
                (result, db.epoch_clauses().skip(from).cloned().collect())
            }
            None => {
                let mut landed = Vec::new();
                let result = import_clauses(src, &mut self.universe, self.instance.schema())
                    .map_err(|e| format!("cannot parse database text: {e}"))
                    .and_then(|clauses| {
                        for clause in clauses {
                            if self.instance.check(&clause)? {
                                landed.push(clause.clone());
                                self.instance.apply(clause);
                            }
                        }
                        Ok(())
                    });
                (result, landed)
            }
        };
        if !landed.is_empty() {
            let mut views = std::mem::take(&mut self.views);
            let caught_up = catch_up(&mut views, self.instance(), &landed, gov);
            self.views = views;
            if caught_up.is_err() {
                let _ = self.recompute_views(gov);
            }
        }
        result?;
        let declared = landed
            .iter()
            .filter(|c| matches!(c, Clause::Schema(_)))
            .count() as u64;
        Ok(ImportStats {
            relations_added: declared,
            tuples_added: landed.len() as u64 - declared,
        })
    }
}

/// Bring `views` up to date with `clauses`, which are already applied to
/// `instance`. Maintenance reads the pre-change instance, so their net
/// change is un-applied on a copy first. Declarations carry no rows: a
/// relation declared among them was empty before, and no view reads it.
fn catch_up<'c>(
    views: &mut ViewRegistry,
    instance: &Instance,
    clauses: impl IntoIterator<Item = &'c Clause>,
    gov: &Governor,
) -> Result<(), IvmError> {
    if views.is_empty() {
        return Ok(());
    }
    let (mut delta, mut undo) = (BaseDelta::new(), BaseDelta::new());
    for clause in clauses {
        match clause {
            Clause::Fact(name, row) => {
                delta.insert(name, row.clone());
                undo.delete(name, row.clone());
            }
            Clause::Retract(name, row) => {
                delta.delete(name, row.clone());
                undo.insert(name, row.clone());
            }
            Clause::Schema(_) => {}
        }
    }
    let mut pre = instance.clone();
    undo.apply(&mut pre);
    views.maintain(&pre, &delta, gov).map(drop)
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and builds a [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    limits: Option<Limits>,
    governor: Option<Governor>,
    sync_policy: SyncPolicy,
    store: Option<Arc<RwLock<Store>>>,
    plans: Option<Arc<Mutex<PlanCache<Planned>>>>,
}

impl SessionBuilder {
    /// Budget limits for a session-owned governor. Ignored when an
    /// explicit [`SessionBuilder::governor`] is supplied.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Share an existing governor — e.g. to run session queries under the
    /// same allowance as surrounding work, or to cancel the session from
    /// another thread via [`Governor::cancel`].
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Ignores `threads`: a request runs on one thread. Kept only so the
    /// benchmark's trace replay builds; ROADMAP item 1(b)'s benchmark-only
    /// PR deletes it.
    #[doc(hidden)]
    pub fn parallelism(self, _threads: usize) -> Self {
        self
    }

    /// Durability policy for databases an `open` request attaches:
    /// [`SyncPolicy::Always`] (the default) fsyncs the write-ahead log on
    /// every mutation; [`SyncPolicy::Manual`] defers to a checkpoint
    /// (`save`) or an explicit [`Db::sync`].
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Share an existing [`Store`] — several sessions (server connections,
    /// a shell plus background work) then see one database.
    pub fn store(mut self, store: Arc<RwLock<Store>>) -> Self {
        self.store = Some(store);
        self
    }

    /// Share an existing plan cache across sessions. Keys carry a schema
    /// fingerprint, so one cache can safely serve many tenants: a plan is
    /// only reused when normalized query text *and* schema both match.
    pub fn plan_cache(mut self, plans: Arc<Mutex<PlanCache<Planned>>>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        let governor = self
            .governor
            .unwrap_or_else(|| Governor::new(self.limits.unwrap_or_else(Limits::unlimited)));
        Session {
            governor,
            plans: self
                .plans
                .unwrap_or_else(|| Arc::new(Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)))),
            sync_policy: self.sync_policy,
            store: self
                .store
                .unwrap_or_else(|| Arc::new(RwLock::new(Store::new()))),
        }
    }
}

/// A configured handle over all evaluation engines: one [`Governor`]
/// (shared budget, cancellation), one plan cache, and one shared [`Store`], applied uniformly to CALC,
/// Datalog¬ (inflationary and stratified), and the algebra.
/// [`Session::run`] is the protocol entry point.
#[derive(Debug, Clone)]
pub struct Session {
    governor: Governor,
    /// LRU cache of compiled plans, keyed on normalized query text plus a
    /// schema fingerprint. Shared by clones of this session, and across
    /// sessions when built with [`SessionBuilder::plan_cache`].
    plans: Arc<Mutex<PlanCache<Planned>>>,
    /// Durability policy applied to databases an `open` request attaches.
    sync_policy: SyncPolicy,
    /// The shared database state [`Session::run`] reads and mutates.
    store: Arc<RwLock<Store>>,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The governor every no-override evaluation in this session draws
    /// from.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The shared store handle.
    pub fn store(&self) -> Arc<RwLock<Store>> {
        Arc::clone(&self.store)
    }

    /// The shared plan-cache handle (for wiring several sessions to one
    /// cache; see [`SessionBuilder::plan_cache`]).
    pub fn plan_cache_handle(&self) -> Arc<Mutex<PlanCache<Planned>>> {
        Arc::clone(&self.plans)
    }

    /// This session with a different governor — same plan cache, store,
    /// and sync policy. Construction is a few `Arc` clones.
    pub fn with_governor(&self, governor: Governor) -> Session {
        Session {
            governor,
            plans: Arc::clone(&self.plans),
            sync_policy: self.sync_policy,
            store: Arc::clone(&self.store),
        }
    }

    fn read_store(&self) -> RwLockReadGuard<'_, Store> {
        // A panicking request must not take the whole service down with a
        // poisoned lock; the store's invariants are per-mutation.
        self.store
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, Store> {
        self.store
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parse a read request's text under the **shared** store lock and
    /// hand that lock back with the result, so the caller plans, executes
    /// and renders under one acquisition that excludes no other reader.
    ///
    /// The parsers intern quoted atoms through `&mut Universe`; here they
    /// run unchanged against an O(1) copy-on-write clone of the store's
    /// universe. If the clone did not grow, every atom the text names is
    /// already the store's and the parse stands. If it grew, the new names
    /// are charged to this request's governor, interned into the store's
    /// universe under the exclusive lock — in the order the clone assigned
    /// them, so ids match a parse made directly against the store — and
    /// the text is parsed again: the universe is append-only, so the
    /// second pass finds every name unless an `open` swapped the store in
    /// between. `parse` errors are returned only after that interning, as
    /// a failed parse interns the atoms it saw before failing.
    fn read_parsed<T>(
        &self,
        parse: impl Fn(&Store, &mut Universe) -> Result<T, Refusal>,
    ) -> Result<(RwLockReadGuard<'_, Store>, T), Refusal> {
        loop {
            let store = self.read_store();
            let mut universe = store.universe().clone();
            let known = universe.len();
            let parsed = parse(&store, &mut universe);
            if universe.len() == known {
                return parsed.map(|t| (store, t));
            }
            // std's RwLock deadlocks on read-then-write from one thread
            drop(store);
            let fresh = || universe.atoms().skip(known).map(|a| universe.name(a));
            let bytes = fresh().map(|name| name.len() as u64).sum();
            if let Err(e) = self.governor.charge_mem("session.intern", bytes) {
                return Err(Box::new(failure("resource", e.to_string(), true)));
            }
            let mut store = self.write_store();
            store.exclusive_reads += 1;
            let live = store.universe_mut();
            for name in fresh() {
                live.intern(name);
            }
        }
    }

    // ----- the protocol entry point -----------------------------------

    /// Execute one [`Request`] against the session's store and return its
    /// [`Response`]. Never panics on bad input and never returns `Err` —
    /// failures are structured [`no_proto::ErrorOut`] payloads. A request
    /// with [`Request::limits`] runs under a fresh governor built from the
    /// session limits overlaid with the override; otherwise it draws from
    /// the shared session allowance.
    pub fn run(&self, req: &Request) -> Response {
        let governor = match &req.limits {
            Some(spec) => Governor::new(overlay(self.governor.limits(), spec)),
            None => self.governor.clone(),
        };
        self.run_governed(req, governor)
    }

    /// A fresh per-request governor for `req`: the session limits
    /// overlaid with the request's [`Request::limits`] override, counters
    /// at zero. The server builds its governors through this so it can
    /// cancel them on client disconnect and charge their spend to the
    /// tenant; in-process callers can just use [`Session::run`].
    pub fn governor_for(&self, req: &Request) -> Governor {
        let limits = match &req.limits {
            Some(spec) => overlay(self.governor.limits(), spec),
            None => self.governor.limits().clone(),
        };
        Governor::new(limits)
    }

    /// [`Session::run`] under an explicit per-request governor — the
    /// server hook: it builds the governor itself so it can cancel it when
    /// the client disconnects, and charges its spend to the tenant.
    pub fn run_governed(&self, req: &Request, governor: Governor) -> Response {
        let session = self.with_governor(governor);
        let start = Instant::now();
        let steps0 = session.governor.steps_spent();
        let mem0 = session.governor.mem_spent();
        let mut resp = session.dispatch(req);
        resp.spend = Some(Spend {
            steps: session.governor.steps_spent().saturating_sub(steps0),
            mem_bytes: session.governor.mem_spent().saturating_sub(mem0),
            elapsed_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        });
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.op {
            Op::Eval => self.op_eval(req),
            Op::Analyze => self.op_analyze(req),
            Op::Explain => self.op_explain(req),
            Op::Insert => self.op_insert(req),
            Op::Save => self.op_save(req),
            Op::Open => self.op_open(req),
            Op::Stats => self.op_stats(),
            Op::Materialize => self.op_materialize(req),
            Op::Update => self.op_update(req),
            Op::Subscribe => self.op_subscribe(req),
            Op::Unsubscribe => self.op_unsubscribe(req),
        }
    }

    /// Every `eval` takes one path: parse, compile to a [`Planned`],
    /// execute, render. Only the plan differs (see `compile`).
    fn op_eval(&self, req: &Request) -> Response {
        // Checked: analyze first and refuse with the findings on any
        // error. A clean CALC text runs under the strongest semantics its
        // certificate allows, and the analysis travels with the rows.
        let parsed = self.read_parsed(|store, universe| {
            let schema = store.instance().schema();
            let mut mode = calc_mode(req.mode);
            let mut certified = None;
            if let (Mode::Checked, Some(analyze)) = (req.mode, analyzer(req.lang)) {
                let analysis = analyze(schema, &req.text, universe);
                if analysis.has_errors() {
                    return Err(checked_refusal(&analysis, &req.text));
                }
                if req.lang == Lang::Calc {
                    if !analysis.is_rr_safe() {
                        mode = CalcMode::ActiveDomain;
                    }
                    certified = Some(analysis_out(&analysis, &req.text));
                }
            }
            Ok((parse_source(req, universe, mode)?, certified))
        });
        let (store, (source, analysis)) = match parsed {
            Ok(p) => p,
            Err(resp) => return *resp,
        };
        let instance = store.instance();
        let output = self
            .compile(instance, source, req.planned)
            .and_then(|plan| Ok(plan.physical.execute(instance, &self.governor)?));
        match output {
            Ok(output) => Response {
                analysis,
                ..render(store.universe(), output)
            },
            Err(e) => error_response(&e),
        }
    }

    /// The plan an `eval` runs. `planned` takes the session's served,
    /// cached plan. Otherwise the oracle planner compiles it: the
    /// tree-walk plan the differential suites hold the served plans to,
    /// built per request and never cached. A Datalog program runs on the
    /// same round engine either way, so only the cache is skipped.
    fn compile(
        &self,
        instance: &Instance,
        source: Source,
        planned: bool,
    ) -> Result<Arc<Planned>, Error> {
        if planned {
            return match source {
                Source::Calc(query, mode) => self.plan_calc(instance, &query, mode),
                Source::Algebra(expr) => self.plan_algebra(instance, &expr),
                Source::Datalog(program, mode) => self.plan_datalog(instance, &program, mode),
            };
        }
        let planner = Planner::oracle(instance.schema());
        let plan = match source {
            Source::Calc(query, mode) => planner.plan_calc(&query, mode),
            Source::Algebra(expr) => planner.plan_algebra(&expr),
            Source::Datalog(program, mode) => planner.plan_datalog(&program, mode),
        }?;
        Ok(Arc::new(plan))
    }

    fn op_analyze(&self, req: &Request) -> Response {
        let Some(analyze) = analyzer(req.lang) else {
            return Response::error(
                "unsupported",
                "the algebra has no static analyzer; analyze calc or datalog text",
            );
        };
        let parsed = self.read_parsed(|store, universe| {
            let analysis = analyze(store.instance().schema(), &req.text, universe);
            Ok(analysis_out(&analysis, &req.text))
        });
        match parsed {
            Ok((_store, out)) => Response {
                ok: true,
                analysis: Some(out),
                ..Response::default()
            },
            Err(resp) => *resp,
        }
    }

    /// `explain` renders the plan a `planned: true` eval of the same
    /// request would run.
    fn op_explain(&self, req: &Request) -> Response {
        let parsed =
            self.read_parsed(|_store, universe| parse_source(req, universe, calc_mode(req.mode)));
        let (store, source) = match parsed {
            Ok(p) => p,
            Err(resp) => return *resp,
        };
        match self.compile(store.instance(), source, true) {
            Ok(p) => Response {
                ok: true,
                explain: Some(ExplainOut {
                    text: p.render_text(),
                    json: p.render_json(),
                }),
                ..Response::default()
            },
            Err(e) => error_response(&e),
        }
    }

    fn op_insert(&self, req: &Request) -> Response {
        if req.text.trim().is_empty() {
            return Response::error(
                "protocol",
                "insert needs a clause like schema G(U, U). or G('a', 'b').",
            );
        }
        let mut store = self.write_store();
        let clause = match parse_clause(&req.text, store.universe_mut()) {
            Ok(c) => c,
            Err(e) => return Response::error("parse", e.to_string()),
        };
        match self.write_batch(&mut store, vec![clause]) {
            Err(refusal) => *refusal,
            Ok(Written {
                failed: Some(m), ..
            }) => Response::error("storage", m),
            Ok(mut w) => Response {
                deltas: w.deltas,
                ..Response::message(w.messages.remove(0))
            },
        }
    }

    /// The one writer path, shared by `insert` and `update`: check every
    /// clause against the live instance, maintain the views under the
    /// batch's delta (the engine reads the pre-batch instance), then land
    /// each clause through [`Store::apply_clause`], logged first on a
    /// durable store. A refused check or maintenance changes nothing; an
    /// apply that fails leaves the views ahead of the store, so they are
    /// recomputed against what landed.
    fn write_batch(&self, store: &mut Store, clauses: Vec<Clause>) -> Result<Written, Refusal> {
        let mut delta = BaseDelta::new();
        let mut mutates = false;
        for clause in &clauses {
            if let Err(m) = store.instance().check(clause) {
                return Err(Box::new(Response::error("storage", m)));
            }
            match clause {
                Clause::Fact(name, row) => delta.insert(name, row.clone()),
                Clause::Retract(name, row) => delta.delete(name, row.clone()),
                // a fresh relation is empty: no view can read it yet
                Clause::Schema(_) => continue,
            }
            mutates = true;
        }
        let mut view_deltas = BTreeMap::new();
        if mutates {
            view_deltas = store
                .maintain_views(&delta, &self.governor)
                .map_err(|e| Box::new(ivm_error_response(&e)))?;
        }
        let mut messages = Vec::with_capacity(clauses.len());
        let mut failed = None;
        for clause in clauses {
            match store.apply_clause(clause) {
                Ok(m) => messages.push(m),
                Err(m) => {
                    if !view_deltas.is_empty() {
                        let _ = store.recompute_views(&self.governor);
                    }
                    failed = Some(m);
                    break;
                }
            }
        }
        Ok(Written {
            messages,
            deltas: reply::delta_outs(store.universe(), &view_deltas),
            failed,
        })
    }

    fn op_materialize(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "materialize needs a view name in `view`");
        }
        if req.text.trim().is_empty() {
            return Response::error(
                "protocol",
                "materialize needs the view's datalog source in `text`",
            );
        }
        let mut store = self.write_store();
        if let Err(e) = store.materialize_view(name, &req.text, &self.governor) {
            return ivm_error_response(&e);
        }
        let view = store.views().get(name).expect("just materialized");
        let relations = reply::relations_out(store.universe(), view.relations());
        let notes = view.strategy_notes().join("; ");
        Response {
            ok: true,
            relations,
            message: Some(format!("materialized view {name} ({notes})")),
            ..Response::default()
        }
    }

    fn op_update(&self, req: &Request) -> Response {
        let mut store = self.write_store();
        let mut clauses = Vec::new();
        {
            let universe = store.universe_mut();
            for line in req.text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match parse_clause(line, universe) {
                    Ok(c) => clauses.push(c),
                    Err(e) => return Response::error("parse", format!("{line:?}: {e}")),
                }
            }
        }
        if clauses.is_empty() {
            return Response::error(
                "protocol",
                "update needs fact or delete clauses, one per line of `text`",
            );
        }
        if clauses.iter().any(|c| matches!(c, Clause::Schema(_))) {
            return Response::error(
                "protocol",
                "update takes fact/delete clauses; declare schema through op: insert",
            );
        }
        match self.write_batch(&mut store, clauses) {
            Err(refusal) => *refusal,
            Ok(Written {
                messages,
                failed: Some(m),
                ..
            }) => Response::error("storage", format!("after {} clauses: {m}", messages.len())),
            Ok(w) => Response {
                deltas: w.deltas,
                ..Response::message(format!(
                    "applied {} mutations; {} views maintained",
                    w.messages.len(),
                    store.views().len()
                ))
            },
        }
    }

    fn op_subscribe(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "subscribe needs a view name in `view`");
        }
        // the session only validates; the connection-scoped fan-out state
        // lives in the server front
        if self.read_store().views().get(name).is_none() {
            return ivm_error_response(&IvmError::UnknownView(name.to_string()));
        }
        Response::message(format!("subscribed to view {name}"))
    }

    fn op_unsubscribe(&self, req: &Request) -> Response {
        let name = req.view.trim();
        if name.is_empty() {
            return Response::error("protocol", "unsubscribe needs a view name in `view`");
        }
        Response::message(format!("unsubscribed from view {name}"))
    }

    fn op_save(&self, req: &Request) -> Response {
        let path = req.text.trim();
        if path.is_empty() {
            let mut store = self.write_store();
            let saved = match store.db_mut() {
                None => {
                    return Response::error(
                        "storage",
                        "no durable database attached (open a directory first)",
                    )
                }
                Some(db) => db
                    .save()
                    .map(|()| (db.dir().display().to_string(), db.epoch())),
            };
            match saved {
                Ok((dir, epoch)) => {
                    // stamp the maintained views at the fresh epoch so the
                    // next open replays an empty tail over them
                    if let Err(e) = store.save_views_checkpoint() {
                        return error_response(&Error::Storage(e));
                    }
                    let views = store.views().len();
                    Response::message(if views > 0 {
                        format!(
                            "checkpointed {dir} at epoch {epoch} (write-ahead log reset; {views} views checkpointed)"
                        )
                    } else {
                        format!("checkpointed {dir} at epoch {epoch} (write-ahead log reset)")
                    })
                }
                Err(e) => error_response(&Error::Storage(e)),
            }
        } else {
            let store = self.read_store();
            let text = render_database(store.universe(), store.instance());
            match std::fs::write(path, &text) {
                Ok(()) => Response::message(format!(
                    "saved {} tuples to {path}",
                    store.instance().cardinality()
                )),
                Err(e) => Response::error("storage", format!("cannot write {path}: {e}")),
            }
        }
    }

    fn op_open(&self, req: &Request) -> Response {
        let dir = req.text.trim();
        if dir.is_empty() {
            return Response::error("protocol", "open needs a database directory");
        }
        let options = DbOptions {
            sync: self.sync_policy,
            governor: Some(self.governor.clone()),
            faults: no_storage::IoFaults::none(),
        };
        let mut db = match Db::open(Path::new(dir), options) {
            Ok(db) => db,
            Err(e) => return error_response(&Error::Storage(e)),
        };
        let stats = db.open_stats().clone();
        let inst = db.instance();
        let mut msg = if stats.created {
            format!("created durable database at {dir}")
        } else {
            format!(
                "opened {dir}: {} relations, {} tuples, {} atoms (snapshot epoch {}, {} frames replayed)",
                inst.schema().len(),
                inst.cardinality(),
                db.universe().len(),
                stats.snapshot_epoch,
                stats.replayed_frames,
            )
        };
        if stats.truncated_bytes > 0 {
            msg.push_str(&format!(
                "\nrecovered: {} bytes of torn write-ahead-log tail truncated",
                stats.truncated_bytes
            ));
        }
        if stats.stale_wal_discarded {
            msg.push_str("\nrecovered: stale write-ahead log discarded (already in snapshot)");
        }
        let registry = self.restore_views(&mut db, &mut msg);
        let mut store = self.write_store();
        store.attach(db);
        *store.views_mut() = registry;
        Response::message(msg)
    }

    /// Restore maintained views on open: decode the view checkpoint (if
    /// one is current for this epoch) and replay the write-ahead-log tail
    /// it had not yet seen as one maintenance delta. Failures never block
    /// the open — they degrade to "re-materialize by hand" with a note.
    fn restore_views(&self, db: &mut Db, msg: &mut String) -> ViewRegistry {
        let ck = match db.load_views() {
            Ok(Some(ck)) => ck,
            Ok(None) => return ViewRegistry::new(),
            Err(e) => {
                msg.push_str(&format!(
                    "\nview checkpoint corrupt ({e}); views must be re-materialized"
                ));
                return ViewRegistry::new();
            }
        };
        let schema = db.instance().schema().clone();
        let mut reg = match decode_registry(&ck.body, db.universe_mut(), &schema) {
            Ok(reg) => reg,
            Err(e) => {
                msg.push_str(&format!(
                    "\nview checkpoint unreadable ({e}); views must be re-materialized"
                ));
                return ViewRegistry::new();
            }
        };
        // recovery already replayed the whole log: catch the views up with
        // the tail the checkpoint had not seen
        let tail = db.epoch_clauses().skip(ck.frames as usize);
        let replayed = tail.len();
        match catch_up(&mut reg, db.instance(), tail, &self.governor) {
            Ok(()) => {
                msg.push_str(&format!(
                    "\nviews restored: {} from checkpoint, {replayed} log clauses replayed",
                    reg.len()
                ));
                reg
            }
            Err(e) => {
                msg.push_str(&format!(
                    "\nview replay failed ({e}); views must be re-materialized"
                ));
                ViewRegistry::new()
            }
        }
    }

    fn op_stats(&self) -> Response {
        let (cache_hits, cache_misses) = self.plan_cache_stats();
        let store = self.read_store();
        let reg = store.views();
        let views = reg
            .names()
            .filter_map(|name| reg.get(name).map(|v| (name.to_string(), v.stats())))
            .map(|(view, s)| ViewStatsOut {
                view,
                maintain_calls: s.maintain_calls,
                steps_total: s.steps_total,
                steps_last: s.steps_last,
            })
            .collect();
        Response {
            ok: true,
            stats: Some(StatsOut {
                cache_hits,
                cache_misses,
                store_exclusive_reads: store.exclusive_reads,
                views,
                ..StatsOut::default()
            }),
            ..Response::default()
        }
    }

    // ----- compile-to-plan entry points -------------------------------

    /// Compile (or fetch from the plan cache) the served plan: stats come
    /// from the instance, limits from the governor.
    fn cached<F>(&self, key: CacheKey, build: F) -> Result<Arc<Planned>, Error>
    where
        F: FnOnce() -> Result<Planned, no_plan::PlanError>,
    {
        if let Some(p) = self.plans.lock().unwrap().get(&key) {
            return Ok(p);
        }
        let planned = Arc::new(build()?);
        self.plans.lock().unwrap().put(key, Arc::clone(&planned));
        Ok(planned)
    }

    fn planner<'s>(&self, instance: &'s Instance) -> Planner<'s> {
        Planner::new(instance.schema())
            .with_instance(instance)
            .with_limits(self.governor.limits().clone())
    }

    /// Plan a CALC query (cached), under either semantics.
    pub fn plan_calc(
        &self,
        instance: &Instance,
        query: &Query,
        mode: CalcMode,
    ) -> Result<Arc<Planned>, Error> {
        let key = no_plan::calc_key(instance.schema(), query, mode);
        self.cached(key, || self.planner(instance).plan_calc(query, mode))
    }

    /// Plan an algebra expression (cached).
    pub fn plan_algebra(&self, instance: &Instance, expr: &Expr) -> Result<Arc<Planned>, Error> {
        let key = no_plan::algebra_key(instance.schema(), expr);
        self.cached(key, || self.planner(instance).plan_algebra(expr))
    }

    /// Plan a Datalog¬ program (cached) under its semantics.
    pub fn plan_datalog(
        &self,
        instance: &Instance,
        program: &Program,
        mode: DatalogMode,
    ) -> Result<Arc<Planned>, Error> {
        let key = no_plan::datalog_key(instance.schema(), program, mode.label());
        self.cached(key, || self.planner(instance).plan_datalog(program, mode))
    }

    /// `(hits, misses)` of the session's plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plans.lock().unwrap().stats()
    }

    /// Drop every cached plan (call after schema or bulk data changes when
    /// stale statistics would mis-order new plans; correctness never
    /// depends on this).
    pub fn clear_plan_cache(&self) {
        self.plans.lock().unwrap().clear()
    }
}

// ---------------------------------------------------------------------------
// Response assembly helpers
// ---------------------------------------------------------------------------

/// Overlay a wire-level [`LimitsSpec`] onto base limits. `deadline_ms: 0`
/// clears the deadline (matches the shell's `:deadline 0`).
fn overlay(base: &Limits, spec: &LimitsSpec) -> Limits {
    Limits {
        max_steps: spec.max_steps.unwrap_or(base.max_steps),
        max_range: spec.max_range.unwrap_or(base.max_range),
        max_fixpoint_iters: spec.max_fixpoint_iters.unwrap_or(base.max_fixpoint_iters),
        max_memory_bytes: spec.max_memory_bytes.unwrap_or(base.max_memory_bytes),
        deadline: match spec.deadline_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => base.deadline,
        },
    }
}

fn error_response(e: &Error) -> Response {
    let trip = e.is_resource_trip();
    let kind = if trip {
        "resource"
    } else {
        match e {
            Error::Diagnostics(_) => "diagnostics",
            Error::Storage(_) => "storage",
            _ => "eval",
        }
    };
    failure(kind, e.to_string(), trip)
}

fn ivm_error_response(e: &IvmError) -> Response {
    let (kind, trip) = match e {
        IvmError::Parse(_) => ("parse", false),
        IvmError::Plan(_) => ("eval", false),
        IvmError::Resource(_) => ("resource", true),
        IvmError::UnknownView(_) => ("protocol", false),
        IvmError::Checkpoint(_) => ("storage", false),
    };
    failure(kind, e.to_string(), trip)
}

fn failure(kind: &str, message: String, resource_trip: bool) -> Response {
    let mut resp = Response::error(kind, message);
    if let Some(err) = resp.error.as_mut() {
        err.resource_trip = resource_trip;
    }
    resp
}

/// A reply that ends a read before it evaluates — a parse error, a
/// `checked` refusal, a budget trip. Boxed because it travels in `Err`
/// and a [`Response`] is several hundred bytes.
type Refusal = Box<Response>;

/// What a batch write did: each landed clause's outcome message, the
/// views' deltas, and the refusal of the clause that failed to land, if
/// one did (the clauses before it stay applied).
struct Written {
    messages: Vec<String>,
    deltas: Vec<DeltaOut>,
    failed: Option<String>,
}

/// `mode: checked` found errors: the diagnostics as the error, the full
/// analysis alongside.
fn checked_refusal(analysis: &no_analysis::Analysis, src: &str) -> Refusal {
    let err: Error = no_analysis::DiagnosticsError::new(analysis).into();
    let mut resp = error_response(&err);
    resp.analysis = Some(analysis_out(analysis, src));
    Box::new(resp)
}

/// The static analyzer for `lang`; the algebra has none.
fn analyzer(lang: Lang) -> Option<fn(&Schema, &str, &mut Universe) -> no_analysis::Analysis> {
    match lang {
        Lang::Calc => Some(no_analysis::analyze_calc),
        Lang::Datalog => Some(no_analysis::analyze_datalog),
        Lang::Algebra => None,
    }
}

/// The CALC semantics a request mode asks for before any analysis.
fn calc_mode(mode: Mode) -> CalcMode {
    match mode {
        Mode::Fast => CalcMode::ActiveDomain,
        Mode::Safe | Mode::Checked => CalcMode::Safe,
    }
}

/// An `eval` or `explain` text, parsed, with the semantics it compiles
/// under.
enum Source {
    Calc(Query, CalcMode),
    Algebra(Expr),
    Datalog(Program, DatalogMode),
}

/// Parse `req.text` in its language; a Datalog strategy becomes the
/// semantics it names.
fn parse_source(
    req: &Request,
    universe: &mut Universe,
    calc_mode: CalcMode,
) -> Result<Source, Refusal> {
    let text = &req.text;
    let refuse = |message: String| Box::new(Response::error("parse", message));
    Ok(match req.lang {
        Lang::Calc => Source::Calc(
            no_core::parse_query(text, universe).map_err(|e| refuse(e.render(text)))?,
            calc_mode,
        ),
        Lang::Algebra => Source::Algebra(
            no_algebra::parse_expr(text, universe).map_err(|e| refuse(e.to_string()))?,
        ),
        Lang::Datalog => {
            let program =
                no_datalog::parse_program(text, universe).map_err(|e| refuse(e.render(text)))?;
            let mode = match req.strategy {
                no_proto::Strategy::SemiNaive => DatalogMode::SemiNaive,
                no_proto::Strategy::Stratified => DatalogMode::Stratified,
            };
            Source::Datalog(program, mode)
        }
    })
}

/// An executed plan as an `ok` reply. A CALC or algebra answer is the
/// relation `result`; a Datalog answer is every IDB relation, plus the
/// round count when the strategy reports one.
fn render(universe: &Universe, output: Output) -> Response {
    let (relations, rounds) = match output {
        Output::Relation(answer) => (vec![reply::relation_out(universe, "result", &answer)], None),
        Output::Idb(idb, stats) => (
            idb.iter()
                .map(|(name, answer)| reply::relation_out(universe, name, answer))
                .collect(),
            stats.map(|s| s.rounds as u64),
        ),
    };
    Response {
        ok: true,
        relations,
        rounds,
        ..Response::default()
    }
}

fn analysis_out(analysis: &no_analysis::Analysis, src: &str) -> AnalysisOut {
    let errors = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == no_analysis::Severity::Error)
        .count() as u64;
    AnalysisOut {
        text: analysis.render(src),
        json: analysis.to_json(),
        errors,
        warnings: analysis.diagnostics.len() as u64 - errors,
        certified: analysis.certificate.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{RelationSchema, Schema, Type, Universe, Value};

    fn graph_store(edges: &[(&str, &str)]) -> Arc<RwLock<Store>> {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        Arc::new(RwLock::new(Store::with_data(u, i)))
    }

    fn graph_session(edges: &[(&str, &str)]) -> Session {
        Session::builder().store(graph_store(edges)).build()
    }

    const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
    const EDGES: &str = "{[x:U, y:U] | G(x, y)}";

    fn calc(mode: Mode, text: &str) -> Request {
        Request {
            mode,
            ..Request::eval(Lang::Calc, text)
        }
    }

    fn tc(strategy: no_proto::Strategy) -> Request {
        Request {
            strategy,
            ..Request::eval(Lang::Datalog, TC_SRC)
        }
    }

    /// The rows of `relation` in the reply to `req`, which must succeed.
    fn rows(s: &Session, req: &Request, relation: &str) -> usize {
        let r = s.run(req);
        assert!(r.ok, "{req:?}: {:?}", r.error);
        r.relations
            .iter()
            .find(|r| r.name == relation)
            .unwrap()
            .rows
            .len()
    }

    fn tripped(r: &Response) -> bool {
        r.error.as_ref().is_some_and(|e| e.resource_trip)
    }

    #[test]
    fn session_runs_every_engine() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        assert_eq!(rows(&s, &calc(Mode::Fast, EDGES), "result"), 2);
        assert_eq!(rows(&s, &calc(Mode::Safe, EDGES), "result"), 2);
        for strategy in [
            no_proto::Strategy::SemiNaive,
            no_proto::Strategy::Stratified,
        ] {
            assert_eq!(rows(&s, &tc(strategy), "tc"), 3);
        }
        let e = Request::eval(Lang::Algebra, "select[eq(1, 1)](G)");
        assert_eq!(rows(&s, &e, "result"), 2);
    }

    #[test]
    fn session_shares_one_budget_across_engines() {
        let s = Session::builder()
            .limits(Limits {
                max_steps: 60,
                ..Limits::unlimited()
            })
            .store(graph_store(&[("a", "b"), ("b", "c"), ("c", "d")]))
            .build();
        // datalog spends most of the fuel…
        let first = s.run(&tc(no_proto::Strategy::SemiNaive));
        // …so by some point an evaluation trips, and the trip is
        // recognisable without matching engine-specific variants
        let mut tripped_once = !first.ok;
        for _ in 0..20 {
            if tripped_once {
                break;
            }
            tripped_once = !s.run(&Request::eval(Lang::Algebra, "(G x G)")).ok;
        }
        assert!(tripped_once, "shared budget never tripped");
        assert!(tripped(&s.run(&tc(no_proto::Strategy::SemiNaive))));
    }

    #[test]
    fn analyze_is_pure_and_spends_no_fuel() {
        // zero fuel: any evaluation attempt would trip immediately
        let s = Session::builder()
            .limits(Limits {
                max_steps: 0,
                ..Limits::unlimited()
            })
            .store(graph_store(&[("a", "b")]))
            .build();
        for (lang, text) in [
            (Lang::Calc, EDGES),
            (Lang::Datalog, "rel tc(U, U).\ntc(x, y) :- G(x, y)."),
        ] {
            let r = s.run(&Request {
                op: Op::Analyze,
                lang,
                text: text.into(),
                ..Request::default()
            });
            assert!(r.ok, "{lang:?}: {:?}", r.error);
            let a = r.analysis.as_ref().unwrap();
            assert!(a.certified && a.errors == 0, "{}", a.text);
        }
        assert_eq!(s.governor().steps_spent(), 0, "analysis must not evaluate");
    }

    #[test]
    fn checked_eval_refuses_on_errors_and_runs_when_clean() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        assert_eq!(rows(&s, &calc(Mode::Checked, EDGES), "result"), 2);
        let r = s.run(&calc(Mode::Checked, "{[x:U] | H(x)}"));
        let e = r.error.as_ref().expect("refused");
        assert_eq!(e.kind, "diagnostics");
        assert!(!e.resource_trip);
        let a = r.analysis.as_ref().unwrap();
        assert!(
            a.text.contains(no_analysis::codes::TY_UNKNOWN_RELATION),
            "{}",
            a.text
        );
    }

    fn request(op: Op, text: &str) -> Request {
        Request {
            op,
            text: text.into(),
            ..Request::default()
        }
    }

    #[test]
    fn session_opens_and_recovers_durable_databases() {
        let dir = std::env::temp_dir().join(format!("nestdb_session_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.display().to_string();
        let s = Session::default();
        let r = s.run(&request(Op::Open, &d));
        assert!(r.message.unwrap().contains("created"));
        for clause in ["schema G(U, U).", "G('a', 'b').", "G('b', 'c')."] {
            assert!(s.run(&request(Op::Insert, clause)).ok, "{clause}");
        }
        assert!(s.run(&request(Op::Save, "")).ok);

        // Replay through a session with a tiny memory budget must trip —
        // recovery is charged like any other materialisation.
        let tight = Session::builder()
            .limits(Limits {
                max_memory_bytes: 4,
                ..Limits::unlimited()
            })
            .build();
        let r = tight.run(&request(Op::Open, &d));
        assert!(tripped(&r), "{:?}", r.error);

        // A roomy session recovers the data and queries it.
        let s2 = Session::builder().sync_policy(SyncPolicy::Manual).build();
        let r = s2.run(&request(Op::Open, &d));
        assert!(r.message.unwrap().contains("snapshot epoch 1"));
        assert_eq!(rows(&s2, &calc(Mode::Fast, EDGES), "result"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_reaches_every_engine() {
        let g = Governor::default();
        let s = Session::builder()
            .governor(g.clone())
            .store(graph_store(&[("a", "b")]))
            .build();
        g.cancel();
        assert!(tripped(&s.run(&calc(Mode::Fast, EDGES))));
        assert!(tripped(&s.run(&tc(no_proto::Strategy::SemiNaive))));
        assert!(tripped(&s.run(&Request::eval(Lang::Algebra, "G"))));
    }

    // ----- Session::run ------------------------------------------------

    #[test]
    fn run_evaluates_calc_in_every_mode() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        for mode in [Mode::Fast, Mode::Safe, Mode::Checked] {
            for planned in [false, true] {
                let r = s.run(&Request {
                    planned,
                    ..calc(mode, EDGES)
                });
                assert!(r.ok, "{mode:?}/{planned}: {:?}", r.error);
                assert_eq!(r.relations.len(), 1);
                assert_eq!(r.relations[0].name, "result");
                assert_eq!(
                    r.relations[0].rows,
                    vec!["('a', 'b')".to_string(), "('b', 'c')".to_string()]
                );
                assert_eq!(r.relations[0].rows_json, r#"[["a","b"],["b","c"]]"#);
                assert!(r.spend.is_some());
                // a checked success carries its certificate with the rows
                match &r.analysis {
                    Some(a) => assert!(mode == Mode::Checked && a.certified && a.errors == 0),
                    None => assert_ne!(mode, Mode::Checked),
                }
            }
        }
    }

    /// CALC is typed, so an ill-typed query has no answer, and an empty
    /// relation would be a wrong one: fast mode refuses it with the shape
    /// error every other mode gives, whichever plan runs.
    #[test]
    fn ill_typed_calc_gets_one_shape_error_planned_or_not() {
        let s = graph_session(&[("a", "b")]);
        for (text, message) in [
            (
                "{[x:U] | G(x)}",
                "calc: shape error: relation G has arity 2, applied to 1 arguments",
            ),
            (
                "{[x:U] | exists s:{U} (G(x, s))}",
                r#"calc: shape error: term Var("s") has type {U}, expected U"#,
            ),
            ("{[x:U] | H(x)}", "calc: shape error: unknown relation H"),
        ] {
            let [unplanned, planned] = [false, true].map(|planned| {
                let mut r = s.run(&Request {
                    planned,
                    ..calc(Mode::Fast, text)
                });
                r.spend = None;
                r
            });
            assert_eq!(unplanned.to_json(), planned.to_json(), "{text}");
            let e = unplanned.error.expect(text);
            assert_eq!((e.kind.as_str(), e.message.as_str()), ("eval", message));
        }
    }

    #[test]
    fn run_evaluates_datalog_under_every_strategy() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        for strategy in [
            no_proto::Strategy::SemiNaive,
            no_proto::Strategy::Stratified,
        ] {
            for planned in [false, true] {
                let r = s.run(&Request {
                    lang: Lang::Datalog,
                    strategy,
                    planned,
                    text: TC_SRC.into(),
                    ..Request::default()
                });
                assert!(r.ok, "{strategy:?}/{planned}: {:?}", r.error);
                let tc = r.relations.iter().find(|r| r.name == "tc").unwrap();
                assert_eq!(tc.rows.len(), 3, "{strategy:?}");
                assert_eq!(
                    r.rounds.is_some(),
                    strategy == no_proto::Strategy::SemiNaive,
                    "inflationary rounds report their count"
                );
            }
        }
    }

    #[test]
    fn run_evaluates_algebra_text() {
        let s = graph_session(&[("a", "b"), ("b", "a")]);
        for planned in [false, true] {
            let r = s.run(&Request {
                lang: Lang::Algebra,
                planned,
                text: "select[eq(2, 3)]((G x G))".into(),
                ..Request::default()
            });
            assert!(r.ok, "{:?}", r.error);
            assert_eq!(r.relations[0].rows.len(), 2);
        }
    }

    #[test]
    fn run_checked_refusal_carries_diagnostics() {
        let s = graph_session(&[("a", "b")]);
        let r = s.run(&Request {
            mode: Mode::Checked,
            text: "{[x:U] | H(x)}".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        let e = r.error.as_ref().unwrap();
        assert_eq!(e.kind, "diagnostics");
        assert!(!e.resource_trip);
        let a = r.analysis.as_ref().unwrap();
        assert!(a.errors >= 1);
        assert!(!a.certified);
        assert!(a.text.contains("TY001"), "{}", a.text);
    }

    #[test]
    fn run_parse_errors_are_structured() {
        let s = graph_session(&[("a", "b")]);
        for (lang, text) in [
            (Lang::Calc, "{[x:U] | G(x,, x)}"),
            (Lang::Datalog, "rel tc(U, U).\ntc(x :- G(x, y)."),
            (Lang::Algebra, "project[](G)"),
        ] {
            let r = s.run(&Request::eval(lang, text));
            assert!(!r.ok, "{lang:?}");
            assert_eq!(r.error.as_ref().unwrap().kind, "parse", "{lang:?}");
        }
    }

    #[test]
    fn run_limits_override_gets_a_fresh_allowance_per_request() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        let tight = Request {
            text: "{[x:U, y:U] | G(x, y)}".into(),
            limits: Some(LimitsSpec {
                max_steps: Some(0),
                ..LimitsSpec::default()
            }),
            ..Request::default()
        };
        let r = s.run(&tight);
        assert!(!r.ok);
        let e = r.error.as_ref().unwrap();
        assert_eq!(e.kind, "resource");
        assert!(e.resource_trip);
        // The *session* allowance was untouched: the same request without
        // an override still succeeds.
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert!(r.ok, "{:?}", r.error);
    }

    #[test]
    fn run_analyze_and_explain() {
        let s = graph_session(&[("a", "b")]);
        let r = s.run(&Request {
            op: Op::Analyze,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let a = r.analysis.as_ref().unwrap();
        assert!(a.certified);
        assert_eq!((a.errors, a.warnings), (0, 0));
        assert!(a.json.contains("\"status\": \"ok\""), "{}", a.json);

        let r = s.run(&Request {
            op: Op::Explain,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let e = r.explain.as_ref().unwrap();
        assert!(e.text.contains("plan: calc (safe)"), "{}", e.text);
        assert!(e.json.contains("\"mode\""), "{}", e.json);

        let r = s.run(&Request {
            op: Op::Analyze,
            lang: Lang::Algebra,
            text: "G".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        assert_eq!(r.error.as_ref().unwrap().kind, "unsupported");
    }

    #[test]
    fn run_insert_then_eval_round_trip() {
        let s = Session::default();
        for clause in ["schema G(U, U).", "G('a', 'b').", "G('b', 'c')."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: clause.into(),
                ..Request::default()
            });
            assert!(r.ok, "{clause}: {:?}", r.error);
        }
        // duplicate insert reports, does not fail
        let r = s.run(&Request {
            op: Op::Insert,
            text: "G('a', 'b').".into(),
            ..Request::default()
        });
        assert!(r.ok);
        assert!(r.message.as_ref().unwrap().contains("already"));
        // bad inserts are structured errors
        for bad in ["H('a').", "G('a').", "schema G(U)."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: bad.into(),
                ..Request::default()
            });
            assert!(!r.ok, "{bad}");
        }
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows.len(), 2);
    }

    #[test]
    fn run_open_insert_save_against_durable_store() {
        let dir = std::env::temp_dir().join(format!("nestdb_run_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::default();
        let r = s.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("created"));
        for clause in ["schema G(U, U).", "G('a', 'b')."] {
            let r = s.run(&Request {
                op: Op::Insert,
                text: clause.into(),
                ..Request::default()
            });
            assert!(r.ok, "{clause}: {:?}", r.error);
            assert!(r.message.as_ref().unwrap().contains("logged"));
        }
        let r = s.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("epoch 1"));
        // reopen in a second session: the data survived
        let s2 = Session::default();
        let r = s2.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r
            .message
            .as_ref()
            .unwrap()
            .contains("1 relations, 1 tuples"));
        let r = s2.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows, vec!["('a', 'b')".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_save_to_text_file() {
        let s = graph_session(&[("a", "b")]);
        let path = std::env::temp_dir().join(format!("nestdb_run_save_{}.no", std::process::id()));
        let r = s.run(&Request {
            op: Op::Save,
            text: path.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("G('a', 'b')."), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_stats_reports_plan_cache_counters() {
        let s = graph_session(&[("a", "b")]);
        let q = Request {
            planned: true,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        };
        s.run(&q);
        s.run(&q);
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        let stats = r.stats.as_ref().unwrap();
        assert!(stats.cache_hits >= 1, "second planned run hits the cache");
        assert!(stats.cache_misses >= 1);
    }

    #[test]
    fn run_responses_serialize_to_single_lines() {
        let s = graph_session(&[("a", "b")]);
        for req in [
            Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"),
            Request {
                op: Op::Analyze,
                text: "{[x:U] | H(x)}".into(),
                ..Request::default()
            },
            Request {
                op: Op::Explain,
                text: "{[x:U, y:U] | G(x, y)}".into(),
                ..Request::default()
            },
            Request::eval(Lang::Calc, "{[x:U] | G(x,, x)}"),
        ] {
            let resp = s.run(&req);
            let line = resp.to_json();
            assert!(!line.contains('\n'), "{line}");
            let back = Response::from_json(&line).unwrap();
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn sessions_share_stores_and_plan_caches() {
        let s = graph_session(&[("a", "b")]);
        let peer = Session::builder()
            .store(s.store())
            .plan_cache(s.plan_cache_handle())
            .build();
        let q = Request {
            planned: true,
            text: "{[x:U, y:U] | G(x, y)}".into(),
            ..Request::default()
        };
        assert!(s.run(&q).ok);
        let (_, misses_before) = peer.plan_cache_stats();
        assert!(peer.run(&q).ok);
        let (hits, misses) = peer.plan_cache_stats();
        assert_eq!(misses, misses_before, "peer reused the shared plan");
        assert!(hits >= 1);
    }

    #[test]
    fn run_materialize_update_round_trip() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        let r = s.run(&Request {
            op: Op::Materialize,
            view: "paths".into(),
            text: TC_SRC.into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(r.message.as_ref().unwrap().contains("materialized"));
        let tc = r.relations.iter().find(|r| r.name == "tc").unwrap();
        assert_eq!(tc.rows.len(), 3);

        // a batch update maintains the view and reports its delta
        let r = s.run(&Request {
            op: Op::Update,
            text: "G('c', 'd').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.deltas[0].view, "paths");
        let added = &r.deltas[0].added[0];
        assert_eq!(added.name, "tc");
        assert_eq!(added.rows.len(), 3, "(c,d) (b,d) (a,d)");
        assert!(r.deltas[0].removed.is_empty());

        // a single Op::Insert mutation maintains too
        let r = s.run(&Request {
            op: Op::Insert,
            text: "delete G('c', 'd').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.deltas[0].removed[0].rows.len(), 3);

        // stats expose per-view maintenance accounting
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        let views = &r.stats.as_ref().unwrap().views;
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].view, "paths");
        assert_eq!(views[0].maintain_calls, 2);
        assert!(views[0].steps_total > 0);

        // subscribe validates the view name
        let r = s.run(&Request {
            op: Op::Subscribe,
            view: "paths".into(),
            ..Request::default()
        });
        assert!(r.ok);
        let r = s.run(&Request {
            op: Op::Subscribe,
            view: "nope".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        assert_eq!(r.error.as_ref().unwrap().kind, "protocol");
    }

    #[test]
    fn run_update_rejects_bad_batches_atomically() {
        let s = graph_session(&[("a", "b"), ("b", "c")]);
        assert!(
            s.run(&Request {
                op: Op::Materialize,
                view: "paths".into(),
                text: TC_SRC.into(),
                ..Request::default()
            })
            .ok
        );
        // one bad clause anywhere rejects the whole batch up front
        let r = s.run(&Request {
            op: Op::Update,
            text: "G('c', 'd').\nH('x', 'y').".into(),
            ..Request::default()
        });
        assert!(!r.ok);
        // nothing was applied, nothing was maintained
        let r = s.run(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"));
        assert_eq!(r.relations[0].rows.len(), 2);
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        assert_eq!(r.stats.as_ref().unwrap().views[0].maintain_calls, 0);
    }

    /// A malformed clause gets one refusal, word for word, whichever store
    /// serves it: in memory, in memory with a view live, or durable.
    #[test]
    fn a_malformed_clause_gets_one_refusal_on_every_store() {
        let dir = std::env::temp_dir().join(format!("nestdb_refusal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = graph_session(&[("a", "b")]);
        let viewed = graph_session(&[("a", "b")]);
        let mut paths = request(Op::Materialize, TC_SRC);
        paths.view = "paths".into();
        assert!(viewed.run(&paths).ok);
        let durable = Session::default();
        assert!(
            durable
                .run(&request(Op::Open, &dir.display().to_string()))
                .ok
        );
        for clause in ["schema G(U, U).", "G('a', 'b')."] {
            assert!(durable.run(&request(Op::Insert, clause)).ok, "{clause}");
        }
        let arity = r#"relation "G" has arity 2 but the tuple has 1 values"#;
        let ty = r#"column 1 is not of type U in relation "G""#;
        for (op, text, message) in [
            (Op::Insert, "delete G('a').", arity),
            (Op::Update, "delete G('a').", arity),
            (Op::Insert, "G({'a'}, 'b').", ty),
            (Op::Update, "G('c', 'd').\nG({'a'}, 'b').", ty),
            (Op::Insert, "H('a').", r#"unknown relation "H""#),
            (Op::Update, "delete H('a').", r#"unknown relation "H""#),
            (
                Op::Insert,
                "schema G(U).",
                r#"relation "G" is already declared"#,
            ),
        ] {
            for s in [&plain, &viewed, &durable] {
                let r = s.run(&request(op, text));
                let e = r.error.unwrap_or_else(|| panic!("{text}: {:?}", r.message));
                assert_eq!((e.kind.as_str(), e.message.as_str()), ("storage", message));
            }
        }
        // nothing landed anywhere
        for s in [&plain, &viewed, &durable] {
            assert_eq!(rows(s, &calc(Mode::Fast, EDGES), "result"), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_views_checkpoint_and_replay_from_log_tail() {
        let dir = std::env::temp_dir().join(format!("nestdb_run_ivm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::default();
        assert!(
            s.run(&Request {
                op: Op::Open,
                text: dir.display().to_string(),
                ..Request::default()
            })
            .ok
        );
        for clause in ["schema G(U, U).", "G('a', 'b')."] {
            assert!(
                s.run(&Request {
                    op: Op::Insert,
                    text: clause.into(),
                    ..Request::default()
                })
                .ok
            );
        }
        assert!(
            s.run(&Request {
                op: Op::Materialize,
                view: "paths".into(),
                text: TC_SRC.into(),
                ..Request::default()
            })
            .ok
        );
        let r = s.run(&Request {
            op: Op::Save,
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert!(
            r.message.as_ref().unwrap().contains("1 views checkpointed"),
            "{:?}",
            r.message
        );
        // mutate past the checkpoint: this lands only in the log tail
        assert!(
            s.run(&Request {
                op: Op::Insert,
                text: "G('b', 'c').".into(),
                ..Request::default()
            })
            .ok
        );

        // a fresh session restores the checkpoint and replays the tail
        let s2 = Session::default();
        let r = s2.run(&Request {
            op: Op::Open,
            text: dir.display().to_string(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let msg = r.message.as_ref().unwrap();
        assert!(msg.contains("views restored: 1"), "{msg}");
        assert!(msg.contains("1 log clauses replayed"), "{msg}");
        // deleting the replayed edge retracts exactly the tc facts it
        // supported — proof the restored state includes the tail
        let r = s2.run(&Request {
            op: Op::Update,
            text: "delete G('b', 'c').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let removed = &r.deltas[0].removed[0];
        assert_eq!(removed.rows.len(), 2, "(b,c) and (a,c): {:?}", removed.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
