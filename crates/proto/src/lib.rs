//! The wire protocol: one serializable [`Request`]/[`Response`] pair.
//!
//! Historically every caller surface (REPL, CLI, embeddings) talked to a
//! different corner of a typed `Session` method matrix (one method per
//! engine × semantics × planned, plus analysis, explain and storage
//! verbs). None of that can be put on a wire. This
//! crate defines the one request shape they all reduce to:
//!
//! ```text
//! Request { op, lang, mode, strategy, planned, tenant, text, limits }
//! ```
//!
//! and the one response carrying a relation (text + JSON encodings),
//! diagnostics, certificates, explain renderings, and governor spend.
//! Both types serialize to canonical single-line JSON ([`Request::to_json`]
//! / [`Response::to_json`]) and parse leniently (missing fields default,
//! unknown fields are ignored), so the newline-delimited TCP protocol, the
//! shell, and in-process embedders share one dispatch surface.
//!
//! This crate is deliberately dependency-free: it knows nothing about
//! engines, plans, or storage — renderings arrive as strings, budgets as
//! numbers. `nestdb::Session::run` is the evaluator behind it; the
//! `no-server` crate is the TCP front.

pub mod json;
pub mod rows;

pub use json::{escape, escape_into, parse as parse_json, Json, JsonError};
pub use rows::{CellJson, CellWriter, RowsJson, RowsWriter};

use std::fmt::Write as _;

/// Which query language [`Request::text`] is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lang {
    /// The CALC calculus (`{[x:U] | ...}`).
    #[default]
    Calc,
    /// A Datalog¬ program.
    Datalog,
    /// A nested-relational algebra expression.
    Algebra,
}

impl Lang {
    fn wire(self) -> &'static str {
        match self {
            Lang::Calc => "calc",
            Lang::Datalog => "datalog",
            Lang::Algebra => "algebra",
        }
    }

    fn from_wire(s: &str) -> Option<Lang> {
        Some(match s {
            "calc" => Lang::Calc,
            "datalog" => Lang::Datalog,
            "algebra" => Lang::Algebra,
            _ => return None,
        })
    }
}

/// How strictly to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Active-domain enumeration — no safety precheck.
    Fast,
    /// Range-restricted (safe) evaluation, Theorem 5.1.
    #[default]
    Safe,
    /// Static analysis first; refuse with diagnostics on any error, then
    /// run under the strongest applicable semantics.
    Checked,
}

impl Mode {
    fn wire(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Safe => "safe",
            Mode::Checked => "checked",
        }
    }

    fn from_wire(s: &str) -> Option<Mode> {
        Some(match s {
            "fast" => Mode::Fast,
            "safe" => Mode::Safe,
            "checked" => Mode::Checked,
            _ => return None,
        })
    }
}

/// The Datalog¬ semantics (ignored for other languages). It names what a
/// program means, never which engine computes it: both run on the
/// semi-naive round engine. Naive rounds and the simultaneous-IFP
/// translation compute the inflationary fixpoint too (the paper's §3),
/// but they are test oracles in `no-datalog`, not wire values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Inflationary semantics.
    #[default]
    SemiNaive,
    /// Stratified semantics.
    Stratified,
}

impl Strategy {
    fn wire(self) -> &'static str {
        match self {
            Strategy::SemiNaive => "semi-naive",
            Strategy::Stratified => "stratified",
        }
    }

    fn from_wire(s: &str) -> Option<Strategy> {
        Some(match s {
            "semi-naive" => Strategy::SemiNaive,
            "stratified" => Strategy::Stratified,
            _ => return None,
        })
    }
}

/// What to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Op {
    /// Evaluate [`Request::text`] and return the result relation(s).
    #[default]
    Eval,
    /// Statically analyze without evaluating (diagnostics + certificate).
    Analyze,
    /// Compile to an optimized plan and render it without evaluating.
    Explain,
    /// Apply one mutation clause (`schema R(U).` or a fact).
    Insert,
    /// Checkpoint the attached durable store, or write a text-format file
    /// when [`Request::text`] names a path.
    Save,
    /// Attach the durable database directory named by [`Request::text`].
    Open,
    /// Service / session counters (requests, trips, cache hit rate,
    /// latency percentiles).
    Stats,
    /// Define (or replace) the materialized view named by
    /// [`Request::view`] from the Datalog¬ source in [`Request::text`]
    /// and evaluate it once; it is maintained incrementally from then
    /// on.
    Materialize,
    /// Apply a batch of mutation clauses (one per line of
    /// [`Request::text`]) as a single maintenance delta: every
    /// materialized view is updated incrementally and the response
    /// carries each view's net change.
    Update,
    /// Subscribe this connection to change pushes for the view named by
    /// [`Request::view`] (server only; in-process sessions have direct
    /// registry access).
    Subscribe,
    /// Drop the subscription on [`Request::view`] (server only).
    Unsubscribe,
}

impl Op {
    fn wire(self) -> &'static str {
        match self {
            Op::Eval => "eval",
            Op::Analyze => "analyze",
            Op::Explain => "explain",
            Op::Insert => "insert",
            Op::Save => "save",
            Op::Open => "open",
            Op::Stats => "stats",
            Op::Materialize => "materialize",
            Op::Update => "update",
            Op::Subscribe => "subscribe",
            Op::Unsubscribe => "unsubscribe",
        }
    }

    fn from_wire(s: &str) -> Option<Op> {
        Some(match s {
            "eval" => Op::Eval,
            "analyze" => Op::Analyze,
            "explain" => Op::Explain,
            "insert" => Op::Insert,
            "save" => Op::Save,
            "open" => Op::Open,
            "stats" => Op::Stats,
            "materialize" => Op::Materialize,
            "update" => Op::Update,
            "subscribe" => Op::Subscribe,
            "unsubscribe" => Op::Unsubscribe,
            _ => return None,
        })
    }
}

/// Per-request budget overrides. `None` fields inherit the session (or
/// server) defaults; the governor allowance is fresh per request whenever
/// an override is present.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LimitsSpec {
    /// Total step fuel.
    pub max_steps: Option<u64>,
    /// Maximum quantifier/fixpoint range cardinality.
    pub max_range: Option<u64>,
    /// Maximum fixpoint iterations.
    pub max_fixpoint_iters: Option<u64>,
    /// Approximate bytes of materialised values.
    pub max_memory_bytes: Option<u64>,
    /// Wall-clock allowance in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl LimitsSpec {
    /// True when no field overrides anything.
    pub fn is_empty(&self) -> bool {
        *self == LimitsSpec::default()
    }

    fn to_json_value(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::u64).unwrap_or(Json::Null);
        Json::Obj(vec![
            ("max_steps".into(), opt(self.max_steps)),
            ("max_range".into(), opt(self.max_range)),
            ("max_fixpoint_iters".into(), opt(self.max_fixpoint_iters)),
            ("max_memory_bytes".into(), opt(self.max_memory_bytes)),
            ("deadline_ms".into(), opt(self.deadline_ms)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<LimitsSpec, String> {
        let field = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("limits.{key} must be a non-negative integer")),
            }
        };
        Ok(LimitsSpec {
            max_steps: field("max_steps")?,
            max_range: field("max_range")?,
            max_fixpoint_iters: field("max_fixpoint_iters")?,
            max_memory_bytes: field("max_memory_bytes")?,
            deadline_ms: field("deadline_ms")?,
        })
    }
}

/// One request: the single entry shape behind every surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// The language of [`Request::text`] (for `Eval`/`Analyze`/`Explain`).
    pub lang: Lang,
    /// Evaluation strictness.
    pub mode: Mode,
    /// Datalog¬ strategy (ignored for other languages).
    pub strategy: Strategy,
    /// Run the served plan (the default). `false` runs the tree-walk
    /// oracle the differential suites hold the served plans to.
    pub planned: bool,
    /// The tenant this request is accounted to (admission control and
    /// per-tenant metrics on the server; ignored in-process).
    pub tenant: String,
    /// The payload: query/program/expression source, a mutation clause,
    /// a path for `Open`/`Save`, or empty.
    pub text: String,
    /// The materialized view a `Materialize`/`Subscribe`/`Unsubscribe`
    /// request targets; empty otherwise.
    pub view: String,
    /// Per-request budget overrides.
    pub limits: Option<LimitsSpec>,
}

impl Default for Request {
    fn default() -> Request {
        Request {
            op: Op::default(),
            lang: Lang::default(),
            mode: Mode::default(),
            strategy: Strategy::default(),
            planned: true,
            tenant: String::new(),
            text: String::new(),
            view: String::new(),
            limits: None,
        }
    }
}

impl Request {
    /// A fresh `Eval` request for `text` in `lang` with every other field
    /// at its default.
    pub fn eval(lang: Lang, text: impl Into<String>) -> Request {
        Request {
            lang,
            text: text.into(),
            ..Request::default()
        }
    }

    /// Canonical single-line JSON (fixed field order, no insignificant
    /// whitespace; `parse(to_json()).to_json()` is the identity).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("op".into(), Json::Str(self.op.wire().into())),
            ("lang".into(), Json::Str(self.lang.wire().into())),
            ("mode".into(), Json::Str(self.mode.wire().into())),
            ("strategy".into(), Json::Str(self.strategy.wire().into())),
            ("planned".into(), Json::Bool(self.planned)),
            ("tenant".into(), Json::Str(self.tenant.clone())),
            ("text".into(), Json::Str(self.text.clone())),
            ("view".into(), Json::Str(self.view.clone())),
            (
                "limits".into(),
                match &self.limits {
                    Some(l) => l.to_json_value(),
                    None => Json::Null,
                },
            ),
        ])
        .render()
    }

    /// Parse a request line. Missing fields default; unknown fields are
    /// ignored (forward compatibility); wrong-typed or unknown-valued
    /// fields are structured errors.
    pub fn from_json(src: &str) -> Result<Request, String> {
        let v = json::parse(src).map_err(|e| e.to_string())?;
        Request::from_json_value(&v)
    }

    /// Parse from an already-parsed JSON value.
    pub fn from_json_value(v: &Json) -> Result<Request, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let str_field = |key: &str| -> Result<Option<&str>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s)),
                Some(_) => Err(format!("{key} must be a string")),
            }
        };
        let mut req = Request::default();
        if let Some(s) = str_field("op")? {
            req.op = Op::from_wire(s).ok_or_else(|| format!("unknown op {s:?}"))?;
        }
        if let Some(s) = str_field("lang")? {
            req.lang = Lang::from_wire(s).ok_or_else(|| format!("unknown lang {s:?}"))?;
        }
        if let Some(s) = str_field("mode")? {
            req.mode = Mode::from_wire(s).ok_or_else(|| format!("unknown mode {s:?}"))?;
        }
        if let Some(s) = str_field("strategy")? {
            req.strategy =
                Strategy::from_wire(s).ok_or_else(|| format!("unknown strategy {s:?}"))?;
        }
        match v.get("planned") {
            None | Some(Json::Null) => {}
            Some(Json::Bool(b)) => req.planned = *b,
            Some(_) => return Err("planned must be a boolean".to_string()),
        }
        if let Some(s) = str_field("tenant")? {
            req.tenant = s.to_string();
        }
        if let Some(s) = str_field("text")? {
            req.text = s.to_string();
        }
        if let Some(s) = str_field("view")? {
            req.view = s.to_string();
        }
        match v.get("limits") {
            None | Some(Json::Null) => {}
            Some(l @ Json::Obj(_)) => req.limits = Some(LimitsSpec::from_json_value(l)?),
            Some(_) => return Err("limits must be an object".to_string()),
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------------

/// One result relation: rendered rows plus a JSON encoding.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelationOut {
    /// Relation name (`"result"` for CALC/algebra; the IDB predicate name
    /// for Datalog).
    pub name: String,
    /// Rows rendered in the text format, in canonical sorted order.
    pub rows: Vec<String>,
    /// The same rows as one canonical JSON array (atoms as strings,
    /// tuples as arrays, sets as sorted arrays), spliced into the reply
    /// line verbatim.
    pub rows_json: RowsJson,
}

/// Static-analysis output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisOut {
    /// Caret-rendered human report.
    pub text: String,
    /// The analyzer's JSON report (diagnostics + certificate), verbatim.
    pub json: String,
    /// Error-severity diagnostic count.
    pub errors: u64,
    /// Warning-severity diagnostic count.
    pub warnings: u64,
    /// Whether a complexity certificate was produced.
    pub certified: bool,
}

/// A rendered query plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainOut {
    /// The deterministic text rendering.
    pub text: String,
    /// The deterministic JSON rendering, verbatim.
    pub json: String,
}

/// What the request's governor allowance spent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Spend {
    /// Step fuel consumed.
    pub steps: u64,
    /// Peak approximate bytes of materialised values charged.
    pub mem_bytes: u64,
    /// Wall-clock microseconds.
    pub elapsed_us: u64,
}

/// A structured failure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorOut {
    /// Stable machine kind: `"parse"`, `"eval"`, `"diagnostics"`,
    /// `"storage"`, `"resource"`, `"rejected"`, `"protocol"`,
    /// `"unsupported"`.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// True when a governor budget tripped (the engine-independent
    /// question callers branch on).
    pub resource_trip: bool,
    /// For admission-control rejections: when to try again.
    pub retry_after_ms: Option<u64>,
}

/// One maintained view's net change under a maintenance delta —
/// carried on `Update` responses and pushed to subscribers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaOut {
    /// The view the change belongs to.
    pub view: String,
    /// Rows that appeared, one entry per changed view relation.
    pub added: Vec<RelationOut>,
    /// Rows that disappeared, one entry per changed view relation.
    pub removed: Vec<RelationOut>,
}

impl DeltaOut {
    /// True when the delta changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Per-view maintenance counters, reported by `op: Stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViewStatsOut {
    /// The view name.
    pub view: String,
    /// Maintenance rounds the view has been through.
    pub maintain_calls: u64,
    /// Governor steps spent on the view in total (materialization
    /// included).
    pub steps_total: u64,
    /// Governor steps the most recent maintenance call spent.
    pub steps_last: u64,
}

/// Per-tenant counters, reported by `op: Stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Tenant name (`""` is the anonymous tenant).
    pub tenant: String,
    /// Requests admitted.
    pub requests: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Admitted requests that tripped a budget.
    pub trips: u64,
    /// Step fuel spent by admitted requests.
    pub spent_steps: u64,
    /// Step allowance currently available in the tenant's bucket.
    pub balance_steps: u64,
}

/// Service/session counters, reported by `op: Stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsOut {
    /// Total requests handled (admitted + rejected).
    pub requests: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that tripped a resource budget.
    pub trips: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Median request latency (µs, fixed-bucket histogram upper bound).
    pub p50_us: u64,
    /// 99th-percentile request latency (µs, bucket upper bound).
    pub p99_us: u64,
    /// Live connections (servers only).
    pub connections: u64,
    /// Read requests (`eval`/`explain`/`analyze`) that had to take the
    /// store's exclusive lock because their text named an atom the
    /// universe had never seen. Every other read runs under the shared
    /// lock alone.
    pub store_exclusive_reads: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantStats>,
    /// Per-view maintenance breakdown.
    pub views: Vec<ViewStatsOut>,
}

/// The response to one [`Request`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Response {
    /// True unless [`Response::error`] is set.
    pub ok: bool,
    /// The failure, when not ok.
    pub error: Option<ErrorOut>,
    /// Result relations (`Eval`): one for CALC/algebra, one per IDB
    /// predicate for Datalog.
    pub relations: Vec<RelationOut>,
    /// Analysis output (`Analyze`, and `Checked`-mode evaluations:
    /// refusals carry the findings, successes the certificate).
    pub analysis: Option<AnalysisOut>,
    /// Plan rendering (`Explain`).
    pub explain: Option<ExplainOut>,
    /// Governor spend of this request.
    pub spend: Option<Spend>,
    /// Counters (`Stats`).
    pub stats: Option<StatsOut>,
    /// One-line human summary (mutations, opens, saves).
    pub message: Option<String>,
    /// Datalog fixpoint rounds, when the strategy reports them.
    pub rounds: Option<u64>,
    /// View changes caused by this request (`Update`, `Insert` with
    /// views live) or carried by a pushed event.
    pub deltas: Vec<DeltaOut>,
    /// Set on lines the server *pushes* rather than sends in reply —
    /// `"delta"` for maintenance notifications — so clients reading the
    /// stream can tell pushes from responses. `None` on replies.
    pub event: Option<String>,
}

impl Response {
    /// A success with just a message.
    pub fn message(text: impl Into<String>) -> Response {
        Response {
            ok: true,
            message: Some(text.into()),
            ..Response::default()
        }
    }

    /// A failure of `kind`.
    pub fn error(kind: &str, message: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(ErrorOut {
                kind: kind.to_string(),
                message: message.into(),
                resource_trip: false,
                retry_after_ms: None,
            }),
            ..Response::default()
        }
    }

    /// Canonical single-line JSON (same contract as [`Request::to_json`]),
    /// written straight into one buffer: each relation's `rows_json` is
    /// spliced verbatim and every string is escaped in place.
    pub fn to_json(&self) -> String {
        let rows_bytes: usize = (self.relations.iter())
            .chain(
                self.deltas
                    .iter()
                    .flat_map(|d| d.added.iter().chain(&d.removed)),
            )
            .map(|r| r.rows_json.as_str().len() + r.rows.iter().map(|s| s.len() + 3).sum::<usize>())
            .sum();
        let mut out = String::with_capacity(256 + rows_bytes);
        let mut o = Obj::open(&mut out);
        o.bool("ok", self.ok);
        match &self.error {
            None => o.null("error"),
            Some(e) => {
                let mut e_obj = Obj::open(o.key("error"));
                e_obj.str("kind", &e.kind);
                e_obj.str("message", &e.message);
                e_obj.bool("resource_trip", e.resource_trip);
                e_obj.opt_u64("retry_after_ms", e.retry_after_ms);
                e_obj.close();
            }
        }
        list(o.key("relations"), &self.relations, relation_json);
        match &self.analysis {
            None => o.null("analysis"),
            Some(a) => {
                let mut a_obj = Obj::open(o.key("analysis"));
                a_obj.str("text", &a.text);
                a_obj.str("json", &a.json);
                a_obj.u64("errors", a.errors);
                a_obj.u64("warnings", a.warnings);
                a_obj.bool("certified", a.certified);
                a_obj.close();
            }
        }
        match &self.explain {
            None => o.null("explain"),
            Some(e) => {
                let mut e_obj = Obj::open(o.key("explain"));
                e_obj.str("text", &e.text);
                e_obj.str("json", &e.json);
                e_obj.close();
            }
        }
        match &self.spend {
            None => o.null("spend"),
            Some(s) => {
                let mut s_obj = Obj::open(o.key("spend"));
                s_obj.u64("steps", s.steps);
                s_obj.u64("mem_bytes", s.mem_bytes);
                s_obj.u64("elapsed_us", s.elapsed_us);
                s_obj.close();
            }
        }
        match &self.stats {
            None => o.null("stats"),
            Some(s) => stats_json(o.key("stats"), s),
        }
        o.opt_str("message", self.message.as_deref());
        o.opt_u64("rounds", self.rounds);
        list(o.key("deltas"), &self.deltas, |out, d| {
            let mut d_obj = Obj::open(out);
            d_obj.str("view", &d.view);
            list(d_obj.key("added"), &d.added, relation_json);
            list(d_obj.key("removed"), &d.removed, relation_json);
            d_obj.close();
        });
        o.opt_str("event", self.event.as_deref());
        o.close();
        out
    }

    /// Parse a response line (the client half of the protocol).
    pub fn from_json(src: &str) -> Result<Response, String> {
        let v = json::parse(src).map_err(|e| e.to_string())?;
        if !matches!(v, Json::Obj(_)) {
            return Err("response must be a JSON object".to_string());
        }
        let opt_str =
            |v: Option<&Json>| -> Option<String> { v.and_then(Json::as_str).map(str::to_string) };
        let u = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
        let opt_u = |v: Option<&Json>| -> Option<u64> {
            match v {
                None | Some(Json::Null) => None,
                Some(n) => n.as_u64(),
            }
        };
        let mut resp = Response {
            ok: v.get("ok").and_then(Json::as_bool).unwrap_or(false),
            ..Response::default()
        };
        if let Some(e @ Json::Obj(_)) = v.get("error") {
            resp.error = Some(ErrorOut {
                kind: opt_str(e.get("kind")).unwrap_or_default(),
                message: opt_str(e.get("message")).unwrap_or_default(),
                resource_trip: e
                    .get("resource_trip")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                retry_after_ms: opt_u(e.get("retry_after_ms")),
            });
        }
        if let Some(Json::Arr(rels)) = v.get("relations") {
            resp.relations = rels
                .iter()
                .map(relation_from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(Json::Arr(items)) = v.get("deltas") {
            for d in items {
                let rel_list = |key: &str| -> Result<Vec<RelationOut>, String> {
                    match d.get(key) {
                        Some(Json::Arr(rs)) => rs.iter().map(relation_from_json).collect(),
                        _ => Ok(Vec::new()),
                    }
                };
                resp.deltas.push(DeltaOut {
                    view: opt_str(d.get("view")).unwrap_or_default(),
                    added: rel_list("added")?,
                    removed: rel_list("removed")?,
                });
            }
        }
        resp.event = opt_str(v.get("event"));
        if let Some(a @ Json::Obj(_)) = v.get("analysis") {
            resp.analysis = Some(AnalysisOut {
                text: opt_str(a.get("text")).unwrap_or_default(),
                json: opt_str(a.get("json")).unwrap_or_default(),
                errors: u(a.get("errors")),
                warnings: u(a.get("warnings")),
                certified: a.get("certified").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        if let Some(e @ Json::Obj(_)) = v.get("explain") {
            resp.explain = Some(ExplainOut {
                text: opt_str(e.get("text")).unwrap_or_default(),
                json: opt_str(e.get("json")).unwrap_or_default(),
            });
        }
        if let Some(s @ Json::Obj(_)) = v.get("spend") {
            resp.spend = Some(Spend {
                steps: u(s.get("steps")),
                mem_bytes: u(s.get("mem_bytes")),
                elapsed_us: u(s.get("elapsed_us")),
            });
        }
        if let Some(s @ Json::Obj(_)) = v.get("stats") {
            let mut tenants = Vec::new();
            if let Some(Json::Arr(items)) = s.get("tenants") {
                for t in items {
                    tenants.push(TenantStats {
                        tenant: opt_str(t.get("tenant")).unwrap_or_default(),
                        requests: u(t.get("requests")),
                        rejected: u(t.get("rejected")),
                        trips: u(t.get("trips")),
                        spent_steps: u(t.get("spent_steps")),
                        balance_steps: u(t.get("balance_steps")),
                    });
                }
            }
            let mut views = Vec::new();
            if let Some(Json::Arr(items)) = s.get("views") {
                for t in items {
                    views.push(ViewStatsOut {
                        view: opt_str(t.get("view")).unwrap_or_default(),
                        maintain_calls: u(t.get("maintain_calls")),
                        steps_total: u(t.get("steps_total")),
                        steps_last: u(t.get("steps_last")),
                    });
                }
            }
            resp.stats = Some(StatsOut {
                requests: u(s.get("requests")),
                rejected: u(s.get("rejected")),
                trips: u(s.get("trips")),
                cache_hits: u(s.get("cache_hits")),
                cache_misses: u(s.get("cache_misses")),
                p50_us: u(s.get("p50_us")),
                p99_us: u(s.get("p99_us")),
                connections: u(s.get("connections")),
                store_exclusive_reads: u(s.get("store_exclusive_reads")),
                tenants,
                views,
            });
        }
        resp.message = opt_str(v.get("message"));
        resp.rounds = opt_u(v.get("rounds"));
        Ok(resp)
    }
}

/// One JSON object's members, written in call order into a reply
/// buffer.
struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, first: true }
    }

    /// Start member `key`; its value is written to the returned buffer.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        escape_into(self.out, key);
        self.out.push(':');
        self.out
    }

    fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.key(key).push_str(if v { "true" } else { "false" });
    }

    fn u64(&mut self, key: &str, v: u64) {
        let _ = write!(self.key(key), "{v}");
    }

    fn opt_u64(&mut self, key: &str, v: Option<u64>) {
        match v {
            Some(v) => self.u64(key, v),
            None => self.null(key),
        }
    }

    fn str(&mut self, key: &str, v: &str) {
        escape_into(self.key(key), v);
    }

    fn opt_str(&mut self, key: &str, v: Option<&str>) {
        match v {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// A JSON array of `items`, each written by `item`.
fn list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

fn relation_json(out: &mut String, r: &RelationOut) {
    let mut o = Obj::open(out);
    o.str("name", &r.name);
    list(o.key("rows"), &r.rows, |out, row| escape_into(out, row));
    o.key("rows_json").push_str(r.rows_json.as_str());
    o.close();
}

fn stats_json(out: &mut String, s: &StatsOut) {
    let mut o = Obj::open(out);
    o.u64("requests", s.requests);
    o.u64("rejected", s.rejected);
    o.u64("trips", s.trips);
    o.u64("cache_hits", s.cache_hits);
    o.u64("cache_misses", s.cache_misses);
    o.u64("p50_us", s.p50_us);
    o.u64("p99_us", s.p99_us);
    o.u64("connections", s.connections);
    o.u64("store_exclusive_reads", s.store_exclusive_reads);
    list(o.key("tenants"), &s.tenants, |out, t| {
        let mut t_obj = Obj::open(out);
        t_obj.str("tenant", &t.tenant);
        t_obj.u64("requests", t.requests);
        t_obj.u64("rejected", t.rejected);
        t_obj.u64("trips", t.trips);
        t_obj.u64("spent_steps", t.spent_steps);
        t_obj.u64("balance_steps", t.balance_steps);
        t_obj.close();
    });
    list(o.key("views"), &s.views, |out, v| {
        let mut v_obj = Obj::open(out);
        v_obj.str("view", &v.view);
        v_obj.u64("maintain_calls", v.maintain_calls);
        v_obj.u64("steps_total", v.steps_total);
        v_obj.u64("steps_last", v.steps_last);
        v_obj.close();
    });
    o.close();
}

fn relation_from_json(r: &Json) -> Result<RelationOut, String> {
    Ok(RelationOut {
        name: r
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        rows: r
            .get("rows")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
        rows_json: match r.get("rows_json") {
            None => RowsJson::default(),
            Some(v) => RowsJson::from_value(v).map_err(|e| e.message)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // No prelude glob: its `Strategy` trait would shadow the protocol's
    // `Strategy` enum.
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest};

    #[test]
    fn request_defaults_and_wire_names() {
        let r = Request::default();
        assert_eq!(r.op, Op::Eval);
        assert_eq!(r.lang, Lang::Calc);
        assert_eq!(r.mode, Mode::Safe);
        assert_eq!(r.strategy, Strategy::SemiNaive);
        assert!(r.planned, "the served plan unless a request opts out");
        let j = r.to_json();
        assert!(j.contains("\"op\":\"eval\""), "{j}");
        assert!(j.contains("\"strategy\":\"semi-naive\""), "{j}");
    }

    #[test]
    fn request_round_trips_exactly() {
        let r = Request {
            op: Op::Eval,
            lang: Lang::Datalog,
            mode: Mode::Checked,
            strategy: Strategy::Stratified,
            planned: false,
            tenant: "acme".into(),
            text: "rel tc(U, U).\ntc(x, y) :- G(x, y).".into(),
            view: "paths".into(),
            limits: Some(LimitsSpec {
                max_steps: Some(u64::MAX),
                deadline_ms: Some(250),
                ..LimitsSpec::default()
            }),
        };
        let j = r.to_json();
        assert!(!j.contains('\n'), "one line: {j}");
        let back = Request::from_json(&j).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), j, "serialize∘parse∘serialize = serialize");
    }

    #[test]
    fn missing_fields_default_and_unknown_fields_are_ignored() {
        let r = Request::from_json(r#"{"text": "{[x:U] | G(x, x)}", "future": 1}"#).unwrap();
        assert_eq!(r.op, Op::Eval);
        assert_eq!(r.text, "{[x:U] | G(x, x)}");
        assert_eq!(r.limits, None);
        assert!(r.planned, "an absent planned field keeps the default");
    }

    /// Naive rounds and the simultaneous-IFP translation are test
    /// oracles, not wire values: `strategy` names a semantics.
    #[test]
    fn oracle_strategies_are_refused() {
        for name in ["naive", "simultaneous"] {
            let src = format!(r#"{{"lang": "datalog", "strategy": "{name}"}}"#);
            let e = Request::from_json(&src).unwrap_err();
            assert_eq!(e, format!("unknown strategy {name:?}"));
        }
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        for (src, needle) in [
            ("[]", "object"),
            (r#"{"op": "dance"}"#, "unknown op"),
            (r#"{"lang": 3}"#, "must be a string"),
            (r#"{"planned": "yes"}"#, "boolean"),
            (r#"{"limits": {"max_steps": -1}}"#, "non-negative"),
            (r#"{"limits": [1]}"#, "object"),
            ("{", "json error"),
        ] {
            let e = Request::from_json(src).unwrap_err();
            assert!(e.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn response_round_trips() {
        let r = Response {
            ok: true,
            relations: vec![RelationOut {
                name: "result".into(),
                rows: vec!["('a', 'b')".into()],
                rows_json: RowsJson::parse(r#"[["a","b"]]"#).unwrap(),
            }],
            spend: Some(Spend {
                steps: 42,
                mem_bytes: 1024,
                elapsed_us: 7,
            }),
            rounds: Some(3),
            message: Some("ok".into()),
            ..Response::default()
        };
        let j = r.to_json();
        assert!(!j.contains('\n'), "{j}");
        let back = Response::from_json(&j).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), j);
    }

    #[test]
    fn rejection_response_round_trips_retry_after() {
        let mut r = Response::error("rejected", "tenant budget exhausted");
        r.error.as_mut().unwrap().retry_after_ms = Some(350);
        let back = Response::from_json(&r.to_json()).unwrap();
        assert_eq!(back.error.as_ref().unwrap().retry_after_ms, Some(350));
        assert!(!back.ok);
    }

    #[test]
    fn view_ops_and_pushed_deltas_round_trip() {
        let r = Request {
            op: Op::Materialize,
            lang: Lang::Datalog,
            view: "paths".into(),
            text: "rel tc(U, U).\ntc(x, y) :- G(x, y).".into(),
            ..Request::default()
        };
        let back = Request::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        for (op, wire) in [
            (Op::Update, "update"),
            (Op::Subscribe, "subscribe"),
            (Op::Unsubscribe, "unsubscribe"),
        ] {
            let r = Request {
                op,
                view: "paths".into(),
                ..Request::default()
            };
            assert!(r.to_json().contains(&format!("\"op\":\"{wire}\"")));
            assert_eq!(Request::from_json(&r.to_json()).unwrap().op, op);
        }

        // a pushed maintenance event: the marker and deltas survive
        let push = Response {
            ok: true,
            event: Some("delta".into()),
            deltas: vec![DeltaOut {
                view: "paths".into(),
                added: vec![RelationOut {
                    name: "tc".into(),
                    rows: vec!["('a', 'c')".into()],
                    rows_json: RowsJson::parse(r#"[["a","c"]]"#).unwrap(),
                }],
                removed: vec![],
            }],
            ..Response::default()
        };
        let j = push.to_json();
        assert!(!j.contains('\n'), "{j}");
        let back = Response::from_json(&j).unwrap();
        assert_eq!(back, push);
        assert_eq!(back.to_json(), j);
        // replies leave the marker unset, so clients can branch on it
        assert_eq!(Response::message("ok").event, None);
    }

    /// A reply line is one valid JSON value on one line, whatever rows
    /// it carries.
    fn assert_one_valid_line(r: &Response) {
        let j = r.to_json();
        assert!(!j.contains('\n') && !j.contains('\r'), "{j}");
        assert!(json::parse(&j).is_ok(), "{j}");
        assert_eq!(Response::from_json(&j).unwrap().to_json(), j);
    }

    fn reply_with(rows: Vec<String>, rows_json: RowsJson) -> Response {
        Response {
            ok: true,
            relations: vec![RelationOut {
                name: "result".into(),
                rows,
                rows_json,
            }],
            ..Response::default()
        }
    }

    #[test]
    fn empty_rows_json_is_refused_and_no_rows_is_an_empty_array() {
        assert!(RowsJson::parse("").is_err());
        assert!(RowsJson::parse("  ").is_err());
        let none = reply_with(vec![], RowsJson::default());
        assert!(none.to_json().contains(r#""rows":[],"rows_json":[]"#));
        assert_one_valid_line(&none);
    }

    #[test]
    fn newlines_in_rows_json_never_reach_the_line() {
        // insignificant whitespace is dropped, escaped newlines stay escaped
        let rows_json = RowsJson::parse("[\n [\"a\\nb\"],\r\n [\"c\"]\n]").unwrap();
        assert_eq!(rows_json, r#"[["a\nb"],["c"]]"#);
        let r = reply_with(vec!["('a\nb')".into(), "('c')".into()], rows_json);
        assert_one_valid_line(&r);
        // and the same through the structural writer
        let atom = |name: &str| {
            let mut c = CellWriter::default();
            c.atom(name);
            c.finish()
        };
        let mut w = RowsWriter::with_capacity(0);
        w.row([&atom("a\nb")]);
        w.row([&atom("c")]);
        assert_eq!(w.finish(), r.relations[0].rows_json);
    }

    #[test]
    fn malformed_rows_json_is_refused_loudly() {
        for bad in [
            "[[\"a\"]",
            "[\"a\",]",
            "nope",
            "{\"rows\":[]}",
            "\"[]\"",
            "[] []",
        ] {
            assert!(RowsJson::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // a client reading a reply whose rows_json is not an array gets
        // an error, not zero rows
        let line =
            r#"{"ok":true,"relations":[{"name":"r","rows":["('a')"],"rows_json":"[[\"a\"]]"}]}"#;
        let e = Response::from_json(line).unwrap_err();
        assert!(e.contains("rows_json"), "{e}");
        let push = r#"{"ok":true,"deltas":[{"view":"v","added":[{"name":"r","rows_json":{}}]}]}"#;
        assert!(Response::from_json(push).is_err());
    }

    #[test]
    fn stats_response_round_trips_tenants() {
        let r = Response {
            ok: true,
            stats: Some(StatsOut {
                requests: 10,
                rejected: 2,
                trips: 1,
                cache_hits: 5,
                cache_misses: 3,
                p50_us: 500,
                p99_us: 20_000,
                connections: 4,
                store_exclusive_reads: 6,
                tenants: vec![TenantStats {
                    tenant: "acme".into(),
                    requests: 7,
                    rejected: 2,
                    trips: 1,
                    spent_steps: 999,
                    balance_steps: 1,
                }],
                views: vec![ViewStatsOut {
                    view: "paths".into(),
                    maintain_calls: 3,
                    steps_total: 120,
                    steps_last: 12,
                }],
            }),
            ..Response::default()
        };
        let back = Response::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    // The vendored proptest stub re-exports `Strategy` under prelude; alias
    // to avoid clashing with the protocol's own `Strategy` enum.
    use proptest::prelude::Strategy as Strategy2;
    use proptest::test_runner::TestCaseError;

    fn arb_request() -> impl Strategy2<Value = Request> {
        // Vendored-proptest strategies: draw independent parts (Options
        // are drawn as a presence bool plus a payload) and assemble.
        (
            (
                proptest::sample::select(vec![
                    Op::Eval,
                    Op::Analyze,
                    Op::Explain,
                    Op::Insert,
                    Op::Save,
                    Op::Open,
                    Op::Stats,
                    Op::Materialize,
                    Op::Update,
                    Op::Subscribe,
                    Op::Unsubscribe,
                ]),
                proptest::sample::select(vec![Lang::Calc, Lang::Datalog, Lang::Algebra]),
                proptest::sample::select(vec![Mode::Fast, Mode::Safe, Mode::Checked]),
                proptest::sample::select(vec![Strategy::SemiNaive, Strategy::Stratified]),
                any::<bool>(),
                "[ -~]{0,40}",
            ),
            (
                "[ -~\\n\"\\\\]{0,40}",
                "[ -~]{0,20}",
                any::<bool>(),
                (any::<bool>(), any::<u64>()),
                (any::<bool>(), any::<u64>()),
                (any::<bool>(), any::<u64>()),
            ),
        )
            .prop_map(
                |(
                    (op, lang, mode, strategy, planned, tenant),
                    (text, view, has_limits, a, b, c),
                )| {
                    let opt = |(some, v): (bool, u64)| some.then_some(v);
                    Request {
                        op,
                        lang,
                        mode,
                        strategy,
                        planned,
                        tenant,
                        text,
                        view,
                        limits: has_limits.then(|| LimitsSpec {
                            max_steps: opt(a),
                            max_range: opt(b),
                            deadline_ms: opt(c),
                            ..LimitsSpec::default()
                        }),
                    }
                },
            )
    }

    proptest! {
        /// serialize → parse → serialize is the identity, and parse is a
        /// left inverse of serialize, for arbitrary requests (including
        /// embedded newlines, quotes, and backslashes in `text`).
        #[test]
        fn request_json_round_trip(r in arb_request()) {
            let j = r.to_json();
            prop_assert!(!j.contains('\n'));
            let back = Request::from_json(&j).map_err(TestCaseError)?;
            prop_assert_eq!(&back, &r);
            prop_assert_eq!(back.to_json(), j);
        }
    }
}
