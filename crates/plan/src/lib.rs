//! Compile-to-plan: one logical/physical query-plan IR for every engine.
//!
//! All three front-ends of the PODS'91 reproduction — the calculus
//! (CALC_{i,k}), the nested algebra with powerset, and inflationary
//! Datalog¬ — compile into a single logical plan IR ([`ir::Plan`]), get
//! rewritten by a pipeline of semantics-preserving optimizer passes
//! ([`passes`]), and execute as a physical plan ([`physical::Physical`])
//! whose operators bind to the existing interned runtime kernels.
//! Because the kernels already thread the [`no_object::Governor`] at every
//! accounting site, planned evaluation draws the same fuel and trips with
//! the same structured errors as the legacy tree-walk path — which is
//! exactly what the differential suite proves.
//!
//! A CALC query is typechecked once and recognized once
//! (`no_core::conjunctive::decompose`). The answer picks its engine — the
//! columnar kernels, semi-naive rounds, or the tree-walk evaluator, whose
//! served plan is the oracle's — and only that engine's plan is lowered.
//!
//! The pieces:
//!
//! - [`ir`] — the flat-arena logical plan (operators named after the
//!   paper's constructs, down to Definition 5.2/5.3 range rules);
//! - [`lower`] — tree-walk CALC / algebra / Datalog¬ lowering;
//! - [`stats`] — instance statistics (one data pass per instance version)
//!   and schema fingerprints;
//! - [`passes`] — algebra pushdown, the semi-naive delta rewrite, and
//!   governor-aware early-trip annotation;
//! - [`joins`] — the join-algorithms pass: flat CALC (a union of
//!   conjunctive disjuncts) and flat algebra expressions lower to the
//!   columnar `no-exec` kernels, with a statistics-driven algorithm
//!   picked per join and recorded in the plan;
//! - [`ifp`] — the positive-existential fragment of CALC+IFP compiles to a
//!   Datalog program, so its fixpoints run on the semi-naive round engine;
//! - [`maintenance`] — strata and per-stratum maintenance strategies for
//!   incremental view maintenance;
//! - [`physical`] — the executable plan and its kernel bindings;
//! - [`explain`] — deterministic text/JSON renderings (`:explain`);
//! - [`cache`] — the LRU plan cache keyed on normalized text + schema
//!   fingerprint.

#![warn(missing_docs)]

pub mod cache;
pub mod explain;
pub mod ifp;
pub mod ir;
pub mod joins;
pub mod lower;
pub mod maintenance;
pub mod passes;
pub mod physical;
pub mod stats;

pub use cache::{CacheKey, PlanCache, PlanKind};
pub use explain::{json_escape, plan_tree_text};
pub use ifp::lower_ifp;
pub use ir::{Node, NodeId, Op, Plan};
pub use joins::{choose_join, ExecLowering};
pub use lower::{lower_algebra, lower_calc, lower_datalog};
pub use maintenance::{plan_maintenance, MaintenancePlan, MaintenanceStrategy, StratumPlan};
pub use passes::{delta_rewrite, Pass};
pub use physical::{Answers, CalcMode, DatalogMode, ExecOrigin, Output, Physical, PlanError};
pub use stats::{schema_fingerprint, Stats};

use no_algebra::Expr;
use no_core::conjunctive::FixpointQuery;
use no_core::error::EvalError;
use no_core::print::Printer;
use no_core::typeck::{self, Checked};
use no_core::Query;
use no_datalog::Program;
use no_object::{Governor, Instance, Limits, Schema};

/// The planner: owns the inputs optimization needs (schema, optional
/// statistics, optional governor limits). It has two configurations: the
/// served pipeline ([`Planner::new`]) and the tree-walk oracle
/// ([`Planner::oracle`]) the differential suites hold it to.
pub struct Planner<'a> {
    schema: &'a Schema,
    stats: Option<Stats>,
    limits: Option<Limits>,
    oracle: bool,
}

impl<'a> Planner<'a> {
    /// The served planner for `schema`, with no stats or limits (stats
    /// unlock estimates and join choices; limits unlock trip warnings).
    pub fn new(schema: &'a Schema) -> Self {
        Planner {
            schema,
            stats: None,
            limits: None,
            oracle: false,
        }
    }

    /// The oracle planner: CALC runs on the tree-walk evaluator (the
    /// served planner's own fallback plan) and the algebra on its
    /// bottom-up evaluator, exactly as lowered, with no rewrite. Datalog
    /// plans are the served ones, since every strategy runs on the one
    /// round engine.
    pub fn oracle(schema: &'a Schema) -> Self {
        Planner {
            oracle: true,
            ..Planner::new(schema)
        }
    }

    /// Use instance statistics (enables join choices and cardinality
    /// estimates in `:explain`).
    pub fn with_stats(mut self, stats: Stats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Use the instance's statistics (collected once per version),
    /// including exact per-column distinct counts, which the
    /// join-algorithms pass uses to pick per-join algorithms.
    pub fn with_instance(self, instance: &Instance) -> Self {
        self.with_stats(Stats::of(instance))
    }

    /// Use governor limits (enables early-trip warnings in the plan).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Plan a CALC query under the given semantics. The query is
    /// typechecked once, for its `⟨i,k⟩` class line, and recognized once
    /// by `no_core::conjunctive::decompose`; only the engine that runs
    /// is lowered:
    ///
    /// - no fixpoint: the columnar join kernels, a union of conjunctive
    ///   plans when the body has several disjuncts. Every variable is
    ///   restricted by a positive atom (rule 1 of Definition 5.2), so the
    ///   two semantics coincide and one physical plan serves both;
    /// - fixpoints: semi-naive Datalog rounds (see [`ifp`]), for the same
    ///   reason in both modes;
    /// - anything else, and every query the oracle plans: the tree-walk.
    pub fn plan_calc(&self, query: &Query, mode: CalcMode) -> Result<Planned, PlanError> {
        let checked = typeck::check(self.schema, &query.head, &query.body)
            .map_err(|e| PlanError::Calc(EvalError::ShapeError(e.to_string())))?;
        let (i, k) = checked.ik();
        let class = format!("query class: CALC⟨i={i}, k={k}⟩");
        let mode_label = match mode {
            CalcMode::ActiveDomain => "active-domain",
            CalcMode::Safe => "safe",
        };
        if self.oracle {
            return Ok(self.tree_walk(query, mode, mode_label, checked, vec![class]));
        }
        let note = match no_core::conjunctive::decompose(query) {
            Ok(fq) if fq.fixpoints.is_empty() => {
                let lowering = joins::lower_union_calc(
                    &fq.disjuncts,
                    &query.output_types(),
                    self.stats.as_ref(),
                );
                let class_note = match fq.disjuncts.len() {
                    1 => "flat conjunctive query: lowered to columnar join kernels",
                    _ => "disjunctive query: lowered to a union of conjunctive plans",
                };
                let mut header = vec![class, class_note.to_string()];
                header.extend(lowering.notes);
                let physical = Physical::Exec {
                    plan: lowering.exec,
                    origin: ExecOrigin::Calc,
                };
                let applied = vec![Pass::Joins.name()];
                return Ok(self.finish(
                    lowering.plan,
                    physical,
                    "calc",
                    mode_label,
                    applied,
                    header,
                ));
            }
            Ok(fq) => match self.plan_ifp(query, &fq, &class, mode_label) {
                Ok(planned) => return Ok(planned),
                Err(why) => Some(why),
            },
            Err(why) => (no_core::nf::metrics(&query.body).fixpoint_depth > 0).then_some(why),
        };
        let mut header = vec![class];
        header.extend(note.map(|why| format!("fixpoints run on the tree-walk oracle: {why}")));
        Ok(self.tree_walk(query, mode, mode_label, checked, header))
    }

    /// The tree-walk plan of a typechecked query, the same for the oracle
    /// and the served fallback: the query runs as written.
    fn tree_walk(
        &self,
        query: &Query,
        mode: CalcMode,
        mode_label: &str,
        checked: Checked,
        header: Vec<String>,
    ) -> Planned {
        let plan = lower::lower_calc(self.schema, self.stats.as_ref(), query, &checked.var_types);
        let physical = Physical::Calc {
            query: query.clone(),
            var_types: checked.var_types,
            mode,
        };
        self.finish(plan, physical, "calc", mode_label, vec![], header)
    }

    /// The Datalog plan of a query in the positive-existential fragment
    /// of CALC+IFP, recognized as `fq` (see [`ifp`]), or why it has none.
    /// Rendered and delta-rewritten like a semi-naive Datalog request.
    fn plan_ifp(
        &self,
        query: &Query,
        fq: &FixpointQuery,
        class: &str,
        mode_label: &str,
    ) -> Result<Planned, no_core::conjunctive::Reject> {
        let (program, result) = ifp::lower_ifp(self.schema, query, fq)?;
        let plan = lower::lower_datalog(
            self.schema,
            self.stats.as_ref(),
            &program,
            DatalogMode::SemiNaive,
        )
        .map_err(|e| e.to_string())?;
        let plan = passes::delta_rewrite(&plan, &program.idb.keys().cloned().collect());
        let header = vec![
            class.to_string(),
            "closed positive-existential IFP: lowered to semi-naive Datalog rounds".to_string(),
            format!(
                "{} rule(s), {} idb relation(s), answer in {result}",
                program.rules.len(),
                program.idb.len()
            ),
        ];
        let physical = Physical::Ifp { program, result };
        let applied = vec![Pass::Delta.name()];
        Ok(self.finish(plan, physical, "calc", mode_label, applied, header))
    }

    /// Plan an algebra expression.
    pub fn plan_algebra(&self, expr: &Expr) -> Result<Planned, PlanError> {
        if self.oracle {
            let plan = lower::lower_algebra(self.schema, self.stats.as_ref(), expr)?;
            let physical = Physical::Algebra { expr: expr.clone() };
            return Ok(self.finish(plan, physical, "algebra", "bottom-up", vec![], vec![]));
        }
        let mut applied = vec![Pass::Pushdown.name()];
        let mut header = Vec::new();
        let (expr, changed) = passes::pushdown_expr(expr, self.schema);
        if changed {
            header.push("selections pushed toward scans".to_string());
        }
        let plan = lower::lower_algebra(self.schema, self.stats.as_ref(), &expr)?;

        // Flat expressions (no nest/unnest/powerset) lower to the
        // columnar kernels; σ-over-product with cross-side equalities
        // becomes an equi-join with a planner-chosen algorithm. The
        // lowering above already validated the expression, so error
        // behavior is identical on both paths.
        if let Some(lowering) = joins::lower_algebra_exec(&expr, self.schema, self.stats.as_ref()) {
            applied.push(Pass::Joins.name());
            header.push("flat expression: lowered to columnar join kernels".to_string());
            header.extend(lowering.notes);
            let physical = Physical::Exec {
                plan: lowering.exec,
                origin: ExecOrigin::Algebra,
            };
            return Ok(self.finish(
                lowering.plan,
                physical,
                "algebra",
                "columnar",
                applied,
                header,
            ));
        }

        let physical = Physical::Algebra { expr };
        Ok(self.finish(plan, physical, "algebra", "bottom-up", applied, header))
    }

    /// Plan a Datalog¬ program. Both semantics run on the one round
    /// engine, so the oracle planner builds the same plan; an
    /// inflationary plan always carries the semi-naive delta rewrite.
    pub fn plan_datalog(&self, program: &Program, mode: DatalogMode) -> Result<Planned, PlanError> {
        let mut applied = vec![Pass::Joins.name()];
        let header = vec![
            format!(
                "{} rule(s), {} idb relation(s)",
                program.rules.len(),
                program.idb.len()
            ),
            "joins probe per-column hash indexes; delta rules run HashJoin(probe=Δ)".to_string(),
        ];
        let mut plan = lower::lower_datalog(self.schema, self.stats.as_ref(), program, mode)?;
        if mode == DatalogMode::SemiNaive {
            applied.push(Pass::Delta.name());
            let idb = program.idb.keys().cloned().collect();
            plan = passes::delta_rewrite(&plan, &idb);
        }
        let physical = Physical::Datalog {
            program: program.clone(),
            mode,
        };
        Ok(self.finish(plan, physical, "datalog", mode.label(), applied, header))
    }

    /// Shared tail of every front-end: trip annotation, packaging.
    fn finish(
        &self,
        mut plan: Plan,
        physical: Physical,
        engine: &'static str,
        mode_label: &str,
        mut applied: Vec<&'static str>,
        header: Vec<String>,
    ) -> Planned {
        let mut warnings = Vec::new();
        if let Some(limits) = &self.limits {
            applied.push(Pass::Trips.name());
            warnings = passes::governor_trips(&mut plan, limits);
        }
        Planned {
            plan,
            physical,
            engine,
            mode_label: mode_label.to_string(),
            passes: applied,
            header,
            warnings,
        }
    }
}

/// A finished plan: the logical IR for explaining, the physical form for
/// executing, and the provenance the renderings show.
#[derive(Debug)]
pub struct Planned {
    /// The (optimized) logical plan.
    pub plan: Plan,
    /// The executable physical plan.
    pub physical: Physical,
    /// `"calc"`, `"algebra"`, or `"datalog"`.
    pub engine: &'static str,
    /// Semantics/strategy within the engine.
    pub mode_label: String,
    /// Names of the optimizer passes that ran, in pipeline order.
    pub passes: Vec<&'static str>,
    /// Extra header lines (query class, pins, rewrite notes).
    pub header: Vec<String>,
    /// Early-trip warnings from the governor pass.
    pub warnings: Vec<String>,
}

impl Planned {
    /// The stable text rendering behind `:explain`.
    pub fn render_text(&self) -> String {
        let mut out = format!("plan: {} ({})\n", self.engine, self.mode_label);
        let passes = if self.passes.is_empty() {
            "(none)".to_string()
        } else {
            self.passes.join(", ")
        };
        out.push_str(&format!("passes: {passes}\n"));
        for h in &self.header {
            out.push_str(h);
            out.push('\n');
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: ⚠ {w}\n"));
        }
        out.push_str(&explain::plan_tree_text(&self.plan));
        out
    }

    /// The stable JSON rendering behind `nestdb explain --format json`.
    pub fn render_json(&self) -> String {
        use explain::json_escape as esc;
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| format!("\"{}\"", esc(p)))
            .collect();
        let header: Vec<String> = self
            .header
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect();
        let warnings: Vec<String> = self
            .warnings
            .iter()
            .map(|w| format!("\"{}\"", esc(w)))
            .collect();
        format!(
            "{{\"engine\": \"{}\", \"mode\": \"{}\", \"passes\": [{}], \"header\": [{}], \"warnings\": [{}], \"root\": {}}}",
            esc(self.engine),
            esc(&self.mode_label),
            passes.join(", "),
            header.join(", "),
            warnings.join(", "),
            explain::node_json(&self.plan, self.plan.root),
        )
    }

    /// [`Physical::execute`] with an ignored third argument, kept only so
    /// the benchmark's trace replay builds; ROADMAP item 1(b)'s
    /// benchmark-only PR deletes it.
    #[doc(hidden)]
    pub fn execute(
        &self,
        instance: &Instance,
        governor: &Governor,
        _pool: &ThreadPool,
    ) -> Result<Output, PlanError> {
        self.physical.execute(instance, governor)
    }
}

/// An inert stand-in for the worker pool evaluation no longer takes,
/// kept only so the benchmark's trace replay builds; ROADMAP item 1(b)'s
/// benchmark-only PR deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool;

impl ThreadPool {
    /// Ignores `threads`: a request runs on one thread.
    pub fn new(_threads: usize) -> ThreadPool {
        ThreadPool
    }
}

/// Cache key for a CALC query (normalized through the deterministic
/// printer, so formatting differences in source text don't split entries).
pub fn calc_key(schema: &Schema, query: &Query, mode: CalcMode) -> CacheKey {
    CacheKey {
        kind: match mode {
            CalcMode::ActiveDomain => PlanKind::CalcActiveDomain,
            CalcMode::Safe => PlanKind::CalcSafe,
        },
        mode: String::new(),
        text: Printer::new().query(query),
        schema: schema_fingerprint(schema),
    }
}

/// Cache key for an algebra expression.
pub fn algebra_key(schema: &Schema, expr: &Expr) -> CacheKey {
    CacheKey {
        kind: PlanKind::Algebra,
        mode: String::new(),
        text: expr.to_string(),
        schema: schema_fingerprint(schema),
    }
}

/// Cache key for a Datalog¬ program under a named strategy.
pub fn datalog_key(schema: &Schema, program: &Program, strategy: &str) -> CacheKey {
    CacheKey {
        kind: PlanKind::Datalog,
        mode: strategy.to_string(),
        text: program.to_string(),
        schema: schema_fingerprint(schema),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_core::ast::{Formula, Term};
    use no_object::{Atom, RelationSchema, Type, Universe, Value};

    fn graph() -> (Schema, Instance) {
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema.clone());
        let _u = Universe::with_names(["a", "b", "c"]);
        for (x, y) in [(0u32, 1u32), (1, 2)] {
            i.insert("G", vec![Value::Atom(Atom(x)), Value::Atom(Atom(y))]);
        }
        (schema, i)
    }

    fn edge_query() -> Query {
        Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
        )
    }

    #[test]
    fn planned_calc_matches_direct_evaluation() {
        let (schema, inst) = graph();
        let q = edge_query();
        let planner = Planner::new(&schema).with_instance(&inst);
        let planned = planner.plan_calc(&q, CalcMode::Safe).unwrap();
        let gov = Governor::unlimited();
        let rel = planned
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        assert_eq!(rel.len(), 2);
        // The conjunctive query takes the columnar path...
        assert!(matches!(planned.physical, Physical::Exec { .. }));
        assert!(planned.render_text().contains("join-algorithms"));
        // ...and the oracle, the tree-walk safe-evaluation plan.
        let oracle = Planner::oracle(&schema)
            .plan_calc(&q, CalcMode::Safe)
            .unwrap();
        assert!(oracle.render_text().contains("range x ← rule 1"));
        let orel = oracle
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        assert_eq!(rel, orel, "columnar and oracle plans agree");
    }

    #[test]
    fn disjunctive_query_lowers_to_union_of_conjunctive_plans() {
        let (schema, inst) = graph();
        // q(x, y) :- G(x, y) \/ G(y, x) — the symmetric closure.
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::or([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
                Formula::Rel("G".to_string(), vec![Term::var("y"), Term::var("x")]),
            ]),
        );
        let gov = Governor::unlimited();
        let planned = Planner::new(&schema)
            .with_instance(&inst)
            .plan_calc(&q, CalcMode::Safe)
            .unwrap();
        assert!(
            matches!(planned.physical, Physical::Exec { .. }),
            "disjunctive fragment takes the columnar path"
        );
        assert!(planned
            .header
            .iter()
            .any(|h| h.contains("union of conjunctive plans")));
        let rel = planned
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        // edges (a,b),(b,c) plus their reversals = 4 rows
        assert_eq!(rel.len(), 4);
        // the tree-walk oracle agrees
        let baseline = Planner::oracle(&schema)
            .plan_calc(&q, CalcMode::Safe)
            .unwrap()
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        assert_eq!(rel, baseline);
    }

    #[test]
    fn pinned_constant_restricts_output() {
        let (schema, inst) = graph();
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
                Formula::Eq(Term::var("x"), Term::Const(Value::Atom(Atom(0)))),
            ]),
        );
        let planner = Planner::new(&schema).with_instance(&inst);
        for mode in [CalcMode::ActiveDomain, CalcMode::Safe] {
            let planned = planner.plan_calc(&q, mode).unwrap();
            let gov = Governor::unlimited();
            let rel = planned
                .physical
                .execute(&inst, &gov)
                .unwrap()
                .into_relation();
            assert_eq!(rel.len(), 1, "only the edge out of atom 0");
        }
    }

    #[test]
    fn cache_keys_normalize_and_separate() {
        let (schema, _) = graph();
        let q = edge_query();
        let k1 = calc_key(&schema, &q, CalcMode::Safe);
        let k2 = calc_key(&schema, &q.clone(), CalcMode::Safe);
        assert_eq!(k1, k2);
        let k3 = calc_key(&schema, &q, CalcMode::ActiveDomain);
        assert_ne!(k1, k3, "semantics are part of the key");
    }
}
