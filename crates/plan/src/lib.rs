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
//! The pieces:
//!
//! - [`ir`] — the flat-arena logical plan (operators named after the
//!   paper's constructs, down to Definition 5.2/5.3 range rules);
//! - [`lower`] — CALC / algebra / Datalog¬ lowering;
//! - [`stats`] — instance statistics (one data pass per instance version)
//!   and schema fingerprints;
//! - [`passes`] — pushdown, quantifier reordering, the semi-naive delta
//!   rewrite, and governor-aware early-trip annotation;
//! - [`joins`] — the join-algorithms pass: flat conjunctive CALC and flat
//!   algebra expressions lower to the columnar `no-exec` kernels, with a
//!   statistics-driven algorithm picked per join (hash / merge / nested
//!   loop) and recorded in the plan;
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
pub use lower::{lower_algebra, lower_calc, lower_datalog, CalcLowering};
pub use maintenance::{plan_maintenance, MaintenancePlan, MaintenanceStrategy, StratumPlan};
pub use passes::{delta_rewrite, Pass};
pub use physical::{Answers, CalcMode, DatalogMode, ExecOrigin, Output, Physical, PlanError};
pub use stats::{schema_fingerprint, Stats};

use no_algebra::Expr;
use no_core::print::Printer;
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
    /// unlock reordering; limits unlock trip warnings).
    pub fn new(schema: &'a Schema) -> Self {
        Planner {
            schema,
            stats: None,
            limits: None,
            oracle: false,
        }
    }

    /// The oracle planner: CALC runs on the tree-walk evaluator and the
    /// algebra on its bottom-up evaluator, exactly as lowered, with no
    /// rewrite. Datalog plans are the served ones, since every strategy
    /// runs on the one round engine.
    pub fn oracle(schema: &'a Schema) -> Self {
        Planner {
            oracle: true,
            ..Planner::new(schema)
        }
    }

    /// Use instance statistics (enables quantifier reordering and
    /// cardinality estimates in `:explain`).
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

    /// Plan a CALC query under the given semantics.
    pub fn plan_calc(&self, query: &Query, mode: CalcMode) -> Result<Planned, PlanError> {
        let lowered = lower::lower_calc(self.schema, self.stats.as_ref(), query)?;
        let mode_label = match mode {
            CalcMode::ActiveDomain => "active-domain",
            CalcMode::Safe => "safe",
        };
        let class = format!("query class: CALC⟨i={}, k={}⟩", lowered.ik.0, lowered.ik.1);
        if self.oracle {
            let physical = Physical::Calc {
                query: query.clone(),
                var_types: lowered.var_types,
                mode,
                restore: None,
                pins: Vec::new(),
            };
            let header = vec![class];
            return Ok(self.finish(lowered.plan, physical, "calc", mode_label, vec![], header));
        }

        // Closed positive-existential IFPs compile to a Datalog program
        // and run on the semi-naive round engine; one physical plan
        // serves both modes for the same reason as below. Any other
        // fixpoint query stays on the tree-walk evaluator and says why.
        let mut oracle_note = None;
        if no_core::nf::metrics(&query.body).fixpoint_depth > 0 {
            match self.plan_ifp(query, &class, mode_label) {
                Ok(planned) => return Ok(planned),
                Err(why) => {
                    oracle_note = Some(format!("fixpoints run on the tree-walk oracle: {why}"))
                }
            }
        }

        // Flat conjunctive queries lower to the columnar join kernels
        // instead of quantifier enumeration: the recognized fragment has
        // identical active-domain and safe semantics (every variable is
        // restricted by a positive atom — rule 1 of Definition 5.2), so
        // one physical plan serves both modes.
        let head_types: Vec<no_object::Type> = query.head.iter().map(|(_, t)| t.clone()).collect();
        let lowering = if let Some(cq) = no_core::conjunctive::decompose(query) {
            Some((
                joins::lower_conjunctive_calc(&cq, &head_types, self.stats.as_ref()),
                "flat conjunctive query: lowered to columnar join kernels",
            ))
        } else {
            // The non-conjunctive fragment reachable by union: a
            // top-level disjunction of flat conjunctive disjuncts
            // lowers to a union of conjunctive plans.
            no_core::conjunctive::decompose_union(query).map(|cqs| {
                (
                    joins::lower_union_calc(&cqs, &head_types, self.stats.as_ref()),
                    "disjunctive query: lowered to a union of conjunctive plans",
                )
            })
        };
        if let Some((lowering, class_note)) = lowering {
            let applied = vec![Pass::Joins.name()];
            let mut header = vec![class, class_note.to_string()];
            header.extend(lowering.notes);
            let physical = Physical::Exec {
                plan: lowering.exec,
                origin: ExecOrigin::Calc,
            };
            return Ok(self.finish(lowering.plan, physical, "calc", mode_label, applied, header));
        }

        let mut plan = lowered.plan;
        let mut query = query.clone();
        let mut applied = vec![Pass::Pushdown.name()];
        let mut header = vec![class];
        header.extend(oracle_note);

        // Pushdown: top-level `v = c` conjuncts pin ranges to singletons.
        let printer = Printer::new();
        let pins = passes::calc_pins(&query);
        for (v, c) in &pins {
            if let Some(pos) = query.head.iter().position(|(hv, _)| hv == v) {
                let id = lowered.range_nodes[pos];
                plan.nodes[id].est = Some(1);
                plan.nodes[id].note = Some(format!("pinned to {} by pushdown", printer.value(c)));
            }
            header.push(format!(
                "pinned: {v} = {} (top-level equality)",
                printer.value(c)
            ));
        }

        // Reorder: enumerate the cheapest range first; a RestoreColumns
        // root puts the output back in source order.
        let mut restore = None;
        if self.stats.is_some() {
            applied.push(Pass::Reorder.name());
            let ests: Vec<Option<u64>> = lowered
                .range_nodes
                .iter()
                .map(|&id| plan.nodes[id].est)
                .collect();
            if let Some(perm) = passes::sort_permutation(&ests) {
                let head = query.head.clone();
                query.head = perm.iter().map(|&i| head[i].clone()).collect();
                let en = lowered.enumerate;
                let matrix = *plan.nodes[en].children.last().expect("matrix child");
                let mut children: Vec<NodeId> =
                    perm.iter().map(|&i| lowered.range_nodes[i]).collect();
                children.push(matrix);
                plan.nodes[en].children = children;
                if let Op::Enumerate { vars } = &mut plan.nodes[en].op {
                    *vars = query.head.iter().map(|(v, _)| v.clone()).collect();
                }
                let est = plan.nodes[en].est;
                plan.root = plan.add_est(Op::RestoreColumns { perm: perm.clone() }, vec![en], est);
                header.push("quantifiers reordered by estimated range size".to_string());
                restore = Some(perm);
            }
        }

        let physical = Physical::Calc {
            query,
            var_types: lowered.var_types,
            mode,
            restore,
            pins,
        };
        Ok(self.finish(plan, physical, "calc", mode_label, applied, header))
    }

    /// The Datalog plan of a query in the positive-existential fragment
    /// of CALC+IFP (see [`ifp`]), or why it has none. Rendered and
    /// delta-rewritten like a semi-naive Datalog request.
    fn plan_ifp(
        &self,
        query: &Query,
        class: &str,
        mode_label: &str,
    ) -> Result<Planned, no_core::conjunctive::Reject> {
        let (program, result) = ifp::lower_ifp(self.schema, query)?;
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
    fn reorder_restores_column_order() {
        // Head (x, y) where y's best relation (E, 1 row) is smaller than
        // x's (G, 3 rows) forces a permutation; columns must come back in
        // source order.
        let schema2 = Schema::from_relations([
            RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
            RelationSchema::new("E", vec![Type::Atom]),
        ]);
        let mut inst = Instance::empty(schema2.clone());
        for (x, y) in [(0u32, 1u32), (1, 2), (2, 0)] {
            inst.insert("G", vec![Value::Atom(Atom(x)), Value::Atom(Atom(y))]);
        }
        inst.insert("E", vec![Value::Atom(Atom(2))]);
        // The negated conjunct keeps the query outside the join fragment,
        // so it is served by quantifier enumeration, which reorders.
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
                Formula::Rel("E".to_string(), vec![Term::var("y")]),
                Formula::Not(Box::new(Formula::Rel(
                    "G".to_string(),
                    vec![Term::var("y"), Term::var("x")],
                ))),
            ]),
        );
        let planner = Planner::new(&schema2).with_instance(&inst);
        let planned = planner.plan_calc(&q, CalcMode::Safe).unwrap();
        match &planned.physical {
            Physical::Calc { restore, .. } => {
                assert_eq!(restore.as_deref(), Some(&[1usize, 0][..]), "y first");
            }
            _ => unreachable!(),
        }
        let gov = Governor::unlimited();
        let rel = planned
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        // G(1,2) ∧ E(2) ∧ ¬G(2,1): row must come back as (x=1, y=2), not
        // permuted.
        let row = rel.iter().next().unwrap().clone();
        assert_eq!(row, vec![Value::Atom(Atom(1)), Value::Atom(Atom(2))]);
        // the unpermuted oracle agrees
        let oracle = Planner::oracle(&schema2)
            .plan_calc(&q, CalcMode::Safe)
            .unwrap()
            .physical
            .execute(&inst, &gov)
            .unwrap()
            .into_relation();
        assert_eq!(rel, oracle);
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
