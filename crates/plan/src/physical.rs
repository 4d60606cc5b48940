//! The physical plan: the executable counterpart of a logical [`crate::ir::Plan`].
//!
//! Physical operators bind directly to the runtime engines, each run on
//! the request's one thread: the CALC [`Evaluator`] (the tree walk, which
//! also serves as the oracle plan), the bottom-up algebra evaluator, the
//! semi-naive Datalog¬ round engine and the columnar `no-exec` kernels.
//! Every engine threads the [`Governor`] fuel/memory accounting at every
//! site, so each physical path draws from the same meters and trips with
//! the same structured [`ResourceError`]s. What the planner changes is
//! *which* engine invocation runs (kernels, rounds with delta rewriting,
//! pushed-down selections), never how work is accounted; a tree-walk
//! plan runs its query exactly as written.

use no_algebra::{AlgebraError, Expr};
use no_core::ast::VarName;
use no_core::error::EvalError;
use no_core::eval::{active_order, Evaluator};
use no_core::ranges::compute_ranges_governed;
use no_core::Query;
use no_datalog::{
    eval_interned, eval_stratified_interned, EvalStats, Idb, InternedIdb, Program, ProgramError,
    Strategy, StratifyError,
};
use no_exec::Answer;
use no_object::{Governor, Instance, Interner, Relation, ResourceError, Type};
use std::collections::BTreeMap;
use std::fmt;

/// Which CALC semantics the plan executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CalcMode {
    /// Active-domain enumeration (Definition 5.1).
    ActiveDomain,
    /// Restricted-domain safe evaluation (Theorem 5.1): compute ranges,
    /// enumerate only them.
    Safe,
}

/// Which Datalog¬ semantics the plan executes. Both run on the semi-naive
/// round engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatalogMode {
    /// Inflationary semantics (the paper's).
    SemiNaive,
    /// Stratified semantics (per-stratum fixpoints).
    Stratified,
}

impl DatalogMode {
    /// The semantics' name in plan renderings and cache keys.
    pub fn label(self) -> &'static str {
        match self {
            DatalogMode::SemiNaive => "semi-naive",
            DatalogMode::Stratified => "stratified",
        }
    }
}

/// An executable plan. Payloads are the optimized front-end forms the
/// runtime kernels accept; the paired logical [`crate::ir::Plan`] documents the
/// same computation operator by operator.
#[derive(Clone, Debug)]
pub enum Physical {
    /// A CALC query on the tree-walk evaluator: the oracle's plan, and
    /// the served plan of every query outside the recognized fragment.
    Calc {
        /// The query to run, as written.
        query: Query,
        /// Variable typings from plan-time typechecking (safe mode needs
        /// them to recompute ranges per instance).
        var_types: BTreeMap<VarName, Type>,
        /// Semantics.
        mode: CalcMode,
    },
    /// An algebra expression (after pushdown rewrites).
    Algebra {
        /// The optimized expression.
        expr: Expr,
    },
    /// A Datalog¬ program under one of its two semantics.
    Datalog {
        /// The program.
        program: Program,
        /// The semantics.
        mode: DatalogMode,
    },
    /// A CALC query in the positive-existential fragment of CALC+IFP,
    /// compiled to a Datalog program (see [`crate::ifp`]) and run by the
    /// semi-naive round engine.
    Ifp {
        /// The program: one IDB per fixpoint, one rule per disjunct.
        program: Program,
        /// The IDB relation that holds the query's answer.
        result: String,
    },
    /// A columnar plan over the `no-exec` kernels, produced by the
    /// join-algorithms pass for flat conjunctive CALC queries and flat
    /// algebra expressions.
    Exec {
        /// The operator arena to run.
        plan: no_exec::ExecPlan,
        /// Which front-end produced it (decides how a resource trip is
        /// wrapped, so `Session` error chains stay per-engine).
        origin: ExecOrigin,
    },
}

/// The front-end a [`Physical::Exec`] plan came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecOrigin {
    /// Lowered from a CALC query.
    Calc,
    /// Lowered from an algebra expression.
    Algebra,
}

/// Every IDB relation of a Datalog answer, by name.
pub type Answers = BTreeMap<String, Answer>;

/// What a plan execution produced: answers as ids over the arena they
/// live in. The columnar executor, the algebra evaluator and the round
/// engine answer in the ids they computed; the tree-walk CALC evaluator
/// has its answer interned into an arena of its own, uncharged.
#[derive(Debug)]
pub enum Output {
    /// A single relation (CALC and algebra plans).
    Relation(Answer),
    /// All IDB relations (Datalog plans), with engine stats when the
    /// semantics reports them (inflationary rounds do).
    Idb(Answers, Option<EvalStats>),
}

impl Output {
    /// The relation of a CALC/algebra plan, resolved to values.
    ///
    /// # Panics
    /// Panics on Datalog output — caller mismatch is a bug.
    pub fn into_relation(self) -> Relation {
        match self {
            Output::Relation(r) => r.to_relation(),
            Output::Idb(..) => panic!("expected a relation, got an IDB"),
        }
    }

    /// The IDB of a Datalog plan, resolved to values.
    ///
    /// # Panics
    /// Panics on relation output — caller mismatch is a bug.
    pub fn into_idb(self) -> Idb {
        match self {
            Output::Idb(idb, _) => idb
                .into_iter()
                .map(|(name, rel)| (name, rel.to_relation()))
                .collect(),
            Output::Relation(_) => panic!("expected an IDB, got a relation"),
        }
    }
}

/// IDB relation `name` of the round engine's answer, over its arena.
fn answer(program: &Program, idb: &InternedIdb, name: &str) -> Answer {
    let arity = program.idb.get(name).map_or(0, Vec::len);
    Answer::from_ids(&idb.relations()[name], arity, idb.interner().clone())
}

/// Every IDB relation of the round engine's answer.
fn answers(program: &Program, idb: &InternedIdb) -> Answers {
    (idb.relations().keys())
        .map(|name| (name.clone(), answer(program, idb, name)))
        .collect()
}

/// Errors from planning or executing a plan, wrapping each engine's
/// structured error unchanged (so governor trips keep their payloads).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// CALC lowering/execution failed.
    Calc(EvalError),
    /// Algebra lowering/execution failed.
    Algebra(AlgebraError),
    /// Datalog execution failed.
    Datalog(ProgramError),
    /// Stratified execution failed.
    Stratify(StratifyError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Calc(e) => write!(f, "{e}"),
            PlanError::Algebra(e) => write!(f, "{e}"),
            PlanError::Datalog(e) => write!(f, "{e}"),
            PlanError::Stratify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// The structured resource trip inside, when the failure is one.
    pub fn resource(&self) -> Option<&ResourceError> {
        match self {
            PlanError::Calc(EvalError::Resource(r)) => Some(r),
            PlanError::Algebra(AlgebraError::Resource(r)) => Some(r),
            PlanError::Datalog(ProgramError::Resource(r)) => Some(r),
            PlanError::Stratify(StratifyError::Program(ProgramError::Resource(r))) => Some(r),
            _ => None,
        }
    }
}

impl From<EvalError> for PlanError {
    fn from(e: EvalError) -> Self {
        PlanError::Calc(e)
    }
}

impl From<AlgebraError> for PlanError {
    fn from(e: AlgebraError) -> Self {
        PlanError::Algebra(e)
    }
}

impl Physical {
    /// Execute the plan on an instance, drawing from `governor` — the
    /// same contract as every engine entry point.
    pub fn execute(&self, instance: &Instance, governor: &Governor) -> Result<Output, PlanError> {
        match self {
            Physical::Calc {
                query,
                var_types,
                mode,
            } => {
                let order = active_order(instance, query);
                let mut ev = Evaluator::with_governor(instance, order, governor.clone());
                if *mode == CalcMode::Safe {
                    let ranges =
                        compute_ranges_governed(instance, var_types, &query.body, governor)?;
                    ev = ev.with_ranges(ranges.to_range_map());
                }
                let rel = ev.query(query)?;
                Ok(Output::Relation(Answer::intern(&rel, &Interner::new())))
            }
            Physical::Algebra { expr } => {
                let (rel, arena) = no_algebra::eval_interned(expr, instance, governor)?;
                let arity = expr.output_types(instance.schema())?.len();
                Ok(Output::Relation(Answer::from_ids(&rel, arity, arena)))
            }
            Physical::Datalog { program, mode } => match mode {
                DatalogMode::SemiNaive => {
                    let (idb, stats) =
                        eval_interned(program, instance, Strategy::SemiNaive, governor)
                            .map_err(PlanError::Datalog)?;
                    Ok(Output::Idb(answers(program, &idb), Some(stats)))
                }
                DatalogMode::Stratified => {
                    let idb = eval_stratified_interned(program, instance, governor)
                        .map_err(PlanError::Stratify)?;
                    Ok(Output::Idb(answers(program, &idb), None))
                }
            },
            Physical::Ifp { program, result } => {
                // A trip is a CALC trip: the caller asked a CALC question.
                let (idb, _) = eval_interned(program, instance, Strategy::SemiNaive, governor)
                    .map_err(|e| match e {
                        ProgramError::Resource(r) => PlanError::Calc(EvalError::Resource(r)),
                        other => PlanError::Datalog(other),
                    })?;
                Ok(Output::Relation(answer(program, &idb, result)))
            }
            Physical::Exec { plan, origin } => {
                let answer =
                    no_exec::execute(plan, instance, governor).map_err(|r| match origin {
                        ExecOrigin::Calc => PlanError::Calc(EvalError::Resource(r)),
                        ExecOrigin::Algebra => PlanError::Algebra(AlgebraError::Resource(r)),
                    })?;
                Ok(Output::Relation(answer))
            }
        }
    }
}
