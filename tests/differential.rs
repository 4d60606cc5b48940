//! Cross-engine differential harness.
//!
//! The repo carries five evaluators of the same query semantics: the
//! active-domain CALC evaluator, the range-restricted safe evaluator
//! (Theorem 5.1), the bottom-up algebra evaluator (translated to CALC via
//! [`nestdb::algebra::to_query`]), and the Datalog¬ engines (semi-naive
//! and stratified rounds, plus the naive-round and simultaneous-IFP
//! translations kept as §3 oracles). Every query expressible in
//! more than one of them is pushed through all of them here and the
//! results must be *identical* — any divergence is a bug in one engine,
//! and the disagreeing pair localises it.
//!
//! The second half repeats the exercise under starvation budgets: all
//! engines must trip with a structured [`ResourceError`] — no panics, no
//! hangs, no engine quietly returning a truncated answer. Requests on
//! different threads share a session's governor, so its fuel, faults and
//! cancellation are checked across threads too.

mod common;

use common::*;
use nestdb::algebra::{self, AlgebraError, Expr, Pred};
use nestdb::core::error::{EvalConfig, EvalError};
use nestdb::core::eval::{active_order, eval_query_with, Evaluator};
use nestdb::core::print::Printer;
use nestdb::core::ranges::{compute_ranges, safe_eval, safe_eval_governed};
use nestdb::core::{rr, typeck, Query};
use nestdb::datalog::{
    self, eval_governed, eval_simultaneous, eval_stratified_governed, DTerm, Idb, Literal, Program,
    ProgramError, SimEvalError, Strategy, StratifyError,
};
use nestdb::object::{
    AtomOrder, BudgetKind, Governor, Instance, Limits, Relation, Type, Universe, Value,
};
use nestdb::plan::{CalcMode, DatalogMode, Planner};
use nestdb::proto::{Lang, Mode, Request, Strategy as WireStrategy};
use nestdb::{Session, Store};
use proptest::prelude::*;
use std::sync::{Arc, RwLock};

/// The Datalog¬ transitive-closure program over `G[U,U]`.
fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![nestdb::object::Type::Atom; 2]);
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![Literal::Pos(
            "G".into(),
            vec![DTerm::var("x"), DTerm::var("y")],
        )],
    );
    p.rule(
        "tc",
        vec![DTerm::var("x"), DTerm::var("y")],
        vec![
            Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
            Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
        ],
    );
    p
}

/// Edge lists exercising distinct shapes: path, cycle, diamond-with-tail,
/// self-loops, and a dense-ish tangle.
fn graphs() -> Vec<Vec<(usize, usize)>> {
    vec![
        vec![(0, 1), (1, 2), (2, 3)],
        vec![(0, 1), (1, 2), (2, 0)],
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        vec![(0, 0), (1, 1), (0, 1)],
        vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)],
    ]
}

/// A suite of algebra expressions covering every operator at least once.
fn operator_suite() -> Vec<Expr> {
    vec![
        Expr::rel("G"),
        Expr::rel("G").select(Pred::EqCols(1, 2)),
        Expr::rel("G").select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").project([1]),
        Expr::rel("G").project([2, 1]),
        Expr::rel("G")
            .project([1])
            .product(Expr::rel("G").project([2])),
        Expr::rel("G").union(Expr::rel("G").project([2, 1])),
        Expr::rel("G").difference(Expr::rel("G").project([2, 1])),
        Expr::rel("G").intersect(Expr::rel("G").project([2, 1])),
        Expr::rel("G").nest(2),
        Expr::rel("G").nest(2).unnest(2),
        Expr::rel("G").project([1]).powerset(),
    ]
}

/// Every operator, three ways: algebra bottom-up, its CALC translation on
/// the active-domain evaluator, and the same translation through range
/// analysis — pairwise identical on every graph shape.
#[test]
fn algebra_calc_and_rr_agree_on_operator_suite() {
    for edges in graphs() {
        let (_u, _o, i) = graph_instance(5, &edges);
        for expr in operator_suite() {
            let a = algebra::eval(&expr, &i, &algebra::AlgebraConfig::default())
                .unwrap_or_else(|e| panic!("algebra failed on {expr:?}: {e}"));
            let q = algebra::to_query(&expr, i.schema()).expect("translatable");
            let c = eval_query_with(&i, &q, EvalConfig::default())
                .unwrap_or_else(|e| panic!("calc failed on {expr:?}: {e}"));
            let r = safe_eval(&i, &q, EvalConfig::default())
                .unwrap_or_else(|e| panic!("safe_eval failed on {expr:?}: {e}"));
            assert_eq!(a, c, "algebra vs calc on {expr:?} over {edges:?}");
            assert_eq!(c, r, "calc vs safe_eval on {expr:?} over {edges:?}");
        }
    }
}

/// Transitive closure through all five engines that can express recursion:
/// CALC+IFP, safe eval of the same query, and the four Datalog strategies.
#[test]
fn transitive_closure_agrees_across_all_engines() {
    for edges in graphs() {
        let (u, _o, i) = graph_instance(5, &edges);
        let q = tc_query();
        let calc = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        let rr = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(calc, rr, "calc vs safe_eval over {edges:?}");

        let p = tc_program();
        let gov = Governor::unlimited();
        let (naive, _) = eval_governed(&p, &i, Strategy::Naive, &gov).unwrap();
        let (semi, _) = eval_governed(&p, &i, Strategy::SemiNaive, &gov).unwrap();
        let strat = eval_stratified_governed(&p, &i, &gov).unwrap();
        let order = active_order(&i, &q);
        let sim = eval_simultaneous(&p, &[], &i, order, &gov).unwrap();
        let _ = u;

        assert_eq!(naive["tc"], calc, "naive datalog vs calc over {edges:?}");
        assert_eq!(semi["tc"], calc, "semi-naive vs calc over {edges:?}");
        assert_eq!(strat["tc"], calc, "stratified vs calc over {edges:?}");
        assert_eq!(sim["tc"], calc, "simultaneous vs calc over {edges:?}");
    }
}

/// Negation differential: `G` minus its reverse, as algebra difference, as
/// CALC `∧¬`, and as a stratified Datalog¬ program.
#[test]
fn negation_agrees_across_algebra_calc_and_datalog() {
    for edges in graphs() {
        let (_u, _o, i) = graph_instance(5, &edges);
        let expr = Expr::rel("G").difference(Expr::rel("G").project([2, 1]));
        let a = algebra::eval(&expr, &i, &algebra::AlgebraConfig::default()).unwrap();
        let q = algebra::to_query(&expr, i.schema()).unwrap();
        let c = eval_query_with(&i, &q, EvalConfig::default()).unwrap();

        let mut p = Program::new();
        p.declare("asym", vec![nestdb::object::Type::Atom; 2]);
        p.rule(
            "asym",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neg("G".into(), vec![DTerm::var("y"), DTerm::var("x")]),
            ],
        );
        let d = eval_stratified_governed(&p, &i, &Governor::unlimited()).unwrap();

        assert_eq!(a, c, "algebra vs calc over {edges:?}");
        assert_eq!(c, d["asym"], "calc vs datalog over {edges:?}");
    }
}

fn starvation_governor() -> Governor {
    Governor::new(Limits {
        max_steps: 25,
        ..Limits::unlimited()
    })
}

/// Under a starvation step budget every engine trips with a structured
/// resource error: nothing panics, hangs, or silently truncates. (A
/// trivially-small Ok would also be acceptable in principle, but the graph
/// below needs far more than 25 evaluation steps in every engine, so here
/// an Ok would mean the engine stopped counting its work.)
#[test]
fn starved_engines_trip_gracefully_and_none_diverge() {
    let edges = vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)];
    let (_u, _o, i) = graph_instance(5, &edges);
    let q = tc_query();
    let p = tc_program();

    let err = {
        let mut ev = nestdb::core::eval::Evaluator::with_governor(
            &i,
            active_order(&i, &q),
            starvation_governor(),
        );
        ev.query(&q).unwrap_err()
    };
    assert!(matches!(err, EvalError::Resource(_)), "calc: {err}");

    let err = safe_eval_governed(&i, &q, &starvation_governor()).unwrap_err();
    assert!(matches!(err, EvalError::Resource(_)), "safe_eval: {err}");

    let expr = Expr::rel("G").product(Expr::rel("G")).nest(4);
    let err = algebra::eval_governed(&expr, &i, &starvation_governor()).unwrap_err();
    assert!(matches!(err, AlgebraError::Resource(_)), "algebra: {err}");

    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let err = eval_governed(&p, &i, strategy, &starvation_governor()).unwrap_err();
        assert!(
            matches!(err, ProgramError::Resource(_)),
            "{strategy:?}: {err}"
        );
    }

    let err = eval_stratified_governed(&p, &i, &starvation_governor()).unwrap_err();
    assert!(
        matches!(err, StratifyError::Program(ProgramError::Resource(_))),
        "stratified: {err}"
    );

    let err =
        eval_simultaneous(&p, &[], &i, active_order(&i, &q), &starvation_governor()).unwrap_err();
    assert!(
        matches!(err, SimEvalError::Eval(EvalError::Resource(_))),
        "simultaneous: {err}"
    );
}

/// A starved engine that trips must leave the shared governor observable:
/// the spent counters reflect work actually done, so a caller can report
/// how far evaluation got. (Regression guard for the accounting rework —
/// interning must not bypass the step meters.)
#[test]
fn starved_engines_report_spent_work() {
    let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let (_u, _o, i) = graph_instance(5, &edges);
    let gov = starvation_governor();
    let _ = safe_eval_governed(&i, &tc_query(), &gov);
    assert!(gov.steps_spent() > 0, "no work was metered");
    // the meter increments before checking, so a trip reads limit + 1
    assert!(gov.steps_spent() <= 26, "budget was overrun");
}

/// The nest query of Example 5.1 through safe eval and through the algebra
/// `nest` operator — set-valued outputs must also be identical, which
/// exercises canonical set form across both pipelines.
#[test]
fn nested_outputs_agree_between_safe_eval_and_algebra() {
    let mut u = nestdb::object::Universe::new();
    let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
    let schema = nestdb::object::Schema::from_relations([nestdb::object::RelationSchema::new(
        "P",
        vec![nestdb::object::Type::Atom; 2],
    )]);
    let mut i = nestdb::object::Instance::empty(schema);
    for (x, y) in [(a, b), (a, c), (b, b), (b, c)] {
        i.insert("P", vec![Value::Atom(x), Value::Atom(y)]);
    }
    let alg = algebra::eval(
        &Expr::rel("P").nest(2),
        &i,
        &algebra::AlgebraConfig::default(),
    )
    .unwrap();
    let q = algebra::to_query(&Expr::rel("P").nest(2), i.schema()).unwrap();
    let rr = safe_eval(&i, &q, EvalConfig::default()).unwrap();
    let ad = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
    assert_eq!(alg, rr);
    assert_eq!(rr, ad);
    assert!(alg.iter().all(|row| matches!(row[1], Value::Set(_))));
    let _: &Relation = &alg;
}

/// A pool of query sources over `G(U, U)` mixing certified-range-restricted
/// queries with deliberately unrestricted ones, so the soundness property
/// below is exercised on both sides of the certificate.
fn analyzer_query_pool() -> Vec<&'static str> {
    [certified_pool(), uncertified_pool()].concat()
}

/// The range-restricted half of [`analyzer_query_pool`].
fn certified_pool() -> Vec<&'static str> {
    vec![
        // the data/queries.calc corpus shapes
        "{[x:U, y:U] | G(x, y)}",
        "{[x:U, y:U] | G(x, y) /\\ ~G(y, x)}",
        "{[x:U] | exists y:U (G(x, y) /\\ G(y, x))}",
        "{[x:U, s:{U}] | exists z:U G(x, z) /\\ forall y:U (G(x, y) <-> y in s)}",
        "{[u:U, v:U] | ifp(S; fx:U, fy:U | G(fx, fy) \\/ exists fz:U (S(fx, fz) /\\ G(fz, fy)))(u, v)}",
        "{[p:[U,U]] | G(p.1, p.2) /\\ ~p.1 = p.2}",
        // rule 9 when x may lie outside G's first column: (a0, {}) answers
        "{[x:U, s:{U}] | x = 'a0' /\\ forall y:U (G(x, y) <-> y in s)}",
        // rule 9 when s also takes a set no grouping produced: y must range
        // over its members too
        "{[x:U, s:{U}] | exists z:U G(x, z) /\\ s = {'a0', 'a1'} /\\ forall y:U (G(x, y) <-> y in s)}",
        // a fixpoint nested in another's body and reading its relation:
        // the inner columns depend on the outer iteration
        "{[u:U] | ifp(S; fx:U | G(fx, fx) \\/ exists q:[U,U] (ifp(T; fp:[U,U] | S(fp.1) /\\ S(fp.2))(q) /\\ G(q.1, fx)))(u)}",
        // a quantifier nested under a ∀: w is bound inside the body, so its
        // grant carries over (rule 7)
        "{[x:U] | G(x, x) /\\ forall y:U (G(x, y) -> exists w:U G(y, w))}",
        // and under a grouping (rule 9): the 2-hop successor sets
        "{[x:U, s:{U}] | exists z:U G(x, z) /\\ forall y:U ((exists w:U (G(x, w) /\\ G(w, y))) <-> y in s)}",
    ]
}

/// The half of [`analyzer_query_pool`] that is not range restricted.
fn uncertified_pool() -> Vec<&'static str> {
    vec![
        // atom-typed fallback (small active domain)
        "{[x:U, y:U] | ~G(x, y)}",
        // set-typed fallback (powerset-sized domain)
        "{[X:{U}] | X = X}",
        "{[X:{U}] | forall x:U (x in X -> G(x, x))}",
        // rule 6: s is free in the disjunction but
        // G(x, x) does not restrict it — where x has a self-loop, every s
        // answers
        "{[x:U, s:{U}] | G(x, x) \\/ forall y:U (G(x, y) <-> y in s)}",
        // rule 7: ¬G(x, x) restricts x in the
        // pushed negation, but x is free in the ∀, so nothing carries over
        "{[x:U] | forall y:U (G(y, y) -> ~G(x, x))}",
    ]
}

/// The engines' free functions, called directly. They are the oracle:
/// every served plan, and every `planned: false` reply, is held to them.
fn oracle_calc(
    i: &Instance,
    q: &Query,
    mode: CalcMode,
    gov: &Governor,
) -> Result<Relation, EvalError> {
    match mode {
        CalcMode::ActiveDomain => {
            Evaluator::with_governor(i, active_order(i, q), gov.clone()).query(q)
        }
        CalcMode::Safe => safe_eval_governed(i, q, gov),
    }
}

/// [`oracle_calc`] for the two wire strategies: the IDB, and the round
/// count inflationary rounds report.
fn oracle_datalog(
    p: &Program,
    i: &Instance,
    strategy: WireStrategy,
    gov: &Governor,
) -> (Idb, Option<u64>) {
    match strategy {
        WireStrategy::SemiNaive => {
            let (idb, stats) = eval_governed(p, i, Strategy::SemiNaive, gov).unwrap();
            (idb, Some(stats.rounds as u64))
        }
        WireStrategy::Stratified => (eval_stratified_governed(p, i, gov).unwrap(), None),
    }
}

const STRATEGIES: [WireStrategy; 2] = [WireStrategy::SemiNaive, WireStrategy::Stratified];

/// The compile-to-plan axis: every engine's served plan (all passes, with
/// statistics) must return exactly what the engine's free function
/// returns — for CALC under both semantics (the analyzer pool covers AD
/// fallbacks, sets, tuples, and fixpoints), the whole algebra operator
/// suite, and both Datalog¬ strategies.
#[test]
fn planned_execution_matches_tree_walk_across_all_engines() {
    let gov = Governor::unlimited();
    for edges in graphs() {
        let (mut u, _o, i) = graph_instance(5, &edges);
        let planner = Planner::new(i.schema()).with_instance(&i);
        let served = |planned: nestdb::plan::Planned| planned.physical.execute(&i, &gov).unwrap();

        // CALC: the recursive TC query plus the full analyzer pool.
        let mut queries = vec![tc_query()];
        for src in analyzer_query_pool() {
            queries.push(nestdb::core::parse_query(src, &mut u).unwrap());
        }
        for q in &queries {
            for mode in [CalcMode::ActiveDomain, CalcMode::Safe] {
                let walk = oracle_calc(&i, q, mode, &gov).unwrap();
                let planned = served(planner.plan_calc(q, mode).unwrap()).into_relation();
                assert_eq!(walk, planned, "{mode:?} planned diverged");
            }
        }

        // Algebra: every operator.
        for expr in operator_suite() {
            let walk = algebra::eval_governed(&expr, &i, &gov).unwrap();
            let planned = served(planner.plan_algebra(&expr).unwrap()).into_relation();
            assert_eq!(walk, planned, "algebra planned diverged on {expr:?}");
        }

        // Datalog¬: both strategies.
        let p = tc_program();
        for strategy in STRATEGIES {
            let mode = match strategy {
                WireStrategy::SemiNaive => DatalogMode::SemiNaive,
                WireStrategy::Stratified => DatalogMode::Stratified,
            };
            let (walk, _) = oracle_datalog(&p, &i, strategy, &gov);
            let planned = served(planner.plan_datalog(&p, mode).unwrap()).into_idb();
            assert_eq!(walk, planned, "{strategy:?} planned diverged");
        }
    }
}

/// Section 3's correspondence, checked against the oracles kept for it:
/// the served semi-naive rounds compute the fixpoint that naive rounds
/// and the simultaneous-IFP translation compute. `tc_program`'s only
/// body-only variable is `z`, so that is the translation's typing.
#[test]
fn served_rounds_equal_the_section3_oracles() {
    let gov = Governor::unlimited();
    let p = tc_program();
    for edges in graphs() {
        let (_u, _o, i) = graph_instance(5, &edges);
        let served = Planner::new(i.schema())
            .with_instance(&i)
            .plan_datalog(&p, DatalogMode::SemiNaive)
            .unwrap()
            .physical
            .execute(&i, &gov)
            .unwrap()
            .into_idb();
        let (naive, _) = eval_governed(&p, &i, Strategy::Naive, &gov).unwrap();
        let order = AtomOrder::new(i.atoms().into_iter().collect());
        let typed = [("z", Type::Atom)];
        let sim = eval_simultaneous(&p, &typed, &i, order, &gov).unwrap();
        let at = format!("over {edges:?}");
        assert_eq!(served, naive, "served rounds vs naive oracle {at}");
        assert_eq!(served, sim, "served rounds vs simultaneous oracle {at}");
    }
}

/// The canonical text rows `Session::run` replies with, from a raw
/// relation.
fn canon_rows(universe: &Universe, rel: &Relation) -> Vec<String> {
    let printer = Printer::with_universe(universe);
    rel.sorted_rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|v| printer.value(v)).collect();
            format!("({})", cells.join(", "))
        })
        .collect()
}

/// The operator suite as wire text (the algebra's `Display` is not its
/// grammar).
const ALGEBRA_TEXTS: [&str; 12] = [
    "G",
    "select[eq(1, 2)](G)",
    "select[not(eq(1, 2))](G)",
    "project[1](G)",
    "project[2, 1](G)",
    "(project[1](G) x project[2](G))",
    "(G + project[2, 1](G))",
    "(G - project[2, 1](G))",
    "(G & project[2, 1](G))",
    "nest[2](G)",
    "unnest[2](nest[2](G))",
    "powerset(project[1](G))",
];

const TC_TEXT: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

/// This is what labels `planned: false` as the oracle. For every engine,
/// CALC mode and wire strategy, `Session::run` with `planned: false`
/// replies with the rows (and rounds) of the engine's free function, and
/// spends exactly the steps and bytes a governor handed to that function
/// meters.
#[test]
fn unplanned_run_is_the_free_function_oracle() {
    for edges in graphs() {
        let (u, _o, i) = graph_instance(5, &edges);
        let session = Session::builder()
            .store(Arc::new(RwLock::new(Store::with_data(
                u.clone(),
                i.clone(),
            ))))
            .build();
        let check = |req: Request, gov: &Governor, want: Vec<(String, Vec<String>)>| {
            let r = session.run(&req);
            assert!(r.ok, "{req:?}: {:?}", r.error);
            let got: Vec<(String, Vec<String>)> = r
                .relations
                .iter()
                .map(|rel| (rel.name.clone(), rel.rows.clone()))
                .collect();
            assert_eq!(got, want, "{req:?}");
            let spend = r.spend.unwrap();
            let metered = (gov.steps_spent(), gov.mem_spent());
            assert_eq!((spend.steps, spend.mem_bytes), metered, "{req:?}");
            r.rounds
        };
        let result = |rel: &Relation| vec![("result".to_string(), canon_rows(&u, rel))];

        let mut parsing = u.clone();
        for text in analyzer_query_pool() {
            let q = nestdb::core::parse_query(text, &mut parsing).unwrap();
            // `checked` runs safe evaluation only under a certificate
            let certified = nestdb::analysis::analyze_calc(i.schema(), text, &mut parsing);
            let checked = if certified.is_rr_safe() {
                CalcMode::Safe
            } else {
                CalcMode::ActiveDomain
            };
            for (mode, calc_mode) in [
                (Mode::Fast, CalcMode::ActiveDomain),
                (Mode::Safe, CalcMode::Safe),
                (Mode::Checked, checked),
            ] {
                let gov = Governor::unlimited();
                let want = oracle_calc(&i, &q, calc_mode, &gov).unwrap();
                let req = Request {
                    mode,
                    planned: false,
                    ..Request::eval(Lang::Calc, text)
                };
                check(req, &gov, result(&want));
            }
        }

        for text in ALGEBRA_TEXTS {
            let expr = algebra::parse_expr(text, &mut parsing).unwrap();
            let gov = Governor::unlimited();
            let want = algebra::eval_governed(&expr, &i, &gov).unwrap();
            let req = Request {
                planned: false,
                ..Request::eval(Lang::Algebra, text)
            };
            check(req, &gov, result(&want));
        }

        let p = datalog::parse_program(TC_TEXT, &mut parsing).unwrap();
        for strategy in STRATEGIES {
            let gov = Governor::unlimited();
            let (idb, rounds) = oracle_datalog(&p, &i, strategy, &gov);
            let want = idb
                .iter()
                .map(|(name, rel)| (name.clone(), canon_rows(&u, rel)))
                .collect();
            let req = Request {
                strategy,
                planned: false,
                ..Request::eval(Lang::Datalog, TC_TEXT)
            };
            assert_eq!(check(req, &gov, want), rounds, "{strategy:?}");
        }
        assert_eq!(parsing.len(), u.len(), "the texts name no new atoms");
        assert_eq!(
            session.plan_cache_stats(),
            (0, 0),
            "the oracle is never cached"
        );
    }
}

/// Every engine, driven through `Session::run`, answers on both plans, and
/// the served plan replies with the oracle's rows: CALC+IFP under both
/// semantics, both Datalog¬ strategies and the algebra operator suite.
#[test]
fn every_engine_answers_alike_on_both_plans() {
    const TC_CALC: &str =
        "{[u:U, v:U] | ifp(S; x:U, y:U | G(x, y) \\/ exists z:U (S(x, z) /\\ G(z, y)))(u, v)}";
    let mut reqs = Vec::new();
    for mode in [Mode::Fast, Mode::Safe] {
        reqs.push(Request {
            mode,
            ..Request::eval(Lang::Calc, TC_CALC)
        });
    }
    for strategy in STRATEGIES {
        reqs.push(Request {
            strategy,
            ..Request::eval(Lang::Datalog, TC_TEXT)
        });
    }
    for text in ALGEBRA_TEXTS {
        reqs.push(Request::eval(Lang::Algebra, text));
    }
    for edges in graphs() {
        let (u, _o, i) = graph_instance(5, &edges);
        let session = Session::builder()
            .store(Arc::new(RwLock::new(Store::with_data(u, i))))
            .build();
        for req in &reqs {
            let [oracle, served] = [false, true].map(|planned| {
                let r = session.run(&Request {
                    planned,
                    ..req.clone()
                });
                assert!(r.ok, "{req:?} planned={planned}: {:?}", r.error);
                r.relations
            });
            assert_eq!(served, oracle, "{req:?} over {edges:?}");
        }
    }
}

/// A starvation budget trips a session's Datalog¬ request as a structured
/// resource error on both plans.
#[test]
fn resource_trips_are_structured_on_both_plans() {
    let (u, _order, i) = graph_instance(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let s = Session::builder()
        .limits(Limits {
            max_steps: 25,
            ..Limits::unlimited()
        })
        .store(Arc::new(RwLock::new(Store::with_data(u, i))))
        .build();
    for planned in [false, true] {
        let r = s.run(&Request {
            strategy: WireStrategy::SemiNaive,
            planned,
            ..Request::eval(Lang::Datalog, TC_TEXT)
        });
        let err = r.error.expect("a 25-step budget cannot close a 5-cycle");
        assert!(err.resource_trip, "planned={planned}: {}", err.message);
        assert_eq!(err.kind, "resource");
        assert!(err.message.contains("step fuel"), "{}", err.message);
    }
}

#[test]
fn step_fuel_is_conserved_across_workers() {
    let g = Governor::new(Limits::unlimited());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let g = g.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    g.tick("governor.test").unwrap();
                }
            });
        }
    });
    assert_eq!(g.steps_spent(), 4000);
}

#[test]
fn injected_fault_fires_exactly_once_across_workers() {
    // Four threads hammer the same governor; the armed countdown must
    // produce exactly one structured error in total — the nth check
    // fails for exactly one observer, not once per thread.
    let g = Governor::new(Limits::unlimited());
    g.trip_after(500, BudgetKind::Memory);
    let mut trips = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..1000 {
                        if let Err(e) = g.tick("governor.test") {
                            assert_eq!(e.budget, BudgetKind::Memory);
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            trips += h.join().unwrap();
        }
    });
    assert_eq!(trips, 1, "fault must fire exactly once");
}

#[test]
fn cancellation_is_observed_by_every_worker() {
    let g = Governor::new(Limits::unlimited());
    g.cancel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || match g.tick("governor.test") {
                    Err(e) => e.budget == BudgetKind::Cancelled,
                    Ok(()) => false,
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "a thread missed the cancellation");
        }
    });
}

/// Under starvation the planned path must trip exactly like the tree-walk
/// path. The oracle's physical plan *is* the tree-walk invocation, so
/// both the budget kind and the metered step count must be bit-identical;
/// the served plan may do strictly less work, but any failure must still
/// be the same structured resource trip.
#[test]
fn planned_execution_trips_identically_under_starvation() {
    let edges = vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)];
    let (_u, _o, i) = graph_instance(5, &edges);
    let q = tc_query();
    let p = tc_program();

    // tree-walk baseline
    let walk_gov = starvation_governor();
    let walk_err = safe_eval_governed(&i, &q, &walk_gov).unwrap_err();
    let EvalError::Resource(walk_trip) = &walk_err else {
        panic!("expected a resource trip, got {walk_err}")
    };

    // the oracle plan: identical accounting, step for step
    let plan_gov = starvation_governor();
    let planned = Planner::oracle(i.schema())
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    let plan_err = planned.physical.execute(&i, &plan_gov).unwrap_err();
    let plan_trip = plan_err.resource().expect("the oracle plan must trip too");
    assert_eq!(plan_trip.budget, walk_trip.budget, "budget kinds differ");
    assert_eq!(
        plan_gov.steps_spent(),
        walk_gov.steps_spent(),
        "the oracle plan must meter exactly the tree-walk steps"
    );

    // the served plan: still a structured trip of the same kind
    let opt_gov = starvation_governor();
    let planned = Planner::new(i.schema())
        .with_instance(&i)
        .plan_calc(&q, CalcMode::Safe)
        .unwrap();
    let err = planned.physical.execute(&i, &opt_gov).unwrap_err();
    assert_eq!(
        err.resource().expect("optimized plan must trip too").budget,
        walk_trip.budget
    );

    // datalog: the planned semi-naive path is the same engine invocation
    let walk_gov = starvation_governor();
    let walk_err = eval_governed(&p, &i, Strategy::SemiNaive, &walk_gov).unwrap_err();
    let ProgramError::Resource(walk_trip) = &walk_err else {
        panic!("expected a resource trip, got {walk_err}")
    };
    let plan_gov = starvation_governor();
    let planned = Planner::new(i.schema())
        .with_instance(&i)
        .plan_datalog(&p, nestdb::plan::DatalogMode::SemiNaive)
        .unwrap();
    let err = planned.physical.execute(&i, &plan_gov).unwrap_err();
    let trip = err.resource().expect("planned datalog must trip");
    assert_eq!(trip.budget, walk_trip.budget);
    assert_eq!(plan_gov.steps_spent(), walk_gov.steps_spent());
}

/// The certificate's verdict on each pool query is the one its half of
/// the pool states, so a lost certificate fails here, not silently.
#[test]
fn pool_halves_match_the_certificate() {
    let (mut u, _o, i) = graph_instance(5, &[]);
    for (pool, certified) in [(certified_pool(), true), (uncertified_pool(), false)] {
        for src in pool {
            let analysis = nestdb::analysis::analyze_calc(i.schema(), src, &mut u);
            assert_eq!(analysis.is_rr_safe(), certified, "{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Certificate soundness (the analyzer's core contract) is Theorem
    /// 5.1: a query the analyzer certifies `is_rr_safe` evaluates under
    /// safe (range-restricted) evaluation to exactly its active-domain
    /// answer, on any instance, and without ever hitting a
    /// range-restriction failure — no `RangeTooLarge`, no
    /// `UnboundVariable`, no shape error — even with a range budget too
    /// small for domain fallback. Every variable the certificate restricts
    /// gets a computed range (those the certificate marks
    /// `fixpoint_local` excepted). Contrapositively, any query that does trip
    /// `RangeTooLarge` must be one the analyzer declined to certify.
    #[test]
    fn rr_certificates_are_sound(
        edges in edges_strategy(5, 12),
        qi in 0usize..analyzer_query_pool().len(),
    ) {
        let src = analyzer_query_pool()[qi];
        let (mut u, _o, i) = graph_instance(5, &edges);
        let analysis = nestdb::analysis::analyze_calc(i.schema(), src, &mut u);
        prop_assert!(!analysis.has_errors(), "pool query rejected: {:?}", analysis.diagnostics);

        let q = nestdb::core::parse_query(src, &mut u).expect("pool queries parse");
        // dom({U}, 5) = 32 > 16, so an unrestricted set variable cannot be
        // enumerated — but 16 still covers the 5-atom active domain.
        let cfg = EvalConfig {
            max_range: 16,
            ..EvalConfig::default()
        };
        match safe_eval(&i, &q, cfg) {
            Ok(_) => {}
            // A governor budget trip is not a soundness failure: the
            // certificate promises freedom from range-restriction errors,
            // not that evaluation is cheap.
            Err(EvalError::Resource(_)) => {}
            Err(e @ (EvalError::RangeTooLarge { .. }
                   | EvalError::UnboundVariable(_)
                   | EvalError::ShapeError(_))) => {
                prop_assert!(
                    !analysis.is_rr_safe(),
                    "analyzer certified {src} RR-safe but safe evaluation failed: {e}"
                );
            }
            Err(other) => panic!("{src}: unexpected evaluation failure: {other}"),
        }
        if analysis.is_rr_safe() {
            let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
            let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
            prop_assert_eq!(safe, active, "Theorem 5.1 fails for {} over {:?}", src, edges);

            let types = typeck::check(i.schema(), &q.head, &q.body).unwrap().var_types;
            let certified = rr::analyze(i.schema(), &types, &q.body);
            let ranges = compute_ranges(&i, &types, &q.body, &EvalConfig::default()).unwrap();
            for v in certified.restricted.iter().filter(|p| p.path.is_empty()) {
                prop_assert!(
                    ranges.of_var(&v.root).is_some() || certified.fixpoint_local.contains(v),
                    "{} is certified in {} but has no range",
                    v.root,
                    src
                );
            }
        }
    }
}
