//! Served plan ≡ oracle: the planner's two configurations agree.
//!
//! The planner builds either the served plan (every rewrite of the
//! pipeline: pushdown, quantifier reordering, the columnar join kernels,
//! the IFP-to-rounds lowering, the semi-naive delta rewrite) or the
//! oracle plan (the tree-walk evaluators, exactly as lowered). On random
//! graphs, the served plan, the oracle plan and the engine's free
//! function must return identical relations.
//!
//! The query corpus is shared with the differential harness: the analyzer
//! pool (AD fallbacks, sets, tuples, fixpoints) for CALC under both
//! semantics, the full operator suite for the algebra, and the
//! transitive-closure program for Datalog¬, whose served semi-naive
//! rounds must compute the fixpoint of naive rounds, the §3 oracle.

mod common;

use common::*;
use nestdb::algebra::{Expr, Pred};
use nestdb::core::error::EvalConfig;
use nestdb::core::eval::eval_query_with;
use nestdb::core::ranges::safe_eval;
use nestdb::datalog::{DTerm, Literal, Program};
use nestdb::object::{Governor, Instance, Type};
use nestdb::plan::{CalcMode, DatalogMode, Output, Planner};
use proptest::prelude::*;

fn tc_program() -> Program {
    let mut p = Program::new();
    p.declare("tc", vec![Type::Atom, Type::Atom]);
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

/// Query sources shared with the differential harness: certified
/// range-restricted shapes plus deliberate active-domain fallbacks, with a
/// constant-pin query appended so the pushdown pass has something to pin.
fn calc_pool() -> Vec<&'static str> {
    vec![
        "{[x:U, y:U] | G(x, y)}",
        "{[x:U, y:U] | G(x, y) /\\ ~G(y, x)}",
        "{[x:U] | exists y:U (G(x, y) /\\ G(y, x))}",
        "{[x:U, s:{U}] | exists z:U G(x, z) /\\ forall y:U (G(x, y) <-> y in s)}",
        "{[u:U, v:U] | ifp(S; fx:U, fy:U | G(fx, fy) \\/ exists fz:U (S(fx, fz) /\\ G(fz, fy)))(u, v)}",
        "{[p:[U,U]] | G(p.1, p.2) /\\ ~p.1 = p.2}",
        // not range restricted
        "{[x:U, y:U] | ~G(x, y)}",
        "{[x:U, s:{U}] | G(x, x) \\/ forall y:U (G(x, y) <-> y in s)}",
        "{[X:{U}] | forall x:U (x in X -> G(x, x))}",
        "{[x:U, y:U] | G(x, y) /\\ x = 'a0'}",
    ]
}

fn algebra_suite() -> Vec<Expr> {
    vec![
        Expr::rel("G").select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").project([2, 1]),
        Expr::rel("G")
            .project([1])
            .product(Expr::rel("G").project([2]))
            .select(Pred::EqCols(1, 2)),
        Expr::rel("G")
            .union(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2)),
        Expr::rel("G")
            .difference(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2).not()),
        Expr::rel("G").nest(2).unnest(2),
        Expr::rel("G").project([1]).powerset(),
    ]
}

/// Execute `planned` under an unlimited governor.
fn run(planned: &nestdb::plan::Planned, i: &Instance) -> Output {
    planned
        .physical
        .execute(i, &Governor::unlimited())
        .expect("planned execution succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CALC, both semantics: served plan ≡ oracle plan ≡ tree-walk, on
    /// random graphs over the whole query pool.
    #[test]
    fn calc_served_plan_matches_the_oracle(
        edges in edges_strategy(5, 12),
        qi in 0usize..calc_pool().len(),
    ) {
        let (mut u, _o, i) = graph_instance(5, &edges);
        let q = nestdb::core::parse_query(calc_pool()[qi], &mut u).expect("pool queries parse");
        for (mode, walk) in [
            (CalcMode::ActiveDomain, eval_query_with(&i, &q, EvalConfig::default()).unwrap()),
            (CalcMode::Safe, safe_eval(&i, &q, EvalConfig::default()).unwrap()),
        ] {
            let served = Planner::new(i.schema())
                .with_instance(&i)
                .plan_calc(&q, mode)
                .unwrap();
            let oracle = Planner::oracle(i.schema()).plan_calc(&q, mode).unwrap();
            let oracle = run(&oracle, &i).into_relation();
            prop_assert_eq!(&oracle, &walk, "oracle plan vs tree-walk ({:?})", mode);
            prop_assert_eq!(&run(&served, &i).into_relation(), &walk, "served plan vs tree-walk ({:?})", mode);
        }
    }

    /// Algebra: served plan ≡ oracle plan ≡ the bottom-up evaluator on
    /// the operator suite.
    #[test]
    fn algebra_served_plan_matches_the_oracle(edges in edges_strategy(5, 12), ei in 0usize..7) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let expr = &algebra_suite()[ei];
        let walk = nestdb::algebra::eval(expr, &i, &nestdb::algebra::AlgebraConfig::default())
            .expect("tree-walk algebra succeeds");
        let served = Planner::new(i.schema())
            .with_instance(&i)
            .plan_algebra(expr)
            .unwrap();
        let oracle = Planner::oracle(i.schema()).plan_algebra(expr).unwrap();
        prop_assert_eq!(&run(&oracle, &i).into_relation(), &walk, "oracle plan vs tree-walk");
        prop_assert_eq!(&run(&served, &i).into_relation(), &walk, "served plan vs tree-walk");
    }

    /// Datalog¬: the served and oracle plans of both semantics compute
    /// the fixpoint of the free functions — naive rounds for the
    /// inflationary semantics, stratified evaluation for the other.
    #[test]
    fn datalog_served_plan_matches_the_oracle(edges in edges_strategy(5, 12)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let p = tc_program();
        let gov = Governor::unlimited();
        let (naive, _) =
            nestdb::datalog::eval_governed(&p, &i, nestdb::datalog::Strategy::Naive, &gov).unwrap();
        let stratified = nestdb::datalog::eval_stratified_governed(&p, &i, &gov).unwrap();
        for (mode, want) in [(DatalogMode::SemiNaive, &naive), (DatalogMode::Stratified, &stratified)] {
            let served = Planner::new(i.schema()).with_instance(&i).plan_datalog(&p, mode).unwrap();
            let oracle = Planner::oracle(i.schema()).plan_datalog(&p, mode).unwrap();
            prop_assert_eq!(&run(&served, &i).into_idb(), want, "served plan ({:?})", mode);
            prop_assert_eq!(&run(&oracle, &i).into_idb(), want, "oracle plan ({:?})", mode);
        }
    }
}
