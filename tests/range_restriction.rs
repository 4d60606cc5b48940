//! Theorem 5.1 as a property: for range-restricted queries, the
//! restricted-domain interpretation with the computed range functions
//! equals the active-domain interpretation — over a pool of RR query
//! shapes and random instances. Plus the paper's worked Example 5.2.

mod common;

use common::*;
use nestdb::core::ast::{Formula, Term};
use nestdb::core::error::EvalConfig;
use nestdb::core::eval::{eval_query_with, Query};
use nestdb::core::ranges::safe_eval;
use nestdb::core::rr;
use nestdb::core::typeck;
use nestdb::object::{Instance, RelationSchema, Schema, Type, Universe, Value};
use proptest::prelude::*;

/// A pool of range-restricted query shapes over `G[U,U]`.
#[allow(clippy::vec_init_then_push)] // each entry carries a long comment
fn rr_query_pool() -> Vec<(&'static str, Query)> {
    let mut out = Vec::new();
    // selection
    out.push((
        "edges",
        Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
        ),
    ));
    // join
    out.push((
        "two-hop",
        Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::exists(
                "z",
                Type::Atom,
                Formula::and([
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("z")]),
                    Formula::Rel("G".into(), vec![Term::var("z"), Term::var("y")]),
                ]),
            ),
        ),
    ));
    // negation inside a conjunction (still RR via the positive atom)
    out.push((
        "asymmetric edge",
        Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::Rel("G".into(), vec![Term::var("y"), Term::var("x")]).not(),
            ]),
        ),
    ));
    // grouping (rule 9): successor sets
    out.push((
        "successor sets",
        Query::new(
            vec![
                ("x".into(), Type::Atom),
                ("s".into(), Type::set(Type::Atom)),
            ],
            Formula::and([
                Formula::exists(
                    "w",
                    Type::Atom,
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("w")]),
                ),
                Formula::forall(
                    "y",
                    Type::Atom,
                    Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")])
                        .iff(Formula::In(Term::var("y"), Term::var("s"))),
                ),
            ]),
        ),
    ));
    // fixpoint
    out.push(("transitive closure", tc_query()));
    // quantifiers nested under a ∀ (rule 7) and under a grouping (rule 9):
    // w is bound inside the body, so its grant carries over
    let mut u = Universe::new();
    for (name, src) in [
        (
            "successors with successors",
            "{[x:U] | G(x, x) /\\ forall y:U (G(x, y) -> exists w:U G(y, w))}",
        ),
        (
            "2-hop successor sets",
            "{[x:U, s:{U}] | exists z:U G(x, z) /\\ forall y:U ((exists w:U (G(x, w) /\\ G(w, y))) <-> y in s)}",
        ),
    ] {
        out.push((name, nestdb::core::parse_query(src, &mut u).unwrap()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// q(I)_{r_q} == q(I)_{ad} for every pool query (Theorem 5.1).
    #[test]
    fn safe_equals_active_on_rr_pool(edges in edges_strategy(5, 9)) {
        let (_u, _order, i) = graph_instance(5, &edges);
        for (name, q) in rr_query_pool() {
            let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
            let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
            prop_assert_eq!(active, safe, "query {}", name);
        }
    }

    /// Every pool query really is range restricted per Definition 5.2/5.3.
    #[test]
    fn pool_queries_are_range_restricted(_x in 0..1) {
        let schema = graph_schema();
        for (name, q) in rr_query_pool() {
            let types = typeck::check(&schema, &q.head, &q.body).unwrap().var_types;
            prop_assert!(
                rr::is_range_restricted(&schema, &types, &q.body),
                "query {} should be RR",
                name
            );
        }
    }
}

/// Theorem 5.2's setting: with an explicit order relation, the whole
/// machinery stays range restricted (spot check: the order formulas).
#[test]
fn order_formulas_are_range_restricted_given_lt() {
    use nestdb::core::orders::{LtBase, OrderSynth};
    let schema = Schema::from_relations([
        RelationSchema::new("ltU", vec![Type::Atom, Type::Atom]),
        RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
    ]);
    let mut synth = OrderSynth::new(LtBase::Rel("ltU".into()));
    // φ_{<U} conjoined with a guard making the variables RR
    let f = Formula::and([
        Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
        synth.less(&Type::Atom, Term::var("x"), Term::var("y")),
    ]);
    let types = typeck::check(
        &schema,
        &[("x".into(), Type::Atom), ("y".into(), Type::Atom)],
        &f,
    )
    .unwrap()
    .var_types;
    assert!(rr::is_range_restricted(&schema, &types, &f));
}

/// An unrestricted query falls back to active-domain ranges in safe_eval
/// and still answers correctly (the conservative path).
#[test]
fn safe_eval_fallback_is_correct() {
    let (_u, _order, i) = graph_instance(4, &[(0, 1), (1, 2)]);
    // complement-flavoured query: no positive binder for x
    let q = Query::new(
        vec![("x".into(), Type::Atom)],
        Formula::exists(
            "y",
            Type::Atom,
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
        )
        .not(),
    );
    let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
    let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
    assert_eq!(active, safe);
    // node 2 is the only *active-domain* node without successors (atom 3
    // was interned but never occurs in I, so it is outside atom(I))
    assert_eq!(active.len(), 1);
}

/// The paper's Example 5.2, end to end through the public API.
#[test]
fn example_5_2_tau_star() {
    use nestdb::core::ast::{FixOp, Fixpoint};
    use std::sync::Arc;
    let schema = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
    let body = Formula::or([
        Formula::exists(
            "t",
            Type::Atom,
            Formula::and([
                Formula::Rel(
                    "S".into(),
                    vec![Term::var("z"), Term::var("x"), Term::var("t")],
                ),
                Formula::Rel(
                    "S".into(),
                    vec![Term::var("t"), Term::var("y"), Term::var("y")],
                ),
            ]),
        ),
        Formula::and([
            Formula::Rel("P".into(), vec![Term::var("x")]).not(),
            Formula::Rel("P".into(), vec![Term::var("y")]),
        ]),
    ]);
    let fix = Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "S".into(),
        vars: vec![
            ("x".into(), Type::Atom),
            ("y".into(), Type::Atom),
            ("z".into(), Type::Atom),
        ],
        body: Box::new(body),
    });
    let f = Formula::FixApp(
        fix.clone(),
        vec![Term::var("a"), Term::var("b"), Term::var("c")],
    );
    let types = typeck::check(
        &schema,
        &[
            ("a".into(), Type::Atom),
            ("b".into(), Type::Atom),
            ("c".into(), Type::Atom),
        ],
        &f,
    )
    .unwrap()
    .var_types;
    let analysis = rr::analyze(&schema, &types, &f);
    let tau: Vec<usize> = analysis.fix_columns[&(Arc::as_ptr(&fix) as usize)]
        .iter()
        .copied()
        .collect();
    assert_eq!(tau, vec![2], "paper: τ*(S) = {{2}}");
    assert!(analysis.is_restricted("b"));
    assert!(!analysis.is_restricted("a"));
    assert!(!analysis.is_restricted("c"));
}

/// A deliberately unrestricted powerset query is detected and, under a
/// small budget, safely refused rather than evaluated.
#[test]
fn unrestricted_queries_are_detected_and_budgeted() {
    let schema = graph_schema();
    let q = Query::new(
        vec![("X".into(), Type::set(Type::Atom))],
        Formula::forall(
            "x",
            Type::Atom,
            Formula::In(Term::var("x"), Term::var("X")).implies(Formula::Rel(
                "G".into(),
                vec![Term::var("x"), Term::var("x")],
            )),
        ),
    );
    let types = typeck::check(&schema, &q.head, &q.body).unwrap().var_types;
    assert!(!rr::is_range_restricted(&schema, &types, &q.body));
    // 24 atoms → 2^24 candidate sets: refused by the default range budget
    let edges: Vec<(usize, usize)> = (0..24).map(|k| (k, k)).collect();
    let (_u, _order, i) = graph_instance(24, &edges);
    assert!(matches!(
        eval_query_with(&i, &q, EvalConfig::default()),
        Err(nestdb::core::error::EvalError::RangeTooLarge { .. })
    ));
    let mut small = Instance::empty(graph_schema());
    let mut u2 = Universe::new();
    let a0 = u2.intern("b0");
    small.insert("G", vec![Value::Atom(a0), Value::Atom(a0)]);
    // on a small instance it evaluates fine (2 subsets of 1 atom)
    let ans = eval_query_with(&small, &q, EvalConfig::default()).unwrap();
    assert_eq!(ans.len(), 2);
}
