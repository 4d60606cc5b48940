//! CALC+IFP on the Datalog round engine: the lowered path against its
//! oracles, the shapes that must not lower, budgets, and the theorem's
//! shape as step counts.
//!
//! The planner compiles the positive-existential fragment of CALC+IFP to a
//! Datalog program (`nestdb::plan::ifp`). Everything here holds that path
//! to the tree-walk evaluator — the differential oracle, reached through
//! `Planner::oracle` and `planned: false` — and to the same closure written
//! by hand as Datalog rules.

mod common;

use nestdb::core::ast::{FixOp, Fixpoint, Formula, Term};
use nestdb::core::eval::Query;
use nestdb::core::EvalError;
use nestdb::datalog::{
    eval_governed, eval_simultaneous, eval_stratified_governed, DTerm, Literal, Program,
    Strategy as DlStrategy,
};
use nestdb::object::{
    Atom, AtomOrder, BudgetKind, Governor, Instance, Limits, Relation, RelationSchema, Schema,
    Type, Universe, Value,
};
use nestdb::plan::{CalcMode, Physical, PlanError, Planned, Planner};
use nestdb::proto::{Lang, LimitsSpec, Request, Response};
use nestdb::{Session, Store};
use proptest::prelude::*;
use std::sync::{Arc, RwLock};

const MODES: [CalcMode; 2] = [CalcMode::ActiveDomain, CalcMode::Safe];

fn atom(i: usize) -> Value {
    Value::Atom(Atom(i as u32))
}

/// `G(U,U)`, `H(U,U)` and the set-valued `P(U,{U})` over atoms `a0…`.
fn instance(n: usize, g: &[(usize, usize)], h: &[(usize, usize)]) -> (Universe, Instance) {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let pair = vec![Type::Atom, Type::Atom];
    let mut i = Instance::empty(Schema::from_relations([
        RelationSchema::new("G", pair.clone()),
        RelationSchema::new("H", pair),
        RelationSchema::new("P", vec![Type::Atom, Type::set(Type::Atom)]),
    ]));
    for (rel, edges) in [("G", g), ("H", h)] {
        for &(a, b) in edges {
            i.insert(rel, vec![atom(a % n), atom(b % n)]);
        }
    }
    (u, i)
}

/// The plan `planner` builds for `q`, with `i`'s statistics.
fn plan(planner: Planner<'_>, i: &Instance, q: &Query, mode: CalcMode) -> Planned {
    planner
        .with_instance(i)
        .plan_calc(q, mode)
        .expect("the query plans")
}

fn run(planned: &Planned, i: &Instance) -> Relation {
    planned
        .physical
        .execute(i, &Governor::unlimited())
        .expect("execution succeeds")
        .into_relation()
}

fn lowered(planned: &Planned) -> bool {
    matches!(planned.physical, Physical::Ifp { .. })
}

// ---------------------------------------------------------------------------
// (i) a grammar of fragment queries, each with its hand-written program
// ---------------------------------------------------------------------------

/// One atom of a disjunct: a relation (`G`, `H`, `S`, or the nested `T`)
/// over two of the disjunct's variables `x, y, z, w`.
type AtomSpec = (usize, usize, usize);
/// Atoms plus an optional pin `var = 'a<node>'`.
type DisjunctSpec = (Vec<AtomSpec>, Option<(usize, usize)>);

#[derive(Debug, Clone)]
struct Spec {
    n: usize,
    g: Vec<(usize, usize)>,
    h: Vec<(usize, usize)>,
    disjuncts: Vec<DisjunctSpec>,
    /// How `S` is applied: identity, permuted, repeated variable, constant.
    app: usize,
    app_const: usize,
    /// An extra conjunct `∃ow R(head₀, ow)` on the query.
    outer: Option<usize>,
    /// A nested closure `T` over `H`; `true` makes its step read `S`.
    nested: Option<bool>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let edges = || prop::collection::vec((0usize..8, 0usize..8), 0..=24);
    let atoms = prop::collection::vec((0usize..4, 0usize..4, 0usize..4), 1..=3);
    let pin = prop_oneof![2 => Just(None), 1 => (0usize..3, 0usize..8).prop_map(Some)];
    let disjuncts = prop::collection::vec((atoms, pin), 1..=3);
    let outer = prop_oneof![Just(None), (0usize..2).prop_map(Some)];
    let nested = prop_oneof![2 => Just(None), 1 => any::<bool>().prop_map(Some)];
    (
        (2usize..=8, edges(), edges()),
        disjuncts,
        (0usize..4, 0usize..8),
        outer,
        nested,
    )
        .prop_map(
            |((n, g, h), disjuncts, (app, app_const), outer, nested)| Spec {
                n,
                g,
                h,
                disjuncts,
                app,
                app_const: app_const % n,
                outer,
                nested,
            },
        )
}

impl Spec {
    /// The atoms of disjunct `d` after repair: the base disjunct reads no
    /// `S`, `T` exists only when nested, and both columns occur in an atom.
    fn atoms(&self, d: usize) -> Vec<(&'static str, usize, usize)> {
        let mut atoms: Vec<_> = self.disjuncts[d]
            .0
            .iter()
            .map(|&(rel, a, b)| {
                let rel = match rel {
                    2 if d > 0 => "S",
                    3 if self.nested.is_some() => "T",
                    r => ["G", "H"][r % 2],
                };
                (rel, a, b)
            })
            .collect();
        let first = atoms[0].1;
        if !atoms.iter().any(|&(_, a, b)| a == 0 || b == 0) {
            atoms.push(("G", 0, first));
        }
        if !atoms.iter().any(|&(_, a, b)| a == 1 || b == 1) {
            atoms.push(("H", first, 1));
        }
        atoms
    }

    /// The pin of disjunct `d`, when its variable occurs in an atom.
    fn pin(&self, d: usize) -> Option<(usize, Value)> {
        let (var, node) = self.disjuncts[d].1?;
        let occurs = self.atoms(d).iter().any(|&(_, a, b)| a == var || b == var);
        occurs.then(|| (var, atom(node % self.n)))
    }

    /// Variable `v` of disjunct `d`: the columns are shared, the ∃-bound
    /// ones named apart (the paper's convention binds a name once).
    fn var(d: usize, v: usize) -> String {
        match v {
            0 => "x".into(),
            1 => "y".into(),
            2 => format!("z{d}"),
            _ => format!("w{d}"),
        }
    }

    fn nested_fixpoint(&self) -> Arc<Fixpoint> {
        let step = if self.nested == Some(true) { "S" } else { "H" };
        let rel =
            |r: &str, a: &str, b: &str| Formula::Rel(r.into(), vec![Term::var(a), Term::var(b)]);
        Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "T".into(),
            vars: vec![("p".into(), Type::Atom), ("q".into(), Type::Atom)],
            body: Box::new(Formula::or([
                rel("H", "p", "q"),
                Formula::exists(
                    "r",
                    Type::Atom,
                    Formula::and([rel("T", "p", "r"), rel(step, "r", "q")]),
                ),
            ])),
        })
    }

    /// Head variables and the arguments `S` is applied to.
    fn application(&self) -> (Vec<&'static str>, Vec<Term>) {
        match self.app {
            0 => (vec!["u", "v"], vec![Term::var("u"), Term::var("v")]),
            1 => (vec!["u", "v"], vec![Term::var("v"), Term::var("u")]),
            2 => (vec!["u"], vec![Term::var("u"), Term::var("u")]),
            _ => (
                vec!["v"],
                vec![Term::Const(atom(self.app_const)), Term::var("v")],
            ),
        }
    }

    fn query(&self) -> Query {
        let t = self.nested_fixpoint();
        let disjuncts = (0..self.disjuncts.len()).map(|d| {
            let atoms = self.atoms(d);
            let mut parts: Vec<Formula> = atoms
                .iter()
                .map(|&(rel, a, b)| {
                    let args = vec![Term::Var(Self::var(d, a)), Term::Var(Self::var(d, b))];
                    match rel {
                        "T" => Formula::FixApp(Arc::clone(&t), args),
                        _ => Formula::Rel(rel.into(), args),
                    }
                })
                .collect();
            if let Some((var, c)) = self.pin(d) {
                parts.push(Formula::Eq(Term::Var(Self::var(d, var)), Term::Const(c)));
            }
            let mut f = Formula::and(parts);
            for v in [3, 2] {
                if atoms.iter().any(|&(_, a, b)| a == v || b == v) {
                    f = Formula::exists(Self::var(d, v), Type::Atom, f);
                }
            }
            f
        });
        let s = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or(disjuncts)),
        });
        let (head, args) = self.application();
        let mut body = Formula::FixApp(s, args);
        if let Some(r) = self.outer {
            let extra = Formula::Rel(
                ["G", "H"][r].into(),
                vec![Term::var(head[0]), Term::var("ow")],
            );
            body = Formula::and([body, Formula::exists("ow", Type::Atom, extra)]);
        }
        let head = head.iter().map(|v| (v.to_string(), Type::Atom)).collect();
        Query::new(head, body)
    }

    /// The same query as a person would write it in Datalog, and the
    /// relation that holds the answer: `S` itself when the query only names
    /// its columns, else a rule into `ans`.
    fn program(&self) -> (Program, &'static str) {
        let pair = vec![Type::Atom, Type::Atom];
        let pos = |rel: &str, a: DTerm, b: DTerm| Literal::Pos(rel.into(), vec![a, b]);
        let mut p = Program::new();
        p.declare("S", pair.clone());
        for d in 0..self.disjuncts.len() {
            let v = |i: usize| DTerm::Var(Self::var(d, i));
            let mut body: Vec<Literal> = self
                .atoms(d)
                .iter()
                .map(|&(rel, a, b)| pos(rel, v(a), v(b)))
                .collect();
            if let Some((var, c)) = self.pin(d) {
                body.push(Literal::Eq(v(var), DTerm::Const(c)));
            }
            p.rule("S", vec![v(0), v(1)], body);
        }
        if self.nested.is_some() {
            let step = if self.nested == Some(true) { "S" } else { "H" };
            let v = DTerm::var;
            p.declare("T", pair);
            p.rule("T", vec![v("p"), v("q")], vec![pos("H", v("p"), v("q"))]);
            p.rule(
                "T",
                vec![v("p"), v("q")],
                vec![pos("T", v("p"), v("r")), pos(step, v("r"), v("q"))],
            );
        }
        if self.app == 0 && self.outer.is_none() {
            return (p, "S");
        }
        let (head, args) = self.application();
        let term = |t: &Term| match t {
            Term::Var(v) => DTerm::var(v.clone()),
            Term::Const(c) => DTerm::Const(c.clone()),
            other => unreachable!("application arguments are variables or constants: {other:?}"),
        };
        let mut body = vec![pos("S", term(&args[0]), term(&args[1]))];
        if let Some(r) = self.outer {
            body.push(pos(["G", "H"][r], DTerm::var(head[0]), DTerm::var("ow")));
        }
        p.declare("ans", vec![Type::Atom; head.len()]);
        p.rule("ans", head.iter().map(|v| DTerm::var(*v)).collect(), body);
        (p, "ans")
    }
}

/// The program's answer under each strategy that is affordable. The
/// simultaneous strategy runs one fixpoint over the concatenation of every
/// IDB's columns (plus tag columns) on the tree-walk evaluator — n² for a
/// lone `S`, n¹⁰ with `T` and `ans` beside it — so it runs when `S` is
/// alone or the domain has two atoms.
fn program_answers(spec: &Spec, i: &Instance) -> Vec<(&'static str, Relation)> {
    let (p, ans) = spec.program();
    let g = Governor::unlimited();
    let mut out = Vec::new();
    for (name, strategy) in [
        ("naive", DlStrategy::Naive),
        ("semi-naive", DlStrategy::SemiNaive),
    ] {
        let (mut idb, _) = eval_governed(&p, i, strategy, &g).expect(name);
        out.push((name, idb.remove(ans).expect("declared")));
    }
    let mut idb = eval_stratified_governed(&p, i, &g).expect("stratified");
    out.push(("stratified", idb.remove(ans).expect("declared")));
    if p.idb.len() == 1 || spec.n == 2 {
        let order = AtomOrder::new(i.atoms().into_iter().collect());
        let mut idb = eval_simultaneous(&p, &[], i, order, &g).expect("simultaneous");
        out.push(("simultaneous", idb.remove(ans).expect("declared")));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// lowered ≡ tree-walk ≡ hand-written Datalog, in both modes — and the
    /// lowered path is the one that ran.
    #[test]
    fn lowered_agrees_with_the_oracle_and_with_datalog(spec in spec_strategy()) {
        let (_u, i) = instance(spec.n, &spec.g, &spec.h);
        let q = spec.query();
        let programs = program_answers(&spec, &i);
        for mode in MODES {
            let oracle_plan = plan(Planner::oracle(i.schema()), &i, &q, mode);
            prop_assert!(!lowered(&oracle_plan), "the oracle must stay on the tree-walk");
            let oracle = run(&oracle_plan, &i);
            let planned = plan(Planner::new(i.schema()), &i, &q, mode);
            prop_assert!(lowered(&planned), "not lowered: {:?}\n{:?}", planned.header, q);
            prop_assert_eq!(&run(&planned, &i), &oracle, "{:?}: {:?}", mode, q);
            for (strategy, ans) in &programs {
                prop_assert_eq!(ans, &oracle, "{} vs oracle ({:?}): {:?}", strategy, mode, q);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (ii) shapes that must not lower
// ---------------------------------------------------------------------------

#[test]
fn shapes_outside_the_fragment_stay_on_the_oracle() {
    let g = [(0, 1), (1, 2), (2, 0), (2, 3)];
    let h = [(0, 2), (3, 1)];
    let (mut u, mut i) = instance(4, &g, &h);
    i.insert("P", vec![atom(0), Value::set([atom(0), atom(1)])]);
    i.insert("P", vec![atom(2), Value::set([atom(3)])]);
    let tc = "x:U, y:U | G(x, y) \\/ exists z:U";
    let table = [
        (
            format!("{{[u:U, v:U] | ifp(S; {tc} (G(x, z) /\\ ~S(z, y)))(u, v)}}"),
            "S occurs under ¬",
        ),
        (
            "{[u:U] | ifp(S; x:U | forall y:U (G(y, x) -> S(y)))(u)}".to_string(),
            "∀ is outside",
        ),
        (
            "{[u:U] | ifp(S; x:U | exists s:{U} (P(x, s) /\\ x in s) \\/ exists y:U (S(y) /\\ G(y, x)))(u)}".to_string(),
            "∈ is outside",
        ),
        (
            "{[u:U] | ifp(S; x:U | exists s:{U} (exists t:{U} (P(x, s) /\\ P(x, t) /\\ s sub t)))(u)}".to_string(),
            "⊆ is outside",
        ),
        (
            "{[t:[U,U]] | ifp(S; p:[U,U] | G(p.1, p.2))(t)}".to_string(),
            "G takes a projection",
        ),
        (
            format!("{{[u:U, v:U] | pfp(S; {tc} (S(x, z) /\\ G(z, y)))(u, v)}}"),
            "S is a partial fixpoint (pfp)",
        ),
        (
            format!("{{[t:[U,U]] | t in ifp(S; {tc} (S(x, z) /\\ G(z, y)))}}"),
            "∈ is outside",
        ),
        (
            format!("{{[u:U, v:U] | ifp(H; {tc} (H(x, z) /\\ G(z, y)))(u, v)}}"),
            "H is named like a schema relation",
        ),
        (
            format!("{{[u:U, v:U] | ifp(S; {tc} (S(x, z)))(u, v)}}"),
            "variable y bound by no atom",
        ),
        (
            format!("{{[u:U, v:U] | ifp(S; {tc} (S(x, z) /\\ (G(z, y) \\/ H(z, y))))(u, v)}}"),
            "nested ∨ is outside",
        ),
    ];
    for (text, why) in &table {
        let q = nestdb::core::parse_query(text, &mut u).unwrap_or_else(|e| panic!("{text}: {e:?}"));
        for mode in MODES {
            let planned = plan(Planner::new(i.schema()), &i, &q, mode);
            assert!(!lowered(&planned), "{text} must not lower");
            let note = planned
                .header
                .iter()
                .find(|h| h.contains("tree-walk oracle"));
            assert!(
                note.is_some_and(|n| n.contains(why)),
                "{text}: expected a note with {why:?}, got {:?}",
                planned.header
            );
            let oracle = run(&plan(Planner::oracle(i.schema()), &i, &q, mode), &i);
            assert_eq!(run(&planned, &i), oracle, "{text} ({mode:?})");
        }
    }

    // An open fixpoint never reaches the recognizer: it does not type-check,
    // served or oracle.
    let open =
        nestdb::core::parse_query("{[u:U, v:U] | ifp(S; x:U | G(x, v))(u)}", &mut u).unwrap();
    for planner in [Planner::new(i.schema()), Planner::oracle(i.schema())] {
        let err = planner.plan_calc(&open, CalcMode::Safe).unwrap_err();
        assert!(
            err.to_string().contains("undeclared free variable v"),
            "{err}"
        );
    }
}

/// A fixpoint named like a stored relation shadows it in the tree-walk;
/// the program cannot, even when the fixpoint derives nothing and so no
/// rule would write the stored relation.
#[test]
fn an_empty_fixpoint_named_like_a_stored_relation_does_not_lower() {
    let (mut u, i) = instance(3, &[(0, 1), (1, 2)], &[]);
    let text = "{[u:U, v:U] | ifp(G; x:U, y:U | G(x, y) /\\ 'a0' = 'a1')(u, v) \\/ G(u, v)}";
    let q = nestdb::core::parse_query(text, &mut u).unwrap();
    let planned = plan(Planner::new(i.schema()), &i, &q, CalcMode::Safe);
    assert!(!lowered(&planned));
    assert_eq!(
        run(&planned, &i).len(),
        2,
        "the stored G, not the empty fixpoint"
    );
}

// ---------------------------------------------------------------------------
// (iii) budgets
// ---------------------------------------------------------------------------

fn chain(n: usize) -> (Universe, Instance) {
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|k| (k, k + 1)).collect();
    instance(n, &edges, &[])
}

fn trip(planned: &Planned, i: &Instance, g: &Governor) -> BudgetKind {
    match planned.physical.execute(i, g) {
        Err(PlanError::Calc(EvalError::Resource(r))) => r.budget,
        other => panic!("expected a CALC resource trip, got {other:?}"),
    }
}

#[test]
fn budgets_trip_as_calc_resource_errors() {
    let (_u, i) = chain(10);
    let q = common::tc_query();
    let planned = plan(Planner::new(i.schema()), &i, &q, CalcMode::Safe);
    assert!(lowered(&planned));
    let limited = |limits: Limits| Governor::new(limits);
    let cases = [
        (
            BudgetKind::Steps,
            limited(Limits {
                max_steps: 20,
                ..Limits::unlimited()
            }),
        ),
        (
            BudgetKind::Memory,
            limited(Limits {
                max_memory_bytes: 64,
                ..Limits::unlimited()
            }),
        ),
        (
            // a 10-chain closes in 10 rounds: stage count = round count
            BudgetKind::FixpointIters,
            limited(Limits {
                max_fixpoint_iters: 2,
                ..Limits::unlimited()
            }),
        ),
    ];
    for (kind, g) in &cases {
        assert_eq!(trip(&planned, &i, g), *kind);
    }
    let g = Governor::unlimited();
    g.cancel();
    assert_eq!(trip(&planned, &i, &g), BudgetKind::Cancelled);
}

#[test]
fn a_fault_at_every_check_degrades_gracefully() {
    let (_u, i) = chain(10);
    let planned = plan(
        Planner::new(i.schema()),
        &i,
        &common::tc_query(),
        CalcMode::Safe,
    );
    let clean = Governor::unlimited();
    let expected = planned
        .physical
        .execute(&i, &clean)
        .unwrap()
        .into_relation();
    assert_eq!(expected.len(), 45);
    let mut tripped = 0;
    for k in 1..=clean.steps_spent() {
        let g = Governor::unlimited();
        g.trip_after(k, BudgetKind::Deadline);
        match planned.physical.execute(&i, &g) {
            Err(PlanError::Calc(EvalError::Resource(r))) => {
                assert_eq!(r.budget, BudgetKind::Deadline, "fault {k}");
                tripped += 1;
            }
            Ok(out) => assert_eq!(out.into_relation(), expected, "fault {k} fell past the end"),
            Err(other) => panic!("fault {k}: {other:?}"),
        }
    }
    assert!(tripped > 0, "the first check must trip");
}

// ---------------------------------------------------------------------------
// (iv) the wire surface, and the theorem's shape as counts
// ---------------------------------------------------------------------------

fn ifp_tc(rel: &str) -> String {
    format!(
        "{{[u:U, v:U] | ifp(S; x:U, y:U | {rel}(x, y) \\/ exists z:U (S(x, z) /\\ {rel}(z, y)))(u, v)}}"
    )
}

fn session(n: usize, h: &[(usize, usize)]) -> Session {
    let (u, i) = instance(n, &[], h);
    let store = Arc::new(RwLock::new(Store::with_data(u, i)));
    Session::builder().store(store).build()
}

fn eval(session: &Session, lang: Lang, text: String, planned: bool, max_steps: u64) -> Response {
    session.run(&Request {
        planned,
        limits: Some(LimitsSpec {
            max_steps: Some(max_steps),
            ..LimitsSpec::default()
        }),
        ..Request::eval(lang, text)
    })
}

#[test]
fn planned_and_unplanned_replies_differ_only_in_spend() {
    let s = session(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
    let mut replies =
        [true, false].map(|planned| eval(&s, Lang::Calc, ifp_tc("H"), planned, u64::MAX));
    assert!(replies[0].ok && replies[0].relations[0].rows.len() == 12);
    let spend = replies
        .each_mut()
        .map(|r| r.spend.take().expect("spend").steps);
    assert!(
        spend[0] < spend[1],
        "semi-naive rounds {} vs oracle {}",
        spend[0],
        spend[1]
    );
    assert_eq!(replies[0].to_json(), replies[1].to_json());
}

/// Least-squares slope of log(steps) against log(n).
fn loglog_slope(points: &[(usize, u64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, s)| ((n as f64).ln(), (s as f64).ln()))
        .collect();
    let k = logs.len() as f64;
    let (mx, my) = (
        logs.iter().map(|p| p.0).sum::<f64>() / k,
        logs.iter().map(|p| p.1).sum::<f64>() / k,
    );
    let cov: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    cov / logs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>()
}

/// Thm 4.1's shape, gated on counts: the served path closes the n-cycle in
/// the steps semi-naive Datalog takes (degree ≈ 2, n² rows); the oracle is
/// *meant* to be the naive Definition 3.1 iteration and keeps its higher
/// degree; the powerset formulation is refused, not attempted.
#[test]
fn closure_steps_grow_like_the_theorem_says() {
    let closure = |n: usize, planned: bool| {
        let cycle: Vec<(usize, usize)> = (0..n).map(|k| (k, (k + 1) % n)).collect();
        let s = session(n, &cycle);
        let r = eval(&s, Lang::Calc, ifp_tc("H"), planned, u64::MAX);
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.relations[0].rows.len(), n * n);
        let steps = r.spend.expect("spend").steps;
        let tc = "rel tc(U, U).\ntc(x, y) :- H(x, y).\ntc(x, y) :- tc(x, z), H(z, y).";
        let dl = eval(&s, Lang::Datalog, tc.to_string(), true, u64::MAX);
        assert_eq!(dl.relations[0].rows.len(), n * n);
        (steps, dl.spend.expect("spend").steps)
    };
    let served: Vec<(usize, u64)> = [8, 16, 32]
        .map(|n| {
            let (steps, datalog) = closure(n, true);
            assert!(
                steps <= datalog,
                "n = {n}: {steps} steps vs Datalog's {datalog}"
            );
            (n, steps)
        })
        .to_vec();
    let slope = loglog_slope(&served);
    assert!(slope <= 2.2, "served slope {slope:.2} from {served:?}");

    let oracle: Vec<(usize, u64)> = [8, 12, 16].map(|n| (n, closure(n, false).0)).to_vec();
    let slope = loglog_slope(&oracle);
    assert!(slope >= 3.0, "oracle slope {slope:.2} from {oracle:?}");

    let s = session(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let powerset = "{[u:U, v:U] | forall s:{[U,U]} ((forall gu:U (forall gv:U (H(gu,gv) -> exists p0:[U,U] (p0 in s /\\ p0.1 = gu /\\ p0.2 = gv))) /\\ forall p:[U,U] (forall q:[U,U] ((p in s /\\ q in s /\\ p.2 = q.1) -> exists r:[U,U] (r in s /\\ r.1 = p.1 /\\ r.2 = q.2)))) -> exists p1:[U,U] (p1 in s /\\ p1.1 = u /\\ p1.2 = v))}";
    let r = s.run(&Request {
        planned: true,
        limits: Some(LimitsSpec {
            max_steps: Some(300_000),
            max_range: Some(1 << 20),
            ..LimitsSpec::default()
        }),
        ..Request::eval(Lang::Calc, powerset)
    });
    assert!(
        r.error.is_some_and(|e| e.resource_trip),
        "powerset closure at n = 4 must be refused"
    );
}
