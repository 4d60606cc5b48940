//! Simultaneous fixpoints: translating **multi-IDB** Datalog¬ programs to
//! a single `CALC + IFP` fixpoint.
//!
//! [`crate::translate::to_ifp`] handles one inductively defined relation;
//! the general `inf-Datalog¬ ≡ CALC + IFP` correspondence of Section 3
//! needs *simultaneous* induction over several relations, folded into one
//! relation `S` with
//!
//! * `2·⌈log₂ k⌉` atom-typed **tag columns**: relation `j` is encoded by
//!   the equality pattern of consecutive tag pairs (`pair b equal` ⇔ bit
//!   `b` of `j` is 1) — the classic generic tagging device, since generic
//!   queries have no constants to tag with;
//! * one **value segment per IDB relation**, concatenated; a row carries
//!   real values only in its own relation's segment.
//!
//! Padding the foreign segments must not blow up the fixpoint, so pad
//! columns are pinned: set-typed components to the constant `{}`,
//! atom-typed components left free (a polynomial `n^p` duplication factor,
//! harmless). The decoder projects a relation's segment from the rows
//! matching its tag pattern.
//!
//! The translation is validated against the Datalog engine on mutually
//! recursive programs (even/odd reachability) in the tests. It is a test
//! oracle for the §3 correspondence, not a served engine: no request
//! reaches it, and the differential suites hold the semi-naive rounds to
//! it.

use crate::eval::Idb;
use crate::program::{DTerm, Literal, Program, Rule};
use crate::translate::TranslateError;
use no_core::ast::{FixOp, Fixpoint, Formula, Term};
use no_core::error::EvalError;
use no_core::eval::Evaluator;
use no_object::{AtomOrder, Governor, Instance, Relation, Type, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A multi-IDB translation: the fixpoint plus the layout needed to embed
/// literals and decode results.
pub struct Simultaneous {
    /// The single simultaneous fixpoint.
    pub fixpoint: Arc<Fixpoint>,
    /// Number of tag bits (`2·tag_bits` leading atom columns).
    pub tag_bits: usize,
    /// Per relation: its index (tag pattern) and `(offset, arity)` of its
    /// value segment within the combined columns (offsets count from the
    /// first value column).
    pub layout: BTreeMap<String, (usize, (usize, usize))>,
}

fn bit(j: usize, b: usize) -> bool {
    (j >> b) & 1 == 1
}

impl Simultaneous {
    /// The tag-pattern constraint for relation index `j` over the given
    /// tag-column terms (pairs `(t_{2b}, t_{2b+1})`).
    fn tag_pattern(&self, j: usize, tags: &[Term]) -> Formula {
        let mut parts = Vec::with_capacity(self.tag_bits);
        for b in 0..self.tag_bits {
            let eq = Formula::Eq(tags[2 * b].clone(), tags[2 * b + 1].clone());
            parts.push(if bit(j, b) { eq } else { eq.not() });
        }
        Formula::and(parts)
    }

    /// Decode one IDB relation from the computed combined relation.
    pub fn decode(&self, rel_name: &str, combined: &Relation) -> Option<Relation> {
        let &(j, (offset, arity)) = self.layout.get(rel_name)?;
        let tagw = 2 * self.tag_bits;
        let mut out = Relation::new();
        for row in combined.iter() {
            let tags_match = (0..self.tag_bits).all(|b| {
                let eq = row[2 * b] == row[2 * b + 1];
                eq == bit(j, b)
            });
            if tags_match {
                out.insert(row[tagw + offset..tagw + offset + arity].to_vec());
            }
        }
        Some(out)
    }
}

/// Constraints pinning a pad variable of type `ty` to a canonical shape:
/// set components equal `{}`, atoms left free.
fn pad_constraints(term: Term, ty: &Type, out: &mut Vec<Formula>) {
    match ty {
        Type::Atom => {}
        Type::Set(_) => out.push(Formula::Eq(term, Term::Const(Value::empty_set()))),
        Type::Tuple(ts) => {
            for (i, t) in ts.iter().enumerate() {
                pad_constraints(term.clone().proj(i + 1), t, out);
            }
        }
    }
}

/// Translate a (possibly multi-IDB) program into one simultaneous `IFP`
/// fixpoint. `body_var_types` supplies types for non-head body variables
/// (defaulting to `U`).
pub fn to_simultaneous_ifp(
    program: &Program,
    body_var_types: &[(&str, Type)],
) -> Result<Simultaneous, TranslateError> {
    let idb_names: Vec<&String> = program.idb.keys().collect();
    if idb_names.is_empty() {
        return Err(TranslateError::NoIdb);
    }
    let k = idb_names.len();
    let tag_bits = if k <= 1 {
        0
    } else {
        (usize::BITS - (k - 1).leading_zeros()) as usize
    };
    // layout: offsets within the value columns
    let mut layout: BTreeMap<String, (usize, (usize, usize))> = BTreeMap::new();
    let mut value_types: Vec<Type> = Vec::new();
    for (j, name) in idb_names.iter().enumerate() {
        let sig = &program.idb[*name];
        layout.insert((*name).clone(), (j, (value_types.len(), sig.len())));
        value_types.extend(sig.iter().cloned());
    }
    let sim_stub = Simultaneous {
        fixpoint: Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "SIM".into(),
            vars: vec![],
            body: Box::new(Formula::And(vec![])),
        }),
        tag_bits,
        layout: layout.clone(),
    };

    // fixpoint columns: tags then value segments; names are reserved
    let mut columns: Vec<(String, Type)> = Vec::new();
    for b in 0..2 * tag_bits {
        columns.push((format!("_tag{b}"), Type::Atom));
    }
    for (i, t) in value_types.iter().enumerate() {
        columns.push((format!("_v{i}"), t.clone()));
    }
    let col_term = |i: usize| -> Term { Term::var(columns[i].0.clone()) };
    let tag_terms: Vec<Term> = (0..2 * tag_bits).map(col_term).collect();

    // translate an IDB literal occurrence into a membership formula over
    // SIM: existential fresh tags + pinned pads + args in the segment
    let mut fresh_counter = 0usize;
    let embed_literal = |name: &str, args: &[DTerm], fresh_counter: &mut usize| -> Formula {
        let (j, (offset, arity)) = layout[name];
        let mut sim_args: Vec<Term> = Vec::with_capacity(2 * tag_bits + value_types.len());
        let mut quantified: Vec<(String, Type)> = Vec::new();
        let mut constraints: Vec<Formula> = Vec::new();
        // fresh tag variables
        let mut my_tags = Vec::new();
        for _ in 0..2 * tag_bits {
            *fresh_counter += 1;
            let v = format!("_s{fresh_counter}");
            quantified.push((v.clone(), Type::Atom));
            my_tags.push(Term::var(v.clone()));
            sim_args.push(Term::var(v));
        }
        if tag_bits > 0 {
            constraints.push(sim_stub.tag_pattern(j, &my_tags));
        }
        // value columns: own segment ← args; others ← pinned pads
        for (i, ty) in value_types.iter().enumerate() {
            if i >= offset && i < offset + arity {
                let arg = &args[i - offset];
                sim_args.push(match arg {
                    DTerm::Var(v) => Term::var(v.clone()),
                    DTerm::Const(c) => Term::Const(c.clone()),
                });
            } else {
                *fresh_counter += 1;
                let v = format!("_s{fresh_counter}");
                quantified.push((v.clone(), ty.clone()));
                pad_constraints(Term::var(v.clone()), ty, &mut constraints);
                sim_args.push(Term::var(v));
            }
        }
        let mut f =
            Formula::and(std::iter::once(Formula::Rel("SIM".into(), sim_args)).chain(constraints));
        for (v, t) in quantified.into_iter().rev() {
            f = Formula::exists(v, t, f);
        }
        f
    };

    // translate each rule into a disjunct over the combined columns
    let mut disjuncts: Vec<Formula> = Vec::new();
    for rule in &program.rules {
        let (j, (offset, arity)) = layout[&rule.head];
        let mut parts: Vec<Formula> = Vec::new();
        // tag pattern on the column variables
        if tag_bits > 0 {
            parts.push(sim_stub.tag_pattern(j, &tag_terms));
        }
        // bind the head segment columns to the head argument terms
        for (pos, arg) in rule.head_args.iter().enumerate() {
            let col = col_term(2 * tag_bits + offset + pos);
            let t = match arg {
                DTerm::Var(v) => Term::var(v.clone()),
                DTerm::Const(c) => Term::Const(c.clone()),
            };
            parts.push(Formula::Eq(col, t));
        }
        // pin the pad columns
        for (i, ty) in value_types.iter().enumerate() {
            if i < offset || i >= offset + arity {
                pad_constraints(col_term(2 * tag_bits + i), ty, &mut parts);
            }
        }
        // body literals: EDB stays, IDB embeds
        for lit in &rule.body {
            let f = match lit {
                Literal::Pos(name, args) if layout.contains_key(name) => {
                    embed_literal(name, args, &mut fresh_counter)
                }
                Literal::Neg(name, args) if layout.contains_key(name) => {
                    embed_literal(name, args, &mut fresh_counter).not()
                }
                other => crate::translate::literal_formula(other),
            };
            parts.push(f);
        }
        // existentially close rule variables that are not column variables
        let mut body = Formula::and(parts);
        let head_vars: Vec<&str> = rule
            .head_args
            .iter()
            .filter_map(|t| match t {
                DTerm::Var(v) => Some(v.as_str()),
                DTerm::Const(_) => None,
            })
            .collect();
        let mut extra: Vec<String> = rule_body_vars(rule)
            .into_iter()
            .filter(|v| !head_vars.contains(&v.as_str()))
            .collect();
        extra.sort();
        extra.dedup();
        for v in extra.into_iter().rev() {
            let ty = body_var_types
                .iter()
                .find(|(n, _)| *n == v)
                .map(|(_, t)| t.clone())
                .unwrap_or(Type::Atom);
            body = Formula::exists(v, ty, body);
        }
        // substitute head variables by the column variables: done above via
        // equality conjuncts; now close them existentially too
        for v in head_vars.into_iter().rev() {
            let ty = lookup_head_type(program, rule, v).unwrap_or(Type::Atom);
            body = Formula::exists(v.to_string(), ty, body);
        }
        disjuncts.push(body);
    }

    let fixpoint = Arc::new(Fixpoint {
        op: FixOp::Ifp,
        rel: "SIM".into(),
        vars: columns,
        body: Box::new(Formula::or(disjuncts)),
    });
    Ok(Simultaneous {
        fixpoint,
        tag_bits,
        layout,
    })
}

/// Failures of the one-shot simultaneous-fixpoint oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvalError {
    /// The program could not be translated into one fixpoint.
    Translate(TranslateError),
    /// The CALC evaluator failed (including governor budget exhaustion,
    /// surfaced as [`EvalError::Resource`]).
    Eval(EvalError),
}

impl fmt::Display for SimEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimEvalError::Translate(e) => write!(f, "{e}"),
            SimEvalError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimEvalError {}

/// The §3 test oracle: translate the whole program into one
/// simultaneous `IFP` fixpoint and run it on the CALC evaluator under the
/// given [`Governor`] (sharing its allowance with any surrounding query),
/// then decode every IDB relation.
pub fn eval_simultaneous(
    program: &Program,
    body_var_types: &[(&str, Type)],
    instance: &Instance,
    order: AtomOrder,
    governor: &Governor,
) -> Result<Idb, SimEvalError> {
    let sim = to_simultaneous_ifp(program, body_var_types).map_err(SimEvalError::Translate)?;
    let mut ev = Evaluator::with_governor(instance, order, governor.clone());
    let combined = ev
        .eval_fixpoint(&sim.fixpoint)
        .map_err(SimEvalError::Eval)?;
    Ok(program
        .idb
        .keys()
        .map(|name| {
            let rel = sim
                .decode(name, &combined)
                .expect("layout covers every declared IDB");
            (name.clone(), rel)
        })
        .collect())
}

fn rule_body_vars(rule: &Rule) -> Vec<String> {
    let mut out = Vec::new();
    let mut note = |t: &DTerm| {
        if let DTerm::Var(v) = t {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    };
    for l in &rule.body {
        match l {
            Literal::Pos(_, args) | Literal::Neg(_, args) => args.iter().for_each(&mut note),
            Literal::Eq(a, b) | Literal::Neq(a, b) | Literal::In(a, b) | Literal::NotIn(a, b) => {
                note(a);
                note(b);
            }
        }
    }
    out
}

fn lookup_head_type(program: &Program, rule: &Rule, var: &str) -> Option<Type> {
    let sig = program.idb.get(&rule.head)?;
    rule.head_args
        .iter()
        .zip(sig)
        .find_map(|(arg, ty)| matches!(arg, DTerm::Var(v) if v == var).then(|| ty.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Strategy};
    use crate::program::Program;
    use no_core::error::EvalConfig;
    use no_core::eval::Evaluator;
    use no_object::{AtomOrder, Instance, RelationSchema, Schema, Universe};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    /// even/odd path lengths from a source — mutually recursive IDBs.
    fn even_odd_program(source: &Value) -> Program {
        let mut p = Program::new();
        p.declare("even", vec![Type::Atom]);
        p.declare("odd", vec![Type::Atom]);
        p.rule(
            "even",
            vec![DTerm::var("x")],
            vec![Literal::Eq(DTerm::var("x"), DTerm::Const(source.clone()))],
        );
        p.rule(
            "odd",
            vec![DTerm::var("y")],
            vec![
                Literal::Pos("even".into(), vec![DTerm::var("x")]),
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            ],
        );
        p.rule(
            "even",
            vec![DTerm::var("y")],
            vec![
                Literal::Pos("odd".into(), vec![DTerm::var("x")]),
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            ],
        );
        p
    }

    fn run_sim(sim: &Simultaneous, instance: &Instance) -> Relation {
        let order = AtomOrder::new(instance.atoms().into_iter().collect());
        let mut ev = Evaluator::new(instance, order, EvalConfig::default());
        ev.eval_fixpoint(&sim.fixpoint).unwrap().as_ref().clone()
    }

    #[test]
    fn even_odd_agrees_with_engine() {
        let (u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        let src = Value::Atom(u.get("a").unwrap());
        let p = even_odd_program(&src);
        let sim = to_simultaneous_ifp(&p, &[]).unwrap();
        assert_eq!(sim.tag_bits, 1);
        let combined = run_sim(&sim, &i);
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        for rel in ["even", "odd"] {
            let decoded = sim.decode(rel, &combined).unwrap();
            assert_eq!(decoded, idb[rel], "relation {rel}");
        }
    }

    #[test]
    fn single_idb_degenerates_to_no_tags() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c")]);
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
        let sim = to_simultaneous_ifp(&p, &[("z", Type::Atom)]).unwrap();
        assert_eq!(sim.tag_bits, 0);
        let combined = run_sim(&sim, &i);
        let (idb, _) = eval(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(sim.decode("tc", &combined).unwrap(), idb["tc"]);
    }

    #[test]
    fn eval_simultaneous_matches_naive_and_respects_budget() {
        use no_object::{BudgetKind, Limits};
        let (u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        let src = Value::Atom(u.get("a").unwrap());
        let p = even_odd_program(&src);
        let order = AtomOrder::new(i.atoms().into_iter().collect());

        // Unlimited governor: agrees with the naive strategy.
        let idb = eval_simultaneous(&p, &[], &i, order.clone(), &Governor::unlimited()).unwrap();
        let (naive, _) = eval(&p, &i, Strategy::Naive).unwrap();
        for rel in ["even", "odd"] {
            assert_eq!(idb[rel], naive[rel], "relation {rel}");
        }

        // Tight step fuel: the shared governor trips inside the CALC engine
        // and the error surfaces structurally instead of panicking.
        let g = Governor::new(Limits {
            max_steps: 5,
            ..Limits::unlimited()
        });
        match eval_simultaneous(&p, &[], &i, order.clone(), &g) {
            Err(SimEvalError::Eval(EvalError::Resource(e))) => {
                assert_eq!(e.budget, BudgetKind::Steps);
                assert_eq!(e.limit, 5);
            }
            other => panic!("expected step-budget trip, got {other:?}"),
        }

        // Cancellation is honoured too.
        let g = Governor::unlimited();
        g.cancel();
        match eval_simultaneous(&p, &[], &i, order, &g) {
            Err(SimEvalError::Eval(EvalError::Resource(e))) => {
                assert_eq!(e.budget, BudgetKind::Cancelled);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn set_typed_segments_pad_with_empty_set() {
        // IDBs of different column types: groups({U}) and marks(U)
        let su = Type::set(Type::Atom);
        let schema = Schema::from_relations([RelationSchema::new("D", vec![su.clone()])]);
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let mut i = Instance::empty(schema);
        i.insert("D", vec![Value::set([Value::Atom(a), Value::Atom(b)])]);
        i.insert("D", vec![Value::set([Value::Atom(a)])]);
        let mut p = Program::new();
        p.declare("groups", vec![su.clone()]);
        p.declare("marks", vec![Type::Atom]);
        p.rule(
            "groups",
            vec![DTerm::var("s")],
            vec![Literal::Pos("D".into(), vec![DTerm::var("s")])],
        );
        p.rule(
            "marks",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("groups".into(), vec![DTerm::var("s")]),
                Literal::In(DTerm::var("x"), DTerm::var("s")),
            ],
        );
        let sim = to_simultaneous_ifp(&p, &[("s", su)]).unwrap();
        let combined = run_sim(&sim, &i);
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        assert_eq!(sim.decode("groups", &combined).unwrap(), idb["groups"]);
        assert_eq!(sim.decode("marks", &combined).unwrap(), idb["marks"]);
        assert_eq!(idb["marks"].len(), 2);
    }

    #[test]
    fn negation_across_idbs() {
        // nodes reachable at both even and odd distances. Three IDBs need
        // 2 tag bits = 4 extra atom columns, so the candidate space grows
        // as n^7 — keep the graph tiny (the even/odd test covers n = 4).
        let (u, i) = graph(&[("a", "b"), ("b", "a")]);
        let src = Value::Atom(u.get("a").unwrap());
        let mut p = even_odd_program(&src);
        p.declare("both", vec![Type::Atom]);
        p.rule(
            "both",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("even".into(), vec![DTerm::var("x")]),
                Literal::Pos("odd".into(), vec![DTerm::var("x")]),
            ],
        );
        let sim = to_simultaneous_ifp(&p, &[]).unwrap();
        assert_eq!(sim.tag_bits, 2); // 3 relations → 2 bits
        let combined = run_sim(&sim, &i);
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        for rel in ["even", "odd", "both"] {
            assert_eq!(
                sim.decode(rel, &combined).unwrap(),
                idb[rel],
                "relation {rel}"
            );
        }
    }

    #[test]
    fn no_idb_rejected() {
        let p = Program::new();
        assert!(matches!(
            to_simultaneous_ifp(&p, &[]),
            Err(TranslateError::NoIdb)
        ));
    }
}
