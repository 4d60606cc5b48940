//! CALC views: convert the maintainable CALC fragment to Datalog¬
//! rules so the one maintenance engine serves both languages.
//!
//! The fragment is exactly what the planner's columnar fast path
//! accepts: flat conjunctive queries (`no_core::decompose`) and
//! disjunctions of them (`no_core::decompose_union`). Each disjunct
//! becomes one rule deriving the same head relation — a non-recursive,
//! negation-free program, so the planner assigns the whole view a
//! single counting stratum and deletions are exact without any
//! re-derivation.

use no_core::conjunctive::{decompose, decompose_union, ConjunctiveQuery};
use no_core::Query;
use no_datalog::Program;
use no_plan::conjunctive_rule;

/// Convert a CALC query in the maintainable fragment to a one-relation
/// Datalog program deriving `name`. Returns `None` outside the
/// fragment (non-flat bodies, negation, head variables not bound by an
/// atom).
pub fn calc_to_program(name: &str, q: &Query) -> Option<Program> {
    let disjuncts: Vec<ConjunctiveQuery> = match decompose(q) {
        Some(cq) => vec![cq],
        None => decompose_union(q)?,
    };
    let types = q.head.iter().map(|(_, t)| t.clone()).collect();
    let mut program = Program::new();
    program.declare(name, types);
    let rules = disjuncts.iter();
    program
        .rules
        .extend(rules.filter_map(|cq| conjunctive_rule(name, cq)));
    Some(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_core::ast::{Formula, Term};
    use no_object::{Type, Universe, Value};

    fn rel(name: &str, vars: [&str; 2]) -> Formula {
        Formula::Rel(
            name.to_string(),
            vars.iter().map(|v| Term::var(*v)).collect(),
        )
    }

    #[test]
    fn conjunctive_query_becomes_one_rule() {
        // q(x, z) :- ∃y. G(x, y) ∧ G(y, z)
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("z".to_string(), Type::Atom)],
            Formula::exists(
                "y",
                Type::Atom,
                Formula::And(vec![rel("G", ["x", "y"]), rel("G", ["y", "z"])]),
            ),
        );
        let p = calc_to_program("two_hop", &q).unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].head, "two_hop");
        assert_eq!(p.rules[0].body.len(), 2);
        assert_eq!(p.idb["two_hop"], vec![Type::Atom, Type::Atom]);
    }

    #[test]
    fn disjunction_becomes_one_rule_per_disjunct() {
        // symmetric closure: q(x, y) :- G(x, y) ∨ G(y, x)
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::or([rel("G", ["x", "y"]), rel("G", ["y", "x"])]),
        );
        let p = calc_to_program("sym", &q).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules.iter().all(|r| r.head == "sym"));
    }

    #[test]
    fn pinned_constants_become_const_terms() {
        let mut u = Universe::new();
        let a = Value::Atom(u.intern("a"));
        // q(y) :- ∃x. G(x, y) ∧ x = 'a'
        let q = Query::new(
            vec![("y".to_string(), Type::Atom)],
            Formula::exists(
                "x",
                Type::Atom,
                Formula::And(vec![
                    rel("G", ["x", "y"]),
                    Formula::Eq(Term::var("x"), Term::Const(a.clone())),
                ]),
            ),
        );
        let p = calc_to_program("from_a", &q).unwrap();
        assert_eq!(p.rules.len(), 1);
        let no_datalog::Literal::Pos(_, args) = &p.rules[0].body[0] else {
            panic!("expected positive literal");
        };
        assert_eq!(args[0], no_datalog::DTerm::Const(a));
    }

    #[test]
    fn unmaintainable_fragment_is_rejected() {
        // negation is outside the fragment
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::And(vec![
                rel("G", ["x", "y"]),
                Formula::Not(Box::new(rel("G", ["y", "x"]))),
            ]),
        );
        assert!(calc_to_program("v", &q).is_none());
    }
}
