//! CALC+IFP on the Datalog round engine: a query of the
//! positive-existential fragment that applies fixpoints compiles to a
//! [`Program`] at plan time.
//!
//! Section 3 of the paper: "inf-Datalog¬ is equivalent to CALC_i^k+IFP".
//! For the [`FixpointQuery`] `no_core::conjunctive::decompose` returns,
//! the translation is direct — each fixpoint becomes one IDB
//! relation, each disjunct of its body one rule, and the query itself one
//! more non-recursive rule into a fresh result relation (or no rule at
//! all when the query just names a fixpoint's columns in order). Without
//! negation every stage is monotone, so the nested inflationary fixpoints
//! of Definition 3.1 and the program's one simultaneous fixpoint are the
//! same least fixpoint, and semi-naive rounds compute it touching only
//! each round's new facts — where the tree-walk evaluator re-enumerates
//! every candidate tuple at every stage. Anything outside the fragment
//! stays on the tree-walk, which is also the oracle this path is tested
//! against.

use no_core::conjunctive::{fresh_name, CArg, ConjunctiveQuery, FixpointQuery, Reject};
use no_core::Query;
use no_datalog::{DTerm, Literal, Program, Rule};
use no_object::Schema;

/// The rule `head(…) :- atoms` of one conjunctive body; pinned variables
/// are replaced by their constants. `None` for a statically empty body.
fn conjunctive_rule(head: &str, cq: &ConjunctiveQuery) -> Option<Rule> {
    if cq.unsat {
        return None;
    }
    let term = |v: &str| match cq.pins.get(v) {
        Some(c) => DTerm::Const(c.clone()),
        None => DTerm::var(v),
    };
    let body = cq
        .atoms
        .iter()
        .map(|(rel, args)| {
            let args = args.iter().map(|a| match a {
                CArg::Var(v) => term(v),
                CArg::Const(c) => DTerm::Const(c.clone()),
            });
            Literal::Pos(rel.clone(), args.collect())
        })
        .collect();
    Some(Rule {
        head: head.to_string(),
        head_args: cq.head.iter().map(|v| term(v)).collect(),
        body,
    })
}

/// The fixpoint relation a query is the identity on: one disjunct, one
/// atom, over a fixpoint, whose arguments are the head variables in order.
fn identity_on(fq: &FixpointQuery) -> Option<&str> {
    let [cq] = fq.disjuncts.as_slice() else {
        return None;
    };
    let [(rel, args)] = cq.atoms.as_slice() else {
        return None;
    };
    let distinct = (1..cq.head.len()).all(|i| !cq.head[..i].contains(&cq.head[i]));
    let same = args.len() == cq.head.len()
        && args
            .iter()
            .zip(&cq.head)
            .all(|(a, h)| matches!(a, CArg::Var(v) if v == h));
    let def = fq.fixpoints.iter().find(|d| d.idb == *rel)?;
    (same && distinct && cq.pins.is_empty() && !cq.unsat).then_some(def.idb.as_str())
}

/// Compile `query`, recognized as `fq`, to a Datalog program and the
/// name of the IDB relation that holds its answer, or say why it cannot
/// run as one. The query must type-check against `schema`.
pub fn lower_ifp(
    schema: &Schema,
    query: &Query,
    fq: &FixpointQuery,
) -> Result<(Program, String), Reject> {
    let mut program = Program::new();
    for def in &fq.fixpoints {
        // The tree-walk's fixpoint scope shadows a stored relation; a
        // program cannot, so such a query stays where shadowing works.
        if schema.get(&def.idb).is_some() {
            return Err(format!(
                "fixpoint relation {} is named like a schema relation",
                def.idb
            ));
        }
        program.declare(def.idb.clone(), def.columns.clone());
        let rules = def.disjuncts.iter();
        program
            .rules
            .extend(rules.filter_map(|cq| conjunctive_rule(&def.idb, cq)));
    }
    if let Some(idb) = identity_on(fq) {
        return Ok((program, idb.to_string()));
    }
    let result = fresh_name("result", |name| {
        schema.get(name).is_some() || program.idb.contains_key(name)
    });
    program.declare(result.clone(), query.output_types());
    let rules = fq.disjuncts.iter();
    program
        .rules
        .extend(rules.filter_map(|cq| conjunctive_rule(&result, cq)));
    Ok((program, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalcMode, Physical, Planner};
    use no_object::{RelationSchema, Type, Universe};

    /// The program the planner runs `text` on, or the header line that
    /// says why it stays on the tree-walk.
    fn lower(schema: &Schema, text: &str) -> Result<(Program, String), Reject> {
        let q = no_core::parse_query(text, &mut Universe::new()).expect("parses");
        let planned = Planner::new(schema).plan_calc(&q, CalcMode::Safe).unwrap();
        match planned.physical {
            Physical::Ifp { program, result } => Ok((program, result)),
            _ => Err(planned.header[1].clone()),
        }
    }

    #[test]
    fn closure_lowers_to_two_rules_and_other_uses_add_a_result_rule() {
        let pair = vec![Type::Atom, Type::Atom];
        let schema = Schema::from_relations([
            RelationSchema::new("G", pair.clone()),
            RelationSchema::new("result", pair),
        ]);
        let tc = "ifp(S; x:U, y:U | G(x, y) \\/ exists z:U (S(x, z) /\\ G(z, y)))";
        // naming the columns in order needs no rule beyond the fixpoint's
        let (program, result) = lower(&schema, &format!("{{[u:U, v:U] | {tc}(u, v)}}")).unwrap();
        assert_eq!(result, "S");
        assert_eq!(
            program.to_string(),
            "rel S(U, U).\nS(x, y) :- G(x, y).\nS(x, y) :- S(x, z), G(z, y).\n"
        );
        // anything else goes through a result relation, named around the schema
        let (program, result) = lower(&schema, &format!("{{[u:U, v:U] | {tc}(v, u)}}")).unwrap();
        assert_eq!(result, "result_2");
        assert_eq!(
            program.rules.last().unwrap().to_string(),
            "result_2(u, v) :- S(v, u)."
        );
        assert_eq!(program.validate(&schema), Ok(()));
        let shadow = "{[u:U, v:U] | ifp(G; x:U, y:U | G(x, y))(u, v)}";
        assert_eq!(
            lower(&schema, shadow).unwrap_err(),
            "fixpoints run on the tree-walk oracle: \
             fixpoint relation G is named like a schema relation"
        );
    }
}
