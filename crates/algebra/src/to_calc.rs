//! Compiling algebra expressions into CALC queries — the classical
//! "algebra ⊆ calculus" direction, complex-object style.
//!
//! Every operator has a direct logical reading; the two with set
//! manipulation are the interesting ones:
//!
//! * `nest` compiles to exactly the grouping pattern of Example 5.1
//!   (`∃w φ(…w…) ∧ ∀w (φ(…w…) ⇔ w ∈ s)`) — which is also why the
//!   compiled query is *range restricted* (rule 9) and safe to evaluate;
//! * `powerset` compiles to `∀w (w ∈ X → φ(w))` — a quantifier over the
//!   element type only, but a *head* variable of set type, which is the
//!   unrestricted hyperexponential shape the paper's Section 5 exists to
//!   flag.
//!
//! The equivalence `eval(e) == eval(compile(e))` is property-tested in
//! the crate tests and in `tests/algebra_calc.rs`.

use crate::expr::{AlgebraError, Expr, Pred};
use no_core::ast::{Formula, Term};
use no_core::eval::Query;
use no_object::{Schema, Type};

/// Compile an expression into an equivalent CALC query over the same
/// schema. Head variables are named `c1..ck`.
pub fn to_query(expr: &Expr, schema: &Schema) -> Result<Query, AlgebraError> {
    let types = expr.output_types(schema)?;
    let head: Vec<(String, Type)> = types
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("c{}", i + 1), t.clone()))
        .collect();
    let mut ctx = Ctx { schema, fresh: 0 };
    let args: Vec<Term> = head.iter().map(|(v, _)| Term::var(v.clone())).collect();
    let body = ctx.membership(expr, &args)?;
    Ok(Query::new(head, body))
}

struct Ctx<'a> {
    schema: &'a Schema,
    fresh: usize,
}

impl Ctx<'_> {
    fn fresh(&mut self) -> String {
        self.fresh += 1;
        format!("_a{}", self.fresh)
    }

    /// The formula "`args` is a row of `expr`".
    fn membership(&mut self, expr: &Expr, args: &[Term]) -> Result<Formula, AlgebraError> {
        match expr {
            Expr::Rel(name) => Ok(Formula::Rel(name.clone(), args.to_vec())),
            Expr::Select(e, pred) => Ok(Formula::and([
                self.membership(e, args)?,
                pred_formula(pred, args),
            ])),
            Expr::Project(e, cols) => {
                let inner_types = e.output_types(self.schema)?;
                // fresh row of the inner expression
                let vars: Vec<(String, Type)> = inner_types
                    .iter()
                    .map(|t| (self.fresh(), t.clone()))
                    .collect();
                let inner_args: Vec<Term> =
                    vars.iter().map(|(v, _)| Term::var(v.clone())).collect();
                let mut parts = vec![self.membership(e, &inner_args)?];
                for (out_pos, &col) in cols.iter().enumerate() {
                    parts.push(Formula::Eq(
                        args[out_pos].clone(),
                        inner_args[col - 1].clone(),
                    ));
                }
                let mut f = Formula::and(parts);
                for (v, t) in vars.into_iter().rev() {
                    f = Formula::exists(v, t, f);
                }
                Ok(f)
            }
            Expr::Product(a, b) => {
                let left_arity = a.output_types(self.schema)?.len();
                Ok(Formula::and([
                    self.membership(a, &args[..left_arity])?,
                    self.membership(b, &args[left_arity..])?,
                ]))
            }
            Expr::Union(a, b) => Ok(Formula::or([
                self.membership(a, args)?,
                self.membership(b, args)?,
            ])),
            Expr::Difference(a, b) => Ok(Formula::and([
                self.membership(a, args)?,
                self.membership(b, args)?.not(),
            ])),
            Expr::Intersect(a, b) => Ok(Formula::and([
                self.membership(a, args)?,
                self.membership(b, args)?,
            ])),
            Expr::Nest(e, col) => {
                // args[col-1] is the set s; the others are the group key.
                // Example 5.1's pattern: non-empty group ∧ s collects
                // exactly the inner values.
                let elem_ty = e.output_types(self.schema)?[col - 1].clone();
                let make_inner = |w: &str| {
                    let mut inner = args.to_vec();
                    inner[col - 1] = Term::var(w.to_string());
                    inner
                };
                let w_some = self.fresh();
                let some = {
                    let inner = make_inner(&w_some);
                    Formula::exists(w_some.clone(), elem_ty.clone(), self.membership(e, &inner)?)
                };
                let w_all = self.fresh();
                let all = {
                    let inner = make_inner(&w_all);
                    Formula::forall(
                        w_all.clone(),
                        elem_ty,
                        self.membership(e, &inner)?
                            .iff(Formula::In(Term::var(w_all.clone()), args[col - 1].clone())),
                    )
                };
                Ok(Formula::and([some, all]))
            }
            Expr::Unnest(e, col) => {
                let set_ty = e.output_types(self.schema)?[col - 1].clone();
                let s = self.fresh();
                let mut inner = args.to_vec();
                inner[col - 1] = Term::var(s.clone());
                Ok(Formula::exists(
                    s.clone(),
                    set_ty,
                    Formula::and([
                        self.membership(e, &inner)?,
                        Formula::In(args[col - 1].clone(), Term::var(s)),
                    ]),
                ))
            }
            Expr::Powerset(e) => {
                let elem_ty = match e.output_types(self.schema)?.as_slice() {
                    [only] => only.clone(),
                    other => return Err(AlgebraError::PowersetArity { arity: other.len() }),
                };
                let w = self.fresh();
                let member = self.membership(e, &[Term::var(w.clone())])?;
                Ok(Formula::forall(
                    w.clone(),
                    elem_ty,
                    Formula::In(Term::var(w), args[0].clone()).implies(member),
                ))
            }
            Expr::Const(_, rows) => {
                if rows.is_empty() {
                    // unsatisfiable: c1 ≠ c1
                    return Ok(Formula::Eq(args[0].clone(), args[0].clone()).not());
                }
                Ok(Formula::or(rows.iter().map(|row| {
                    Formula::and(
                        row.iter()
                            .zip(args)
                            .map(|(v, a)| Formula::Eq(a.clone(), Term::Const(v.clone()))),
                    )
                })))
            }
        }
    }
}

fn pred_formula(pred: &Pred, args: &[Term]) -> Formula {
    match pred {
        Pred::EqCols(a, b) => Formula::Eq(args[a - 1].clone(), args[b - 1].clone()),
        Pred::EqConst(a, v) => Formula::Eq(args[a - 1].clone(), Term::Const(v.clone())),
        Pred::InCols(a, b) => Formula::In(args[a - 1].clone(), args[b - 1].clone()),
        Pred::SubsetCols(a, b) => Formula::Subset(args[a - 1].clone(), args[b - 1].clone()),
        Pred::Not(p) => pred_formula(p, args).not(),
        Pred::And(p, q) => Formula::and([pred_formula(p, args), pred_formula(q, args)]),
        Pred::Or(p, q) => Formula::or([pred_formula(p, args), pred_formula(q, args)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, AlgebraConfig};
    use no_core::error::EvalConfig;
    use no_core::eval::eval_query_with;
    use no_object::{Instance, RelationSchema, Universe, Value};

    fn dept_db() -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("W", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        let rows = [
            ("ann", "sales"),
            ("ben", "sales"),
            ("eva", "eng"),
            ("eva", "sales"),
        ];
        for (e, d) in rows {
            let (e, d) = (u.intern(e), u.intern(d));
            i.insert("W", vec![Value::Atom(e), Value::Atom(d)]);
        }
        (u, i)
    }

    fn check_equiv(expr: &Expr, i: &Instance) {
        let by_algebra = eval(expr, i, &AlgebraConfig::default()).unwrap();
        let q = to_query(expr, i.schema()).unwrap();
        let by_calc = eval_query_with(i, &q, EvalConfig::default()).unwrap();
        assert_eq!(by_algebra, by_calc, "expr {expr}");
    }

    #[test]
    fn flat_operators_compile() {
        let (u, i) = dept_db();
        let sales = Value::Atom(u.get("sales").unwrap());
        check_equiv(&Expr::rel("W"), &i);
        check_equiv(&Expr::rel("W").select(Pred::EqConst(2, sales)), &i);
        check_equiv(&Expr::rel("W").project([2]), &i);
        check_equiv(&Expr::rel("W").project([2, 1, 2]), &i);
        check_equiv(
            &Expr::rel("W").difference(Expr::rel("W").project([2, 1])),
            &i,
        );
        check_equiv(&Expr::rel("W").union(Expr::rel("W").project([2, 1])), &i);
        check_equiv(
            &Expr::rel("W").intersect(Expr::rel("W").project([2, 1])),
            &i,
        );
        check_equiv(
            &Expr::rel("W")
                .product(Expr::rel("W"))
                .select(Pred::EqCols(2, 3))
                .project([1, 4]),
            &i,
        );
    }

    #[test]
    fn nest_compiles_to_the_example_5_1_pattern() {
        let (_u, i) = dept_db();
        let nested = Expr::rel("W").nest(1); // ({emps}, dept)
        check_equiv(&nested, &i);
        // and the compiled query is range restricted (rule 9)
        let q = to_query(&nested, i.schema()).unwrap();
        let types = no_core::typeck::check(i.schema(), &q.head, &q.body)
            .unwrap()
            .var_types;
        assert!(no_core::rr::is_range_restricted(
            i.schema(),
            &types,
            &q.body
        ));
    }

    #[test]
    fn nest_over_a_projection_is_range_restricted() {
        // the projected-away columns become ∃s inside the grouping's ⇔
        let (_u, i) = dept_db();
        let nested = Expr::rel("W")
            .product(Expr::rel("W"))
            .project([1, 4])
            .nest(1);
        check_equiv(&nested, &i);
        let q = to_query(&nested, i.schema()).unwrap();
        let types = no_core::typeck::check(i.schema(), &q.head, &q.body)
            .unwrap()
            .var_types;
        assert!(no_core::rr::is_range_restricted(
            i.schema(),
            &types,
            &q.body
        ));
    }

    #[test]
    fn unnest_compiles() {
        let (_u, i) = dept_db();
        check_equiv(&Expr::rel("W").nest(1).unnest(1), &i);
    }

    #[test]
    fn powerset_compiles_and_is_flagged_unrestricted() {
        let (_u, i) = dept_db();
        let pow = Expr::rel("W").project([2]).powerset();
        check_equiv(&pow, &i);
        let q = to_query(&pow, i.schema()).unwrap();
        let types = no_core::typeck::check(i.schema(), &q.head, &q.body)
            .unwrap()
            .var_types;
        // the head set variable is NOT range restricted — the calculus
        // analyzer sees the hyperexponential shape the algebra hides
        assert!(!no_core::rr::is_range_restricted(
            i.schema(),
            &types,
            &q.body
        ));
    }

    #[test]
    fn const_relations_compile() {
        let (u, i) = dept_db();
        let ann = Value::Atom(u.get("ann").unwrap());
        let eva = Value::Atom(u.get("eva").unwrap());
        let consts = Expr::Const(vec![Type::Atom], vec![vec![ann], vec![eva]]);
        check_equiv(&consts, &i);
        check_equiv(&Expr::rel("W").project([1]).intersect(consts), &i);
        // empty constant: unsatisfiable body
        let empty = Expr::Const(vec![Type::Atom], vec![]);
        check_equiv(&empty, &i);
    }

    #[test]
    fn membership_predicates_compile() {
        let mut u = Universe::new();
        let schema = Schema::from_relations([RelationSchema::new(
            "D",
            vec![Type::Atom, Type::set(Type::Atom)],
        )]);
        let mut i = Instance::empty(schema);
        let (a, b) = (u.intern("a"), u.intern("b"));
        i.insert(
            "D",
            vec![Value::Atom(a), Value::set([Value::Atom(a), Value::Atom(b)])],
        );
        i.insert("D", vec![Value::Atom(b), Value::set([Value::Atom(a)])]);
        check_equiv(&Expr::rel("D").select(Pred::InCols(1, 2)), &i);
        check_equiv(&Expr::rel("D").select(Pred::InCols(1, 2).not()), &i);
        check_equiv(&Expr::rel("D").select(Pred::SubsetCols(2, 2)), &i);
    }
}
