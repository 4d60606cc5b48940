//! Range functions and safe evaluation (Theorem 5.1).
//!
//! For a range-restricted formula, Theorem 5.1 constructs, per variable, a
//! *range function* computable in LOGSPACE/PTIME/PSPACE such that the
//! restricted-domain interpretation with those ranges coincides with the
//! active-domain interpretation. The construction follows the derivation
//! that certifies the variable, so this module does not walk the formula:
//! it is the value interpretation of [`crate::rr`]'s walk, which decides
//! every rule, and builds each granted range eagerly on a given instance:
//!
//! * rule 1 → column projections of database relations;
//! * rule 2/3 → component projection / product of component ranges;
//! * rule 4 → singletons for constants, members of set ranges across `∈`;
//! * rule 5/6/7 → unions of the ranges the walk keeps;
//! * rule 9 → grouping: sets `{y | φ'(y)}` per assignment of the other
//!   free variables of `φ'`;
//! * rule 9′/10 → fixpoint column ranges by the accumulate-until-stable
//!   iteration, and the computed fixpoint relation as a singleton range.
//!
//! [`safe_eval`] ties it together: compute ranges, install them as the
//! restricted-domain semantics, evaluate. For range-restricted queries
//! this avoids enumerating any `dom(T, D)` — the engine never touches the
//! hyperexponential domains (benchmark E10).

use crate::ast::{Fixpoint, Formula, VarName};
use crate::error::{EvalConfig, EvalError};
use crate::eval::{active_order, Env, Evaluator, Query, RangeMap};
use crate::rr::{Grants, Interp, VarPath, Walk};
use crate::typeck;
use no_object::governor::Governor;
use no_object::{AtomOrder, Instance, Relation, SetValue, Type, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Computed ranges: every entry over-approximates the set of values the
/// variable can take in a satisfying assignment.
#[derive(Debug, Clone, Default)]
pub struct Ranges {
    map: BTreeMap<VarPath, BTreeSet<Value>>,
}

impl Ranges {
    /// The range of a bare variable, if computed.
    pub fn of_var(&self, name: &str) -> Option<&BTreeSet<Value>> {
        self.map.get(&VarPath::root(name))
    }

    /// Convert to the evaluator's [`RangeMap`] (bare variables only —
    /// projections are consequences of the root ranges).
    pub fn to_range_map(&self) -> RangeMap {
        self.map
            .iter()
            .filter(|(p, _)| p.path.is_empty())
            .map(|(p, vs)| (p.root.clone(), vs.iter().cloned().collect()))
            .collect()
    }

    /// Iterate over all computed (path, range) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&VarPath, &BTreeSet<Value>)> {
        self.map.iter()
    }
}

/// Compute ranges for all range-restricted variables of `formula` on
/// `instance`. `var_types` must cover every variable (from
/// [`crate::typeck::check`]).
pub fn compute_ranges(
    instance: &Instance,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
    config: &EvalConfig,
) -> Result<Ranges, EvalError> {
    compute_ranges_governed(instance, var_types, formula, &config.governor())
}

/// As [`compute_ranges`], but drawing from an existing shared
/// [`Governor`] instead of starting a fresh budget.
pub fn compute_ranges_governed(
    instance: &Instance,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
    governor: &Governor,
) -> Result<Ranges, EvalError> {
    let values = Values {
        instance,
        governor: governor.clone(),
    };
    let mut walk = Walk::new(values, var_types);
    let mut map = walk.run(formula)?;
    // Surface fixpoint column ranges under their column variable names so
    // the evaluator restricts the fixpoint's own iteration too (the paper's
    // variable convention makes column names globally unique). A variable
    // bound inside a fixpoint body (`RrAnalysis::fixpoint_local`) is
    // certified by the body's grants but enumerates its active domain:
    // the iteration is restricted through the columns.
    for fix in walk.fixes {
        for ((v, _), col) in fix.fix.vars.iter().zip(fix.cols) {
            if let Some(col) = col {
                map.entry(VarPath::root(v.clone())).or_default().extend(col);
            }
        }
    }
    Ok(Ranges { map })
}

/// Compute ranges and evaluate the query under the restricted-domain
/// semantics — the executable content of Theorem 5.1.
///
/// Variables without a computed range fall back to their active domains,
/// so the call is *always* semantically equivalent to [`crate::eval::eval_query_with`]
/// for range-restricted queries, and merely slower (never wrong) otherwise.
pub fn safe_eval(
    instance: &Instance,
    query: &Query,
    config: EvalConfig,
) -> Result<Relation, EvalError> {
    safe_eval_governed(instance, query, &config.governor())
}

/// As [`safe_eval`], but drawing from an existing shared [`Governor`] so
/// the whole pipeline — range analysis (including any nested evaluation it
/// performs) and the final restricted-domain evaluation — shares one
/// budget with the caller.
pub fn safe_eval_governed(
    instance: &Instance,
    query: &Query,
    governor: &Governor,
) -> Result<Relation, EvalError> {
    let checked = typeck::check(instance.schema(), &query.head, &query.body)
        .map_err(|e| EvalError::ShapeError(e.to_string()))?;
    let governor = governor.clone();
    let ranges = compute_ranges_governed(instance, &checked.var_types, &query.body, &governor)?;
    let order = active_order(instance, query);
    let mut ev =
        Evaluator::with_governor(instance, order, governor).with_ranges(ranges.to_range_map());
    ev.query(query)
}

/// The value interpretation: a range is a finite set of values on
/// `instance`. The governor is shared with the evaluators this runs and
/// with the final evaluation.
struct Values<'a> {
    instance: &'a Instance,
    governor: Governor,
}

impl Interp for Values<'_> {
    type Range = BTreeSet<Value>;
    type Error = EvalError;

    fn size(r: &BTreeSet<Value>) -> usize {
        r.len()
    }

    fn visit(&self) -> Result<(), EvalError> {
        Ok(self.governor.tick("ranges.analyze")?)
    }

    fn check_width(&self, grants: &Grants<BTreeSet<Value>>) -> Result<(), EvalError> {
        let width: usize = grants.values().map(BTreeSet::len).sum();
        Ok(self.governor.check_range("ranges.width", width as u64)?)
    }

    fn column(&self, rel: &str, j: usize) -> Option<BTreeSet<Value>> {
        self.instance.schema().get(rel)?;
        let rows = self.instance.relation(rel);
        Some(rows.iter().map(|row| row[j].clone()).collect())
    }

    fn constant(&self, c: &Value) -> BTreeSet<Value> {
        BTreeSet::from([c.clone()])
    }

    fn empty(&self) -> BTreeSet<Value> {
        BTreeSet::new()
    }

    fn absorb(into: &mut BTreeSet<Value>, more: BTreeSet<Value>) {
        into.extend(more);
    }

    fn members(&self, r: &BTreeSet<Value>) -> BTreeSet<Value> {
        r.iter()
            .filter_map(|v| match v {
                Value::Set(s) => Some(s.iter().cloned()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    fn project(&self, r: &BTreeSet<Value>, i: usize) -> BTreeSet<Value> {
        r.iter().filter_map(|v| v.project(i).cloned()).collect()
    }

    fn product(&self, comps: &[&BTreeSet<Value>]) -> Result<BTreeSet<Value>, EvalError> {
        let size: usize = comps.iter().map(|c| c.len()).product();
        self.governor.check_range("ranges.product", size as u64)?;
        let mut tuples = vec![Vec::new()];
        for comp in comps {
            tuples = tuples
                .iter()
                .flat_map(|t| {
                    comp.iter().map(move |v| {
                        let mut t = t.clone();
                        t.push(v.clone());
                        t
                    })
                })
                .collect();
        }
        Ok(tuples.into_iter().map(Value::Tuple).collect())
    }

    /// Evaluates `φ'` once per assignment of the other variables. An
    /// assignment outside their ranges satisfies `φ'` for no `y`, so the
    /// empty set is always a candidate.
    fn grouping(
        &self,
        phi: &Formula,
        y: &str,
        y_range: &BTreeSet<Value>,
        others: &[(VarName, &BTreeSet<Value>)],
    ) -> Result<BTreeSet<Value>, EvalError> {
        let combos: u64 = others.iter().map(|(_, r)| r.len() as u64).product();
        self.governor.check_range("ranges.grouping", combos)?;
        let mut assignments = vec![Vec::new()];
        for (v, range) in others {
            assignments = assignments
                .iter()
                .flat_map(|a: &Vec<(VarName, Value)>| {
                    range.iter().map(move |val| {
                        let mut a = a.clone();
                        a.push((v.clone(), val.clone()));
                        a
                    })
                })
                .collect();
        }
        let order = self.order_with(phi);
        let mut sets = BTreeSet::from([Value::empty_set()]);
        for assignment in assignments {
            let mut ev =
                Evaluator::with_governor(self.instance, order.clone(), self.governor.clone());
            let mut env = Env::new();
            for (v, val) in assignment {
                env.push(v, val);
            }
            let mut members = Vec::new();
            for yv in y_range {
                env.push(y.to_string(), yv.clone());
                let sat = ev.holds(phi, &mut env);
                env.pop();
                if sat? {
                    members.push(yv.clone());
                }
            }
            sets.insert(Value::Set(SetValue::from_values(members)));
        }
        Ok(sets)
    }

    /// Evaluates the fixpoint with its column ranges installed.
    fn fixpoint(
        &self,
        fix: &Arc<Fixpoint>,
        cols: &[Option<BTreeSet<Value>>],
    ) -> Result<BTreeSet<Value>, EvalError> {
        let mut range_map = RangeMap::new();
        for ((v, _), col) in fix.vars.iter().zip(cols) {
            if let Some(col) = col {
                range_map.insert(v.clone(), col.iter().cloned().collect());
            }
        }
        let mut ev = Evaluator::with_governor(
            self.instance,
            self.order_with(&fix.body),
            self.governor.clone(),
        )
        .with_ranges(range_map);
        let rel = ev.eval_fixpoint(fix)?;
        let values = rel.iter().map(|row| match row.as_slice() {
            [single] => single.clone(),
            _ => Value::Tuple(row.clone()),
        });
        Ok(BTreeSet::from([Value::Set(SetValue::from_values(values))]))
    }
}

impl Values<'_> {
    /// The instance's atoms together with the constants of `f`.
    fn order_with(&self, f: &Formula) -> AtomOrder {
        let mut atoms = self.instance.atoms();
        crate::eval::formula_atoms(f, &mut atoms);
        AtomOrder::new(atoms.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{FixOp, Term};
    use crate::eval::eval_query_with;
    use no_object::{RelationSchema, Schema, Universe};

    fn pair_instance(pairs: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in pairs {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("P", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    fn types_of(i: &Instance, free: &[(&str, Type)], f: &Formula) -> BTreeMap<VarName, Type> {
        let free: Vec<(String, Type)> = free
            .iter()
            .map(|(v, t)| (v.to_string(), t.clone()))
            .collect();
        typeck::check(i.schema(), &free, f).unwrap().var_types
    }

    #[test]
    fn relation_columns_become_ranges() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c")]);
        let f = Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let r = compute_ranges(&i, &vt, &f, &EvalConfig::default()).unwrap();
        assert_eq!(r.of_var("x").unwrap().len(), 2); // a, b
        assert_eq!(r.of_var("y").unwrap().len(), 2); // b, c
    }

    #[test]
    fn nest_query_rule_9_ranges() {
        // Example 5.1: {(x, s) | ∃z P(x,z) ∧ ∀y (P(x,y) ⇔ y ∈ s)}
        let (u, i) = pair_instance(&[("a", "b"), ("a", "c"), ("b", "c")]);
        let body = Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::forall(
                "y",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")])
                    .iff(Formula::In(Term::var("y"), Term::var("s"))),
            ),
        ]);
        let q = Query::new(
            vec![
                ("x".into(), Type::Atom),
                ("s".into(), Type::set(Type::Atom)),
            ],
            body,
        );
        let vt = types_of(
            &i,
            &[("x", Type::Atom), ("s", Type::set(Type::Atom))],
            &q.body,
        );
        let r = compute_ranges(&i, &vt, &q.body, &EvalConfig::default()).unwrap();
        let s_range = r.of_var("s").expect("s ranged by rule 9");
        // candidate sets: {y | P(x,y)} for x ∈ {a, b} = {b,c} and {c}
        let b = Value::Atom(u.get("b").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        assert!(s_range.contains(&Value::set([b.clone(), c.clone()])));
        assert!(s_range.contains(&Value::set([c.clone()])));
        // safe evaluation agrees with active-domain evaluation
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
        assert_eq!(safe.len(), 2);
    }

    #[test]
    fn fixpoint_column_ranges_restrict_iteration() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([
                        Formula::Rel("S".into(), vec![Term::var("x"), Term::var("z")]),
                        Formula::Rel("P".into(), vec![Term::var("z"), Term::var("y")]),
                    ]),
                ),
            ])),
        });
        let q = Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe.len(), 6);
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
    }

    #[test]
    fn ifp_term_rule_9_prime() {
        // s = IFP(Q; y | ∃w P(w,y) ∨ Q(y)) — all P-targets as a set term
        let (u, i) = pair_instance(&[("a", "b"), ("b", "c")]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "Q".into(),
            vars: vec![("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::exists(
                    "w",
                    Type::Atom,
                    Formula::Rel("P".into(), vec![Term::var("w"), Term::var("y")]),
                ),
                Formula::Rel("Q".into(), vec![Term::var("y")]),
            ])),
        });
        let q = Query::new(
            vec![("s".into(), Type::set(Type::Atom))],
            Formula::Eq(Term::var("s"), Term::Fix(fix)),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe.len(), 1);
        let row = safe.sorted_rows()[0].clone();
        let b = Value::Atom(u.get("b").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        assert_eq!(row[0], Value::set([b, c]));
    }

    #[test]
    fn safe_eval_avoids_domain_blowup() {
        // head var of type {{U}} restricted by equality to a fixpoint term
        // would blow up under active-domain semantics with a tight range
        // budget, but safe evaluation never enumerates dom({{U}}, D).
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        // {s : {U} | ∀y (y ∈ s ⇔ ∃w P(w,y))} — the set of targets, grouped
        let body = Formula::forall(
            "y",
            Type::Atom,
            Formula::In(Term::var("y"), Term::var("s")).iff(Formula::exists(
                "w",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("w"), Term::var("y")]),
            )),
        );
        let q = Query::new(vec![("s".into(), Type::set(Type::Atom))], body);
        let mut cfg = EvalConfig::tight();
        cfg.max_range = 16; // dom({U}, 5) = 32 > 16: active-domain would fail
        let safe = safe_eval(&i, &q, cfg.clone()).unwrap();
        assert_eq!(safe.len(), 1);
        assert!(matches!(
            eval_query_with(&i, &q, cfg),
            Err(EvalError::RangeTooLarge { .. })
        ));
    }

    #[test]
    fn unranged_vars_fall_back_to_active_domain() {
        // {x : U | ~P(x, x)} is not range restricted; safe_eval still
        // answers correctly by falling back.
        let (_u, i) = pair_instance(&[("a", "a"), ("a", "b")]);
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::Rel("P".into(), vec![Term::var("x"), Term::var("x")]).not(),
        );
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active);
        assert_eq!(safe.len(), 1); // only b
    }

    #[test]
    fn or_branches_merge_ranges() {
        let (_u, i) = pair_instance(&[("a", "b"), ("c", "d")]);
        let f = Formula::or([
            Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]),
            Formula::Rel("P".into(), vec![Term::var("y"), Term::var("x")]),
        ]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let r = compute_ranges(&i, &vt, &f, &EvalConfig::default()).unwrap();
        assert_eq!(r.of_var("x").unwrap().len(), 4);
        assert_eq!(r.of_var("y").unwrap().len(), 4);
    }

    /// Theorem 5.1 on `src`: safe evaluation equals active-domain
    /// evaluation, and every variable the certificate restricts has a
    /// range.
    fn theorem_5_1(pairs: &[(&str, &str)], src: &str) {
        let (mut u, i) = pair_instance(pairs);
        let q = crate::parser::parse_query(src, &mut u).unwrap();
        let vt = typeck::check(i.schema(), &q.head, &q.body)
            .unwrap()
            .var_types;
        let ranges = compute_ranges(&i, &vt, &q.body, &EvalConfig::default()).unwrap();
        let certified = crate::rr::analyze(i.schema(), &vt, &q.body);
        for p in certified.restricted.difference(&certified.fixpoint_local) {
            assert!(
                ranges.iter().any(|(r, _)| r == p),
                "{p} has no range in {src}"
            );
        }
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        let active = eval_query_with(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(safe, active, "{src}");
    }

    #[test]
    fn rule_9_ranges_hold_beyond_the_grouping() {
        let pairs = [("a", "b"), ("a", "c"), ("b", "c")];
        // x = 'c' has no P-successor: it groups the empty set
        theorem_5_1(
            &pairs,
            "{[x:U, s:{U}] | x = 'c' /\\ forall y:U (P(x, y) <-> y in s)}",
        );
        // s also takes {c, a}, which no grouping produced: y must range
        // over 'a' too, or (b, {c, a}) would pass
        theorem_5_1(
            &pairs,
            "{[x:U, s:{U}] | exists z:U P(x, z) /\\ s = {'c', 'a'} /\\ forall y:U (P(x, y) <-> y in s)}",
        );
    }

    #[test]
    fn nested_fixpoint_columns_follow_the_enclosing_iteration() {
        // T's columns read S, whose columns grow over S's iteration
        let (mut u, i) = pair_instance(&[("a", "a"), ("a", "b"), ("b", "c")]);
        let q = crate::parser::parse_query(
            "{[u:U] | ifp(S; x:U | P(x, x) \\/ exists q:[U,U] \
             (ifp(T; p:[U,U] | S(p.1) /\\ S(p.2))(q) /\\ P(q.1, x)))(u)}",
            &mut u,
        )
        .unwrap();
        let safe = safe_eval(&i, &q, EvalConfig::default()).unwrap();
        assert_eq!(
            safe,
            eval_query_with(&i, &q, EvalConfig::default()).unwrap()
        );
        assert_eq!(safe.len(), 3);
    }

    #[test]
    fn budget_guards_range_computation() {
        let (_u, i) = pair_instance(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let f = Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]);
        let vt = types_of(&i, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let cfg = EvalConfig {
            max_range: 2,
            ..EvalConfig::default()
        };
        match compute_ranges(&i, &vt, &f, &cfg) {
            Err(EvalError::Resource(e)) => {
                assert_eq!(e.budget, no_object::BudgetKind::Range);
                assert_eq!(e.limit, 2);
            }
            other => panic!("expected range Resource error, got {other:?}"),
        }
    }
}
