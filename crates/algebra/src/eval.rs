//! Bottom-up evaluation of algebra expressions over instances.
//!
//! Straightforward operator-at-a-time evaluation under the shared
//! [`Governor`]: the powerset operator produces `2^|rows|` output rows and
//! is exactly the construct the paper's conclusion calls intractable — the
//! governor turns that blowup into a structured
//! [`AlgebraError::Resource`] error, mirroring the CALC evaluator's range
//! budgets. Row counts are checked against the range cap, every
//! materialised row costs one unit of step fuel plus its id width (and any
//! arena growth) against the memory budget, and cancellation/deadline are
//! honoured at each operator boundary.
//!
//! Internally every operator works on hash-consed [`IdRelation`]s: rows
//! are slices of [`no_object::ValueId`], so product/difference dedup,
//! nest grouping, and powerset masks compare `u32` ids instead of value
//! trees. The input instance is interned once per evaluation.
//! [`eval_interned`] answers in those ids, with the arena they live in,
//! for the planner to hand on unresolved; the `eval*` entry points
//! resolve to a [`Relation`] at their own boundary.

use crate::expr::{AlgebraError, Expr, Pred};
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{Governor, Instance, Limits, Relation};
use std::collections::HashMap;
use std::time::Duration;

/// Evaluation limits — a thin constructor over the shared [`Governor`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlgebraConfig {
    /// Maximum number of rows any intermediate result may hold.
    pub max_rows: u64,
    /// Total step fuel: each materialised row costs one step.
    pub max_steps: u64,
    /// Approximate bytes of materialised rows allowed
    /// (`u64::MAX` = unlimited).
    pub max_memory_bytes: u64,
    /// Wall-clock allowance for the whole evaluation (`None` = unlimited).
    pub deadline: Option<Duration>,
}

impl Default for AlgebraConfig {
    fn default() -> Self {
        AlgebraConfig {
            max_rows: 1 << 22,
            max_steps: 200_000_000,
            max_memory_bytes: u64::MAX,
            deadline: None,
        }
    }
}

impl AlgebraConfig {
    /// A config whose only binding limit is the row cap (the historical
    /// constructor).
    pub fn with_max_rows(max_rows: u64) -> Self {
        AlgebraConfig {
            max_rows,
            ..AlgebraConfig::default()
        }
    }

    /// The governor limits this config describes (the row cap maps onto
    /// the governor's range cap).
    pub fn limits(&self) -> Limits {
        Limits {
            max_steps: self.max_steps,
            max_range: self.max_rows,
            max_fixpoint_iters: u64::MAX,
            max_memory_bytes: self.max_memory_bytes,
            deadline: self.deadline,
        }
    }

    /// Start a fresh [`Governor`] enforcing these budgets.
    pub fn governor(&self) -> Governor {
        Governor::new(self.limits())
    }
}

/// Evaluate an expression on an instance.
pub fn eval(
    expr: &Expr,
    instance: &Instance,
    config: &AlgebraConfig,
) -> Result<Relation, AlgebraError> {
    eval_governed(expr, instance, &config.governor())
}

/// Evaluate under an existing [`Governor`] — callers that run several
/// engines inside one query hand the same governor to each so they draw
/// from a single allowance.
pub fn eval_governed(
    expr: &Expr,
    instance: &Instance,
    governor: &Governor,
) -> Result<Relation, AlgebraError> {
    let (out, interner) = eval_interned(expr, instance, governor)?;
    Ok(out.to_relation(&interner))
}

/// [`eval_governed`] without the resolve: the result comes back as the id
/// rows the operators built, with the arena their ids live in.
pub fn eval_interned(
    expr: &Expr,
    instance: &Instance,
    governor: &Governor,
) -> Result<(IdRelation, Interner), AlgebraError> {
    // typecheck up front so evaluation can assume well-formedness
    expr.output_types(instance.schema())?;
    let interner = Interner::new();
    let out = eval_i(expr, instance, governor, &interner)?;
    Ok((out, interner))
}

/// Check an (intermediate) result against the row cap.
fn guard(rel: &IdRelation, governor: &Governor) -> Result<(), AlgebraError> {
    governor
        .check_range("algebra.rows", rel.len() as u64)
        .map_err(AlgebraError::from)
}

/// Charge one materialised id row: a unit of fuel, one id width per
/// column, plus any arena growth its construction caused. Values shared
/// with the input or earlier rows were admitted to the arena already and
/// cost nothing again.
fn charge_row(
    governor: &Governor,
    site: &'static str,
    arity: usize,
    arena_grown: u64,
) -> Result<(), AlgebraError> {
    governor.tick(site)?;
    governor.charge_mem(site, 8 * arity as u64 + arena_grown)?;
    Ok(())
}

fn eval_i(
    expr: &Expr,
    instance: &Instance,
    governor: &Governor,
    int: &Interner,
) -> Result<IdRelation, AlgebraError> {
    governor.checkpoint("algebra.eval")?;
    let out = match expr {
        Expr::Rel(name) => IdRelation::from_relation(int, instance.relation(name)),
        Expr::Const(_, rows) => rows.iter().map(|r| int.intern_row(r)).collect(),
        Expr::Select(e, pred) => {
            let input = eval_i(e, instance, governor, int)?;
            let mut out = IdRelation::new();
            for row in input.iter() {
                if holds(pred, row, int) {
                    out.insert(row);
                }
            }
            out
        }
        Expr::Project(e, cols) => {
            let input = eval_i(e, instance, governor, int)?;
            let mut out = IdRelation::new();
            for row in input.iter() {
                let new: Vec<ValueId> = cols.iter().map(|&i| row[i - 1]).collect();
                charge_row(governor, "algebra.project", new.len(), 0)?;
                out.insert(&new);
            }
            out
        }
        Expr::Product(a, b) => {
            let ra = eval_i(a, instance, governor, int)?;
            let rb = eval_i(b, instance, governor, int)?;
            // check the product size before materialising anything
            let cells = (ra.len() as u64).saturating_mul(rb.len() as u64);
            governor.check_range("algebra.product", cells)?;
            let mut out = IdRelation::new();
            for x in ra.iter() {
                for y in rb.iter() {
                    let mut row = x.to_vec();
                    row.extend_from_slice(y);
                    charge_row(governor, "algebra.product", row.len(), 0)?;
                    out.insert(&row);
                }
            }
            out
        }
        Expr::Union(a, b) => {
            let mut ra = eval_i(a, instance, governor, int)?;
            let rb = eval_i(b, instance, governor, int)?;
            ra.absorb(&rb);
            ra
        }
        Expr::Difference(a, b) => {
            let ra = eval_i(a, instance, governor, int)?;
            let rb = eval_i(b, instance, governor, int)?;
            ra.iter()
                .filter(|r| !rb.contains(r))
                .map(|r| r.to_vec().into_boxed_slice())
                .collect()
        }
        Expr::Intersect(a, b) => {
            let ra = eval_i(a, instance, governor, int)?;
            let rb = eval_i(b, instance, governor, int)?;
            ra.iter()
                .filter(|r| rb.contains(r))
                .map(|r| r.to_vec().into_boxed_slice())
                .collect()
        }
        Expr::Nest(e, col) => {
            let input = eval_i(e, instance, governor, int)?;
            let i = col - 1;
            // group by all other columns; id rows hash in O(arity)
            let mut groups: HashMap<Vec<ValueId>, Vec<ValueId>> = HashMap::new();
            for row in input.iter() {
                governor.tick("algebra.nest")?;
                let mut key = row.to_vec();
                let val = key.remove(i);
                groups.entry(key).or_default().push(val);
            }
            let mut out = IdRelation::new();
            for (mut key, vals) in groups {
                let (set, grown) = int.intern_set_with_growth(vals);
                key.insert(i, set);
                charge_row(governor, "algebra.nest", key.len(), grown)?;
                out.insert(&key);
            }
            out
        }
        Expr::Unnest(e, col) => {
            let input = eval_i(e, instance, governor, int)?;
            let i = col - 1;
            let mut out = IdRelation::new();
            for row in input.iter() {
                let Some(elems) = int.set_elems(row[i]) else {
                    unreachable!("typechecked: unnest column is a set")
                };
                let elems = elems.to_vec();
                for elem in elems {
                    let mut new = row.to_vec();
                    new[i] = elem;
                    charge_row(governor, "algebra.unnest", new.len(), 0)?;
                    out.insert(&new);
                }
                guard(&out, governor)?;
            }
            out
        }
        Expr::Powerset(e) => {
            let input = eval_i(e, instance, governor, int)?;
            let n = input.len();
            // check the 2^n blowup before materialising anything
            if n >= 63 {
                governor.check_range("algebra.powerset", u64::MAX)?;
            }
            governor.check_range("algebra.powerset", 1u64 << n)?;
            // single column (typechecked); canonical element order so every
            // mask yields an already-canonical id slice
            let mut elems: Vec<ValueId> = input.iter().map(|row| row[0]).collect();
            elems.sort_unstable_by(|a, b| int.cmp(*a, *b));
            let mut out = IdRelation::new();
            for mask in 0u64..(1u64 << n) {
                let members: Vec<ValueId> = elems
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (mask >> j) & 1 == 1)
                    .map(|(_, id)| *id)
                    .collect();
                let (set, grown) = int.intern_set_presorted_with_growth(members);
                charge_row(governor, "algebra.powerset", 1, grown)?;
                out.insert(&[set]);
            }
            out
        }
    };
    guard(&out, governor)?;
    Ok(out)
}

fn holds(pred: &Pred, row: &[ValueId], int: &Interner) -> bool {
    match pred {
        Pred::EqCols(a, b) => row[a - 1] == row[b - 1],
        Pred::EqConst(a, v) => {
            // hash-consed: after the first call this is a lookup, and the
            // comparison is an id compare
            row[a - 1] == int.intern(v)
        }
        Pred::InCols(a, b) => match int.set_elems(row[b - 1]) {
            Some(elems) => int.set_contains(elems, row[a - 1]),
            None => false,
        },
        Pred::SubsetCols(a, b) => match (int.set_elems(row[a - 1]), int.set_elems(row[b - 1])) {
            (Some(xs), Some(ys)) => int.set_is_subset(xs, ys),
            _ => false,
        },
        Pred::Not(p) => !holds(p, row, int),
        Pred::And(p, q) => holds(p, row, int) && holds(q, row, int),
        Pred::Or(p, q) => holds(p, row, int) || holds(q, row, int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{BudgetKind, RelationSchema, Schema, Type, Universe, Value};

    fn dept_db() -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema = Schema::from_relations([
            RelationSchema::new("W", vec![Type::Atom, Type::Atom]), // (emp, dept)
        ]);
        let mut i = Instance::empty(schema);
        let atom = |u: &mut Universe, s: &str| Value::Atom(u.intern(s));
        let rows = [("ann", "sales"), ("ben", "sales"), ("eva", "eng")];
        for (e, d) in rows {
            let (e, d) = (atom(&mut u, e), atom(&mut u, d));
            i.insert("W", vec![e, d]);
        }
        (u, i)
    }

    #[test]
    fn select_project() {
        let (u, i) = dept_db();
        let sales = Value::Atom(u.get("sales").unwrap());
        let e = Expr::rel("W").select(Pred::EqConst(2, sales)).project([1]);
        let out = eval(&e, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nest_groups_by_remaining_columns() {
        let (u, i) = dept_db();
        let e = Expr::rel("W").project([2, 1]).nest(2); // (dept, {emp})
        let out = eval(&e, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 2);
        let sales = Value::Atom(u.get("sales").unwrap());
        let ann = Value::Atom(u.get("ann").unwrap());
        let ben = Value::Atom(u.get("ben").unwrap());
        assert!(out.contains(&[sales, Value::set([ann, ben])]));
    }

    #[test]
    fn unnest_inverts_nest() {
        let (_u, i) = dept_db();
        let nested = Expr::rel("W").nest(1); // ({emp}, dept)
        let round = nested.unnest(1);
        let out = eval(&round, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(&out, i.relation("W"));
    }

    #[test]
    fn nest_does_not_invert_unnest_in_general() {
        // unnest then nest merges rows that differed only in the set column
        let mut u = Universe::new();
        let schema = Schema::from_relations([RelationSchema::new(
            "D",
            vec![Type::Atom, Type::set(Type::Atom)],
        )]);
        let mut i = Instance::empty(schema);
        let (k, a, b) = (u.intern("k"), u.intern("a"), u.intern("b"));
        i.insert("D", vec![Value::Atom(k), Value::set([Value::Atom(a)])]);
        i.insert("D", vec![Value::Atom(k), Value::set([Value::Atom(b)])]);
        let round = Expr::rel("D").unnest(2).nest(2);
        let out = eval(&round, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 1); // {a} and {b} merged into {a,b}
        assert!(out.contains(&[Value::Atom(k), Value::set([Value::Atom(a), Value::Atom(b)])]));
    }

    #[test]
    fn product_and_set_ops() {
        let (_u, i) = dept_db();
        let p = Expr::rel("W").product(Expr::rel("W"));
        let out = eval(&p, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 9);
        let diff = Expr::rel("W").difference(Expr::rel("W"));
        assert!(eval(&diff, &i, &AlgebraConfig::default())
            .unwrap()
            .is_empty());
        let inter = Expr::rel("W").intersect(Expr::rel("W"));
        assert_eq!(
            eval(&inter, &i, &AlgebraConfig::default()).unwrap().len(),
            3
        );
    }

    #[test]
    fn powerset_counts_and_budget() {
        let (_u, i) = dept_db();
        let emps = Expr::rel("W").project([1]);
        let pow = emps.clone().powerset();
        let out = eval(&pow, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 8); // 2^3 subsets of the employee set
        let tight = AlgebraConfig::with_max_rows(4);
        match eval(&pow, &i, &tight) {
            Err(AlgebraError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Range);
                assert_eq!(e.limit, 4);
                assert_eq!(e.site, "algebra.powerset");
            }
            other => panic!("expected a range Resource error, got {other:?}"),
        }
    }

    #[test]
    fn product_budget_checked_before_materialising() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W")
            .product(Expr::rel("W"))
            .product(Expr::rel("W"));
        let tight = AlgebraConfig::with_max_rows(10);
        match eval(&big, &i, &tight) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Range),
            other => panic!("expected a range Resource error, got {other:?}"),
        }
    }

    #[test]
    fn step_fuel_bounds_materialised_rows() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W").product(Expr::rel("W"));
        let tight = AlgebraConfig {
            max_steps: 5,
            ..AlgebraConfig::default()
        };
        match eval(&big, &i, &tight) {
            Err(AlgebraError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Steps);
                assert_eq!(e.limit, 5);
            }
            other => panic!("expected a step Resource error, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_bounds_materialised_bytes() {
        let (_u, i) = dept_db();
        let big = Expr::rel("W").product(Expr::rel("W"));
        let tight = AlgebraConfig {
            max_memory_bytes: 64,
            ..AlgebraConfig::default()
        };
        match eval(&big, &i, &tight) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Memory),
            other => panic!("expected a memory Resource error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_rows_with_shared_values_charge_arena_once() {
        // Nesting produces the same set value in several output rows (one
        // per group key here); the arena charges the set's bytes once and
        // every further row only its id width.
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("W", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        let v = Value::Atom(u.intern("v"));
        for k in 0..8 {
            let key = Value::Atom(u.intern(&format!("k{k}")));
            i.insert("W", vec![key, v.clone()]);
        }
        // nest col 2: eight rows, every set column is the same value {v}
        let g = AlgebraConfig::default().governor();
        let out = eval_governed(&Expr::rel("W").nest(2), &i, &g).unwrap();
        assert_eq!(out.len(), 8);
        // the {v} node is charged at most once: total spend stays below
        // eight copies' worth of the old per-clone accounting
        let one_set_bytes = Value::set([v]).approx_bytes();
        assert!(
            g.mem_spent() < 8 * one_set_bytes + 8 * 16,
            "shared nested set recharged per row: {} bytes",
            g.mem_spent()
        );
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let (_u, i) = dept_db();
        let g = AlgebraConfig::default().governor();
        g.cancel();
        match eval_governed(&Expr::rel("W"), &i, &g) {
            Err(AlgebraError::Resource(e)) => assert_eq!(e.budget, BudgetKind::Cancelled),
            other => panic!("expected a cancellation error, got {other:?}"),
        }
    }

    #[test]
    fn membership_predicates() {
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
        // rows whose key is a member of its own set
        let e = Expr::rel("D").select(Pred::InCols(1, 2));
        let out = eval(&e, &i, &AlgebraConfig::default()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
