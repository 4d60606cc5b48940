//! The optimizer: the rewrite steps of the served pipeline.
//!
//! Every step preserves query results — the property suite in
//! `tests/plan_passes.rs` proves the served plan ≡ the tree-walk oracle
//! on generated instances. The steps, named in `:explain`'s `passes:`
//! line when they apply:
//!
//! | pass                  | rewrite                                          |
//! |-----------------------|--------------------------------------------------|
//! | `pushdown`            | selections sink into products/unions/differences; top-level `v = c` conjuncts pin CALC ranges to singletons |
//! | `reorder-quantifiers` | head variables enumerate smallest range first (cheap stats from the instance) |
//! | `join-algorithms`     | flat fragments lower to the columnar kernels, one algorithm per join (see `crate::joins`) |
//! | `delta-rewrite`       | semi-naive Datalog¬: recursive rules expand into Δ-pinned variants |
//! | `governor-trips`      | annotate operators whose estimate already exceeds a governor budget — the plan says *where* evaluation will trip before any fuel is spent |

use crate::ir::{Node, NodeId, Op, Plan};
use no_algebra::{Expr, Pred};
use no_core::ast::{Formula, Term};
use no_core::Query;
use no_object::{Limits, Schema, Value};
use std::collections::BTreeSet;

/// One step of the served pipeline, named in plan renderings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// Predicate pushdown (algebra selections, CALC constant pins).
    Pushdown,
    /// Quantifier reordering by estimated range cardinality.
    Reorder,
    /// Columnar lowering with per-join algorithm selection (hash, merge,
    /// or nested loop) for the flat conjunctive fragment.
    Joins,
    /// Semi-naive delta rewrite for Datalog¬.
    Delta,
    /// Governor-aware early-trip annotations.
    Trips,
}

impl Pass {
    /// Stable pass name (used in renderings, goldens, and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Pushdown => "pushdown",
            Pass::Reorder => "reorder-quantifiers",
            Pass::Joins => "join-algorithms",
            Pass::Delta => "delta-rewrite",
            Pass::Trips => "governor-trips",
        }
    }
}

// ---------------------------------------------------------------------------
// pushdown (algebra)
// ---------------------------------------------------------------------------

/// `(min, max)` 1-based column indices a predicate mentions.
fn pred_cols(p: &Pred) -> (usize, usize) {
    match p {
        Pred::EqCols(a, b) | Pred::InCols(a, b) | Pred::SubsetCols(a, b) => (*a.min(b), *a.max(b)),
        Pred::EqConst(a, _) => (*a, *a),
        Pred::Not(inner) => pred_cols(inner),
        Pred::And(a, b) | Pred::Or(a, b) => {
            let (la, ha) = pred_cols(a);
            let (lb, hb) = pred_cols(b);
            (la.min(lb), ha.max(hb))
        }
    }
}

/// Shift every column index down by `by` (for pushing into the right side
/// of a product).
fn shift_pred(p: &Pred, by: usize) -> Pred {
    match p {
        Pred::EqCols(a, b) => Pred::EqCols(a - by, b - by),
        Pred::InCols(a, b) => Pred::InCols(a - by, b - by),
        Pred::SubsetCols(a, b) => Pred::SubsetCols(a - by, b - by),
        Pred::EqConst(a, v) => Pred::EqConst(a - by, v.clone()),
        Pred::Not(inner) => Pred::Not(Box::new(shift_pred(inner, by))),
        Pred::And(a, b) => Pred::And(Box::new(shift_pred(a, by)), Box::new(shift_pred(b, by))),
        Pred::Or(a, b) => Pred::Or(Box::new(shift_pred(a, by)), Box::new(shift_pred(b, by))),
    }
}

/// Flatten a conjunction into its conjuncts.
fn conjuncts(p: Pred) -> Vec<Pred> {
    match p {
        Pred::And(a, b) => {
            let mut out = conjuncts(*a);
            out.extend(conjuncts(*b));
            out
        }
        other => vec![other],
    }
}

/// Rebuild a conjunction (None for the empty list).
fn conjoin(mut ps: Vec<Pred>) -> Option<Pred> {
    let first = ps.pop()?;
    Some(ps.into_iter().rev().fold(first, |acc, p| p.and(acc)))
}

fn select_over(e: Expr, p: Option<Pred>) -> Expr {
    match p {
        Some(p) => Expr::Select(Box::new(e), p),
        None => e,
    }
}

/// Push selections toward scans. Semantics-preserving identities only:
/// σ_p(A × B) splits `p`'s conjuncts by side, σ_p(A ∪ B) = σ_p A ∪ σ_p B,
/// σ_p(A ∖ B) = σ_p A ∖ B, and adjacent selections merge. Returns the
/// rewritten expression and whether anything changed.
pub fn pushdown_expr(expr: &Expr, schema: &Schema) -> (Expr, bool) {
    let mut e = expr.clone();
    let mut changed_any = false;
    // A pushed selection can enable further pushes below it; iterate to a
    // (small, structurally decreasing) fixpoint.
    for _ in 0..16 {
        let (next, changed) = pushdown_once(&e, schema);
        e = next;
        if !changed {
            break;
        }
        changed_any = true;
    }
    (e, changed_any)
}

fn pushdown_once(expr: &Expr, schema: &Schema) -> (Expr, bool) {
    macro_rules! unary {
        ($ctor:expr, $inner:expr) => {{
            let (i, c) = pushdown_once($inner, schema);
            ($ctor(Box::new(i)), c)
        }};
    }
    macro_rules! binary {
        ($ctor:expr, $a:expr, $b:expr) => {{
            let (l, cl) = pushdown_once($a, schema);
            let (r, cr) = pushdown_once($b, schema);
            ($ctor(Box::new(l), Box::new(r)), cl || cr)
        }};
    }
    match expr {
        Expr::Select(inner, p) => {
            let (inner, inner_changed) = pushdown_once(inner, schema);
            match inner {
                Expr::Product(a, b) => {
                    let la = match a.output_types(schema) {
                        Ok(t) => t.len(),
                        // Whole-expr validation passed before optimizing,
                        // so this is unreachable; bail conservatively.
                        Err(_) => {
                            return (
                                Expr::Select(Box::new(Expr::Product(a, b)), p.clone()),
                                inner_changed,
                            )
                        }
                    };
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    let mut keep = Vec::new();
                    for c in conjuncts(p.clone()) {
                        let (lo, hi) = pred_cols(&c);
                        if hi <= la {
                            left.push(c);
                        } else if lo > la {
                            right.push(shift_pred(&c, la));
                        } else {
                            keep.push(c);
                        }
                    }
                    let changed = !(left.is_empty() && right.is_empty());
                    let product = Expr::Product(
                        Box::new(select_over(*a, conjoin(left))),
                        Box::new(select_over(*b, conjoin(right))),
                    );
                    (
                        select_over(product, conjoin(keep)),
                        inner_changed || changed,
                    )
                }
                Expr::Union(a, b) => (
                    Expr::Union(
                        Box::new(Expr::Select(a, p.clone())),
                        Box::new(Expr::Select(b, p.clone())),
                    ),
                    true,
                ),
                Expr::Difference(a, b) => (
                    Expr::Difference(Box::new(Expr::Select(a, p.clone())), b),
                    true,
                ),
                Expr::Select(a, p2) => (Expr::Select(a, p2.and(p.clone())), true),
                other => (Expr::Select(Box::new(other), p.clone()), inner_changed),
            }
        }
        Expr::Rel(_) | Expr::Const(..) => (expr.clone(), false),
        Expr::Project(e, cols) => {
            let cols = cols.clone();
            unary!(|i| Expr::Project(i, cols), e)
        }
        Expr::Nest(e, col) => {
            let col = *col;
            unary!(|i| Expr::Nest(i, col), e)
        }
        Expr::Unnest(e, col) => {
            let col = *col;
            unary!(|i| Expr::Unnest(i, col), e)
        }
        Expr::Powerset(e) => unary!(Expr::Powerset, e),
        Expr::Product(a, b) => binary!(Expr::Product, a, b),
        Expr::Union(a, b) => binary!(Expr::Union, a, b),
        Expr::Difference(a, b) => binary!(Expr::Difference, a, b),
        Expr::Intersect(a, b) => binary!(Expr::Intersect, a, b),
    }
}

// ---------------------------------------------------------------------------
// pushdown (CALC constant pins)
// ---------------------------------------------------------------------------

/// Top-level conjuncts of a body (the whole body when it is not a
/// conjunction). Only these may pin variables: under quantifiers,
/// negation, or disjunction the equality is not globally forced.
fn top_conjuncts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::And(parts) => parts.iter().flat_map(top_conjuncts).collect(),
        other => vec![other],
    }
}

/// Constant pins justified by top-level `v = c` conjuncts over head
/// variables: any satisfying assignment must bind `v` to exactly `c`, so
/// `v`'s range collapses to the singleton.
pub fn calc_pins(query: &Query) -> Vec<(String, Value)> {
    let head: BTreeSet<&str> = query.head.iter().map(|(v, _)| v.as_str()).collect();
    let mut pins = Vec::new();
    for c in top_conjuncts(&query.body) {
        if let Formula::Eq(a, b) = c {
            let pin = match (a, b) {
                (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v))
                    if head.contains(v.as_str()) =>
                {
                    Some((v.clone(), c.clone()))
                }
                _ => None,
            };
            if let Some((v, c)) = pin {
                if !pins.iter().any(|(pv, _)| *pv == v) {
                    pins.push((v, c));
                }
            }
        }
    }
    pins
}

// ---------------------------------------------------------------------------
// reorder-quantifiers
// ---------------------------------------------------------------------------

/// A stable ascending-by-estimate permutation, or `None` when it is the
/// identity. `perm[i]` = the original index enumerated at position `i`;
/// unknown estimates sort last (ties keep source order — determinism).
pub fn sort_permutation(ests: &[Option<u64>]) -> Option<Vec<usize>> {
    let mut perm: Vec<usize> = (0..ests.len()).collect();
    perm.sort_by_key(|&i| (ests[i].unwrap_or(u64::MAX), i));
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        None
    } else {
        Some(perm)
    }
}

// ---------------------------------------------------------------------------
// delta-rewrite
// ---------------------------------------------------------------------------

fn copy_subtree(
    src: &Plan,
    id: NodeId,
    dst: &mut Plan,
    transform: &mut impl FnMut(&Node, &mut Plan, Vec<NodeId>) -> NodeId,
) -> NodeId {
    let node = src.node(id);
    let children: Vec<NodeId> = node
        .children
        .iter()
        .map(|&c| copy_subtree(src, c, dst, transform))
        .collect();
    transform(node, dst, children)
}

/// The semi-naive rewrite (the plan-level form of the classic Datalog
/// delta transformation): each rule with `n ≥ 1` positive IDB body
/// literals expands into `n` variants, the `k`-th reading literal `k`
/// from the previous round's **delta** instead of the full relation.
/// Non-recursive rules keep one variant, noted as contributing from the
/// first round only. Soundness: every new fact derivable in round `m`
/// uses at least one fact first derived in round `m−1`, so the variant
/// family derives exactly what the naive rule does.
pub fn delta_rewrite(plan: &Plan, idb: &BTreeSet<String>) -> Plan {
    let root = plan.node(plan.root);
    let Op::Program { semantics: _ } = &root.op else {
        return plan.clone(); // not a Datalog plan; nothing to do
    };
    let mut out = Plan::new();
    let mut new_rules = Vec::new();
    for &rule_id in &root.children {
        let rule = plan.node(rule_id);
        let (Op::Rule { head, .. }, [body]) = (&rule.op, rule.children.as_slice()) else {
            new_rules.push(copy_subtree(plan, rule_id, &mut out, &mut |n, dst, ch| {
                dst.add_est(n.op.clone(), ch, n.est)
            }));
            continue;
        };
        // Count IDB scans in this body, in DFS order.
        let idb_scans = {
            let mut stack = vec![*body];
            let mut n = 0usize;
            while let Some(i) = stack.pop() {
                let node = plan.node(i);
                if matches!(&node.op, Op::Scan { rel } if idb.contains(rel)) {
                    n += 1;
                }
                stack.extend(&node.children);
            }
            n
        };
        if idb_scans == 0 {
            let new_body = copy_subtree(plan, *body, &mut out, &mut |n, dst, ch| {
                dst.add_est(n.op.clone(), ch, n.est)
            });
            let id = out.add(
                Op::Rule {
                    head: head.clone(),
                    delta_pos: None,
                },
                vec![new_body],
            );
            out.nodes[id].note = Some("non-recursive: fires from round 0".to_string());
            new_rules.push(id);
            continue;
        }
        for k in 0..idb_scans {
            let mut seen = 0usize;
            let new_body = copy_subtree(plan, *body, &mut out, &mut |n, dst, ch| {
                if let Op::Scan { rel } = &n.op {
                    if idb.contains(rel) {
                        let this = seen;
                        seen += 1;
                        if this == k {
                            let id = dst.add_est(Op::DeltaScan { rel: rel.clone() }, ch, None);
                            dst.nodes[id].note =
                                Some("facts new in the previous round".to_string());
                            return id;
                        }
                    }
                }
                dst.add_est(n.op.clone(), ch, n.est)
            });
            new_rules.push(out.add(
                Op::Rule {
                    head: head.clone(),
                    delta_pos: Some(k),
                },
                vec![new_body],
            ));
        }
    }
    out.root = out.add(
        Op::Program {
            semantics: "semi-naive".to_string(),
        },
        new_rules,
    );
    out
}

// ---------------------------------------------------------------------------
// governor-trips
// ---------------------------------------------------------------------------

/// Annotate operators whose cardinality estimate already exceeds a
/// governor budget: evaluation *will* trip there (or earlier), and the
/// plan says so before any fuel is spent. Returns the warnings (also
/// attached to the nodes), each once even when a repeated subtree
/// carries it at several nodes.
pub fn governor_trips(plan: &mut Plan, limits: &Limits) -> Vec<String> {
    let mut warnings: Vec<String> = Vec::new();
    for node in &mut plan.nodes {
        let Some(est) = node.est else { continue };
        let range_bound = matches!(
            node.op,
            Op::Range { .. }
                | Op::ActiveDomain { .. }
                | Op::Enumerate { .. }
                | Op::Quantify { .. }
                | Op::Powerset
        );
        let w = if range_bound && est > limits.max_range {
            format!(
                "{}: estimated {est} candidates exceeds max_range {} — evaluation trips early here",
                node.op.name(),
                limits.max_range
            )
        } else if est > limits.max_steps {
            format!(
                "{}: estimated {est} rows exceeds the {} step budget — evaluation trips early here",
                node.op.name(),
                limits.max_steps
            )
        } else {
            continue;
        };
        node.note = Some(match node.note.take() {
            Some(prev) => format!("{prev}; ⚠ {w}"),
            None => format!("⚠ {w}"),
        });
        if !warnings.contains(&w) {
            warnings.push(w);
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_datalog;
    use crate::physical::DatalogMode;
    use no_datalog::{DTerm, Literal, Program};
    use no_object::{RelationSchema, Type};

    fn graph_schema() -> Schema {
        Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
    }

    #[test]
    fn pushdown_splits_product_selections() {
        let schema = graph_schema();
        // σ(#1=#2 ∧ #3=#4)(G × G) → σ(#1=#2)G × σ(#1=#2)G
        let e = Expr::rel("G")
            .product(Expr::rel("G"))
            .select(Pred::EqCols(1, 2).and(Pred::EqCols(3, 4)));
        let (out, changed) = pushdown_expr(&e, &schema);
        assert!(changed);
        let expected = Expr::rel("G")
            .select(Pred::EqCols(1, 2))
            .product(Expr::rel("G").select(Pred::EqCols(1, 2)));
        assert_eq!(out, expected);
    }

    #[test]
    fn pushdown_keeps_cross_side_conjuncts_on_top() {
        let schema = graph_schema();
        let e = Expr::rel("G")
            .product(Expr::rel("G"))
            .select(Pred::EqCols(2, 3));
        let (out, changed) = pushdown_expr(&e, &schema);
        assert!(!changed, "a cross-side join predicate cannot sink");
        assert_eq!(out, e);
    }

    #[test]
    fn pushdown_distributes_over_union_and_difference() {
        let schema = graph_schema();
        let e = Expr::rel("G")
            .union(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2));
        let (out, changed) = pushdown_expr(&e, &schema);
        assert!(changed);
        assert!(matches!(out, Expr::Union(..)), "{out:?}");

        let e = Expr::rel("G")
            .difference(Expr::rel("G").project([2, 1]))
            .select(Pred::EqCols(1, 2));
        let (out, _) = pushdown_expr(&e, &schema);
        match out {
            Expr::Difference(l, r) => {
                assert!(matches!(*l, Expr::Select(..)));
                assert!(
                    !matches!(*r, Expr::Select(..)),
                    "right side must not gain σ"
                );
            }
            other => panic!("expected difference, got {other:?}"),
        }
    }

    #[test]
    fn sort_permutation_is_stable_and_identity_aware() {
        assert_eq!(sort_permutation(&[Some(1), Some(2)]), None);
        assert_eq!(
            sort_permutation(&[Some(9), Some(2), None]),
            Some(vec![1, 0, 2])
        );
        assert_eq!(sort_permutation(&[Some(3), Some(3)]), None, "stable ties");
    }

    #[test]
    fn governor_trips_reports_a_repeated_subtree_once() {
        // powerset(π₁ G) twice: both copies are annotated, one warning.
        let mut p = Plan::new();
        let mut powerset = || {
            let scan = p.add_est(Op::Scan { rel: "G".into() }, vec![], Some(5));
            let proj = p.add_est(Op::Project { cols: vec![1] }, vec![scan], Some(5));
            p.add_est(Op::Powerset, vec![proj], Some(32))
        };
        let (a, b) = (powerset(), powerset());
        p.root = p.add(Op::Join, vec![a, b]);
        let limits = Limits {
            max_range: 10,
            ..Limits::unlimited()
        };
        let warnings = governor_trips(&mut p, &limits);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        for id in [a, b] {
            assert!(p.node(id).note.as_ref().unwrap().contains("max_range 10"));
        }
    }

    #[test]
    fn delta_rewrite_expands_each_recursive_rule_per_idb_scan() {
        let schema = graph_schema();
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
                Literal::Pos("tc".into(), vec![DTerm::var("z"), DTerm::var("y")]),
            ],
        );
        let lowered = lower_datalog(&schema, None, &p, DatalogMode::SemiNaive).unwrap();
        let idb: BTreeSet<String> = ["tc".to_string()].into();
        let rewritten = delta_rewrite(&lowered, &idb);
        // base rule stays single; the quadratic rule splits into 2 variants
        let rules = rewritten
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Rule { .. }))
            .count();
        assert_eq!(rules, 3);
        let delta_scans = rewritten
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::DeltaScan { .. }))
            .count();
        assert_eq!(delta_scans, 2);
    }
}
