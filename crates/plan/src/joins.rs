//! The join-algorithms pass: lowering to the columnar kernels.
//!
//! Two front-ends reach `no-exec`'s physical operators through this
//! module:
//!
//! * **Flat conjunctive CALC** (recognized by
//!   `no_core::conjunctive::decompose`): atoms become indexed scans,
//!   intra-atom constants/duplicates and equality pins become selects,
//!   and shared variables across atoms become equi-join keys. Join order
//!   is greedy left-deep by estimated cardinality (connected atoms
//!   preferred, source order breaking ties, so plans are deterministic
//!   for a fixed statistics snapshot).
//! * **Flat algebra expressions** — everything except `Nest`/`Unnest`/
//!   `Powerset`, which keep the tree-walk path. A `Select` directly over
//!   a `Product` runs inside the join (predicate pushdown deliberately
//!   leaves cross-side conjuncts on top of the product for exactly this
//!   pattern): conjuncts equating columns across the two sides become
//!   equi-join keys and the rest becomes the join's filter, tested on
//!   each candidate pair, so the product is never built.
//!
//! Per join the planner *picks an algorithm* from the keys, the filter
//! and the statistics — the decision table lives in [`choose_join`] and
//! is documented in DESIGN.md §14 — and records the choice as a node
//! annotation, which is how `:explain` shows e.g. `HashJoin(build=right),
//! keys: l#2=r#1` or `ElementIndexJoin(#2 ⊆ #4), filter σ[#2 ⊆ #4]`.

use crate::explain::pred_str;
use crate::ir::{NodeId, Op, Plan};
use crate::stats::Stats;
use no_algebra::{Expr, Pred};
use no_core::conjunctive::{CArg, ConjunctiveQuery};
use no_exec::{ExecId, ExecOp, ExecPlan, JoinAlgo, RowPred, SetConjunct};
use no_object::{Schema, Type, Value};

/// Inputs at or below this estimated cardinality take a nested loop —
/// index build cost would dominate.
const SMALL_INPUT: u64 = 16;

/// Result of lowering to the columnar kernels: the executable arena, the
/// matching logical plan for `:explain`, and header notes.
pub struct ExecLowering {
    /// The logical plan mirroring the physical operators.
    pub plan: Plan,
    /// The executable plan.
    pub exec: ExecPlan,
    /// Header lines describing the lowering (join choices summary).
    pub notes: Vec<String>,
}

/// One operand during join-order construction.
struct Side {
    eid: ExecId,
    nid: NodeId,
    /// Canonical variable → 0-based output column (first occurrence).
    vars: Vec<(String, usize)>,
    arity: usize,
    est: Option<u64>,
    /// A bare scan of a base relation: its table is a resident one,
    /// sorted by column 0, that a lookup join can probe unbuilt.
    base_scan: bool,
}

/// Pick the physical join algorithm from the join's keys, whether its
/// right input is a bare base scan, its filter's first cross-side
/// `∈`/`⊆` conjunct, and the estimated input sizes. The decision table
/// (DESIGN.md §14):
///
/// 1. no keys, a cross-side `∈`/`⊆` conjunct → element index on the
///    side holding the set;
/// 2. no keys otherwise → nested loop over all pairs;
/// 3. the right input a bare base scan and a key on its first column →
///    lookup join: each left row probes the resident table's sorted
///    first column, nothing is built;
/// 4. unknown estimates → hash join, build left (safe default);
/// 5. either input ≤ [`SMALL_INPUT`] rows → nested loop;
/// 6. otherwise → hash join, building the smaller side.
///
/// Pure in its inputs: for a fixed stats snapshot the choice is
/// deterministic (property-tested in `tests/exec_differential.rs`).
pub fn choose_join(
    keys: &[(usize, usize)],
    right_base_scan: bool,
    set_conjunct: Option<SetConjunct>,
    l_est: Option<u64>,
    r_est: Option<u64>,
) -> JoinAlgo {
    if keys.is_empty() {
        return set_conjunct.map_or(JoinAlgo::NestedLoop, JoinAlgo::ElementIndex);
    }
    if right_base_scan && keys.iter().any(|&(_, rc)| rc == 0) {
        return JoinAlgo::Lookup;
    }
    let (Some(le), Some(re)) = (l_est, r_est) else {
        return JoinAlgo::Hash { build_left: true };
    };
    if le.min(re) <= SMALL_INPUT {
        return JoinAlgo::NestedLoop;
    }
    JoinAlgo::Hash {
        build_left: le <= re,
    }
}

/// The first conjunct of `conjuncts` (1-based columns over the joined
/// row) that tests `∈` or `⊆` between a left column and a right one.
fn set_conjunct(conjuncts: &[&Pred], l_arity: usize) -> Option<SetConjunct> {
    conjuncts.iter().find_map(|c| {
        let (Pred::InCols(a, b) | Pred::SubsetCols(a, b)) = c else {
            return None;
        };
        let (a, b) = (a - 1, b - 1);
        if (a < l_arity) == (b < l_arity) {
            return None;
        }
        Some(match c {
            Pred::InCols(..) => SetConjunct::In { elem: a, set: b },
            _ => SetConjunct::Subset { sub: a, set: b },
        })
    })
}

/// Render a join's key list for plan annotations, 1-based.
fn keys_desc(keys: &[(usize, usize)]) -> String {
    keys.iter()
        .map(|&(l, r)| format!("l#{}=r#{}", l + 1, r + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Divide an estimate by a selectivity divisor, staying ≥ 1.
fn shrink(est: Option<u64>, divisor: Option<u64>) -> Option<u64> {
    match (est, divisor) {
        (Some(e), Some(d)) if d > 1 => Some((e / d).max(1)),
        _ => est,
    }
}

/// Convert the pure-equality subset of [`RowPred`] back to a 1-based
/// algebra predicate for the logical `Select` node.
fn logical_pred(p: &RowPred) -> Pred {
    match p {
        RowPred::EqCols(a, b) => Pred::EqCols(a + 1, b + 1),
        RowPred::EqConst(c, v) => Pred::EqConst(c + 1, v.clone()),
        RowPred::InCols(a, b) => Pred::InCols(a + 1, b + 1),
        RowPred::SubsetCols(a, b) => Pred::SubsetCols(a + 1, b + 1),
        RowPred::Not(inner) => Pred::Not(Box::new(logical_pred(inner))),
        RowPred::And(a, b) => Pred::And(Box::new(logical_pred(a)), Box::new(logical_pred(b))),
        RowPred::Or(a, b) => Pred::Or(Box::new(logical_pred(a)), Box::new(logical_pred(b))),
    }
}

/// Convert a 1-based algebra predicate to the kernel's 0-based form.
fn row_pred(p: &Pred) -> RowPred {
    match p {
        Pred::EqCols(a, b) => RowPred::EqCols(a - 1, b - 1),
        Pred::EqConst(c, v) => RowPred::EqConst(c - 1, v.clone()),
        Pred::InCols(a, b) => RowPred::InCols(a - 1, b - 1),
        Pred::SubsetCols(a, b) => RowPred::SubsetCols(a - 1, b - 1),
        Pred::Not(inner) => RowPred::Not(Box::new(row_pred(inner))),
        Pred::And(a, b) => RowPred::And(Box::new(row_pred(a)), Box::new(row_pred(b))),
        Pred::Or(a, b) => RowPred::Or(Box::new(row_pred(a)), Box::new(row_pred(b))),
    }
}

// ---------------------------------------------------------------------------
// conjunctive CALC
// ---------------------------------------------------------------------------

/// Lower a flat conjunctive query to the columnar kernels. Always
/// succeeds: the fragment recognizer already rejected everything the
/// kernels cannot run.
pub fn lower_conjunctive_calc(
    cq: &ConjunctiveQuery,
    head_types: &[Type],
    stats: Option<&Stats>,
) -> ExecLowering {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = Vec::new();
    let (_, nid, _) =
        lower_conjunctive_into(cq, head_types, stats, &mut exec, &mut plan, &mut notes);
    plan.root = nid;
    ExecLowering { plan, exec, notes }
}

/// Lower a union of flat conjunctive queries (the disjunctive CALC
/// fragment recognized by `no_core::conjunctive::decompose_union`): each
/// disjunct lowers independently — join order and algorithms chosen per
/// disjunct — and the results fold left through the deduplicating union
/// kernel, so disjunctive views stay maintainable by the same delta
/// kernels as conjunctive ones.
pub fn lower_union_calc(
    cqs: &[ConjunctiveQuery],
    head_types: &[Type],
    stats: Option<&Stats>,
) -> ExecLowering {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = vec![format!(
        "disjunctive query: union of {} conjunctive plans",
        cqs.len()
    )];
    let mut acc: Option<(ExecId, NodeId, Option<u64>)> = None;
    for (i, cq) in cqs.iter().enumerate() {
        let mut local_notes = Vec::new();
        let (eid, nid, est) = lower_conjunctive_into(
            cq,
            head_types,
            stats,
            &mut exec,
            &mut plan,
            &mut local_notes,
        );
        notes.extend(
            local_notes
                .into_iter()
                .map(|n| format!("disjunct {}: {n}", i + 1)),
        );
        acc = Some(match acc {
            None => (eid, nid, est),
            Some((prev_eid, prev_nid, prev_est)) => {
                let u = exec.push(ExecOp::Union {
                    left: prev_eid,
                    right: eid,
                });
                let est = prev_est.zip(est).map(|(a, b)| a.saturating_add(b));
                let un = plan.add_est(Op::Union, vec![prev_nid, nid], est);
                (u, un, est)
            }
        });
    }
    let (_, root, _) = acc.expect("decompose_union yields at least two disjuncts");
    plan.root = root;
    ExecLowering { plan, exec, notes }
}

/// Shared body of the conjunctive lowerings: emit one disjunct's scans,
/// selects, joins, and head projection into `exec`/`plan`, returning the
/// projected result's ids and estimate (the caller sets the root).
fn lower_conjunctive_into(
    cq: &ConjunctiveQuery,
    head_types: &[Type],
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> (ExecId, NodeId, Option<u64>) {
    if cq.unsat {
        let eid = exec.push(ExecOp::Empty {
            arity: cq.head.len(),
        });
        let n = plan.add_est(
            Op::Const {
                types: head_types.to_vec(),
                rows: vec![],
            },
            vec![],
            Some(0),
        );
        plan.nodes[n].note = Some("statically unsatisfiable equalities".to_string());
        notes.push("equality conjuncts contradict: result is empty".to_string());
        return (eid, n, Some(0));
    }

    // Prepare each atom: scan + intra-atom selects (constants, duplicate
    // variables, equality pins).
    let mut pending: Vec<Side> = cq
        .atoms
        .iter()
        .map(|(rel, args)| prepare_atom(rel, args, cq, stats, exec, plan))
        .collect();

    // Greedy left-deep join order: start from the smallest estimate,
    // repeatedly fold in the smallest *connected* atom (source order
    // breaking ties); fall back to a cross product only when no pending
    // atom shares a variable.
    let start = best_index(&pending, |_| true);
    let mut cur = pending.remove(start);
    let mut join_no = 0usize;
    while !pending.is_empty() {
        let connected = |s: &Side| {
            s.vars
                .iter()
                .any(|(v, _)| cur.vars.iter().any(|(cv, _)| cv == v))
        };
        let idx = if pending.iter().any(connected) {
            best_index(&pending, connected)
        } else {
            best_index(&pending, |_| true)
        };
        let nxt = pending.remove(idx);
        join_no += 1;

        let keys: Vec<(usize, usize)> = nxt
            .vars
            .iter()
            .filter_map(|(v, rc)| {
                cur.vars
                    .iter()
                    .find(|(cv, _)| cv == v)
                    .map(|(_, lc)| (*lc, *rc))
            })
            .collect();

        cur = push_join(cur, nxt, keys, None, exec, plan, |desc| {
            notes.push(format!("join {join_no}: {desc}"))
        });
    }

    // Project the head columns (possibly none: boolean queries).
    let cols: Vec<usize> = cq
        .head
        .iter()
        .map(|v| {
            cur.vars
                .iter()
                .find(|(cv, _)| cv == v)
                .map(|(_, c)| *c)
                .expect("coverage checked by decompose")
        })
        .collect();
    let eid = exec.push(ExecOp::Project {
        input: cur.eid,
        cols: cols.clone(),
    });
    let nid = plan.add_est(
        Op::Project {
            cols: cols.iter().map(|c| c + 1).collect(),
        },
        vec![cur.nid],
        cur.est,
    );
    (eid, nid, cur.est)
}

/// Index of the smallest-estimate side satisfying `keep` (unknown
/// estimates sort last; position breaks ties).
fn best_index(sides: &[Side], keep: impl Fn(&Side) -> bool) -> usize {
    sides
        .iter()
        .enumerate()
        .filter(|(_, s)| keep(s))
        .min_by_key(|(i, s)| (s.est.unwrap_or(u64::MAX), *i))
        .map(|(i, _)| i)
        .expect("at least one side")
}

fn combine_sides(cur: Side, nxt: Side, eid: ExecId, nid: NodeId, est: Option<u64>) -> Side {
    let mut vars = cur.vars;
    for (v, c) in nxt.vars {
        if !vars.iter().any(|(cv, _)| cv == &v) {
            vars.push((v, cur.arity + c));
        }
    }
    Side {
        eid,
        nid,
        vars,
        arity: cur.arity + nxt.arity,
        est,
        base_scan: false,
    }
}

/// One atom's operand: a lookup when its first column holds a constant
/// or a pinned variable (the atom's other constants, pins and repeated
/// variables tested on the rows it finds), a scan otherwise, with a
/// select for those tests when there are any.
fn prepare_atom(
    rel: &str,
    args: &[CArg],
    cq: &ConjunctiveQuery,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> Side {
    let rows = stats.and_then(|s| s.rows(rel));
    let mut est = rows;
    let mut vars: Vec<(String, usize)> = Vec::new();
    let mut key: Option<Value> = None;
    let mut pred: Option<RowPred> = None;
    let push_pred = |p: RowPred, pred: &mut Option<RowPred>| {
        *pred = Some(match pred.take() {
            None => p,
            Some(q) => q.and(p),
        });
    };
    for (c, arg) in args.iter().enumerate() {
        let pinned = match arg {
            CArg::Const(v) => Some(v),
            CArg::Var(v) => match vars.iter().find(|(cv, _)| cv == v) {
                Some((_, c0)) => {
                    push_pred(RowPred::EqCols(*c0, c), &mut pred);
                    None
                }
                None => {
                    vars.push((v.clone(), c));
                    cq.pins.get(v)
                }
            },
        };
        if let Some(v) = pinned {
            est = shrink(est, stats.and_then(|s| s.distinct(rel, c)));
            if c == 0 {
                key = Some(v.clone());
            } else {
                push_pred(RowPred::EqConst(c, v.clone()), &mut pred);
            }
        }
    }
    let base_scan = key.is_none() && pred.is_none();
    let (eid, nid) = match key {
        Some(key) => push_lookup(rel, key, pred, est, exec, plan),
        None => {
            let scan = push_scan(rel, rows, exec, plan);
            match pred {
                Some(p) => push_select(scan, p, est, exec, plan),
                None => scan,
            }
        }
    };
    Side {
        eid,
        nid,
        vars,
        arity: args.len(),
        est,
        base_scan,
    }
}

fn push_scan(
    rel: &str,
    est: Option<u64>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> (ExecId, NodeId) {
    let eid = exec.push(ExecOp::Scan {
        rel: rel.to_string(),
    });
    let nid = plan.add_est(
        Op::Scan {
            rel: rel.to_string(),
        },
        vec![],
        est,
    );
    (eid, nid)
}

fn push_select(
    (input, child): (ExecId, NodeId),
    pred: RowPred,
    est: Option<u64>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> (ExecId, NodeId) {
    let pred_l = logical_pred(&pred);
    let eid = exec.push(ExecOp::Select { input, pred });
    let nid = plan.add_est(Op::Select { pred: pred_l }, vec![child], est);
    (eid, nid)
}

fn push_lookup(
    rel: &str,
    key: Value,
    rest: Option<RowPred>,
    est: Option<u64>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> (ExecId, NodeId) {
    let op = Op::Lookup {
        rel: rel.to_string(),
        key: key.clone(),
        rest: rest.as_ref().map(logical_pred),
    };
    let eid = exec.push(ExecOp::Lookup {
        rel: rel.to_string(),
        key,
        rest,
    });
    (eid, plan.add_est(op, vec![], est))
}

// ---------------------------------------------------------------------------
// flat algebra
// ---------------------------------------------------------------------------

/// Lower a flat algebra expression (no `Nest`/`Unnest`/`Powerset`
/// anywhere) to the columnar kernels, or `None` when the expression
/// leaves the flat fragment. Callers must have validated the expression
/// first (`lower_algebra`), so schema lookups here cannot fail.
pub fn lower_algebra_exec(
    expr: &Expr,
    schema: &Schema,
    stats: Option<&Stats>,
) -> Option<ExecLowering> {
    let mut exec = ExecPlan::new();
    let mut plan = Plan::new();
    let mut notes = Vec::new();
    let root = go(expr, schema, stats, &mut exec, &mut plan, &mut notes)?;
    plan.root = root.nid;
    Some(ExecLowering { plan, exec, notes })
}

fn go(
    expr: &Expr,
    schema: &Schema,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> Option<Side> {
    match expr {
        Expr::Rel(name) => {
            let arity = schema.get(name)?.arity();
            let est = stats.and_then(|s| s.rows(name));
            let (eid, nid) = push_scan(name, est, exec, plan);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                arity,
                est,
                base_scan: true,
            })
        }
        Expr::Const(types, rows) => {
            let eid = exec.push(ExecOp::Const {
                arity: types.len(),
                rows: rows.clone(),
            });
            let nid = plan.add_est(
                Op::Const {
                    types: types.clone(),
                    rows: rows.clone(),
                },
                vec![],
                Some(rows.len() as u64),
            );
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                arity: types.len(),
                est: Some(rows.len() as u64),
                base_scan: false,
            })
        }
        Expr::Select(inner, pred) => {
            // σ over a product is a join filtered by the predicate, keyed
            // on its cross-side equalities: pushdown leaves exactly the
            // cross-side conjuncts on top.
            if let Expr::Product(a, b) = inner.as_ref() {
                return lower_join_pattern(a, b, pred, schema, stats, exec, plan, notes);
            }
            if let Expr::Rel(name) = inner.as_ref() {
                if let Some(side) = lower_lookup(name, pred, schema, stats, exec, plan) {
                    return Some(side);
                }
            }
            let side = go(inner, schema, stats, exec, plan, notes)?;
            let est = shrink(side.est, Some(2));
            let (eid, nid) = push_select((side.eid, side.nid), row_pred(pred), est, exec, plan);
            Some(Side {
                eid,
                nid,
                est,
                base_scan: false,
                ..side
            })
        }
        Expr::Project(inner, cols) => {
            let side = go(inner, schema, stats, exec, plan, notes)?;
            let cols0: Vec<usize> = cols.iter().map(|c| c - 1).collect();
            let eid = exec.push(ExecOp::Project {
                input: side.eid,
                cols: cols0.clone(),
            });
            let nid = plan.add_est(Op::Project { cols: cols.clone() }, vec![side.nid], side.est);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                arity: cols0.len(),
                est: side.est,
                base_scan: false,
            })
        }
        Expr::Product(a, b) => {
            let l = go(a, schema, stats, exec, plan, notes)?;
            let r = go(b, schema, stats, exec, plan, notes)?;
            Some(push_join(l, r, Vec::new(), None, exec, plan, |desc| {
                notes.push(format!("join: {desc}"))
            }))
        }
        Expr::Union(a, b) | Expr::Difference(a, b) | Expr::Intersect(a, b) => {
            let l = go(a, schema, stats, exec, plan, notes)?;
            let r = go(b, schema, stats, exec, plan, notes)?;
            let (op, lop, est): (_, _, Option<u64>) = match expr {
                Expr::Union(..) => (
                    ExecOp::Union {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Union,
                    l.est.zip(r.est).map(|(x, y)| x.saturating_add(y)),
                ),
                Expr::Difference(..) => (
                    ExecOp::Difference {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Difference,
                    l.est,
                ),
                _ => (
                    ExecOp::Intersect {
                        left: l.eid,
                        right: r.eid,
                    },
                    Op::Intersect,
                    l.est.zip(r.est).map(|(x, y)| x.min(y)),
                ),
            };
            let eid = exec.push(op);
            let nid = plan.add_est(lop, vec![l.nid, r.nid], est);
            Some(Side {
                eid,
                nid,
                vars: Vec::new(),
                arity: l.arity,
                est,
                base_scan: false,
            })
        }
        // The nested operators keep the tree-walk path.
        Expr::Nest(..) | Expr::Unnest(..) | Expr::Powerset(..) => None,
    }
}

/// σ\[pred\] over the base relation `name` as a lookup, when a top-level
/// conjunct pins its first column to a constant; the other conjuncts are
/// the lookup's `rest`. `None` when no conjunct does.
fn lower_lookup(
    name: &str,
    pred: &Pred,
    schema: &Schema,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
) -> Option<Side> {
    let mut rest = conjuncts(pred);
    let (at, key) = rest.iter().enumerate().find_map(|(at, &c)| match c {
        Pred::EqConst(1, key) => Some((at, key)),
        _ => None,
    })?;
    rest.remove(at);
    let rest = rest.into_iter().map(row_pred).reduce(RowPred::and);
    let rows = stats.and_then(|s| s.rows(name));
    let est = shrink(rows, stats.and_then(|s| s.distinct(name, 0)));
    let (eid, nid) = push_lookup(name, key.clone(), rest, est, exec, plan);
    Some(Side {
        eid,
        nid,
        vars: Vec::new(),
        arity: schema.get(name)?.arity(),
        est,
        base_scan: false,
    })
}

/// Flatten a predicate's top-level conjunction.
fn conjuncts(p: &Pred) -> Vec<&Pred> {
    match p {
        Pred::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_join_pattern(
    a: &Expr,
    b: &Expr,
    pred: &Pred,
    schema: &Schema,
    stats: Option<&Stats>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    notes: &mut Vec<String>,
) -> Option<Side> {
    let l = go(a, schema, stats, exec, plan, notes)?;
    let r = go(b, schema, stats, exec, plan, notes)?;
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut residual: Vec<&Pred> = Vec::new();
    for c in conjuncts(pred) {
        match c {
            Pred::EqCols(i, j) => {
                let (i0, j0) = (i - 1, j - 1);
                let cross = (i0 < l.arity) != (j0 < l.arity);
                if cross {
                    let (lc, rc) = if i0 < l.arity {
                        (i0, j0 - l.arity)
                    } else {
                        (j0, i0 - l.arity)
                    };
                    keys.push((lc, rc));
                    continue;
                }
                residual.push(c);
            }
            other => residual.push(other),
        }
    }
    let filter = residual.into_iter().cloned().reduce(|acc, p| acc.and(p));
    Some(push_join(l, r, keys, filter, exec, plan, |desc| {
        notes.push(format!("join: {desc}"))
    }))
}

/// Push the join of `l` and `r` on `keys`, filtered by `filter` (1-based
/// columns over the joined row), with the algorithm [`choose_join`]
/// picks. The logical `join` node carries the algorithm, keys and
/// filter as its note, and `note` receives the same description for
/// the plan header.
fn push_join(
    l: Side,
    r: Side,
    keys: Vec<(usize, usize)>,
    filter: Option<Pred>,
    exec: &mut ExecPlan,
    plan: &mut Plan,
    note: impl FnOnce(&str),
) -> Side {
    let filter_conjuncts = filter.as_ref().map(conjuncts).unwrap_or_default();
    let algo = choose_join(
        &keys,
        r.base_scan,
        set_conjunct(&filter_conjuncts, l.arity),
        l.est,
        r.est,
    );
    let eid = exec.push(ExecOp::Join {
        left: l.eid,
        right: r.eid,
        keys: keys.clone(),
        filter: filter.as_ref().map(row_pred),
        algo,
    });
    // A keyless join is the product; a key join is capped by its larger
    // side. A filter halves either.
    let est = if keys.is_empty() {
        l.est.zip(r.est).map(|(a, b)| a.saturating_mul(b))
    } else {
        l.est.zip(r.est).map(|(a, b)| a.max(b))
    };
    let est = if filter.is_some() {
        shrink(est, Some(2))
    } else {
        est
    };
    let nid = plan.add_est(Op::Join, vec![l.nid, r.nid], est);
    let mut desc = algo.label();
    if !keys.is_empty() {
        desc.push_str(&format!(", keys: {}", keys_desc(&keys)));
    }
    match &filter {
        Some(p) => desc.push_str(&format!(", filter σ[{}]", pred_str(p))),
        None if keys.is_empty() => desc.push_str(", cartesian product"),
        None => {}
    }
    note(&desc);
    plan.nodes[nid].note = Some(desc);
    combine_sides(l, r, eid, nid, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Physical, Planner};
    use no_object::{Atom, Instance, RelationSchema, Value};

    #[test]
    fn decision_table_is_deterministic_and_tiered() {
        let sub = SetConjunct::Subset { sub: 1, set: 3 };
        let member = SetConjunct::In { elem: 0, set: 3 };
        let on_first = [(1, 0)];
        let on_second = [(0, 1)];
        // no keys: a cross-side ∈/⊆ conjunct → element index, at any size
        for (l, r) in [(None, None), (Some(3), Some(1000)), (Some(500), Some(500))] {
            for scan in [false, true] {
                assert_eq!(
                    choose_join(&[], scan, Some(sub), l, r),
                    JoinAlgo::ElementIndex(sub)
                );
                assert_eq!(
                    choose_join(&[], scan, Some(member), l, r),
                    JoinAlgo::ElementIndex(member)
                );
                // no keys and no set conjunct → nested loop over all pairs
                assert_eq!(choose_join(&[], scan, None, l, r), JoinAlgo::NestedLoop);
            }
            // a bare base scan on the right keyed on its first column →
            // lookup join, at any size and whatever the filter
            assert_eq!(choose_join(&on_first, true, None, l, r), JoinAlgo::Lookup);
            assert_eq!(
                choose_join(&[(0, 1), (1, 0)], true, Some(sub), l, r),
                JoinAlgo::Lookup
            );
        }
        // keyed on another column, or a right input that is not a bare
        // scan: the size tiers. Keys win over a set conjunct; unknown
        // stats → hash, build left
        for (keys, scan) in [(&on_second[..], true), (&on_first[..], false)] {
            assert_eq!(
                choose_join(keys, scan, Some(sub), None, Some(100)),
                JoinAlgo::Hash { build_left: true }
            );
            // tiny side → nested loop
            assert_eq!(
                choose_join(keys, scan, None, Some(3), Some(1000)),
                JoinAlgo::NestedLoop
            );
            // otherwise hash, building the smaller side
            assert_eq!(
                choose_join(keys, scan, None, Some(100), Some(1000)),
                JoinAlgo::Hash { build_left: true }
            );
            assert_eq!(
                choose_join(keys, scan, None, Some(1000), Some(100)),
                JoinAlgo::Hash { build_left: false }
            );
        }
    }

    #[test]
    fn set_conjuncts_are_found_only_across_sides() {
        let within = Pred::SubsetCols(1, 2);
        let across = Pred::SubsetCols(4, 2);
        let member = Pred::InCols(3, 2);
        assert_eq!(set_conjunct(&[&within], 2), None);
        assert_eq!(
            set_conjunct(&[&within, &across], 2),
            Some(SetConjunct::Subset { sub: 3, set: 1 })
        );
        assert_eq!(
            set_conjunct(&[&member], 2),
            Some(SetConjunct::In { elem: 2, set: 1 })
        );
    }

    /// nestbench's `team_sub` text lowers to one element-index join that
    /// carries the whole selection as its filter: no product, no select.
    #[test]
    fn team_sub_lowers_to_one_filtered_element_index_join() {
        let schema = Schema::from_relations([RelationSchema::new(
            "Team",
            vec![Type::Atom, Type::set(Type::Atom)],
        )]);
        let mut i = Instance::empty(schema.clone());
        for t in 0..40u32 {
            let members = [t % 7, t % 5 + 7].map(|m| Value::Atom(Atom(100 + m)));
            i.insert("Team", vec![Value::Atom(Atom(t)), Value::set(members)]);
        }
        let team = || Box::new(Expr::Rel("Team".into()));
        let expr = Expr::Project(
            Box::new(Expr::Select(
                Box::new(Expr::Product(team(), team())),
                Pred::SubsetCols(2, 4),
            )),
            vec![1, 3],
        );
        let planned = Planner::new(&schema)
            .with_instance(&i)
            .plan_algebra(&expr)
            .unwrap();
        let Physical::Exec { plan, .. } = &planned.physical else {
            panic!("team_sub must take the columnar path");
        };
        let joins: Vec<&ExecOp> = plan
            .nodes()
            .iter()
            .filter(|op| matches!(op, ExecOp::Join { .. }))
            .collect();
        assert_eq!(joins.len(), 1, "{:?}", plan.nodes());
        let ExecOp::Join {
            keys, filter, algo, ..
        } = joins[0]
        else {
            unreachable!()
        };
        assert!(keys.is_empty());
        assert_eq!(filter, &Some(RowPred::SubsetCols(1, 3)));
        assert_eq!(
            *algo,
            JoinAlgo::ElementIndex(SetConjunct::Subset { sub: 1, set: 3 })
        );
        assert!(
            !plan
                .nodes()
                .iter()
                .any(|op| matches!(op, ExecOp::Select { .. })),
            "{:?}",
            plan.nodes()
        );
        let text = planned.render_text();
        assert!(
            text.contains("ElementIndexJoin(#2 ⊆ #4), filter σ[#2 ⊆ #4]"),
            "{text}"
        );
        assert!(!text.contains("select σ"), "{text}");
    }
}
