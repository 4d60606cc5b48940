//! Lowering the three front-ends into the logical plan IR.
//!
//! - **CALC** on the tree-walk lowers through `rr::analyze`
//!   (Definitions 5.2/5.3) over the typechecked variable typings, so
//!   every head variable's range source is a plan operator *named by the
//!   rule that justified it* — the complexity certificate's trace
//!   literally annotates the plan.
//! - **The algebra** lowers structurally — its expression tree *is* a
//!   plan already; lowering is a change of representation.
//! - **Datalog¬** rules lower to Join/Filter/Project trees under a
//!   `Program` root; the semi-naive delta rewrite is a separate pass
//!   (see `crate::passes`), not part of lowering.

use crate::ir::{NodeId, Op, Plan};
use crate::physical::{DatalogMode, PlanError};
use crate::stats::Stats;
use no_algebra::Expr;
use no_core::ast::{Formula, VarName};
use no_core::print::Printer;
use no_core::{rr, Query};
use no_datalog::{DTerm, Literal, Program};
use no_object::{Schema, Type};
use std::collections::BTreeMap;

/// Lower a typechecked CALC query (`var_types` from `typeck::check`) to
/// its tree-walk plan: ranges named by their Definition 5.2/5.3 rules,
/// quantifiers, fixpoints, and the matrix as documented filter nodes.
pub fn lower_calc(
    schema: &Schema,
    stats: Option<&Stats>,
    query: &Query,
    var_types: &BTreeMap<VarName, Type>,
) -> Plan {
    let analysis = rr::analyze(schema, var_types, &query.body);
    let mut plan = Plan::new();

    let mut range_nodes = Vec::new();
    for (v, ty) in &query.head {
        let apps = analysis.rules_for(v);
        let root_app = apps.iter().find(|a| a.var.path.is_empty());
        let id = match root_app {
            Some(app) => {
                let est = stats.and_then(|s| s.estimate_var(&query.body, v));
                plan.add_est(
                    Op::Range {
                        var: v.clone(),
                        rule: app.rule.id().to_string(),
                        citation: app.rule.citation().to_string(),
                    },
                    vec![],
                    est,
                )
            }
            None => {
                let est = stats.map(|s| s.estimate_domain(ty));
                plan.add_est(
                    Op::ActiveDomain {
                        var: v.clone(),
                        ty: ty.clone(),
                    },
                    vec![],
                    est,
                )
            }
        };
        range_nodes.push(id);
    }

    let matrix = lower_matrix(&mut plan, stats, &query.body);
    let est = range_nodes
        .iter()
        .map(|&id| plan.node(id).est)
        .try_fold(1u64, |acc, e| e.map(|e| acc.saturating_mul(e)));
    let mut children = range_nodes;
    children.push(matrix);
    plan.root = plan.add_est(
        Op::Enumerate {
            vars: query.head.iter().map(|(v, _)| v.clone()).collect(),
        },
        children,
        est,
    );
    plan
}

/// Lower the matrix of a CALC body: quantifiers and top-level conjunction
/// structure become nodes, relation atoms become annotated scans, fixpoint
/// applications become `Fixpoint` nodes over their body, and everything
/// else is kept as a printed `Filter`. Recursion is shallow by design —
/// the plan documents evaluation structure, the physical `Query` carries
/// the exact formula.
fn lower_matrix(plan: &mut Plan, stats: Option<&Stats>, f: &Formula) -> NodeId {
    let printer = Printer::new();
    match f {
        Formula::Exists(v, _, inner) => {
            let child = lower_matrix(plan, stats, inner);
            let est = stats.and_then(|s| s.estimate_var(inner, v));
            plan.add_est(
                Op::Quantify {
                    quant: "∃",
                    var: v.clone(),
                },
                vec![child],
                est,
            )
        }
        Formula::Forall(v, _, inner) => {
            let child = lower_matrix(plan, stats, inner);
            let est = stats.and_then(|s| s.estimate_var(inner, v));
            plan.add_est(
                Op::Quantify {
                    quant: "∀",
                    var: v.clone(),
                },
                vec![child],
                est,
            )
        }
        Formula::And(parts) => {
            let children: Vec<NodeId> =
                parts.iter().map(|p| lower_matrix(plan, stats, p)).collect();
            plan.add(
                Op::Filter {
                    desc: "∧".to_string(),
                },
                children,
            )
        }
        Formula::Rel(name, _) => {
            let est = stats.and_then(|s| s.rows(name));
            let id = plan.add_est(Op::Scan { rel: name.clone() }, vec![], est);
            plan.nodes[id].note = Some(printer.formula(f));
            id
        }
        Formula::FixApp(fix, _) => {
            let body = plan.add(
                Op::Filter {
                    desc: printer.formula(&fix.body),
                },
                vec![],
            );
            plan.add(
                Op::Fixpoint {
                    op: match fix.op {
                        no_core::ast::FixOp::Ifp => "ifp".to_string(),
                        no_core::ast::FixOp::Pfp => "pfp".to_string(),
                    },
                    rel: fix.rel.clone(),
                },
                vec![body],
            )
        }
        other => {
            // Fixpoints hiding deeper (under ¬, ∨, →, ↔, or as terms)
            // still surface as children so the plan names every fixpoint.
            let mut children = Vec::new();
            for fix in no_core::ast::formula_term_fixes(other) {
                let body = plan.add(
                    Op::Filter {
                        desc: printer.formula(&fix.body),
                    },
                    vec![],
                );
                children.push(plan.add(
                    Op::Fixpoint {
                        op: match fix.op {
                            no_core::ast::FixOp::Ifp => "ifp".to_string(),
                            no_core::ast::FixOp::Pfp => "pfp".to_string(),
                        },
                        rel: fix.rel.clone(),
                    },
                    vec![body],
                ));
            }
            plan.add(
                Op::Filter {
                    desc: printer.formula(other),
                },
                children,
            )
        }
    }
}

/// Lower an algebra expression structurally, with bottom-up cardinality
/// estimates. Fails exactly where static typing would (`output_types`).
pub fn lower_algebra(
    schema: &Schema,
    stats: Option<&Stats>,
    expr: &Expr,
) -> Result<Plan, PlanError> {
    expr.output_types(schema)?; // validate once; lowering is then total
    let mut plan = Plan::new();
    let root = lower_expr(&mut plan, stats, expr);
    plan.root = root;
    Ok(plan)
}

fn lower_expr(plan: &mut Plan, stats: Option<&Stats>, expr: &Expr) -> NodeId {
    match expr {
        Expr::Rel(name) => {
            let est = stats.and_then(|s| s.rows(name));
            plan.add_est(Op::Scan { rel: name.clone() }, vec![], est)
        }
        Expr::Select(e, pred) => {
            let c = lower_expr(plan, stats, e);
            let est = plan.node(c).est;
            plan.add_est(Op::Select { pred: pred.clone() }, vec![c], est)
        }
        Expr::Project(e, cols) => {
            let c = lower_expr(plan, stats, e);
            let est = plan.node(c).est;
            plan.add_est(Op::Project { cols: cols.clone() }, vec![c], est)
        }
        Expr::Product(a, b) => {
            let l = lower_expr(plan, stats, a);
            let r = lower_expr(plan, stats, b);
            let est = match (plan.node(l).est, plan.node(r).est) {
                (Some(x), Some(y)) => Some(x.saturating_mul(y)),
                _ => None,
            };
            plan.add_est(Op::Join, vec![l, r], est)
        }
        Expr::Union(a, b) => {
            let l = lower_expr(plan, stats, a);
            let r = lower_expr(plan, stats, b);
            let est = match (plan.node(l).est, plan.node(r).est) {
                (Some(x), Some(y)) => Some(x.saturating_add(y)),
                _ => None,
            };
            plan.add_est(Op::Union, vec![l, r], est)
        }
        Expr::Difference(a, b) => {
            let l = lower_expr(plan, stats, a);
            let r = lower_expr(plan, stats, b);
            let est = plan.node(l).est;
            plan.add_est(Op::Difference, vec![l, r], est)
        }
        Expr::Intersect(a, b) => {
            let l = lower_expr(plan, stats, a);
            let r = lower_expr(plan, stats, b);
            let est = match (plan.node(l).est, plan.node(r).est) {
                (Some(x), Some(y)) => Some(x.min(y)),
                _ => None,
            };
            plan.add_est(Op::Intersect, vec![l, r], est)
        }
        Expr::Nest(e, col) => {
            let c = lower_expr(plan, stats, e);
            let est = plan.node(c).est;
            plan.add_est(Op::Nest { col: *col }, vec![c], est)
        }
        Expr::Unnest(e, col) => {
            let c = lower_expr(plan, stats, e);
            let est = plan.node(c).est;
            plan.add_est(Op::Unnest { col: *col }, vec![c], est)
        }
        Expr::Powerset(e) => {
            let c = lower_expr(plan, stats, e);
            let est = plan
                .node(c)
                .est
                .map(|n| if n >= 63 { u64::MAX } else { 1u64 << n });
            plan.add_est(Op::Powerset, vec![c], est)
        }
        Expr::Const(types, rows) => {
            let est = Some(rows.len() as u64);
            plan.add_est(
                Op::Const {
                    types: types.clone(),
                    rows: rows.clone(),
                },
                vec![],
                est,
            )
        }
    }
}

/// Lower a Datalog¬ program: one `Rule` node per rule, each a Join/Filter
/// tree over its body literals projected to the head, under a `Program`
/// root labelled with the evaluation semantics.
pub fn lower_datalog(
    schema: &Schema,
    stats: Option<&Stats>,
    program: &Program,
    mode: DatalogMode,
) -> Result<Plan, PlanError> {
    program.validate(schema).map_err(PlanError::Datalog)?;
    let mut plan = Plan::new();
    let mut rule_nodes = Vec::new();
    for rule in &program.rules {
        let body = lower_rule_body(&mut plan, stats, program, rule);
        let head = format!(
            "{}({})",
            rule.head,
            rule.head_args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        rule_nodes.push(plan.add(
            Op::Rule {
                head,
                delta_pos: None,
            },
            vec![body],
        ));
    }
    plan.root = plan.add(
        Op::Program {
            semantics: mode.label().to_string(),
        },
        rule_nodes,
    );
    Ok(plan)
}

/// One rule body: positive literals fold into a Join chain (IDB scans are
/// annotated — the delta pass retargets them), constraint literals stack
/// as filters, and the head projection closes the tree.
fn lower_rule_body(
    plan: &mut Plan,
    stats: Option<&Stats>,
    program: &Program,
    rule: &no_datalog::Rule,
) -> NodeId {
    let mut acc: Option<NodeId> = None;
    let mut binding_order: Vec<String> = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Pos(rel, args) => {
                for t in args {
                    if let DTerm::Var(v) = t {
                        if !binding_order.contains(v) {
                            binding_order.push(v.clone());
                        }
                    }
                }
                let est = stats.and_then(|s| s.rows(rel));
                let scan = plan.add_est(Op::Scan { rel: rel.clone() }, vec![], est);
                if program.idb.contains_key(rel) {
                    plan.nodes[scan].note = Some("IDB".to_string());
                }
                acc = Some(match acc {
                    Some(prev) => {
                        let est = match (plan.node(prev).est, plan.node(scan).est) {
                            (Some(x), Some(y)) => Some(x.saturating_mul(y)),
                            _ => None,
                        };
                        plan.add_est(Op::Join, vec![prev, scan], est)
                    }
                    None => scan,
                });
            }
            other => {
                let desc = other.to_string();
                let filter = Op::Filter { desc };
                acc = Some(match acc {
                    Some(prev) => {
                        let est = plan.node(prev).est;
                        plan.add_est(filter, vec![prev], est)
                    }
                    None => plan.add(filter, vec![]),
                });
            }
        }
    }
    let body = acc.unwrap_or_else(|| {
        plan.add(
            Op::Filter {
                desc: "⊤ (empty body)".to_string(),
            },
            vec![],
        )
    });
    // Head projection: map each head variable to its first binding
    // position. Constant or otherwise irregular heads stay descriptive.
    let cols: Option<Vec<usize>> = rule
        .head_args
        .iter()
        .map(|t| match t {
            DTerm::Var(v) => binding_order.iter().position(|b| b == v).map(|p| p + 1),
            DTerm::Const(_) => None,
        })
        .collect();
    match cols {
        Some(cols) => plan.add(Op::Project { cols }, vec![body]),
        None => plan.add(
            Op::Filter {
                desc: "project head (constants)".to_string(),
            },
            vec![body],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_core::ast::Term;
    use no_object::RelationSchema;

    fn graph_schema() -> Schema {
        Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
    }

    fn typed(schema: &Schema, q: &Query) -> BTreeMap<VarName, Type> {
        no_core::typeck::check(schema, &q.head, &q.body)
            .unwrap()
            .var_types
    }

    #[test]
    fn calc_lowering_names_rr_rules() {
        let schema = graph_schema();
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
        );
        let plan = lower_calc(&schema, None, &q, &typed(&schema, &q));
        let ranges: Vec<_> = plan
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Range { var, rule, .. } => Some((var.clone(), rule.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(ranges.len(), 2, "both head vars restricted");
        assert!(ranges.iter().all(|(_, r)| r == "1"), "{ranges:?}");
    }

    #[test]
    fn unrestricted_vars_fall_back_to_active_domain_nodes() {
        let schema = graph_schema();
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Not(Box::new(Formula::Rel(
                "G".to_string(),
                vec![Term::var("x"), Term::var("y")],
            ))),
        );
        let plan = lower_calc(&schema, None, &q, &typed(&schema, &q));
        let ad = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::ActiveDomain { .. }))
            .count();
        assert_eq!(ad, 2, "negation restricts nothing");
    }

    #[test]
    fn datalog_rules_lower_to_join_project_trees() {
        let schema = graph_schema();
        let mut p = Program::new();
        p.declare("tc", vec![Type::Atom, Type::Atom]);
        p.rule(
            "tc",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
                Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
            ],
        );
        let plan = lower_datalog(&schema, None, &p, DatalogMode::Stratified).unwrap();
        assert!(matches!(plan.node(plan.root).op, Op::Program { .. }));
        let joins = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Join))
            .count();
        assert_eq!(joins, 1);
        let projects: Vec<_> = plan
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Project { cols } => Some(cols.clone()),
                _ => None,
            })
            .collect();
        // binding order x, z, y → head (x, y) = columns 1, 3
        assert_eq!(projects, vec![vec![1, 3]]);
    }
}
