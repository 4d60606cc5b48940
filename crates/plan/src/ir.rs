//! The logical plan IR: a flat arena of typed operator nodes.
//!
//! Every front-end (CALC, the algebra, Datalog¬) lowers into this one
//! representation, the optimizer passes rewrite it, and the explain
//! renderer walks it. The arena is append-only and child references are
//! plain indices; every rewrite builds a tree, so a subplan that occurs
//! twice is two subtrees, as it is two computations at execution.
//!
//! The operator vocabulary covers the paper's three languages at once:
//! the relational core (`Scan`/`Select`/`Project`/`Join`/set ops), the
//! complex-object operators (`Powerset`, `Nest`, `Unnest` — \[AB87\]),
//! the safe-evaluation operators of Theorem 5.1 (`Range` nodes named by
//! the Definition 5.2/5.3 rule that justified them, `ActiveDomain`
//! fallbacks, `Enumerate`), fixpoints (`Fixpoint` with IFP/PFP), and the
//! deductive side (`Rule`/`DeltaScan`/`Program` for the semi-naive delta
//! rewrite of Datalog¬).

use no_algebra::Pred;
use no_object::{Type, Value};

/// Index of a node in a [`Plan`] arena.
pub type NodeId = usize;

/// A logical plan operator.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Scan a database (EDB or, in Datalog plans, IDB) relation.
    Scan {
        /// Relation name.
        rel: String,
    },
    /// Scan only the per-round delta of an IDB relation — produced by the
    /// semi-naive rewrite pass, never by lowering.
    DeltaScan {
        /// IDB relation name.
        rel: String,
    },
    /// σ\[#1 = key ∧ rest\] over a base relation, answered by probing its
    /// resident table's sorted first column instead of scanning it.
    Lookup {
        /// Relation name.
        rel: String,
        /// The value column 1 must hold.
        key: Value,
        /// A further predicate tested on the rows found.
        rest: Option<Pred>,
    },
    /// σ_pred over the child (algebra predicates).
    Select {
        /// The predicate.
        pred: Pred,
    },
    /// A predicate kept as a rendered description only: the CALC matrix
    /// and Datalog constraint literals (=, ≠, ∈, ∉, ¬R). The executable
    /// form lives in the physical plan; the node documents the work.
    Filter {
        /// Human-readable predicate.
        desc: String,
    },
    /// π_cols (1-based, may repeat or reorder).
    Project {
        /// The projection list.
        cols: Vec<usize>,
    },
    /// Cartesian product of the two children (θ-joins are a `Select` on
    /// top; the paper's algebra has no native equijoin).
    Join,
    /// Set union.
    Union,
    /// Set difference (left minus right).
    Difference,
    /// Set intersection.
    Intersect,
    /// ν_col — nest.
    Nest {
        /// The nested 1-based column.
        col: usize,
    },
    /// μ_col — unnest.
    Unnest {
        /// The unnested 1-based column.
        col: usize,
    },
    /// Π — powerset of a unary child. Hyperexponential by design; the
    /// governor-trip pass flags it whenever the estimate exceeds budgets.
    Powerset,
    /// A constant relation.
    Const {
        /// Column types.
        types: Vec<Type>,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// The computed range of one variable under safe evaluation, named by
    /// the Definition 5.2/5.3 rule that restricted it (Theorem 5.1).
    Range {
        /// The variable.
        var: String,
        /// Rule id ("1".."10", "1′", "9′").
        rule: String,
        /// Paper citation ("Definition 5.2" / "Definition 5.3").
        citation: String,
    },
    /// Active-domain fallback for a variable no rule restricted.
    ActiveDomain {
        /// The variable.
        var: String,
        /// Its type (set types enumerate powerset-sized domains).
        ty: Type,
    },
    /// Top-level enumeration of the head variables over their range
    /// children, filtering by the matrix child (the last child).
    Enumerate {
        /// Head variables in enumeration order.
        vars: Vec<String>,
    },
    /// A bound variable inside the matrix: ∃/∀ with its range source.
    Quantify {
        /// `"∃"` or `"∀"`.
        quant: &'static str,
        /// The bound variable.
        var: String,
    },
    /// Restore the original head column order after quantifier reordering
    /// permuted the enumeration.
    RestoreColumns {
        /// `perm[i]` = original position of planned column `i`.
        perm: Vec<usize>,
    },
    /// A fixpoint sub-evaluation inside a CALC formula.
    Fixpoint {
        /// `"ifp"` or `"pfp"`.
        op: String,
        /// The fixpoint relation name.
        rel: String,
    },
    /// One Datalog¬ rule: child is the body tree (joins, filters, final
    /// projection to the head).
    Rule {
        /// Rendered head, e.g. `tc(x, y)`.
        head: String,
        /// `Some(i)` when the semi-naive pass pinned the `i`-th (0-based)
        /// recursive body literal to the delta.
        delta_pos: Option<usize>,
    },
    /// The root of a Datalog¬ plan: children are the rule nodes, iterated
    /// to fixpoint under the stated semantics.
    Program {
        /// `"semi-naive"` or `"stratified"`.
        semantics: String,
    },
}

impl Op {
    /// Short operator mnemonic (stable; used in renderings and tests).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Scan { .. } => "scan",
            Op::DeltaScan { .. } => "delta-scan",
            Op::Lookup { .. } => "lookup",
            Op::Select { .. } => "select",
            Op::Filter { .. } => "filter",
            Op::Project { .. } => "project",
            Op::Join => "join",
            Op::Union => "union",
            Op::Difference => "difference",
            Op::Intersect => "intersect",
            Op::Nest { .. } => "nest",
            Op::Unnest { .. } => "unnest",
            Op::Powerset => "powerset",
            Op::Const { .. } => "const",
            Op::Range { .. } => "range",
            Op::ActiveDomain { .. } => "active-domain",
            Op::Enumerate { .. } => "enumerate",
            Op::Quantify { .. } => "quantify",
            Op::RestoreColumns { .. } => "restore-columns",
            Op::Fixpoint { .. } => "fixpoint",
            Op::Rule { .. } => "rule",
            Op::Program { .. } => "program",
        }
    }
}

/// One arena node: an operator, its children, and optimizer annotations.
#[derive(Clone, PartialEq, Debug)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Child node ids (evaluation inputs, left to right).
    pub children: Vec<NodeId>,
    /// Estimated output cardinality, when the stats pass computed one.
    pub est: Option<u64>,
    /// Free-form annotation (pass notes, early-trip warnings).
    pub note: Option<String>,
}

/// A logical plan: an arena plus the root.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Plan {
    /// The nodes; children always precede parents.
    pub nodes: Vec<Node>,
    /// The root node.
    pub root: NodeId,
}

impl Plan {
    /// An empty plan (root fixed up by the builder).
    pub fn new() -> Self {
        Plan::default()
    }

    /// Append a node and return its id.
    pub fn add(&mut self, op: Op, children: Vec<NodeId>) -> NodeId {
        self.nodes.push(Node {
            op,
            children,
            est: None,
            note: None,
        });
        self.nodes.len() - 1
    }

    /// Append a node with a cardinality estimate.
    pub fn add_est(&mut self, op: Op, children: Vec<NodeId>, est: Option<u64>) -> NodeId {
        let id = self.add(op, children);
        self.nodes[id].est = est;
        id
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_appends_children_before_parents() {
        let mut p = Plan::new();
        let a = p.add(
            Op::Scan {
                rel: "G".to_string(),
            },
            vec![],
        );
        let j = p.add_est(Op::Join, vec![a, a], Some(4));
        p.root = p.add(Op::Powerset, vec![j]);
        assert!(a < j && j < p.root, "children precede parents");
        assert_eq!(p.node(j).children, vec![a, a]);
        assert_eq!(p.node(j).est, Some(4));
        assert_eq!(p.node(a).op.name(), "scan");
    }
}
