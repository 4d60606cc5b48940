//! The executable plan: a flat arena of columnar operators.
//!
//! [`ExecPlan`] is the physical artifact `crates/plan` lowers conjunctive
//! CALC queries and flat algebra expressions to. It is built once per
//! (query, schema) and executed many times: [`execute`] reads the scanned
//! base relations from the instance version's [`Resident`] tables
//! (interned once per version, on the first scan after a write), interns
//! plan constants into the same arena, evaluates the arena bottom-up with
//! the kernels of [`crate::kernels`], and answers with the root table
//! and the arena its ids live in ([`Answer`]) — ids, not values.
//!
//! Join algorithm choice lives in the *plan* (picked by the planner from
//! collected statistics, recorded in `:explain`); this module only runs
//! what it is told.

use crate::answer::Answer;
use crate::kernels;
pub use crate::kernels::{JoinAlgo, SetConjunct};
use crate::meter::BlockMeter;
use crate::pred::RowPred;
use crate::resident::Resident;
use crate::table::ColumnTable;
use no_object::{Governor, Instance, ResourceError, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Index of a node in an [`ExecPlan`] arena.
pub type ExecId = usize;

/// One columnar operator. Children always precede parents in the arena.
#[derive(Clone, Debug)]
pub enum ExecOp {
    /// Scan a base relation by name.
    Scan {
        /// Relation name in the instance schema.
        rel: String,
    },
    /// σ\[#1 = `key` ∧ `rest`\] over a base relation, answered from the
    /// sorted first column of its resident table
    /// ([`kernels::lookup`]) instead of a scan.
    Lookup {
        /// Relation name in the instance schema.
        rel: String,
        /// The value column 0 must hold.
        key: Value,
        /// A further predicate, tested on the rows holding `key` (0-based
        /// columns).
        rest: Option<RowPred>,
    },
    /// The empty relation of a given arity (e.g. a statically
    /// unsatisfiable conjunct).
    Empty {
        /// Output arity.
        arity: usize,
    },
    /// A constant relation.
    Const {
        /// Output arity (needed when `rows` is empty).
        arity: usize,
        /// The rows, as values (interned into the instance version's
        /// arena, which charges their growth).
        rows: Vec<Vec<Value>>,
    },
    /// σ — filter by a row predicate.
    Select {
        /// Input node.
        input: ExecId,
        /// The predicate (0-based columns).
        pred: RowPred,
    },
    /// π — project to 0-based columns (may repeat or reorder).
    Project {
        /// Input node.
        input: ExecId,
        /// Output columns.
        cols: Vec<usize>,
    },
    /// ∪.
    Union {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ∖.
    Difference {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ∩.
    Intersect {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
    },
    /// ⋈ — the pairs of `left` and `right` rows with equal keys that
    /// satisfy the filter, enumerated by a planner-chosen algorithm
    /// (right columns appended). With no keys and no filter it is the
    /// Cartesian product.
    Join {
        /// Left input.
        left: ExecId,
        /// Right input.
        right: ExecId,
        /// Key column pairs (left column, right column), 0-based.
        keys: Vec<(usize, usize)>,
        /// A predicate over the joined row (0-based columns), tested on
        /// each candidate pair before it is materialized.
        filter: Option<RowPred>,
        /// The algorithm to run.
        algo: JoinAlgo,
    },
}

impl ExecOp {
    /// The nodes this operator reads, left to right.
    pub fn inputs(&self) -> Vec<ExecId> {
        match self {
            ExecOp::Select { input, .. } | ExecOp::Project { input, .. } => vec![*input],
            ExecOp::Union { left, right }
            | ExecOp::Difference { left, right }
            | ExecOp::Intersect { left, right }
            | ExecOp::Join { left, right, .. } => vec![*left, *right],
            ExecOp::Scan { .. }
            | ExecOp::Lookup { .. }
            | ExecOp::Empty { .. }
            | ExecOp::Const { .. } => vec![],
        }
    }
}

/// A flat-arena physical plan over the columnar kernels.
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    nodes: Vec<ExecOp>,
    root: ExecId,
}

impl ExecPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ExecPlan::default()
    }

    /// Append an operator (children must already be in the arena) and
    /// make it the root.
    pub fn push(&mut self, op: ExecOp) -> ExecId {
        debug_assert!(op.inputs().iter().all(|&i| i < self.nodes.len()));
        self.nodes.push(op);
        self.root = self.nodes.len() - 1;
        self.root
    }

    /// The operator arena, children before parents.
    pub fn nodes(&self) -> &[ExecOp] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> ExecId {
        self.root
    }

    /// Which nodes some operator reads whole: every input except the
    /// right input of a [`JoinAlgo::Lookup`] join, which is only probed,
    /// and the root.
    fn read_whole(&self) -> Vec<bool> {
        let mut whole = vec![false; self.nodes.len()];
        if let Some(root) = whole.get_mut(self.root) {
            *root = true;
        }
        for op in &self.nodes {
            for i in op.inputs() {
                let probed =
                    matches!(op, ExecOp::Join { right, algo: JoinAlgo::Lookup, .. } if *right == i);
                whole[i] |= !probed;
            }
        }
        whole
    }
}

/// Run a plan against an instance: scans read the instance version's
/// resident tables, the arena is evaluated bottom-up, and the root table
/// is the answer, over the resident arena (nothing is resolved to
/// values; replies render from the ids).
///
/// The first governor touch is a checkpoint at `"exec.start"`, so
/// injected faults and cancellations fire before any work. A relation
/// some operator reads whole is metered, on its first scan in an
/// execution, one step per row as input admission at `"exec.scan"`
/// (like the Datalog engine's EDB load), whether or not this version's
/// table was already built, and is not charged as materialized memory.
/// A relation that is only looked up (a [`ExecOp::Lookup`], or the right
/// input of a [`JoinAlgo::Lookup`] join) pays no admission: its work is
/// one step per probe and per row in the probed range, at `"exec.lookup"`
/// and `"exec.join.probe"`. `Const` rows new to the arena are charged
/// their growth at `"exec.intern"`; every operator's output is metered
/// through [`BlockMeter`].
pub fn execute(
    plan: &ExecPlan,
    instance: &Instance,
    governor: &Governor,
) -> Result<Answer, ResourceError> {
    governor.checkpoint("exec.start")?;
    let resident = Resident::of(instance);
    let int = resident.interner();
    let whole = plan.read_whole();
    let mut scanned: HashSet<&str> = HashSet::new();
    let mut slots: Vec<Arc<ColumnTable>> = Vec::with_capacity(plan.nodes.len());

    for (id, op) in plan.nodes().iter().enumerate() {
        let table = match op {
            ExecOp::Scan { rel } => {
                if whole[id] && scanned.insert(rel.as_str()) {
                    let mut m = BlockMeter::new(governor, "exec.scan");
                    m.work(instance.relation(rel).len() as u64)?;
                    m.finish()?;
                }
                slots.push(resident.scan(instance, rel));
                continue;
            }
            ExecOp::Lookup { rel, key, rest } => kernels::lookup(
                &resident.scan(instance, rel),
                key,
                rest.as_ref(),
                int,
                governor,
            )?,
            ExecOp::Empty { arity } => ColumnTable::empty(*arity),
            ExecOp::Const { arity, rows } => {
                let mut m = BlockMeter::new(governor, "exec.const");
                m.rows(rows.len() as u64, *arity)?;
                m.finish()?;
                let mut t = ColumnTable::empty(*arity);
                for row in rows {
                    let ids = row
                        .iter()
                        .map(|v| int.intern_charged(governor, "exec.intern", v))
                        .collect::<Result<Vec<_>, _>>()?;
                    t.push_row(&ids);
                }
                t.canonicalize();
                t
            }
            ExecOp::Select { input, pred } => kernels::select(&slots[*input], pred, int, governor)?,
            ExecOp::Project { input, cols } => kernels::project(&slots[*input], cols, governor)?,
            ExecOp::Union { left, right } => {
                kernels::union(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Difference { left, right } => {
                kernels::difference(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Intersect { left, right } => {
                kernels::intersect(&slots[*left], &slots[*right], governor)?
            }
            ExecOp::Join {
                left,
                right,
                keys,
                filter,
                algo,
            } => kernels::join(
                &slots[*left],
                &slots[*right],
                keys,
                filter.as_ref(),
                *algo,
                int,
                governor,
            )?,
        };
        slots.push(Arc::new(table));
    }

    let out = slots.swap_remove(plan.root());
    let mut m = BlockMeter::new(governor, "exec.out");
    m.work(out.len() as u64)?;
    m.finish()?;
    Ok(Answer::new(out, int.clone()))
}
