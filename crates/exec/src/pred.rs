//! Row predicates for the columnar select kernel and join filters.
//!
//! [`RowPred`] mirrors the algebra's `Pred` shape (equality between
//! columns, equality with a constant, membership, subset, and the boolean
//! connectives) but over **0-based** columns and carrying constants as
//! plain values: an execution plan is built once and run against whichever
//! arena the instance version holds, so [`RowPred::compile`] looks each
//! constant up in that arena without admitting it — a value the arena
//! lacks occurs in no row over it — after which evaluation is pure id
//! work.

use no_object::{Interner, Value, ValueId};

/// A predicate over one row of a [`crate::ColumnTable`] (or over a join's
/// candidate pair, read as one row), columns 0-based.
#[derive(Clone, Debug, PartialEq)]
pub enum RowPred {
    /// Column = column.
    EqCols(usize, usize),
    /// Column = constant.
    EqConst(usize, Value),
    /// Column ∈ column (element, set).
    InCols(usize, usize),
    /// Column ⊆ column.
    SubsetCols(usize, usize),
    /// Negation.
    Not(Box<RowPred>),
    /// Conjunction.
    And(Box<RowPred>, Box<RowPred>),
    /// Disjunction.
    Or(Box<RowPred>, Box<RowPred>),
}

impl RowPred {
    /// `self ∧ other`.
    pub fn and(self, other: RowPred) -> RowPred {
        RowPred::And(Box::new(self), Box::new(other))
    }

    /// Resolve every constant to its id in `int`, admitting nothing,
    /// producing the id-level form evaluated by the select kernel.
    pub fn compile(&self, int: &Interner) -> CompiledPred {
        match self {
            RowPred::EqCols(a, b) => CompiledPred::EqCols(*a, *b),
            RowPred::EqConst(c, v) => CompiledPred::EqConst(*c, int.lookup(v)),
            RowPred::InCols(a, b) => CompiledPred::InCols(*a, *b),
            RowPred::SubsetCols(a, b) => CompiledPred::SubsetCols(*a, *b),
            RowPred::Not(p) => CompiledPred::Not(Box::new(p.compile(int))),
            RowPred::And(a, b) => {
                CompiledPred::And(Box::new(a.compile(int)), Box::new(b.compile(int)))
            }
            RowPred::Or(a, b) => {
                CompiledPred::Or(Box::new(a.compile(int)), Box::new(b.compile(int)))
            }
        }
    }
}

/// [`RowPred`] with constants resolved to ids of one interner.
#[derive(Clone, Debug)]
pub enum CompiledPred {
    /// Column = column.
    EqCols(usize, usize),
    /// Column = constant; `None` when the arena lacks the constant, which
    /// then matches no row.
    EqConst(usize, Option<ValueId>),
    /// Column ∈ column.
    InCols(usize, usize),
    /// Column ⊆ column.
    SubsetCols(usize, usize),
    /// Negation.
    Not(Box<CompiledPred>),
    /// Conjunction.
    And(Box<CompiledPred>, Box<CompiledPred>),
    /// Disjunction.
    Or(Box<CompiledPred>, Box<CompiledPred>),
}

impl CompiledPred {
    /// Evaluate against the row whose column `c` holds `cell(c)`: a row
    /// of one table (the select kernel) or a candidate pair of a join,
    /// read across both sides without materializing it.
    pub fn eval_by<F: Fn(usize) -> ValueId>(&self, cell: &F, int: &Interner) -> bool {
        match self {
            CompiledPred::EqCols(a, b) => cell(*a) == cell(*b),
            CompiledPred::EqConst(c, id) => Some(cell(*c)) == *id,
            CompiledPred::InCols(a, b) => int
                .set_elems(cell(*b))
                .is_some_and(|elems| int.set_contains(elems, cell(*a))),
            CompiledPred::SubsetCols(a, b) => {
                match (int.set_elems(cell(*a)), int.set_elems(cell(*b))) {
                    (Some(xs), Some(ys)) => int.set_is_subset(xs, ys),
                    _ => false,
                }
            }
            CompiledPred::Not(p) => !p.eval_by(cell, int),
            CompiledPred::And(a, b) => a.eval_by(cell, int) && b.eval_by(cell, int),
            CompiledPred::Or(a, b) => a.eval_by(cell, int) || b.eval_by(cell, int),
        }
    }
}
