//! A result relation as the engines leave it: hash-consed ids.
//!
//! An [`Answer`] pairs a canonical [`ColumnTable`] with the [`Interner`]
//! its ids live in (a shared handle, so keeping it is O(1)). The columnar
//! executor answers with its root table over the instance version's
//! resident arena, the algebra evaluator and the Datalog round engine
//! with the rows they derived over the arena they derived in, and a
//! value-level answer is interned into an arena of its own. Replies render straight from the ids; [`Answer::to_relation`]
//! is the boundary conversion for callers that want values.

use crate::table::ColumnTable;
use no_object::{IdRelation, Interner, Relation};
use std::sync::Arc;

/// A result relation over interned ids.
#[derive(Clone, Debug)]
pub struct Answer {
    table: Arc<ColumnTable>,
    interner: Interner,
}

impl Answer {
    /// `table`, whose ids were issued by `interner`.
    pub fn new(table: Arc<ColumnTable>, interner: Interner) -> Answer {
        Answer { table, interner }
    }

    /// The rows of an id relation of `arity` columns over `interner`.
    pub fn from_ids(rel: &IdRelation, arity: usize, interner: Interner) -> Answer {
        Answer::new(
            Arc::new(ColumnTable::from_rows(arity, rel.iter())),
            interner,
        )
    }

    /// A value-level relation, interned into `interner` (uncharged: the
    /// engine that produced the values already paid for them).
    pub fn intern(rel: &Relation, interner: &Interner) -> Answer {
        let arity = rel.iter().next().map_or(0, Vec::len);
        let mut table = ColumnTable::empty(arity);
        for row in rel.iter() {
            table.push_row(&interner.intern_row(row));
        }
        table.canonicalize();
        Answer::new(Arc::new(table), interner.clone())
    }

    /// The rows.
    pub fn table(&self) -> &ColumnTable {
        &self.table
    }

    /// The arena the rows' ids live in.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Resolve every row back to values.
    pub fn to_relation(&self) -> Relation {
        let t = &self.table;
        Relation::from_rows((0..t.len()).map(|i| self.interner.resolve_row(&t.row(i))))
    }
}
