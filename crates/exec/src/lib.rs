//! # `no-exec` — columnar execution kernels
//!
//! The physical execution layer the planner (`crates/plan`) lowers to
//! when a query falls in the *flat conjunctive* fragment: column-major
//! relation storage over interned ids ([`ColumnTable`]), secondary hash
//! indexes, and real join algorithms — hash join, nested loop, and an
//! element index for cross-side `∈`/`⊆` — chosen per join from collected
//! statistics instead of always binding to the tree-walk kernels. A
//! selection over a product runs inside the join: its predicate is the
//! join's filter, tested on each candidate pair.
//!
//! Design invariants (see DESIGN.md §14):
//!
//! * **Canonical tables.** Every kernel consumes and produces tables in
//!   raw-id-sorted duplicate-free row order, so every join
//!   algorithm produces bit-identical outputs and results are
//!   independent of thread count — the property `tests/exec_differential.rs`
//!   fuzzes.
//! * **Per-version interning.** Scans read one arena and one canonical
//!   table per relation ([`Resident`]), shared by every execution against
//!   one version of the instance and dropped by the next write. Ids are
//!   admission order within that version (which relation was scanned
//!   first, which constants were admitted); executions only read them.
//!   Raw-id order never escapes into results: the root is returned as
//!   ids over the resident arena ([`Answer`]), and replies rank and
//!   render its rows in value order.
//! * **Block-batched metering.** Governor charges accumulate locally and
//!   flush per [`meter::BLOCK`] steps ([`meter::BlockMeter`]): same
//!   totals as per-row charging, trip granularity coarsened by at most
//!   one block.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod answer;
pub mod kernels;
pub mod meter;
pub mod plan;
pub mod pred;
pub mod resident;
pub mod table;

pub use answer::Answer;
pub use kernels::{JoinAlgo, SetConjunct};
pub use plan::{execute, ExecId, ExecOp, ExecPlan};
pub use pred::RowPred;
pub use resident::Resident;
pub use table::ColumnTable;
