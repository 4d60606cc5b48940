//! # `no-ivm` — incremental view maintenance
//!
//! Materialized views over the complex-object database, kept consistent
//! under base-table insertions and deletions without recomputation.
//!
//! A view is a stratified Datalog¬ program evaluated to its
//! **stratified model** and stored relation-by-relation. The
//! inflationary semantics the paper pairs with `CALC+IFP` is
//! deliberately *not* offered here: a fact an inflationary fixpoint
//! keeps because a negation held *early* has no local justification to
//! retract when that negation later flips, so inflationary views are
//! not incrementally maintainable — stratified ones are.
//!
//! The moving parts (see DESIGN.md §17):
//!
//! * [`BaseDelta`] — a normalized batch of base mutations, the unit of
//!   maintenance work;
//! * `no_plan::plan_maintenance` — strata and the counting-vs-DRed
//!   strategy decision;
//! * [`ViewRegistry`] — materializes views, maintains all of them
//!   transactionally per delta, and reports each view's net
//!   [`ViewDelta`] (what the server pushes to subscribers);
//! * [`checkpoint`] — a text serialization of view state that rides in
//!   the storage layer's views envelope and replays from the WAL tail
//!   on open.
//!
//! Rules fire through the one rule matcher, `no_datalog::fire`, over
//! value cells — the same code the round engine fires rules through over
//! interned ids. Maintenance is governor-metered at `"ivm.fire"` (the
//! matcher's enumeration steps), `"ivm.index"` (its probe-index builds),
//! `"ivm.round"` (per fixpoint round) and `"ivm.derive"` (memory per
//! row a Δ loop holds), with per-view step accounting in [`ViewStats`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod delta;
pub mod engine;
pub mod error;

pub use checkpoint::{decode_registry, encode_registry};
pub use delta::{BaseDelta, ViewDelta};
pub use engine::{MaintainedView, ViewRegistry, ViewStats};
pub use error::IvmError;
