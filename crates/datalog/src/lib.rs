//! # `no-datalog` — inflationary Datalog¬ over complex objects
//!
//! The deductive side of the paper's Section 3 correspondence: rules with
//! negation and membership over complex-object terms ([`program`]),
//! inflationary semi-naive evaluation ([`mod@eval`]), the one rule
//! matcher that evaluation and view maintenance fire rules through
//! ([`fire`]), and translation into `CALC + IFP` fixpoints
//! ([`translate`]).
//!
//! Two further implementations of the inflationary fixpoint exist only
//! as test oracles for the paper's §3 correspondence: naive rounds
//! ([`Strategy::Naive`]) and the simultaneous-IFP translation
//! ([`eval_simultaneous`]). Served requests never reach them.
//!
//! # Example
//!
//! ```
//! use no_datalog::{eval, parse_program, Strategy};
//! use no_object::{Instance, RelationSchema, Schema, Type, Universe, Value};
//!
//! let mut universe = Universe::new();
//! let program = parse_program(
//!     "rel tc(U, U).\n\
//!      tc(x, y) :- G(x, y).\n\
//!      tc(x, y) :- tc(x, z), G(z, y).",
//!     &mut universe,
//! ).unwrap();
//!
//! let schema = Schema::from_relations([
//!     RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
//! ]);
//! let mut db = Instance::empty(schema);
//! let (a, b, c) = (universe.intern("a"), universe.intern("b"), universe.intern("c"));
//! db.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
//! db.insert("G", vec![Value::Atom(b), Value::Atom(c)]);
//!
//! let (idb, stats) = eval(&program, &db, Strategy::SemiNaive).unwrap();
//! assert_eq!(idb["tc"].len(), 3);
//! assert!(stats.rounds >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod eval;
pub mod fire;
pub mod parser;
pub mod program;
pub mod simultaneous;
pub mod stratified;
pub mod translate;

pub use eval::{eval, eval_governed, eval_interned, EvalStats, Idb, InternedIdb, Strategy};
pub use parser::{parse_program, parse_program_spanned};
pub use program::{DTerm, Literal, Program, ProgramError, Rule};
pub use simultaneous::{eval_simultaneous, to_simultaneous_ifp, SimEvalError, Simultaneous};
pub use stratified::{
    eval_stratified, eval_stratified_governed, eval_stratified_interned, stratify, StratifyError,
};
pub use translate::{to_ifp, TranslateError};
