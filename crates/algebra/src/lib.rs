//! # `no-algebra` — nested-relational algebra for complex objects
//!
//! The operator-language family the paper cites alongside the calculus
//! (\[AB86\], \[AB87\], \[FT83\], \[SS86\]): selection, projection, product, set
//! operations, nest, unnest, and the powerset operator — the construct
//! whose cost the fixpoint operators of `no-core` are designed to avoid.
//! Typed expressions ([`expr`]) and budgeted bottom-up evaluation
//! ([`mod@eval`]).
//!
//! # Example
//!
//! ```
//! use no_algebra::{eval, AlgebraConfig, Expr};
//! use no_object::{Instance, RelationSchema, Schema, Type, Universe, Value};
//!
//! let mut universe = Universe::new();
//! let schema = Schema::from_relations([
//!     RelationSchema::new("W", vec![Type::Atom, Type::Atom]), // (emp, dept)
//! ]);
//! let mut db = Instance::empty(schema);
//! let (ann, ben, sales) = (
//!     universe.intern("ann"), universe.intern("ben"), universe.intern("sales"),
//! );
//! db.insert("W", vec![Value::Atom(ann), Value::Atom(sales)]);
//! db.insert("W", vec![Value::Atom(ben), Value::Atom(sales)]);
//!
//! // nest employees by department: one row (dept, {emps})
//! let grouped = Expr::rel("W").project([2, 1]).nest(2);
//! let out = eval(&grouped, &db, &AlgebraConfig::default()).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod eval;
pub mod expr;
pub mod parser;
pub mod to_calc;

pub use eval::{eval, eval_governed, eval_interned, AlgebraConfig};
pub use expr::{AlgebraError, Expr, Pred};
pub use parser::{parse_expr, ParseError};
pub use to_calc::to_query;
