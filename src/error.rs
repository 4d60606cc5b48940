//! A unified error type over every evaluation engine.
//!
//! Each engine crate keeps its own structured error (`EvalError`,
//! `AlgebraError`, `ProgramError`, `StratifyError`) — those stay the
//! precise, matchable types for callers working against a single engine.
//! [`Error`] wraps them for callers going through [`crate::Session`], so a
//! shell, a test harness, or an embedding application can hold one error
//! type regardless of which engine produced it, walk the underlying engine
//! error via [`std::error::Error::source`], and ask the one question that
//! is engine-independent: *did a resource budget trip?* — via the stable
//! [`Error::is_resource_trip`] predicate.

use no_algebra::AlgebraError;
use no_analysis::DiagnosticsError;
use no_core::EvalError;
use no_datalog::{ProgramError, StratifyError};
use no_object::ResourceError;
use no_storage::StorageError;
use std::fmt;

/// Any failure from any evaluation engine, as surfaced by
/// [`crate::Session`].
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The CALC evaluator failed (parse/shape/budget/…).
    Calc(EvalError),
    /// The algebra evaluator failed.
    Algebra(AlgebraError),
    /// The Datalog¬ evaluator failed.
    Datalog(ProgramError),
    /// Stratification failed or a stratum's evaluation failed.
    Stratify(StratifyError),
    /// Static analysis found errors, so evaluation was refused (a
    /// `mode: checked` eval through [`crate::Session::run`]).
    Diagnostics(DiagnosticsError),
    /// The durable storage layer failed (I/O, on-disk corruption, an
    /// invalid mutation, or a budget trip while replaying recovery).
    Storage(StorageError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Calc(e) => write!(f, "calc: {e}"),
            Error::Algebra(e) => write!(f, "algebra: {e}"),
            Error::Datalog(e) => write!(f, "datalog: {e}"),
            Error::Stratify(e) => write!(f, "stratify: {e}"),
            Error::Diagnostics(e) => write!(f, "analysis: {e}"),
            Error::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Calc(e) => Some(e),
            Error::Algebra(e) => Some(e),
            Error::Datalog(e) => Some(e),
            Error::Stratify(e) => Some(e),
            Error::Diagnostics(e) => Some(e),
            Error::Storage(e) => Some(e),
        }
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        Error::Calc(e)
    }
}

impl From<AlgebraError> for Error {
    fn from(e: AlgebraError) -> Self {
        Error::Algebra(e)
    }
}

impl From<ProgramError> for Error {
    fn from(e: ProgramError) -> Self {
        Error::Datalog(e)
    }
}

impl From<StratifyError> for Error {
    fn from(e: StratifyError) -> Self {
        Error::Stratify(e)
    }
}

impl From<DiagnosticsError> for Error {
    fn from(e: DiagnosticsError) -> Self {
        Error::Diagnostics(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<no_plan::PlanError> for Error {
    fn from(e: no_plan::PlanError) -> Self {
        // Planned evaluation wraps the same engine errors the tree-walk
        // paths raise; unwrap back to the matching variant so callers see
        // identical errors regardless of which path ran.
        match e {
            no_plan::PlanError::Calc(e) => Error::Calc(e),
            no_plan::PlanError::Algebra(e) => Error::Algebra(e),
            no_plan::PlanError::Datalog(e) => Error::Datalog(e),
            no_plan::PlanError::Stratify(e) => Error::Stratify(e),
        }
    }
}

impl Error {
    /// The [`ResourceError`] behind this failure, if a governor budget
    /// (steps, range, memory, iterations, deadline, or cancellation)
    /// tripped — digging through however many engine layers wrap it.
    pub fn resource(&self) -> Option<&ResourceError> {
        match self {
            Error::Calc(EvalError::Resource(r)) => Some(r),
            Error::Calc(_) => None,
            Error::Algebra(AlgebraError::Resource(r)) => Some(r),
            Error::Algebra(_) => None,
            Error::Datalog(ProgramError::Resource(r)) => Some(r),
            Error::Datalog(_) => None,
            Error::Stratify(StratifyError::Program(ProgramError::Resource(r))) => Some(r),
            Error::Stratify(_) => None,
            // Analysis never evaluates, so it can never trip a budget.
            Error::Diagnostics(_) => None,
            // Recovery replay charges the governor for rebuilt arenas.
            Error::Storage(StorageError::Resource(r)) => Some(r),
            Error::Storage(_) => None,
        }
    }

    /// True when the failure is a resource-budget trip rather than a
    /// genuine query error. Stable across engines: callers branch on this
    /// to distinguish "query too expensive under current budgets" from
    /// "query is wrong".
    pub fn is_resource_trip(&self) -> bool {
        self.resource().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{BudgetKind, Governor, Limits};

    fn tripped() -> ResourceError {
        let g = Governor::new(Limits {
            max_steps: 0,
            ..Limits::unlimited()
        });
        match g.tick("test.site") {
            Err(e) => e,
            Ok(()) => panic!("zero fuel must trip"),
        }
    }

    #[test]
    fn resource_trips_detected_through_every_wrapper() {
        let r = tripped();
        let cases: Vec<Error> = vec![
            EvalError::Resource(r.clone()).into(),
            AlgebraError::Resource(r.clone()).into(),
            ProgramError::Resource(r.clone()).into(),
            StratifyError::Program(ProgramError::Resource(r.clone())).into(),
            StorageError::Resource(r.clone()).into(),
        ];
        for e in cases {
            assert!(e.is_resource_trip(), "{e}");
            assert_eq!(e.resource().unwrap().budget, BudgetKind::Steps);
        }
    }

    #[test]
    fn non_resource_errors_are_not_trips() {
        let e: Error = EvalError::UnboundVariable("x".into()).into();
        assert!(!e.is_resource_trip());
        assert!(e.resource().is_none());
        let e: Error = StorageError::Invalid {
            detail: "unknown relation".into(),
        }
        .into();
        assert!(!e.is_resource_trip());
        assert!(e.to_string().starts_with("storage: "), "{e}");
    }

    #[test]
    fn source_chain_reaches_the_engine_error() {
        use std::error::Error as _;
        let e: Error = EvalError::UnboundVariable("x".into()).into();
        let src = e.source().expect("wraps an engine error");
        assert!(src.to_string().contains('x'));
    }

    #[test]
    fn diagnostics_variant_chains_and_never_trips() {
        use no_analysis::{Diagnostic, DiagnosticsError, Severity};
        use std::error::Error as _;
        let e: Error = DiagnosticsError {
            diagnostics: vec![Diagnostic::new(
                "TY004",
                Severity::Error,
                "variable w is unbound",
            )],
        }
        .into();
        assert!(e.to_string().starts_with("analysis: "), "{e}");
        assert!(!e.is_resource_trip());
        let src = e.source().expect("wraps the diagnostics error");
        assert!(src.to_string().contains("TY004"), "{src}");
    }
}
