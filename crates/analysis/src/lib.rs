//! Static analysis for CALC and Datalog¬ queries: span-carrying
//! diagnostics, range-restriction rule citations, and `⟨i,k⟩` complexity
//! certificates.
//!
//! The analyzer runs *before* evaluation and never evaluates anything
//! itself. It produces an [`Analysis`] per query:
//!
//! - [`Diagnostic`]s with stable codes (see [`codes`]), severities, byte
//!   [`Span`](no_object::Span)s into the source, citations of the paper
//!   rule each one enforces, and fix suggestions;
//! - a [`Certificate`] — the inferred `⟨i,k⟩` measure, fixpoint usage,
//!   range-restriction status with the Definition 5.2/5.3 rule trace, and
//!   the complexity class implied by Theorems 4.1/5.1/5.3/6.1 — whenever
//!   the query is well-formed enough to classify.
//!
//! Entry points: [`analyze_calc`]/[`analyze_query`] for CALC,
//! [`analyze_datalog`]/[`analyze_program`] for Datalog¬. `nestdb` surfaces
//! these through `Session::run` (`op: analyze`, and `mode: checked`
//! evals), the shell's `:check`, and the `analyze` CLI subcommand.

#![warn(missing_docs)]

mod calc;
mod certificate;
mod datalog;
mod diag;
mod json;

pub use calc::{analyze_calc, analyze_query};
pub use certificate::{Certificate, TraceEntry};
pub use datalog::{analyze_datalog, analyze_program};
pub use diag::{Diagnostic, Severity};

use std::fmt;

/// Stable diagnostic codes.
///
/// These are a public contract: CI gates and golden snapshots match on
/// them, so codes are never renumbered or reused (DESIGN.md §11 carries
/// the authoritative table with paper citations).
pub mod codes {
    /// CALC parse error.
    pub const PARSE_CALC: &str = "PARSE001";
    /// Datalog¬ parse error.
    pub const PARSE_DATALOG: &str = "PARSE002";
    /// Relation not in the schema.
    pub const TY_UNKNOWN_RELATION: &str = "TY001";
    /// Relation applied to the wrong number of arguments.
    pub const TY_ARITY: &str = "TY002";
    /// Term type does not match the expected type.
    pub const TY_MISMATCH: &str = "TY003";
    /// Variable used without a binder.
    pub const TY_UNBOUND: &str = "TY004";
    /// Variable name bound twice or both free and bound (Section 3).
    pub const TY_VARIABLE_REUSE: &str = "TY005";
    /// Projection applied to a non-tuple.
    pub const TY_NOT_A_TUPLE: &str = "TY006";
    /// Projection index out of range.
    pub const TY_PROJ_RANGE: &str = "TY007";
    /// Membership/containment applied to a non-set.
    pub const TY_NOT_A_SET: &str = "TY008";
    /// Fixpoint body has a free variable outside its columns
    /// (Definition 3.1).
    pub const TY_FIX_FREE_VAR: &str = "TY009";
    /// Constant comparison with no type context.
    pub const TY_AMBIGUOUS_CONST: &str = "TY010";
    /// Variable not range restricted (Definitions 5.2/5.3). Warning: the
    /// safe evaluator refuses such queries, the governed one may still
    /// enumerate domains.
    pub const RR_UNRESTRICTED: &str = "RR001";
    /// Quantifier binds a variable its body never uses.
    pub const LINT_UNUSED_VAR: &str = "LINT001";
    /// Unrestricted set-typed variable: enumeration cost bounded only by
    /// hyper(i,k) (Theorem 6.1).
    pub const LINT_HYPER_BLOWUP: &str = "LINT002";
    /// Datalog¬ rule is unsafe: head/negated/compared variable with no
    /// positive binding occurrence.
    pub const DL_UNSAFE: &str = "DL001";
    /// Program is not stratifiable; a negation cycle is cited as witness.
    /// Warning: inflationary semantics (Section 3) is still defined.
    pub const DL_NEGATIVE_CYCLE: &str = "DL002";
    /// Rule head relation never declared with `rel`.
    pub const DL_UNDECLARED_HEAD: &str = "DL003";
    /// Datalog¬ atom with the wrong number of arguments.
    pub const DL_ARITY: &str = "DL004";
    /// Body atom names a relation that is neither IDB nor EDB.
    pub const DL_UNKNOWN_RELATION: &str = "DL005";
    /// Rule head writes an EDB relation.
    pub const DL_HEAD_IS_EDB: &str = "DL006";
}

/// The result of analyzing one query: diagnostics plus, when the query is
/// well-formed, its complexity certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Findings, in source-walk order.
    pub diagnostics: Vec<Diagnostic>,
    /// The certificate, absent when errors prevented classification.
    pub certificate: Option<Certificate>,
}

impl Analysis {
    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// No diagnostics at all, of any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the query is certified range restricted — the soundness
    /// contract: an `is_rr_safe` query evaluates without range errors.
    pub fn is_rr_safe(&self) -> bool {
        self.certificate
            .as_ref()
            .is_some_and(|c| c.range_restricted)
            && !self.has_errors()
    }

    /// Render for a terminal: every diagnostic with its caret excerpt of
    /// `src`, then the certificate (or a note that none was issued).
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&d.render(src));
        }
        if !out.is_empty() {
            out.push('\n');
        }
        match &self.certificate {
            Some(c) => out.push_str(c.to_string().trim_end()),
            None => out.push_str("no certificate: query has errors"),
        }
        out
    }

    /// The machine-readable JSON object:
    /// `{"status": "ok"|"error", "diagnostics": [...], "certificate": {...}|null}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"status\": {}, \"diagnostics\": {}, \"certificate\": {}}}",
            json::esc(if self.has_errors() { "error" } else { "ok" }),
            json::array(self.diagnostics.iter().map(|d| d.to_json())),
            self.certificate
                .as_ref()
                .map_or("null".to_string(), |c| c.to_json()),
        )
    }
}

/// Analysis findings packaged as an error, for APIs that refuse to
/// evaluate a query with outstanding diagnostics
/// (`nestdb::Error::Diagnostics` wraps this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticsError {
    /// The findings that blocked evaluation.
    pub diagnostics: Vec<Diagnostic>,
}

impl DiagnosticsError {
    /// Wrap the diagnostics of an analysis.
    pub fn new(analysis: &Analysis) -> Self {
        DiagnosticsError {
            diagnostics: analysis.diagnostics.clone(),
        }
    }
}

impl fmt::Display for DiagnosticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        write!(f, "analysis found {errors} error(s), {warnings} warning(s)")?;
        if let Some(first) = self.diagnostics.first() {
            write!(f, "; first: [{}] {}", first.code, first.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for DiagnosticsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::Span;

    fn diag(sev: Severity) -> Diagnostic {
        Diagnostic::new("TY004", sev, "variable w is unbound").with_span(Span::new(3, 4))
    }

    #[test]
    fn analysis_predicates() {
        let clean = Analysis {
            diagnostics: vec![],
            certificate: None,
        };
        assert!(clean.is_clean() && !clean.has_errors() && !clean.is_rr_safe());
        let warned = Analysis {
            diagnostics: vec![diag(Severity::Warning)],
            certificate: None,
        };
        assert!(!warned.is_clean() && !warned.has_errors());
        let failed = Analysis {
            diagnostics: vec![diag(Severity::Error)],
            certificate: None,
        };
        assert!(failed.has_errors());
    }

    #[test]
    fn json_report_shape() {
        let a = Analysis {
            diagnostics: vec![diag(Severity::Error)],
            certificate: None,
        };
        let j = a.to_json();
        assert!(j.starts_with("{\"status\": \"error\""), "{j}");
        assert!(j.contains("\"diagnostics\": [{"), "{j}");
        assert!(j.ends_with("\"certificate\": null}"), "{j}");
    }

    #[test]
    fn diagnostics_error_counts_and_displays() {
        let a = Analysis {
            diagnostics: vec![diag(Severity::Error), diag(Severity::Warning)],
            certificate: None,
        };
        let e = DiagnosticsError::new(&a);
        let s = e.to_string();
        assert!(s.contains("1 error(s), 1 warning(s)"), "{s}");
        assert!(s.contains("[TY004] variable w is unbound"), "{s}");
    }
}
