//! Maintenance planning for incremental view maintenance.
//!
//! [`plan_maintenance`] splits a stratified Datalog¬ program into strata,
//! mirroring `no_datalog::eval_stratified_interned` (lower strata are
//! frozen inputs, so negation only consults finished relations), and
//! gives each stratum a maintenance strategy:
//!
//! | stratum shape  | strategy                 | why                                            |
//! |----------------|--------------------------|------------------------------------------------|
//! | non-recursive  | [`MaintenanceStrategy::Counting`] | every derived fact's support count is exact; deletions decrement and drop at zero — no re-derivation pass needed |
//! | recursive      | [`MaintenanceStrategy::DRed`]     | counts diverge on cyclic derivations; delete-rederive over-deletes then re-derives facts with surviving alternative proofs |

use crate::physical::PlanError;
use no_datalog::{stratify, Literal, Program};
use no_object::Schema;
use std::collections::BTreeSet;

/// How a stratum's materialized relations are maintained under deletions.
///
/// Insertions are uniform — semi-naive propagation of the Δ-pinned rule
/// variants — so the strategy only decides the deletion side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintenanceStrategy {
    /// Count derivations per fact (bookkeeping at head projection only).
    /// A deletion decrements the count of every derivation it supported;
    /// a fact dies when its count reaches zero. Exact for non-recursive
    /// strata, where distinct derivations are finite and independent.
    Counting,
    /// Delete-and-re-derive (Gupta–Mumick–Subrahmanian): over-delete
    /// everything transitively supported by the deleted facts, then
    /// re-derive over-deleted facts with a surviving alternative proof.
    /// Required for recursive strata, where derivation counts diverge on
    /// cycles.
    DRed,
}

impl MaintenanceStrategy {
    /// Stable lowercase label used in explain output and wire stats.
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceStrategy::Counting => "counting",
            MaintenanceStrategy::DRed => "dred",
        }
    }
}

/// One stratum of a [`MaintenancePlan`]: the relations it defines and the
/// maintenance strategy the shape forces.
#[derive(Clone, Debug)]
pub struct StratumPlan {
    /// The IDB relations this stratum defines, in stratification order.
    pub relations: Vec<String>,
    /// Whether any rule in the stratum reads a same-stratum relation
    /// (i.e. the stratum's fixpoint genuinely iterates).
    pub recursive: bool,
    /// The deletion-side maintenance strategy ([`MaintenanceStrategy::DRed`]
    /// when recursive, [`MaintenanceStrategy::Counting`] otherwise).
    pub strategy: MaintenanceStrategy,
}

/// A full maintenance plan: one [`StratumPlan`] per stratum, lowest
/// first. Maintained semantics are the **stratified model** (the
/// inflationary model is not incrementalizable: a fact kept by a
/// since-falsified negation has no local justification to retract).
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    /// Strata in dependency order; later strata may negate earlier ones.
    pub strata: Vec<StratumPlan>,
}

impl MaintenancePlan {
    /// All maintained relation names, in stratification order.
    pub fn relations(&self) -> Vec<String> {
        self.strata
            .iter()
            .flat_map(|s| s.relations.iter().cloned())
            .collect()
    }

    /// Human-readable per-stratum summary lines for explain output.
    pub fn notes(&self) -> Vec<String> {
        self.strata
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "stratum {}: {} [{}{}]",
                    i,
                    s.relations.join(", "),
                    s.strategy.label(),
                    if s.recursive { ", recursive" } else { "" },
                )
            })
            .collect()
    }
}

/// Plan incremental maintenance for a stratified Datalog¬ program.
///
/// Mirrors `no_datalog::eval_stratified_interned`: the program is validated
/// and stratified once, and each stratum gets the strategy its shape
/// forces. Fails with [`PlanError::Stratify`] when the program has a
/// negative cycle and with [`PlanError::Datalog`] when it doesn't
/// validate.
pub fn plan_maintenance(schema: &Schema, program: &Program) -> Result<MaintenancePlan, PlanError> {
    program.validate(schema).map_err(PlanError::Datalog)?;
    let strata = stratify(program).map_err(PlanError::Stratify)?;
    let out = strata
        .into_iter()
        .map(|layer| {
            let layer_set: BTreeSet<&str> = layer.iter().map(String::as_str).collect();
            let recursive = program
                .rules
                .iter()
                .filter(|rule| layer_set.contains(rule.head.as_str()))
                .any(|rule| {
                    rule.body.iter().any(|lit| {
                        matches!(lit, Literal::Pos(name, _) | Literal::Neg(name, _)
                            if layer_set.contains(name.as_str()))
                    })
                });
            StratumPlan {
                relations: layer,
                recursive,
                strategy: if recursive {
                    MaintenanceStrategy::DRed
                } else {
                    MaintenanceStrategy::Counting
                },
            }
        })
        .collect();
    Ok(MaintenancePlan { strata: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_datalog::DTerm;
    use no_object::{RelationSchema, Type};

    fn graph_schema() -> Schema {
        Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
    }

    /// tc + node + unreach — the textbook two-stratum program.
    fn unreach_program() -> Program {
        let mut p = Program::new();
        p.declare("tc", vec![Type::Atom, Type::Atom]);
        p.declare("node", vec![Type::Atom]);
        p.declare("unreach", vec![Type::Atom, Type::Atom]);
        p.rule(
            "node",
            vec![DTerm::var("x")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "tc",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
        );
        p.rule(
            "tc",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("tc".into(), vec![DTerm::var("x"), DTerm::var("z")]),
                Literal::Pos("G".into(), vec![DTerm::var("z"), DTerm::var("y")]),
            ],
        );
        p.rule(
            "unreach",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("node".into(), vec![DTerm::var("x")]),
                Literal::Pos("node".into(), vec![DTerm::var("y")]),
                Literal::Neg("tc".into(), vec![DTerm::var("x"), DTerm::var("y")]),
            ],
        );
        p
    }

    #[test]
    fn strategies_follow_stratum_recursion() {
        let mp = plan_maintenance(&graph_schema(), &unreach_program()).unwrap();
        assert_eq!(mp.strata.len(), 2);
        let lower = &mp.strata[0];
        assert!(lower.relations.contains(&"tc".to_string()));
        assert!(lower.recursive);
        assert_eq!(lower.strategy, MaintenanceStrategy::DRed);
        let upper = &mp.strata[1];
        assert_eq!(upper.relations, vec!["unreach".to_string()]);
        assert!(!upper.recursive);
        assert_eq!(upper.strategy, MaintenanceStrategy::Counting);
        assert_eq!(
            mp.relations(),
            vec!["node".to_string(), "tc".to_string(), "unreach".to_string()]
        );
    }

    #[test]
    fn negative_cycle_is_a_plan_error() {
        let mut p = Program::new();
        p.declare("p", vec![Type::Atom]);
        p.declare("q", vec![Type::Atom]);
        p.rule(
            "p",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("x")]),
                Literal::Neg("q".into(), vec![DTerm::var("x")]),
            ],
        );
        p.rule(
            "q",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("x")]),
                Literal::Neg("p".into(), vec![DTerm::var("x")]),
            ],
        );
        assert!(matches!(
            plan_maintenance(&graph_schema(), &p),
            Err(PlanError::Stratify(_))
        ));
    }

    #[test]
    fn notes_summarize_each_stratum() {
        let mp = plan_maintenance(&graph_schema(), &unreach_program()).unwrap();
        let notes = mp.notes();
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("dred") && notes[0].contains("recursive"));
        assert!(notes[1].contains("counting"));
    }
}
