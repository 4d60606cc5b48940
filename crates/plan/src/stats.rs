//! Instance statistics and schema fingerprints.
//!
//! [`Stats::of`] makes one pass over the data for each relation's
//! cardinality, its exact distinct values per column — the signal the
//! join-algorithm pass uses to spot duplicate-heavy keys — and the atom
//! count (the active-domain size). The pass runs once per version of the
//! instance: its result lives in the instance's derived memo
//! ([`Instance::derived`]) until the next write, so a plan-cache miss
//! between writes reads no data. Staleness can only affect algorithm
//! *choice*, never correctness: a cached plan keeps the statistics it was
//! compiled with, and every algorithm computes the same join.

use no_core::ast::{Formula, Term};
use no_object::{Instance, Schema, Type, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Relation cardinalities, exact per-column distinct counts, and the
/// active-domain size.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Rows per relation.
    pub rel_rows: BTreeMap<String, u64>,
    /// Number of distinct atoms in the instance (active-domain size).
    pub atoms: u64,
    /// Exact distinct values per column of each relation.
    pub rel_distinct: BTreeMap<String, Vec<u64>>,
}

impl Stats {
    /// The statistics of `instance`'s current version: collected on the
    /// first call after a write, shared until the next one.
    pub fn of(instance: &Instance) -> Stats {
        Stats::clone(&instance.derived(|| Stats::collect(instance)))
    }

    /// One O(‖I‖ log ‖I‖) pass: rows, distinct values per column, and the
    /// atoms those values contain.
    fn collect(instance: &Instance) -> Stats {
        let mut stats = Stats::default();
        let mut atoms = BTreeSet::new();
        for r in instance.schema().relations() {
            let rel = instance.relation(&r.name);
            let mut sets: Vec<BTreeSet<&Value>> = vec![BTreeSet::new(); r.arity()];
            for row in rel.iter() {
                for (c, v) in row.iter().enumerate() {
                    // a value already counted in this column adds no atom
                    if sets[c].insert(v) {
                        v.collect_atoms(&mut atoms);
                    }
                }
            }
            stats.rel_rows.insert(r.name.clone(), rel.len() as u64);
            stats.rel_distinct.insert(
                r.name.clone(),
                sets.iter().map(|s| s.len() as u64).collect(),
            );
        }
        stats.atoms = atoms.len() as u64;
        stats
    }

    /// Rows of a relation, when known.
    pub fn rows(&self, rel: &str) -> Option<u64> {
        self.rel_rows.get(rel).copied()
    }

    /// Exact distinct count of a relation's column (0-based), when
    /// detailed stats were collected.
    pub fn distinct(&self, rel: &str, col: usize) -> Option<u64> {
        self.rel_distinct
            .get(rel)
            .and_then(|cols| cols.get(col))
            .copied()
    }

    /// Estimated candidates a variable ranges over when it occurs in the
    /// body of `formula` as an argument of a database relation atom: the
    /// smallest such relation's cardinality (each column of `R` has at
    /// most |R| distinct values). `None` when the variable never occurs in
    /// a relation atom we have stats for.
    pub fn estimate_var(&self, formula: &Formula, var: &str) -> Option<u64> {
        let mut best: Option<u64> = None;
        collect_rel_occurrences(formula, &mut |rel, args| {
            if args.iter().any(|t| term_mentions(t, var)) {
                if let Some(n) = self.rows(rel) {
                    best = Some(best.map_or(n, |b| b.min(n)));
                }
            }
        });
        best
    }

    /// Estimated active-domain size for a type: the atom count for atom
    /// types, saturating `2^dom` growth for sets, products for tuples.
    pub fn estimate_domain(&self, ty: &Type) -> u64 {
        match ty {
            Type::Atom => self.atoms.max(1),
            Type::Set(inner) => {
                let n = self.estimate_domain(inner);
                if n >= 63 {
                    u64::MAX
                } else {
                    1u64 << n
                }
            }
            Type::Tuple(parts) => parts
                .iter()
                .map(|t| self.estimate_domain(t))
                .fold(1u64, u64::saturating_mul),
        }
    }
}

fn term_mentions(t: &Term, var: &str) -> bool {
    match t {
        Term::Var(v) => v == var,
        Term::Proj(inner, _) => term_mentions(inner, var),
        Term::Const(_) | Term::Fix(_) => false,
    }
}

/// Walk every relation atom in a formula (including under quantifiers,
/// negation, and fixpoint bodies) and hand it to `f`.
fn collect_rel_occurrences(formula: &Formula, f: &mut impl FnMut(&str, &[Term])) {
    match formula {
        Formula::Rel(name, args) => f(name, args),
        Formula::Eq(..) | Formula::In(..) | Formula::Subset(..) => {}
        Formula::Not(inner) => collect_rel_occurrences(inner, f),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                collect_rel_occurrences(p, f);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_rel_occurrences(a, f);
            collect_rel_occurrences(b, f);
        }
        Formula::Exists(_, _, inner) | Formula::Forall(_, _, inner) => {
            collect_rel_occurrences(inner, f)
        }
        Formula::FixApp(fix, args) => {
            collect_rel_occurrences(&fix.body, f);
            f(&fix.rel, args);
        }
    }
}

/// A stable fingerprint of a schema: relation names with their column
/// types, hashed. Part of every plan-cache key — a plan lowered against
/// one schema must never be replayed against another.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = DefaultHasher::new();
    for rel in schema.relations() {
        rel.name.hash(&mut h);
        for ty in &rel.column_types {
            ty.to_string().hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{Atom, RelationSchema, Universe, Value};

    fn tiny() -> Instance {
        let schema = Schema::from_relations([
            RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
            RelationSchema::new("E", vec![Type::Atom]),
        ]);
        let mut i = Instance::empty(schema);
        let _u = Universe::with_names(["a", "b", "c"]);
        for (x, y) in [(0u32, 1u32), (1, 2), (2, 0)] {
            i.insert("G", vec![Value::Atom(Atom(x)), Value::Atom(Atom(y))]);
        }
        i.insert("E", vec![Value::Atom(Atom(0))]);
        i
    }

    #[test]
    fn stats_count_rows_and_atoms() {
        let i = tiny();
        let s = Stats::of(&i);
        assert_eq!(s.rows("G"), Some(3));
        assert_eq!(s.rows("E"), Some(1));
        assert_eq!(s.atoms, 3);
        assert_eq!(s.estimate_domain(&Type::Atom), 3);
        assert_eq!(s.estimate_domain(&Type::set(Type::Atom)), 8);
    }

    #[test]
    fn stats_are_collected_once_per_version() {
        let mut i = tiny();
        let first = Stats::of(&i);
        let memo = i.derived::<Stats>(|| unreachable!("collected twice for one version"));
        assert_eq!(memo.rel_rows, first.rel_rows);
        i.insert("E", vec![Value::Atom(Atom(1))]);
        let after = Stats::of(&i);
        assert_eq!(after.rows("E"), Some(2));
        assert_eq!(after.distinct("E", 0), Some(2));
    }

    #[test]
    fn detailed_stats_count_distincts_exactly() {
        let i = tiny();
        let s = Stats::of(&i);
        // G = {(a,b),(b,c),(c,a)}: both columns hold 3 distinct atoms.
        assert_eq!(s.distinct("G", 0), Some(3));
        assert_eq!(s.distinct("G", 1), Some(3));
        assert_eq!(s.distinct("E", 0), Some(1));
        assert_eq!(s.distinct("G", 2), None, "out-of-range column");
        assert_eq!(s.distinct("H", 0), None, "unknown relation");
    }

    #[test]
    fn var_estimates_take_the_smallest_relation() {
        let i = tiny();
        let s = Stats::of(&i);
        let f = Formula::and([
            Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
            Formula::Rel("E".into(), vec![Term::var("x")]),
        ]);
        assert_eq!(s.estimate_var(&f, "x"), Some(1), "E is smaller than G");
        assert_eq!(s.estimate_var(&f, "y"), Some(3));
        assert_eq!(s.estimate_var(&f, "z"), None);
    }

    #[test]
    fn fingerprints_separate_schemas() {
        let a = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let b = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom])]);
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&b));
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&a.clone()));
    }
}
