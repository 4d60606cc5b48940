//! Delta types: batches of base-table mutations ([`BaseDelta`]) and the
//! per-view changes maintenance produces ([`ViewDelta`]).
//!
//! Both are kept in **effective** form relative to the instance they
//! apply to: `add` rows are absent from it, `del` rows present, and the
//! two halves are disjoint.

use no_object::{Instance, Relation, Value};
use std::collections::BTreeMap;

/// A batch of base-relation mutations: the unit of maintenance work.
///
/// Build one per transaction/request with [`BaseDelta::insert`] and
/// [`BaseDelta::delete`] (an insert and delete of the same row cancel
/// within the batch), then [`BaseDelta::normalize`] against the
/// pre-update instance to drop no-op rows before handing it to
/// `ViewRegistry::maintain`.
#[derive(Clone, Debug, Default)]
pub struct BaseDelta {
    /// Rows to insert, per base relation.
    pub add: BTreeMap<String, Relation>,
    /// Rows to remove, per base relation.
    pub del: BTreeMap<String, Relation>,
}

impl BaseDelta {
    /// The empty batch.
    pub fn new() -> Self {
        BaseDelta::default()
    }

    /// Queue an insertion. Cancels a pending deletion of the same row.
    pub fn insert(&mut self, rel: &str, row: Vec<Value>) {
        if let Some(d) = self.del.get_mut(rel) {
            if d.remove(&row) {
                return;
            }
        }
        self.add.entry(rel.to_string()).or_default().insert(row);
    }

    /// Queue a deletion. Cancels a pending insertion of the same row.
    pub fn delete(&mut self, rel: &str, row: Vec<Value>) {
        if let Some(a) = self.add.get_mut(rel) {
            if a.remove(&row) {
                return;
            }
        }
        self.del.entry(rel.to_string()).or_default().insert(row);
    }

    /// True when no mutation survives.
    pub fn is_empty(&self) -> bool {
        self.add.values().all(Relation::is_empty) && self.del.values().all(Relation::is_empty)
    }

    /// Total queued rows (both halves).
    pub fn len(&self) -> usize {
        self.add.values().map(Relation::len).sum::<usize>()
            + self.del.values().map(Relation::len).sum::<usize>()
    }

    /// Restore effectiveness against the pre-update `instance`: drop
    /// insertions of rows already present and deletions of rows already
    /// absent. Returns `self` for chaining.
    pub fn normalize(mut self, instance: &Instance) -> Self {
        for (rel, rows) in &mut self.add {
            let existing = instance.relation(rel);
            *rows = rows
                .iter()
                .filter(|r| !existing.contains(r))
                .cloned()
                .collect();
        }
        for (rel, rows) in &mut self.del {
            let existing = instance.relation(rel);
            *rows = rows
                .iter()
                .filter(|r| existing.contains(r))
                .cloned()
                .collect();
        }
        self.add.retain(|_, r| !r.is_empty());
        self.del.retain(|_, r| !r.is_empty());
        self
    }

    /// Apply to an instance: deletions first, then insertions.
    pub fn apply(&self, instance: &mut Instance) {
        for (rel, rows) in &self.del {
            for row in rows.iter() {
                instance.delete(rel, row);
            }
        }
        for (rel, rows) in &self.add {
            for row in rows.iter() {
                instance.insert(rel, row.clone());
            }
        }
    }
}

/// The net change maintenance computed for one view: per maintained
/// relation, the rows that appeared and the rows that disappeared.
/// Effective w.r.t. the view's pre-maintenance contents by construction
/// (computed as a set difference of old and new states).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewDelta {
    /// Newly derived rows, per maintained relation.
    pub add: BTreeMap<String, Relation>,
    /// No-longer-derivable rows, per maintained relation.
    pub del: BTreeMap<String, Relation>,
}

impl ViewDelta {
    /// The empty change.
    pub fn new() -> Self {
        ViewDelta::default()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.add.values().all(Relation::is_empty) && self.del.values().all(Relation::is_empty)
    }

    /// Total changed rows across relations and both halves.
    pub fn len(&self) -> usize {
        self.add.values().map(Relation::len).sum::<usize>()
            + self.del.values().map(Relation::len).sum::<usize>()
    }

    /// The delta between two relation states: `add = new ∖ old`,
    /// `del = old ∖ new`, skipping unchanged relations.
    pub fn between(
        old: &BTreeMap<String, Relation>,
        new: &BTreeMap<String, Relation>,
    ) -> ViewDelta {
        let mut out = ViewDelta::new();
        for (name, new_rel) in new {
            let old_rel = old.get(name);
            let add: Relation = new_rel
                .iter()
                .filter(|r| old_rel.is_none_or(|o| !o.contains(r)))
                .cloned()
                .collect();
            if !add.is_empty() {
                out.add.insert(name.clone(), add);
            }
            if let Some(old_rel) = old_rel {
                let del: Relation = old_rel
                    .iter()
                    .filter(|r| !new_rel.contains(r))
                    .cloned()
                    .collect();
                if !del.is_empty() {
                    out.del.insert(name.clone(), del);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{RelationSchema, Schema, Type, Universe};

    fn atom(u: &mut Universe, s: &str) -> Value {
        Value::Atom(u.intern(s))
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut u = Universe::new();
        let mut d = BaseDelta::new();
        let row = vec![atom(&mut u, "a"), atom(&mut u, "b")];
        d.insert("G", row.clone());
        d.delete("G", row.clone());
        assert!(d.is_empty());
        d.delete("G", row.clone());
        d.insert("G", row);
        assert!(d.is_empty());
    }

    #[test]
    fn normalize_drops_noop_mutations() {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut inst = Instance::empty(schema);
        let ab = vec![atom(&mut u, "a"), atom(&mut u, "b")];
        let cd = vec![atom(&mut u, "c"), atom(&mut u, "d")];
        inst.insert("G", ab.clone());
        let mut d = BaseDelta::new();
        d.insert("G", ab.clone()); // already present → no-op
        d.delete("G", cd); // absent → no-op
        let d = d.normalize(&inst);
        assert!(d.is_empty());
    }

    #[test]
    fn view_delta_between_reports_net_change() {
        let mut u = Universe::new();
        let a = vec![atom(&mut u, "a")];
        let b = vec![atom(&mut u, "b")];
        let c = vec![atom(&mut u, "c")];
        let mut old = BTreeMap::new();
        old.insert("v".to_string(), Relation::from_rows([a.clone(), b.clone()]));
        let mut new = BTreeMap::new();
        new.insert("v".to_string(), Relation::from_rows([b, c.clone()]));
        let d = ViewDelta::between(&old, &new);
        assert_eq!(d.add["v"], Relation::from_rows([c]));
        assert_eq!(d.del["v"], Relation::from_rows([a]));
        assert_eq!(d.len(), 2);
    }
}
