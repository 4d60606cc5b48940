//! Database schemas, relations, and instances (Section 2).
//!
//! A schema is a set of named relations `R[T1,...,Tn]`; an instance maps
//! each relation to a finite set of typed tuples. The paper distinguishes
//! the *cardinality* `|I|` (total number of tuples) from the *size* `‖I‖`
//! (length of the standard tape encoding) — for complex objects these can
//! diverge arbitrarily, which is what the density/sparsity analysis is
//! about.

use crate::atom::Atom;
use crate::text::Clause;
use crate::types::Type;
use crate::value::Value;
use conc::Mutex;
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The typed signature of one relation: its name and column types.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationSchema {
    /// Relation name, unique within a schema.
    pub name: String,
    /// Column types `T1,...,Tn` (arity = length). Arity is unrestricted —
    /// an `⟨i,k⟩`-schema bounds the column *types*, not the arity.
    pub column_types: Vec<Type>,
}

impl RelationSchema {
    /// Create a relation schema.
    pub fn new(name: impl Into<String>, column_types: Vec<Type>) -> Self {
        RelationSchema {
            name: name.into(),
            column_types,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.column_types.len()
    }

    /// The tuple type `[T1,...,Tn]` of rows of this relation.
    pub fn row_type(&self) -> Type {
        Type::tuple(self.column_types.clone())
    }

    /// Whether every column type is an `⟨i,k⟩`-type.
    pub fn is_ik(&self, i: usize, k: usize) -> bool {
        self.column_types.iter().all(|t| t.is_ik(i, k))
    }
}

/// A database schema: an ordered collection of relation schemas.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    relations: Vec<Arc<RelationSchema>>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build a schema from relation schemas.
    ///
    /// # Panics
    /// Panics on duplicate relation names.
    pub fn from_relations(relations: impl IntoIterator<Item = RelationSchema>) -> Self {
        let mut s = Schema::new();
        for r in relations {
            s.add(r);
        }
        s
    }

    /// Add a relation schema.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn add(&mut self, rel: RelationSchema) -> &mut Self {
        assert!(
            self.get(&rel.name).is_none(),
            "duplicate relation name {:?}",
            rel.name
        );
        self.relations.push(Arc::new(rel));
        self
    }

    /// Look up a relation schema by name.
    pub fn get(&self, name: &str) -> Option<&RelationSchema> {
        self.relations
            .iter()
            .find(|r| r.name == name)
            .map(Arc::as_ref)
    }

    /// The one row check every writer runs: `row` must fit relation
    /// `name`'s arity and column types. The error is the refusal a caller
    /// shows.
    pub fn check_row(&self, name: &str, row: &[Value]) -> Result<(), String> {
        let rel = self
            .get(name)
            .ok_or_else(|| format!("unknown relation {name:?}"))?;
        if rel.arity() != row.len() {
            return Err(format!(
                "relation {name:?} has arity {} but the tuple has {} values",
                rel.arity(),
                row.len()
            ));
        }
        match row
            .iter()
            .zip(&rel.column_types)
            .position(|(v, t)| !v.has_type(t))
        {
            Some(i) => Err(format!(
                "column {} is not of type {} in relation {name:?}",
                i + 1,
                rel.column_types[i]
            )),
            None => Ok(()),
        }
    }

    /// Iterate the relation schemas in declaration order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.iter().map(Arc::as_ref)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Whether this is an `⟨i,k⟩`-database schema (every column type is an
    /// `⟨i,k⟩`-type; arities are unrestricted).
    pub fn is_ik(&self, i: usize, k: usize) -> bool {
        self.relations.iter().all(|r| r.is_ik(i, k))
    }

    /// The least `(i, k)` such that this is an `⟨i,k⟩`-schema.
    pub fn ik(&self) -> (usize, usize) {
        let mut i = 0;
        let mut k = 0;
        for r in self.relations() {
            for t in &r.column_types {
                i = i.max(t.set_height());
                k = k.max(t.tuple_width());
            }
        }
        (i, k)
    }
}

/// The extension of one relation: a set of rows, each row a vector of
/// values matching the column types.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Relation {
    rows: HashSet<Vec<Value>>,
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Build from rows; duplicates collapse.
    pub fn from_rows(rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        Relation {
            rows: rows.into_iter().collect(),
        }
    }

    /// Insert a row; returns whether it was new.
    pub fn insert(&mut self, row: Vec<Value>) -> bool {
        self.rows.insert(row)
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.rows.contains(row)
    }

    /// Remove a row; returns whether it was present.
    pub fn remove(&mut self, row: &[Value]) -> bool {
        self.rows.remove(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate rows (unspecified order; use [`Relation::sorted_rows`] for a
    /// deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.iter()
    }

    /// Rows sorted by the canonical structural order (deterministic).
    pub fn sorted_rows(&self) -> Vec<&Vec<Value>> {
        let mut rows: Vec<&Vec<Value>> = self.rows.iter().collect();
        rows.sort();
        rows
    }

    /// Union in place; returns the number of newly added rows.
    pub fn absorb(&mut self, other: &Relation) -> usize {
        let before = self.rows.len();
        self.rows.extend(other.rows.iter().cloned());
        self.rows.len() - before
    }
}

impl FromIterator<Vec<Value>> for Relation {
    fn from_iter<I: IntoIterator<Item = Vec<Value>>>(iter: I) -> Self {
        Relation::from_rows(iter)
    }
}

/// What reads have derived from one version of an [`Instance`], keyed by
/// type (see [`Instance::derived`]). Every write that changes the instance
/// clears it. A clone shares the entries, because equal instances derive
/// equal values, and equality ignores it.
struct Derived(Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>);

impl Derived {
    fn new(entries: HashMap<TypeId, Arc<dyn Any + Send + Sync>>) -> Self {
        Derived(Mutex::new_named("instance.derived", entries))
    }
}

impl Clone for Derived {
    fn clone(&self) -> Self {
        Derived::new(self.0.lock().clone())
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Derived) -> bool {
        true
    }
}

/// A database instance over a [`Schema`].
#[derive(Clone, PartialEq)]
pub struct Instance {
    schema: Schema,
    relations: BTreeMap<String, Relation>,
    derived: Derived,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("schema", &self.schema)
            .field("relations", &self.relations)
            .finish()
    }
}

impl Instance {
    /// The empty instance over a schema.
    pub fn empty(schema: Schema) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name.clone(), Relation::new()))
            .collect();
        Instance {
            schema,
            relations,
            derived: Derived::new(HashMap::new()),
        }
    }

    /// The value of type `T` derived from this version of the instance.
    /// `build` runs on the first call after a write, and every later call
    /// shares its result until the next write. The memo is keyed by type,
    /// so crates above this one attach what they derive without this
    /// crate knowing their types. Concurrent first calls build once:
    /// `build` runs under the memo's lock, so it must not call `derived`
    /// on this instance itself.
    pub fn derived<T: Any + Send + Sync>(&self, build: impl FnOnce() -> T) -> Arc<T> {
        let mut memo = self.derived.0.lock();
        let entry = memo
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Arc::new(build()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("memo entries are keyed by their own type")
    }

    /// Forget everything derived from the previous version.
    fn changed(&mut self) {
        self.derived.0.get_mut().clear();
    }

    /// The schema of this instance.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The extension of a relation.
    ///
    /// # Panics
    /// Panics on an unknown relation name — schema mismatches are bugs.
    pub fn relation(&self, name: &str) -> &Relation {
        self.relations
            .get(name)
            .unwrap_or_else(|| panic!("relation {name:?} not in schema"))
    }

    /// Declare one more relation, empty.
    ///
    /// # Panics
    /// Panics if the name is already taken, like [`Schema::add`].
    pub fn declare(&mut self, rel: RelationSchema) {
        let name = rel.name.clone();
        self.schema.add(rel);
        self.relations.insert(name, Relation::new());
        self.changed();
    }

    /// Insert a row, validating its types against the schema.
    ///
    /// # Panics
    /// Panics when [`Schema::check_row`] refuses the row: instances are
    /// built by trusted loaders and generators, and a typing violation
    /// indicates a programming error, not bad user data.
    pub fn insert(&mut self, name: &str, row: Vec<Value>) -> bool {
        if let Err(e) = self.schema.check_row(name, &row) {
            panic!("{e}");
        }
        let fresh = self
            .relations
            .get_mut(name)
            .expect("checked above")
            .insert(row);
        if fresh {
            self.changed();
        }
        fresh
    }

    /// Delete a row; returns whether it was present. The inverse of
    /// [`Instance::insert`] — deleting an absent row is a no-op.
    ///
    /// # Panics
    /// Panics on an unknown relation name, like every schema mismatch.
    pub fn delete(&mut self, name: &str, row: &[Value]) -> bool {
        let removed = self
            .relations
            .get_mut(name)
            .unwrap_or_else(|| panic!("relation {name:?} not in schema"))
            .remove(row);
        if removed {
            self.changed();
        }
        removed
    }

    /// Check a clause against this instance before it is logged or
    /// applied: `Ok` tells whether applying it would change anything (a
    /// duplicate fact or an absent retraction would not), `Err` is the
    /// refusal — a redeclared relation or a row [`Schema::check_row`]
    /// rejects.
    pub fn check(&self, clause: &Clause) -> Result<bool, String> {
        match clause {
            Clause::Schema(rel) => match self.schema.get(&rel.name) {
                Some(_) => Err(format!("relation {:?} is already declared", rel.name)),
                None => Ok(true),
            },
            Clause::Fact(name, row) => {
                self.schema.check_row(name, row)?;
                Ok(!self.relation(name).contains(row))
            }
            Clause::Retract(name, row) => {
                self.schema.check_row(name, row)?;
                Ok(self.relation(name).contains(row))
            }
        }
    }

    /// Apply a clause [`Instance::check`] accepted; returns whether the
    /// instance changed.
    pub fn apply(&mut self, clause: Clause) -> bool {
        match clause {
            Clause::Schema(rel) => {
                self.declare(rel);
                true
            }
            Clause::Fact(name, row) => self.insert(&name, row),
            Clause::Retract(name, row) => self.delete(&name, &row),
        }
    }

    /// `atom(I)`: the set of atomic constants occurring in the instance.
    pub fn atoms(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for rel in self.relations.values() {
            for row in rel.iter() {
                for v in row {
                    v.collect_atoms(&mut out);
                }
            }
        }
        out
    }

    /// `|I|`: the cardinality — total number of tuples across relations.
    pub fn cardinality(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The number of sub-objects of type `ty` occurring in the instance
    /// (per-type density measure of Definition 4.1's individual variant).
    /// Counts *distinct* sub-objects.
    pub fn subobject_count(&self, ty: &Type) -> usize {
        let mut seen: HashSet<&Value> = HashSet::new();
        for rel in self.relations.values() {
            for row in rel.iter() {
                for v in row {
                    let mut subs = Vec::new();
                    v.subobjects_of_type(ty, &mut subs);
                    seen.extend(subs);
                }
            }
        }
        seen.len()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel_schema in self.schema.relations() {
            let rel = self.relation(&rel_schema.name);
            writeln!(f, "{}[{} rows]", rel_schema.name, rel.len())?;
            for row in rel.sorted_rows() {
                write!(f, "  (")?;
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                writeln!(f, ")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Universe;

    fn graph_schema() -> Schema {
        Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
    }

    #[test]
    fn schema_lookup_and_ik() {
        let s = graph_schema();
        assert_eq!(s.len(), 1);
        assert!(s.get("G").is_some());
        assert!(s.get("H").is_none());
        assert!(s.is_ik(0, 2));
        assert_eq!(s.ik(), (0, 0)); // columns are U: height 0, width 0
    }

    #[test]
    fn schema_ik_with_nested_columns() {
        let s = Schema::from_relations([RelationSchema::new(
            "P",
            vec![
                Type::Atom,
                Type::set(Type::Atom),
                Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]),
            ],
        )]);
        assert_eq!(s.ik(), (1, 2));
        assert!(s.is_ik(1, 2));
        assert!(!s.is_ik(0, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate relation name")]
    fn duplicate_names_rejected() {
        Schema::from_relations([
            RelationSchema::new("G", vec![Type::Atom]),
            RelationSchema::new("G", vec![Type::Atom]),
        ]);
    }

    #[test]
    fn instance_insert_and_measures() {
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let mut i = Instance::empty(graph_schema());
        assert!(i.insert("G", vec![Value::Atom(a), Value::Atom(b)]));
        assert!(!i.insert("G", vec![Value::Atom(a), Value::Atom(b)]));
        assert!(i.insert("G", vec![Value::Atom(b), Value::Atom(a)]));
        assert_eq!(i.cardinality(), 2);
        assert_eq!(i.atoms().len(), 2);
        assert!(i.relation("G").contains(&[Value::Atom(a), Value::Atom(b)]));
    }

    #[test]
    fn delete_removes_and_reports_presence() {
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let mut i = Instance::empty(graph_schema());
        i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        assert!(i.delete("G", &[Value::Atom(a), Value::Atom(b)]));
        assert!(!i.delete("G", &[Value::Atom(a), Value::Atom(b)]));
        assert_eq!(i.cardinality(), 0);
        // insert after delete works again
        assert!(i.insert("G", vec![Value::Atom(a), Value::Atom(b)]));
    }

    #[test]
    #[should_panic(expected = "not of type")]
    fn ill_typed_insert_panics() {
        let mut i = Instance::empty(graph_schema());
        i.insert("G", vec![Value::empty_set(), Value::Atom(Atom(0))]);
    }

    #[test]
    #[should_panic(expected = "has arity 2 but the tuple has 1 values")]
    fn arity_mismatch_panics() {
        let mut i = Instance::empty(graph_schema());
        i.insert("G", vec![Value::Atom(Atom(0))]);
    }

    #[test]
    fn check_refuses_bad_clauses_and_spots_no_ops() {
        let mut u = Universe::new();
        let ab = vec![Value::Atom(u.intern("a")), Value::Atom(u.intern("b"))];
        let mut i = Instance::empty(graph_schema());
        let fact = Clause::Fact("G".into(), ab.clone());
        assert_eq!(i.check(&fact), Ok(true));
        assert!(i.apply(fact.clone()));
        assert_eq!(i.check(&fact), Ok(false), "a duplicate changes nothing");
        let retract = Clause::Retract("G".into(), ab.clone());
        assert_eq!(i.check(&retract), Ok(true));
        let short = Clause::Retract("G".into(), ab[..1].to_vec());
        assert_eq!(
            i.check(&short),
            Err(r#"relation "G" has arity 2 but the tuple has 1 values"#.into())
        );
        let h = RelationSchema::new("H", vec![Type::set(Type::Atom)]);
        assert_eq!(
            i.check(&Clause::Schema(graph_schema().get("G").unwrap().clone())),
            Err(r#"relation "G" is already declared"#.into())
        );
        assert!(i.apply(Clause::Schema(h)));
        assert!(i.relation("H").is_empty());
        assert_eq!(
            i.check(&Clause::Fact("H".into(), ab[..1].to_vec())),
            Err(r#"column 1 is not of type {U} in relation "H""#.into())
        );
        assert_eq!(
            i.check(&Clause::Fact("K".into(), vec![])),
            Err(r#"unknown relation "K""#.into())
        );
    }

    #[test]
    fn subobject_count_distinct() {
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::set(Type::Atom)])]);
        let mut i = Instance::empty(s);
        i.insert("P", vec![Value::set([Value::Atom(a)])]);
        i.insert("P", vec![Value::set([Value::Atom(a), Value::Atom(b)])]);
        // sets: {a}, {a,b}; atoms: a, b
        assert_eq!(i.subobject_count(&Type::set(Type::Atom)), 2);
        assert_eq!(i.subobject_count(&Type::Atom), 2);
    }

    #[test]
    fn display_is_deterministic() {
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let mut i = Instance::empty(graph_schema());
        i.insert("G", vec![Value::Atom(b), Value::Atom(a)]);
        i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        let s1 = i.to_string();
        let s2 = i.clone().to_string();
        assert_eq!(s1, s2);
        assert!(s1.starts_with("G[2 rows]"));
    }

    #[test]
    fn derived_values_live_until_the_next_write() {
        let mut u = Universe::new();
        let (a, b) = (u.intern("a"), u.intern("b"));
        let ab = vec![Value::Atom(a), Value::Atom(b)];
        let ba = vec![Value::Atom(b), Value::Atom(a)];
        let mut i = Instance::empty(graph_schema());
        i.insert("G", ab.clone());
        let first = i.derived(|| 1u32);
        let clone = i.clone();
        assert!(Arc::ptr_eq(&first, &i.derived::<u32>(|| unreachable!())));
        assert!(Arc::ptr_eq(
            &first,
            &clone.derived::<u32>(|| unreachable!())
        ));
        let mut fresh = Instance::empty(graph_schema());
        fresh.insert("G", ab.clone());
        assert_eq!(i, fresh, "equality ignores what was derived");

        // a write that changes nothing keeps the version
        assert!(!i.insert("G", ab.clone()));
        assert!(!i.delete("G", &ba));
        assert_eq!(*i.derived::<u32>(|| unreachable!()), 1);
        // every write that changes the instance starts a new one
        i.insert("G", ba);
        assert_eq!(*i.derived(|| 2u32), 2);
        i.delete("G", &ab);
        assert_eq!(*i.derived(|| 3u32), 3);
        i.declare(RelationSchema::new("H", vec![Type::Atom]));
        assert_eq!(*i.derived(|| 4u32), 4);
        // the clone still holds the version it was taken from
        assert_eq!(*clone.derived::<u32>(|| unreachable!()), 1);
    }
}
