//! Atomic constants and the universe of atoms.
//!
//! The paper assumes one atomic type `U` with an infinite domain `dom(U)` of
//! uninterpreted constants. Queries must be generic (insensitive to
//! isomorphisms on constants), so atoms carry no structure beyond identity.
//! We intern atom names in a [`Universe`], and the rest of the engine works
//! with the compact [`Atom`] handles.
//!
//! An *enumeration* of a finite set of constants — the "standard" order the
//! paper uses for encodings (Example 2.1: "let `abc` be an enumeration of the
//! constants") — is an [`AtomOrder`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned atomic constant. Cheap to copy and compare; resolve to a name
/// via the owning [`Universe`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom(pub u32);

/// An interner for atom names. Append-only.
///
/// Cloning is O(1): both tables sit behind an [`Arc`] and are copied only
/// when a *shared* handle interns a name it has not seen. A reader can so
/// parse against a private clone of a universe it may not mutate, and learn
/// from `len()` whether the text named anything new; the owner, whose
/// handle is unique whenever no such clone is alive, appends in place.
#[derive(Default, Debug, Clone)]
pub struct Universe {
    names: Arc<Vec<Arc<str>>>,
    index: Arc<HashMap<Arc<str>, Atom>>,
}

impl Universe {
    /// An empty universe.
    pub fn new() -> Self {
        Universe::default()
    }

    /// Create a universe pre-populated with the given names, in order.
    pub fn with_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut u = Universe::new();
        for n in names {
            u.intern(n.as_ref());
        }
        u
    }

    /// Intern a name, returning its atom (existing or fresh). A known name
    /// touches nothing; a fresh one copies the tables first iff a clone
    /// still shares them.
    pub fn intern(&mut self, name: &str) -> Atom {
        if let Some(&a) = self.index.get(name) {
            return a;
        }
        let arc: Arc<str> = Arc::from(name);
        let a = Atom(u32::try_from(self.names.len()).expect("too many atoms"));
        Arc::make_mut(&mut self.names).push(arc.clone());
        Arc::make_mut(&mut self.index).insert(arc, a);
        a
    }

    /// Look up an existing atom by name.
    pub fn get(&self, name: &str) -> Option<Atom> {
        self.index.get(name).copied()
    }

    /// The name of an atom. Panics if the atom is from another universe.
    pub fn name(&self, a: Atom) -> &str {
        &self.names[a.0 as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no atoms have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All atoms in interning order.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        (0..self.names.len()).map(|i| Atom(i as u32))
    }
}

/// A total order (enumeration) of a finite set of atoms: the `<_U` of
/// Definition 4.2, from which all induced orders `<_T` derive.
///
/// The order is a sequence; `rank` gives each atom's position. Atoms not in
/// the sequence are outside the ordered set (using them in rank queries is a
/// caller bug and panics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomOrder {
    seq: Vec<Atom>,
    rank: HashMap<Atom, usize>,
}

impl AtomOrder {
    /// Build an order from a sequence of distinct atoms.
    ///
    /// # Panics
    /// Panics if the sequence contains duplicates.
    pub fn new(seq: Vec<Atom>) -> Self {
        let mut rank = HashMap::with_capacity(seq.len());
        for (i, &a) in seq.iter().enumerate() {
            let prev = rank.insert(a, i);
            assert!(prev.is_none(), "duplicate atom in AtomOrder");
        }
        AtomOrder { seq, rank }
    }

    /// The identity enumeration of all atoms of a universe (interning order).
    pub fn identity(universe: &Universe) -> Self {
        AtomOrder::new(universe.atoms().collect())
    }

    /// Number of ordered atoms.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True iff the order is over an empty set.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Position of `a` in the enumeration.
    ///
    /// # Panics
    /// Panics if `a` is not part of the enumeration — atoms outside
    /// `atom(I)` must never reach domain arithmetic.
    pub fn rank(&self, a: Atom) -> usize {
        *self
            .rank
            .get(&a)
            .unwrap_or_else(|| panic!("atom {a:?} not in enumeration"))
    }

    /// Whether `a` belongs to the ordered set.
    pub fn contains(&self, a: Atom) -> bool {
        self.rank.contains_key(&a)
    }

    /// The atom at position `i`.
    pub fn at(&self, i: usize) -> Atom {
        self.seq[i]
    }

    /// Iterate the atoms in order.
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.seq.iter().copied()
    }

    /// The enumeration as a slice.
    pub fn as_slice(&self) -> &[Atom] {
        &self.seq
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut u = Universe::new();
        let a = u.intern("a");
        let b = u.intern("b");
        assert_ne!(a, b);
        assert_eq!(u.intern("a"), a);
        assert_eq!(u.len(), 2);
        assert_eq!(u.name(a), "a");
        assert_eq!(u.get("b"), Some(b));
        assert_eq!(u.get("zz"), None);
    }

    fn shares_tables(a: &Universe, b: &Universe) -> bool {
        Arc::ptr_eq(&a.names, &b.names) && Arc::ptr_eq(&a.index, &b.index)
    }

    #[test]
    fn clone_shares_both_tables_until_it_learns_a_name() {
        let u = Universe::with_names(["a", "b"]);
        let mut c = u.clone();
        assert!(shares_tables(&u, &c), "clone is two refcount bumps");
        // a known name writes nothing, so nothing is copied
        assert_eq!(c.intern("b"), Atom(1));
        assert!(shares_tables(&u, &c));
        // a new name copies the clone's tables and leaves the original be
        assert_eq!(c.intern("z"), Atom(2));
        assert!(!Arc::ptr_eq(&u.names, &c.names) && !Arc::ptr_eq(&u.index, &c.index));
        assert_eq!((u.len(), u.get("z")), (2, None));
        assert_eq!(
            (c.len(), c.name(Atom(2)), c.get("a")),
            (3, "z", Some(Atom(0)))
        );
    }

    #[test]
    fn a_unique_owner_interns_in_place() {
        let mut u = Universe::new();
        u.intern("seed");
        let (names, index) = (Arc::as_ptr(&u.names), Arc::as_ptr(&u.index));
        for i in 0..1000 {
            // a short-lived clone, as a reader takes and drops one
            let reader = u.clone();
            assert_eq!(reader.len(), i + 1);
            drop(reader);
            u.intern(&format!("n{i}"));
            // same `Arc` allocations: the tables grew as a `Vec` and a
            // `HashMap` grow, and were never copied into fresh ones
            assert_eq!(Arc::as_ptr(&u.names), names);
            assert_eq!(Arc::as_ptr(&u.index), index);
        }
        assert_eq!(u.len(), 1001);
    }

    proptest::proptest! {
        /// A clone numbers new names exactly as the original would: after
        /// interning `later` into a clone, interning the clone's new names
        /// into the original in the clone's order reproduces every id.
        #[test]
        fn clone_assigns_the_ids_the_original_would(
            base in proptest::collection::vec("[a-e]{1,2}", 0..12),
            later in proptest::collection::vec("[a-h]{1,2}", 0..12),
        ) {
            let mut original = Universe::with_names(&base);
            let known = original.len();
            let mut clone = original.clone();
            let ids: Vec<Atom> = later.iter().map(|n| clone.intern(n)).collect();
            proptest::prop_assert_eq!(original.len(), known);
            for a in clone.atoms().skip(known) {
                proptest::prop_assert_eq!(original.intern(clone.name(a)), a);
            }
            for (name, id) in later.iter().zip(ids) {
                proptest::prop_assert_eq!(original.get(name), Some(id));
                proptest::prop_assert_eq!(original.name(id), name.as_str());
            }
            proptest::prop_assert_eq!(original.len(), clone.len());
        }
    }

    #[test]
    fn with_names_orders_by_position() {
        let u = Universe::with_names(["a", "b", "c"]);
        assert_eq!(u.len(), 3);
        assert_eq!(u.name(Atom(0)), "a");
        assert_eq!(u.name(Atom(2)), "c");
    }

    #[test]
    fn identity_order_matches_interning() {
        let u = Universe::with_names(["a", "b", "c"]);
        let ord = AtomOrder::identity(&u);
        assert_eq!(ord.len(), 3);
        assert_eq!(ord.rank(Atom(1)), 1);
        assert_eq!(ord.at(2), Atom(2));
    }

    #[test]
    fn permuted_order() {
        let u = Universe::with_names(["a", "b", "c"]);
        let ord = AtomOrder::new(vec![Atom(2), Atom(0), Atom(1)]);
        assert_eq!(ord.rank(Atom(2)), 0);
        assert_eq!(ord.rank(Atom(1)), 2);
        let seq: Vec<Atom> = ord.iter().collect();
        assert_eq!(seq, vec![Atom(2), Atom(0), Atom(1)]);
        drop(u);
    }

    #[test]
    #[should_panic(expected = "duplicate atom")]
    fn duplicate_atoms_rejected() {
        let _ = AtomOrder::new(vec![Atom(0), Atom(0)]);
    }

    #[test]
    #[should_panic(expected = "not in enumeration")]
    fn rank_of_foreign_atom_panics() {
        let ord = AtomOrder::new(vec![Atom(0)]);
        let _ = ord.rank(Atom(9));
    }
}
