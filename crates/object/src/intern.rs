//! Hash-consed value interning over lock-sharded arenas.
//!
//! Every engine in the workspace manipulates [`Value`] trees, and the hot
//! paths of Theorem 4.1-style evaluation — quantifier enumeration over type
//! domains, fixpoint dedup, set union — are dominated by O(size) deep
//! clones, hashes, and comparisons. An [`Interner`] is a hash-consing arena
//! that maps each *canonical* complex object to a small [`ValueId`] handle:
//! tuples store children as ids, sets store a sorted duplicate-free id
//! slice, and structurally equal values always receive the same id. With
//! that invariant, equality and hashing become O(1) id compares, set
//! membership becomes a binary search over ids, and a relation of interned
//! rows ([`IdRelation`]) dedups tuples with O(arity) work regardless of how
//! deeply nested the participating objects are.
//!
//! # Canonical form at intern time
//!
//! [`SetValue`] maintains the canonical form (elements sorted by the
//! structural order, duplicates removed) at construction time; the interner
//! enforces the *same* invariant on id slices: [`Interner::intern_set`]
//! sorts candidate element ids by [`Interner::cmp`] — which agrees with the
//! derived structural `Ord` on [`Value`] — and drops duplicate ids. Two set
//! nodes are therefore bit-identical iff the sets are equal, and the
//! hash-consing map collapses them to one id.
//!
//! Note the distinction maintained throughout the repo: this structural
//! order is an internal representation device. The paper's *semantic*
//! order `<_T` induced by an atom enumeration (Definition 4.2) lives in
//! [`crate::order`] and is unrelated to id numbering; genericity tests
//! check that query results do not depend on either internal order.
//!
//! # Concurrency: lock-sharded arenas
//!
//! The arena is split into [`NUM_SHARDS`] shards keyed by the node's hash;
//! a [`ValueId`] packs the shard index into its high bits and the
//! within-shard slot into the rest. Each shard serialises *writers* behind
//! a mutex guarding its hash-consing map, while *readers* resolve ids
//! entirely lock-free: nodes live in chained fixed-capacity segments
//! (never reallocated, so `&Node` references — and the `&[ValueId]`
//! slices handed out by [`Interner::set_elems`] / `tuple_elems` — are
//! stable for the interner's lifetime), and a slot becomes visible only
//! after its node is fully written (release store of the shard length /
//! acquire load on the reader side; in practice readers hold ids, and an
//! id only exists after its publishing store).
//!
//! All interning methods take `&self`: the interner is `Clone` (shared
//! handle) + `Send` + `Sync` and can be hit from every request thread
//! concurrently. Structural equality of ids is unaffected by
//! sharding: the shard index is a pure function of the node, so equal
//! nodes land in the same shard and the same slot.
//!
//! Which *numeric* id a value receives now depends on admission order
//! across threads — which is why `ValueId` is deliberately not `Ord` and
//! no engine lets raw id order escape into results (see DESIGN.md §10 for
//! the determinism argument).
//!
//! # Memory accounting
//!
//! The arena knows its own approximate footprint ([`Interner::bytes`]),
//! which grows only when a *new* node is admitted. Engines charge the
//! governor for arena *growth* rather than per-clone. Under concurrency a
//! "bytes before / bytes after" delta would attribute other threads'
//! admissions to this call, so the interning entry points come in
//! `*_with_growth` variants returning exactly the bytes *this* call
//! admitted ([`Interner::intern_charged`] is built on them).

use crate::atom::Atom;
use crate::governor::{Governor, ResourceError};
use crate::instance::Relation;
use crate::value::{SetValue, Value};
use conc::{AtomicPtr, AtomicU32, AtomicU64, Mutex};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ptr;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

/// Number of lock shards in the arena (a power of two).
pub const NUM_SHARDS: usize = 1 << SHARD_BITS;

const SHARD_BITS: u32 = 4;
const SLOT_BITS: u32 = 32 - SHARD_BITS;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// log2 of the first segment's capacity; segment `s` holds `256 << s`
/// nodes, so capacity doubles per segment and `NSEGS` segments cover the
/// full `2^SLOT_BITS` slot space of a shard.
const CHUNK_BITS: u32 = 8;
const NSEGS: usize = 21;

/// Capacity of segment `s`.
fn seg_cap(s: usize) -> usize {
    (1usize << CHUNK_BITS) << s
}

/// Map a within-shard slot to its (segment, offset) coordinates.
///
/// Slots `0..256` live in segment 0, the next `512` in segment 1, and so
/// on doubling — so the segment index is the position of the top bit of
/// `slot/256 + 1` and the arithmetic is branch-free.
fn seg_of(slot: u32) -> (usize, usize) {
    let v = (slot >> CHUNK_BITS) + 1;
    let s = (31 - v.leading_zeros()) as usize;
    let base = ((1u32 << s) - 1) << CHUNK_BITS;
    (s, (slot - base) as usize)
}

/// A handle to an interned value: cheap to copy, O(1) equality and hash.
///
/// The high [`SHARD_BITS`](NUM_SHARDS) bits select the arena shard, the
/// rest the within-shard slot. Deliberately **not** `Ord`: raw id order is
/// admission order (and shard hash), not the structural order on values.
/// Use [`Interner::cmp`] for the structural comparison (it agrees with
/// `Value`'s derived `Ord`), or [`crate::order`] for the paper's semantic
/// order `<_T`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw packed handle (shard bits ∥ slot bits) as an index-like
    /// integer. Opaque: useful only as a dense-ish map key or for
    /// diagnostics.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The arena shard this id lives in (diagnostic; property tests use it
    /// to assert cross-shard coverage).
    pub fn shard(self) -> usize {
        (self.0 >> SLOT_BITS) as usize
    }

    fn slot(self) -> u32 {
        self.0 & SLOT_MASK
    }

    fn pack(shard: usize, slot: u32) -> ValueId {
        debug_assert!(shard < NUM_SHARDS && slot <= SLOT_MASK);
        ValueId(((shard as u32) << SLOT_BITS) | slot)
    }

    /// An id no arena ever issues (the last slot of the last shard, which
    /// a shard refuses to fill), so it equals no interned value. A reader
    /// of a long-lived arena stands it in for a constant
    /// [`Interner::lookup`] did not find: it matches no row. It must only
    /// be compared, never resolved.
    pub const ABSENT: ValueId = ValueId(u32::MAX);
}

/// Hashes [`ValueId`]s and rows of them: one multiply per cell, then a
/// fold of the high bits into the low ones. Ids are minted by an arena,
/// never chosen by a client, so there are no crafted collisions to defend
/// against. Every id-keyed set and index uses it: [`IdRelation`], the
/// rule matcher's probe indexes, reply rendering.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

/// Builds [`IdHasher`]s, for `HashMap`/`HashSet` type parameters.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // each cell moves the whole state: a key's first cell counts as
        // much as its last
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// One interned node. Children are ids, so a node is shallow: hashing and
/// comparing nodes is O(arity), never O(subtree size).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Node {
    Atom(Atom),
    Tuple(Box<[ValueId]>),
    /// Invariant: sorted by the structural order ([`Interner::cmp`]) with
    /// duplicates removed — the id-level image of `SetValue`'s canonical
    /// form.
    Set(Box<[ValueId]>),
}

fn node_bytes(node: &Node) -> u64 {
    // Rough model: arena slot + hash-map entry for an atom; add the two
    // boxed id slices (arena + map key) for compound nodes. The budget
    // guards against hyperexponential blowup, not byte-exact accounting —
    // same convention as `Value::approx_bytes`.
    match node {
        Node::Atom(_) => 24,
        Node::Tuple(ids) | Node::Set(ids) => 48 + 8 * ids.len() as u64,
    }
}

/// The shard a node belongs to: a pure function of the node's structure,
/// so structurally equal nodes always land in the same shard regardless of
/// which thread interns them first. `DefaultHasher::new()` is SipHash with
/// fixed zero keys — deterministic across threads and runs.
fn shard_of(node: &Node) -> usize {
    let mut h = DefaultHasher::new();
    node.hash(&mut h);
    (h.finish() >> (64 - SHARD_BITS)) as usize
}

/// Writer-side state of a shard: the hash-consing map, guarded by the
/// shard mutex. Slot allocation happens under the same lock.
#[derive(Default)]
struct ShardWriter {
    ids: HashMap<Node, u32>,
}

/// One lock shard: a mutex for writers, lock-free segmented storage for
/// readers.
struct Shard {
    writer: Mutex<ShardWriter>,
    /// Chained segments of exponentially growing capacity. A non-null
    /// pointer is an allocation of `seg_cap(s)` nodes of which the first
    /// few (per `len`) are initialised.
    segs: [AtomicPtr<Node>; NSEGS],
    /// Number of initialised slots. Stored with `Release` after the slot's
    /// node is written; readers that learn a slot number via any
    /// synchronising channel (including the `Release`/`Acquire` pair on
    /// this counter) observe the fully written node.
    len: AtomicU32,
}

impl Shard {
    fn new() -> Self {
        Shard {
            writer: Mutex::new_named("intern.shard_writer", ShardWriter::default()),
            segs: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: AtomicU32::new(0),
        }
    }

    /// Lock-free read of an initialised slot.
    ///
    /// Safety: callers pass slots obtained from a `ValueId`, which only
    /// exists after the publishing `Release` store; the `Acquire` load of
    /// the segment pointer (stored before any node it contains) makes the
    /// node's bytes visible.
    fn node(&self, slot: u32) -> &Node {
        debug_assert!(slot < self.len.load(AtomicOrdering::Acquire));
        let (s, off) = seg_of(slot);
        let p = self.segs[s].load(AtomicOrdering::Acquire);
        debug_assert!(!p.is_null());
        unsafe { &*p.add(off) }
    }

    /// Admit `node`, returning its slot and the arena growth in bytes
    /// (0 for a hash-consing hit).
    fn add(&self, node: Node) -> (u32, u64) {
        let mut w = self.writer.lock();
        if let Some(&slot) = w.ids.get(&node) {
            return (slot, 0);
        }
        let slot = self.len.load(AtomicOrdering::Relaxed);
        assert!(slot < SLOT_MASK, "interner shard overflow");
        let (s, off) = seg_of(slot);
        let mut p = self.segs[s].load(AtomicOrdering::Relaxed);
        if p.is_null() {
            let layout = Layout::array::<Node>(seg_cap(s)).expect("segment layout");
            p = unsafe { alloc(layout) } as *mut Node;
            if p.is_null() {
                handle_alloc_error(layout);
            }
            // Release: a reader that observes this pointer also observes
            // the (empty) contents; individual nodes are published via
            // `len` below.
            self.segs[s].store(p, AtomicOrdering::Release);
        }
        let grown = node_bytes(&node);
        // Write the node before publishing the slot. The map keeps its own
        // clone of the node as key (same convention as the old Vec+HashMap
        // layout).
        unsafe { ptr::write(p.add(off), node.clone()) };
        w.ids.insert(node, slot);
        self.len.store(slot + 1, AtomicOrdering::Release);
        (slot, grown)
    }

    fn len(&self) -> u32 {
        self.len.load(AtomicOrdering::Acquire)
    }

    /// The slot `node` was admitted at, if it was; admits nothing.
    fn get(&self, node: &Node) -> Option<u32> {
        self.writer.lock().ids.get(node).copied()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let len = self.len.load(AtomicOrdering::Acquire);
        for slot in 0..len {
            let (s, off) = seg_of(slot);
            let p = self.segs[s].load(AtomicOrdering::Acquire);
            unsafe { ptr::drop_in_place(p.add(off)) };
        }
        for (s, seg) in self.segs.iter().enumerate() {
            let p = seg.load(AtomicOrdering::Acquire);
            if !p.is_null() {
                let layout = Layout::array::<Node>(seg_cap(s)).expect("segment layout");
                unsafe { dealloc(p as *mut u8, layout) };
            }
        }
    }
}

/// Shared arena state behind an `Arc`.
struct ArenaInner {
    shards: [Shard; NUM_SHARDS],
    /// Approximate footprint; relaxed because it is a monotone statistic,
    /// not a synchronisation channel.
    bytes: AtomicU64,
}

// SAFETY: `Shard` owns raw segment pointers, which disables the auto
// traits. All mutation (slot allocation, node writes, map inserts) happens
// under the shard mutex; nodes are written exactly once, before the
// `Release` store that publishes their slot, and are never moved or
// dropped until the arena itself drops (which requires exclusive access).
// Readers only dereference slots whose ids they hold, and an id reaches
// another thread only through some synchronising transfer. `Node` itself
// is `Send + Sync` (atoms and boxed id slices).
unsafe impl Send for ArenaInner {}
unsafe impl Sync for ArenaInner {}

/// A hash-consing arena for complex-object values.
///
/// The arena only grows; ids are valid for the lifetime of the interner
/// that issued them and must not be mixed across interners. `Interner` is
/// a shared handle (`Clone` is O(1)) and all interning methods take
/// `&self` — it is safe to intern from many threads concurrently (see the
/// module docs for the sharding scheme).
#[derive(Clone)]
pub struct Interner {
    arena: Arc<ArenaInner>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            arena: Arc::new(ArenaInner {
                shards: std::array::from_fn(|_| Shard::new()),
                bytes: AtomicU64::new(0),
            }),
        }
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl Interner {
    /// An empty arena.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Number of distinct nodes admitted so far (across all shards).
    pub fn len(&self) -> usize {
        self.arena
            .shards
            .iter()
            .map(|s| s.len() as usize)
            .sum::<usize>()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate arena footprint in bytes. Grows monotonically, and only
    /// when a structurally new node is admitted.
    pub fn bytes(&self) -> u64 {
        self.arena.bytes.load(AtomicOrdering::Relaxed)
    }

    fn node(&self, id: ValueId) -> &Node {
        self.arena.shards[id.shard()].node(id.slot())
    }

    fn add_with_growth(&self, node: Node) -> (ValueId, u64) {
        let shard = shard_of(&node);
        let (slot, grown) = self.arena.shards[shard].add(node);
        if grown > 0 {
            self.arena.bytes.fetch_add(grown, AtomicOrdering::Relaxed);
        }
        (ValueId::pack(shard, slot), grown)
    }

    fn add(&self, node: Node) -> ValueId {
        self.add_with_growth(node).0
    }

    /// Intern an atomic constant.
    pub fn intern_atom(&self, a: Atom) -> ValueId {
        self.add(Node::Atom(a))
    }

    /// Intern a tuple from already-interned component ids.
    pub fn intern_tuple(&self, components: Vec<ValueId>) -> ValueId {
        self.intern_tuple_with_growth(components).0
    }

    /// [`intern_tuple`](Interner::intern_tuple), also returning the arena
    /// growth in bytes caused by this call (0 on a hash-consing hit).
    pub fn intern_tuple_with_growth(&self, components: Vec<ValueId>) -> (ValueId, u64) {
        debug_assert!(!components.is_empty(), "tuple values have arity >= 1");
        self.add_with_growth(Node::Tuple(components.into_boxed_slice()))
    }

    /// Intern a set from candidate element ids: sorts by the structural
    /// order and removes duplicates, enforcing the canonical-form
    /// invariant at intern time.
    pub fn intern_set(&self, elems: Vec<ValueId>) -> ValueId {
        self.intern_set_with_growth(elems).0
    }

    /// [`intern_set`](Interner::intern_set), also returning the arena
    /// growth in bytes caused by this call (0 on a hash-consing hit).
    pub fn intern_set_with_growth(&self, mut elems: Vec<ValueId>) -> (ValueId, u64) {
        elems.sort_unstable_by(|a, b| self.cmp(*a, *b));
        elems.dedup();
        self.add_with_growth(Node::Set(elems.into_boxed_slice()))
    }

    /// Intern a set whose element ids are already sorted by
    /// [`Interner::cmp`] and duplicate-free (e.g. a mask over an already
    /// canonical slice, as in powerset enumeration). Debug-asserts the
    /// invariant.
    pub fn intern_set_presorted(&self, elems: Vec<ValueId>) -> ValueId {
        self.intern_set_presorted_with_growth(elems).0
    }

    /// [`intern_set_presorted`](Interner::intern_set_presorted), also
    /// returning the arena growth in bytes caused by this call.
    pub fn intern_set_presorted_with_growth(&self, elems: Vec<ValueId>) -> (ValueId, u64) {
        debug_assert!(
            elems
                .windows(2)
                .all(|w| self.cmp(w[0], w[1]) == Ordering::Less),
            "intern_set_presorted: ids not strictly sorted"
        );
        self.add_with_growth(Node::Set(elems.into_boxed_slice()))
    }

    /// Intern a value tree, returning its canonical id.
    pub fn intern(&self, v: &Value) -> ValueId {
        self.intern_with_growth(v).0
    }

    /// [`intern`](Interner::intern), also returning the total arena growth
    /// in bytes caused by this call (summed over all newly admitted
    /// subtree nodes; 0 if the whole tree was already interned).
    pub fn intern_with_growth(&self, v: &Value) -> (ValueId, u64) {
        match v {
            Value::Atom(a) => self.add_with_growth(Node::Atom(*a)),
            Value::Tuple(vs) => {
                let mut grown = 0;
                let ids: Vec<ValueId> = vs
                    .iter()
                    .map(|c| {
                        let (id, g) = self.intern_with_growth(c);
                        grown += g;
                        id
                    })
                    .collect();
                let (id, g) = self.intern_tuple_with_growth(ids);
                (id, grown + g)
            }
            Value::Set(s) => {
                // `SetValue` is canonical (sorted by `Value`'s Ord, deduped)
                // and `cmp` agrees with that order, so the id sequence is
                // already sorted and duplicate-free.
                let mut grown = 0;
                let ids: Vec<ValueId> = s
                    .iter()
                    .map(|c| {
                        let (id, g) = self.intern_with_growth(c);
                        grown += g;
                        id
                    })
                    .collect();
                let (id, g) = self.intern_set_presorted_with_growth(ids);
                (id, grown + g)
            }
        }
    }

    /// Intern a value, charging the governor for *arena growth only*: the
    /// second interning of a structurally identical value costs nothing.
    /// Growth is attributed per admitting call, so concurrent interning
    /// from several threads never double-charges (each node's bytes are
    /// charged by exactly one caller — the one whose insert admitted it).
    pub fn intern_charged(
        &self,
        governor: &Governor,
        site: &'static str,
        v: &Value,
    ) -> Result<ValueId, ResourceError> {
        let (id, grown) = self.intern_with_growth(v);
        if grown > 0 {
            governor.charge_mem(site, grown)?;
        }
        Ok(id)
    }

    /// The id `v` already has in this arena, admitting nothing: `None`
    /// means no interned value equals `v`, so no row of ids over this
    /// arena holds it. A long-lived arena uses this for values a request
    /// only compares against.
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        let node = match v {
            Value::Atom(a) => Node::Atom(*a),
            Value::Tuple(vs) => {
                Node::Tuple(vs.iter().map(|c| self.lookup(c)).collect::<Option<_>>()?)
            }
            // canonical element order is id order, as in `intern_with_growth`
            Value::Set(s) => Node::Set(s.iter().map(|c| self.lookup(c)).collect::<Option<_>>()?),
        };
        let shard = shard_of(&node);
        self.arena.shards[shard]
            .get(&node)
            .map(|slot| ValueId::pack(shard, slot))
    }

    /// Reconstruct the value tree behind an id.
    pub fn resolve(&self, id: ValueId) -> Value {
        match self.node(id) {
            Node::Atom(a) => Value::Atom(*a),
            Node::Tuple(ids) => Value::Tuple(ids.iter().map(|c| self.resolve(*c)).collect()),
            Node::Set(ids) => {
                // Canonical id order maps to canonical value order, so the
                // resolved elements are already sorted and deduped; rebuild
                // the `SetValue` through the canonicalising constructor
                // anyway — it is O(n log n) on already-sorted input and
                // keeps the invariant independent of this reasoning.
                Value::Set(SetValue::from_values(ids.iter().map(|c| self.resolve(*c))))
            }
        }
    }

    /// Structural comparison of two interned values. Agrees with the
    /// derived `Ord` on [`Value`]: `Atom < Tuple < Set`, components
    /// compared lexicographically. Equal ids short-circuit to `Equal`.
    pub fn cmp(&self, a: ValueId, b: ValueId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        match (self.node(a), self.node(b)) {
            (Node::Atom(x), Node::Atom(y)) => x.cmp(y),
            (Node::Atom(_), _) => Ordering::Less,
            (_, Node::Atom(_)) => Ordering::Greater,
            (Node::Tuple(xs), Node::Tuple(ys)) => self.cmp_slices(xs, ys),
            (Node::Tuple(_), Node::Set(_)) => Ordering::Less,
            (Node::Set(_), Node::Tuple(_)) => Ordering::Greater,
            (Node::Set(xs), Node::Set(ys)) => self.cmp_slices(xs, ys),
        }
    }

    /// Lexicographic comparison of id slices under [`Interner::cmp`] —
    /// matches `Vec<Value>`'s derived ordering.
    pub fn cmp_slices(&self, xs: &[ValueId], ys: &[ValueId]) -> Ordering {
        for (x, y) in xs.iter().zip(ys.iter()) {
            match self.cmp(*x, *y) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        xs.len().cmp(&ys.len())
    }

    /// Is the id an atom? Returns the atom if so.
    pub fn as_atom(&self, id: ValueId) -> Option<Atom> {
        match self.node(id) {
            Node::Atom(a) => Some(*a),
            _ => None,
        }
    }

    /// The component ids of a tuple, or `None` for non-tuples. The slice
    /// borrows the arena directly (nodes have stable addresses).
    pub fn tuple_elems(&self, id: ValueId) -> Option<&[ValueId]> {
        match self.node(id) {
            Node::Tuple(ids) => Some(ids),
            _ => None,
        }
    }

    /// The canonical element ids of a set, or `None` for non-sets.
    pub fn set_elems(&self, id: ValueId) -> Option<&[ValueId]> {
        match self.node(id) {
            Node::Set(ids) => Some(ids),
            _ => None,
        }
    }

    /// Projection `v.i` with 1-based index `i`, as in the calculus: O(1).
    pub fn project(&self, id: ValueId, i: usize) -> Option<ValueId> {
        match self.node(id) {
            Node::Tuple(ids) if i >= 1 => ids.get(i - 1).copied(),
            _ => None,
        }
    }

    /// Membership test over a canonical element slice: binary search by
    /// the structural order.
    pub fn set_contains(&self, elems: &[ValueId], x: ValueId) -> bool {
        elems.binary_search_by(|e| self.cmp(*e, x)).is_ok()
    }

    /// Subset test `xs ⊆ ys` over canonical slices: merge scan.
    pub fn set_is_subset(&self, xs: &[ValueId], ys: &[ValueId]) -> bool {
        let mut it = ys.iter();
        'outer: for x in xs {
            for y in it.by_ref() {
                match self.cmp(*y, *x) {
                    Ordering::Less => continue,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Union of two canonical slices, returned canonical (sorted merge).
    pub fn set_union(&self, xs: &[ValueId], ys: &[ValueId]) -> Vec<ValueId> {
        let mut out = Vec::with_capacity(xs.len() + ys.len());
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            match self.cmp(xs[i], ys[j]) {
                Ordering::Less => {
                    out.push(xs[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(ys[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(xs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&xs[i..]);
        out.extend_from_slice(&ys[j..]);
        out
    }

    /// Difference `xs − ys` of canonical slices, returned canonical.
    pub fn set_difference(&self, xs: &[ValueId], ys: &[ValueId]) -> Vec<ValueId> {
        xs.iter()
            .copied()
            .filter(|x| !self.set_contains(ys, *x))
            .collect()
    }

    /// Intersection of canonical slices, returned canonical.
    pub fn set_intersection(&self, xs: &[ValueId], ys: &[ValueId]) -> Vec<ValueId> {
        xs.iter()
            .copied()
            .filter(|x| self.set_contains(ys, *x))
            .collect()
    }

    /// Intern every value of a row.
    pub fn intern_row(&self, row: &[Value]) -> Box<[ValueId]> {
        row.iter().map(|v| self.intern(v)).collect()
    }

    /// Resolve every id of a row.
    pub fn resolve_row(&self, row: &[ValueId]) -> Vec<Value> {
        row.iter().map(|id| self.resolve(*id)).collect()
    }
}

/// A relation over interned rows: the id-level counterpart of
/// [`Relation`], used by the engines' hot loops. Row dedup costs O(arity)
/// hashing of ids instead of O(‖row‖) hashing of value trees.
///
/// Rows live end to end in one id vector (every row of a relation has the
/// same arity), indexed by an open-addressing table of row numbers hashed
/// with [`IdHasher`]: a row costs its ids and one table slot, and no
/// allocation of its own.
#[derive(Clone, Default)]
pub struct IdRelation {
    /// Row `i` is `cells[i * arity..][..arity]`.
    cells: Vec<ValueId>,
    arity: usize,
    len: usize,
    /// Row number + 1 per slot, `0` for empty; a power of two long, at
    /// most half full.
    slots: Vec<u32>,
}

impl IdRelation {
    /// The empty relation.
    pub fn new() -> Self {
        IdRelation::default()
    }

    /// Intern every row of a value-level relation.
    pub fn from_relation(interner: &Interner, rel: &Relation) -> Self {
        let mut out = IdRelation::new();
        for row in rel.iter() {
            out.insert(&interner.intern_row(row));
        }
        out
    }

    /// Resolve back to a value-level relation (the boundary conversion).
    pub fn to_relation(&self, interner: &Interner) -> Relation {
        Relation::from_rows(self.iter().map(|row| interner.resolve_row(row)))
    }

    fn row(&self, i: usize) -> &[ValueId] {
        &self.cells[i * self.arity..][..self.arity]
    }

    /// The slot `row` sits in, or the empty slot it would go to.
    fn find(&self, row: &[ValueId]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = IdBuildHasher::default().hash_one(row) as usize & mask;
        loop {
            match self.slots[s] {
                0 => return Err(s),
                r if self.row(r as usize - 1) == row => return Ok(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Insert a row; returns whether it was new.
    pub fn insert(&mut self, row: &[ValueId]) -> bool {
        if self.len == 0 {
            self.arity = row.len();
        }
        assert_eq!(row.len(), self.arity, "rows of one relation share an arity");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(row) {
            Ok(_) => false,
            Err(s) => {
                self.cells.extend_from_slice(row);
                self.len += 1;
                self.slots[s] = self.len as u32;
                true
            }
        }
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        self.slots = vec![0; cap];
        for i in 0..self.len {
            let Err(s) = self.find(self.row(i)) else {
                unreachable!("rows are distinct")
            };
            self.slots[s] = i as u32 + 1;
        }
    }

    /// Membership test: O(arity).
    pub fn contains(&self, row: &[ValueId]) -> bool {
        self.len > 0 && row.len() == self.arity && self.find(row).is_ok()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[ValueId]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Union in place; returns the number of newly added rows.
    pub fn absorb(&mut self, other: &IdRelation) -> usize {
        let before = self.len;
        for row in other.iter() {
            self.insert(row);
        }
        self.len - before
    }

    /// Rows sorted by the structural order on resolved values
    /// (deterministic across runs).
    pub fn sorted_rows(&self, interner: &Interner) -> Vec<&[ValueId]> {
        let mut rows: Vec<&[ValueId]> = self.iter().collect();
        rows.sort_unstable_by(|a, b| interner.cmp_slices(a, b));
        rows
    }

    /// An order-independent digest of the relation's rows, used for PFP
    /// cycle detection. Ids are canonical per value within one interner,
    /// so hashing raw ids is sound (and deterministic within a run).
    pub fn digest(&self) -> u64 {
        let mut acc: u64 = 0;
        for row in self.iter() {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            // XOR-combine so the order rows were inserted in is irrelevant.
            acc ^= h.finish();
        }
        let mut h = DefaultHasher::new();
        (self.len as u64).hash(&mut h);
        acc ^ h.finish()
    }
}

impl PartialEq for IdRelation {
    fn eq(&self, other: &IdRelation) -> bool {
        self.len == other.len && self.iter().all(|row| other.contains(row))
    }
}

impl Eq for IdRelation {}

impl fmt::Debug for IdRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<R: AsRef<[ValueId]>> FromIterator<R> for IdRelation {
    fn from_iter<I: IntoIterator<Item = R>>(iter: I) -> Self {
        let mut out = IdRelation::new();
        for row in iter {
            out.insert(row.as_ref());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Limits;

    fn a(i: u32) -> Value {
        Value::Atom(Atom(i))
    }

    #[test]
    fn equal_values_get_equal_ids() {
        let int = Interner::new();
        let v1 = Value::set([a(2), a(0), a(1), a(0)]);
        let v2 = Value::set([a(0), a(1), a(2)]);
        assert_eq!(int.intern(&v1), int.intern(&v2));
        let t1 = Value::tuple([v1.clone(), a(3)]);
        let t2 = Value::tuple([v2.clone(), a(3)]);
        assert_eq!(int.intern(&t1), int.intern(&t2));
        assert_ne!(int.intern(&v1), int.intern(&a(0)));
    }

    #[test]
    fn resolve_round_trips() {
        let int = Interner::new();
        let vals = [
            a(0),
            Value::empty_set(),
            Value::tuple([a(1), Value::set([a(2), Value::tuple([a(3), a(4)])])]),
            Value::set([Value::set([a(0)]), Value::set([a(1), a(0)])]),
        ];
        for v in &vals {
            let id = int.intern(v);
            assert_eq!(&int.resolve(id), v);
        }
    }

    #[test]
    fn cmp_agrees_with_value_ord() {
        let int = Interner::new();
        let vals = [
            a(0),
            a(5),
            Value::tuple([a(0)]),
            Value::tuple([a(0), a(1)]),
            Value::tuple([a(1)]),
            Value::empty_set(),
            Value::set([a(0)]),
            Value::set([a(0), a(1)]),
            Value::set([Value::tuple([a(0), a(1)])]),
        ];
        for x in &vals {
            for y in &vals {
                let ix = int.intern(x);
                let iy = int.intern(y);
                assert_eq!(int.cmp(ix, iy), x.cmp(y), "cmp mismatch on {x} vs {y}");
            }
        }
    }

    #[test]
    fn set_ops_match_setvalue() {
        let int = Interner::new();
        let s = SetValue::from_values([a(0), a(1), Value::set([a(2)])]);
        let t = SetValue::from_values([a(1), Value::set([a(2)]), a(3)]);
        let sid = int.intern(&Value::Set(s.clone()));
        let tid = int.intern(&Value::Set(t.clone()));
        let se = int.set_elems(sid).unwrap().to_vec();
        let te = int.set_elems(tid).unwrap().to_vec();

        let union = int.set_union(&se, &te);
        let uid = int.intern_set_presorted(union);
        assert_eq!(int.resolve(uid), Value::Set(s.union(&t)));

        let diff = int.set_difference(&se, &te);
        let did = int.intern_set_presorted(diff);
        assert_eq!(int.resolve(did), Value::Set(s.difference(&t)));

        let inter = int.set_intersection(&se, &te);
        let iid = int.intern_set_presorted(inter);
        assert_eq!(int.resolve(iid), Value::Set(s.intersection(&t)));

        assert!(int.set_is_subset(&int.set_intersection(&se, &te), &se));
        assert!(!int.set_is_subset(&se, &te));
        let a1 = int.intern(&a(1));
        let a9 = int.intern(&a(9));
        assert!(int.set_contains(&se, a1));
        assert!(!int.set_contains(&se, a9));
    }

    #[test]
    fn projection_is_one_based_and_constant_time() {
        let int = Interner::new();
        let t = int.intern(&Value::tuple([a(5), a(6)]));
        assert_eq!(int.project(t, 1), Some(int.intern(&a(5))));
        assert_eq!(int.project(t, 2), Some(int.intern(&a(6))));
        assert_eq!(int.project(t, 0), None);
        assert_eq!(int.project(t, 3), None);
        let atom = int.intern(&a(5));
        assert_eq!(int.project(atom, 1), None, "projection of a non-tuple");
    }

    #[test]
    fn bytes_grow_only_on_new_nodes() {
        let int = Interner::new();
        let big = Value::set((0..64).map(a));
        let before = int.bytes();
        assert_eq!(before, 0);
        int.intern(&big);
        let after_first = int.bytes();
        assert!(after_first > 0);
        int.intern(&big);
        int.intern(&big.clone());
        assert_eq!(
            int.bytes(),
            after_first,
            "re-interning must not grow the arena"
        );
    }

    #[test]
    fn intern_with_growth_attributes_admitted_bytes() {
        let int = Interner::new();
        let big = Value::set((0..64).map(a));
        let (id1, g1) = int.intern_with_growth(&big);
        assert_eq!(g1, int.bytes(), "first intern admits the whole tree");
        let (id2, g2) = int.intern_with_growth(&big);
        assert_eq!(id1, id2);
        assert_eq!(g2, 0, "hash-consing hit grows nothing");
    }

    #[test]
    fn intern_charged_charges_growth_once() {
        let int = Interner::new();
        let g = Governor::new(Limits::unlimited());
        let big = Value::set((0..64).map(a));
        int.intern_charged(&g, "test", &big).unwrap();
        let spent = g.mem_spent();
        assert!(spent > 0);
        // Re-interning the same value charges nothing further.
        int.intern_charged(&g, "test", &big).unwrap();
        assert_eq!(g.mem_spent(), spent);
        // A shared subtree is charged only for the new wrapper node.
        let wrapped = Value::tuple([big.clone(), big]);
        int.intern_charged(&g, "test", &wrapped).unwrap();
        assert!(g.mem_spent() - spent < spent, "shared subtree re-charged");
    }

    #[test]
    fn intern_charged_surfaces_memory_error() {
        let int = Interner::new();
        let g = Governor::new(Limits {
            max_memory_bytes: 32,
            ..Limits::unlimited()
        });
        let big = Value::set((0..64).map(a));
        let e = int.intern_charged(&g, "test", &big).unwrap_err();
        assert_eq!(e.budget, crate::governor::BudgetKind::Memory);
        assert_eq!(e.site, "test");
    }

    #[test]
    fn id_relation_round_trips_and_dedups() {
        let int = Interner::new();
        let rel = Relation::from_rows([
            vec![a(0), Value::set([a(1), a(2)])],
            vec![a(1), Value::set([a(2), a(1)])],
        ]);
        let idr = IdRelation::from_relation(&int, &rel);
        assert_eq!(idr.len(), 2);
        assert_eq!(idr.to_relation(&int), rel);

        let mut idr2 = idr.clone();
        let dup = int.intern_row(&[a(0), Value::set([a(2), a(1)])]);
        assert!(!idr2.insert(&dup), "canonicalised duplicate must collapse");
        assert_eq!(idr2.absorb(&idr), 0);
    }

    #[test]
    fn id_hasher_weighs_every_cell() {
        let int = Interner::new();
        let ids: Vec<ValueId> = (0..64).map(|i| int.intern(&a(i))).collect();
        let hash = |row: &[ValueId]| IdBuildHasher::default().hash_one(row);
        for &x in &ids {
            for &y in &ids {
                if x != y {
                    // rows that differ only in their first cell
                    assert_ne!(hash(&[x, ids[0]]), hash(&[y, ids[0]]));
                    assert_ne!(hash(&[x]), hash(&[y]));
                }
            }
        }
        assert_ne!(hash(&[ids[1], ids[2]]), hash(&[ids[2], ids[1]]));
    }

    #[test]
    fn absent_is_no_interned_id() {
        let int = Interner::new();
        for i in 0..4096 {
            assert_ne!(int.intern(&a(i)), ValueId::ABSENT);
        }
        assert_eq!(ValueId::ABSENT.shard(), NUM_SHARDS - 1);
        assert_eq!(ValueId::ABSENT.slot(), SLOT_MASK, "the slot `add` refuses");
    }

    #[test]
    fn id_relation_grows_and_compares_as_a_set() {
        let int = Interner::new();
        let ids: Vec<ValueId> = (0..40).map(|i| int.intern(&a(i))).collect();
        let rows: Vec<[ValueId; 2]> = (ids.iter())
            .flat_map(|&x| ids.iter().map(move |&y| [x, y]))
            .collect();
        let forward: IdRelation = rows.iter().collect();
        let backward: IdRelation = rows.iter().rev().chain(&rows).collect();
        assert_eq!(forward.len(), 1600);
        assert_eq!(
            forward, backward,
            "insertion order and duplicates do not matter"
        );
        assert!(rows.iter().all(|r| backward.contains(r)));
        assert!(!forward.contains(&[ids[0]]), "a row of another arity");
        let mut unit = IdRelation::new();
        assert!(unit.insert(&[]) && !unit.insert(&[]));
        assert!(unit.contains(&[]) && unit.len() == 1);
    }

    #[test]
    fn id_relation_digest_detects_changes() {
        let int = Interner::new();
        let mut r = IdRelation::new();
        let d0 = r.digest();
        r.insert(&int.intern_row(&[a(0), a(1)]));
        let d1 = r.digest();
        assert_ne!(d0, d1);
        let mut r2 = IdRelation::new();
        r2.insert(&int.intern_row(&[a(0), a(1)]));
        assert_eq!(
            r2.digest(),
            d1,
            "digest must be iteration-order independent"
        );
    }

    #[test]
    fn sorted_rows_deterministic_structural_order() {
        let int = Interner::new();
        let mut r = IdRelation::new();
        r.insert(&int.intern_row(&[a(2)]));
        r.insert(&int.intern_row(&[a(0)]));
        r.insert(&int.intern_row(&[Value::set([a(0)])]));
        let sorted: Vec<Value> = r
            .sorted_rows(&int)
            .into_iter()
            .map(|row| int.resolve(row[0]))
            .collect();
        assert_eq!(sorted, vec![a(0), a(2), Value::set([a(0)])]);
    }

    #[test]
    fn segment_geometry_covers_slot_space() {
        // (segment, offset) coordinates tile the slot space contiguously.
        let mut expect = (0usize, 0usize);
        for slot in 0u32..100_000 {
            let (s, off) = seg_of(slot);
            assert_eq!((s, off), expect, "slot {slot}");
            expect = if off + 1 == seg_cap(s) {
                (s + 1, 0)
            } else {
                (s, off + 1)
            };
        }
        // The final segment reaches the full per-shard slot space.
        let (s, off) = seg_of(SLOT_MASK - 1);
        assert!(s < NSEGS, "slot space exceeds segment table");
        assert!(off < seg_cap(s));
    }

    #[test]
    fn ids_spread_across_shards_and_pack_round_trips() {
        let int = Interner::new();
        let mut shards_hit = [false; NUM_SHARDS];
        for i in 0..512 {
            let id = int.intern(&a(i));
            assert!(id.shard() < NUM_SHARDS);
            shards_hit[id.shard()] = true;
            assert_eq!(int.resolve(id), a(i));
        }
        let hit = shards_hit.iter().filter(|h| **h).count();
        assert!(hit > NUM_SHARDS / 2, "atoms landed in only {hit} shards");
    }

    #[test]
    fn concurrent_interning_agrees_with_sequential() {
        // Hammer one interner from several threads with overlapping value
        // sets; every thread must observe the same id for the same value,
        // and resolution must round-trip.
        let int = Interner::new();
        let vals: Vec<Value> = (0..200)
            .map(|i| Value::tuple([a(i % 17), Value::set((0..(i % 7)).map(a)), a(i)]))
            .collect();
        let ids: Vec<Vec<ValueId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let int = int.clone();
                    let vals = &vals;
                    s.spawn(move || {
                        let mut ids = Vec::new();
                        // Each thread walks the values in a different
                        // rotation (a bijection on indices).
                        for k in 0..vals.len() {
                            let idx = (k + t * 53) % vals.len();
                            ids.push((idx, int.intern(&vals[idx])));
                        }
                        ids.sort_by_key(|(idx, _)| *idx);
                        ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_thread in &ids[1..] {
            assert_eq!(per_thread, &ids[0], "threads disagree on ids");
        }
        for (v, id) in vals.iter().zip(&ids[0]) {
            assert_eq!(&int.resolve(*id), v);
        }
    }

    #[test]
    fn clone_shares_the_arena() {
        let int = Interner::new();
        let other = int.clone();
        let id = other.intern(&a(7));
        assert_eq!(int.resolve(id), a(7));
        assert_eq!(int.len(), other.len());
    }

    #[test]
    fn lookup_finds_interned_values_and_admits_nothing() {
        let int = Interner::new();
        let v = Value::tuple([a(1), Value::set([a(2), a(3)])]);
        let id = int.intern(&v);
        let arena = (int.len(), int.bytes());
        assert_eq!(int.lookup(&v), Some(id));
        assert!(int.lookup(&a(2)).is_some());
        for absent in [a(9), Value::set([a(2)]), Value::tuple([a(1), a(2)])] {
            assert_eq!(int.lookup(&absent), None, "{absent}");
        }
        assert_eq!((int.len(), int.bytes()), arena);
    }
}
