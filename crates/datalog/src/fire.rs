//! The rule matcher: every place that fires a Datalog¬ rule — the round
//! engine ([`crate::eval`]) and view maintenance (`no_ivm`) — enumerates
//! rule bodies through this module.
//!
//! One firing is one assignment of the rule's body variables satisfying
//! every literal. The matcher is generic over the cells rows are made of
//! ([`Cells`]): interned [`ValueId`]s for the round engine, [`Value`]
//! trees for maintenance. A caller supplies
//!
//! * the relation states ([`State`]), each literal reading its relation
//!   at a [`Phase`] — old, mid (deletions applied) or new — which is what
//!   makes the counting telescope `Σ_k new…Δ_k…old` exact;
//! * optionally a [`Pin`]: one body literal enumerates explicit delta
//!   rows instead of the stored state (the semi-naive/Δ trick);
//! * a [`Meter`]: the governor and the sites its steps are charged to.
//!
//! [`derives`] answers DRed's targeted question instead: unify the head
//! with a given fact first, then look for one satisfying body extension.
//!
//! **Order.** The pinned literal goes first, then the positive literals,
//! chosen greedily per depth: the most-bound remaining one (fully bound
//! first of all, where the probe is a membership test), ties to the
//! smaller relation. The other literals are solved once every positive
//! one is bound: `=` may bind a free variable, `∈` may enumerate a bound
//! set, and a literal whose variables are still free waits for one that
//! binds them.
//!
//! **Membership.** `x ∈ t` holds only when `t` is a set containing `x`,
//! `x ∉ t` only when `t` is a set not containing `x`; over a non-set
//! both fail.
//!
//! **Metering.** One step per pinned row, per constraint checked, per set
//! member enumerated, per fully-bound membership test, and per row a
//! probe yields. A probe on no bound position scans (one step per row,
//! each row is yielded). A keyed probe shape `(relation, phase, bound
//! positions)` scans the relation on its first probe (one step per row)
//! and builds a hash index on its second (one step per row, at the index
//! site), which every later probe of the shape reuses. A shape therefore
//! costs `2·|rel| + Σ yields` whichever key comes first, so step counts do
//! not depend on hash order.
//!
//! **Constants.** A rule constant in a relation literal is only compared
//! with row cells, so an arena looks it up and admits nothing: a constant
//! the arena lacks is in no row, and stands for a cell equal to none
//! ([`ValueId::ABSENT`]). Every other constant (head, `=`, `≠`, `∈`, `∉`)
//! can reach a head row, meet another constant or be taken apart, so the
//! arena admits it and charges its growth at `datalog.intern`. Neither
//! costs a step, so an arena that already holds a constant changes no
//! step count.
//!
//! **Per call, not per probe.** A firing call resolves each positive
//! literal's relation, phase and probe cache once ([`State::target`]), and
//! keeps one probe-key buffer per depth; a probe then hashes its key
//! cells and nothing else.

use crate::program::{DTerm, Literal, Rule};
use no_object::intern::{IdBuildHasher, IdRelation, Interner, ValueId};
use no_object::{Governor, Relation, ResourceError, Value};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;

/// Which version of a relation a literal reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// The state before the delta (the only phase of a round).
    Old,
    /// Deletions applied, insertions not yet.
    Mid,
    /// The state after the delta.
    New,
}

/// One column value of a row, and the hasher probe indexes over such
/// cells use.
pub trait Cell: Clone + Eq + Hash {
    /// Builds the hasher of index keys.
    type Hasher: BuildHasher + Default;
}

impl Cell for ValueId {
    type Hasher = IdBuildHasher;
}

impl Cell for Value {
    type Hasher = RandomState;
}

/// The cells rows are made of, and what a rule needs of them beyond
/// equality.
pub trait Cells {
    /// One column value of a row.
    type Cell: Cell;

    /// A rule constant a firing can bind, emit or take apart (head, `=`,
    /// `≠`, `∈`, `∉`) as a cell. An arena admits it and charges `meter`'s
    /// governor its growth.
    fn constant(&self, v: &Value, meter: &Meter<'_>) -> Result<Self::Cell, ResourceError>;

    /// A rule constant a firing only compares with row cells (a relation
    /// literal's) as a cell. An arena admits nothing: a constant it lacks
    /// becomes a cell equal to no row's.
    fn compared(&self, v: &Value) -> Self::Cell;

    /// The members of `set` in canonical order, or `None` for a non-set.
    fn members<'a>(&'a self, set: &'a Self::Cell) -> Option<&'a [Self::Cell]>;

    /// Whether `x` is among `members` (a slice [`Cells::members`] returned).
    fn has_member(&self, members: &[Self::Cell], x: &Self::Cell) -> bool;
}

/// Interned cells: the round engine's rows over one arena.
impl Cells for Interner {
    type Cell = ValueId;

    fn constant(&self, v: &Value, meter: &Meter<'_>) -> Result<ValueId, ResourceError> {
        self.intern_charged(meter.gov, "datalog.intern", v)
    }

    fn compared(&self, v: &Value) -> ValueId {
        self.lookup(v).unwrap_or(ValueId::ABSENT)
    }

    fn members<'a>(&'a self, set: &'a ValueId) -> Option<&'a [ValueId]> {
        self.set_elems(*set)
    }

    fn has_member(&self, members: &[ValueId], x: &ValueId) -> bool {
        self.set_contains(members, *x)
    }
}

/// Value-tree cells: maintenance's rows, straight from the store.
pub struct Values;

impl Cells for Values {
    type Cell = Value;

    fn constant(&self, v: &Value, _meter: &Meter<'_>) -> Result<Value, ResourceError> {
        Ok(v.clone())
    }

    fn compared(&self, v: &Value) -> Value {
        v.clone()
    }

    fn members<'a>(&'a self, set: &'a Value) -> Option<&'a [Value]> {
        match set {
            Value::Set(s) => Some(s.as_slice()),
            _ => None,
        }
    }

    fn has_member(&self, members: &[Value], x: &Value) -> bool {
        members.binary_search(x).is_ok()
    }
}

/// A set of rows the matcher can enumerate and test.
pub trait Table<C> {
    /// Number of rows.
    fn len(&self) -> usize;

    /// True iff there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, row: &[C]) -> bool;

    /// The rows, in unspecified order.
    fn rows<'a>(&'a self) -> impl Iterator<Item = &'a [C]>
    where
        C: 'a;
}

impl Table<ValueId> for IdRelation {
    fn len(&self) -> usize {
        IdRelation::len(self)
    }

    fn contains(&self, row: &[ValueId]) -> bool {
        IdRelation::contains(self, row)
    }

    fn rows<'a>(&'a self) -> impl Iterator<Item = &'a [ValueId]>
    where
        ValueId: 'a,
    {
        self.iter()
    }
}

impl Table<Value> for Relation {
    fn len(&self) -> usize {
        Relation::len(self)
    }

    fn contains(&self, row: &[Value]) -> bool {
        Relation::contains(self, row)
    }

    fn rows<'a>(&'a self) -> impl Iterator<Item = &'a [Value]>
    where
        Value: 'a,
    {
        self.iter().map(Vec::as_slice)
    }
}

/// The governor a firing draws from and the sites it charges: `fire` for
/// enumeration, `index` for building probe indexes.
#[derive(Clone, Copy)]
pub struct Meter<'g> {
    gov: &'g Governor,
    fire: &'static str,
    index: &'static str,
}

impl<'g> Meter<'g> {
    /// Charge `gov` at `fire` for enumeration and at `index` for index
    /// builds.
    pub fn new(gov: &'g Governor, fire: &'static str, index: &'static str) -> Self {
        Meter { gov, fire, index }
    }

    /// One enumeration step.
    pub fn fire(&self) -> Result<(), ResourceError> {
        self.gov.tick(self.fire)
    }

    fn index(&self) -> Result<(), ResourceError> {
        self.gov.tick(self.index)
    }
}

/// The bound positions of a probed literal and the cells bound there.
pub struct Key<'k, C> {
    /// Bit `p` is set when position `p` is bound (positions past 63 are
    /// never keyed; unification checks them).
    mask: u64,
    /// The bound cells, in position order.
    cells: &'k [C],
    /// Every position is bound: `cells` is the whole row.
    whole: bool,
    /// The probed relation's arity.
    arity: usize,
}

impl<C: Eq> Key<'_, C> {
    /// Does `row` hold the key's cells at the key's positions?
    pub fn matches(&self, row: &[C]) -> bool {
        positions(self.mask)
            .zip(self.cells)
            .all(|(p, c)| &row[p] == c)
    }
}

/// The set bits of `mask`, ascending.
fn positions(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// Key cells → the matching rows, concatenated.
type Index<C> = HashMap<Vec<C>, Vec<C>, <C as Cell>::Hasher>;

/// How far a probe shape has got: scanned once, or indexed.
enum Shape<C: Cell> {
    Scanned,
    Built(Rc<Index<C>>),
}

/// One relation at one phase, as a cache knows it: each bound-position
/// mask probed so far, and how far that shape has got.
struct Entry<C: Cell> {
    name: String,
    phase: Phase,
    shapes: Vec<(u64, Shape<C>)>,
}

/// Hash indexes over relation states, keyed by probe shape: relation
/// name and phase, then bound-position mask. An index is built on a
/// shape's second probe and serves every later one. Every relation a
/// cache indexes must stay unchanged for the cache's lifetime.
pub struct IndexCache<C: Cell> {
    entries: RefCell<Vec<Entry<C>>>,
}

impl<C: Cell> Default for IndexCache<C> {
    fn default() -> Self {
        IndexCache {
            entries: RefCell::new(Vec::new()),
        }
    }
}

impl<C: Cell> IndexCache<C> {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// Where probes of `name`@`phase` go in this cache.
    pub fn target(&self, name: &str, phase: Phase) -> Target<'_, C> {
        let mut entries = self.entries.borrow_mut();
        let entry = match (entries.iter()).position(|e| e.phase == phase && e.name == name) {
            Some(i) => i,
            None => {
                entries.push(Entry {
                    name: name.to_string(),
                    phase,
                    shapes: Vec::new(),
                });
                entries.len() - 1
            }
        };
        Target { cache: self, entry }
    }
}

/// One relation@phase's entry in an [`IndexCache`]: what a literal's
/// probes go through, resolved once per firing call.
pub struct Target<'c, C: Cell> {
    cache: &'c IndexCache<C>,
    entry: usize,
}

impl<C: Cell> Clone for Target<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: Cell> Copy for Target<'_, C> {}

impl<C: Cell> Target<'_, C> {
    /// Enumerate the rows of `rel` (the contents of this target's
    /// relation@phase) that match `key`, calling `each` per row
    /// (`Ok(false)` stops early).
    pub fn probe<T: Table<C>>(
        &self,
        rel: &T,
        key: &Key<'_, C>,
        meter: &Meter<'_>,
        each: &mut dyn FnMut(&[C]) -> Result<bool, ResourceError>,
    ) -> Result<(), ResourceError> {
        if key.whole {
            meter.fire()?;
            if rel.contains(key.cells) {
                each(key.cells)?;
            }
            return Ok(());
        }
        if key.mask == 0 {
            for row in rel.rows() {
                meter.fire()?;
                if !each(row)? {
                    break;
                }
            }
            return Ok(());
        }
        // resolve (or build) the index, then release the borrow before
        // calling `each`: deeper literals probe this cache reentrantly
        let index = {
            let mut entries = self.cache.entries.borrow_mut();
            let shapes = &mut entries[self.entry].shapes;
            match shapes.iter().position(|(mask, _)| *mask == key.mask) {
                None => {
                    shapes.push((key.mask, Shape::Scanned));
                    None
                }
                Some(i) => match &shapes[i].1 {
                    Shape::Scanned => {
                        let mut built = Index::<C>::default();
                        for row in rel.rows() {
                            meter.index()?;
                            let k = positions(key.mask).map(|p| row[p].clone()).collect();
                            built.entry(k).or_default().extend_from_slice(row);
                        }
                        let built = Rc::new(built);
                        shapes[i].1 = Shape::Built(Rc::clone(&built));
                        Some(built)
                    }
                    Shape::Built(built) => Some(Rc::clone(built)),
                },
            }
        };
        match index {
            None => {
                for row in rel.rows() {
                    meter.fire()?;
                    if key.matches(row) {
                        meter.fire()?;
                        if !each(row)? {
                            break;
                        }
                    }
                }
            }
            Some(index) => {
                let rows = index.get(key.cells).map_or(&[][..], Vec::as_slice);
                for row in rows.chunks_exact(key.arity) {
                    meter.fire()?;
                    if !each(row)? {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Relation states by name and phase, as one caller sees them.
pub trait State<C: Cell> {
    /// How this state stores a relation.
    type Table: Table<C>;

    /// The contents of `name` at `phase` (empty when unknown).
    fn rel(&self, name: &str, phase: Phase) -> &Self::Table;

    /// Where probes of `name`@`phase` go. A firing call asks once per
    /// positive literal.
    fn target(&self, name: &str, phase: Phase) -> Target<'_, C>;

    /// Enumerate the rows of `rel` — the contents of `name`, probed
    /// through `target` — matching `key`, calling `each` per row
    /// (`Ok(false)` stops early). A state that layers changes over a
    /// frozen relation overrides this.
    fn probe(
        &self,
        rel: &Self::Table,
        _name: &str,
        target: Target<'_, C>,
        key: &Key<'_, C>,
        meter: &Meter<'_>,
        each: &mut dyn FnMut(&[C]) -> Result<bool, ResourceError>,
    ) -> Result<(), ResourceError> {
        target.probe(rel, key, meter, each)
    }
}

/// Enumerate one relation literal from explicit rows instead of the
/// stored state.
pub struct Pin<'a, T> {
    /// Index into `rule.body` of the pinned literal.
    pub lit: usize,
    /// The rows enumerated there (a delta, not the full relation).
    pub rows: &'a T,
}

/// A rule term with its constant resolved and its variable numbered.
enum Term<C> {
    Const(C),
    Var(usize),
}

/// A body literal over resolved terms.
enum Goal<'r, C> {
    Pos(&'r str, Vec<Term<C>>),
    Neg(&'r str, Vec<Term<C>>),
    Eq(Term<C>, Term<C>),
    Neq(Term<C>, Term<C>),
    In(Term<C>, Term<C>),
    NotIn(Term<C>, Term<C>),
}

/// A rule with its constants resolved once per firing call.
struct Compiled<'r, C> {
    head: Vec<Term<C>>,
    goals: Vec<Goal<'r, C>>,
    vars: usize,
}

fn compile<'r, D: Cells>(
    cells: &D,
    rule: &'r Rule,
    meter: &Meter<'_>,
) -> Result<Compiled<'r, D::Cell>, ResourceError> {
    let mut names: Vec<&'r str> = Vec::new();
    // `compared`: the term sits in a relation literal, where a constant
    // is only ever compared with row cells
    let mut term = |t: &'r DTerm, compared: bool| -> Result<Term<D::Cell>, ResourceError> {
        Ok(match t {
            DTerm::Const(v) if compared => Term::Const(cells.compared(v)),
            DTerm::Const(v) => Term::Const(cells.constant(v, meter)?),
            DTerm::Var(v) => Term::Var(match names.iter().position(|n| n == v) {
                Some(slot) => slot,
                None => {
                    names.push(v);
                    names.len() - 1
                }
            }),
        })
    };
    let head = (rule.head_args.iter())
        .map(|t| term(t, false))
        .collect::<Result<_, _>>()?;
    let mut goals = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let mut args = |args: &'r [DTerm]| {
            (args.iter())
                .map(|t| term(t, true))
                .collect::<Result<Vec<_>, _>>()
        };
        goals.push(match lit {
            Literal::Pos(name, a) => Goal::Pos(name, args(a)?),
            Literal::Neg(name, a) => Goal::Neg(name, args(a)?),
            Literal::Eq(a, b) => Goal::Eq(term(a, false)?, term(b, false)?),
            Literal::Neq(a, b) => Goal::Neq(term(a, false)?, term(b, false)?),
            Literal::In(a, b) => Goal::In(term(a, false)?, term(b, false)?),
            Literal::NotIn(a, b) => Goal::NotIn(term(a, false)?, term(b, false)?),
        });
    }
    Ok(Compiled {
        head,
        goals,
        vars: names.len(),
    })
}

/// Variable slots plus a trail of the slots bound, for backtracking.
struct Binding<C> {
    slots: Vec<Option<C>>,
    trail: Vec<usize>,
}

impl<C: Clone + Eq> Binding<C> {
    fn get<'a>(&'a self, t: &'a Term<C>) -> Option<&'a C> {
        match t {
            Term::Const(c) => Some(c),
            Term::Var(v) => self.slots[*v].as_ref(),
        }
    }

    fn bind(&mut self, var: usize, cell: C) {
        self.slots[var] = Some(cell);
        self.trail.push(var);
    }

    /// Unbind every slot bound since `mark`.
    fn undo(&mut self, mark: usize) {
        for var in self.trail.drain(mark..) {
            self.slots[var] = None;
        }
    }

    /// Unify `args` with a row. Returns the mark to [`Binding::undo`] to,
    /// or `None` on mismatch (already undone).
    fn unify(&mut self, args: &[Term<C>], row: &[C]) -> Option<usize> {
        let mark = self.trail.len();
        for (arg, cell) in args.iter().zip(row) {
            let ok = match arg {
                Term::Const(c) => c == cell,
                Term::Var(v) => match &self.slots[*v] {
                    Some(bound) => bound == cell,
                    None => {
                        self.bind(*v, cell.clone());
                        true
                    }
                },
            };
            if !ok {
                self.undo(mark);
                return None;
            }
        }
        Some(mark)
    }

    /// Write the cells `terms` are bound to into `out`; false when one is
    /// still free.
    fn fill(&self, terms: &[Term<C>], out: &mut Vec<C>) -> bool {
        out.clear();
        for t in terms {
            match self.get(t) {
                Some(c) => out.push(c.clone()),
                None => return false,
            }
        }
        true
    }
}

/// What solving one constraint literal leads to.
enum Step<C> {
    Go,
    Fail,
    Defer,
    Bind(usize, C),
    Each(usize, Vec<C>),
}

fn var_of<C>(t: &Term<C>) -> usize {
    match t {
        Term::Var(v) => *v,
        Term::Const(_) => unreachable!("a constant is always bound"),
    }
}

type Emit<'e, C> = dyn FnMut(&Binding<C>) -> Result<bool, ResourceError> + 'e;

/// Takes each head row a firing derives (`Ok(false)` stops early).
pub type Sink<'s, C> = dyn FnMut(&[C]) -> Result<bool, ResourceError> + 's;

/// One firing call's enumeration state.
struct Matcher<'a, 'r, D: Cells, S: State<D::Cell>> {
    cells: &'a D,
    goals: &'a [Goal<'r, D::Cell>],
    /// Each relation literal's table at its phase.
    tables: Vec<Option<&'a S::Table>>,
    /// Where each positive literal's probes go.
    targets: Vec<Option<Target<'a, D::Cell>>>,
    st: &'a S,
    meter: Meter<'a>,
    binding: Binding<D::Cell>,
    /// Positive literals still to enumerate, reordered in place per depth.
    positives: Vec<usize>,
    constraints: &'a [usize],
    /// One probe-key buffer per depth.
    keys: Vec<Vec<D::Cell>>,
    /// The row a negated literal is checked for.
    scratch: Vec<D::Cell>,
}

impl<'a, 'r, D: Cells, S: State<D::Cell>> Matcher<'a, 'r, D, S> {
    /// Backtracking enumeration over the positive literals; `Ok(false)`
    /// propagates an early stop from `emit`. Each depth picks its literal
    /// under its own binding, so the swap needs no undo on backtrack.
    fn enumerate(
        &mut self,
        depth: usize,
        emit: &mut Emit<'_, D::Cell>,
    ) -> Result<bool, ResourceError> {
        if depth == self.positives.len() {
            return self.solve(self.constraints, 0, emit);
        }
        let goals = self.goals;
        if self.positives.len() - depth > 1 {
            let mut best = (depth, (false, 0, std::cmp::Reverse(usize::MAX)));
            for (j, &cand) in self.positives.iter().enumerate().skip(depth) {
                let Goal::Pos(_, args) = &goals[cand] else {
                    unreachable!("positives holds Pos indices only")
                };
                let bound = args
                    .iter()
                    .filter(|a| self.binding.get(a).is_some())
                    .count();
                let size = self.tables[cand].map_or(0, |t| t.len());
                let rank = (bound == args.len(), bound, std::cmp::Reverse(size));
                if rank > best.1 {
                    best = (j, rank);
                }
            }
            self.positives.swap(depth, best.0);
        }
        let idx = self.positives[depth];
        let Goal::Pos(name, args) = &goals[idx] else {
            unreachable!("positives holds Pos indices only")
        };
        // probe on the positions the binding already determines; unify
        // re-checks them and binds the rest
        let mut bound = std::mem::take(&mut self.keys[depth]);
        bound.clear();
        let mut mask = 0u64;
        for (p, arg) in args.iter().enumerate().take(64) {
            if let Some(c) = self.binding.get(arg) {
                mask |= 1 << p;
                bound.push(c.clone());
            }
        }
        let key = Key {
            mask,
            whole: bound.len() == args.len(),
            cells: &bound,
            arity: args.len(),
        };
        let (st, meter) = (self.st, self.meter);
        let rel = self.tables[idx].expect("relation literals are resolved");
        let target = self.targets[idx].expect("positive literals are resolved");
        let mut keep_going = true;
        let probed = st.probe(rel, name, target, &key, &meter, &mut |row| {
            let Some(mark) = self.binding.unify(args, row) else {
                return Ok(true);
            };
            let keep = self.enumerate(depth + 1, emit)?;
            self.binding.undo(mark);
            keep_going &= keep;
            Ok(keep)
        });
        self.keys[depth] = bound;
        probed?;
        Ok(keep_going)
    }

    /// Solve the constraint literals under the current binding. A literal
    /// whose variables are still free is rotated to the back; once every
    /// remaining one has waited without progress, nothing fires (a
    /// validated rule never gets there).
    fn solve(
        &mut self,
        remaining: &[usize],
        stuck: usize,
        emit: &mut Emit<'_, D::Cell>,
    ) -> Result<bool, ResourceError> {
        let Some((&idx, rest)) = remaining.split_first() else {
            return emit(&self.binding);
        };
        if stuck >= remaining.len() {
            return Ok(true);
        }
        self.meter.fire()?;
        let b = &self.binding;
        let step = match &self.goals[idx] {
            Goal::Neg(_, args) => {
                if !b.fill(args, &mut self.scratch) {
                    Step::Defer
                } else if self.tables[idx].is_some_and(|t| t.contains(&self.scratch)) {
                    Step::Fail
                } else {
                    Step::Go
                }
            }
            Goal::Eq(x, y) => match (b.get(x), b.get(y)) {
                (Some(l), Some(r)) if l == r => Step::Go,
                (Some(_), Some(_)) => Step::Fail,
                (Some(l), None) => Step::Bind(var_of(y), l.clone()),
                (None, Some(r)) => Step::Bind(var_of(x), r.clone()),
                (None, None) => Step::Defer,
            },
            Goal::Neq(x, y) => match (b.get(x), b.get(y)) {
                (Some(l), Some(r)) if l != r => Step::Go,
                (Some(_), Some(_)) => Step::Fail,
                _ => Step::Defer,
            },
            Goal::In(x, set) => match b.get(set) {
                None => Step::Defer,
                Some(set) => match (self.cells.members(set), b.get(x)) {
                    (None, _) => Step::Fail,
                    (Some(ms), Some(x)) if self.cells.has_member(ms, x) => Step::Go,
                    (Some(_), Some(_)) => Step::Fail,
                    (Some(ms), None) => Step::Each(var_of(x), ms.to_vec()),
                },
            },
            Goal::NotIn(x, set) => match (b.get(x), b.get(set)) {
                (Some(x), Some(set)) => match self.cells.members(set) {
                    Some(ms) if !self.cells.has_member(ms, x) => Step::Go,
                    _ => Step::Fail,
                },
                _ => Step::Defer,
            },
            Goal::Pos(..) => unreachable!("positive literals are enumerated, not solved"),
        };
        match step {
            Step::Go => self.solve(rest, 0, emit),
            Step::Fail => Ok(true),
            Step::Defer => {
                let mut rotated = rest.to_vec();
                rotated.push(idx);
                self.solve(&rotated, stuck + 1, emit)
            }
            Step::Bind(var, cell) => {
                let mark = self.binding.trail.len();
                self.binding.bind(var, cell);
                let keep = self.solve(rest, 0, emit);
                self.binding.undo(mark);
                keep
            }
            Step::Each(var, members) => {
                for m in members {
                    self.meter.fire()?;
                    let mark = self.binding.trail.len();
                    self.binding.bind(var, m);
                    let keep = self.solve(rest, 0, emit)?;
                    self.binding.undo(mark);
                    if !keep {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }
}

/// Set up a firing call: resolve each relation literal's table at its
/// phase (and each positive one's probe target) and split the body (minus
/// the pinned literal) into positives and constraints. Runs `go` with the
/// matcher and the constraint list's owner kept alive.
fn with_matcher<'r, D: Cells, S: State<D::Cell>, R>(
    cells: &D,
    rule: &Compiled<'r, D::Cell>,
    pinned: Option<usize>,
    phase_of: &dyn Fn(usize) -> Phase,
    st: &S,
    meter: Meter<'_>,
    go: impl FnOnce(&mut Matcher<'_, 'r, D, S>) -> R,
) -> R {
    let free = |i: &usize| pinned != Some(*i);
    let mut tables = Vec::with_capacity(rule.goals.len());
    let mut targets = Vec::with_capacity(rule.goals.len());
    for (i, g) in rule.goals.iter().enumerate() {
        let (table, target) = match g {
            Goal::Pos(name, _) if free(&i) => (
                Some(st.rel(name, phase_of(i))),
                Some(st.target(name, phase_of(i))),
            ),
            Goal::Pos(name, _) | Goal::Neg(name, _) => (Some(st.rel(name, phase_of(i))), None),
            _ => (None, None),
        };
        tables.push(table);
        targets.push(target);
    }
    let positives: Vec<usize> = (0..rule.goals.len())
        .filter(free)
        .filter(|&i| matches!(rule.goals[i], Goal::Pos(..)))
        .collect();
    let constraints: Vec<usize> = (0..rule.goals.len())
        .filter(free)
        .filter(|&i| !matches!(rule.goals[i], Goal::Pos(..)))
        .collect();
    let mut m = Matcher {
        cells,
        goals: &rule.goals,
        tables,
        targets,
        st,
        meter,
        binding: Binding {
            slots: vec![None; rule.vars],
            trail: Vec::new(),
        },
        keys: vec![Vec::new(); positives.len()],
        positives,
        constraints: &constraints,
        scratch: Vec::new(),
    };
    go(&mut m)
}

/// Enumerate every firing of `rule` and hand the instantiated head row to
/// `sink` (`Ok(false)` stops early); the row is a buffer the next firing
/// reuses. With a [`Pin`], the pinned literal enumerates `pin.rows`; a
/// pinned negated literal only binds, it is not re-checked — the pin rows
/// *are* the violation/satisfaction delta. `phase_of` assigns each body
/// literal index the state it reads.
pub fn for_each_firing<D: Cells, S: State<D::Cell>>(
    cells: &D,
    rule: &Rule,
    pin: Option<Pin<'_, S::Table>>,
    phase_of: &dyn Fn(usize) -> Phase,
    st: &S,
    meter: Meter<'_>,
    sink: &mut Sink<'_, D::Cell>,
) -> Result<(), ResourceError> {
    let rule = compile(cells, rule, &meter)?;
    let head = &rule.head;
    let mut row = Vec::with_capacity(head.len());
    let mut emit = |b: &Binding<D::Cell>| {
        if b.fill(head, &mut row) {
            sink(&row)
        } else {
            Ok(true)
        }
    };
    with_matcher(
        cells,
        &rule,
        pin.as_ref().map(|p| p.lit),
        phase_of,
        st,
        meter,
        |m| {
            let Some(pin) = pin else {
                return m.enumerate(0, &mut emit).map(drop);
            };
            let (Goal::Pos(_, args) | Goal::Neg(_, args)) = &m.goals[pin.lit] else {
                unreachable!("only relation literals can be pinned")
            };
            for row in pin.rows.rows() {
                meter.fire()?;
                let Some(mark) = m.binding.unify(args, row) else {
                    continue;
                };
                let keep = m.enumerate(0, &mut emit)?;
                m.binding.undo(mark);
                if !keep {
                    break;
                }
            }
            Ok(())
        },
    )
}

/// Does any firing of `rule` derive exactly `fact`? Unifies the head with
/// `fact` first, then stops at the first satisfying body extension
/// (DRed's re-derivation).
pub fn derives<D: Cells, S: State<D::Cell>>(
    cells: &D,
    rule: &Rule,
    fact: &[D::Cell],
    phase_of: &dyn Fn(usize) -> Phase,
    st: &S,
    meter: Meter<'_>,
) -> Result<bool, ResourceError> {
    if rule.head_args.len() != fact.len() {
        return Ok(false);
    }
    let rule = compile(cells, rule, &meter)?;
    with_matcher(cells, &rule, None, phase_of, st, meter, |m| {
        if m.binding.unify(&rule.head, fact).is_none() {
            return Ok(false);
        }
        let mut found = false;
        m.enumerate(0, &mut |_| {
            found = true;
            Ok(false)
        })?;
        Ok(found)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{BudgetKind, Limits, Universe};
    use std::collections::BTreeMap;

    /// One phase-less state over named tables.
    struct Flat<T, C: Cell> {
        rels: BTreeMap<String, T>,
        empty: T,
        cache: IndexCache<C>,
    }

    impl<T: Table<C>, C: Cell> State<C> for Flat<T, C> {
        type Table = T;

        fn rel(&self, name: &str, _phase: Phase) -> &T {
            self.rels.get(name).unwrap_or(&self.empty)
        }

        fn target(&self, name: &str, phase: Phase) -> Target<'_, C> {
            self.cache.target(name, phase)
        }
    }

    /// Fire `rule` over `rels` with cells of type `D`: the head rows
    /// (sorted, deduplicated, as values) and the steps spent.
    fn fire_with<D: Cells, T: Table<D::Cell> + Default>(
        cells: &D,
        rule: &Rule,
        pin: Option<(usize, &Relation)>,
        rels: &BTreeMap<String, Relation>,
        table: impl Fn(&Relation) -> T,
        value: impl Fn(&D::Cell) -> Value,
    ) -> (Vec<Vec<Value>>, u64) {
        let st = Flat {
            rels: rels.iter().map(|(n, r)| (n.clone(), table(r))).collect(),
            empty: T::default(),
            cache: IndexCache::new(),
        };
        let pinned = pin.map(|(lit, rows)| (lit, table(rows)));
        let gov = Governor::unlimited();
        let mut out = Vec::new();
        for_each_firing(
            cells,
            rule,
            pinned.as_ref().map(|(lit, rows)| Pin { lit: *lit, rows }),
            &|_| Phase::Old,
            &st,
            Meter::new(&gov, "test.fire", "test.index"),
            &mut |row| {
                out.push(row.iter().map(&value).collect::<Vec<Value>>());
                Ok(true)
            },
        )
        .unwrap();
        out.sort();
        out.dedup();
        (out, gov.steps_spent())
    }

    /// Fire with both cell types; rows and steps must agree.
    fn fire(
        rule: &Rule,
        pin: Option<(usize, &Relation)>,
        rels: &BTreeMap<String, Relation>,
    ) -> Vec<Vec<Value>> {
        let by_value = fire_with(&Values, rule, pin, rels, Relation::clone, Value::clone);
        let int = Interner::new();
        let by_id = fire_with(
            &int,
            rule,
            pin,
            rels,
            |r| IdRelation::from_relation(&int, r),
            |id| int.resolve(*id),
        );
        assert_eq!(by_value, by_id, "value and id cells disagree");
        by_value.0
    }

    fn atoms(u: &mut Universe, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| Value::Atom(u.intern(n))).collect()
    }

    fn edges(u: &mut Universe, es: &[(&str, &str)]) -> BTreeMap<String, Relation> {
        let rows = es.iter().map(|(a, b)| atoms(u, &[a, b]));
        BTreeMap::from([("G".to_string(), Relation::from_rows(rows))])
    }

    fn pos(rel: &str, vars: &[&str]) -> Literal {
        Literal::Pos(rel.into(), vars.iter().map(|v| DTerm::var(*v)).collect())
    }

    fn rule(head: &[&str], body: Vec<Literal>) -> Rule {
        Rule {
            head: "out".to_string(),
            head_args: head.iter().map(|v| DTerm::var(*v)).collect(),
            body,
        }
    }

    fn two_hop() -> Rule {
        rule(
            &["x", "z"],
            vec![pos("G", &["x", "y"]), pos("G", &["y", "z"])],
        )
    }

    #[test]
    fn join_firings_match_composition() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b"), ("b", "c"), ("b", "d")]);
        let want = vec![atoms(&mut u, &["a", "c"]), atoms(&mut u, &["a", "d"])];
        assert_eq!(fire(&two_hop(), None, &rels), want);
    }

    #[test]
    fn pinned_enumeration_restricts_to_delta_rows() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        // pin the second literal to just (c, d): only (b, d) can fire
        let delta = Relation::from_rows([atoms(&mut u, &["c", "d"])]);
        let want = vec![atoms(&mut u, &["b", "d"])];
        assert_eq!(fire(&two_hop(), Some((1, &delta)), &rels), want);
    }

    #[test]
    fn derives_checks_one_fact_only() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b"), ("b", "c")]);
        let st = Flat {
            rels,
            empty: Relation::new(),
            cache: IndexCache::new(),
        };
        let gov = Governor::unlimited();
        let meter = Meter::new(&gov, "test.fire", "test.index");
        let derived = |fact: Vec<Value>| {
            derives(&Values, &two_hop(), &fact, &|_| Phase::Old, &st, meter).unwrap()
        };
        assert!(derived(atoms(&mut u, &["a", "c"])));
        assert!(!derived(atoms(&mut u, &["a", "b"])));
    }

    #[test]
    fn negation_and_comparisons_filter_firings() {
        let mut u = Universe::new();
        let mut rels = edges(&mut u, &[("a", "b"), ("b", "c"), ("c", "c")]);
        let blocked = Relation::from_rows([atoms(&mut u, &["a", "b"])]);
        rels.insert("Blocked".to_string(), blocked);
        // out(x, y) :- G(x, y), !Blocked(x, y), x != y.
        let r = rule(
            &["x", "y"],
            vec![
                pos("G", &["x", "y"]),
                Literal::Neg("Blocked".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neq(DTerm::var("x"), DTerm::var("y")),
            ],
        );
        assert_eq!(fire(&r, None, &rels), vec![atoms(&mut u, &["b", "c"])]);
    }

    #[test]
    fn eq_binds_and_in_enumerates() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b")]);
        let set = Value::set(atoms(&mut u, &["p", "q"]));
        // out(x, t, c) :- G(x, y), t in {p, q}, c = y.
        let r = rule(
            &["x", "t", "c"],
            vec![
                pos("G", &["x", "y"]),
                Literal::In(DTerm::var("t"), DTerm::Const(set)),
                Literal::Eq(DTerm::var("c"), DTerm::var("y")),
            ],
        );
        assert_eq!(fire(&r, None, &rels).len(), 2, "one firing per set member");
    }

    #[test]
    fn membership_over_a_non_set_never_holds() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b")]);
        for lit in [Literal::In, Literal::NotIn] {
            let r = rule(
                &["x"],
                vec![pos("G", &["x", "y"]), lit(DTerm::var("x"), DTerm::var("y"))],
            );
            assert!(fire(&r, None, &rels).is_empty(), "{r:?}");
        }
    }

    #[test]
    fn probe_steps_do_not_depend_on_which_key_comes_first() {
        // out(x, z) :- G(x, y), G(y, z): the second literal is probed once
        // per first-literal row, each key yielding a different row count
        let mut u = Universe::new();
        let rels = edges(
            &mut u,
            &[("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "a")],
        );
        let steps = |reversed: bool| {
            let mut rows: Vec<Vec<Value>> = rels["G"].sorted_rows().into_iter().cloned().collect();
            if reversed {
                rows.reverse();
            }
            // a relation built anew hashes its rows into another order
            let rels = BTreeMap::from([("G".to_string(), Relation::from_rows(rows))]);
            fire_with(
                &Values,
                &two_hop(),
                None,
                &rels,
                Relation::clone,
                Value::clone,
            )
            .1
        };
        // 5 rows scanned for the first literal; 5 probes of the second
        // (keys b, c, d, d, a): one scan (5), one build (5), and one step
        // per yielded row (2 + 1 + 1 + 1 + 1)
        for reversed in [false, true, false, true] {
            assert_eq!(steps(reversed), 5 + 5 + 5 + 6);
        }
    }

    #[test]
    fn a_compared_constant_the_arena_lacks_admits_nothing() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b"), ("b", "c")]);
        let absent = atoms(&mut u, &["z"]).remove(0);
        // out(x) :- G(x, y), !G(y, 'z').   out(x) :- G(x, 'z').
        let negated = rule(
            &["x"],
            vec![
                pos("G", &["x", "y"]),
                Literal::Neg(
                    "G".into(),
                    vec![DTerm::var("y"), DTerm::Const(absent.clone())],
                ),
            ],
        );
        let positive = rule(
            &["x"],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::Const(absent)],
            )],
        );
        let int = Interner::new();
        let fired = |r: &Rule| {
            fire_with(
                &int,
                r,
                None,
                &rels,
                |rel| IdRelation::from_relation(&int, rel),
                |id| int.resolve(*id),
            )
        };
        fired(&negated);
        let arena = (int.len(), int.bytes());
        assert_eq!(fired(&negated).0.len(), 2, "a negated absent row holds");
        assert!(
            fired(&positive).0.is_empty(),
            "an absent constant is in no row"
        );
        assert_eq!((int.len(), int.bytes()), arena);
        // the same steps as over value cells, where the constant exists
        assert_eq!(fire(&negated, None, &rels).len(), 2);
    }

    #[test]
    fn a_head_constant_pays_its_growth_once() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b")]);
        let tagged = Value::tuple(atoms(&mut u, &["new", "tag"]));
        // out(x, ['new', 'tag']) :- G(x, y).
        let r = Rule {
            head: "out".to_string(),
            head_args: vec![DTerm::var("x"), DTerm::Const(tagged)],
            body: vec![pos("G", &["x", "y"])],
        };
        let int = Interner::new();
        let st = Flat {
            rels: rels
                .iter()
                .map(|(n, r)| (n.clone(), IdRelation::from_relation(&int, r)))
                .collect(),
            empty: IdRelation::new(),
            cache: IndexCache::new(),
        };
        let spend = || {
            let gov = Governor::unlimited();
            let meter = Meter::new(&gov, "test.fire", "test.index");
            for_each_firing(&int, &r, None, &|_| Phase::Old, &st, meter, &mut |_| {
                Ok(true)
            })
            .unwrap();
            (gov.steps_spent(), gov.mem_spent())
        };
        let before = int.bytes();
        let cold = spend();
        let growth = int.bytes() - before;
        assert!(growth > 0, "the tuple and its atoms were new");
        let warm = spend();
        assert_eq!(
            (cold.0, cold.1 - growth),
            warm,
            "only the admitting call pays"
        );
    }

    #[test]
    fn firing_attempts_are_governor_metered() {
        let mut u = Universe::new();
        let rels = edges(&mut u, &[("a", "b"), ("b", "c"), ("c", "d")]);
        let st = Flat {
            rels,
            empty: Relation::new(),
            cache: IndexCache::new(),
        };
        let gov = Governor::new(Limits {
            max_steps: 2,
            ..Limits::unlimited()
        });
        let err = for_each_firing(
            &Values,
            &two_hop(),
            None,
            &|_| Phase::Old,
            &st,
            Meter::new(&gov, "test.fire", "test.index"),
            &mut |_| Ok(true),
        )
        .unwrap_err();
        assert_eq!((err.budget, err.site), (BudgetKind::Steps, "test.fire"));
    }
}
