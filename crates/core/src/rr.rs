//! Range restriction (Definitions 5.2 and 5.3).
//!
//! Range restriction is the paper's *syntactic* tractability criterion: a
//! variable is range restricted when its possible values are pinned down by
//! the database through a chain of inference rules — relation atoms bind
//! their arguments (rule 1), equalities and memberships transfer ranges
//! (rule 4), conjunction accumulates (rule 5), disjunction requires
//! restriction on every branch (rule 6), universal quantification defers to
//! the negation normal form (rule 7), tuple variables and their projections
//! restrict each other (rules 2–3), and the `∀y(y ∈ x ⇔ φ)` grouping
//! pattern restricts the set variable (rule 9).
//!
//! For fixpoints (Definition 5.3), the *columns* of an inductively defined
//! relation are classified by the non-increasing iteration `τ0 ⊇ τ1 ⊇ …`
//! until a fixpoint `τ*`: a column stays range restricted as long as its
//! variable is restricted in the body given the previous classification
//! (rules 1′, 9′, 10). Example 5.2 of the paper is reproduced verbatim in
//! the tests.
//!
//! Theorem 5.1 builds each variable's range function from the derivation
//! that certifies it, so there is one walk of the formula, [`Walk`], and
//! it decides every rule once. It is generic over what a range *is*
//! ([`Interp`]): here a range is mere presence, which yields the
//! certificate ([`analyze`]); [`crate::ranges`] interprets it as a finite
//! value set on an instance, which yields the ranges safe evaluation
//! installs. A variable is certified exactly when it gets a range, with
//! one exception, [`RrAnalysis::fixpoint_local`]: a variable bound inside
//! a fixpoint body is certified by the body's grants, but safe evaluation
//! restricts the fixpoint through its columns only.
//!
//! # Example
//!
//! ```
//! use no_core::{parse_query, rr, typeck};
//! use no_object::{RelationSchema, Schema, Type, Universe};
//!
//! let schema = Schema::from_relations([
//!     RelationSchema::new("G", vec![Type::Atom, Type::Atom]),
//! ]);
//! let mut u = Universe::new();
//! // restricted: x and y are bound by the relation atom
//! let good = parse_query("{[x:U, y:U] | G(x, y)}", &mut u).unwrap();
//! let types = typeck::check(&schema, &good.head, &good.body).unwrap().var_types;
//! assert!(rr::is_range_restricted(&schema, &types, &good.body));
//!
//! // unrestricted: X quantifies over the whole powerset
//! let bad = parse_query(
//!     "{[X:{U}] | forall x:U (x in X -> G(x, x))}", &mut u,
//! ).unwrap();
//! let types = typeck::check(&schema, &bad.head, &bad.body).unwrap().var_types;
//! assert!(!rr::is_range_restricted(&schema, &types, &bad.body));
//! ```

use crate::ast::{Fixpoint, Formula, RelName, Term, VarName};
use no_object::{Schema, Type, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

/// A variable or a projection chain of one: the paper's convention that
/// "variables include the projections `x.i`".
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarPath {
    /// The root variable name.
    pub root: VarName,
    /// The (possibly empty) 1-based projection path.
    pub path: Vec<usize>,
}

impl VarPath {
    /// A bare variable.
    pub fn root(name: impl Into<String>) -> Self {
        VarPath {
            root: name.into(),
            path: Vec::new(),
        }
    }

    /// Extend with one projection step.
    pub fn child(&self, i: usize) -> Self {
        let mut path = self.path.clone();
        path.push(i);
        VarPath {
            root: self.root.clone(),
            path,
        }
    }

    /// Extract the var-path denoted by a term, if it is a variable or a
    /// projection chain of one.
    pub fn of_term(t: &Term) -> Option<VarPath> {
        match t {
            Term::Var(v) => Some(VarPath::root(v.clone())),
            Term::Proj(inner, i) => VarPath::of_term(inner).map(|p| p.child(*i)),
            _ => None,
        }
    }

    /// The type of this path given the root types.
    pub fn type_in(&self, var_types: &BTreeMap<VarName, Type>) -> Option<Type> {
        let mut t = var_types.get(&self.root)?.clone();
        for &i in &self.path {
            t = t.components()?.get(i - 1)?.clone();
        }
        Some(t)
    }
}

impl fmt::Display for VarPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)?;
        for i in &self.path {
            write!(f, ".{i}")?;
        }
        Ok(())
    }
}

/// A range-restriction rule of Definition 5.2 or 5.3, identified the way
/// the paper numbers them. Each grant recorded in the [`RrAnalysis::trace`]
/// cites the rule that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RrRule {
    /// Rule 1: database relation atoms restrict their argument variables.
    RelationAtom,
    /// Rule 2: a restricted tuple variable restricts its projections.
    TupleProjection,
    /// Rule 3: all components restricted ⇒ the tuple variable is.
    TupleAssembly,
    /// Rule 4: constants restrict directly; `=` and `∈` transfer ranges
    /// across the conjuncts of a conjunction.
    EqualityTransfer,
    /// Rule 9: the grouping pattern `∀y (y ∈ x ⇔ φ(y))` restricts the set
    /// variable `x` (and `y`, via `φ`).
    Grouping,
    /// Rule 1′: a fixpoint-bound relation atom restricts the variables in
    /// its `τ`-classified columns.
    FixRelationAtom,
    /// Rule 9′: a fixpoint term with every column in `τ*` restricts the
    /// variable it is equated with (or whose membership it bounds).
    FixTerm,
    /// Rule 10: a fixpoint application restricts the argument variables in
    /// `τ*` positions.
    FixApplication,
}

impl RrRule {
    /// The paper's rule number, e.g. `"1"`, `"9′"`.
    pub fn id(self) -> &'static str {
        match self {
            RrRule::RelationAtom => "1",
            RrRule::TupleProjection => "2",
            RrRule::TupleAssembly => "3",
            RrRule::EqualityTransfer => "4",
            RrRule::Grouping => "9",
            RrRule::FixRelationAtom => "1′",
            RrRule::FixTerm => "9′",
            RrRule::FixApplication => "10",
        }
    }

    /// Which definition of the paper the rule comes from.
    pub fn citation(self) -> &'static str {
        match self {
            RrRule::RelationAtom
            | RrRule::TupleProjection
            | RrRule::TupleAssembly
            | RrRule::EqualityTransfer
            | RrRule::Grouping => "Definition 5.2",
            RrRule::FixRelationAtom | RrRule::FixTerm | RrRule::FixApplication => "Definition 5.3",
        }
    }
}

impl fmt::Display for RrRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {} ({})", self.id(), self.citation())
    }
}

/// One recorded rule application: `var` was granted its range by `rule`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleApp {
    /// The variable (or projection) granted.
    pub var: VarPath,
    /// The rule that granted it.
    pub rule: RrRule,
}

impl fmt::Display for RuleApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} restricted by {}", self.var, self.rule)
    }
}

/// The result of a range-restriction analysis.
#[derive(Debug, Clone, Default)]
pub struct RrAnalysis {
    /// The range-restricted variables (and projections), including those
    /// bound inside fixpoint bodies (restricted in the body under `τ*`).
    pub restricted: BTreeSet<VarPath>,
    /// The members of `restricted` certified only by a fixpoint body's
    /// grants: neither restricted in the enclosing formula nor a `τ*`
    /// column. Safe evaluation restricts a fixpoint through its columns,
    /// so these are the restricted variables that get no range.
    pub fixpoint_local: BTreeSet<VarPath>,
    /// For every fixpoint whose columns a rule consults (applications and
    /// fixpoint terms under `=` or on the right of `∈`), its `τ*`: the set
    /// of 1-based range-restricted columns, keyed by the `Arc` pointer
    /// identity.
    pub fix_columns: HashMap<usize, BTreeSet<usize>>,
    /// Every rule application that contributed to the final `restricted`
    /// set, sorted by variable then rule. Grants made only in discarded
    /// speculative passes (pruned disjunction branches, pre-`τ*` fixpoint
    /// iterations) are filtered out; a variable restricted by several rules
    /// keeps one entry per rule.
    pub trace: Vec<RuleApp>,
}

impl RrAnalysis {
    /// Whether a bare variable is restricted.
    pub fn is_restricted(&self, var: &str) -> bool {
        self.restricted.contains(&VarPath::root(var))
    }

    /// The trace entries whose variable has the given root name.
    pub fn rules_for(&self, root: &str) -> Vec<&RuleApp> {
        self.trace.iter().filter(|a| a.var.root == root).collect()
    }
}

/// Compute the set of range-restricted variables of `formula`
/// (Definitions 5.2/5.3). `var_types` must cover every variable, free and
/// bound — obtain it from [`crate::typeck::check`].
pub fn analyze(
    schema: &Schema,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
) -> RrAnalysis {
    let mut walk = Walk::new(Presence(schema), var_types);
    let Ok(top) = walk.run(formula);
    let mut restricted: BTreeSet<VarPath> = top.keys().cloned().collect();
    let mut columns = BTreeSet::new();
    let mut fix_columns = HashMap::new();
    for fix in &walk.fixes {
        restricted.extend(fix.body.keys().cloned());
        let tau: BTreeSet<usize> = (1..=fix.cols.len())
            .filter(|&j| fix.cols[j - 1].is_some())
            .collect();
        columns.extend(tau.iter().map(|&j| &fix.fix.vars[j - 1].0));
        fix_columns.insert(Arc::as_ptr(&fix.fix) as usize, tau);
    }
    let fixpoint_local = restricted
        .iter()
        .filter(|p| !top.contains_key(*p) && !columns.contains(&p.root))
        .cloned()
        .collect();
    let trace = walk
        .trace
        .into_iter()
        .filter(|a| restricted.contains(&a.var))
        .collect();
    RrAnalysis {
        restricted,
        fixpoint_local,
        fix_columns,
        trace,
    }
}

/// Whether every variable occurring in `formula` (free, bound, and their
/// used projections) is range restricted — the paper's "range-restricted
/// formula".
pub fn is_range_restricted(
    schema: &Schema,
    var_types: &BTreeMap<VarName, Type>,
    formula: &Formula,
) -> bool {
    let analysis = analyze(schema, var_types, formula);
    all_vars(formula)
        .iter()
        .all(|v| analysis.restricted.contains(&VarPath::root(v.clone())))
}

/// All variable roots occurring in the formula, free or bound, including
/// inside fixpoint bodies.
pub fn all_vars(f: &Formula) -> BTreeSet<VarName> {
    fn term_vars(t: &Term, out: &mut BTreeSet<VarName>) {
        match t {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Proj(t, _) => term_vars(t, out),
            Term::Fix(fix) => {
                for (v, _) in &fix.vars {
                    out.insert(v.clone());
                }
                go(&fix.body, out);
            }
            Term::Const(_) => {}
        }
    }
    fn go(f: &Formula, out: &mut BTreeSet<VarName>) {
        match f {
            Formula::Rel(_, ts) => ts.iter().for_each(|t| term_vars(t, out)),
            Formula::Eq(a, b) | Formula::In(a, b) | Formula::Subset(a, b) => {
                term_vars(a, out);
                term_vars(b, out);
            }
            Formula::Exists(x, _, g) | Formula::Forall(x, _, g) => {
                out.insert(x.clone());
                go(g, out);
            }
            Formula::FixApp(fix, ts) => {
                for (v, _) in &fix.vars {
                    out.insert(v.clone());
                }
                go(&fix.body, out);
                ts.iter().for_each(|t| term_vars(t, out));
            }
            _ => f.children().into_iter().for_each(|c| go(c, out)),
        }
    }
    let mut out = BTreeSet::new();
    go(f, &mut out);
    out
}

/// Variable roots *occurring* in a formula without descending into
/// fixpoint bodies (their variables are local). Used for the disjunction
/// rule's "x ∈ var(φi)" test.
fn occurring_roots(f: &Formula) -> BTreeSet<VarName> {
    fn term_roots(t: &Term, out: &mut BTreeSet<VarName>) {
        match t {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Proj(t, _) => term_roots(t, out),
            _ => {}
        }
    }
    fn go(f: &Formula, out: &mut BTreeSet<VarName>) {
        match f {
            Formula::Rel(_, ts) | Formula::FixApp(_, ts) => {
                ts.iter().for_each(|t| term_roots(t, out))
            }
            Formula::Eq(a, b) | Formula::In(a, b) | Formula::Subset(a, b) => {
                term_roots(a, out);
                term_roots(b, out);
            }
            Formula::Exists(x, _, g) | Formula::Forall(x, _, g) => {
                out.insert(x.clone());
                go(g, out);
            }
            _ => f.children().into_iter().for_each(|c| go(c, out)),
        }
    }
    let mut out = BTreeSet::new();
    go(f, &mut out);
    out
}

/// The walk's result on one formula: every restricted var-path with its
/// range.
pub(crate) type Grants<R> = BTreeMap<VarPath, R>;

/// What a range *is* for the [`Walk`]. The walk decides which rule grants
/// what; an interpretation only builds and combines ranges, and says where
/// a budget is charged.
pub(crate) trait Interp {
    /// One variable's range.
    type Range: Clone + PartialEq;
    /// Why building a range failed.
    type Error;

    /// The measure whose growth keeps the saturation loops going.
    fn size(r: &Self::Range) -> usize;
    /// Called once per formula node the walk visits.
    fn visit(&self) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Called whenever one node's grants are saturated.
    fn check_width(&self, _grants: &Grants<Self::Range>) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Rule 1: column `j` (0-based) of `rel`, if `rel` is a database
    /// relation.
    fn column(&self, rel: &str, j: usize) -> Option<Self::Range>;
    /// Rule 4: the constant `c`.
    fn constant(&self, c: &Value) -> Self::Range;
    /// A column of the empty relation `r⁰` every fixpoint iteration starts
    /// from.
    fn empty(&self) -> Self::Range;
    /// Union `more` into `into`.
    fn absorb(into: &mut Self::Range, more: Self::Range);
    /// Rule 4 across `∈`: the members of the sets in `r`.
    fn members(&self, r: &Self::Range) -> Self::Range;
    /// Rule 2: component `i` (1-based) of the tuples in `r`.
    fn project(&self, r: &Self::Range, i: usize) -> Self::Range;
    /// Rule 3: the tuples assembled from the component ranges.
    fn product(&self, comps: &[&Self::Range]) -> Result<Self::Range, Self::Error>;
    /// Rule 9: the sets `{y | φ(y, ν)}`, `y` over `y_range`, for every
    /// assignment `ν` of the other free variables of `φ` over theirs.
    fn grouping(
        &self,
        phi: &Formula,
        y: &str,
        y_range: &Self::Range,
        others: &[(VarName, &Self::Range)],
    ) -> Result<Self::Range, Self::Error>;
    /// Rule 9′: the fixpoint relation as a set value, computed with every
    /// column restricted to its range.
    fn fixpoint(
        &self,
        fix: &Arc<Fixpoint>,
        cols: &[Option<Self::Range>],
    ) -> Result<Self::Range, Self::Error>;
}

/// A fixpoint the walk classified: its stable columns (`None` = not range
/// restricted) and the grants of its body under them.
pub(crate) struct FixGrants<R> {
    pub(crate) fix: Arc<Fixpoint>,
    pub(crate) cols: Vec<Option<R>>,
    pub(crate) body: Grants<R>,
}

/// The one walk applying Definitions 5.2/5.3.
pub(crate) struct Walk<I: Interp> {
    interp: I,
    var_types: BTreeMap<VarName, Type>,
    /// Column ranges of the fixpoint relations in scope (rule 1′).
    scope: Vec<(RelName, Vec<Option<I::Range>>)>,
    /// Every fixpoint classified so far. Entries made while an enclosing
    /// fixpoint iterates are dropped when it moves on: they were computed
    /// against that iteration's columns.
    pub(crate) fixes: Vec<FixGrants<I::Range>>,
    /// Every rule 9 application: the bound variable and the set variable.
    groupings: Vec<(VarPath, VarPath)>,
    trace: BTreeSet<RuleApp>,
}

impl<I: Interp> Walk<I> {
    pub(crate) fn new(interp: I, var_types: &BTreeMap<VarName, Type>) -> Self {
        Walk {
            interp,
            var_types: var_types.clone(),
            scope: Vec::new(),
            fixes: Vec::new(),
            groupings: Vec::new(),
            trace: BTreeSet::new(),
        }
    }

    /// Add `r` to the range of `p`, citing `rule` if `p` had none.
    fn grant(&mut self, out: &mut Grants<I::Range>, rule: RrRule, p: VarPath, r: I::Range) {
        if !out.contains_key(&p) {
            self.trace.insert(RuleApp {
                var: p.clone(),
                rule,
            });
        }
        join::<I>(out, p, r);
    }

    /// The final grants of `f`.
    pub(crate) fn run(&mut self, f: &Formula) -> Result<Grants<I::Range>, I::Error> {
        let mut grants = self.formula(f)?;
        self.settle(&mut grants);
        Ok(grants)
    }

    /// Rule 9 restricts `y` to its range in `φ` on the premise that the
    /// set variable only takes sets of that range. Once the grants are
    /// final, widen `y` by the members of the set variable's range, or
    /// withdraw `y` if the set variable's root has no range. Outer
    /// groupings are recorded after the ones nested in them, so they are
    /// settled first.
    fn settle(&self, out: &mut Grants<I::Range>) {
        for (y, set) in self.groupings.iter().rev() {
            if !out.contains_key(y) {
                continue;
            }
            match out.get(set) {
                Some(r) if out.contains_key(&VarPath::root(set.root.clone())) => {
                    let members = self.interp.members(r);
                    join::<I>(out, y.clone(), members);
                }
                _ => out.retain(|p, _| p.root != y.root),
            }
        }
    }

    /// The grants of `f`.
    fn formula(&mut self, f: &Formula) -> Result<Grants<I::Range>, I::Error> {
        self.interp.visit()?;
        let mut out = Grants::new();
        match f {
            Formula::Rel(name, args) => {
                // rule 1 (database relation) and rule 1′ (fixpoint-bound
                // relation: only its restricted columns)
                let scoped = self
                    .scope
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, cols)| cols.clone());
                for (j, arg) in args.iter().enumerate() {
                    let Some(p) = VarPath::of_term(arg) else {
                        continue;
                    };
                    let granted = match &scoped {
                        Some(cols) => cols
                            .get(j)
                            .cloned()
                            .flatten()
                            .map(|r| (RrRule::FixRelationAtom, r)),
                        None => self
                            .interp
                            .column(name, j)
                            .map(|r| (RrRule::RelationAtom, r)),
                    };
                    if let Some((rule, r)) = granted {
                        self.grant(&mut out, rule, p, r);
                    }
                }
            }
            Formula::Eq(a, b) => {
                // rule 4 (x = c) — constants restrict directly
                if let (t, Term::Const(c)) | (Term::Const(c), t) = (a, b) {
                    if let Some(p) = VarPath::of_term(t) {
                        let r = self.interp.constant(c);
                        self.grant(&mut out, RrRule::EqualityTransfer, p, r);
                    }
                }
                // rule 9′: x = IFP(φ(S), S) with every column restricted
                for (t, other) in [(a, b), (b, a)] {
                    if let Term::Fix(fix) = other {
                        if let Some((p, r)) = self.fix_term(fix, t)? {
                            self.grant(&mut out, RrRule::FixTerm, p, r);
                        }
                    }
                }
            }
            Formula::In(a, b) => {
                // alone, membership restricts only via a fixpoint term
                if let Term::Fix(fix) = b {
                    if let Some((p, r)) = self.fix_term(fix, a)? {
                        let r = self.interp.members(&r);
                        self.grant(&mut out, RrRule::FixTerm, p, r);
                    }
                }
            }
            Formula::Subset(..) => {}
            Formula::Not(g) => {
                // no inference through bare negation (rule 7 handles ∀ via
                // the pushed form); still classify inner fixpoints
                self.formula(g)?;
            }
            Formula::Implies(..) | Formula::Iff(..) => {
                for c in f.children() {
                    self.formula(c)?;
                }
            }
            Formula::And(parts) => {
                // rule 5, saturated by rule 4 across the conjuncts
                for part in parts {
                    for (p, r) in self.formula(part)? {
                        join::<I>(&mut out, p, r);
                    }
                }
                loop {
                    let before = total::<I>(&out);
                    for part in parts {
                        self.transfer(part, &mut out);
                    }
                    self.saturate(&mut out)?;
                    self.interp.check_width(&out)?;
                    if total::<I>(&out) == before {
                        break;
                    }
                }
            }
            Formula::Or(parts) => {
                // rule 6: a variable free in the disjunction must be
                // restricted in every disjunct; one bound inside a disjunct
                // in every disjunct where it occurs
                let grants = parts
                    .iter()
                    .map(|p| self.formula(p))
                    .collect::<Result<Vec<_>, _>>()?;
                let free: BTreeSet<VarName> = f.free_vars().into_iter().collect();
                let occurs: Vec<BTreeSet<VarName>> = parts.iter().map(occurring_roots).collect();
                for g in &grants {
                    for (p, r) in g {
                        let everywhere = grants.iter().zip(&occurs).all(|(h, occ)| {
                            h.contains_key(p) || !(free.contains(&p.root) || occ.contains(&p.root))
                        });
                        if everywhere {
                            join::<I>(&mut out, p.clone(), r.clone());
                        }
                    }
                }
            }
            Formula::Exists(_, _, g) => out = self.formula(g)?,
            Formula::Forall(y, _, g) => {
                let yp = VarPath::root(y.clone());
                let free: BTreeSet<VarName> = f.free_vars().into_iter().collect();
                // rule 9: ∀y (y ∈ x ⇔ φ(y)) — the grouping pattern
                if let Formula::Iff(lhs, rhs) = g.as_ref() {
                    for (mem, phi) in [(lhs, rhs), (rhs, lhs)] {
                        let Formula::In(a, b) = mem.as_ref() else {
                            continue;
                        };
                        if VarPath::of_term(a).as_ref() != Some(&yp) {
                            continue;
                        }
                        if let Some(set) = VarPath::of_term(b) {
                            self.grouping(y, phi, set, &free, &mut out)?;
                        }
                    }
                }
                // rule 7: the grants of ¬g carry over for y and for the
                // variables bound inside g — outside its range ¬g is
                // false, so the quantifier may be restricted to it. For a
                // variable free in the ∀ the polarity is inverted: outside
                // its range in ¬g the formula is certainly true, so
                // exporting it would wrongly shrink enclosing quantifiers.
                let pushed = Formula::Not(g.clone()).negation_normal_form();
                for (p, r) in self.formula(&pushed)? {
                    if !free.contains(&p.root) {
                        join::<I>(&mut out, p, r);
                    }
                }
            }
            Formula::FixApp(fix, args) => {
                // rule 10
                let cols = self.fix_columns(fix)?;
                for (arg, col) in args.iter().zip(cols) {
                    if let (Some(p), Some(r)) = (VarPath::of_term(arg), col) {
                        self.grant(&mut out, RrRule::FixApplication, p, r);
                    }
                }
            }
        }
        self.saturate(&mut out)?;
        self.interp.check_width(&out)?;
        Ok(out)
    }

    /// Rule 4 inside a conjunction: `x = y` and `x ∈ y` carry `y`'s range
    /// over to `x`.
    fn transfer(&mut self, part: &Formula, out: &mut Grants<I::Range>) {
        match part {
            Formula::Eq(a, b) => {
                for (x, y) in [(a, b), (b, a)] {
                    if let (Some(px), Some(py)) = (VarPath::of_term(x), VarPath::of_term(y)) {
                        if let Some(r) = out.get(&py).cloned() {
                            self.grant(out, RrRule::EqualityTransfer, px, r);
                        }
                    }
                }
            }
            Formula::In(a, b) => {
                if let (Some(pa), Some(pb)) = (VarPath::of_term(a), VarPath::of_term(b)) {
                    if let Some(r) = out.get(&pb) {
                        let r = self.interp.members(r);
                        self.grant(out, RrRule::EqualityTransfer, pa, r);
                    }
                }
            }
            _ => {}
        }
    }

    /// Close the grants under rules 2 and 3 (tuple/projection coupling),
    /// for paths whose types are known.
    fn saturate(&mut self, out: &mut Grants<I::Range>) -> Result<(), I::Error> {
        loop {
            let before = total::<I>(out);
            // rule 2: x restricted, x : [T1..Tm] ⇒ x.i restricted
            let tuples: Vec<(VarPath, usize, I::Range)> = out
                .iter()
                .filter_map(|(p, r)| match p.type_in(&self.var_types) {
                    Some(Type::Tuple(ts)) => Some((p.clone(), ts.len(), r.clone())),
                    _ => None,
                })
                .collect();
            for (p, width, r) in tuples {
                for i in 1..=width {
                    let component = self.interp.project(&r, i);
                    self.grant(out, RrRule::TupleProjection, p.child(i), component);
                }
            }
            // rule 3: every component restricted ⇒ x restricted
            let prefixes: BTreeSet<VarPath> = out
                .keys()
                .filter(|p| !p.path.is_empty())
                .map(|p| VarPath {
                    root: p.root.clone(),
                    path: p.path[..p.path.len() - 1].to_vec(),
                })
                .collect();
            for p in prefixes {
                if out.contains_key(&p) {
                    continue;
                }
                let Some(Type::Tuple(ts)) = p.type_in(&self.var_types) else {
                    continue;
                };
                let comps: Option<Vec<&I::Range>> =
                    (1..=ts.len()).map(|i| out.get(&p.child(i))).collect();
                let Some(comps) = comps else {
                    continue;
                };
                let r = self.interp.product(&comps)?;
                self.grant(out, RrRule::TupleAssembly, p, r);
            }
            if total::<I>(out) == before {
                return Ok(());
            }
        }
    }

    /// Rule 9: if `y` and every other free variable of `φ` are restricted
    /// in `φ`, grant `set` the grouping sets and `y` its range in `φ`. As
    /// in rule 7, the grants of `φ`'s variables not free in the `∀` (those
    /// bound inside `φ`) carry over.
    fn grouping(
        &mut self,
        y: &str,
        phi: &Formula,
        set: VarPath,
        free: &BTreeSet<VarName>,
        out: &mut Grants<I::Range>,
    ) -> Result<(), I::Error> {
        let inner = self.formula(phi)?;
        let yp = VarPath::root(y);
        let Some(y_range) = inner.get(&yp) else {
            return Ok(());
        };
        let mut others = Vec::new();
        for v in phi.free_vars().into_iter().filter(|v| v != y) {
            match inner.get(&VarPath::root(v.clone())) {
                Some(r) => others.push((v, r)),
                None => return Ok(()),
            }
        }
        let sets = self.interp.grouping(phi, y, y_range, &others)?;
        self.groupings.push((yp.clone(), set.clone()));
        self.grant(out, RrRule::Grouping, set, sets);
        self.grant(out, RrRule::Grouping, yp, y_range.clone());
        for (p, r) in inner {
            if !free.contains(&p.root) {
                join::<I>(out, p, r);
            }
        }
        Ok(())
    }

    /// Rule 9′: the range of `t` in `t = fix` when every column of `fix`
    /// is restricted.
    fn fix_term(
        &mut self,
        fix: &Arc<Fixpoint>,
        t: &Term,
    ) -> Result<Option<(VarPath, I::Range)>, I::Error> {
        let cols = self.fix_columns(fix)?;
        match VarPath::of_term(t) {
            Some(p) if cols.iter().all(Option::is_some) => {
                Ok(Some((p, self.interp.fixpoint(fix, &cols)?)))
            }
            _ => Ok(None),
        }
    }

    /// Definition 5.3's column classification. Every column starts
    /// restricted with the range it has in `r⁰`; each round walks the body
    /// with the current columns in scope, takes each still-restricted
    /// column's range from its variable's grant, and drops the column if
    /// the variable has none. Columns only grow or drop, so the rounds
    /// converge (to `τ*`, for presence); the bound is a defensive cut-off
    /// for adversarial nesting depth, and on it every column is dropped —
    /// a range that had not converged would under-approximate.
    fn fix_columns(&mut self, fix: &Arc<Fixpoint>) -> Result<Vec<Option<I::Range>>, I::Error> {
        if let Some(known) = self.fixes.iter().find(|f| Arc::ptr_eq(&f.fix, fix)) {
            return Ok(known.cols.clone());
        }
        for (v, t) in &fix.vars {
            self.var_types.insert(v.clone(), t.clone());
        }
        let mut cols = vec![Some(self.interp.empty()); fix.vars.len()];
        let nested = self.fixes.len();
        let mut body = None;
        for _ in 0..16 * fix.vars.len() + 64 {
            self.fixes.truncate(nested);
            self.scope.push((fix.rel.clone(), cols.clone()));
            let grants = self.formula(&fix.body);
            self.scope.pop();
            let mut grants = grants?;
            let next: Vec<Option<I::Range>> = fix
                .vars
                .iter()
                .zip(&cols)
                .map(|((v, _), old)| {
                    old.as_ref()
                        .and(grants.get(&VarPath::root(v.clone())))
                        .cloned()
                })
                .collect();
            if next == cols {
                self.settle(&mut grants);
                body = Some(grants);
                break;
            }
            cols = next;
        }
        let body = body.unwrap_or_else(|| {
            cols = vec![None; fix.vars.len()];
            Grants::new()
        });
        self.fixes.push(FixGrants {
            fix: Arc::clone(fix),
            cols: cols.clone(),
            body,
        });
        Ok(cols)
    }
}

/// Union `r` into the range of `p`.
fn join<I: Interp>(out: &mut Grants<I::Range>, p: VarPath, r: I::Range) {
    match out.entry(p) {
        Entry::Vacant(e) => {
            e.insert(r);
        }
        Entry::Occupied(mut e) => I::absorb(e.get_mut(), r),
    }
}

fn total<I: Interp>(grants: &Grants<I::Range>) -> usize {
    grants.values().map(I::size).sum()
}

/// Presence: the certificate's interpretation. Every grant is `()`.
struct Presence<'a>(&'a Schema);

impl Interp for Presence<'_> {
    type Range = ();
    type Error = Infallible;

    fn size(_: &()) -> usize {
        1
    }
    fn column(&self, rel: &str, _: usize) -> Option<()> {
        self.0.get(rel).map(|_| ())
    }
    fn constant(&self, _: &Value) {}
    fn empty(&self) {}
    fn absorb(_: &mut (), _: ()) {}
    fn members(&self, _: &()) {}
    fn project(&self, _: &(), _: usize) {}
    fn product(&self, _: &[&()]) -> Result<(), Infallible> {
        Ok(())
    }
    fn grouping(
        &self,
        _: &Formula,
        _: &str,
        _: &(),
        _: &[(VarName, &())],
    ) -> Result<(), Infallible> {
        Ok(())
    }
    fn fixpoint(&self, _: &Arc<Fixpoint>, _: &[Option<()>]) -> Result<(), Infallible> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FixOp;
    use crate::typeck;
    use no_object::RelationSchema;

    fn vt(schema: &Schema, free: &[(&str, Type)], f: &Formula) -> BTreeMap<VarName, Type> {
        let free: Vec<(String, Type)> = free
            .iter()
            .map(|(v, t)| (v.to_string(), t.clone()))
            .collect();
        typeck::check(schema, &free, f)
            .expect("formula must typecheck")
            .var_types
    }

    fn p(name: &str) -> VarPath {
        VarPath::root(name)
    }

    #[test]
    fn relation_atoms_restrict_their_variables() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let f = Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")]);
        let types = vt(&s, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.is_restricted("x") && a.is_restricted("y"));
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn bare_equality_is_not_restricted() {
        let s = Schema::new();
        let f = Formula::Eq(Term::var("x"), Term::var("y"));
        let types = vt(&s, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        assert!(!is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn constants_restrict() {
        let s = Schema::new();
        let f = Formula::Eq(Term::var("x"), Term::Const(no_object::Value::empty_set()));
        let types = vt(&s, &[("x", Type::set(Type::Atom))], &f);
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn conjunction_saturates_equalities_and_membership() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::set(Type::Atom)])]);
        // P(Y) ∧ x ∈ Y ∧ z = x
        let f = Formula::and([
            Formula::Rel("P".into(), vec![Term::var("Y")]),
            Formula::In(Term::var("x"), Term::var("Y")),
            Formula::Eq(Term::var("z"), Term::var("x")),
        ]);
        let types = vt(
            &s,
            &[
                ("Y", Type::set(Type::Atom)),
                ("x", Type::Atom),
                ("z", Type::Atom),
            ],
            &f,
        );
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn disjunction_requires_all_branches() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        // P(x) ∨ x = y : x restricted only in branch 1; y nowhere
        let f = Formula::or([
            Formula::Rel("P".into(), vec![Term::var("x")]),
            Formula::Eq(Term::var("x"), Term::var("y")),
        ]);
        let types = vt(&s, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        assert!(!a.is_restricted("x"));
        assert!(!a.is_restricted("y"));
        // P(x) ∨ P(x) fine
        let f2 = Formula::or([
            Formula::Rel("P".into(), vec![Term::var("x")]),
            Formula::Rel("P".into(), vec![Term::var("x")]),
        ]);
        let types2 = vt(&s, &[("x", Type::Atom)], &f2);
        assert!(is_range_restricted(&s, &types2, &f2));
    }

    #[test]
    fn disjunction_restricts_free_variables_only_in_every_disjunct() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        let px = Formula::Rel("P".into(), vec![Term::var("x")]);
        let pz = Formula::Rel("P".into(), vec![Term::var("z")]);
        // ∃z P(z) ∨ P(x): x is free and missing from the first disjunct;
        // z is bound inside the disjunct where it occurs
        let f = Formula::or([Formula::exists("z", Type::Atom, pz), px]);
        let types = vt(&s, &[("x", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        assert!(!a.is_restricted("x"));
        assert!(a.is_restricted("z"));
    }

    #[test]
    fn forall_exports_no_free_variable() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        // ∀y (P(y) → ¬P(x)): the pushed negation P(y) ∧ P(x) restricts x,
        // but x is free, so only y carries over
        let f = Formula::forall(
            "y",
            Type::Atom,
            Formula::Rel("P".into(), vec![Term::var("y")])
                .implies(Formula::Rel("P".into(), vec![Term::var("x")]).not()),
        );
        let types = vt(&s, &[("x", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.is_restricted("y"));
        assert!(!a.is_restricted("x"));
    }

    #[test]
    fn variables_bound_under_a_forall_or_a_grouping_carry_over() {
        let s = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut u = no_object::Universe::new();
        for src in [
            "{[x:U] | G(x, x) /\\ forall y:U (G(x, y) -> exists w:U G(y, w))}",
            "{[x:U, s:{U}] | exists z:U G(x, z) /\\ forall y:U ((exists w:U (G(x, w) /\\ G(w, y))) <-> y in s)}",
        ] {
            let q = crate::parser::parse_query(src, &mut u).unwrap();
            let types = typeck::check(&s, &q.head, &q.body).unwrap().var_types;
            assert!(analyze(&s, &types, &q.body).is_restricted("w"), "{src}");
            assert!(is_range_restricted(&s, &types, &q.body), "{src}");
        }
    }

    #[test]
    fn tuple_projection_rules() {
        let pair = Type::tuple(vec![Type::Atom, Type::Atom]);
        let s = Schema::from_relations([
            RelationSchema::new("Q", vec![Type::Atom]),
            RelationSchema::new("R", vec![pair.clone()]),
        ]);
        // R(t): t restricted ⇒ t.1, t.2 restricted (rule 2)
        let f = Formula::Rel("R".into(), vec![Term::var("t")]);
        let types = vt(&s, &[("t", pair.clone())], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.restricted.contains(&p("t").child(1)));
        assert!(a.restricted.contains(&p("t").child(2)));
        // Q(t.1) ∧ Q(t.2): components restricted ⇒ t restricted (rule 3)
        let f2 = Formula::and([
            Formula::Rel("Q".into(), vec![Term::var("t").proj(1)]),
            Formula::Rel("Q".into(), vec![Term::var("t").proj(2)]),
        ]);
        let types2 = vt(&s, &[("t", pair)], &f2);
        let a2 = analyze(&s, &types2, &f2);
        assert!(a2.is_restricted("t"));
    }

    #[test]
    fn forall_uses_negation_normal_form() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        // ∀x (P(x) → P(x)): ¬(P → P) = P ∧ ¬P : x restricted in the
        // conjunction via the positive P(x)
        let f = Formula::forall(
            "x",
            Type::Atom,
            Formula::Rel("P".into(), vec![Term::var("x")])
                .implies(Formula::Rel("P".into(), vec![Term::var("x")])),
        );
        let types = vt(&s, &[], &f);
        assert!(is_range_restricted(&s, &types, &f));
        // ∀x P(x): ¬P(x) restricts nothing
        let f2 = Formula::forall(
            "x",
            Type::Atom,
            Formula::Rel("P".into(), vec![Term::var("x")]),
        );
        let types2 = vt(&s, &[], &f2);
        assert!(!is_range_restricted(&s, &types2, &f2));
    }

    #[test]
    fn example_5_1_nest_is_range_restricted() {
        // {(x:U, s:{U}) | ∃z P(x,z) ∧ ∀y (P(x,y) ⇔ y ∈ s)}
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let f = Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::forall(
                "y",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")])
                    .iff(Formula::In(Term::var("y"), Term::var("s"))),
            ),
        ]);
        let types = vt(&s, &[("x", Type::Atom), ("s", Type::set(Type::Atom))], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.is_restricted("x"), "x via ∃z P(x,z)");
        assert!(a.is_restricted("s"), "s via rule 9");
        assert!(a.is_restricted("y"), "y via rule 9");
        assert!(a.is_restricted("z"));
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn example_5_3_nest_via_ifp_term() {
        // {(x:U, s:{U}) | ∃z P(x,z) ∧ s = IFP((P(x,y) ∨ Q(y)), Q)}
        // NOTE: in our AST the body's free variables must be the fixpoint
        // columns, so the x inside is the column of a unary fixpoint over y
        // with x fixed — we express the paper's one-step nest with Q(y)
        // collecting P-successors of *every* x; the per-x version appears in
        // the integration tests via rule 9. Here: s = IFP(Q; y | ∃w P(w,y) ∨ Q(y)).
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "Q".into(),
            vars: vec![("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::exists(
                    "w",
                    Type::Atom,
                    Formula::Rel("P".into(), vec![Term::var("w"), Term::var("y")]),
                ),
                Formula::Rel("Q".into(), vec![Term::var("y")]),
            ])),
        });
        let f = Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::Eq(Term::var("s"), Term::Fix(fix)),
        ]);
        let types = vt(&s, &[("x", Type::Atom), ("s", Type::set(Type::Atom))], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.is_restricted("x"));
        assert!(
            a.is_restricted("s"),
            "s = fully-restricted IFP term (rule 9')"
        );
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn example_5_2_tau_star_iteration() {
        // φ(S)(x,y,z) = ∃t (S(z,x,t) ∧ S(t,y,y)) ∨ (¬P(x) ∧ P(y))
        // paper: τ* = {2}, RR(ξ) = {y}
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        let body = Formula::or([
            Formula::exists(
                "t",
                Type::Atom,
                Formula::and([
                    Formula::Rel(
                        "S".into(),
                        vec![Term::var("z"), Term::var("x"), Term::var("t")],
                    ),
                    Formula::Rel(
                        "S".into(),
                        vec![Term::var("t"), Term::var("y"), Term::var("y")],
                    ),
                ]),
            ),
            Formula::and([
                Formula::Rel("P".into(), vec![Term::var("x")]).not(),
                Formula::Rel("P".into(), vec![Term::var("y")]),
            ]),
        ]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![
                ("x".into(), Type::Atom),
                ("y".into(), Type::Atom),
                ("z".into(), Type::Atom),
            ],
            body: Box::new(body),
        });
        let f = Formula::FixApp(
            fix.clone(),
            vec![Term::var("a"), Term::var("b"), Term::var("c")],
        );
        let types = vt(
            &s,
            &[("a", Type::Atom), ("b", Type::Atom), ("c", Type::Atom)],
            &f,
        );
        let a = analyze(&s, &types, &f);
        let tau = a
            .fix_columns
            .get(&(Arc::as_ptr(&fix) as usize))
            .expect("fixpoint analysed");
        assert_eq!(tau.iter().copied().collect::<Vec<_>>(), vec![2]);
        // only the argument in column 2 is restricted
        assert!(!a.is_restricted("a"));
        assert!(a.is_restricted("b"));
        assert!(!a.is_restricted("c"));
    }

    #[test]
    fn transitive_closure_fixpoint_is_fully_restricted() {
        let s = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([
                        Formula::Rel("S".into(), vec![Term::var("x"), Term::var("z")]),
                        Formula::Rel("G".into(), vec![Term::var("z"), Term::var("y")]),
                    ]),
                ),
            ])),
        });
        let f = Formula::FixApp(fix.clone(), vec![Term::var("u"), Term::var("v")]);
        let types = vt(&s, &[("u", Type::Atom), ("v", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        let tau = &a.fix_columns[&(Arc::as_ptr(&fix) as usize)];
        assert_eq!(tau.len(), 2, "both TC columns restricted");
        assert!(is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn unrestricted_set_quantifier_detected() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        // ∃X:{U} ∀x:U (x ∈ X → P(x)) — X ranges over the powerset: not RR
        let f = Formula::exists(
            "X",
            Type::set(Type::Atom),
            Formula::forall(
                "x",
                Type::Atom,
                Formula::In(Term::var("x"), Term::var("X"))
                    .implies(Formula::Rel("P".into(), vec![Term::var("x")])),
            ),
        );
        let types = vt(&s, &[], &f);
        assert!(!is_range_restricted(&s, &types, &f));
    }

    #[test]
    fn rule_trace_cites_the_granting_rules() {
        // Example 5.1's nest query: x via rule 1, s and y via rule 9
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom, Type::Atom])]);
        let f = Formula::and([
            Formula::exists(
                "z",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("z")]),
            ),
            Formula::forall(
                "y",
                Type::Atom,
                Formula::Rel("P".into(), vec![Term::var("x"), Term::var("y")])
                    .iff(Formula::In(Term::var("y"), Term::var("s"))),
            ),
        ]);
        let types = vt(&s, &[("x", Type::Atom), ("s", Type::set(Type::Atom))], &f);
        let a = analyze(&s, &types, &f);
        let rules_of = |v: &str| -> Vec<RrRule> { a.rules_for(v).iter().map(|r| r.rule).collect() };
        assert!(rules_of("x").contains(&RrRule::RelationAtom));
        assert!(rules_of("s").contains(&RrRule::Grouping));
        assert!(rules_of("y").contains(&RrRule::Grouping));
        // the trace only mentions finally-restricted paths
        assert!(a.trace.iter().all(|app| a.restricted.contains(&app.var)));
        // citations render
        assert_eq!(RrRule::Grouping.id(), "9");
        assert_eq!(RrRule::Grouping.citation(), "Definition 5.2");
        assert_eq!(
            a.rules_for("s")[0].to_string(),
            "s restricted by rule 9 (Definition 5.2)"
        );
    }

    #[test]
    fn rule_trace_drops_speculative_grants() {
        let s = Schema::from_relations([RelationSchema::new("P", vec![Type::Atom])]);
        // P(x) ∨ x = y: x is granted in branch 1 but pruned by rule 6
        let f = Formula::or([
            Formula::Rel("P".into(), vec![Term::var("x")]),
            Formula::Eq(Term::var("x"), Term::var("y")),
        ]);
        let types = vt(&s, &[("x", Type::Atom), ("y", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        assert!(a.trace.is_empty());
    }

    #[test]
    fn rule_trace_for_fixpoint_application() {
        let s = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let fix = Arc::new(Fixpoint {
            op: FixOp::Ifp,
            rel: "S".into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                Formula::Rel("G".into(), vec![Term::var("x"), Term::var("y")]),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([
                        Formula::Rel("S".into(), vec![Term::var("x"), Term::var("z")]),
                        Formula::Rel("G".into(), vec![Term::var("z"), Term::var("y")]),
                    ]),
                ),
            ])),
        });
        let f = Formula::FixApp(fix, vec![Term::var("u"), Term::var("v")]);
        let types = vt(&s, &[("u", Type::Atom), ("v", Type::Atom)], &f);
        let a = analyze(&s, &types, &f);
        let u_rules: Vec<RrRule> = a.rules_for("u").iter().map(|r| r.rule).collect();
        assert!(u_rules.contains(&RrRule::FixApplication));
        // the body's x is restricted via the fixpoint-bound S atom (rule 1′)
        let x_rules: Vec<RrRule> = a.rules_for("x").iter().map(|r| r.rule).collect();
        assert!(
            x_rules.contains(&RrRule::FixRelationAtom) || x_rules.contains(&RrRule::RelationAtom)
        );
    }

    #[test]
    fn var_path_display_and_types() {
        let mut types = BTreeMap::new();
        types.insert(
            "t".to_string(),
            Type::tuple(vec![Type::Atom, Type::set(Type::Atom)]),
        );
        let path = p("t").child(2);
        assert_eq!(path.to_string(), "t.2");
        assert_eq!(path.type_in(&types), Some(Type::set(Type::Atom)));
        assert_eq!(p("t").child(3).type_in(&types), None);
    }
}
