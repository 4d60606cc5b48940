//! The positive-existential fragment of CALC+IFP, and its one recognizer.
//!
//! [`decompose`] reads a query body built from ∃, ∧, at most one
//! top-level ∨, positive relation atoms over plain variables and
//! constants, equality conjuncts, and applications of closed
//! inflationary fixpoints whose bodies are (recursively) of the same
//! shape. Every variable of every disjunct occurs in a positive atom, so
//! active-domain and range-restricted semantics coincide with
//! natural-join semantics — each satisfying assignment draws each value
//! from a relation column, hence from the active domain. The planner
//! reads its engine off the result, once per compile:
//!
//! - no fixpoint and one disjunct — a *flat conjunctive* query, lowered
//!   to the columnar join kernels of `no-exec` ([Thm 4.1]'s
//!   data-complexity bound is preserved since joins are polynomial in
//!   `|I|`);
//! - no fixpoint and several disjuncts — a union of such plans;
//! - fixpoints — one more positive atom per application, over the IDB
//!   relation a [`FixpointDef`] defines: the program the planner runs on
//!   the semi-naive round engine.
//!
//! The recognizer is syntactic and conservative: anything with
//! negation, nested disjunction, ∀, →, ↔, membership, containment,
//! projection or fixpoint terms, or a partial or open fixpoint is a
//! [`Reject`] naming the first obstacle, and the query stays on the
//! tree-walk evaluator. Equalities are solved here — variable/variable
//! merges via union–find, variable/constant pins, constant/constant
//! either vanishing or marking the disjunct statically unsatisfiable — so
//! the lowered plans see only atoms, canonical variables, and pins.

use crate::ast::{FixOp, Fixpoint, Formula, RelName, Term, VarName};
use crate::eval::Query;
use no_object::{Type, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// An argument position of a conjunctive atom, after equality solving:
/// either a canonical variable or a constant.
#[derive(Clone, Debug, PartialEq)]
pub enum CArg {
    /// A canonical (union–find representative) variable.
    Var(VarName),
    /// A complex-object constant.
    Const(Value),
}

/// A flat conjunctive query: positive atoms, canonical head variables,
/// and residual variable pins.
#[derive(Clone, Debug, PartialEq)]
pub struct ConjunctiveQuery {
    /// The positive atoms, in body order, with canonicalized arguments.
    pub atoms: Vec<(RelName, Vec<CArg>)>,
    /// One canonical variable per head column (head order preserved).
    pub head: Vec<VarName>,
    /// Variables forced to a constant by an equality conjunct.
    pub pins: BTreeMap<VarName, Value>,
    /// True when equality conjuncts are contradictory (`'a' = 'b'`, or
    /// one variable pinned to two constants): the result is statically
    /// empty.
    pub unsat: bool,
}

/// Why a query is outside the fragment: the first construct the
/// recognizer gave up on, phrased for `explain`.
pub type Reject = String;

fn outside(construct: &str) -> Reject {
    format!("{construct} is outside the positive-existential fragment")
}

struct Collector<'f> {
    bound: HashSet<VarName>,
    atoms: Vec<(RelName, Vec<CArg>)>,
    var_eqs: Vec<(VarName, VarName)>,
    raw_pins: Vec<(VarName, Value)>,
    unsat: bool,
    /// Where fixpoint applications register.
    fixes: &'f mut Fixes,
}

impl Collector<'_> {
    /// Atom arguments must be in-scope variables or constants.
    fn args(&self, rel: &str, args: &[Term]) -> Result<Vec<CArg>, Reject> {
        args.iter()
            .map(|a| match a {
                Term::Var(v) if self.bound.contains(v) => Ok(CArg::Var(v.clone())),
                Term::Const(c) => Ok(CArg::Const(c.clone())),
                Term::Var(v) => Err(format!("variable {v} is not in scope")),
                _ => Err(format!("{rel} takes a projection or fixpoint term")),
            })
            .collect()
    }

    fn collect(&mut self, f: &Formula) -> Result<(), Reject> {
        match f {
            Formula::And(parts) => parts.iter().try_for_each(|p| self.collect(p)),
            Formula::Exists(v, _, inner) => {
                // Reject shadowing outright rather than α-renaming: the
                // fragment check must stay conservative.
                if !self.bound.insert(v.clone()) {
                    return Err(format!("variable {v} is bound twice"));
                }
                self.collect(inner)
            }
            Formula::Rel(name, args) => {
                let args = self.args(name, args)?;
                // An enclosing fixpoint's relation variable reads its IDB.
                let name = match self.fixes.in_scope(name) {
                    Some(idb) => idb.clone(),
                    None => name.clone(),
                };
                self.atoms.push((name, args));
                Ok(())
            }
            Formula::FixApp(fix, args) => {
                let args = self.args(&fix.rel, args)?;
                let idb = self.fixes.apply(fix)?;
                self.atoms.push((idb, args));
                Ok(())
            }
            Formula::Eq(a, b) => match (a, b) {
                (Term::Var(x), Term::Var(y))
                    if self.bound.contains(x) && self.bound.contains(y) =>
                {
                    self.var_eqs.push((x.clone(), y.clone()));
                    Ok(())
                }
                (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x))
                    if self.bound.contains(x) =>
                {
                    self.raw_pins.push((x.clone(), c.clone()));
                    Ok(())
                }
                (Term::Const(c1), Term::Const(c2)) => {
                    if c1 != c2 {
                        self.unsat = true;
                    }
                    Ok(())
                }
                _ => Err("= compares a projection, fixpoint term or out-of-scope variable".into()),
            },
            Formula::Not(g) => {
                let under = g.referenced_relations();
                let recursive = under.into_iter().find(|r| self.fixes.in_scope(r).is_some());
                Err(match recursive {
                    Some(rel) => format!("{rel} occurs under ¬"),
                    None => outside("¬"),
                })
            }
            Formula::Or(_) => Err(outside("nested ∨")),
            Formula::Forall(..) => Err(outside("∀")),
            Formula::Implies(..) => Err(outside("→")),
            Formula::Iff(..) => Err(outside("↔")),
            Formula::In(..) => Err(outside("∈")),
            Formula::Subset(..) => Err(outside("⊆")),
        }
    }
}

/// Union–find with lexicographically-least representatives, so canonical
/// names are deterministic for a given query text.
fn resolve(parent: &mut HashMap<VarName, VarName>, v: &str) -> VarName {
    let p = match parent.get(v) {
        None => return v.to_string(),
        Some(p) => p.clone(),
    };
    if p == v {
        return p;
    }
    let root = resolve(parent, &p);
    parent.insert(v.to_string(), root.clone());
    root
}

/// One conjunctive body over `head`; fixpoint applications are atoms over
/// the IDB `fixes` names them. Rejected when some variable occurs in no
/// atom: such a body needs domain enumeration, not joins.
fn conjunct(
    head: &[(VarName, Type)],
    body: &Formula,
    fixes: &mut Fixes,
) -> Result<ConjunctiveQuery, Reject> {
    let mut c = Collector {
        bound: HashSet::new(),
        atoms: Vec::new(),
        var_eqs: Vec::new(),
        raw_pins: Vec::new(),
        unsat: false,
        fixes,
    };
    for (v, _) in head {
        if !c.bound.insert(v.clone()) {
            return Err(format!("duplicate head variable {v}"));
        }
    }
    c.collect(body)?;
    if c.atoms.is_empty() {
        return Err("a disjunct has no relation atom".into());
    }

    let mut parent: HashMap<VarName, VarName> = HashMap::new();
    for (x, y) in &c.var_eqs {
        let rx = resolve(&mut parent, x);
        let ry = resolve(&mut parent, y);
        if rx != ry {
            // Lexicographically-least name wins as representative.
            let (lo, hi) = if rx < ry { (rx, ry) } else { (ry, rx) };
            parent.insert(hi, lo);
        }
    }

    let mut unsat = c.unsat;
    let mut pins: BTreeMap<VarName, Value> = BTreeMap::new();
    for (x, v) in &c.raw_pins {
        let r = resolve(&mut parent, x);
        match pins.get(&r) {
            Some(prev) if prev != v => unsat = true,
            _ => {
                pins.insert(r, v.clone());
            }
        }
    }

    let atoms: Vec<(RelName, Vec<CArg>)> = c
        .atoms
        .iter()
        .map(|(name, args)| {
            let args = args
                .iter()
                .map(|a| match a {
                    CArg::Var(v) => CArg::Var(resolve(&mut parent, v)),
                    CArg::Const(v) => CArg::Const(v.clone()),
                })
                .collect();
            (name.clone(), args)
        })
        .collect();

    let head: Vec<VarName> = head.iter().map(|(v, _)| resolve(&mut parent, v)).collect();

    let in_atoms: HashSet<&str> = atoms
        .iter()
        .flat_map(|(_, args)| args.iter())
        .filter_map(|a| match a {
            CArg::Var(v) => Some(v.as_str()),
            CArg::Const(_) => None,
        })
        .collect();
    let mentioned = head.iter().cloned().chain(pins.keys().cloned()).chain(
        c.var_eqs
            .iter()
            .flat_map(|(x, y)| [x.clone(), y.clone()])
            .map(|v| resolve(&mut parent, &v)),
    );
    for v in mentioned {
        if !in_atoms.contains(v.as_str()) {
            return Err(format!("variable {v} bound by no atom"));
        }
    }

    Ok(ConjunctiveQuery {
        atoms,
        head,
        pins,
        unsat,
    })
}

/// One fixpoint of a [`FixpointQuery`]: the IDB relation it defines and
/// one conjunctive body per disjunct of `φ(S)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FixpointDef {
    /// The relation's name in the program — the fixpoint's own name
    /// unless another fixpoint of the query took it first.
    pub idb: RelName,
    /// Column types.
    pub columns: Vec<Type>,
    /// The disjuncts of the body, each over the fixpoint's columns; an
    /// atom over `idb` (or an enclosing fixpoint's) is recursive.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

/// A query in the positive-existential fragment of CALC+IFP: unions of
/// flat conjunctive bodies in which a fixpoint application is one more
/// positive atom, over the relation its [`FixpointDef`] defines. With no
/// fixpoints it is a flat conjunctive query, or a union of them.
#[derive(Clone, Debug, PartialEq)]
pub struct FixpointQuery {
    /// Every distinct fixpoint applied, inner before outer.
    pub fixpoints: Vec<FixpointDef>,
    /// The disjuncts of the query body, each over the query head.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

/// `base`, or the first of `base_2`, `base_3`, … that is not `taken`.
pub fn fresh_name(base: &str, taken: impl Fn(&str) -> bool) -> RelName {
    std::iter::once(base.to_string())
        .chain((2..).map(|k| format!("{base}_{k}")))
        .find(|name| !taken(name))
        .expect("an unbounded supply of names")
}

/// Enclosing fixpoints, innermost last: source name → IDB name.
type Scope = Vec<(RelName, RelName)>;

/// The fixpoints recognized so far, each once, named apart.
#[derive(Default)]
struct Fixes {
    scope: Scope,
    /// Identity and scope of each recognized application. The scope is
    /// part of the key because a body may read an enclosing fixpoint's
    /// relation: one `Arc` under two different enclosures is two IDBs.
    seen: Vec<(*const Fixpoint, Scope, RelName)>,
    defs: Vec<FixpointDef>,
}

impl Fixes {
    fn in_scope(&self, rel: &str) -> Option<&RelName> {
        let hit = self.scope.iter().rev().find(|(src, _)| src == rel);
        hit.map(|(_, idb)| idb)
    }

    /// The IDB name for an application of `fix`, recognizing its body on
    /// first sight.
    fn apply(&mut self, fix: &Arc<Fixpoint>) -> Result<RelName, Reject> {
        if fix.op != FixOp::Ifp {
            return Err(format!("{} is a partial fixpoint (pfp)", fix.rel));
        }
        if let Some(v) = fix
            .body
            .free_vars()
            .into_iter()
            .find(|v| !fix.vars.iter().any(|(c, _)| c == v))
        {
            return Err(format!("fixpoint {} is open in {v}", fix.rel));
        }
        let id = Arc::as_ptr(fix);
        if let Some((_, _, idb)) = self
            .seen
            .iter()
            .find(|(p, scope, _)| *p == id && *scope == self.scope)
        {
            return Ok(idb.clone());
        }
        let idb = fresh_name(&fix.rel, |name| {
            self.defs.iter().any(|d| d.idb == name) || self.scope.iter().any(|(_, i)| i == name)
        });
        self.scope.push((fix.rel.clone(), idb.clone()));
        let body = disjuncts(&fix.vars, &fix.body, self);
        self.scope.pop();
        self.defs.push(FixpointDef {
            idb: idb.clone(),
            columns: fix.column_types(),
            disjuncts: body?,
        });
        self.seen.push((id, self.scope.clone(), idb.clone()));
        Ok(idb)
    }
}

/// A body with at most one top-level ∨, each disjunct conjunctive.
fn disjuncts(
    head: &[(VarName, Type)],
    body: &Formula,
    fixes: &mut Fixes,
) -> Result<Vec<ConjunctiveQuery>, Reject> {
    let parts = match body {
        Formula::Or(parts) => parts.as_slice(),
        one => std::slice::from_ref(one),
    };
    parts.iter().map(|d| conjunct(head, d, fixes)).collect()
}

/// Recognize the positive-existential fragment of CALC+IFP: a body built
/// from ∃, ∧, at most one top-level ∨, positive atoms and equalities over
/// variables and constants, and applications of fixpoints that are
/// inflationary, closed, and — recursively — have such a body. With no
/// negation anywhere every stage operator is monotone, so nested
/// inflationary fixpoints, one simultaneous fixpoint and the least
/// fixpoint of the corresponding Datalog program all coincide. The query
/// must type-check; `Err` names the first construct outside the fragment.
pub fn decompose(q: &Query) -> Result<FixpointQuery, Reject> {
    let mut fixes = Fixes::default();
    let disjuncts = disjuncts(&q.head, &q.body, &mut fixes)?;
    Ok(FixpointQuery {
        fixpoints: fixes.defs,
        disjuncts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{Universe, Value};

    fn var(v: &str) -> Term {
        Term::var(v)
    }

    fn atom_val(u: &Universe, name: &str) -> Value {
        Value::atom(u.get(name).unwrap())
    }

    fn g(x: Term, y: Term) -> Formula {
        Formula::Rel("G".into(), vec![x, y])
    }

    /// The one disjunct of a query with no fixpoint.
    fn flat(q: &Query) -> ConjunctiveQuery {
        let fq = decompose(q).expect("in the fragment");
        assert!(fq.fixpoints.is_empty());
        let [cq] = <[_; 1]>::try_from(fq.disjuncts).expect("one disjunct");
        cq
    }

    #[test]
    fn recognizes_join_with_existential() {
        // q(x) :- exists y (G(x,y) /\ G(y,x))
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::Exists(
                "y".into(),
                Type::Atom,
                Box::new(Formula::and([g(var("x"), var("y")), g(var("y"), var("x"))])),
            ),
        );
        let cq = flat(&q);
        assert_eq!(cq.atoms.len(), 2);
        assert_eq!(cq.head, vec!["x".to_string()]);
        assert!(!cq.unsat);
        assert!(cq.pins.is_empty());
    }

    #[test]
    fn equalities_unify_and_pin() {
        let u = Universe::with_names(["a", "b"]);
        // q(x,z) :- G(x,y) /\ y = z /\ G(z,w) /\ w = 'a' — with z,y,w ∃-bound…
        // keep it free-var simple: head (x, z).
        let body = Formula::Exists(
            "y".into(),
            Type::Atom,
            Box::new(Formula::Exists(
                "w".into(),
                Type::Atom,
                Box::new(Formula::and([
                    g(var("x"), var("y")),
                    Formula::Eq(var("y"), var("z")),
                    g(var("z"), var("w")),
                    Formula::Eq(var("w"), Term::Const(atom_val(&u, "a"))),
                ])),
            )),
        );
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("z".into(), Type::Atom)],
            body,
        );
        let cq = flat(&q);
        // y and z merged to one representative appearing in both atoms.
        let rep = &cq.head[1];
        assert!(cq
            .atoms
            .iter()
            .all(|(_, args)| args.iter().any(|a| a == &CArg::Var(rep.clone()))));
        assert_eq!(cq.pins.len(), 1);
        assert!(!cq.unsat);
    }

    #[test]
    fn contradictory_pins_mark_unsat() {
        let u = Universe::with_names(["a", "b"]);
        let body = Formula::and([
            g(var("x"), var("x")),
            Formula::Eq(var("x"), Term::Const(atom_val(&u, "a"))),
            Formula::Eq(var("x"), Term::Const(atom_val(&u, "b"))),
        ]);
        let q = Query::new(vec![("x".into(), Type::Atom)], body);
        let cq = flat(&q);
        assert!(cq.unsat);
    }

    #[test]
    fn union_of_conjunctive_disjuncts_decomposes() {
        // q(x,y) :- G(x,y) \/ G(y,x)
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::or([g(var("x"), var("y")), g(var("y"), var("x"))]),
        );
        let cqs = decompose(&q).expect("union of conjunctive").disjuncts;
        assert_eq!(cqs.len(), 2);
        assert_eq!(cqs[0].head, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(cqs[1].atoms[0].1[0], CArg::Var("y".into()));
    }

    #[test]
    fn union_rejects_unsafe_or_nested_disjuncts() {
        // one disjunct fails to bind y through an atom
        let q = Query::new(
            vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            Formula::or([
                g(var("x"), var("y")),
                Formula::and([g(var("x"), var("x")), Formula::Eq(var("y"), var("y"))]),
            ]),
        );
        assert!(decompose(&q).is_err());
        // negation inside a disjunct
        let q = Query::new(
            vec![("x".into(), Type::Atom)],
            Formula::or([
                g(var("x"), var("x")),
                Formula::Not(Box::new(g(var("x"), var("x")))),
            ]),
        );
        assert!(decompose(&q).is_err());
    }

    /// `ifp(name; x, y | G(x,y) ∨ ∃z (name(x,z) ∧ G(z,y)))`, optionally
    /// another operator or with a body variable the columns do not bind.
    fn closure(name: &str, op: FixOp, free: Option<&str>) -> Arc<Fixpoint> {
        let s = |x: Term, y: Term| Formula::Rel(name.into(), vec![x, y]);
        let last = free.unwrap_or("y");
        Arc::new(Fixpoint {
            op,
            rel: name.into(),
            vars: vec![("x".into(), Type::Atom), ("y".into(), Type::Atom)],
            body: Box::new(Formula::or([
                g(var("x"), var("y")),
                Formula::exists(
                    "z",
                    Type::Atom,
                    Formula::and([s(var("x"), var("z")), g(var("z"), var(last))]),
                ),
            ])),
        })
    }

    fn pair_query(body: Formula) -> Query {
        Query::new(
            vec![("u".into(), Type::Atom), ("v".into(), Type::Atom)],
            body,
        )
    }

    #[test]
    fn fixpoint_application_is_an_atom_over_its_idb() {
        let fix = closure("S", FixOp::Ifp, None);
        let app = |a: &str, b: &str| Formula::FixApp(Arc::clone(&fix), vec![var(a), var(b)]);
        // one Arc applied twice is one IDB…
        let fq = decompose(&pair_query(Formula::and([app("u", "v"), app("v", "u")])))
            .expect("in the fragment");
        assert_eq!(fq.fixpoints.len(), 1);
        let def = &fq.fixpoints[0];
        assert_eq!((def.idb.as_str(), def.disjuncts.len()), ("S", 2));
        assert_eq!(def.disjuncts[1].atoms[0].0, "S", "the recursive atom");
        assert!(fq.disjuncts[0].atoms.iter().all(|(rel, _)| rel == "S"));
        // …two fixpoints that share a name are two, named apart
        let other = closure("S", FixOp::Ifp, None);
        let both = Formula::and([
            app("u", "v"),
            Formula::FixApp(other, vec![var("v"), var("u")]),
        ]);
        let fq = decompose(&pair_query(both)).expect("in the fragment");
        let names: Vec<&str> = fq.fixpoints.iter().map(|d| d.idb.as_str()).collect();
        assert_eq!(names, ["S", "S_2"]);
        assert_eq!(fq.fixpoints[1].disjuncts[1].atoms[0].0, "S_2");
    }

    #[test]
    fn fixpoint_rejections_name_the_first_obstacle() {
        let reject = |fix: Arc<Fixpoint>| {
            let q = pair_query(Formula::FixApp(fix, vec![var("u"), var("v")]));
            decompose(&q).expect_err("outside the fragment")
        };
        assert_eq!(
            reject(closure("S", FixOp::Pfp, None)),
            "S is a partial fixpoint (pfp)"
        );
        assert_eq!(
            reject(closure("S", FixOp::Ifp, Some("w"))),
            "fixpoint S is open in w"
        );
        let mut negated = (*closure("S", FixOp::Ifp, None)).clone();
        negated.body = Box::new(Formula::and([
            g(var("x"), var("y")),
            Formula::Rel("S".into(), vec![var("y"), var("x")]).not(),
        ]));
        assert_eq!(reject(Arc::new(negated)), "S occurs under ¬");
    }

    #[test]
    fn rejects_everything_outside_the_fragment() {
        let mk = |body: Formula| Query::new(vec![("x".into(), Type::Atom)], body);
        let cases = [
            Formula::Not(Box::new(g(var("x"), var("x")))),
            Formula::and([
                g(var("x"), var("x")),
                Formula::or([g(var("x"), var("x")), g(var("x"), var("x"))]),
            ]),
            Formula::Forall("y".into(), Type::Atom, Box::new(g(var("x"), var("y")))),
            Formula::In(var("x"), var("x")),
            Formula::Rel("G".into(), vec![var("x"), var("x").proj(1)]),
            // variable occurring in no atom
            Formula::Eq(var("x"), var("x")),
        ];
        for body in cases {
            let q = mk(body);
            assert!(decompose(&q).is_err(), "must reject {:?}", q.body);
        }
    }
}
