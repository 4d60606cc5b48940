//! Inflationary evaluation of Datalog¬ programs, naive and semi-naive.
//!
//! The inflationary semantics (`inf-Datalog¬` in Section 3) iterates the
//! immediate-consequence operator against the *current* database and
//! accumulates: `J_i = J_{i−1} ∪ T(J_{i−1})`. Negation is evaluated
//! against the current state, so no stratification is required and the
//! iteration always converges (facts only accumulate).
//!
//! Semi-naive evaluation exploits a monotonicity fact specific to the
//! inflationary semantics: relations only grow, so a rule body that newly
//! becomes satisfiable must use a fact derived in the previous round in a
//! *positive* literal. Each round therefore only joins rule bodies with at
//! least one delta-positive literal (after the first full round). The
//! `naive_equals_seminaive` tests check the equivalence, and benchmark
//! `datalog_seminaive` measures the speedup (a design-choice ablation from
//! DESIGN.md §6).
//!
//! Rules fire through the one rule matcher ([`crate::fire`]) over
//! hash-consed rows, and the arena is the instance version's own
//! ([`Resident`]): the rounds read each EDB relation as the row set the
//! version keeps resident, interned on the version's first read and
//! shared by every evaluation until the next write. The IDB and deltas
//! are [`IdRelation`]s and cells are [`ValueId`]s, so fact dedup and
//! (not-)membership tests cost O(arity) id compares regardless of value
//! nesting. Because that arena outlives the evaluation, nothing grows it
//! for free: a constant in a relation literal is looked up, not admitted,
//! and every other rule constant is admitted and pays its growth at
//! `datalog.intern` (DESIGN.md §14, "Resident scans"). Reading the EDB
//! costs no step, cold or warm. [`eval_interned`] answers in the
//! resident ids, with the arena they live in ([`InternedIdb`]), for the
//! planner to hand on unresolved; the `eval*` entry points resolve to
//! [`Relation`]s at their own boundary.
//!
//! A round's rules share one probe cache: the IDB does not change until
//! the round barrier, so an index built for one rule's probe serves
//! every later probe of that shape in the round, and an index over an
//! EDB relation serves every round. Under semi-naive evaluation this
//! is the `HashJoin(probe=Δ)` shape `:explain` reports: each delta row's
//! bindings probe the indexes of the other body literals. Steps are the
//! matcher's, charged at `datalog.search`: index builds included, and
//! independent of hash order.
//!
//! A head row the round-start IDB already holds is dropped before it is
//! stored (its 8 bytes per column are still charged at
//! `datalog.derive`), so the rows a round collects are exactly its news:
//! they are copied into the IDB once and become the next Δ as they are.

use crate::fire::{self, IndexCache, Meter, Phase, State, Target};
use crate::program::{Literal, Program, ProgramError, Rule};
use no_exec::Resident;
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{Governor, Instance, Relation};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The computed IDB: relation name → facts.
pub type Idb = BTreeMap<String, Relation>;

/// The interned IDB used internally during evaluation.
pub(crate) type IdbI = BTreeMap<String, IdRelation>;

/// The computed IDB as the round engine derived it: interned rows, and
/// the arena their ids live in.
#[derive(Debug, Clone, Default)]
pub struct InternedIdb {
    relations: BTreeMap<String, IdRelation>,
    interner: Interner,
}

impl InternedIdb {
    /// Relation name → facts.
    pub fn relations(&self) -> &BTreeMap<String, IdRelation> {
        &self.relations
    }

    /// The arena every row's ids were issued by.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    pub(crate) fn new(relations: IdbI, interner: Interner) -> InternedIdb {
        InternedIdb {
            relations,
            interner,
        }
    }

    /// Resolve every relation back to values.
    pub fn resolve(&self) -> Idb {
        self.relations
            .iter()
            .map(|(name, rel)| (name.clone(), rel.to_relation(&self.interner)))
            .collect()
    }
}

/// Evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds until convergence.
    pub rounds: usize,
    /// Total facts derived.
    pub facts: usize,
}

/// How the inflationary rounds fire rules. Served evaluation always runs
/// `SemiNaive`; `Naive` is the §3 test oracle it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Test oracle: re-evaluate every rule against the full database each
    /// round.
    Naive,
    /// Only evaluate rules with a delta-positive literal after round one.
    SemiNaive,
}

/// Evaluate `program` on `instance` with inflationary semantics, under a
/// fresh default [`Governor`].
pub fn eval(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
) -> Result<(Idb, EvalStats), ProgramError> {
    eval_governed(program, instance, strategy, &Governor::default())
}

/// Evaluate `program` on `instance` with inflationary semantics under an
/// existing [`Governor`]: rule firing costs step fuel as the matcher
/// meters it ([`crate::fire`]), every derived fact is charged against the
/// memory budget, and each fixpoint round is checked against the
/// iteration cap.
pub fn eval_governed(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
) -> Result<(Idb, EvalStats), ProgramError> {
    let (idb, stats) = eval_interned(program, instance, strategy, governor)?;
    Ok((idb.resolve(), stats))
}

/// [`eval_governed`] without the resolve: the IDB comes back as the ids the
/// rounds derived, over the instance version's resident arena.
pub fn eval_interned(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
) -> Result<(InternedIdb, EvalStats), ProgramError> {
    program.validate(instance.schema())?;
    let resident = Resident::of(instance);
    let (relations, stats) = eval_rounds(
        program,
        instance,
        &resident,
        &IdbI::new(),
        strategy,
        governor,
    )?;
    Ok((
        InternedIdb::new(relations, resident.interner().clone()),
        stats,
    ))
}

/// An EDB relation a round reads: a lower stratum's, borrowed, or the
/// instance version's resident rows.
enum Edb<'f> {
    Lower(&'f IdRelation),
    Resident(Arc<IdRelation>),
}

impl Edb<'_> {
    fn rows(&self) -> &IdRelation {
        match self {
            Edb::Lower(rel) => rel,
            Edb::Resident(rel) => rel,
        }
    }
}

/// The round loop behind [`eval_interned`], for a program already
/// validated, over `resident` (taken from `instance`). `frozen` holds
/// relations computed earlier over the resident arena — the lower strata
/// of stratified evaluation — which the program reads like EDB relations
/// (and which win over an instance relation of the same name).
pub(crate) fn eval_rounds(
    program: &Program,
    instance: &Instance,
    resident: &Resident,
    frozen: &IdbI,
    strategy: Strategy,
    governor: &Governor,
) -> Result<(IdbI, EvalStats), ProgramError> {
    // The relations the program reads, as the version keeps them; the
    // rest of the instance is never touched.
    let interner = resident.interner();
    let mut edb: HashMap<&str, Edb<'_>> = HashMap::new();
    for lit in program.rules.iter().flat_map(|r| &r.body) {
        let (Literal::Pos(name, _) | Literal::Neg(name, _)) = lit else {
            continue;
        };
        if program.idb.contains_key(name) || edb.contains_key(name.as_str()) {
            continue;
        }
        let rel = match frozen.get(name) {
            Some(rel) => Edb::Lower(rel),
            None => Edb::Resident(resident.rows(instance, name)),
        };
        edb.insert(name, rel);
    }
    let mut idb: IdbI = program
        .idb
        .keys()
        .map(|k| (k.clone(), IdRelation::new()))
        .collect();
    let mut delta: IdbI = idb.clone();
    let mut stats = EvalStats::default();
    // the EDB is indexed once for every round
    let edb_cache = IndexCache::new();
    loop {
        stats.rounds += 1;
        governor.check_iters("datalog.round", stats.rounds as u64)?;
        let mut new_delta: IdbI = program
            .idb
            .keys()
            .map(|k| (k.clone(), IdRelation::new()))
            .collect();
        let mut grew = false;
        // One firing per rule under naive evaluation (and in the first
        // full round), one per delta-positive literal occurrence under
        // semi-naive.
        let st = RoundState::new(&edb, &idb, &edb_cache);
        let use_delta = strategy == Strategy::SemiNaive && stats.rounds > 1;
        for rule in &program.rules {
            if !use_delta {
                derive(rule, &st, None, &mut new_delta, governor, interner)?;
                continue;
            }
            for (pos, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(name, _) = lit else { continue };
                if let Some(d) = delta.get(name) {
                    derive(
                        rule,
                        &st,
                        Some((pos, d)),
                        &mut new_delta,
                        governor,
                        interner,
                    )?;
                }
            }
        }
        // every collected row is new: it joins the IDB and is the next Δ
        for (name, fresh) in new_delta {
            if !fresh.is_empty() {
                grew = true;
                idb.get_mut(&name).expect("declared IDB").absorb(&fresh);
            }
            delta.insert(name, fresh);
        }
        if !grew {
            break;
        }
    }
    stats.facts = idb.values().map(IdRelation::len).sum();
    Ok((idb, stats))
}

/// One round's view of the relations: the IDB as of the round's start
/// and the EDB (lower strata included). Neither changes until the round
/// barrier, so one probe cache serves every rule the state is shared by;
/// the EDB never changes at all, so its indexes come from a cache that
/// can outlive the round.
struct RoundState<'a> {
    edb: &'a HashMap<&'a str, Edb<'a>>,
    idb: &'a IdbI,
    empty: IdRelation,
    edb_cache: &'a IndexCache<ValueId>,
    cache: IndexCache<ValueId>,
}

impl<'a> RoundState<'a> {
    fn new(
        edb: &'a HashMap<&'a str, Edb<'a>>,
        idb: &'a IdbI,
        edb_cache: &'a IndexCache<ValueId>,
    ) -> Self {
        RoundState {
            edb,
            idb,
            empty: IdRelation::new(),
            edb_cache,
            cache: IndexCache::new(),
        }
    }
}

impl State<ValueId> for RoundState<'_> {
    type Table = IdRelation;

    fn rel(&self, name: &str, _phase: Phase) -> &IdRelation {
        (self.idb.get(name))
            .or_else(|| self.edb.get(name).map(Edb::rows))
            .unwrap_or(&self.empty)
    }

    fn target(&self, name: &str, phase: Phase) -> Target<'_, ValueId> {
        if self.idb.contains_key(name) {
            self.cache.target(name, phase)
        } else {
            self.edb_cache.target(name, phase)
        }
    }
}

/// Fire one rule against `st` (with `pinned` enumerating last round's
/// delta), collecting into `out` the head facts the round did not start
/// with.
fn derive(
    rule: &Rule,
    st: &RoundState<'_>,
    pinned: Option<(usize, &IdRelation)>,
    out: &mut IdbI,
    governor: &Governor,
    int: &Interner,
) -> Result<(), ProgramError> {
    let known = &st.idb[&rule.head];
    let out = out.get_mut(&rule.head).expect("declared IDB");
    fire::for_each_firing(
        int,
        rule,
        pinned.map(|(lit, rows)| fire::Pin { lit, rows }),
        &|_| Phase::Old,
        st,
        Meter::new(governor, "datalog.search", "datalog.search"),
        &mut |row| {
            // one id per column, charged per firing; the values behind
            // the ids are the arena's
            governor.charge_mem("datalog.derive", 8 * row.len() as u64)?;
            if !known.contains(row) {
                out.insert(row);
            }
            Ok(true)
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DTerm;
    use no_object::{RelationSchema, Schema, Type, Universe, Value};

    fn graph(edges: &[(&str, &str)]) -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for (a, b) in edges {
            let (a, b) = (u.intern(a), u.intern(b));
            i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        }
        (u, i)
    }

    fn tc_program() -> Program {
        let mut p = Program::new();
        p.declare("tc", vec![Type::Atom, Type::Atom]);
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
        p
    }

    #[test]
    fn transitive_closure_naive() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let (idb, stats) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
        assert_eq!(idb["tc"].len(), 6);
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn naive_equals_seminaive_on_chains_and_cycles() {
        for edges in [
            vec![("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
            vec![("a", "b"), ("b", "a"), ("b", "c")],
            vec![("a", "a")],
            vec![],
        ] {
            let (_u, i) = graph(&edges);
            let (n, _) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
            let (s, _) = eval(&tc_program(), &i, Strategy::SemiNaive).unwrap();
            assert_eq!(n, s, "edges {edges:?}");
        }
    }

    #[test]
    fn seminaive_does_less_work() {
        let edges: Vec<(String, String)> = (0..30)
            .map(|k| (format!("n{k}"), format!("n{}", k + 1)))
            .collect();
        let edge_refs: Vec<(&str, &str)> = edges
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let (_u, i) = graph(&edge_refs);
        let steps = |strategy| {
            let g = Governor::unlimited();
            eval_governed(&tc_program(), &i, strategy, &g).unwrap();
            g.steps_spent()
        };
        let (naive, semi) = (steps(Strategy::Naive), steps(Strategy::SemiNaive));
        assert!(semi * 2 < naive, "semi {semi} vs naive {naive}");
    }

    #[test]
    fn negation_inflationary_semantics() {
        // unreach(x, y) :- node(x), node(y), !tc(x, y).
        // Evaluated inflationarily *with* tc rules: unreach snapshots
        // pairs while tc is still growing, so it ends up a superset of the
        // true complement — the paper's point that inflationary negation
        // is about *when* a fact is derived. We check the final state
        // contains at least the true complement.
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let mut p = tc_program();
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
            "node",
            vec![DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::var("x"), DTerm::var("y")],
            )],
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
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        let a = Value::Atom(u.get("a").unwrap());
        let c = Value::Atom(u.get("c").unwrap());
        // (c, a) is never reachable, so it must be in unreach
        assert!(idb["unreach"].contains(&[c.clone(), a.clone()]));
        // (a, c) IS reachable but was unreach-derived in round 1 before tc
        // closed — inflationary semantics keeps it
        assert!(idb["unreach"].contains(&[a, c]));
    }

    #[test]
    fn membership_generates_bindings() {
        // flatten(x) :- P(S), x in S.
        let su = Type::set(Type::Atom);
        let schema = Schema::from_relations([RelationSchema::new("P", vec![su])]);
        let mut u = Universe::new();
        let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
        let mut i = Instance::empty(schema);
        i.insert("P", vec![Value::set([Value::Atom(a), Value::Atom(b)])]);
        i.insert("P", vec![Value::set([Value::Atom(c)])]);
        let mut p = Program::new();
        p.declare("flat", vec![Type::Atom]);
        p.rule(
            "flat",
            vec![DTerm::var("x")],
            vec![
                Literal::Pos("P".into(), vec![DTerm::var("S")]),
                Literal::In(DTerm::var("x"), DTerm::var("S")),
            ],
        );
        let (idb, _) = eval(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(idb["flat"].len(), 3);
    }

    #[test]
    fn constants_filter() {
        let (u, i) = graph(&[("a", "b"), ("b", "c")]);
        let a = Value::Atom(u.get("a").unwrap());
        let mut p = Program::new();
        p.declare("from_a", vec![Type::Atom]);
        p.rule(
            "from_a",
            vec![DTerm::var("y")],
            vec![Literal::Pos(
                "G".into(),
                vec![DTerm::Const(a), DTerm::var("y")],
            )],
        );
        let (idb, _) = eval(&p, &i, Strategy::Naive).unwrap();
        assert_eq!(idb["from_a"].len(), 1);
    }

    #[test]
    fn neq_and_notin_filters() {
        let (u, i) = graph(&[("a", "b"), ("b", "b")]);
        let mut p = Program::new();
        p.declare("proper", vec![Type::Atom, Type::Atom]);
        p.rule(
            "proper",
            vec![DTerm::var("x"), DTerm::var("y")],
            vec![
                Literal::Pos("G".into(), vec![DTerm::var("x"), DTerm::var("y")]),
                Literal::Neq(DTerm::var("x"), DTerm::var("y")),
            ],
        );
        let (idb, _) = eval(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(idb["proper"].len(), 1);
        assert!(idb["proper"].contains(&[
            Value::Atom(u.get("a").unwrap()),
            Value::Atom(u.get("b").unwrap())
        ]));
    }

    #[test]
    fn step_fuel_bounds_join_attempts() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let g = Governor::new(Limits {
                max_steps: 10,
                ..Limits::unlimited()
            });
            match eval_governed(&tc_program(), &i, strategy, &g) {
                Err(ProgramError::Resource(e)) => {
                    assert_eq!(e.budget, BudgetKind::Steps, "{strategy:?}");
                    assert_eq!(e.site, "datalog.search");
                }
                other => panic!("{strategy:?}: expected step Resource error, got {other:?}"),
            }
        }
    }

    #[test]
    fn iteration_cap_bounds_rounds() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let g = Governor::new(Limits {
            max_fixpoint_iters: 2,
            ..Limits::unlimited()
        });
        match eval_governed(&tc_program(), &i, Strategy::Naive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::FixpointIters);
                assert_eq!(e.site, "datalog.round");
            }
            other => panic!("expected iteration Resource error, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_bounds_derived_facts() {
        use no_object::{BudgetKind, Limits};
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let g = Governor::new(Limits {
            max_memory_bytes: 32,
            ..Limits::unlimited()
        });
        match eval_governed(&tc_program(), &i, Strategy::SemiNaive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, BudgetKind::Memory);
                assert_eq!(e.site, "datalog.derive");
            }
            other => panic!("expected memory Resource error, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let (_u, i) = graph(&[("a", "b")]);
        let g = Governor::default();
        g.cancel();
        match eval_governed(&tc_program(), &i, Strategy::Naive, &g) {
            Err(ProgramError::Resource(e)) => {
                assert_eq!(e.budget, no_object::BudgetKind::Cancelled)
            }
            other => panic!("expected cancellation error, got {other:?}"),
        }
    }

    #[test]
    fn rounds_read_the_resident_edb_of_the_current_version() {
        let (u, mut i) = graph(&[("a", "b"), ("b", "c")]);
        let run = |i: &Instance| {
            let g = Governor::unlimited();
            let (idb, _) = eval_interned(&tc_program(), i, Strategy::SemiNaive, &g).unwrap();
            (idb.resolve(), g.steps_spent(), g.mem_spent())
        };
        let cold = run(&i);
        let edb = Resident::of(&i).rows(&i, "G");
        assert_eq!(run(&i), cold, "warm answers and spends as cold");
        assert!(Arc::ptr_eq(&edb, &Resident::of(&i).rows(&i, "G")));
        // a write starts a new version; the next rounds read it
        let (a, c) = (
            Value::Atom(u.get("a").unwrap()),
            Value::Atom(u.get("c").unwrap()),
        );
        i.insert("G", vec![c, a]);
        assert!(!Arc::ptr_eq(&edb, &Resident::of(&i).rows(&i, "G")));
        assert_eq!(run(&i).0["tc"].len(), 9, "the cycle closes");
    }

    #[test]
    fn empty_program_converges_immediately() {
        let (_u, i) = graph(&[("a", "b")]);
        let p = Program::new();
        let (idb, stats) = eval(&p, &i, Strategy::Naive).unwrap();
        assert!(idb.is_empty());
        assert_eq!(stats.rounds, 1);
    }
}
