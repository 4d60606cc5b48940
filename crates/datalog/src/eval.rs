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
//! The join loops run over hash-consed rows: the relations the program
//! reads are interned once per evaluation (the rest of the instance is
//! never touched), the IDB and deltas are [`IdRelation`]s, and unification
//! binds [`ValueId`]s — so fact dedup and (not-)membership tests cost
//! O(arity) id compares regardless of value nesting. Results resolve back
//! to [`Relation`]s at the boundary.
//!
//! Positive body literals are *index-probed*: per rule evaluation, the
//! first literal argument whose value is already known when the literal
//! is reached (a constant, or a variable bound by an earlier literal)
//! keys a lazily-built hash index over the literal's relation, and only
//! the matching group is unified. Under semi-naive evaluation this is the
//! `HashJoin(probe=Δ)` shape `:explain` reports: each delta row's
//! bindings probe the indexes of the later body literals. Probing is an
//! iteration-order optimization only — the rows it skips would have
//! failed the same id compare inside the unification loop *without
//! consuming fuel* — so derived facts, [`EvalStats::joins`], and step
//! accounting are bit-for-bit identical to the full-scan engine.

use crate::program::{DTerm, Literal, Program, ProgramError, Rule};
use minipool::ThreadPool;
use no_object::intern::{IdRelation, Interner, ValueId};
use no_object::{Governor, Instance, Relation};
use std::collections::{BTreeMap, HashMap};

/// The computed IDB: relation name → facts.
pub type Idb = BTreeMap<String, Relation>;

/// The interned IDB used internally during evaluation.
type IdbI = BTreeMap<String, IdRelation>;

/// Evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds until convergence.
    pub rounds: usize,
    /// Total facts derived.
    pub facts: usize,
    /// Rule-body join attempts (work measure).
    pub joins: u64,
}

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Re-evaluate every rule against the full database each round.
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
/// existing [`Governor`]: every rule-body join attempt costs one unit of
/// step fuel, every derived fact is charged against the memory budget, and
/// each fixpoint round is checked against the iteration cap.
pub fn eval_governed(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
) -> Result<(Idb, EvalStats), ProgramError> {
    eval_pooled(
        program,
        instance,
        strategy,
        governor,
        &ThreadPool::sequential(),
    )
}

/// A rule task's view of the delta: which body position (if any) is pinned
/// to last round's delta, and the rows it is pinned to. Chunked tasks own
/// their slice of the delta; unchunked tasks borrow the whole relation.
enum Pin<'r> {
    None,
    Borrowed(usize, &'r IdRelation),
    Owned(usize, IdRelation),
}

impl Pin<'_> {
    fn get(&self) -> Option<(usize, &IdRelation)> {
        match self {
            Pin::None => None,
            Pin::Borrowed(pos, rel) => Some((*pos, rel)),
            Pin::Owned(pos, rel) => Some((*pos, rel)),
        }
    }
}

/// Split `rel` into at most `parts` non-empty relations covering its rows.
fn partition_rows(rel: &IdRelation, parts: usize) -> Vec<IdRelation> {
    let n = parts.clamp(1, rel.len().max(1));
    let mut chunks = vec![IdRelation::new(); n];
    for (i, row) in rel.iter().enumerate() {
        chunks[i % n].insert(row.to_vec().into_boxed_slice());
    }
    chunks
}

/// [`eval_governed`] with an explicit [`ThreadPool`]. At `threads == 1` the
/// round loop is executed exactly as in previous releases; at higher
/// parallelism each round's rule evaluations — and, under semi-naive, each
/// (rule, delta-position, delta-chunk) — become independent tasks fanned
/// out over the pool, with worker-local outputs merged at the round
/// barrier. Derived relations are identical at every parallelism level;
/// [`EvalStats::joins`] and the exact step-fuel trip point may differ when
/// `threads > 1` because chunked tasks re-scan the body prefix before the
/// pinned literal.
pub fn eval_pooled(
    program: &Program,
    instance: &Instance,
    strategy: Strategy,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<(Idb, EvalStats), ProgramError> {
    program.validate(instance.schema())?;
    eval_rounds(program, instance, &Idb::new(), strategy, governor, pool)
}

/// The round loop behind [`eval_pooled`], for a program already validated.
/// `frozen` holds relations computed earlier — the lower strata of
/// stratified evaluation — which the program reads like EDB relations
/// (and which win over an instance relation of the same name).
pub(crate) fn eval_rounds(
    program: &Program,
    instance: &Instance,
    frozen: &Idb,
    strategy: Strategy,
    governor: &Governor,
    pool: &ThreadPool,
) -> Result<(Idb, EvalStats), ProgramError> {
    let interner = Interner::new();
    // Intern the relations the program reads once, as input data
    // (uncharged); the rest of the instance is never touched.
    let mut edb: HashMap<String, IdRelation> = HashMap::new();
    for lit in program.rules.iter().flat_map(|r| &r.body) {
        let (Literal::Pos(name, _) | Literal::Neg(name, _)) = lit else {
            continue;
        };
        if program.idb.contains_key(name) || edb.contains_key(name) {
            continue;
        }
        let rel = frozen.get(name).unwrap_or_else(|| instance.relation(name));
        edb.insert(name.clone(), IdRelation::from_relation(&interner, rel));
    }
    let mut idb: IdbI = program
        .idb
        .keys()
        .map(|k| (k.clone(), IdRelation::new()))
        .collect();
    let mut delta: IdbI = idb.clone();
    let mut stats = EvalStats::default();
    loop {
        stats.rounds += 1;
        governor.check_iters("datalog.round", stats.rounds as u64)?;
        let mut new_delta: IdbI = program
            .idb
            .keys()
            .map(|k| (k.clone(), IdRelation::new()))
            .collect();
        let mut grew = false;
        // Build this round's task list: one task per rule under naive
        // evaluation (and in the first full round), one per delta-positive
        // literal occurrence under semi-naive — split further into
        // per-chunk tasks when the delta is large enough to share.
        let mut tasks: Vec<(&Rule, Pin<'_>)> = Vec::new();
        for rule in &program.rules {
            let use_delta = strategy == Strategy::SemiNaive && stats.rounds > 1;
            if use_delta {
                for (pos, lit) in rule.body.iter().enumerate() {
                    let Literal::Pos(name, _) = lit else { continue };
                    if !idb.contains_key(name) {
                        continue;
                    }
                    let d = &delta[name];
                    if pool.threads() > 1 && d.len() >= 2 {
                        for chunk in partition_rows(d, pool.threads()) {
                            tasks.push((rule, Pin::Owned(pos, chunk)));
                        }
                    } else {
                        tasks.push((rule, Pin::Borrowed(pos, d)));
                    }
                }
            } else {
                tasks.push((rule, Pin::None));
            }
        }
        if pool.threads() > 1 && tasks.len() > 1 {
            let results = pool.try_map(tasks, |(rule, pin)| {
                let mut local: IdbI = program
                    .idb
                    .keys()
                    .map(|k| (k.clone(), IdRelation::new()))
                    .collect();
                let mut local_stats = EvalStats::default();
                derive(
                    rule,
                    &edb,
                    &idb,
                    pin.get(),
                    &mut local,
                    &mut local_stats,
                    governor,
                    &interner,
                )?;
                Ok::<(IdbI, u64), ProgramError>((local, local_stats.joins))
            })?;
            for (local, joins) in results {
                stats.joins += joins;
                for (name, rel) in local {
                    if !rel.is_empty() {
                        new_delta.get_mut(&name).expect("declared IDB").absorb(&rel);
                    }
                }
            }
        } else {
            for (rule, pin) in &tasks {
                derive(
                    rule,
                    &edb,
                    &idb,
                    pin.get(),
                    &mut new_delta,
                    &mut stats,
                    governor,
                    &interner,
                )?;
            }
        }
        for (name, facts) in &new_delta {
            let target = idb.get_mut(name).expect("declared IDB");
            let mut fresh = IdRelation::new();
            for row in facts.iter() {
                if !target.contains(row) {
                    fresh.insert(row.to_vec().into_boxed_slice());
                }
            }
            if !fresh.is_empty() {
                grew = true;
                target.absorb(&fresh);
            }
            delta.insert(name.to_string(), fresh);
        }
        if !grew {
            break;
        }
    }
    stats.facts = idb.values().map(IdRelation::len).sum();
    let resolved: Idb = idb
        .into_iter()
        .map(|(name, rel)| (name, rel.to_relation(&interner)))
        .collect();
    Ok((resolved, stats))
}

/// A positive literal's lazily-built probe index. Which argument position
/// keys the index depends only on the body *prefix* (the set of variables
/// bound before a given depth is the same for every visit), so one slot
/// per body literal suffices for a whole rule evaluation.
enum Probe {
    /// Not yet decided for this rule evaluation.
    Unbuilt,
    /// No argument is known when the literal is reached: scan.
    Scan,
    /// Rows grouped by the value at `col`; probes clone only the matching
    /// group (O(matches), each of which is recursed into anyway).
    Index {
        /// The probed argument position.
        col: usize,
        /// Rows grouped by their value at `col`.
        groups: HashMap<ValueId, Vec<Box<[ValueId]>>>,
    },
}

/// Evaluate one rule body by backtracking over literals left to right,
/// inserting derived head facts into `out`.
#[allow(clippy::too_many_arguments)]
fn derive(
    rule: &Rule,
    edb: &HashMap<String, IdRelation>,
    idb: &IdbI,
    pinned: Option<(usize, &IdRelation)>,
    out: &mut IdbI,
    stats: &mut EvalStats,
    governor: &Governor,
    int: &Interner,
) -> Result<(), ProgramError> {
    let mut env: HashMap<String, ValueId> = HashMap::new();
    let mut probes: Vec<Probe> = rule.body.iter().map(|_| Probe::Unbuilt).collect();
    search(
        rule,
        edb,
        idb,
        pinned,
        0,
        &mut env,
        &mut probes,
        out,
        stats,
        governor,
        int,
    )
}

fn lookup_rel<'a>(
    name: &str,
    edb: &'a HashMap<String, IdRelation>,
    idb: &'a IdbI,
) -> Option<&'a IdRelation> {
    idb.get(name).or_else(|| edb.get(name))
}

fn eval_term(t: &DTerm, env: &HashMap<String, ValueId>, int: &Interner) -> Option<ValueId> {
    match t {
        // hash-consed: repeated constant evaluation is a map lookup
        DTerm::Const(c) => Some(int.intern(c)),
        DTerm::Var(v) => env.get(v).copied(),
    }
}

/// Unify a row against a literal's arguments under `env`. Returns whether
/// the row matched and which variables this row newly bound (for the
/// caller to undo); on mismatch, bindings made before the failing column
/// are already recorded in the returned list.
fn unify<'a>(
    args: &'a [DTerm],
    consts: &[Option<ValueId>],
    row: &[ValueId],
    env: &mut HashMap<String, ValueId>,
) -> (bool, Vec<&'a str>) {
    let mut bound_here: Vec<&str> = Vec::new();
    for ((arg, cid), &val) in args.iter().zip(consts).zip(row.iter()) {
        match arg {
            DTerm::Const(_) => {
                if *cid != Some(val) {
                    return (false, bound_here);
                }
            }
            DTerm::Var(v) => match env.get(v) {
                Some(&existing) => {
                    if existing != val {
                        return (false, bound_here);
                    }
                }
                None => {
                    env.insert(v.clone(), val);
                    bound_here.push(v);
                }
            },
        }
    }
    (true, bound_here)
}

#[allow(clippy::too_many_arguments)]
fn search(
    rule: &Rule,
    edb: &HashMap<String, IdRelation>,
    idb: &IdbI,
    pinned: Option<(usize, &IdRelation)>,
    depth: usize,
    env: &mut HashMap<String, ValueId>,
    probes: &mut Vec<Probe>,
    out: &mut IdbI,
    stats: &mut EvalStats,
    governor: &Governor,
    int: &Interner,
) -> Result<(), ProgramError> {
    stats.joins += 1;
    governor.tick("datalog.search")?;
    if depth == rule.body.len() {
        // all literals satisfied: emit the head fact
        let row: Option<Vec<ValueId>> = rule
            .head_args
            .iter()
            .map(|t| eval_term(t, env, int))
            .collect();
        if let Some(row) = row {
            // one id per column; the values behind the ids were admitted
            // to the arena (and charged, where applicable) once
            governor.charge_mem("datalog.derive", 8 * row.len() as u64)?;
            out.get_mut(&rule.head)
                .expect("declared IDB")
                .insert(row.into_boxed_slice());
        }
        return Ok(());
    }
    let lit = &rule.body[depth];
    match lit {
        Literal::Pos(name, args) => {
            let rel = match pinned {
                Some((pos, drel)) if pos == depth => drel,
                _ => match lookup_rel(name, edb, idb) {
                    Some(r) => r,
                    None => return Ok(()),
                },
            };
            // Pre-intern constant args so unification inside the scan is
            // pure id compares.
            let consts: Vec<Option<ValueId>> = args
                .iter()
                .map(|a| match a {
                    DTerm::Const(c) => Some(int.intern(c)),
                    DTerm::Var(_) => None,
                })
                .collect();
            // Decide (once per rule evaluation) whether this literal can
            // probe: the first argument whose value is known here keys a
            // hash index over the relation. Scratch only — never charged,
            // like the scans it replaces.
            if matches!(probes[depth], Probe::Unbuilt) {
                let col = args.iter().position(|a| match a {
                    DTerm::Const(_) => true,
                    DTerm::Var(v) => env.contains_key(v),
                });
                probes[depth] = match col {
                    None => Probe::Scan,
                    Some(col) => {
                        let mut groups: HashMap<ValueId, Vec<Box<[ValueId]>>> = HashMap::new();
                        for row in rel.iter() {
                            groups
                                .entry(row[col])
                                .or_default()
                                .push(row.to_vec().into_boxed_slice());
                        }
                        Probe::Index { col, groups }
                    }
                };
            }
            let probed: Option<Vec<Box<[ValueId]>>> = match &probes[depth] {
                Probe::Scan => None,
                Probe::Index { col, groups } => {
                    let key = match &args[*col] {
                        DTerm::Const(_) => consts[*col].expect("interned above"),
                        DTerm::Var(v) => env[v.as_str()],
                    };
                    Some(groups.get(&key).cloned().unwrap_or_default())
                }
                Probe::Unbuilt => unreachable!("decided above"),
            };
            match probed {
                Some(rows) => {
                    for row in &rows {
                        let (ok, bound_here) = unify(args, &consts, row, env);
                        let deeper = if ok {
                            search(
                                rule,
                                edb,
                                idb,
                                pinned,
                                depth + 1,
                                env,
                                probes,
                                out,
                                stats,
                                governor,
                                int,
                            )
                        } else {
                            Ok(())
                        };
                        for v in bound_here {
                            env.remove(v);
                        }
                        deeper?;
                    }
                }
                None => {
                    for row in rel.iter() {
                        let (ok, bound_here) = unify(args, &consts, row, env);
                        let deeper = if ok {
                            search(
                                rule,
                                edb,
                                idb,
                                pinned,
                                depth + 1,
                                env,
                                probes,
                                out,
                                stats,
                                governor,
                                int,
                            )
                        } else {
                            Ok(())
                        };
                        for v in bound_here {
                            env.remove(v);
                        }
                        deeper?;
                    }
                }
            }
            Ok(())
        }
        Literal::Neg(name, args) => {
            let row: Option<Vec<ValueId>> = args.iter().map(|t| eval_term(t, env, int)).collect();
            let Some(row) = row else { return Ok(()) };
            let holds = lookup_rel(name, edb, idb)
                .map(|r| r.contains(&row))
                .unwrap_or(false);
            if !holds {
                search(
                    rule,
                    edb,
                    idb,
                    pinned,
                    depth + 1,
                    env,
                    probes,
                    out,
                    stats,
                    governor,
                    int,
                )?;
            }
            Ok(())
        }
        Literal::Eq(a, b) => match (eval_term(a, env, int), eval_term(b, env, int)) {
            (Some(x), Some(y)) => {
                if x == y {
                    search(
                        rule,
                        edb,
                        idb,
                        pinned,
                        depth + 1,
                        env,
                        probes,
                        out,
                        stats,
                        governor,
                        int,
                    )?;
                }
                Ok(())
            }
            (Some(x), None) => bind_and_continue(
                rule, edb, idb, pinned, depth, env, probes, out, stats, governor, int, b, x,
            ),
            (None, Some(y)) => bind_and_continue(
                rule, edb, idb, pinned, depth, env, probes, out, stats, governor, int, a, y,
            ),
            (None, None) => Ok(()),
        },
        Literal::Neq(a, b) => {
            if let (Some(x), Some(y)) = (eval_term(a, env, int), eval_term(b, env, int)) {
                if x != y {
                    search(
                        rule,
                        edb,
                        idb,
                        pinned,
                        depth + 1,
                        env,
                        probes,
                        out,
                        stats,
                        governor,
                        int,
                    )?;
                }
            }
            Ok(())
        }
        Literal::In(a, b) => {
            let Some(set) = eval_term(b, env, int) else {
                return Ok(());
            };
            let Some(elems) = int.set_elems(set).map(<[ValueId]>::to_vec) else {
                return Ok(());
            };
            match eval_term(a, env, int) {
                Some(x) => {
                    if int.set_contains(&elems, x) {
                        search(
                            rule,
                            edb,
                            idb,
                            pinned,
                            depth + 1,
                            env,
                            probes,
                            out,
                            stats,
                            governor,
                            int,
                        )?;
                    }
                    Ok(())
                }
                None => {
                    let DTerm::Var(v) = a else { return Ok(()) };
                    let mut result = Ok(());
                    for elem in elems {
                        env.insert(v.clone(), elem);
                        result = search(
                            rule,
                            edb,
                            idb,
                            pinned,
                            depth + 1,
                            env,
                            probes,
                            out,
                            stats,
                            governor,
                            int,
                        );
                        if result.is_err() {
                            break;
                        }
                    }
                    env.remove(v);
                    result
                }
            }
        }
        Literal::NotIn(a, b) => {
            if let (Some(x), Some(set)) = (eval_term(a, env, int), eval_term(b, env, int)) {
                if let Some(elems) = int.set_elems(set) {
                    if !int.set_contains(elems, x) {
                        search(
                            rule,
                            edb,
                            idb,
                            pinned,
                            depth + 1,
                            env,
                            probes,
                            out,
                            stats,
                            governor,
                            int,
                        )?;
                    }
                }
            }
            Ok(())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn bind_and_continue(
    rule: &Rule,
    edb: &HashMap<String, IdRelation>,
    idb: &IdbI,
    pinned: Option<(usize, &IdRelation)>,
    depth: usize,
    env: &mut HashMap<String, ValueId>,
    probes: &mut Vec<Probe>,
    out: &mut IdbI,
    stats: &mut EvalStats,
    governor: &Governor,
    int: &Interner,
    target: &DTerm,
    value: ValueId,
) -> Result<(), ProgramError> {
    let DTerm::Var(v) = target else { return Ok(()) };
    env.insert(v.clone(), value);
    let result = search(
        rule,
        edb,
        idb,
        pinned,
        depth + 1,
        env,
        probes,
        out,
        stats,
        governor,
        int,
    );
    env.remove(v);
    result
}
#[cfg(test)]
mod tests {
    use super::*;
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
        let (_, naive) = eval(&tc_program(), &i, Strategy::Naive).unwrap();
        let (_, semi) = eval(&tc_program(), &i, Strategy::SemiNaive).unwrap();
        assert!(
            semi.joins * 2 < naive.joins,
            "semi {} vs naive {}",
            semi.joins,
            naive.joins
        );
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
    fn pooled_matches_sequential() {
        let (_u, i) = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "a")]);
        let (seq, _) =
            eval_governed(&tc_program(), &i, Strategy::SemiNaive, &Governor::default()).unwrap();
        for threads in [2, 4] {
            for strategy in [Strategy::Naive, Strategy::SemiNaive] {
                let pool = ThreadPool::new(threads);
                let (par, _) =
                    eval_pooled(&tc_program(), &i, strategy, &Governor::default(), &pool).unwrap();
                assert_eq!(seq, par, "threads {threads} {strategy:?}");
            }
        }
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
