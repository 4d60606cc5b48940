//! Maintenance differential suite: incremental view maintenance must be
//! **bit-identical** to full recomputation, across every engine that can
//! recompute the view, over hundreds of random insert/delete
//! interleavings — and the maintained state must
//! survive a crash at any storage I/O point (restored from its
//! checkpoint plus a write-ahead-log tail replay, or cleanly degraded to
//! re-materialization; never silently wrong).
//!
//! The maintained semantics is the stratified model (PAPER.md §5 /
//! DESIGN.md §17): counting for non-recursive strata, DRed for
//! recursive ones. The oracles here are the stratified evaluator, the
//! naive and semi-naive engines where the program is negation-free, and
//! the planner's compiled Datalog plans.

mod common;

use common::ScratchDir;
use nestdb::datalog::{
    eval_governed, eval_simultaneous, eval_stratified_governed, parse_program, Idb, Program,
    Strategy,
};
use nestdb::ivm::{encode_registry, BaseDelta, IvmError, ViewRegistry};
use nestdb::object::{
    AtomOrder, BudgetKind, Governor, Instance, Limits, Relation, RelationSchema, Schema, Type,
    Universe, Value,
};
use nestdb::plan::{DatalogMode, Planner};
use nestdb::proto::{LimitsSpec, Op, Request};
use nestdb::storage::{Db, DbOptions, FaultMode, IoFaults, SyncPolicy};
use nestdb::{Session, Store};
use proptest::prelude::*;
use std::sync::{Arc, RwLock};

const NODES: usize = 6;

const TC_SRC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n";

const HOP_SRC: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).\n";

const UNREACH_SRC: &str = "rel tc(U, U).\nrel node(U).\nrel unreach(U, U).\n\
    node(x) :- G(x, y).\nnode(y) :- G(x, y).\n\
    tc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n\
    unreach(x, y) :- node(x), node(y), !tc(x, y).\n";

/// (source, has_negation) for every maintained view under test.
const VIEWS: [(&str, &str, bool); 3] = [
    ("paths", TC_SRC, false),
    ("hops", HOP_SRC, false),
    ("unreach", UNREACH_SRC, true),
];

fn graph_schema() -> Schema {
    Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])])
}

fn fresh_universe() -> Universe {
    let names: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
    Universe::with_names(names.iter().map(String::as_str))
}

fn edge(u: &Universe, a: usize, b: usize) -> Vec<Value> {
    let at = |k: usize| {
        Value::Atom(
            u.get(&format!("n{k}"))
                .expect("node atoms are pre-interned"),
        )
    };
    vec![at(a), at(b)]
}

/// xorshift64*: deterministic, seedable, no `rand` dependency needed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed
            .wrapping_mul(2685821657736338717)
            .wrapping_add(1442695040888963407)
            | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Full recomputation of `program` through every applicable engine; all
/// engines must agree with each other, so any one result is THE oracle.
fn recompute_all_engines(program: &Program, instance: &Instance, has_negation: bool) -> Idb {
    let gov = Governor::unlimited();
    let strat = eval_stratified_governed(program, instance, &gov).expect("stratified oracle");

    // compiled plan, stratified mode
    let planned = Planner::new(instance.schema())
        .plan_datalog(program, DatalogMode::Stratified)
        .expect("plannable");
    let planned_idb = planned
        .physical
        .execute(instance, &Governor::unlimited())
        .expect("planned stratified oracle")
        .into_idb();
    for (name, rel) in &strat {
        assert_eq!(
            Some(rel),
            planned_idb.get(name),
            "planned stratified diverged from tree-walk on {name}"
        );
    }

    if !has_negation {
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (idb, _) =
                eval_governed(program, instance, strategy, &Governor::unlimited()).unwrap();
            for (name, rel) in &strat {
                assert_eq!(
                    Some(rel),
                    idb.get(name),
                    "{strategy:?} diverged from stratified on {name}"
                );
            }
        }
        let planned = Planner::new(instance.schema())
            .plan_datalog(program, DatalogMode::SemiNaive)
            .expect("plannable");
        let idb = planned
            .physical
            .execute(instance, &Governor::unlimited())
            .expect("planned semi-naive oracle")
            .into_idb();
        for (name, rel) in &strat {
            assert_eq!(
                Some(rel),
                idb.get(name),
                "planned semi-naive diverged on {name}"
            );
        }
    }
    strat
}

/// Assert a maintained view equals its recomputation bit-for-bit: same
/// relations, same rows, same canonical row order.
fn assert_view_matches(reg: &ViewRegistry, name: &str, oracle: &Idb, ctx: &str) {
    let view = reg
        .get(name)
        .unwrap_or_else(|| panic!("{ctx}: view {name} missing"));
    for (rel, rows) in view.relations() {
        let expect = &oracle[rel];
        assert_eq!(
            rows.sorted_rows(),
            expect.sorted_rows(),
            "{ctx}: maintained {name}.{rel} diverged from recomputation"
        );
        let _: &Relation = rows;
    }
}

/// One random interleaving: `steps` batches of 1–3 inserts/deletes,
/// maintained incrementally and checked against the stratified oracle
/// after every batch; the full engine matrix runs at the end.
fn run_interleaving(seed: u64, steps: usize) {
    let mut rng = Rng::new(seed);
    let u = fresh_universe();
    let mut universe = u.clone();
    let mut instance = Instance::empty(graph_schema());
    let gov = Governor::unlimited();

    // seed the graph with a few random edges
    for _ in 0..rng.below(6) {
        instance.insert("G", edge(&u, rng.below(NODES), rng.below(NODES)));
    }

    let mut reg = ViewRegistry::new();
    let mut programs: Vec<(&str, Program, bool)> = Vec::new();
    for (name, src, neg) in VIEWS {
        reg.materialize(name, src, &mut universe, &instance, &gov)
            .expect("materialize");
        programs.push((name, parse_program(src, &mut universe).unwrap(), neg));
    }

    for step in 0..steps {
        let mut delta = BaseDelta::new();
        for _ in 0..1 + rng.below(3) {
            let present: Vec<&Vec<Value>> = instance.relation("G").sorted_rows();
            // bias towards deletions when the graph is loaded, so both
            // directions of maintenance get real work
            if !present.is_empty() && rng.below(2) == 0 {
                let row = present[rng.below(present.len())].clone();
                delta.delete("G", row);
            } else {
                delta.insert("G", edge(&u, rng.below(NODES), rng.below(NODES)));
            }
        }
        reg.maintain(&instance, &delta, &gov)
            .expect("maintenance under an unlimited governor");
        delta.apply(&mut instance);

        for (name, program, neg) in &programs {
            let oracle = eval_stratified_governed(program, &instance, &Governor::unlimited())
                .expect("stratified oracle");
            assert_view_matches(&reg, name, &oracle, &format!("seed {seed} step {step}"));
            let _ = neg;
        }
    }

    // the full engine matrix at the interleaving's final state
    for (name, program, neg) in &programs {
        let oracle = recompute_all_engines(program, &instance, *neg);
        assert_view_matches(&reg, name, &oracle, &format!("seed {seed} final"));
    }
}

/// The headline matrix: three maintained views (recursive DRed,
/// non-recursive counting, stratified negation) × 120 random
/// interleavings (three seed blocks of 40, every batch checked).
#[test]
fn maintained_views_match_recomputation_across_engines() {
    for block in 0..3u64 {
        for k in 0..40u64 {
            run_interleaving(1 + block * 1000 + k, 8);
        }
    }
}

/// Longer interleavings: fewer seeds, more steps, so deep insert/delete histories (cycles forming and breaking,
/// support counts rising and draining) are exercised too.
#[test]
fn deep_interleavings_stay_exact() {
    for k in 0..10u64 {
        run_interleaving(9000 + k, 25);
    }
}

/// The locality fixture: `chains` disjoint 30-node chains
/// `n0→n1→…→n29`, `n30→…`, with every node pre-interned.
fn chain_fixture(chains: usize) -> (Universe, Instance) {
    const CHAIN_LEN: usize = 30;
    let names: Vec<String> = (0..chains * CHAIN_LEN).map(|i| format!("n{i}")).collect();
    let u = Universe::with_names(names.iter().map(String::as_str));
    let mut instance = Instance::empty(graph_schema());
    for c in 0..chains {
        for k in 0..CHAIN_LEN - 1 {
            let n = c * CHAIN_LEN + k;
            instance.insert("G", edge(&u, n, n + 1));
        }
    }
    (u, instance)
}

/// Maintenance against materialize, in steps: on 60 disjoint 30-node
/// chains, maintaining a one-edge delete and then its re-insert must each
/// spend at most a quarter of the governor steps `materialize` spent on
/// the same instance, and leave the view equal to recomputation.
///
/// Steps, not wall-clock time: a step count is the same on every host,
/// which a tier-1 gate needs. The ratios come out at about 4.6× for the
/// delete and 5.2× for the re-insert.
///
/// The gate does not show that maintenance is local to the touched chain.
/// The delete's steps grow with the chains it does not touch (16 672,
/// 33 202 and 66 262 at 30, 60 and 120 chains), as materialize's do, so
/// the ratio stays at 4.59, 4.61 and 4.62. Each `maintain` call starts a
/// fresh probe cache, so a shape's first probe scans its whole relation,
/// one step per row; the scan of the frozen `tc` snapshot is most of the
/// delete's steps (DESIGN.md §17). The gate catches maintenance that
/// costs as much as a recompute, no more.
///
/// Each call's exact steps and memory are pinned beside the ratio, so a
/// change to how rules fire or rounds run cannot move them unseen.
#[test]
fn one_edge_maintenance_stays_local() {
    let (u, mut instance) = chain_fixture(60);
    let mut universe = u.clone();
    let victim = edge(&u, 0, 1);

    let gov = Governor::unlimited();
    let mut mem_before = 0;
    let mut spend = |reg: &ViewRegistry| {
        let mem = gov.mem_spent() - mem_before;
        mem_before = gov.mem_spent();
        (reg.get("tc").unwrap().stats().steps_last, mem)
    };
    let mut reg = ViewRegistry::new();
    reg.materialize("tc", TC_SRC, &mut universe, &instance, &gov)
        .expect("materialize");
    let program = parse_program(TC_SRC, &mut universe).unwrap();
    let materialize = spend(&reg);

    let mut del = BaseDelta::new();
    del.delete("G", victim.clone());
    reg.maintain(&instance, &del, &gov)
        .expect("maintain delete");
    del.apply(&mut instance);
    let delete = spend(&reg);

    let mut ins = BaseDelta::new();
    ins.insert("G", victim);
    reg.maintain(&instance, &ins, &gov)
        .expect("maintain insert");
    ins.apply(&mut instance);
    let insert = spend(&reg);

    for (what, (spent, _)) in [("delete", delete), ("re-insert", insert)] {
        assert!(
            spent > 0 && spent * 4 <= materialize.0,
            "one-edge {what} spent {spent} steps; materialize spent {}",
            materialize.0
        );
    }
    // (steps, mem_bytes) of materialize, the delete and the re-insert
    assert_eq!(
        [materialize, delete, insert],
        [(153_120, 417_600), (33_202, 464), (29_610, 464)]
    );
    let oracle = eval_stratified_governed(&program, &instance, &Governor::unlimited())
        .expect("stratified oracle");
    assert_view_matches(&reg, "tc", &oracle, "after delete + re-insert");
}

/// Steps do not depend on hash order: ten `materialize` calls of the
/// locality fixture, each on an instance (and so on hash sets) built
/// anew, spend one step count.
#[test]
fn materialize_steps_do_not_depend_on_hash_order() {
    let steps: Vec<u64> = (0..10)
        .map(|_| {
            let (mut universe, instance) = chain_fixture(60);
            let mut reg = ViewRegistry::new();
            reg.materialize(
                "tc",
                TC_SRC,
                &mut universe,
                &instance,
                &Governor::unlimited(),
            )
            .expect("materialize");
            reg.get("tc").unwrap().stats().steps_last
        })
        .collect();
    assert!(steps.iter().all(|&s| s == steps[0]), "{steps:?}");
}

/// Exact metering of a counting view (`hops`) and a stratified one
/// (`unreach`): `(steps, mem_bytes)` of `materialize` on `n0→n1→n2→n3`
/// beside `n4→n5`, then of one batch that deletes `n4→n5` and inserts
/// `n3→n4`. No row the delete over-deletes has a surviving derivation,
/// so DRed's re-derivation, which stops at a fact's first witness,
/// finds none and its steps do not depend on hash order. Counting
/// maintenance charges the rows it holds: `hops` holds `hop(n3, n5)`,
/// whose two derivations cancel, and `hop(n2, n4)`, which it adds — 64
/// bytes.
#[test]
fn metering_of_counting_and_stratified_views_is_pinned() {
    let mut got = Vec::new();
    for (name, src) in [("hops", HOP_SRC), ("unreach", UNREACH_SRC)] {
        let u = fresh_universe();
        let mut universe = u.clone();
        let mut instance = Instance::empty(graph_schema());
        for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            instance.insert("G", edge(&u, a, b));
        }
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize(name, src, &mut universe, &instance, &gov)
            .expect("materialize");
        let steps = |reg: &ViewRegistry| reg.get(name).unwrap().stats().steps_last;
        let materialize = (steps(&reg), gov.mem_spent());
        let mut batch = BaseDelta::new();
        batch.delete("G", edge(&u, 4, 5));
        batch.insert("G", edge(&u, 3, 4));
        reg.maintain(&instance, &batch, &gov).expect("maintain");
        let maintain = (steps(&reg), gov.mem_spent() - materialize.1);
        got.push((name, materialize, maintain));
    }
    assert_eq!(
        got,
        [
            ("hops", (14, 32), (23, 64)),
            ("unreach", (120, 640), (94, 776)),
        ]
    );
}

/// Where a round cap trips is pinned: on one 30-node chain,
/// materializing `tc` absorbs one path length per round (29 rounds), and
/// deleting the chain's first edge over-deletes one `tc(n0, ·)` row per
/// round. Under a cap of 10 rounds each trips at round 11 at
/// `ivm.round`, and the failed delete leaves the view as it was.
#[test]
fn metering_round_cap_trips_at_a_pinned_round() {
    let capped = || {
        Governor::new(Limits {
            max_fixpoint_iters: 10,
            ..Limits::unlimited()
        })
    };
    let assert_round_trip = |err: IvmError, what: &str| match err {
        IvmError::Resource(e) => {
            assert_eq!(
                (e.budget, e.site, e.spent, e.limit),
                (BudgetKind::FixpointIters, "ivm.round", 11, 10),
                "{what}"
            );
        }
        other => panic!("{what}: expected a round-cap trip, got {other:?}"),
    };
    let (u, instance) = chain_fixture(1);
    let mut universe = u.clone();
    let mut reg = ViewRegistry::new();
    let err = reg
        .materialize("tc", TC_SRC, &mut universe, &instance, &capped())
        .unwrap_err();
    assert_round_trip(err, "materialize");

    reg.materialize(
        "tc",
        TC_SRC,
        &mut universe,
        &instance,
        &Governor::unlimited(),
    )
    .expect("materialize");
    let before = reg.get("tc").unwrap().relation("tc").unwrap().clone();
    let mut del = BaseDelta::new();
    del.delete("G", edge(&u, 0, 1));
    let err = reg.maintain(&instance, &del, &capped()).unwrap_err();
    assert_round_trip(err, "maintain");
    assert_eq!(reg.get("tc").unwrap().relation("tc").unwrap(), &before);
}

/// Over-delete charges the rows it holds, as insert propagation does:
/// deleting the first edge of one locality-fixture chain over-deletes
/// the 29 `tc(n0, ·)` rows, 16 bytes each. Under a 256-byte cap the
/// delete trips at `ivm.derive`, and neither `tc` nor the counting view
/// `hops` beside it changes a row or a count.
#[test]
fn metering_over_delete_is_charged() {
    let (u, instance) = chain_fixture(1);
    let mut universe = u.clone();
    let mut reg = ViewRegistry::new();
    for (name, src) in [("hops", HOP_SRC), ("tc", TC_SRC)] {
        reg.materialize(name, src, &mut universe, &instance, &Governor::unlimited())
            .expect("materialize");
    }
    let before = encode_registry(&reg, &universe);
    let capped = Governor::new(Limits {
        max_memory_bytes: 256,
        ..Limits::unlimited()
    });
    let mut del = BaseDelta::new();
    del.delete("G", edge(&u, 0, 1));
    match reg.maintain(&instance, &del, &capped) {
        Err(IvmError::Resource(e)) => {
            assert_eq!((e.budget, e.site), (BudgetKind::Memory, "ivm.derive"))
        }
        other => panic!("expected a memory trip, got {other:?}"),
    }
    assert_eq!(encode_registry(&reg, &universe), before);
}

/// Counting maintenance charges the rows it holds, as the Δ loop does:
/// deleting the first edge of one locality-fixture chain holds the lost
/// `hop(n0, n2)` in the signed count changes (16 bytes), then as a count
/// update and a del row (32 more). Under a 32-byte cap the delete trips
/// at `ivm.derive` and the view keeps its rows and counts.
#[test]
fn metering_counting_maintenance_is_charged() {
    let (u, instance) = chain_fixture(1);
    let mut universe = u.clone();
    let mut reg = ViewRegistry::new();
    reg.materialize(
        "hops",
        HOP_SRC,
        &mut universe,
        &instance,
        &Governor::unlimited(),
    )
    .expect("materialize");
    let before = encode_registry(&reg, &universe);
    let capped = Governor::new(Limits {
        max_memory_bytes: 32,
        ..Limits::unlimited()
    });
    let mut del = BaseDelta::new();
    del.delete("G", edge(&u, 0, 1));
    match reg.maintain(&instance, &del, &capped) {
        Err(IvmError::Resource(e)) => assert_eq!(
            (e.budget, e.site, e.spent, e.limit),
            (BudgetKind::Memory, "ivm.derive", 48, 32)
        ),
        other => panic!("expected a memory trip, got {other:?}"),
    }
    assert_eq!(encode_registry(&reg, &universe), before);
}

/// A Δ loop whose seed is empty runs no round, so it makes no
/// `ivm.round` check: under a cap of zero rounds, materializing `tc`
/// over an empty `G` succeeds, while over one edge it trips at round 1.
#[test]
fn metering_empty_seed_runs_no_round() {
    let no_rounds = || {
        Governor::new(Limits {
            max_fixpoint_iters: 0,
            ..Limits::unlimited()
        })
    };
    let u = fresh_universe();
    let mut universe = u.clone();
    let mut instance = Instance::empty(graph_schema());
    let mut reg = ViewRegistry::new();
    reg.materialize("tc", TC_SRC, &mut universe, &instance, &no_rounds())
        .expect("an empty seed runs no round");
    instance.insert("G", edge(&u, 0, 1));
    match reg.materialize("tc", TC_SRC, &mut universe, &instance, &no_rounds()) {
        Err(IvmError::Resource(e)) => assert_eq!(
            (e.budget, e.site, e.spent),
            (BudgetKind::FixpointIters, "ivm.round", 1)
        ),
        other => panic!("expected a trip at round 1, got {other:?}"),
    }
}

/// `eval` and `materialize` fire rules through one matcher, so they agree
/// on membership over a non-set: `x in t` and `x notin t` hold only when
/// `t` is a set. On a store holding only `G('a', 'b')`, each program
/// derives the same rows — none — under both strategies and when
/// materialized.
///
/// The simultaneous-IFP oracle is the exception: it translates the
/// program to one CALC fixpoint and answers with the CALC evaluator's
/// typed reading, the shape error "∈ right-hand side evaluated to
/// non-set".
#[test]
fn eval_and_materialize_agree_on_membership_over_a_non_set() {
    use nestdb::proto::{Lang, Strategy as Wire};
    let session = Session::default();
    for text in ["schema G(U, U).", "G('a', 'b')."] {
        let r = session.run(&Request {
            op: Op::Insert,
            text: text.into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
    }
    for op in ["in", "notin"] {
        let text = format!("rel p(U).\np(x) :- G(x, y), x {op} y.");
        let p_rows = |req: Request| {
            let r = session.run(&req);
            assert!(r.ok, "{op}: {:?}", r.error);
            let p = r.relations.iter().find(|rel| rel.name == "p").expect("p");
            p.rows.clone()
        };
        let mut answers = Vec::new();
        for strategy in [Wire::SemiNaive, Wire::Stratified] {
            let req = Request {
                strategy,
                ..Request::eval(Lang::Datalog, text.clone())
            };
            answers.push((format!("eval {strategy:?}"), p_rows(req)));
        }
        let req = Request {
            op: Op::Materialize,
            view: format!("p_{op}"),
            text: text.clone(),
            ..Request::default()
        };
        answers.push(("materialize".to_string(), p_rows(req)));
        for (who, rows) in &answers {
            assert!(rows.is_empty(), "{op}: {who} derived {rows:?}");
        }

        let store = session.store();
        let store = store.read().unwrap();
        let program = parse_program(&text, &mut store.universe().clone()).unwrap();
        let order = AtomOrder::new(store.instance().atoms().into_iter().collect());
        let typed = [("y", Type::Atom)];
        let gov = Governor::unlimited();
        let err = eval_simultaneous(&program, &typed, store.instance(), order, &gov)
            .expect_err("the typed reading refuses a non-set");
        assert!(err.to_string().contains("non-set"), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No resurrection (DESIGN.md §17): after deleting an edge, no fact
    /// whose every derivation used that edge survives in the maintained
    /// view — and nothing the oracle still derives is lost. DRed's
    /// re-derivation phase must rescue exactly the facts with an
    /// alternative derivation, counting must drain shared support
    /// exactly to zero.
    #[test]
    fn deletion_never_resurrects_or_strands_facts(
        edges in prop::collection::vec((0usize..NODES, 0usize..NODES), 1..14),
        victim in 0usize..14,
    ) {
        prop_assume!(victim < edges.len());
        let u = fresh_universe();
        let mut universe = u.clone();
        let mut instance = Instance::empty(graph_schema());
        for &(a, b) in &edges {
            instance.insert("G", edge(&u, a, b));
        }
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        for (name, src, _) in VIEWS {
            reg.materialize(name, src, &mut universe, &instance, &gov).unwrap();
        }

        let (va, vb) = edges[victim];
        let mut delta = BaseDelta::new();
        delta.delete("G", edge(&u, va, vb));
        reg.maintain(&instance, &delta, &gov).unwrap();
        delta.apply(&mut instance);

        for (name, src, _) in VIEWS {
            let program = parse_program(src, &mut universe).unwrap();
            let oracle =
                eval_stratified_governed(&program, &instance, &Governor::unlimited()).unwrap();
            let view = reg.get(name).unwrap();
            for (rel, rows) in view.relations() {
                for row in rows.iter() {
                    prop_assert!(
                        oracle[rel].contains(row),
                        "{name}.{rel}: resurrected fact {row:?} after deleting ({va},{vb})"
                    );
                }
                for row in oracle[rel].iter() {
                    prop_assert!(
                        rows.contains(row),
                        "{name}.{rel}: lost fact {row:?} after deleting ({va},{vb})"
                    );
                }
            }
        }
    }
}

/// A resource trip mid-maintenance is transactional at the session
/// layer: the mutation is refused, the base instance is untouched, the
/// views still equal recomputation over the unchanged instance, and the
/// same update retried without the starvation budget succeeds.
#[test]
fn governor_trip_mid_maintenance_leaves_views_recoverable() {
    let session = Session::default();
    let run_ok = |req: &Request| {
        let r = session.run(req);
        assert!(r.ok, "{:?}", r.error);
        r
    };
    run_ok(&Request {
        op: Op::Insert,
        text: "schema G(U, U).".into(),
        ..Request::default()
    });
    for cl in ["G('n0', 'n1').", "G('n1', 'n2').", "G('n2', 'n3')."] {
        run_ok(&Request {
            op: Op::Insert,
            text: cl.into(),
            ..Request::default()
        });
    }
    run_ok(&Request {
        op: Op::Materialize,
        view: "paths".into(),
        text: TC_SRC.into(),
        ..Request::default()
    });

    // starve maintenance mid-flight
    let starved = session.run(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').".into(),
        limits: Some(LimitsSpec {
            max_steps: Some(3),
            ..LimitsSpec::default()
        }),
        ..Request::default()
    });
    assert!(!starved.ok);
    let err = starved.error.as_ref().unwrap();
    assert_eq!(err.kind, "resource", "{}", err.message);
    assert!(err.resource_trip);

    // the base table did not mutate and the view still matches a fresh
    // recomputation of the *unchanged* instance
    let r = run_ok(&Request::eval(
        nestdb::proto::Lang::Calc,
        "{[x:U, y:U] | G(x, y)}",
    ));
    assert_eq!(r.relations[0].rows.len(), 3, "trip must not half-apply");
    {
        let store = session.store();
        let store = store.read().unwrap();
        let mut u2 = store.universe().clone();
        let program = parse_program(TC_SRC, &mut u2).unwrap();
        let oracle =
            eval_stratified_governed(&program, store.instance(), &Governor::unlimited()).unwrap();
        let view = store.views().get("paths").unwrap();
        assert_eq!(
            view.relation("tc").unwrap().sorted_rows(),
            oracle["tc"].sorted_rows(),
            "view diverged after a mid-maintenance trip"
        );
    }

    // retried with the session budget, the same update lands exactly
    let r = run_ok(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').".into(),
        ..Request::default()
    });
    assert_eq!(r.deltas[0].view, "paths");
    assert_eq!(
        r.deltas[0].added[0].rows.len(),
        10,
        "4-cycle closes: 16 - 6"
    );
}

// ---------------------------------------------------------------------------
// Crash-anywhere recovery
// ---------------------------------------------------------------------------

/// The scripted durable workload the crash sweep replays: schema, edges,
/// a materialized recursive view, a checkpoint (snapshot + view
/// checkpoint), then more mutations that live only in the log tail.
/// Returns `Err` at the step a storage fault surfaced.
fn durable_script(dir: &std::path::Path, faults: IoFaults) -> Result<(), String> {
    let db = Db::open(
        dir,
        DbOptions {
            sync: SyncPolicy::Always,
            faults,
            ..DbOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut store = Store::new();
    store.attach(db);
    let session = Session::builder()
        .store(Arc::new(RwLock::new(store)))
        .build();
    let step = |req: &Request| -> Result<(), String> {
        let r = session.run(req);
        if r.ok {
            Ok(())
        } else {
            Err(r.error.map(|e| e.message).unwrap_or_default())
        }
    };
    step(&Request {
        op: Op::Insert,
        text: "schema G(U, U).".into(),
        ..Request::default()
    })?;
    for cl in ["G('n0', 'n1').", "G('n1', 'n2').", "G('n2', 'n3')."] {
        step(&Request {
            op: Op::Insert,
            text: cl.into(),
            ..Request::default()
        })?;
    }
    step(&Request {
        op: Op::Materialize,
        view: "paths".into(),
        text: TC_SRC.into(),
        ..Request::default()
    })?;
    step(&Request {
        op: Op::Save,
        ..Request::default()
    })?;
    // log-tail-only mutations past the checkpoint
    step(&Request {
        op: Op::Update,
        text: "G('n3', 'n0').\ndelete G('n1', 'n2').".into(),
        ..Request::default()
    })?;
    step(&Request {
        op: Op::Insert,
        text: "G('n1', 'n4').".into(),
        ..Request::default()
    })?;
    Ok(())
}

/// After recovery the maintained view must be *correct or absent*: if
/// the open restored it (checkpoint + tail replay), it equals a fresh
/// recomputation over the recovered instance; if restoration was
/// refused, re-materializing from scratch succeeds. Silently-wrong
/// restored state is the only losing outcome.
fn check_recovered_views(dir: &std::path::Path) {
    let session = Session::default();
    let r = session.run(&Request {
        op: Op::Open,
        text: dir.display().to_string(),
        ..Request::default()
    });
    assert!(r.ok, "recovery open failed: {:?}", r.error);
    let store = session.store();
    let mut store = store.write().unwrap();
    if store.instance().schema().get("G").is_none() {
        return; // crashed before the schema landed; nothing to check
    }
    let mut u2 = store.universe().clone();
    let program = parse_program(TC_SRC, &mut u2).unwrap();
    let oracle =
        eval_stratified_governed(&program, store.instance(), &Governor::unlimited()).unwrap();
    if store.views().get("paths").is_none() {
        // degraded outcome: the open said so and a fresh materialization works
        store
            .materialize_view("paths", TC_SRC, &Governor::unlimited())
            .expect("re-materialization after degraded recovery");
    }
    let view = store.views().get("paths").unwrap();
    assert_eq!(
        view.relation("tc").unwrap().sorted_rows(),
        oracle["tc"].sorted_rows(),
        "recovered view diverged from recomputation"
    );
}

/// Crash-anywhere sweep: size the script's I/O footprint with a
/// fault-free run, then crash at every single I/O index and verify the
/// recovered maintained view each time.
#[test]
fn crash_anywhere_recovery_of_maintained_views() {
    // sizing run
    let probe = IoFaults::none();
    {
        let scratch = ScratchDir::new("ivm_crash_probe");
        durable_script(scratch.path(), probe.clone()).expect("fault-free run");
    }
    let total_ops = probe.ops();
    assert!(
        total_ops > 10,
        "script did {total_ops} I/Os — too few to sweep"
    );

    for k in 1..=total_ops {
        let scratch = ScratchDir::new("ivm_crash");
        let faults = IoFaults::none();
        faults.arm(None, k, FaultMode::Crash);
        let outcome = durable_script(scratch.path(), faults.clone());
        faults.disarm();
        if k < total_ops {
            assert!(outcome.is_err(), "fault at I/O {k} was swallowed");
        }
        check_recovered_views(scratch.path());
    }
}
