//! Operator/join-order differential fuzzer for the columnar kernels.
//!
//! The headline property of the exec subsystem: every physical join
//! algorithm — nested loop, hash (building either side), lookup, element
//! index — computes the *bit-identical* relation as each other, as a naive
//! reference join written in plain Rust, and as the legacy tree-walk
//! engines. Canonical column tables (rows sorted by raw interner id,
//! deduplicated) make "bit-identical" a plain `==`: algorithm choice can
//! change only running time, never a single bit of the answer.
//!
//! Inputs are property-generated with deliberately nasty shapes — empty
//! relations, duplicate-heavy small domains, skewed keys — plus
//! deterministic large fixtures with thousands of probe rows. A selection over a product
//! runs inside the join: random predicate trees (`=`, `=`-constant, `∈`,
//! `⊆`, `¬`, `∧`, `∨`) over set-valued inputs are tested on candidate
//! pairs, and every applicable algorithm must equal a plain-Rust
//! `σ(L × R)` with steps independent of warm or cold scans, build side
//! and arena id order. Governor starvation is fuzzed too: under a given
//! budget every algorithm must trip with the same [`BudgetKind`], and a
//! σ over a product keeps the range cap of the product it replaces.
//!
//! Lookups ride along: a `Lookup` on a relation's sorted first column
//! equals the scan and select it replaces, bit for bit, on atom- and
//! set-valued first columns, with random further predicates and absent
//! keys (which admit nothing to the arena), and a lookup join equals the
//! other algorithms on single and multi-key joins whose right input
//! leads with a set.
//!
//! Satellite properties ride along: detailed statistics are *exact* on
//! materialized relations, and planner algorithm choices are a pure
//! function of the stats snapshot (re-planning renders the same text).

mod common;

use common::*;
use nestdb::algebra::{AlgebraError, Expr, Pred};
use nestdb::core::ast::{Formula, Term};
use nestdb::core::error::EvalConfig;
use nestdb::core::eval::{eval_query_with, Query};
use nestdb::core::ranges::safe_eval;
use nestdb::exec::{
    execute, ColumnTable, ExecOp, ExecPlan, JoinAlgo, Resident, RowPred, SetConjunct,
};
use nestdb::object::{
    Atom, BudgetKind, Governor, Instance, Limits, Relation, RelationSchema, Schema, Type, Value,
};
use nestdb::plan::{CalcMode, Physical, PlanError, Planner, Stats};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

/// The cross-side `∈`/`⊆` conjuncts an element index can probe, over
/// the joined row of two `(U, {U})` relations (0-based columns).
const SET_CONJUNCTS: [SetConjunct; 4] = [
    SetConjunct::Subset { sub: 1, set: 3 },
    SetConjunct::Subset { sub: 3, set: 1 },
    SetConjunct::In { elem: 0, set: 3 },
    SetConjunct::In { elem: 2, set: 1 },
];

/// Every physical join algorithm under test.
const ALGOS: [JoinAlgo; 8] = [
    JoinAlgo::NestedLoop,
    JoinAlgo::Hash { build_left: true },
    JoinAlgo::Hash { build_left: false },
    JoinAlgo::Lookup,
    JoinAlgo::ElementIndex(SET_CONJUNCTS[0]),
    JoinAlgo::ElementIndex(SET_CONJUNCTS[1]),
    JoinAlgo::ElementIndex(SET_CONJUNCTS[2]),
    JoinAlgo::ElementIndex(SET_CONJUNCTS[3]),
];

/// The kernel row predicate a set conjunct tests.
fn conjunct_pred(c: SetConjunct) -> RowPred {
    match c {
        SetConjunct::In { elem, set } => RowPred::InCols(elem, set),
        SetConjunct::Subset { sub, set } => RowPred::SubsetCols(sub, set),
    }
}

/// The top-level conjuncts of a filter.
fn top_conjuncts(p: &RowPred) -> Vec<&RowPred> {
    match p {
        RowPred::And(a, b) => {
            let mut out = top_conjuncts(a);
            out.extend(top_conjuncts(b));
            out
        }
        other => vec![other],
    }
}

/// Whether `algo` computes the join on `keys` filtered by `filter` — the
/// planner's conditions: a hash join needs keys, a lookup join a key on
/// the right's first column, and an element index its conjunct among the
/// filter's top-level conjuncts.
fn applicable(algo: JoinAlgo, keys: &[(usize, usize)], filter: Option<&RowPred>) -> bool {
    match algo {
        JoinAlgo::NestedLoop => true,
        JoinAlgo::Hash { .. } => !keys.is_empty(),
        JoinAlgo::Lookup => keys.iter().any(|&(_, rc)| rc == 0),
        JoinAlgo::ElementIndex(c) => {
            filter.is_some_and(|f| top_conjuncts(f).contains(&&conjunct_pred(c)))
        }
    }
}

/// The algorithms that compute an unfiltered join on `l#2 = r#1`.
fn key_join_algos() -> impl Iterator<Item = JoinAlgo> {
    ALGOS
        .into_iter()
        .filter(|&a| applicable(a, &[(1, 0)], None))
}

/// An instance with two binary atom relations `L` and `R`.
fn lr_instance(l: &[(u32, u32)], r: &[(u32, u32)]) -> Instance {
    let schema = Schema::from_relations([
        RelationSchema::new("L", vec![Type::Atom, Type::Atom]),
        RelationSchema::new("R", vec![Type::Atom, Type::Atom]),
    ]);
    let mut i = Instance::empty(schema);
    for &(a, b) in l {
        i.insert("L", vec![Value::Atom(Atom(a)), Value::Atom(Atom(b))]);
    }
    for &(a, b) in r {
        i.insert("R", vec![Value::Atom(Atom(a)), Value::Atom(Atom(b))]);
    }
    i
}

/// `L ⋈ R` on `l#2 = r#1` with a fixed algorithm.
fn join_plan(algo: JoinAlgo) -> ExecPlan {
    let mut p = ExecPlan::new();
    let l = p.push(ExecOp::Scan { rel: "L".into() });
    let r = p.push(ExecOp::Scan { rel: "R".into() });
    p.push(ExecOp::Join {
        left: l,
        right: r,
        keys: vec![(1, 0)],
        filter: None,
        algo,
    });
    p
}

/// Decode a relation of atom rows to raw u32 tuples for set compares.
fn rel_atoms(rel: &Relation) -> HashSet<Vec<u32>> {
    rel.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Atom(a) => a.0,
                    other => panic!("expected an atom, got {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The naive reference join, written against plain Rust sets.
fn reference_join(l: &[(u32, u32)], r: &[(u32, u32)]) -> HashSet<Vec<u32>> {
    let ls: HashSet<(u32, u32)> = l.iter().copied().collect();
    let rs: HashSet<(u32, u32)> = r.iter().copied().collect();
    let mut out = HashSet::new();
    for &(a, b) in &ls {
        for &(c, d) in &rs {
            if b == c {
                out.insert(vec![a, b, c, d]);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline: hash vs merge vs nested-loop agree bit-for-bit with
    /// each other and with the naive reference, on small-domain (duplicate-heavy, skewed, possibly empty) inputs.
    #[test]
    fn join_algorithms_agree_bitwise(
        l in prop::collection::vec((0u32..6, 0u32..6), 0..40),
        r in prop::collection::vec((0u32..6, 0u32..6), 0..40),
    ) {
        let i = lr_instance(&l, &r);
        let expected = reference_join(&l, &r);
        let mut first: Option<Relation> = None;
        for algo in key_join_algos() {
            let plan = join_plan(algo);
            let rel = execute(&plan, &i, &Governor::unlimited())
                .expect("unlimited execution succeeds")
                .to_relation();
            prop_assert_eq!(
                rel_atoms(&rel),
                expected.clone(),
                "{} diverged from the reference",
                algo.label()
            );
            match &first {
                None => first = Some(rel),
                Some(f) => prop_assert_eq!(
                    f,
                    &rel,
                    "{} diverged from the first algorithm",
                    algo.label()
                ),
            }
        }
    }

    /// Each columnar operator agrees with a plain-Rust set reference.
    #[test]
    fn operator_kernels_agree_with_reference(
        l in prop::collection::vec((0u32..5, 0u32..5), 0..30),
        r in prop::collection::vec((0u32..5, 0u32..5), 0..30),
    ) {
        let i = lr_instance(&l, &r);
        let ls: HashSet<(u32, u32)> = l.iter().copied().collect();
        let rs: HashSet<(u32, u32)> = r.iter().copied().collect();
        let gov = Governor::unlimited();
        let run = |p: &ExecPlan| rel_atoms(&execute(p, &i, &gov).unwrap().to_relation());
        let scan = |rel: &str| {
            let mut p = ExecPlan::new();
            p.push(ExecOp::Scan { rel: rel.into() });
            p
        };
        let binop = |f: fn(usize, usize) -> ExecOp| {
            let mut p = ExecPlan::new();
            let a = p.push(ExecOp::Scan { rel: "L".into() });
            let b = p.push(ExecOp::Scan { rel: "R".into() });
            p.push(f(a, b));
            p
        };

        prop_assert_eq!(
            run(&scan("L")),
            ls.iter().map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Union { left: a, right: b })),
            ls.union(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Difference { left: a, right: b })),
            ls.difference(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Intersect { left: a, right: b })),
            ls.intersection(&rs).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        // × is the keyless, unfiltered join.
        prop_assert_eq!(
            run(&binop(|a, b| ExecOp::Join {
                left: a,
                right: b,
                keys: vec![],
                filter: None,
                algo: JoinAlgo::NestedLoop,
            })),
            ls.iter()
                .flat_map(|&(a, b)| rs.iter().map(move |&(c, d)| vec![a, b, c, d]))
                .collect::<HashSet<_>>()
        );
        let mut select = scan("L");
        select.push(ExecOp::Select { input: 0, pred: RowPred::EqCols(0, 1) });
        prop_assert_eq!(
            run(&select),
            ls.iter().filter(|&&(a, b)| a == b).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        let mut pinned = scan("L");
        pinned.push(ExecOp::Select {
            input: 0,
            pred: RowPred::EqConst(0, Value::Atom(Atom(2))),
        });
        prop_assert_eq!(
            run(&pinned),
            ls.iter().filter(|&&(a, _)| a == 2).map(|&(a, b)| vec![a, b]).collect::<HashSet<_>>()
        );
        let mut swap = scan("L");
        swap.push(ExecOp::Project { input: 0, cols: vec![1, 0] });
        prop_assert_eq!(
            run(&swap),
            ls.iter().map(|&(a, b)| vec![b, a]).collect::<HashSet<_>>()
        );
        let mut narrow = scan("L");
        narrow.push(ExecOp::Project { input: 0, cols: vec![1] });
        prop_assert_eq!(
            run(&narrow),
            ls.iter().map(|&(_, b)| vec![b]).collect::<HashSet<_>>()
        );
    }

    /// Planned conjunctive CALC through the columnar path agrees with the
    /// tree-walk evaluators (both semantics) and the pass-free planned
    /// baseline.
    #[test]
    fn conjunctive_calc_matches_tree_walk(edges in edges_strategy(5, 14)) {
        let (_u, _o, i) = graph_instance(5, &edges);
        let two_hop = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Exists(
                "z".to_string(),
                Type::Atom,
                Box::new(Formula::and([
                    Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                    Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
                ])),
            ),
        );
        let pinned = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("y")]),
                Formula::Eq(Term::var("x"), Term::Const(Value::Atom(Atom(1)))),
            ]),
        );
        for q in [&two_hop, &pinned] {
            let ad_walk = eval_query_with(&i, q, EvalConfig::default()).unwrap();
            let safe_walk = safe_eval(&i, q, EvalConfig::default()).unwrap();
            prop_assert_eq!(&ad_walk, &safe_walk, "conjunctive fragment: AD ≡ safe");
            for mode in [CalcMode::ActiveDomain, CalcMode::Safe] {
                let planned = Planner::new(i.schema())
                    .with_instance(&i)
                    .plan_calc(q, mode)
                    .unwrap();
                prop_assert!(
                    matches!(planned.physical, Physical::Exec { .. }),
                    "conjunctive query must take the columnar path"
                );
                let baseline = Planner::oracle(i.schema())
                    .plan_calc(q, mode)
                    .unwrap();
                let gov = Governor::unlimited();
                let rel = planned.physical.execute(&i, &gov).unwrap().into_relation();
                prop_assert_eq!(&rel, &ad_walk, "columnar vs tree-walk");
                let base = baseline.physical.execute(&i, &gov).unwrap().into_relation();
                prop_assert_eq!(&rel, &base, "columnar vs oracle plan");
            }
        }
    }

    /// Detailed statistics are exact on materialized relations: the row
    /// count and every per-column distinct count equal brute force.
    #[test]
    fn detailed_stats_are_exact(rows in prop::collection::vec((0u32..8, 0u32..8), 0..50)) {
        let i = lr_instance(&rows, &[]);
        let s = Stats::of(&i);
        let set: HashSet<(u32, u32)> = rows.iter().copied().collect();
        prop_assert_eq!(s.rows("L"), Some(set.len() as u64));
        prop_assert_eq!(s.rows("R"), Some(0));
        let d0 = set.iter().map(|p| p.0).collect::<HashSet<_>>().len() as u64;
        let d1 = set.iter().map(|p| p.1).collect::<HashSet<_>>().len() as u64;
        prop_assert_eq!(s.distinct("L", 0), Some(d0));
        prop_assert_eq!(s.distinct("L", 1), Some(d1));
        prop_assert_eq!(s.distinct("R", 0), Some(0));
    }

    /// Planner choices are a pure function of the stats snapshot: two
    /// independent planners over the same instance render identical plans
    /// (same join algorithms, same order, same estimates).
    #[test]
    fn planner_choices_are_deterministic(edges in edges_strategy(6, 18)) {
        let (_u, _o, i) = graph_instance(6, &edges);
        let q = Query::new(
            vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
            Formula::Exists(
                "z".to_string(),
                Type::Atom,
                Box::new(Formula::and([
                    Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                    Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
                ])),
            ),
        );
        let render = || {
            Planner::new(i.schema())
                .with_instance(&i)
                .plan_calc(&q, CalcMode::Safe)
                .unwrap()
                .render_text()
        };
        let a = render();
        prop_assert_eq!(&a, &render(), "re-planning must render identically");
        // Stats collected from an equal, separately built instance agree,
        // so the decision inputs themselves are deterministic.
        let (_u2, _o2, twin) = graph_instance(6, &edges);
        let s1 = Stats::of(&i);
        let s2 = Stats::of(&twin);
        prop_assert_eq!(s1.rel_rows, s2.rel_rows);
        prop_assert_eq!(s1.rel_distinct, s2.rel_distinct);
    }
}

/// A deterministic fixture with 5000 probe rows: all algorithms must
/// still agree bit-for-bit.
#[test]
fn large_join_agrees_across_algorithms() {
    // 5000 distinct left rows over 250 keys (20 rows/key), 1000 right
    // rows over the same keys (4 rows/key): ~80 output rows per key.
    let l: Vec<(u32, u32)> = (0..5000).map(|i| (i, i % 250)).collect();
    let r: Vec<(u32, u32)> = (0..1000).map(|j| (j % 250, 10_000 + j)).collect();
    let i = lr_instance(&l, &r);
    let mut first: Option<Relation> = None;
    for algo in key_join_algos() {
        let plan = join_plan(algo);
        let rel = execute(&plan, &i, &Governor::unlimited())
            .unwrap()
            .to_relation();
        assert_eq!(rel.len(), 5000 * 4, "{}", algo.label());
        match &first {
            None => first = Some(rel),
            Some(f) => assert_eq!(f, &rel, "{} diverged", algo.label()),
        }
    }
}

/// Governor starvation: for a fixed budget every algorithm trips with the
/// same [`BudgetKind`], and the trip site is an exec site.
#[test]
fn starvation_trips_with_matching_budget_kinds() {
    let l: Vec<(u32, u32)> = (0..200).map(|i| (i, i % 10)).collect();
    let r: Vec<(u32, u32)> = (0..200).map(|j| (j % 10, 1000 + j)).collect();
    let i = lr_instance(&l, &r);
    for (limits, expect) in [
        (
            Limits {
                max_steps: 50,
                ..Limits::unlimited()
            },
            BudgetKind::Steps,
        ),
        (
            Limits {
                max_memory_bytes: 512,
                ..Limits::unlimited()
            },
            BudgetKind::Memory,
        ),
    ] {
        for algo in key_join_algos() {
            let plan = join_plan(algo);
            let gov = Governor::new(limits.clone());
            let err = execute(&plan, &i, &gov).expect_err("starved execution must trip");
            assert_eq!(
                err.budget,
                expect,
                "{} tripped the wrong budget",
                algo.label()
            );
            assert!(
                err.site.starts_with("exec."),
                "unexpected trip site {}",
                err.site
            );
        }
    }
}

/// Cancellation fires before any work (the `exec.start` checkpoint).
#[test]
fn cancellation_stops_execution_immediately() {
    let i = lr_instance(&[(0, 1)], &[(1, 2)]);
    let gov = Governor::unlimited();
    gov.cancel();
    let err = execute(&join_plan(JoinAlgo::NestedLoop), &i, &gov)
        .expect_err("cancelled governor must refuse");
    assert_eq!(err.budget, BudgetKind::Cancelled);
    assert_eq!(err.site, "exec.start");
}

/// `{[x:U, y:U] | ∃z (G(x, z) ∧ G(a, b))}` with `[a, b]` = `second`: the
/// two-hop query for `[z, y]`, the common-successor one for `[y, z]`.
fn two_atoms(second: [&str; 2]) -> Query {
    Query::new(
        vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
        Formula::Exists(
            "z".to_string(),
            Type::Atom,
            Box::new(Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                Formula::Rel("G".to_string(), second.map(Term::var).to_vec()),
            ])),
        ),
    )
}

/// The planner's per-join algorithm choice lands in `:explain` output —
/// a key on a bare scan's first column yields a lookup join at any size,
/// and a key elsewhere a hash join on a big skewed build side and a
/// nested loop on a tiny input — and the oracle plan has no columnar
/// lowering at all.
#[test]
fn explain_records_algorithm_choices() {
    let two_hop = two_atoms(["z", "y"]);
    let common = two_atoms(["y", "z"]);
    let explain = |i: &Instance, q: &Query| {
        Planner::new(i.schema())
            .with_instance(i)
            .plan_calc(q, CalcMode::Safe)
            .unwrap()
            .render_text()
    };
    // Tiny inputs: nested loop, unless the right input is probed.
    let (_u, _o, small) = graph_instance(4, &[(0, 1), (1, 2), (2, 3)]);
    let text = explain(&small, &common);
    assert!(text.contains("NestedLoopJoin"), "{text}");
    assert!(text.contains("join-algorithms"), "{text}");
    let text = explain(&small, &two_hop);
    assert!(text.contains("LookupJoin, keys: l#2=r#1"), "{text}");

    // The oracle: the tree-walk plan, no columnar notes.
    let oracle = Planner::oracle(small.schema())
        .with_instance(&small)
        .plan_calc(&two_hop, CalcMode::Safe)
        .unwrap();
    assert!(
        !oracle.render_text().contains("Join"),
        "{}",
        oracle.render_text()
    );

    // A duplicate-heavy build-side key (10 distinct values over 120 rows)
    // still takes a hash join: a hash bucket is a row list, so it
    // enumerates the same matching pairs a merge would, without two
    // sorts. The build side is the left atom G(x, z), whose key is
    // column 2 — so the duplicates go in the edges' second component.
    let edges: Vec<(usize, usize)> = (0..120).map(|i| (i, i % 10)).collect();
    let (_u, _o, skewed) = graph_instance(120, &edges);
    let text = explain(&skewed, &common);
    assert!(text.contains("HashJoin(build=left)"), "{text}");
    let text = explain(&skewed, &two_hop);
    assert!(text.contains("LookupJoin"), "{text}");
}

// ---------------------------------------------------------------------------
// fused σ(L × R): filters inside the join, element-index probes
// ---------------------------------------------------------------------------

/// Rows of a `(U, {U})` relation: an atom and a bit mask of set members
/// (bit `k` is atom `k`, so members and first columns share atoms).
type SetRows = Vec<(u32, u32)>;

fn set_row((a, mask): (u32, u32)) -> Vec<Value> {
    let members = (0..32)
        .filter(|k| mask & (1 << k) != 0)
        .map(|k| Value::Atom(Atom(k)));
    vec![Value::Atom(Atom(a)), Value::set(members)]
}

/// The same rows with the set first: a `({U}, U)` relation.
fn set_first_row(row: (u32, u32)) -> Vec<Value> {
    let mut row = set_row(row);
    row.reverse();
    row
}

/// A relation's column types and rows, as values.
type Rows = (Vec<Type>, Vec<Vec<Value>>);

/// `rows` as a `(U, {U})` relation (`set_first` false) or a `({U}, U)`
/// one.
fn set_rel(rows: &SetRows, set_first: bool) -> Rows {
    let (atom, set) = (Type::Atom, Type::set(Type::Atom));
    if set_first {
        (
            vec![set, atom],
            rows.iter().map(|&r| set_first_row(r)).collect(),
        )
    } else {
        (vec![atom, set], rows.iter().map(|&r| set_row(r)).collect())
    }
}

/// An instance with the relations `L` and `R`.
fn rows_instance(l: &Rows, r: &Rows) -> Instance {
    let schema = Schema::from_relations([
        RelationSchema::new("L", l.0.clone()),
        RelationSchema::new("R", r.0.clone()),
    ]);
    let mut i = Instance::empty(schema);
    for (rel, (_, rows)) in [("L", l), ("R", r)] {
        for row in rows {
            i.insert(rel, row.clone());
        }
    }
    i
}

/// Predicate constants: atoms, an atom no relation holds, and sets.
fn pred_consts() -> [Value; 5] {
    [
        Value::Atom(Atom(0)),
        Value::Atom(Atom(2)),
        Value::Atom(Atom(99)),
        Value::empty_set(),
        Value::set([Value::Atom(Atom(0)), Value::Atom(Atom(1))]),
    ]
}

/// Decode a random predicate tree over the 4 joined columns from `codes`
/// (read cyclically from `*at`): leaves `=`, `=`-constant, `∈`, `⊆` on
/// any columns (within or across sides, set-valued or not), inner nodes
/// `¬`, `∧`, `∨`.
fn decode_pred(codes: &[u32], at: &mut usize, depth: u32, cols: usize) -> RowPred {
    let mut next = || {
        let c = codes[*at % codes.len()];
        *at += 1;
        c as usize
    };
    let kind = next() % if depth == 0 { 4 } else { 7 };
    let (a, b) = (next() % cols, next() % cols);
    match kind {
        0 => RowPred::EqCols(a, b),
        1 => RowPred::EqConst(a, pred_consts()[(b + next()) % 5].clone()),
        2 => RowPred::InCols(a, b),
        3 => RowPred::SubsetCols(a, b),
        4 => RowPred::Not(Box::new(decode_pred(codes, at, depth - 1, cols))),
        5 => decode_pred(codes, at, depth - 1, cols).and(decode_pred(codes, at, depth - 1, cols)),
        _ => RowPred::Or(
            Box::new(decode_pred(codes, at, depth - 1, cols)),
            Box::new(decode_pred(codes, at, depth - 1, cols)),
        ),
    }
}

/// The predicate on one joined row, by value — written against
/// `Value`/`SetValue`, not the interner's id operations.
fn reference_holds(p: &RowPred, row: &[Value]) -> bool {
    match p {
        RowPred::EqCols(a, b) => row[*a] == row[*b],
        RowPred::EqConst(c, v) => &row[*c] == v,
        RowPred::InCols(a, b) => matches!(&row[*b], Value::Set(s) if s.contains(&row[*a])),
        RowPred::SubsetCols(a, b) => match (&row[*a], &row[*b]) {
            (Value::Set(x), Value::Set(y)) => x.is_subset(y),
            _ => false,
        },
        RowPred::Not(q) => !reference_holds(q, row),
        RowPred::And(x, y) => reference_holds(x, row) && reference_holds(y, row),
        RowPred::Or(x, y) => reference_holds(x, row) || reference_holds(y, row),
    }
}

/// `σ[keys ∧ filter](L × R)` in plain Rust.
fn reference_select_product(
    l: &[Vec<Value>],
    r: &[Vec<Value>],
    keys: &[(usize, usize)],
    filter: Option<&RowPred>,
) -> BTreeSet<Vec<Value>> {
    let mut out = BTreeSet::new();
    for lv in l {
        for rv in r {
            let keyed = keys.iter().all(|&(a, b)| lv[a] == rv[b]);
            let row: Vec<Value> = lv.iter().chain(rv).cloned().collect();
            if keyed && filter.is_none_or(|f| reference_holds(f, &row)) {
                out.insert(row);
            }
        }
    }
    out
}

/// `L ⋈[keys, filter] R` with a fixed algorithm.
fn fused_plan(keys: &[(usize, usize)], filter: Option<&RowPred>, algo: JoinAlgo) -> ExecPlan {
    let mut p = ExecPlan::new();
    let l = p.push(ExecOp::Scan { rel: "L".into() });
    let r = p.push(ExecOp::Scan { rel: "R".into() });
    p.push(ExecOp::Join {
        left: l,
        right: r,
        keys: keys.to_vec(),
        filter: filter.cloned(),
        algo,
    });
    p
}

/// Run a plan unmetered-but-counted: its rows and the steps it spent.
fn run_counted(plan: &ExecPlan, i: &Instance) -> (BTreeSet<Vec<Value>>, u64) {
    let gov = Governor::unlimited();
    let rel = execute(plan, i, &gov)
        .expect("unlimited execution succeeds")
        .to_relation();
    (rel.iter().cloned().collect(), gov.steps_spent())
}

/// `l` and `r` as two `(U, {U})` relations, for [`check_join`].
fn check_fused_join(l: &SetRows, r: &SetRows, keys: &[(usize, usize)], filter: Option<&RowPred>) {
    check_join(&set_rel(l, false), &set_rel(r, false), keys, filter);
}

/// An instance over `l` and `r` whose arena admitted `R`'s ids before
/// `L`'s, so raw id order differs from a fresh instance's.
fn reordered_instance(l: &Rows, r: &Rows) -> Instance {
    let i = rows_instance(l, r);
    let mut scan_r = ExecPlan::new();
    scan_r.push(ExecOp::Scan { rel: "R".into() });
    run_counted(&scan_r, &i);
    i
}

/// Every applicable algorithm's join equals the reference `σ(L × R)`,
/// and every one answers the bit-identical table, with steps that do not
/// depend on whether the scans were warm, on the hash join's build side
/// or on the arena's id order (scanning `R` before `L` admits ids
/// differently).
fn check_join(l: &Rows, r: &Rows, keys: &[(usize, usize)], filter: Option<&RowPred>) {
    let i = rows_instance(l, r);
    let reordered = reordered_instance(l, r);
    let expected = reference_select_product(&l.1, &r.1, keys, filter);
    let mut hash_steps = Vec::new();
    let mut first: Option<ColumnTable> = None;
    for algo in ALGOS.into_iter().filter(|&a| applicable(a, keys, filter)) {
        let plan = fused_plan(keys, filter, algo);
        let table = execute(&plan, &i, &Governor::unlimited())
            .unwrap()
            .table()
            .clone();
        match &first {
            None => first = Some(table),
            Some(f) => assert_eq!(f, &table, "{} is not bit-identical", algo.label()),
        }
        let (rows, steps) = run_counted(&plan, &i);
        assert_eq!(
            rows,
            expected,
            "{} vs σ(L × R), filter {filter:?}",
            algo.label()
        );
        assert_eq!(
            run_counted(&plan, &i),
            (rows.clone(), steps),
            "{} run again",
            algo.label()
        );
        assert_eq!(
            run_counted(&plan, &reordered),
            (rows, steps),
            "{} over a differently ordered arena",
            algo.label()
        );
        if matches!(algo, JoinAlgo::Hash { .. }) {
            hash_steps.push(steps);
        }
    }
    assert!(
        hash_steps.windows(2).all(|w| w[0] == w[1]),
        "hash steps depend on the build side: {hash_steps:?}"
    );
}

fn set_rows_strategy() -> impl Strategy<Value = SetRows> {
    // Small atom and member domains: shared members, repeated sets, and
    // (one row in six) the empty set.
    prop::collection::vec((0u32..4, prop_oneof![1 => Just(0u32), 5 => 0u32..32]), 0..9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// σ over a product, run inside the join: random `(U, {U})` inputs,
    /// random predicate trees, with or without an equi-key, with or
    /// without a cross-side `∈`/`⊆` conjunct an element index can probe.
    #[test]
    fn fused_select_product_matches_reference(
        l in set_rows_strategy(),
        r in set_rows_strategy(),
        codes in prop::collection::vec(0u32..1000, 1..24),
        anchor in 0usize..6,
        keyed in any::<bool>(),
        depth in 0u32..4,
    ) {
        let tree = decode_pred(&codes, &mut 0, depth, 4);
        // anchors 0..4 put a set conjunct on top; 4 leaves the tree alone;
        // 5 adds no filter at all (the bare product or key join)
        let filter = match anchor {
            a if a < SET_CONJUNCTS.len() => Some(conjunct_pred(SET_CONJUNCTS[a]).and(tree)),
            4 => Some(tree),
            _ => None,
        };
        let keys: &[(usize, usize)] = if keyed { &[(0, 0)] } else { &[] };
        check_fused_join(&l, &r, keys, filter.as_ref());
    }
}

// ---------------------------------------------------------------------------
// lookups: probes of a relation's sorted first column
// ---------------------------------------------------------------------------

/// Lookup keys: the predicate constants (an atom no relation holds among
/// them) and a set no relation holds.
fn lookup_keys() -> Vec<Value> {
    let mut keys = pred_consts().to_vec();
    keys.push(Value::set([Value::Atom(Atom(99))]));
    keys
}

/// `σ[#1 = key ∧ rest]` over `rel`: as a lookup, and as the scan and
/// select it replaces.
fn lookup_plans(rel: &str, key: &Value, rest: Option<&RowPred>) -> (ExecPlan, ExecPlan) {
    let mut lookup = ExecPlan::new();
    lookup.push(ExecOp::Lookup {
        rel: rel.into(),
        key: key.clone(),
        rest: rest.cloned(),
    });
    let mut select = ExecPlan::new();
    let input = select.push(ExecOp::Scan { rel: rel.into() });
    let pin = RowPred::EqConst(0, key.clone());
    let pred = rest.cloned().map_or(pin.clone(), |p| pin.and(p));
    select.push(ExecOp::Select { input, pred });
    (lookup, select)
}

/// On `L` and on `R`, a lookup answers the table its scan and select
/// answer, bit for bit, and the reference rows. It admits nothing to
/// the arena, and it spends one step for the probe, one per row holding
/// the key and two per row answered (kept, then output), whether the
/// table is warm or cold and whatever the arena's id order.
fn check_lookup(l: &Rows, r: &Rows, key: &Value, rest: Option<&RowPred>) {
    let i = rows_instance(l, r);
    let reordered = reordered_instance(l, r);
    for (rel, (_, rows)) in [("L", l), ("R", r)] {
        let rows: BTreeSet<&Vec<Value>> = rows.iter().collect();
        let keyed: Vec<&Vec<Value>> = rows.into_iter().filter(|row| &row[0] == key).collect();
        let expected: BTreeSet<Vec<Value>> = (keyed.iter())
            .filter(|row| rest.is_none_or(|p| reference_holds(p, row)))
            .map(|row| row.to_vec())
            .collect();
        let (lookup, select) = lookup_plans(rel, key, rest);
        let cold = run_counted(&lookup, &rows_instance(l, r));
        let steps = 1 + keyed.len() as u64 + 2 * expected.len() as u64;
        assert_eq!(cold, (expected, steps), "{rel}: lookup of {key:?}, cold");

        let gov = Governor::unlimited();
        let want = execute(&select, &i, &gov).unwrap().table().clone();
        let int = Resident::of(&i).interner().clone();
        let arena = (int.len(), int.bytes());
        let got = execute(&lookup, &i, &gov).unwrap().table().clone();
        assert_eq!(got, want, "{rel}: lookup vs scan and select");
        assert_eq!((int.len(), int.bytes()), arena, "a lookup admits nothing");
        assert_eq!(run_counted(&lookup, &i), cold, "{rel}: warm");
        assert_eq!(run_counted(&lookup, &reordered), cold, "{rel}: id order");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lookups on an atom-valued (`L`) and a set-valued (`R`) first
    /// column, for present and absent keys, with or without a random
    /// further predicate.
    #[test]
    fn lookup_equals_scan_and_select(
        l in set_rows_strategy(),
        r in set_rows_strategy(),
        codes in prop::collection::vec(0u32..1000, 1..24),
        key in 0usize..6,
        filtered in any::<bool>(),
        depth in 0u32..4,
    ) {
        let rest = filtered.then(|| decode_pred(&codes, &mut 0, depth, 2));
        check_lookup(&set_rel(&l, false), &set_rel(&r, true), &lookup_keys()[key], rest.as_ref());
    }

    /// Lookup joins equal every other algorithm: the right input leads
    /// with an atom or a set, on one key or two, filtered or not.
    #[test]
    fn lookup_join_equals_the_other_algorithms(
        l in set_rows_strategy(),
        r in set_rows_strategy(),
        codes in prop::collection::vec(0u32..1000, 1..24),
        shape in 0usize..4,
        filtered in any::<bool>(),
        depth in 0u32..4,
    ) {
        let filter = filtered.then(|| decode_pred(&codes, &mut 0, depth, 4));
        let (set_first, keys): (bool, &[(usize, usize)]) = match shape {
            0 => (false, &[(0, 0)]),
            1 => (false, &[(0, 0), (1, 1)]),
            2 => (true, &[(1, 0)]),
            _ => (true, &[(1, 0), (0, 1)]),
        };
        check_join(&set_rel(&l, false), &set_rel(&r, set_first), keys, filter.as_ref());
    }
}

/// A probe side of 4200 rows: element-index `⊆` and `∈` across sides,
/// each with extra conjuncts, agree with the reference and with the
/// nested loop, with equal steps.
#[test]
fn large_element_index_join_matches_reference() {
    // 4200 left rows with sets of 0–3 members; 60 right rows with up to
    // 12 members, all over 24 atoms.
    let l: SetRows = (0..4200u32)
        .map(|k| {
            (
                k % 24,
                ((1 << (k % 24)) * (k % 3)) | ((1 << ((k / 7) % 24)) * (k % 2)),
            )
        })
        .collect();
    let r: SetRows = (0..60u32)
        .map(|k| (k % 24, (0xFFF << (k % 13)) & 0xFF_FFFF & !(1 << (k % 5))))
        .collect();
    let sub = RowPred::SubsetCols(1, 3).and(RowPred::Not(Box::new(RowPred::EqCols(0, 2))));
    let member = RowPred::InCols(0, 3).and(RowPred::Or(
        Box::new(RowPred::SubsetCols(3, 1)),
        Box::new(RowPred::EqConst(2, Value::Atom(Atom(5)))),
    ));
    for filter in [sub, member] {
        check_fused_join(&l, &r, &[], Some(&filter));
    }
}

/// `team_sub` as nestbench sends it: `σ[#2 ⊆ #4](Team × Team)`, planned.
fn team_sub_plan(teams: u32) -> (Instance, nestdb::plan::Planned) {
    let ty = vec![Type::Atom, Type::set(Type::Atom)];
    let schema = Schema::from_relations([RelationSchema::new("Team", ty)]);
    let mut i = Instance::empty(schema);
    for t in 0..teams {
        let members = [t % 11, t % 7 + 11, t % 3 + 20].map(|m| Value::Atom(Atom(1000 + m)));
        i.insert("Team", vec![Value::Atom(Atom(t)), Value::set(members)]);
    }
    let team = || Box::new(Expr::Rel("Team".into()));
    let expr = Expr::Select(
        Box::new(Expr::Product(team(), team())),
        Pred::SubsetCols(2, 4),
    );
    let planned = Planner::new(i.schema())
        .with_instance(&i)
        .plan_algebra(&expr)
        .unwrap();
    (i, planned)
}

fn resource_error(e: PlanError) -> nestdb::object::ResourceError {
    match e {
        PlanError::Algebra(AlgebraError::Resource(r)) => r,
        other => panic!("expected a resource error, got {other}"),
    }
}

/// Budgets on a σ over a product: a range cap below |Team|² trips at
/// `exec.product` before any pair is looked at, and a step budget that
/// runs out part-way through the pairs trips with no partial answer.
#[test]
fn select_over_product_keeps_its_budgets() {
    let teams = 2000u64;
    let (i, planned) = team_sub_plan(teams as u32);

    let capped = Governor::new(Limits {
        max_range: teams * teams - 1,
        ..Limits::unlimited()
    });
    let err = resource_error(planned.physical.execute(&i, &capped).unwrap_err());
    assert_eq!(err.budget, BudgetKind::Range);
    assert_eq!(err.site, "exec.product");
    assert_eq!(capped.mem_spent(), 0, "nothing was materialized");

    // The scan and an index of every team's 3 members cost 5 steps per
    // team; half a step per team more runs out while the pairs are
    // being enumerated.
    let starved = Governor::new(Limits {
        max_steps: 5 * teams + teams / 2,
        ..Limits::unlimited()
    });
    let err = resource_error(planned.physical.execute(&i, &starved).unwrap_err());
    assert_eq!(err.budget, BudgetKind::Steps);
    assert!(
        err.site.starts_with("exec."),
        "unexpected trip site {}",
        err.site
    );
}
