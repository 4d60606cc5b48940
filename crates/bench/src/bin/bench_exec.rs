//! Columnar-kernel benchmark: the tree-walk engine versus the columnar
//! join kernels (nested-loop, hash, merge) on join-heavy fixtures, cold
//! and warm, plus honest context about the host.
//!
//! ```text
//! cargo run --release -p no-bench --bin bench_exec
//! ```
//!
//! Emits `BENCH_exec.json` in the current directory:
//!
//! ```json
//! { "host_parallelism": 1,
//!   "benchmarks": [ { "name": "...", "results": n,
//!                     "engines": [ { "engine": "tree_walk",
//!                                    "cold_ms": c, "warm_ms": w }, ... ],
//!                     "baseline": "tree_walk",
//!                     "speedup_vs_baseline": s }, ... ] }
//! ```
//!
//! `cold_ms` is the first run (value interning and, for the planned
//! entries, plan compilation included); `warm_ms` is the best of the
//! subsequent repetitions. `speedup_vs_baseline` is the named baseline engine's warm
//! time over the best competing warm time — measured on this
//! host, never extrapolated. `host_parallelism` is
//! `std::thread::available_parallelism()`; on a single-core host every
//! thread count time-slices one CPU, so the kernels are compared at
//! pool size 1 and the speedup is purely algorithmic, not parallelism.
//! Every engine computes the identical relation and the harness asserts
//! the cardinalities agree before reporting a single number.

use minipool::ThreadPool;
use nestdb::exec::{execute, ExecOp, ExecPlan, JoinAlgo};
use nestdb::plan::{CalcMode, Pass, PassSet, Physical, Planner};
use no_core::ast::{Formula, Term};
use no_core::eval::Query;
use no_object::{Atom, Governor, Instance, RelationSchema, Schema, Type, Value};
use std::time::Instant;

/// A graph over `n` atoms with several strides: `4n` edges, so the
/// two-hop join touches every node many times.
fn graph(n: usize) -> Instance {
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    let mut inst = Instance::empty(schema);
    for i in 0..n {
        for stride in [1usize, 3, 7, 13] {
            let j = (i + stride) % n;
            inst.insert(
                "G",
                vec![Value::Atom(Atom(i as u32)), Value::Atom(Atom(j as u32))],
            );
        }
    }
    inst
}

/// Two binary relations sharing a key domain: `L` has `n` rows over
/// `n / 20` keys, `R` has `n / 5` rows over the same keys.
fn lr(n: usize) -> Instance {
    let keys = (n / 20).max(1) as u32;
    let schema = Schema::from_relations([
        RelationSchema::new("L", vec![Type::Atom, Type::Atom]),
        RelationSchema::new("R", vec![Type::Atom, Type::Atom]),
    ]);
    let mut inst = Instance::empty(schema);
    for i in 0..n as u32 {
        inst.insert("L", vec![Value::Atom(Atom(i)), Value::Atom(Atom(i % keys))]);
    }
    for j in 0..(n / 5) as u32 {
        inst.insert(
            "R",
            vec![
                Value::Atom(Atom(j % keys)),
                Value::Atom(Atom(1_000_000 + j)),
            ],
        );
    }
    inst
}

/// ∃z. G(x,z) ∧ G(z,y) — the join-heavy conjunctive fixture.
fn two_hop() -> Query {
    Query::new(
        vec![("x".to_string(), Type::Atom), ("y".to_string(), Type::Atom)],
        Formula::Exists(
            "z".to_string(),
            Type::Atom,
            Box::new(Formula::and([
                Formula::Rel("G".to_string(), vec![Term::var("x"), Term::var("z")]),
                Formula::Rel("G".to_string(), vec![Term::var("z"), Term::var("y")]),
            ])),
        ),
    )
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
        algo,
    });
    p
}

struct Engine {
    name: String,
    cold_ms: f64,
    warm_ms: f64,
}

struct Row {
    name: &'static str,
    results: usize,
    engines: Vec<Engine>,
    /// Which engine the speedup is measured against.
    baseline: &'static str,
    /// Baseline warm time over the best non-baseline warm time.
    speedup: f64,
}

/// First run (`cold`) then best of `reps` more (`warm`); `f` returns the
/// result cardinality for the cross-check.
fn time(reps: usize, mut f: impl FnMut() -> usize) -> (f64, f64, usize) {
    let t0 = Instant::now();
    let n = f();
    let cold = t0.elapsed().as_secs_f64() * 1e3;
    let mut warm = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = f();
        assert_eq!(n, m, "repetitions disagree");
        warm = warm.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (cold, warm, n)
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let reps = 3;
    let pool = ThreadPool::new(1);
    let mut rows: Vec<Row> = Vec::new();

    // -- two-hop conjunctive CALC: tree-walk vs planner-chosen columnar --
    {
        let inst = graph(192);
        let q = two_hop();
        let mut engines = Vec::new();

        let legacy = Planner::new(inst.schema())
            .with_instance(&inst)
            .with_passes(PassSet::all().without(Pass::Joins))
            .plan_calc(&q, CalcMode::Safe)
            .expect("legacy plan compiles");
        let (cold, warm, n) = time(reps, || {
            legacy
                .execute(&inst, &Governor::unlimited(), &pool)
                .expect("tree-walk evaluates")
                .into_relation()
                .len()
        });
        let results = n;
        engines.push(Engine {
            name: "tree_walk".into(),
            cold_ms: cold,
            warm_ms: warm,
        });
        let tree_warm = warm;

        let planned = Planner::new(inst.schema())
            .with_instance(&inst)
            .plan_calc(&q, CalcMode::Safe)
            .expect("columnar plan compiles");
        assert!(
            matches!(planned.physical, Physical::Exec { .. }),
            "two-hop must lower to the columnar kernels"
        );
        let (cold, warm, n) = time(reps, || {
            planned
                .execute(&inst, &Governor::unlimited(), &pool)
                .expect("columnar evaluates")
                .into_relation()
                .len()
        });
        assert_eq!(results, n, "engines disagree on two_hop");
        engines.push(Engine {
            name: "columnar_planned".into(),
            cold_ms: cold,
            warm_ms: warm,
        });

        rows.push(Row {
            name: "two_hop_calc",
            results,
            baseline: "tree_walk",
            speedup: tree_warm / warm,
            engines,
        });
    }

    // -- raw join kernels on L ⋈ R: NL vs hash vs merge -----------------
    {
        let inst = lr(20_000);
        let mut engines = Vec::new();
        let mut results = 0usize;
        let mut nl_warm = 0.0f64;
        let mut best_warm = f64::INFINITY;
        for algo in [
            JoinAlgo::NestedLoop,
            JoinAlgo::Hash { build_left: false },
            JoinAlgo::Merge,
        ] {
            let plan = join_plan(algo);
            let (cold, warm, n) = time(reps, || {
                execute(&plan, &inst, &Governor::unlimited(), &pool)
                    .expect("join evaluates")
                    .len()
            });
            assert!(results == 0 || results == n, "join kernels disagree");
            results = n;
            if matches!(algo, JoinAlgo::NestedLoop) {
                nl_warm = warm;
            } else {
                best_warm = best_warm.min(warm);
            }
            engines.push(Engine {
                name: algo.label().to_lowercase().replace(['(', ')', '='], "_"),
                cold_ms: cold,
                warm_ms: warm,
            });
        }
        rows.push(Row {
            name: "join_kernels_lr",
            results,
            baseline: "nestedloopjoin",
            speedup: nl_warm / best_warm,
            engines,
        });
    }

    let mut json = format!("{{\n  \"host_parallelism\": {host},\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        print!("{:<18} ", r.name);
        for e in &r.engines {
            print!(
                "{} cold {:>9.3} warm {:>9.3}   ",
                e.name, e.cold_ms, e.warm_ms
            );
        }
        println!("speedup {:>6.2}x   ({} results)", r.speedup, r.results);
        let engines_json: Vec<String> = r
            .engines
            .iter()
            .map(|e| {
                format!(
                    "{{ \"engine\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3} }}",
                    e.name, e.cold_ms, e.warm_ms
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"results\": {}, \"engines\": [ {} ], \"baseline\": \"{}\", \"speedup_vs_baseline\": {:.2} }}{}\n",
            r.name,
            r.results,
            engines_json.join(", "),
            r.baseline,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json (host_parallelism = {host})");
}
