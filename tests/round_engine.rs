//! The semi-naive round engine as `Session::run` serves it, on the shapes
//! of nestbench's `fixpoint` workload, built here rather than read from
//! the benchmark.
//!
//! * **exact metering** — rows, rounds, `spend.steps` and
//!   `spend.mem_bytes` of the Datalog closure, single-source
//!   reachability, stratified complement and CALC+IFP closure texts are
//!   pinned, cold and warm alike. Steps and bytes are what the round
//!   engine meters, so a change that makes a round cheaper must leave
//!   every figure here as it is.
//! * **rounds read the current version** — the rounds read the EDB the
//!   instance version keeps resident; a write starts a new version, and
//!   the next evaluation sees the write and meters it exactly, also when
//!   the write makes rounds re-derive pairs they already hold.

use nestdb::exec::Resident;
use nestdb::object::text::parse_database;
use nestdb::object::Universe;
use nestdb::proto::{Lang, Op, Request, Response, Strategy};
use nestdb::{Session, Store};
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::{Arc, RwLock};

/// A layered DAG: `layers` × `width` nodes, node `w` of each layer but
/// the last wired to nodes `3w+1` and `5w+2` (mod `width`) of the next.
fn layered(layers: usize, width: usize) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    for l in 0..layers - 1 {
        for w in 0..width {
            for t in [(3 * w + 1) % width, (5 * w + 2) % width] {
                edges.insert((l * width + w, (l + 1) * width + t));
            }
        }
    }
    edges
}

/// `E`: 6 × 50 layered, plus a third edge out of each node of the first
/// two layers (600 edges). `H`: 4 × 6 layered, and its node list `hnode`.
fn fixpoint_db() -> String {
    let mut e = layered(6, 50);
    for i in 0..100 {
        let (l, w) = (i / 50, i % 50);
        e.insert((i, (l + 1) * 50 + (7 * w + 3) % 50));
    }
    let mut text = String::from("schema E(U, U).\n");
    for (a, b) in &e {
        writeln!(text, "E('v{a}', 'v{b}').").unwrap();
    }
    text.push_str("schema H(U, U).\n");
    for (a, b) in layered(4, 6) {
        writeln!(text, "H('h{a}', 'h{b}').").unwrap();
    }
    text.push_str("schema hnode(U).\n");
    for n in 0..24 {
        writeln!(text, "hnode('h{n}').").unwrap();
    }
    text
}

fn session(text: &str) -> Session {
    let mut universe = Universe::new();
    let (_, instance) = parse_database(text, &mut universe).unwrap();
    Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(universe, instance))))
        .build()
}

fn tc_program(rel: &str, out: &str) -> String {
    format!(
        "rel {out}(U, U).\n{out}(x, y) :- {rel}(x, y).\n{out}(x, y) :- {out}(x, z), {rel}(z, y)."
    )
}

fn datalog(strategy: Strategy, text: String) -> Request {
    Request {
        strategy,
        ..Request::eval(Lang::Datalog, text)
    }
}

/// The four `fixpoint` texts, by nestbench's class names.
fn texts() -> Vec<(&'static str, Request)> {
    vec![
        ("dl-tc", datalog(Strategy::SemiNaive, tc_program("E", "tc"))),
        (
            "dl-reach",
            datalog(
                Strategy::SemiNaive,
                "rel reach(U).\nreach(y) :- E('v0', y).\nreach(y) :- reach(x), E(x, y).".into(),
            ),
        ),
        (
            "dl-strat",
            datalog(
                Strategy::Stratified,
                format!(
                    "{}\nrel nr(U, U).\nnr(x, y) :- hnode(x), hnode(y), !hr(x, y).",
                    tc_program("H", "hr")
                ),
            ),
        ),
        (
            "ifp-tc",
            Request::eval(
                Lang::Calc,
                "{[u:U, v:U] | ifp(S; x:U, y:U | H(x, y) \\/ exists z:U (S(x, z) /\\ H(z, y)))(u, v)}",
            ),
        ),
    ]
}

/// Rows per answer relation, and the rounds.
type Shape = (Vec<(String, usize)>, Option<u64>);

fn shape(r: &Response) -> Shape {
    let rows = (r.relations.iter())
        .map(|rel| (rel.name.clone(), rel.rows.len()))
        .collect();
    (rows, r.rounds)
}

fn run(s: &Session, name: &str, req: &Request) -> Response {
    let r = s.run(req);
    assert!(r.ok, "{name}: {:?}", r.error);
    r
}

/// `(name, rows per relation, rounds, steps, mem_bytes)`.
type Pinned = (
    &'static str,
    &'static [(&'static str, usize)],
    Option<u64>,
    u64,
    u64,
);

const PINNED: [Pinned; 4] = [
    ("dl-tc", &[("tc", 3092)], Some(6), 9144, 77760),
    ("dl-reach", &[("reach", 30)], Some(6), 1274, 416),
    ("dl-strat", &[("hr", 84), ("nr", 492)], None, 1448, 9728),
    ("ifp-tc", &[("result", 84)], None, 272, 1856),
];

#[test]
fn fixpoint_shapes_meter_exactly() {
    let text = fixpoint_db();
    let s = session(&text);
    for ((name, req), (pinned, rows, rounds, steps, mem)) in texts().iter().zip(PINNED) {
        assert_eq!(*name, pinned);
        let want: Shape = (
            rows.iter().map(|(r, n)| (r.to_string(), *n)).collect(),
            rounds,
        );
        // the first run reads the EDB cold, the second warm
        for pass in ["cold", "warm"] {
            let r = run(&s, name, req);
            let spend = r.spend.as_ref().expect("an eval reports its spend");
            assert_eq!(shape(&r), want, "{name} ({pass}): rows and rounds");
            assert_eq!(
                (spend.steps, spend.mem_bytes),
                (steps, mem),
                "{name} ({pass}): steps and bytes"
            );
        }
    }
}

#[test]
fn rounds_read_the_current_version() {
    let s = session(&fixpoint_db());
    let insert = |text: &str| {
        let r = s.run(&Request {
            op: Op::Insert,
            text: text.into(),
            ..Request::default()
        });
        assert!(r.ok, "{text}: {:?}", r.error);
    };
    let rows = |name: &str, req: &Request, relation: &str| {
        let r = run(&s, name, req);
        let rel = r.relations.iter().find(|r| r.name == relation).unwrap();
        rel.rows.len()
    };
    let texts = texts();
    let [(_, tc), (_, reach), (_, strat), (_, ifp)] = &texts[..] else {
        unreachable!("four texts")
    };
    let resident = || {
        let store = s.store();
        let store = store.read().unwrap();
        Resident::of(store.instance()).rows(store.instance(), "E")
    };
    assert_eq!(rows("dl-tc", tc, "tc"), 3092);
    let e = resident();
    assert_eq!(rows("dl-tc", tc, "tc"), 3092);
    assert!(
        Arc::ptr_eq(&e, &resident()),
        "one version, one resident EDB"
    );
    assert_eq!(rows("dl-reach", reach, "reach"), 30);

    // a shortcut past one layer: the next version, and the first pairs
    // with paths of two lengths, so a round re-derives pairs the IDB
    // already holds and must drop them (they cost their firing, no more)
    insert("E('v0', 'v100').");
    assert!(
        !Arc::ptr_eq(&e, &resident()),
        "a write starts a new version"
    );
    assert_eq!(e.len() + 1, resident().len());
    let r = run(&s, "dl-tc", tc);
    let spend = r.spend.as_ref().expect("an eval reports its spend");
    assert_eq!(shape(&r), (vec![("tc".to_string(), 3096)], Some(6)));
    assert_eq!((spend.steps, spend.mem_bytes), (9157, 77872));

    // a new edge out of the reachability source: one new pair each
    let reached = rows("dl-reach", reach, "reach");
    insert("E('v0', 'sink').");
    assert_eq!(rows("dl-tc", tc, "tc"), 3097);
    assert_eq!(rows("dl-reach", reach, "reach"), reached + 1);

    // the lower stratum and the CALC+IFP closure read H the same way
    assert_eq!(rows("dl-strat", strat, "nr"), 492);
    assert_eq!(rows("ifp-tc", ifp, "result"), 84);
    insert("H('h23', 'h0').");
    assert!(rows("ifp-tc", ifp, "result") > 84);
    assert!(rows("dl-strat", strat, "nr") < 492);
}
