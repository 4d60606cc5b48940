//! The rule matcher against an oracle it shares no code with.
//!
//! Semi-naive rounds and view maintenance both fire rules through
//! `no_datalog::fire`, so the maintenance suite's reference (stratified
//! evaluation) is no longer independent of it. Here random small programs
//! using `!R`, `=`, `!=`, `in` and `notin` over a set-typed column run as
//! served semi-naive rounds and through the simultaneous-IFP oracle
//! (`eval_simultaneous`), which translates the program into one
//! simultaneous IFP and evaluates it on the CALC tree walk. The two IDBs
//! must be equal.
//!
//! The matcher's step count must not depend on hash order either:
//! repeated evaluations over instances built anew spend one count.

use nestdb::core::print::Printer;
use nestdb::datalog::{eval_governed, eval_simultaneous, parse_program, Strategy};
use nestdb::object::{
    AtomOrder, Governor, Instance, RelationSchema, Schema, Type, Universe, Value,
};
use nestdb::proto::{Lang, Op, Request};
use nestdb::Session;
use proptest::prelude::*;

const NODES: [&str; 3] = ["a", "b", "c"];

/// xorshift64*: one seed drives the whole generated case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// The store: random edges `G(U, U)` and random node sets `S(U, {U})`.
fn store_clauses(rng: &mut Rng) -> Vec<String> {
    let mut clauses = vec![
        "schema G(U, U).".to_string(),
        "schema S(U, {U}).".to_string(),
    ];
    for _ in 0..2 + rng.below(6) {
        let (a, b) = (rng.pick(&NODES), rng.pick(&NODES));
        clauses.push(format!("G('{a}', '{b}')."));
    }
    for _ in 0..1 + rng.below(3) {
        let owner = rng.pick(&NODES);
        let members: Vec<String> = NODES
            .iter()
            .filter(|_| rng.below(2) == 0)
            .map(|n| format!("'{n}'"))
            .collect();
        clauses.push(format!("S('{owner}', {{{}}}).", members.join(", ")));
    }
    clauses
}

/// Bodies binding `x` and `y`, for `p(x, y)` heads.
const P_BODIES: [&str; 6] = [
    "G(x, y)",
    "p(x, z), G(z, y)",
    "S(x, t), y in t",
    "G(x, y), p(y, x)",
    "q(x), q(y)",
    "G(x, w), y = w",
];

/// Bodies binding `x` and `y`, for `q(x)` heads.
const Q_BODIES: [&str; 4] = [
    "G(x, y)",
    "p(x, y), x = y",
    "S(y, t), x in t",
    "p(y, x), q(y)",
];

/// Filters over the bound `x` and `y`.
const FILTERS: [&str; 9] = [
    "!G(y, x)",
    "!p(y, x)",
    "!q(y)",
    "x != y",
    "x = y",
    "x != 'a'",
    "S(x, u), y in u",
    "S(x, u), y notin u",
    "S(y, u), x notin u",
];

/// A random program over `p(U, U)` and `q(U)`: one rule per head, then up
/// to three more, each body followed by up to two filters.
fn program(rng: &mut Rng) -> String {
    let mut text = String::from("rel p(U, U).\nrel q(U).\n");
    let heads = [true, false]
        .into_iter()
        .chain((0..rng.below(4)).map(|_| rng.below(2) == 0))
        .collect::<Vec<bool>>();
    for is_p in heads {
        let (head, body) = if is_p {
            ("p(x, y)", rng.pick(&P_BODIES))
        } else {
            ("q(x)", rng.pick(&Q_BODIES))
        };
        let mut lits = vec![body.to_string()];
        for _ in 0..rng.below(3) {
            lits.push(rng.pick(&FILTERS).to_string());
        }
        text.push_str(&format!("{head} :- {}.\n", lits.join(", ")));
    }
    text
}

/// Each IDB relation's rendered rows, served by semi-naive rounds.
fn idb(session: &Session, text: &str) -> Vec<(String, Vec<String>)> {
    let r = session.run(&Request::eval(Lang::Datalog, text));
    assert!(r.ok, "{text}: {:?}", r.error);
    let mut rels: Vec<(String, Vec<String>)> = r
        .relations
        .into_iter()
        .map(|rel| (rel.name, rel.rows))
        .collect();
    rels.sort();
    rels
}

/// The same rows from the simultaneous-IFP oracle over the session's
/// store, rendered as replies render them. The generated bodies use `t`
/// and `u` for sets and `w`, `y`, `z` for atoms, and the translation
/// needs each body-only variable's type.
fn oracle_idb(session: &Session, text: &str) -> Vec<(String, Vec<String>)> {
    let store = session.store();
    let store = store.read().unwrap();
    let mut universe = store.universe().clone();
    let program = parse_program(text, &mut universe).unwrap();
    let instance = store.instance();
    let order = AtomOrder::new(instance.atoms().into_iter().collect());
    let set = Type::set(Type::Atom);
    let typed = [
        ("t", set.clone()),
        ("u", set),
        ("w", Type::Atom),
        ("y", Type::Atom),
        ("z", Type::Atom),
    ];
    let gov = Governor::unlimited();
    let idb = eval_simultaneous(&program, &typed, instance, order, &gov)
        .unwrap_or_else(|e| panic!("simultaneous oracle on\n{text}: {e}"));
    let printer = Printer::with_universe(&universe);
    idb.iter()
        .map(|(name, rel)| {
            let rows = rel
                .sorted_rows()
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(|v| printer.value(v)).collect();
                    format!("({})", cells.join(", "))
                })
                .collect();
            (name.clone(), rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seminaive_rounds_equal_the_simultaneous_ifp(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let clauses = store_clauses(&mut rng);
        let text = program(&mut rng);
        let session = Session::default();
        for clause in &clauses {
            let r = session.run(&Request {
                op: Op::Insert,
                text: clause.clone(),
                ..Request::default()
            });
            prop_assert!(r.ok, "{clause}: {:?}", r.error);
        }
        let rounds = idb(&session, &text);
        let oracle = oracle_idb(&session, &text);
        prop_assert_eq!(rounds, oracle, "store {:?}, program\n{}", clauses, text);
    }
}

/// A program with negation and `=` over a 40-node graph, evaluated on
/// ten instances built anew (so their hash sets iterate
/// in different orders): every run spends the same steps.
#[test]
fn eval_steps_do_not_depend_on_hash_order() {
    const SRC: &str = "rel tc(U, U).\nrel node(U).\nrel far(U, U).\n\
        tc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).\n\
        node(x) :- G(x, y).\nnode(y) :- G(x, y).\n\
        far(x, y) :- node(x), node(w), y = w, !tc(x, y), x != y.\n";
    let names: Vec<String> = (0..40).map(|i| format!("n{i}")).collect();
    let universe = Universe::with_names(names.iter().map(String::as_str));
    let at = |k: usize| Value::Atom(universe.get(&format!("n{k}")).unwrap());
    let schema = Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let steps: Vec<u64> = (0..10)
            .map(|_| {
                let mut instance = Instance::empty(schema.clone());
                for k in 0..40 {
                    instance.insert("G", vec![at(k), at((k * 7 + 3) % 40)]);
                    instance.insert("G", vec![at(k), at((k + 1) % 20)]);
                }
                let program = parse_program(SRC, &mut universe.clone()).unwrap();
                let gov = Governor::unlimited();
                eval_governed(&program, &instance, strategy, &gov).unwrap();
                gov.steps_spent()
            })
            .collect();
        assert!(
            steps.iter().all(|&s| s == steps[0]),
            "{strategy:?}: {steps:?}"
        );
    }
}
