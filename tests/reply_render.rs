//! The id renderer against the value renderer it replaced.
//!
//! Replies render result relations straight from interned ids
//! (`nestdb::reply`). This suite generates relations of complex objects —
//! set height at most 2, tuple width at most 3, empty sets, sets of
//! tuples, sets of sets — over atoms whose names contain `"`, `\`,
//! newlines, tabs, U+0001 and non-ASCII text, and holds the id renderer
//! to the oracle below: the `Value`-tree renderer and `Json`-tree
//! encoder replies used before, copied here verbatim in behaviour. The
//! text rows, the `rows_json` array and the whole reply line must agree
//! byte for byte.

use nestdb::exec::Answer;
use nestdb::object::{Interner, Relation, SetValue, Universe, Value};
use nestdb::proto::{DeltaOut, Response};
use nestdb::reply::relation_out;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Atom names that need escaping in JSON, plus plain and non-ASCII ones.
const NAMES: &[&str] = &[
    "a",
    "b",
    "quote\"d",
    "back\\slash",
    "new\nline",
    "tab\tbed",
    "ctl\u{1}x",
    "caf\u{e9}",
    "\u{65e5}\u{672c}",
    "cr\rlf",
    "",
];

/// A small deterministic generator (xorshift64*), seeded per case.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// A column type: `U`, a tuple of width 1..=3, or a set, with at most
/// `sets` more levels of set nesting.
#[derive(Clone, Debug)]
enum Ty {
    Atom,
    Tuple(Vec<Ty>),
    Set(Box<Ty>),
}

fn ty(g: &mut Gen, sets: u32, depth: u32) -> Ty {
    match g.below(if depth == 0 { 1 } else { 3 }) {
        0 => Ty::Atom,
        1 => Ty::Tuple(
            (0..1 + g.below(3))
                .map(|_| ty(g, sets, depth - 1))
                .collect(),
        ),
        _ if sets > 0 => Ty::Set(Box::new(ty(g, sets - 1, depth - 1))),
        _ => Ty::Atom,
    }
}

fn value(g: &mut Gen, u: &Universe, t: &Ty) -> Value {
    match t {
        Ty::Atom => Value::Atom(u.get(NAMES[g.below(NAMES.len() as u64) as usize]).unwrap()),
        Ty::Tuple(ts) => Value::Tuple(ts.iter().map(|t| value(g, u, t)).collect()),
        Ty::Set(t) => {
            let n = g.below(4);
            Value::Set(SetValue::from_values((0..n).map(|_| value(g, u, t))))
        }
    }
}

/// A universe that admits the names in a seed-dependent order, so atom
/// order (the value order of atoms) is not name order.
fn universe(g: &mut Gen) -> Universe {
    let mut names: Vec<&str> = NAMES.to_vec();
    for i in (1..names.len()).rev() {
        names.swap(i, g.below(i as u64 + 1) as usize);
    }
    let mut u = Universe::new();
    for n in names {
        u.intern(n);
    }
    u
}

/// A relation of 0..12 rows over 1..=3 random column types.
fn relation(g: &mut Gen, u: &Universe) -> Relation {
    let cols: Vec<Ty> = (0..1 + g.below(3)).map(|_| ty(g, 2, 3)).collect();
    Relation::from_rows(
        (0..g.below(13))
            .map(|_| cols.iter().map(|t| value(g, u, t)).collect())
            .collect::<Vec<_>>(),
    )
}

/// `rel` as an id answer over an arena whose admission order is
/// scrambled first, so raw id order is unrelated to value order.
fn answer(g: &mut Gen, rel: &Relation) -> Answer {
    let arena = Interner::new();
    let mut cells: Vec<&Value> = rel.iter().flatten().collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, g.below(i as u64 + 1) as usize);
    }
    for v in cells {
        arena.intern(v);
    }
    Answer::intern(rel, &arena)
}

/// A reply carrying `rel` as a result and as a pushed delta.
fn reply(out: nestdb::proto::RelationOut) -> Response {
    Response {
        ok: true,
        relations: vec![out.clone()],
        message: Some("applied \"1\"\n".into()),
        rounds: Some(3),
        deltas: vec![DeltaOut {
            view: "v\\iew".into(),
            added: vec![out],
            removed: vec![],
        }],
        ..Response::default()
    }
}

fn check(rel: &Relation, u: &Universe, g: &mut Gen) {
    let (rows, rows_json) = oracle::relation_out(u, rel);
    let out = relation_out(u, "r\"el", &answer(g, rel));
    assert_eq!(out.rows, rows, "text rows");
    assert_eq!(out.rows_json.as_str(), rows_json.render(), "rows_json");
    let line = reply(out).to_json();
    assert_eq!(line, oracle::reply_line("r\"el", &rows, &rows_json), "line");
    assert!(!line.contains('\n'), "one line");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_renderer_matches_the_value_renderer(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let u = universe(&mut g);
        let rel = relation(&mut g, &u);
        check(&rel, &u, &mut g);
    }
}

#[test]
fn empty_relations_and_empty_rows() {
    let mut g = Gen(7);
    let u = universe(&mut g);
    check(&Relation::new(), &u, &mut g);
    // a nullary relation's one row renders as `()` / `[]`
    check(&Relation::from_rows([vec![]]), &u, &mut g);
    // empty sets, a set of the empty set, and sets of tuples
    let a = Value::Atom(u.get("quote\"d").unwrap());
    let empty = Value::Set(SetValue::from_values([]));
    let rel = Relation::from_rows([
        vec![empty.clone(), Value::Tuple(vec![a.clone()])],
        vec![Value::set([empty.clone()]), Value::Tuple(vec![a.clone()])],
        vec![
            Value::set([Value::Tuple(vec![a.clone(), empty])]),
            Value::Tuple(vec![a]),
        ],
    ]);
    check(&rel, &u, &mut g);
}

/// ORACLE — the value renderer replies used before rendering from ids:
/// rows sorted by `Value`'s order, each cell printed by the CALC printer's
/// rules, `rows_json` built as a JSON tree, and the reply encoded as a
/// JSON tree with the original escaper. Kept independent of the code
/// under test: it shares no printer, writer or escaper with it.
mod oracle {
    use super::*;

    /// The JSON tree the encoder built.
    #[derive(Clone, Debug)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(String),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Num(tok) => out.push_str(tok),
                Json::Str(s) => out.push_str(&escape(s)),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Json::Obj(members) => {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&escape(k));
                        out.push(':');
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The CALC printer's constant syntax.
    fn text(u: &Universe, v: &Value, out: &mut String) {
        match v {
            Value::Atom(a) => {
                let _ = write!(out, "'{}'", u.name(*a));
            }
            Value::Tuple(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    text(u, v, out);
                }
                out.push(']');
            }
            Value::Set(s) => {
                out.push('{');
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    text(u, v, out);
                }
                out.push('}');
            }
        }
    }

    fn value_json(u: &Universe, v: &Value) -> Json {
        match v {
            Value::Atom(a) => Json::Str(u.name(*a).to_string()),
            Value::Tuple(vs) => Json::Arr(vs.iter().map(|v| value_json(u, v)).collect()),
            Value::Set(s) => Json::Arr(s.iter().map(|v| value_json(u, v)).collect()),
        }
    }

    /// Text rows and the `rows_json` tree, rows in value order.
    pub fn relation_out(u: &Universe, rel: &Relation) -> (Vec<String>, Json) {
        let sorted = rel.sorted_rows();
        let rows = sorted
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|v| {
                        let mut s = String::new();
                        text(u, v, &mut s);
                        s
                    })
                    .collect();
                format!("({})", cells.join(", "))
            })
            .collect();
        let rows_json = Json::Arr(
            sorted
                .iter()
                .map(|row| Json::Arr(row.iter().map(|v| value_json(u, v)).collect()))
                .collect(),
        );
        (rows, rows_json)
    }

    /// The line `super::reply` encodes to.
    pub fn reply_line(name: &str, rows: &[String], rows_json: &Json) -> String {
        let relation = Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            (
                "rows".into(),
                Json::Arr(rows.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            ("rows_json".into(), rows_json.clone()),
        ]);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("error".into(), Json::Null),
            ("relations".into(), Json::Arr(vec![relation.clone()])),
            ("analysis".into(), Json::Null),
            ("explain".into(), Json::Null),
            ("spend".into(), Json::Null),
            ("stats".into(), Json::Null),
            ("message".into(), Json::Str("applied \"1\"\n".into())),
            ("rounds".into(), Json::Num("3".into())),
            (
                "deltas".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("view".into(), Json::Str("v\\iew".into())),
                    ("added".into(), Json::Arr(vec![relation])),
                    ("removed".into(), Json::Arr(vec![])),
                ])]),
            ),
            ("event".into(), Json::Null),
        ])
        .render()
    }
}
