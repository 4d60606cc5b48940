//! Exact spend of the served point reads.
//!
//! The data is the `point-read` workload's: a 6 000-row `G(U, U)` over
//! 2 000 nodes, each with out-degree 3 (one ring edge, two seeded random
//! ones), and a 500-row `Team(U, {U})` of six-member teams. It is built
//! here by the same seeded generator as `nestbench/src/gen.rs`
//! (`Graph::out_regular`, `Teams::new` and `ReadData::new`, over its
//! SplitMix64 `Rng`), mirrored rather than imported.
//!
//! Each of the workload's four selective texts — `point`, `hop2`, `team`
//! and `select_key` — runs through [`Session::run`] for a handful of
//! keys, on a store nothing has read yet (cold) and again on the same
//! store (warm). Every answer must equal the generator's own model, and
//! `spend.steps` is pinned exactly: a point read probes the sorted first
//! column of the relation's resident table, so its steps count the rows
//! it finds, not the rows the relation holds. A lookup that fell back to
//! a scan would spend thousands.

use nestdb::object::text::parse_database;
use nestdb::object::{Instance, Universe};
use nestdb::{Session, Store};
use no_proto::{Lang, Request};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, RwLock};

/// SplitMix64 keyed by `(seed, stream)`, as the benchmark's `Rng`.
struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(mix(seed) ^ stream.wrapping_mul(0xD134_2543_DE82_EF95)))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.0) % n as u64) as usize
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Nodes and out-degree of `G`; rows and members of `Team`.
const NODES: usize = 2000;
const DEGREE: usize = 3;
const TEAMS: usize = 500;
const TEAM_SIZE: usize = 6;

/// The workload's data: node labels and out-edges, team labels and
/// members (node indices).
struct Data {
    node: Vec<String>,
    out: Vec<BTreeSet<usize>>,
    team: Vec<String>,
    members: Vec<BTreeSet<usize>>,
}

impl Data {
    /// `ReadData::new(seed)`'s `G` and `Team`.
    fn new(seed: u64) -> Data {
        let mut rng = Rng::new(seed, 0xDA7A);
        let label = |rng: &mut Rng, prefix: &str, n: usize| -> Vec<String> {
            let p = rng.permutation(n);
            p.into_iter().map(|k| format!("{prefix}{k}")).collect()
        };
        let node = label(&mut rng, "n", NODES);
        let mut out = vec![BTreeSet::new(); NODES];
        for (i, outs) in out.iter_mut().enumerate() {
            outs.insert((i + 1) % NODES);
            while outs.len() < DEGREE {
                let t = rng.below(NODES);
                if t != i {
                    outs.insert(t);
                }
            }
        }
        let team = label(&mut rng, "t", TEAMS);
        let members = (0..TEAMS)
            .map(|_| {
                let mut m = BTreeSet::new();
                while m.len() < TEAM_SIZE {
                    m.insert(rng.below(NODES));
                }
                m
            })
            .collect();
        Data {
            node,
            out,
            team,
            members,
        }
    }

    fn db_text(&self) -> String {
        let mut text = String::from("schema G(U, U).\n");
        for (a, outs) in self.out.iter().enumerate() {
            for &b in outs {
                let _ = writeln!(text, "G('{}', '{}').", self.node[a], self.node[b]);
            }
        }
        text.push_str("schema Team(U, {U}).\n");
        for (t, members) in self.members.iter().enumerate() {
            let set: Vec<String> = members
                .iter()
                .map(|&m| format!("'{}'", self.node[m]))
                .collect();
            let _ = writeln!(text, "Team('{}', {{{}}}).", self.team[t], set.join(","));
        }
        text
    }

    fn labels(&self, nodes: impl IntoIterator<Item = usize>) -> BTreeSet<Vec<String>> {
        (nodes.into_iter())
            .map(|n| vec![self.node[n].clone()])
            .collect()
    }
}

/// The quoted names in a reply row, in order; sorted by name when the
/// row holds a set, whose members render in value order.
fn quoted(row: &str) -> Vec<String> {
    let mut names: Vec<String> = row
        .split('\'')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect();
    if row.contains('{') {
        names.sort();
    }
    names
}

/// A store loaded with the data that no read has touched yet.
fn cold_session(universe: &Universe, instance: &Instance) -> Session {
    let store = Store::with_data(universe.clone(), instance.clone());
    Session::builder()
        .store(Arc::new(RwLock::new(store)))
        .build()
}

/// One text's answer, as the quoted names of each row, and its steps.
fn run(session: &Session, lang: Lang, text: &str) -> (BTreeSet<Vec<String>>, u64) {
    let r = session.run(&Request::eval(lang, text));
    assert!(r.ok, "{text}: {:?}", r.error);
    let rows = r.relations[0].rows.iter().map(|row| quoted(row)).collect();
    (rows, r.spend.expect("an eval reports its spend").steps)
}

/// The keys each class reads: node (or team) indices spread over the
/// labels, and the steps the read of each spends.
struct Case {
    class: &'static str,
    lang: Lang,
    text: fn(&Data, usize) -> String,
    expect: fn(&Data, usize) -> BTreeSet<Vec<String>>,
    pins: [(usize, u64); 5],
}

fn cases() -> [Case; 4] {
    [
        // Lookup: 1 probe + 3 rows found + 3 kept; project 3; output 3.
        Case {
            class: "point",
            lang: Lang::Calc,
            text: |d, a| format!("{{[y:U] | G('{}', y)}}", d.node[a]),
            expect: |d, a| d.labels(d.out[a].iter().copied()),
            pins: [(0, 13), (1, 13), (2, 13), (1000, 13), (1999, 13)],
        },
        // Lookup 7; lookup join: 3 probes + 9 candidates; 9 pairs
        // materialized and projected; output |hop2|.
        Case {
            class: "hop2",
            lang: Lang::Calc,
            text: |d, a| {
                let n = &d.node[a];
                format!("{{[z:U] | exists y:U (G('{n}', y) /\\ G(y, z))}}")
            },
            expect: |d, a| d.labels(d.out[a].iter().flat_map(|&y| d.out[y].iter().copied())),
            pins: [(0, 46), (1, 46), (2, 46), (1000, 46), (1999, 46)],
        },
        // Lookup: 1 probe + 1 row + 1 kept; project 1; output 1.
        Case {
            class: "team",
            lang: Lang::Calc,
            text: |d, t| format!("{{[s:{{U}}] | Team('{}', s)}}", d.team[t]),
            expect: |d, t| {
                let members: BTreeSet<String> =
                    d.members[t].iter().map(|&m| d.node[m].clone()).collect();
                BTreeSet::from([members.into_iter().collect()])
            },
            pins: [(0, 5), (1, 5), (2, 5), (250, 5), (499, 5)],
        },
        // Lookup: 1 probe + 3 rows found + 3 kept; output 3.
        Case {
            class: "select_key",
            lang: Lang::Algebra,
            text: |d, a| format!("select[eqc(1,'{}')](G)", d.node[a]),
            expect: |d, a| {
                let row = |b: &usize| vec![d.node[a].clone(), d.node[*b].clone()];
                d.out[a].iter().map(row).collect()
            },
            pins: [(0, 10), (1, 10), (2, 10), (1000, 10), (1999, 10)],
        },
    ]
}

/// Every class answers the generator's model and spends its pinned
/// steps, cold and warm; no read spends more than 50.
#[test]
fn point_reads_spend_what_they_find() {
    let data = Data::new(1);
    let mut universe = Universe::new();
    let (_, instance) = parse_database(&data.db_text(), &mut universe).unwrap();
    assert_eq!(instance.relation("G").len(), NODES * DEGREE);
    assert_eq!(instance.relation("Team").len(), TEAMS);
    for case in cases() {
        for (key, steps) in case.pins {
            let text = (case.text)(&data, key);
            let session = cold_session(&universe, &instance);
            let cold = run(&session, case.lang, &text);
            assert_eq!(cold.0, (case.expect)(&data, key), "{text}");
            assert_eq!(cold.1, steps, "{}: {text}, cold", case.class);
            assert!(steps <= 50, "{}: {text} spends {steps}", case.class);
            let warm = run(&session, case.lang, &text);
            assert_eq!(warm, cold, "{}: {text}, warm", case.class);
        }
    }
}
