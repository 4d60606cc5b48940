//! The oracle: expected relations computed from the generator's own
//! adjacency-set model — neighbours, 2-hop, closure, complement, nest and
//! unnest — never from nestdb's evaluators (the tree-walk path is also far
//! too slow to serve as oracle at these sizes).

use crate::gen::{Data, Expect, FixData, Graph, Teams};
use crate::value::{parse_row, Rows, V};
use crate::wire::Reply;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A reply's relations by name.
pub type Relations = BTreeMap<String, Rows>;

/// Checks replies against [`Data`], caching the expectations that do not
/// depend on a key (scans, closures) since they are asked for repeatedly.
pub struct Oracle {
    model: Data,
    cache: HashMap<Expect, Relations>,
}

fn atom(g: &Graph, n: usize) -> V {
    V::atom(&g.label[n])
}

fn single(rows: Rows) -> Relations {
    named("result", rows)
}

fn named(name: &str, rows: Rows) -> Relations {
    BTreeMap::from([(name.to_string(), rows)])
}

fn unary(g: &Graph, nodes: &BTreeSet<usize>) -> Rows {
    nodes.iter().map(|&n| vec![atom(g, n)]).collect()
}

pub fn pairs(g: &Graph, pairs: impl IntoIterator<Item = (usize, usize)>) -> Rows {
    pairs
        .into_iter()
        .map(|(a, b)| vec![atom(g, a), atom(g, b)])
        .collect()
}

/// The transitive closure of `g` as rows.
pub fn closure(g: &Graph) -> Rows {
    pairs(
        g,
        (0..g.len()).flat_map(|a| g.reach(a).into_iter().map(move |b| (a, b))),
    )
}

/// `{(x, z) | x → y → z}` as rows.
pub fn hop2_rows(g: &Graph) -> Rows {
    pairs(
        g,
        (0..g.len()).flat_map(|a| g.hop2(a).into_iter().map(move |c| (a, c))),
    )
}

fn team_set(g: &Graph, members: &BTreeSet<usize>) -> V {
    V::set(members.iter().map(|&m| atom(g, m)))
}

fn read_expect(g: &Graph, t: &Teams, e: &Expect) -> Relations {
    let team = |k: usize| V::atom(&t.label[k]);
    single(match *e {
        Expect::Out(k) => unary(g, &g.out[k]),
        Expect::Hop2(k) => unary(g, &g.hop2(k)),
        Expect::Team(k) => Rows::from([vec![team_set(g, &t.members[k])]]),
        Expect::SelectKey(k) => pairs(g, g.out[k].iter().map(|&y| (k, y))),
        Expect::Scan => pairs(g, g.edges()),
        Expect::Join2 => hop2_rows(g),
        Expect::SelectEq => g
            .edges()
            .flat_map(|(a, b)| {
                g.out[b]
                    .iter()
                    .map(move |&c| vec![atom(g, a), atom(g, b), atom(g, b), atom(g, c)])
            })
            .collect(),
        Expect::NestG => (0..g.len())
            .filter(|&a| !g.out[a].is_empty())
            .map(|a| vec![atom(g, a), team_set(g, &g.out[a])])
            .collect(),
        Expect::UnnestTeam => (0..t.label.len())
            .flat_map(|k| t.members[k].iter().map(move |&m| vec![team(k), atom(g, m)]))
            .collect(),
        Expect::NestUnnestTeam => {
            let mut by_member: BTreeMap<usize, BTreeSet<V>> = BTreeMap::new();
            for (k, members) in t.members.iter().enumerate() {
                for &m in members {
                    by_member.entry(m).or_default().insert(team(k));
                }
            }
            by_member
                .into_iter()
                .map(|(m, teams)| vec![V::Set(teams), atom(g, m)])
                .collect()
        }
        Expect::TeamSub => (0..t.label.len())
            .flat_map(|a| {
                (0..t.label.len())
                    .filter(move |&b| t.members[a].is_subset(&t.members[b]))
                    .map(move |b| vec![team(a), team(b)])
            })
            .collect(),
        _ => unreachable!("{e:?} is not a point-read/join-scan expectation"),
    })
}

fn fix_expect(d: &FixData, e: &Expect) -> Relations {
    match *e {
        Expect::DlTc => named("tc", closure(&d.e)),
        Expect::DlReach(src) => named("reach", unary(&d.e, &d.e.reach(src))),
        Expect::IfpTc => single(closure(&d.h)),
        Expect::DlStrat => {
            let hr = closure(&d.h);
            let nr = pairs(
                &d.h,
                (0..d.h.len()).flat_map(|a| (0..d.h.len()).map(move |b| (a, b))),
            )
            .difference(&hr)
            .cloned()
            .collect();
            BTreeMap::from([("hr".to_string(), hr), ("nr".to_string(), nr)])
        }
        _ => unreachable!("{e:?} is not a fixpoint expectation"),
    }
}

impl Oracle {
    pub fn new(model: Data) -> Oracle {
        Oracle {
            model,
            cache: HashMap::new(),
        }
    }

    fn compute(model: &Data, e: &Expect) -> Relations {
        match model {
            Data::Read(d) => read_expect(&d.g, &d.teams, e),
            Data::Fix(d) => fix_expect(d, e),
            Data::Upd(_) => unreachable!("update-subscribe reads are lower-bound checks"),
        }
    }

    /// Check one reply; the error names what differed.
    pub fn check(&mut self, expect: &Expect, reply: &Reply) -> Result<(), String> {
        if !reply.ok {
            return Err(format!("not ok: {}", reply.error));
        }
        let got = reply.relations()?;
        match (expect, &self.model) {
            (Expect::Ok, _) => Ok(()),
            (Expect::AtLeastOut(k), Data::Upd(d)) => at_least(&unary(&d.e, &d.e.out[*k]), &got),
            (Expect::AtLeastHop2(k), Data::Upd(d)) => at_least(&unary(&d.e, &d.e.hop2(*k)), &got),
            (
                Expect::Out(_)
                | Expect::Hop2(_)
                | Expect::Team(_)
                | Expect::SelectKey(_)
                | Expect::DlReach(_),
                model,
            ) => same(&Oracle::compute(model, expect), &got),
            (_, model) => same(
                self.cache
                    .entry(expect.clone())
                    .or_insert_with(|| Oracle::compute(model, expect)),
                &got,
            ),
        }
    }
}

fn at_least(base: &Rows, got: &Relations) -> Result<(), String> {
    let rows = got.get("result").ok_or("no result relation")?;
    match base.difference(rows).next() {
        None => Ok(()),
        Some(missing) => Err(format!(
            "row {missing:?} implied by the base edges is missing"
        )),
    }
}

/// Relation-by-relation equality with a readable first difference.
pub fn same(want: &Relations, got: &Relations) -> Result<(), String> {
    if want.keys().ne(got.keys()) {
        return Err(format!(
            "relations {:?}, expected {:?}",
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        ));
    }
    for (name, w) in want {
        let g = &got[name];
        if let Some(row) = w.difference(g).next() {
            return Err(format!(
                "{name}: missing row {row:?} ({} of {} rows)",
                g.len(),
                w.len()
            ));
        }
        if let Some(row) = g.difference(w).next() {
            return Err(format!(
                "{name}: unexpected row {row:?} ({} of {} rows)",
                g.len(),
                w.len()
            ));
        }
    }
    Ok(())
}

/// Parse rendered rows into the oracle's value model.
pub fn parse_rows(rows: &[String]) -> Result<Rows, String> {
    rows.iter().map(|r| parse_row(r)).collect()
}
