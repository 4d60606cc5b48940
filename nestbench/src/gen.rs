//! Seeded inputs: the facts each workload loads and the request stream
//! each client sends. Everything the server receives is produced here from
//! `--seed`; nothing depends on `data/` or on nestdb's own fixtures.
//!
//! Cost must not depend on the seed (the driver compares runs made with
//! different seeds), so where a request's cost follows the *shape* of the
//! data — fixpoints, view maintenance — the shape is fixed and the seed
//! only permutes atom names and the order of requests. Where cost is
//! per-request overhead (`point-read`, `join-scan`) the graph itself is
//! random but out-regular, so result sizes are equal across seeds.

use crate::rng::{Rng, Zipf};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// The four workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    JoinScan,
    Fixpoint,
    UpdateSubscribe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::JoinScan,
        Workload::Fixpoint,
        Workload::UpdateSubscribe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::JoinScan => "join-scan",
            Workload::Fixpoint => "fixpoint",
            Workload::UpdateSubscribe => "update-subscribe",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What kind of work a request is; per-layer execution metrics are
/// reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    Hop2,
    Scan,
    Join,
    Nest,
    DlTc,
    DlReach,
    DlStrat,
    IfpTc,
    Update,
}

impl Class {
    /// The query classes (everything but `Update`), in report order.
    pub const QUERIES: [Class; 9] = [
        Class::Point,
        Class::Hop2,
        Class::Scan,
        Class::Join,
        Class::Nest,
        Class::DlTc,
        Class::DlReach,
        Class::DlStrat,
        Class::IfpTc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Hop2 => "hop2",
            Class::Scan => "scan",
            Class::Join => "join",
            Class::Nest => "nest",
            Class::DlTc => "dl-tc",
            Class::DlReach => "dl-reach",
            Class::DlStrat => "dl-strat",
            Class::IfpTc => "ifp-tc",
            Class::Update => "update",
        }
    }
}

/// What the oracle must find in the reply (see `oracle.rs`). Node and team
/// operands are indices into the workload's data model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expect {
    /// Only `ok` is checked.
    Ok,
    Out(usize),
    Hop2(usize),
    Team(usize),
    SelectKey(usize),
    Scan,
    Join2,
    SelectEq,
    NestG,
    UnnestTeam,
    NestUnnestTeam,
    TeamSub,
    DlTc,
    DlReach(usize),
    DlStrat,
    IfpTc,
    /// Reads racing a writer: the reply must contain at least what the
    /// never-deleted base edges imply.
    AtLeastOut(usize),
    AtLeastHop2(usize),
}

/// One request: the exact line sent, its class, and what to expect back.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    pub line: String,
    pub expect: Expect,
}

/// A client's request stream. Infinite: the measured phase is bounded by
/// time, not by count.
pub trait Stream: Send {
    fn next_op(&mut self) -> Op;
}

// ---------------------------------------------------------------------------
// Request lines
// ---------------------------------------------------------------------------

/// JSON string literal. Written here, not borrowed from the wire crate:
/// request lines are part of the benchmark's fixed input.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A query text with its language and (for Datalog) strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub lang: &'static str,
    pub strategy: &'static str,
    pub text: String,
}

impl Query {
    fn calc(text: String) -> Query {
        Query {
            lang: "calc",
            strategy: "semi-naive",
            text,
        }
    }

    fn algebra(text: String) -> Query {
        Query {
            lang: "algebra",
            strategy: "semi-naive",
            text,
        }
    }

    fn datalog(strategy: &'static str, text: String) -> Query {
        Query {
            lang: "datalog",
            strategy,
            text,
        }
    }

    /// The `op: eval` request line. Every measured request is `planned`
    /// (ROADMAP item 2 makes that the only path; once the flag is dropped
    /// the field is ignored and the lines stay byte-identical).
    pub fn line(&self, planned: bool) -> String {
        format!(
            "{{\"op\":\"eval\",\"lang\":\"{}\",\"strategy\":\"{}\",\"planned\":{planned},\"text\":{}}}",
            self.lang,
            self.strategy,
            json_str(&self.text)
        )
    }
}

pub fn op_line(op: &str, text: &str) -> String {
    format!("{{\"op\":\"{op}\",\"text\":{}}}", json_str(text))
}

pub fn view_line(op: &str, view: &str, text: &str) -> String {
    format!(
        "{{\"op\":\"{op}\",\"lang\":\"datalog\",\"view\":\"{view}\",\"text\":{}}}",
        json_str(text)
    )
}

pub const STATS_LINE: &str = "{\"op\":\"stats\"}";

/// The query templates, parameterised by relation name so the set-up can
/// replay each against a mini-relation with `planned` true and false.
pub mod q {
    use super::Query;

    pub fn point(rel: &str, key: &str) -> Query {
        Query::calc(format!("{{[y:U] | {rel}('{key}', y)}}"))
    }

    pub fn hop2(rel: &str, key: &str) -> Query {
        Query::calc(format!(
            "{{[z:U] | exists y:U ({rel}('{key}', y) /\\ {rel}(y, z))}}"
        ))
    }

    pub fn team(rel: &str, key: &str) -> Query {
        Query::calc(format!("{{[s:{{U}}] | {rel}('{key}', s)}}"))
    }

    pub fn select_key(rel: &str, key: &str) -> Query {
        Query::algebra(format!("select[eqc(1,'{key}')]({rel})"))
    }

    pub fn scan(rel: &str) -> Query {
        Query::calc(format!("{{[x:U, y:U] | {rel}(x, y)}}"))
    }

    pub fn join2(rel: &str) -> Query {
        Query::calc(format!(
            "{{[x:U, z:U] | exists y:U ({rel}(x, y) /\\ {rel}(y, z))}}"
        ))
    }

    pub fn select_eq(rel: &str) -> Query {
        Query::algebra(format!("select[eq(2,3)](({rel} x {rel}))"))
    }

    pub fn nest(rel: &str) -> Query {
        Query::algebra(format!("nest[2]({rel})"))
    }

    pub fn unnest(team: &str) -> Query {
        Query::algebra(format!("unnest[2]({team})"))
    }

    pub fn nest_unnest(team: &str) -> Query {
        Query::algebra(format!("nest[1](unnest[2]({team}))"))
    }

    pub fn team_sub(team: &str) -> Query {
        Query::algebra(format!("project[1,3](select[sub(2,4)](({team} x {team})))"))
    }

    /// Semi-naive Datalog transitive closure of `rel` into `out`.
    pub fn dl_tc(rel: &str, out: &str) -> Query {
        Query::datalog("semi-naive", super::tc_program(rel, out))
    }

    pub fn dl_reach(rel: &str, src: &str) -> Query {
        Query::datalog(
            "semi-naive",
            format!(
                "rel reach(U).\nreach(y) :- {rel}('{src}', y).\nreach(y) :- reach(x), {rel}(x, y)."
            ),
        )
    }

    /// Stratified Datalog¬: the complement of the closure over `nodes`.
    pub fn dl_strat(rel: &str, nodes: &str) -> Query {
        Query::datalog(
            "stratified",
            format!(
                "{}\nrel nr(U, U).\nnr(x, y) :- {nodes}(x), {nodes}(y), !hr(x, y).",
                super::tc_program(rel, "hr")
            ),
        )
    }

    /// CALC+IFP transitive closure — the paper's Example 3.1.
    pub fn ifp_tc(rel: &str) -> Query {
        Query::calc(format!(
            "{{[u:U, v:U] | ifp(S; x:U, y:U | {rel}(x, y) \\/ exists z:U (S(x, z) /\\ {rel}(z, y)))(u, v)}}"
        ))
    }

    /// Transitive closure *without* a fixpoint: `(u,v)` is in it iff every
    /// transitively closed set of pairs containing `rel` contains `(u,v)`.
    /// Quantifies over `{[U,U]}` — 2^(n²) candidates — so the governor must
    /// refuse it (EXPERIMENTS.md E8).
    pub fn powerset_tc(rel: &str) -> Query {
        Query::calc(format!(
            "{{[u:U, v:U] | forall s:{{[U,U]}} ((forall gu:U (forall gv:U ({rel}(gu,gv) -> exists p0:[U,U] (p0 in s /\\ p0.1 = gu /\\ p0.2 = gv))) /\\ forall p:[U,U] (forall q:[U,U] ((p in s /\\ q in s /\\ p.2 = q.1) -> exists r:[U,U] (r in s /\\ r.1 = p.1 /\\ r.2 = q.2)))) -> exists p1:[U,U] (p1 in s /\\ p1.1 = u /\\ p1.2 = v))}}"
        ))
    }
}

pub fn tc_program(rel: &str, out: &str) -> String {
    format!(
        "rel {out}(U, U).\n{out}(x, y) :- {rel}(x, y).\n{out}(x, y) :- {out}(x, z), {rel}(z, y)."
    )
}

pub fn hop2_program(rel: &str, out: &str) -> String {
    format!("rel {out}(U, U).\n{out}(x, z) :- {rel}(x, y), {rel}(y, z).")
}

// ---------------------------------------------------------------------------
// Graph model
// ---------------------------------------------------------------------------

/// A directed graph over named nodes: the generator's facts and the
/// oracle's adjacency-set model are the same object.
#[derive(Debug, Clone)]
pub struct Graph {
    pub rel: &'static str,
    pub label: Vec<String>,
    pub out: Vec<BTreeSet<usize>>,
}

impl Graph {
    /// `n` nodes named `<prefix><k>` with `k` a seeded permutation, so the
    /// same structural node has a different atom under each seed.
    fn unconnected(rel: &'static str, prefix: &str, n: usize, rng: &mut Rng) -> Graph {
        Graph {
            rel,
            label: rng
                .permutation(n)
                .into_iter()
                .map(|k| format!("{prefix}{k}"))
                .collect(),
            out: vec![BTreeSet::new(); n],
        }
    }

    /// A layered DAG of fixed shape: node `w` of layer `l` points at nodes
    /// `3w+1` and `5w+2` (mod width) of layer `l+1`.
    fn layered(
        rel: &'static str,
        prefix: &str,
        layers: usize,
        width: usize,
        rng: &mut Rng,
    ) -> Graph {
        let mut g = Graph::unconnected(rel, prefix, layers * width, rng);
        for l in 0..layers - 1 {
            for w in 0..width {
                for t in [(3 * w + 1) % width, (5 * w + 2) % width] {
                    g.out[l * width + w].insert((l + 1) * width + t);
                }
            }
        }
        g
    }

    /// Every node gets exactly `degree` out-edges: one to its ring
    /// successor, the rest to seeded random nodes.
    fn out_regular(
        rel: &'static str,
        prefix: &str,
        n: usize,
        degree: usize,
        rng: &mut Rng,
    ) -> Graph {
        let mut g = Graph::unconnected(rel, prefix, n, rng);
        for i in 0..n {
            g.out[i].insert((i + 1) % n);
            while g.out[i].len() < degree {
                let t = rng.below(n);
                if t != i {
                    g.out[i].insert(t);
                }
            }
        }
        g
    }

    pub fn len(&self) -> usize {
        self.label.len()
    }

    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(a, outs)| outs.iter().map(move |&b| (a, b)))
    }

    pub fn fact(&self, a: usize, b: usize) -> String {
        format!("{}('{}', '{}').", self.rel, self.label[a], self.label[b])
    }

    fn write_facts(&self, text: &mut String) {
        let _ = writeln!(text, "schema {}(U, U).", self.rel);
        for (a, b) in self.edges() {
            let _ = writeln!(text, "{}", self.fact(a, b));
        }
    }

    pub fn hop2(&self, a: usize) -> BTreeSet<usize> {
        self.out[a]
            .iter()
            .flat_map(|&y| self.out[y].iter().copied())
            .collect()
    }

    /// Nodes reachable from `a` in one or more steps.
    pub fn reach(&self, a: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut todo: Vec<usize> = self.out[a].iter().copied().collect();
        while let Some(n) = todo.pop() {
            if seen.insert(n) {
                todo.extend(self.out[n].iter().copied());
            }
        }
        seen
    }
}

fn write_unary(text: &mut String, rel: &str, labels: &[String]) {
    let _ = writeln!(text, "schema {rel}(U).");
    for l in labels {
        let _ = writeln!(text, "{rel}('{l}').");
    }
}

// ---------------------------------------------------------------------------
// point-read and join-scan: G and Team
// ---------------------------------------------------------------------------

/// Nodes / out-degree of `G` (6000 edges) and rows / members of `Team`.
const G_NODES: usize = 2000;
const G_DEGREE: usize = 3;
const TEAMS: usize = 500;
const TEAM_SIZE: usize = 6;
/// The mini-relations the planned-vs-unplanned agreement check runs on.
const MINI_NODES: usize = 40;
const MINI_TEAMS: usize = 10;

/// Nested `Team(U, {U})`: named teams of graph nodes.
#[derive(Debug, Clone)]
pub struct Teams {
    pub rel: &'static str,
    pub label: Vec<String>,
    pub members: Vec<BTreeSet<usize>>,
}

impl Teams {
    fn new(rel: &'static str, prefix: &str, n: usize, nodes: usize, rng: &mut Rng) -> Teams {
        let label = rng
            .permutation(n)
            .into_iter()
            .map(|k| format!("{prefix}{k}"))
            .collect();
        let members = (0..n)
            .map(|_| {
                let mut m = BTreeSet::new();
                while m.len() < TEAM_SIZE {
                    m.insert(rng.below(nodes));
                }
                m
            })
            .collect();
        Teams {
            rel,
            label,
            members,
        }
    }

    fn write_facts(&self, text: &mut String, nodes: &Graph) {
        let _ = writeln!(text, "schema {}(U, {{U}}).", self.rel);
        for (t, members) in self.members.iter().enumerate() {
            let set: Vec<String> = members
                .iter()
                .map(|&m| format!("'{}'", nodes.label[m]))
                .collect();
            let _ = writeln!(
                text,
                "{}('{}', {{{}}}).",
                self.rel,
                self.label[t],
                set.join(",")
            );
        }
    }
}

/// The data behind `point-read` and `join-scan`.
#[derive(Debug)]
pub struct ReadData {
    pub g: Graph,
    pub teams: Teams,
    pub gm: Graph,
    pub teams_m: Teams,
}

impl ReadData {
    pub fn new(seed: u64) -> ReadData {
        let mut rng = Rng::new(seed, 0xDA7A);
        let g = Graph::out_regular("G", "n", G_NODES, G_DEGREE, &mut rng);
        let teams = Teams::new("Team", "t", TEAMS, G_NODES, &mut rng);
        let gm = Graph::out_regular("Gm", "m", MINI_NODES, G_DEGREE, &mut rng);
        let teams_m = Teams::new("Teamm", "u", MINI_TEAMS, MINI_NODES, &mut rng);
        ReadData {
            g,
            teams,
            gm,
            teams_m,
        }
    }

    pub fn db_text(&self) -> String {
        let mut text = String::new();
        self.g.write_facts(&mut text);
        self.teams.write_facts(&mut text, &self.g);
        self.gm.write_facts(&mut text);
        self.teams_m.write_facts(&mut text, &self.gm);
        text
    }

    /// Each template once against the mini-relations.
    pub fn mini_queries(&self) -> Vec<Query> {
        let (g, t) = (self.gm.rel, self.teams_m.rel);
        let (node, team) = (&self.gm.label[0], &self.teams_m.label[0]);
        vec![
            q::point(g, node),
            q::hop2(g, node),
            q::team(t, team),
            q::select_key(g, node),
            q::scan(g),
            q::join2(g),
            q::select_eq(g),
            q::nest(g),
            q::unnest(t),
            q::nest_unnest(t),
            q::team_sub(t),
        ]
    }
}

/// Zipf exponent of the `point-read` key choice. Four templates × 2000
/// skewed keys is far more distinct texts than the 64-entry plan cache
/// holds; 0.9 puts the hit ratio near 0.2.
const POINT_ZIPF: f64 = 0.9;

/// `point-read`: selective requests, Zipf-skewed keys.
pub struct PointStream {
    data: Arc<ReadData>,
    rng: Rng,
    node_rank: Vec<usize>,
    team_rank: Vec<usize>,
    node_zipf: Zipf,
    team_zipf: Zipf,
}

impl PointStream {
    pub fn new(data: Arc<ReadData>, seed: u64, client: u64) -> PointStream {
        // popularity is a property of the data set, shared by all clients
        let mut shared = Rng::new(seed, 0x21F);
        PointStream {
            node_rank: shared.permutation(data.g.len()),
            team_rank: shared.permutation(data.teams.label.len()),
            node_zipf: Zipf::new(data.g.len(), POINT_ZIPF),
            team_zipf: Zipf::new(data.teams.label.len(), POINT_ZIPF),
            rng: Rng::new(seed, 0x100 + client),
            data,
        }
    }
}

impl Stream for PointStream {
    fn next_op(&mut self) -> Op {
        let pick = self.rng.below(100);
        let node = self.node_rank[self.node_zipf.sample(&mut self.rng)];
        let g = &self.data.g;
        let (class, query, expect) = match pick {
            0..=39 => (
                Class::Point,
                q::point(g.rel, &g.label[node]),
                Expect::Out(node),
            ),
            40..=64 => (
                Class::Hop2,
                q::hop2(g.rel, &g.label[node]),
                Expect::Hop2(node),
            ),
            65..=79 => {
                let team = self.team_rank[self.team_zipf.sample(&mut self.rng)];
                let t = &self.data.teams;
                (
                    Class::Point,
                    q::team(t.rel, &t.label[team]),
                    Expect::Team(team),
                )
            }
            _ => (
                Class::Point,
                q::select_key(g.rel, &g.label[node]),
                Expect::SelectKey(node),
            ),
        };
        Op {
            class,
            line: query.line(true),
            expect,
        }
    }
}

/// `join-scan`: a handful of fixed texts (they all fit the plan cache),
/// each client cycling through them in a freshly shuffled order per cycle
/// so the mix of cheap and expensive requests is the same in every run.
pub struct JoinStream {
    texts: Vec<Op>,
    order: Vec<usize>,
    at: usize,
    rng: Rng,
}

impl JoinStream {
    pub fn new(data: &ReadData, seed: u64, client: u64) -> JoinStream {
        let (g, t) = (data.g.rel, data.teams.rel);
        let texts: Vec<Op> = [
            (Class::Scan, q::scan(g), Expect::Scan),
            (Class::Join, q::join2(g), Expect::Join2),
            (Class::Join, q::select_eq(g), Expect::SelectEq),
            (Class::Nest, q::nest(g), Expect::NestG),
            (Class::Nest, q::unnest(t), Expect::UnnestTeam),
            (Class::Nest, q::nest_unnest(t), Expect::NestUnnestTeam),
            (Class::Join, q::team_sub(t), Expect::TeamSub),
        ]
        .into_iter()
        .map(|(class, query, expect)| Op {
            class,
            line: query.line(true),
            expect,
        })
        .collect();
        JoinStream {
            order: (0..texts.len()).collect(),
            at: texts.len(),
            texts,
            rng: Rng::new(seed, 0x200 + client),
        }
    }
}

impl Stream for JoinStream {
    fn next_op(&mut self) -> Op {
        if self.at == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.texts[self.order[self.at - 1]].clone()
    }
}

// ---------------------------------------------------------------------------
// fixpoint: E, H
// ---------------------------------------------------------------------------

/// The data behind `fixpoint`: a 300-node DAG `E` for Datalog closure and
/// reachability, a 24-node DAG `H` (with its node list `hnode`) for the
/// CALC+IFP closure and the stratified complement, and a 40-node `Hm`.
#[derive(Debug)]
pub struct FixData {
    pub e: Graph,
    pub h: Graph,
    pub hm: Graph,
}

impl FixData {
    pub fn new(seed: u64) -> FixData {
        let mut rng = Rng::new(seed, 0xF1C5);
        let mut e = Graph::layered("E", "v", 6, 50, &mut rng);
        // a third edge out of the first two layers: 600 edges in all
        for i in 0..100 {
            let (l, w) = (i / 50, i % 50);
            e.out[i].insert((l + 1) * 50 + (7 * w + 3) % 50);
        }
        FixData {
            e,
            h: Graph::layered("H", "h", 4, 6, &mut rng),
            hm: Graph::layered("Hm", "k", 4, 10, &mut rng),
        }
    }

    pub fn db_text(&self) -> String {
        let mut text = String::new();
        self.e.write_facts(&mut text);
        self.h.write_facts(&mut text);
        write_unary(&mut text, "hnode", &self.h.label);
        self.hm.write_facts(&mut text);
        write_unary(&mut text, "hmnode", &self.hm.label);
        text
    }

    pub fn mini_queries(&self) -> Vec<Query> {
        vec![
            q::dl_tc(self.hm.rel, "tc"),
            q::dl_reach(self.hm.rel, &self.hm.label[0]),
            q::dl_strat(self.hm.rel, "hmnode"),
            q::ifp_tc(self.hm.rel),
        ]
    }
}

/// `fixpoint`: cycles of ten requests — 6 CALC+IFP closures, 2 Datalog
/// closures, 1 single-source reachability, 1 stratified complement — in a
/// freshly shuffled order per cycle. CALC+IFP is the majority on purpose:
/// the median and the 95th percentile then both fall inside its latency
/// distribution instead of straddling the gap between 1 ms and 50 ms
/// requests, where a few requests more or less on one side would move them.
pub struct FixStream {
    data: Arc<FixData>,
    order: Vec<Class>,
    at: usize,
    rng: Rng,
}

impl FixStream {
    pub fn new(data: Arc<FixData>, seed: u64, client: u64) -> FixStream {
        let order = [
            (Class::IfpTc, 6),
            (Class::DlTc, 2),
            (Class::DlReach, 1),
            (Class::DlStrat, 1),
        ]
        .into_iter()
        .flat_map(|(c, n)| std::iter::repeat_n(c, n))
        .collect::<Vec<_>>();
        FixStream {
            data,
            at: order.len(),
            order,
            rng: Rng::new(seed, 0x300 + client),
        }
    }
}

impl Stream for FixStream {
    fn next_op(&mut self) -> Op {
        if self.at == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        let class = self.order[self.at - 1];
        let d = &self.data;
        let (query, expect) = match class {
            Class::DlTc => (q::dl_tc(d.e.rel, "tc"), Expect::DlTc),
            Class::DlReach => {
                // sources in the first two layers, so every search is deep
                let src = self.rng.below(100);
                (q::dl_reach(d.e.rel, &d.e.label[src]), Expect::DlReach(src))
            }
            Class::DlStrat => (q::dl_strat(d.h.rel, "hnode"), Expect::DlStrat),
            _ => (q::ifp_tc(d.h.rel), Expect::IfpTc),
        };
        Op {
            class,
            line: query.line(true),
            expect,
        }
    }
}

// ---------------------------------------------------------------------------
// update-subscribe: E under writes
// ---------------------------------------------------------------------------

const UPD_LAYERS: usize = 6;
const UPD_WIDTH: usize = 200;
/// Extra edges alive at any time; the writer deletes the oldest.
const LIVE_EXTRA: usize = 8;
/// Clauses in a batched update. One update in ten is a batch, so the 95th
/// percentile of acknowledgements is the median batch and the median a
/// single clause — each in the middle of a mode, not on its edge.
const BATCH: usize = 8;

pub const VIEW_REACH: &str = "reach";
pub const VIEW_HOP2: &str = "hop2";

/// The data behind `update-subscribe`: a 6-layer × 200-node DAG `E` of
/// out-degree 2, so one edge changes tens of view rows, not the closure.
#[derive(Debug)]
pub struct UpdData {
    pub e: Graph,
    pub em: Graph,
}

impl UpdData {
    pub fn new(seed: u64) -> UpdData {
        let mut rng = Rng::new(seed, 0x0BD5);
        UpdData {
            e: Graph::layered("E", "v", UPD_LAYERS, UPD_WIDTH, &mut rng),
            em: Graph::layered("Em", "m", 4, 10, &mut rng),
        }
    }

    /// The base facts as database text, for passes that build the store
    /// in memory.
    pub fn db_text(&self) -> String {
        let mut text = String::new();
        self.e.write_facts(&mut text);
        self.em.write_facts(&mut text);
        text
    }

    /// The base facts as `update` batches (the store is durable, so they
    /// go through the log like any other write).
    pub fn load_lines(&self) -> Vec<String> {
        let facts: Vec<String> = self
            .e
            .edges()
            .map(|(a, b)| self.e.fact(a, b))
            .chain(self.em.edges().map(|(a, b)| self.em.fact(a, b)))
            .collect();
        facts
            .chunks(250)
            .map(|chunk| op_line("update", &chunk.join("\n")))
            .collect()
    }

    pub fn schema_lines(&self) -> Vec<String> {
        [self.e.rel, self.em.rel]
            .iter()
            .map(|rel| op_line("insert", &format!("schema {rel}(U, U).")))
            .collect()
    }

    /// The two maintained views: `reach` (recursive, so DRed) and `hop2`
    /// (non-recursive, so counting), each with its Datalog source.
    pub fn view_programs(&self) -> [(&'static str, String); 2] {
        [
            (VIEW_REACH, tc_program(self.e.rel, VIEW_REACH)),
            (VIEW_HOP2, hop2_program(self.e.rel, VIEW_HOP2)),
        ]
    }

    pub fn mini_queries(&self) -> Vec<Query> {
        vec![
            q::point(self.em.rel, &self.em.label[0]),
            q::hop2(self.em.rel, &self.em.label[0]),
        ]
    }
}

/// Connection A: alternately inserts a fresh edge between adjacent layers
/// and deletes the oldest edge it inserted, so `|E|` is stationary. One
/// update in ten is an 8-clause batch (4 inserts, 4 deletes). Tracks the
/// edge set it has built, which is what the store must hold at the end.
pub struct UpdateStream {
    pub graph: Graph,
    live: VecDeque<(usize, usize)>,
    rng: Rng,
    sent: u64,
}

impl UpdateStream {
    pub fn new(data: &UpdData, seed: u64) -> UpdateStream {
        UpdateStream {
            graph: data.e.clone(),
            live: VecDeque::new(),
            rng: Rng::new(seed, 0x400),
            sent: 0,
        }
    }

    fn insert_clause(&mut self) -> String {
        loop {
            let l = self.rng.below(UPD_LAYERS - 1);
            let a = l * UPD_WIDTH + self.rng.below(UPD_WIDTH);
            let b = (l + 1) * UPD_WIDTH + self.rng.below(UPD_WIDTH);
            if self.graph.out[a].insert(b) {
                self.live.push_back((a, b));
                return self.graph.fact(a, b);
            }
        }
    }

    fn delete_clause(&mut self) -> String {
        let (a, b) = self.live.pop_front().expect("deletes follow inserts");
        self.graph.out[a].remove(&b);
        format!("delete {}", self.graph.fact(a, b))
    }
}

impl UpdateStream {
    /// The clauses of the next update (one, or a batch of eight).
    pub fn next_clauses(&mut self) -> Vec<String> {
        self.sent += 1;
        if self.live.len() < LIVE_EXTRA {
            // the first updates only insert, filling the window
            vec![self.insert_clause()]
        } else if self.sent.is_multiple_of(10) {
            // inserts first: they pick absent edges, the deletes present
            // ones, so no clause of a batch touches another's edge
            (0..BATCH)
                .map(|i| {
                    if i < BATCH / 2 {
                        self.insert_clause()
                    } else {
                        self.delete_clause()
                    }
                })
                .collect()
        } else if self.live.len() > LIVE_EXTRA {
            vec![self.delete_clause()]
        } else {
            vec![self.insert_clause()]
        }
    }
}

impl Stream for UpdateStream {
    fn next_op(&mut self) -> Op {
        Op {
            class: Class::Update,
            line: op_line("update", &self.next_clauses().join("\n")),
            expect: Expect::Ok,
        }
    }
}

/// Connection B's reads: point and 2-hop lookups on `E`, uniform keys.
pub struct ReaderStream {
    data: Arc<UpdData>,
    rng: Rng,
}

impl ReaderStream {
    pub fn new(data: Arc<UpdData>, seed: u64) -> ReaderStream {
        ReaderStream {
            data,
            rng: Rng::new(seed, 0x401),
        }
    }
}

impl Stream for ReaderStream {
    fn next_op(&mut self) -> Op {
        let e = &self.data.e;
        let node = self.rng.below(e.len());
        let (class, query, expect) = if self.rng.below(2) == 0 {
            (
                Class::Point,
                q::point(e.rel, &e.label[node]),
                Expect::AtLeastOut(node),
            )
        } else {
            (
                Class::Hop2,
                q::hop2(e.rel, &e.label[node]),
                Expect::AtLeastHop2(node),
            )
        };
        Op {
            class,
            line: query.line(true),
            expect,
        }
    }
}

// ---------------------------------------------------------------------------
// A workload's data set
// ---------------------------------------------------------------------------

/// What a workload's server loads, what its clients send, and what the
/// oracle checks replies against — one object, built from the seed.
#[derive(Debug, Clone)]
pub enum Data {
    Read(Arc<ReadData>),
    Fix(Arc<FixData>),
    Upd(Arc<UpdData>),
}

impl Data {
    pub fn new(w: Workload, seed: u64) -> Data {
        match w {
            Workload::PointRead | Workload::JoinScan => Data::Read(Arc::new(ReadData::new(seed))),
            Workload::Fixpoint => Data::Fix(Arc::new(FixData::new(seed))),
            Workload::UpdateSubscribe => Data::Upd(Arc::new(UpdData::new(seed))),
        }
    }

    /// One request stream per client. On `update-subscribe` the first is
    /// the writer's, the second the subscriber's reads.
    pub fn streams(&self, w: Workload, seed: u64, clients: usize) -> Vec<Box<dyn Stream>> {
        (0..clients as u64)
            .map(|c| -> Box<dyn Stream> {
                match self {
                    Data::Read(d) if w == Workload::PointRead => {
                        Box::new(PointStream::new(Arc::clone(d), seed, c))
                    }
                    Data::Read(d) => Box::new(JoinStream::new(d, seed, c)),
                    Data::Fix(d) => Box::new(FixStream::new(Arc::clone(d), seed, c)),
                    Data::Upd(d) if c == 0 => Box::new(UpdateStream::new(d, seed)),
                    Data::Upd(d) => Box::new(ReaderStream::new(Arc::clone(d), seed)),
                }
            })
            .collect()
    }

    /// The facts as database text (`nestdb serve --db <file>`).
    pub fn db_text(&self) -> String {
        match self {
            Data::Read(d) => d.db_text(),
            Data::Fix(d) => d.db_text(),
            Data::Upd(d) => d.db_text(),
        }
    }

    /// Each query template once, against the mini-relations.
    pub fn mini_queries(&self) -> Vec<Query> {
        match self {
            Data::Read(d) => d.mini_queries(),
            Data::Fix(d) => d.mini_queries(),
            Data::Upd(d) => d.mini_queries(),
        }
    }

    /// A cheap query to wait for after a restart.
    pub fn probe(&self) -> Query {
        let g = match self {
            Data::Read(d) => &d.g,
            Data::Fix(d) => &d.e,
            Data::Upd(d) => &d.e,
        };
        q::point(g.rel, &g.label[0])
    }
}

// ---------------------------------------------------------------------------
// theorem shapes: cycles
// ---------------------------------------------------------------------------

/// The directed cycle on `n` nodes as database text (relation `G`).
pub fn cycle_db_text(n: usize) -> String {
    let mut text = String::from("schema G(U, U).\n");
    for i in 0..n {
        let _ = writeln!(text, "G('c{i}', 'c{}').", (i + 1) % n);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestdb::object::text::{parse_clause, parse_database};
    use nestdb::object::Universe;
    use nestdb::proto::{Lang, Op as WireOp, Request};

    /// Every stream a run of `w` sends, plus the facts it loads first.
    fn inputs(w: Workload, seed: u64) -> (String, Vec<Box<dyn Stream>>) {
        let data = Data::new(w, seed);
        (data.db_text(), data.streams(w, seed, 2))
    }

    /// FNV-1a over the facts and the first 500 lines of every stream.
    fn fingerprint(w: Workload, seed: u64) -> u64 {
        let (text, mut streams) = inputs(w, seed);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(text.as_bytes());
        for stream in &mut streams {
            for _ in 0..500 {
                eat(stream.next_op().line.as_bytes());
                eat(b"\n");
            }
        }
        hash
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs_and_another_seed_different_ones() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(w, 7), fingerprint(w, 7), "{}", w.name());
            assert_ne!(fingerprint(w, 7), fingerprint(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn two_clients_do_not_send_the_same_stream() {
        // a shifted copy would turn the second client's requests into
        // plan-cache hits on the first's
        for seed in 1..=8 {
            let (_, mut streams) = inputs(Workload::PointRead, seed);
            let mut lines =
                |c: usize| -> Vec<String> { (0..300).map(|_| streams[c].next_op().line).collect() };
            let (a, b) = (lines(0), lines(1));
            for shift in 0..4 {
                let same = a.iter().zip(&b[shift..]).filter(|(x, y)| x == y).count();
                assert!(same < 30, "seed {seed} shift {shift}: {same} of 300 equal");
            }
        }
    }

    #[test]
    fn every_generated_text_parses() {
        for w in Workload::ALL {
            let (text, mut streams) = inputs(w, 3);
            let mut u = Universe::new();
            parse_database(&text, &mut u).unwrap();
            for stream in &mut streams {
                for _ in 0..200 {
                    let op = stream.next_op();
                    let req = Request::from_json(&op.line).unwrap();
                    assert!(req.planned || req.op != WireOp::Eval);
                    match (req.op, req.lang) {
                        (WireOp::Update, _) => {
                            for clause in req.text.lines() {
                                parse_clause(clause, &mut u).unwrap();
                            }
                        }
                        (_, Lang::Calc) => {
                            nestdb::core::parse_query(&req.text, &mut u).unwrap();
                        }
                        (_, Lang::Datalog) => {
                            nestdb::datalog::parse_program(&req.text, &mut u).unwrap();
                        }
                        (_, Lang::Algebra) => {
                            nestdb::algebra::parse_expr(&req.text, &mut u).unwrap();
                        }
                    }
                }
            }
        }
        let mut u = Universe::new();
        nestdb::core::parse_query(&q::powerset_tc("G").text, &mut u).unwrap();
        parse_database(&cycle_db_text(8), &mut u).unwrap();
        for data in [UpdData::new(3)] {
            for line in data.schema_lines().iter().chain(&data.load_lines()) {
                let req = Request::from_json(line).unwrap();
                for clause in req.text.lines() {
                    parse_clause(clause, &mut u).unwrap();
                }
            }
        }
    }

    #[test]
    fn every_generated_update_changes_the_view_it_targets() {
        let data = UpdData::new(5);
        let mut updates = UpdateStream::new(&data, 5);
        let closure_size = |g: &Graph| (0..g.len()).map(|a| g.reach(a).len()).sum::<usize>();
        let mut before = (updates.graph.clone(), closure_size(&updates.graph));
        for _ in 0..60 {
            let clauses = updates.next_clauses();
            assert!(clauses.len() == 1 || clauses.len() == BATCH);
            // `reach` is the view every update targets: between adjacent
            // layers an edge is the only path, so its pair comes or goes
            let after = closure_size(&updates.graph);
            if clauses.len() == 1 {
                assert_ne!(after, before.1, "{clauses:?}");
            }
            assert_ne!(
                updates.graph.edges().collect::<Vec<_>>(),
                before.0.edges().collect::<Vec<_>>()
            );
            before = (updates.graph.clone(), after);
        }
        // the edge count is stationary once the window has filled
        let base = data.e.edges().count();
        let now = updates.graph.edges().count();
        assert!((base + LIVE_EXTRA..=base + LIVE_EXTRA + 1).contains(&now));
    }
}
