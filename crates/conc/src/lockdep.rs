//! Lockdep-style lock-order analysis.
//!
//! Every instrumented acquisition records one *held-while-acquiring* edge
//! per lock the acquiring thread already holds: holding a lock of class
//! `A` while acquiring one of class `B` adds the directed edge `A → B`
//! (with a witness naming both acquisition sites and the full held
//! chain). The edges accumulate in one global graph across the entire
//! test run — the whole point is that a cycle is reported even when the
//! two halves of an ABBA pair were observed in *different* tests, minutes
//! apart, with no schedule ever actually deadlocking.
//!
//! A cycle in the class graph is a potential deadlock and is reported as
//! a [`CC001`](crate::report) diagnostic. Edges within one class
//! (`A → A`) are cycles of length one: two instances of the same class
//! acquired in instance order can deadlock against the opposite order —
//! a worker holding its own queue's lock while locking a sibling's of
//! the same class, say. Classes are the `&'static str` names passed to
//! [`Mutex::new_named`](crate::Mutex::new_named); unnamed locks share the
//! class `"conc.anon"`, whose self-edges are *not* reported (distinct
//! anonymous locks are indistinguishable, so a self-edge there is usually
//! two unrelated locks) — name any lock you want the analysis to cover.

use crate::report::{json_string, Diag};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex as StdMutex;

/// Class name given to locks constructed without [`Mutex::new_named`]
/// (self-edges on this class are exempt from cycle reporting).
pub const ANON_CLASS: &str = "conc.anon";

/// One held-while-acquiring observation, keyed by `(held, acquired)`
/// class pair; only the first witness per pair is kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Class of the lock already held.
    pub held_class: &'static str,
    /// Where (file:line) and by which thread the held lock was acquired.
    pub held_site: String,
    /// Class of the lock being acquired.
    pub acq_class: &'static str,
    /// Where the acquisition happened.
    pub acq_site: String,
    /// The full chain of locks held at acquisition time, innermost last.
    pub chain: Vec<String>,
    /// Thread that performed the acquisition.
    pub thread: String,
}

impl Edge {
    fn witness(&self) -> String {
        format!(
            "thread {t}: holding {hc} (acquired at {hs}) while acquiring {ac} at {as_}; held chain: [{chain}]",
            t = self.thread,
            hc = self.held_class,
            hs = self.held_site,
            ac = self.acq_class,
            as_ = self.acq_site,
            chain = self.chain.join(" -> "),
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"held\":{},\"held_site\":{},\"acquired\":{},\"acquired_site\":{},\"thread\":{},\"chain\":{}}}",
            json_string(self.held_class),
            json_string(&self.held_site),
            json_string(self.acq_class),
            json_string(&self.acq_site),
            json_string(&self.thread),
            format_args!(
                "[{}]",
                self.chain
                    .iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
    }
}

static GRAPH: StdMutex<Vec<Edge>> = StdMutex::new(Vec::new());

/// Record an edge (first witness per class pair wins). Called from the
/// instrumented acquire path; takes the `std` mutex directly — the graph
/// is checker infrastructure, not checked code.
pub(crate) fn record(edge: Edge) {
    let mut g = GRAPH.lock().unwrap_or_else(|p| p.into_inner());
    if g.iter()
        .any(|e| e.held_class == edge.held_class && e.acq_class == edge.acq_class)
    {
        return;
    }
    g.push(edge);
}

/// Snapshot of the accumulated edges.
pub fn edges() -> Vec<Edge> {
    GRAPH.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Number of edges currently recorded (used by explorations to compute
/// the delta a scenario contributed).
pub fn edge_count() -> usize {
    GRAPH.lock().unwrap_or_else(|p| p.into_inner()).len()
}

/// Edges recorded at index `from` onward.
pub fn edges_since(from: usize) -> Vec<Edge> {
    let g = GRAPH.lock().unwrap_or_else(|p| p.into_inner());
    g.iter().skip(from).cloned().collect()
}

/// Clear the graph. Use only around planted-bug tests that deliberately
/// record poisonous edges — the value of lockdep comes from *not*
/// resetting it between tests.
pub fn reset() {
    GRAPH.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

// --- per-thread held-lock stack (feeds `record`) -------------------------

struct Held {
    class: &'static str,
    site: String,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn thread_label() -> String {
    if let Some(tid) = crate::sched::internal::cur_tid() {
        return format!("t{tid}");
    }
    let cur = std::thread::current();
    match cur.name() {
        Some(n) => n.to_string(),
        None => format!("{:?}", cur.id()),
    }
}

/// Record edges from every currently-held lock to the one being
/// acquired, then push it onto the held stack. Returns a token the
/// matching [`note_release`] must pass back (guards can drop out of
/// order).
pub(crate) fn note_acquire(class: &'static str, site: &Location<'_>) -> u64 {
    let site_s = format!("{}:{}", site.file(), site.line());
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if !h.is_empty() {
            let chain: Vec<String> = h
                .iter()
                .map(|x| format!("{} @ {}", x.class, x.site))
                .collect();
            let thread = thread_label();
            for held in h.iter() {
                record(Edge {
                    held_class: held.class,
                    held_site: held.site.clone(),
                    acq_class: class,
                    acq_site: site_s.clone(),
                    chain: chain.clone(),
                    thread: thread.clone(),
                });
            }
        }
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        h.push(Held {
            class,
            site: site_s,
            token,
        });
        token
    })
}

/// Pop the held-stack entry created by the `note_acquire` that returned
/// `token`.
pub(crate) fn note_release(token: u64) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(i) = h.iter().rposition(|x| x.token == token) {
            h.remove(i);
        }
    });
}

/// All `CC001` cycle diagnostics in the accumulated graph.
pub fn cycles() -> Vec<Diag> {
    cycles_in(&edges())
}

/// `CC001` cycle diagnostics over an explicit edge set (used for
/// per-exploration deltas).
pub fn cycles_in(edges: &[Edge]) -> Vec<Diag> {
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<&'static str>> = BTreeSet::new();

    // Self-edges are length-1 cycles (instance-order deadlocks within a
    // class), except on the anonymous class.
    for e in edges {
        if e.held_class == e.acq_class && e.held_class != ANON_CLASS {
            let key = vec![e.held_class];
            if reported.insert(key) {
                out.push(Diag {
                    code: "CC001",
                    message: format!(
                        "potential deadlock: lock class `{}` is acquired while an instance of the same class is already held (two threads doing this against opposite instances deadlock)",
                        e.held_class
                    ),
                    witnesses: vec![e.witness()],
                });
            }
        }
    }

    // Longer cycles: DFS over the class digraph (self-edges excluded —
    // already reported above).
    let mut adj: BTreeMap<&'static str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        if e.held_class != e.acq_class {
            adj.entry(e.held_class).or_default().push(e);
        }
    }
    let nodes: Vec<&'static str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS looking for a path back to `start`.
        let mut stack: Vec<(&'static str, Vec<&Edge>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            for e in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                if e.acq_class == start {
                    let mut cycle_edges = path.clone();
                    cycle_edges.push(e);
                    let mut classes: Vec<&'static str> =
                        cycle_edges.iter().map(|e| e.held_class).collect();
                    let canon = {
                        let mut c = classes.clone();
                        c.sort_unstable();
                        c
                    };
                    if reported.insert(canon) {
                        classes.push(start);
                        out.push(Diag {
                            code: "CC001",
                            message: format!(
                                "potential deadlock: lock-order cycle {}",
                                classes.join(" -> ")
                            ),
                            witnesses: cycle_edges.iter().map(|e| e.witness()).collect(),
                        });
                    }
                } else if !path.iter().any(|p| p.held_class == e.acq_class) && e.acq_class != start
                {
                    let mut path2 = path.clone();
                    path2.push(e);
                    stack.push((e.acq_class, path2));
                }
            }
        }
    }
    out
}

/// Render the accumulated graph (edges + any cycles) as a JSON document —
/// the CI artifact format.
pub fn graph_json() -> String {
    graph_json_of(&edges())
}

/// [`graph_json`] over an explicit edge set.
pub fn graph_json_of(edges: &[Edge]) -> String {
    let edge_items: Vec<String> = edges.iter().map(|e| e.json()).collect();
    let cyc = cycles_in(edges);
    let cyc_items: Vec<String> = cyc
        .iter()
        .map(|d| {
            format!(
                "{{\"code\":{},\"message\":{},\"witnesses\":{}}}",
                json_string(d.code),
                json_string(&d.message),
                d.witnesses_json()
            )
        })
        .collect();
    format!(
        "{{\n  \"edges\": [{}],\n  \"cycles\": [{}]\n}}\n",
        edge_items.join(", "),
        cyc_items.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(held: &'static str, acq: &'static str) -> Edge {
        Edge {
            held_class: held,
            held_site: "a.rs:1".into(),
            acq_class: acq,
            acq_site: "b.rs:2".into(),
            chain: vec![format!("{held} @ a.rs:1")],
            thread: "t0".into(),
        }
    }

    #[test]
    fn self_edge_is_a_cycle_with_witness() {
        let diags = cycles_in(&[edge("pool.deque", "pool.deque")]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "CC001");
        assert!(diags[0].message.contains("pool.deque"));
        assert!(diags[0].witnesses[0].contains("holding pool.deque"));
    }

    #[test]
    fn anon_self_edge_is_exempt() {
        assert!(cycles_in(&[edge(ANON_CLASS, ANON_CLASS)]).is_empty());
    }

    #[test]
    fn abba_pair_is_one_cycle_with_both_witnesses() {
        let diags = cycles_in(&[edge("a", "b"), edge("b", "a")]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].witnesses.len(), 2, "{:?}", diags[0]);
        assert!(diags[0].message.contains("a -> b") || diags[0].message.contains("b -> a"));
    }

    #[test]
    fn three_cycle_detected_dag_clean() {
        let diags = cycles_in(&[edge("a", "b"), edge("b", "c"), edge("c", "a")]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].witnesses.len(), 3);
        let clean = cycles_in(&[edge("a", "b"), edge("b", "c"), edge("a", "c")]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn graph_json_is_well_formed_enough() {
        let j = graph_json_of(&[edge("a", "b"), edge("b", "a")]);
        assert!(j.contains("\"edges\""));
        assert!(j.contains("\"cycles\""));
        assert!(j.contains("CC001"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
