//! Columnar physical operators.
//!
//! Every kernel consumes and produces *canonical* [`ColumnTable`]s (see
//! [`crate::table`]), so for one interner the output of an operator is a
//! unique bit pattern: every join algorithm produces the **identical**
//! table for the same inputs, regardless of thread count or hash-map
//! iteration order — the property the differential fuzzer asserts with
//! `==`.
//!
//! The join kernels all reduce to the same two steps: enumerate the set
//! of `(left row, right row)` index pairs that satisfy the join's keys
//! and filter — by exhaustive pairing (nested loop), by probing a key
//! index built on one side (hash), by binary search in the right side's
//! sorted first column (lookup), or by probing an index of one side's
//! set members (element index) — then sort the pairs and materialize
//! them column-wise. A selection over a product is such a join: its
//! predicate is tested on each candidate pair, and only passing pairs
//! are built. Since each input is sorted and duplicate-free, pair order
//! `(i, j)` *is* raw-id lexicographic row order, so the materialized
//! table is canonical by construction.
//!
//! Governor accounting is block-batched through [`BlockMeter`]: one step
//! per row scanned, indexed, or probed, per set member indexed, and per
//! pair considered or index candidate, and the engines' standard
//! `8 × arity` bytes per materialized row, flushed per
//! [`crate::meter::BLOCK`].

use crate::meter::BlockMeter;
use crate::pred::{CompiledPred, RowPred};
use crate::table::ColumnTable;
use no_object::{Governor, Interner, ResourceError, Value, ValueId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// The physical join algorithm to run, chosen by the planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Exhaustive pairing; right for tiny inputs (no build cost).
    NestedLoop,
    /// Build a key index on one side, probe with the other.
    Hash {
        /// Build on the left input (probe with the right) when true.
        build_left: bool,
    },
    /// Probe the right input's sorted first column with each left row's
    /// key ([`ColumnTable::leading_range`]): no index is built. Needs a
    /// key pair on the right's column 0; the other keys and the filter
    /// are tested on each candidate.
    Lookup,
    /// Index the members of one side's set column, probe with the
    /// other side's element (`∈`) or set (`⊆`) column. Enumerates only
    /// the pairs satisfying the conjunct, so it is correct exactly when
    /// the conjunct is a top-level conjunct of the join's filter.
    ElementIndex(SetConjunct),
}

/// A cross-side `∈`/`⊆` conjunct of a join filter, over the joined
/// row's 0-based columns. The side holding `set` is the indexed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetConjunct {
    /// `elem ∈ set`.
    In {
        /// The element column.
        elem: usize,
        /// The set column.
        set: usize,
    },
    /// `sub ⊆ set`.
    Subset {
        /// The subset column.
        sub: usize,
        /// The superset column.
        set: usize,
    },
}

impl JoinAlgo {
    /// Short display form used in `:explain` notes.
    pub fn label(&self) -> String {
        match self {
            JoinAlgo::NestedLoop => "NestedLoopJoin".to_string(),
            JoinAlgo::Hash { build_left } => format!(
                "HashJoin(build={})",
                if *build_left { "left" } else { "right" }
            ),
            JoinAlgo::Lookup => "LookupJoin".to_string(),
            JoinAlgo::ElementIndex(SetConjunct::In { elem, set }) => {
                format!("ElementIndexJoin(#{} ∈ #{})", elem + 1, set + 1)
            }
            JoinAlgo::ElementIndex(SetConjunct::Subset { sub, set }) => {
                format!("ElementIndexJoin(#{} ⊆ #{})", sub + 1, set + 1)
            }
        }
    }
}

/// σ — keep the rows satisfying `pred`: one step per row tested at
/// `exec.select`.
pub fn select(
    t: &ColumnTable,
    pred: &RowPred,
    int: &Interner,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    keep_rows(
        t,
        0..t.len(),
        Some(pred),
        int,
        BlockMeter::new(gov, "exec.select"),
    )
}

/// σ\[#1 = `key` ∧ `rest`\] by the table's sorted first column: the key
/// is looked up in the arena without admitting it (an absent value
/// matches no row), its rows are found by [`ColumnTable::leading_range`]
/// and `rest` is tested on them. One step for the probe and one per row
/// in the range at `exec.lookup`, whatever the table's size.
pub fn lookup(
    t: &ColumnTable,
    key: &Value,
    rest: Option<&RowPred>,
    int: &Interner,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let rows = int.lookup(key).map_or(0..0, |id| t.leading_range(id));
    let mut m = BlockMeter::new(gov, "exec.lookup");
    m.work(1)?;
    keep_rows(t, rows, rest, int, m)
}

/// The rows of `rows` satisfying `pred` (all of them without one), one
/// step each and the standard bytes per kept row on `m`.
fn keep_rows(
    t: &ColumnTable,
    rows: Range<usize>,
    pred: Option<&RowPred>,
    int: &Interner,
    mut m: BlockMeter<'_>,
) -> Result<ColumnTable, ResourceError> {
    let compiled = pred.map(|p| p.compile(int));
    let mut keep: Vec<u32> = Vec::new();
    for i in rows {
        m.work(1)?;
        if compiled
            .as_ref()
            .is_none_or(|p| p.eval_by(&|c| t.col(c)[i], int))
        {
            keep.push(i as u32);
        }
    }
    m.rows(keep.len() as u64, t.arity())?;
    m.finish()?;
    // `keep` is ascending, so the filtered table stays canonical.
    Ok(t.gathered(&keep))
}

/// π — project to `cols` (0-based; may repeat or reorder), re-canonicalizing.
pub fn project(
    t: &ColumnTable,
    cols: &[usize],
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let mut m = BlockMeter::new(gov, "exec.project");
    m.rows(t.len() as u64, cols.len())?;
    let mut out = ColumnTable::empty(cols.len());
    let mut row: Vec<ValueId> = Vec::with_capacity(cols.len());
    for i in 0..t.len() {
        row.clear();
        row.extend(cols.iter().map(|&c| t.col(c)[i]));
        out.push_row(&row);
    }
    out.canonicalize();
    m.finish()?;
    Ok(out)
}

/// ∪ — merge two canonical tables, deduplicating.
pub fn union(
    a: &ColumnTable,
    b: &ColumnTable,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    merge_setop(a, b, gov, "exec.union", |ord| match ord {
        Ordering::Less => (true, false),
        Ordering::Greater => (false, true),
        Ordering::Equal => (true, false),
    })
}

/// ∖ — rows of `a` not in `b`.
pub fn difference(
    a: &ColumnTable,
    b: &ColumnTable,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    merge_setop(a, b, gov, "exec.difference", |ord| match ord {
        Ordering::Less => (true, false),
        Ordering::Greater => (false, false),
        Ordering::Equal => (false, false),
    })
}

/// ∩ — rows in both.
pub fn intersect(
    a: &ColumnTable,
    b: &ColumnTable,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    merge_setop(a, b, gov, "exec.intersect", |ord| match ord {
        Ordering::Less => (false, false),
        Ordering::Greater => (false, false),
        Ordering::Equal => (true, false),
    })
}

/// Shared sorted-merge walk. `decide(cmp(a_row, b_row))` returns
/// `(emit_a_row, emit_b_row)` for the smaller (or equal) head; both
/// cursors advance on `Equal`, the smaller side otherwise. Tail handling:
/// union keeps both tails, difference keeps `a`'s tail, intersect drops
/// both — encoded by `decide(Less)` for `a`'s tail and `decide(Greater)`
/// for `b`'s.
fn merge_setop(
    a: &ColumnTable,
    b: &ColumnTable,
    gov: &Governor,
    site: &'static str,
    decide: impl Fn(Ordering) -> (bool, bool),
) -> Result<ColumnTable, ResourceError> {
    debug_assert_eq!(a.arity(), b.arity());
    let mut m = BlockMeter::new(gov, site);
    let mut out = ColumnTable::empty(a.arity());
    let (mut i, mut j) = (0usize, 0usize);
    let mut emit = |t: &ColumnTable, k: usize, m: &mut BlockMeter<'_>| {
        let row: Vec<ValueId> = t.row(k);
        m.rows(1, row.len())?;
        // Emission follows the merged order, so `out` stays canonical.
        out.push_row(&row);
        Ok::<(), ResourceError>(())
    };
    while i < a.len() && j < b.len() {
        m.work(1)?;
        let ord = a.cmp_row_cross(i, b, j);
        let (ea, eb) = decide(ord);
        if ea {
            emit(a, i, &mut m)?;
        }
        if eb {
            emit(b, j, &mut m)?;
        }
        match ord {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    while i < a.len() {
        m.work(1)?;
        if decide(Ordering::Less).0 {
            emit(a, i, &mut m)?;
        }
        i += 1;
    }
    while j < b.len() {
        m.work(1)?;
        if decide(Ordering::Greater).1 {
            emit(b, j, &mut m)?;
        }
        j += 1;
    }
    m.finish()?;
    Ok(out)
}

/// ⋈ — every pair `(i, j)` of `l` and `r` rows whose `keys` columns
/// agree and which satisfies `filter` (over the joined row: `l`'s
/// columns, then `r`'s), enumerated by the planner's `algo`. Output
/// columns are the left's followed by the right's, duplicates of key
/// columns included (projection is a separate operator).
///
/// A keyless join is a quantifier range in disguise: its pair count is
/// checked against the range budget at `exec.product` before anything
/// runs, whatever the filter. Without a filter it is the Cartesian
/// product, charged one output row per pair at `exec.product` and
/// nothing else.
#[allow(clippy::too_many_arguments)]
pub fn join(
    l: &ColumnTable,
    r: &ColumnTable,
    keys: &[(usize, usize)],
    filter: Option<&RowPred>,
    algo: JoinAlgo,
    int: &Interner,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    if keys.is_empty() {
        gov.check_range("exec.product", l.len() as u64 * r.len() as u64)?;
        if filter.is_none() {
            let (n, m) = (l.len() as u32, r.len() as u32);
            let pairs = (0..n).flat_map(move |i| (0..m).map(move |j| (i, j)));
            return materialize_pairs(l, r, pairs, "exec.product", gov);
        }
    }
    let filter = filter.map(|p| p.compile(int));
    let test = PairTest {
        l,
        r,
        keys,
        filter: filter.as_ref(),
        int,
    };
    let mut pairs = match algo {
        JoinAlgo::NestedLoop => nested_loop_pairs(&test, gov)?,
        JoinAlgo::Hash { build_left } => hash_pairs(&test, build_left, gov)?,
        JoinAlgo::Lookup => lookup_pairs(&test, gov)?,
        JoinAlgo::ElementIndex(conj) => element_index_pairs(&test, conj, gov)?,
    };
    pairs.sort_unstable();
    materialize_pairs(l, r, pairs.iter().copied(), "exec.join", gov)
}

/// The join condition on one candidate pair: equal keys and the filter,
/// read across both sides without building the joined row.
#[derive(Clone, Copy)]
struct PairTest<'a> {
    l: &'a ColumnTable,
    r: &'a ColumnTable,
    keys: &'a [(usize, usize)],
    filter: Option<&'a CompiledPred>,
    int: &'a Interner,
}

impl PairTest<'_> {
    /// Do rows `i` of `l` and `j` of `r` join?
    #[inline]
    fn holds(&self, i: u32, j: u32) -> bool {
        let (i, j) = (i as usize, j as usize);
        let (l, r) = (self.l, self.r);
        self.keys
            .iter()
            .all(|&(lc, rc)| l.col(lc)[i] == r.col(rc)[j])
            && self.filter.is_none_or(|f| self.passes(f, i, j))
    }

    /// Does the joined row of `i` and `j` satisfy `filter`? Kept out of
    /// line so the key loops around [`PairTest::holds`] stay tight.
    #[inline(never)]
    fn passes(&self, filter: &CompiledPred, i: usize, j: usize) -> bool {
        let (l, r) = (self.l, self.r);
        let la = l.arity();
        let cell = |c: usize| {
            if c < la {
                l.col(c)[i]
            } else {
                r.col(c - la)[j]
            }
        };
        filter.eval_by(&cell, self.int)
    }
}

fn nested_loop_pairs(
    test: &PairTest<'_>,
    gov: &Governor,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let mut m = BlockMeter::new(gov, "exec.join");
    let mut pairs = Vec::new();
    for i in 0..test.l.len() as u32 {
        for j in 0..test.r.len() as u32 {
            m.work(1)?;
            if test.holds(i, j) {
                pairs.push((i, j));
            }
        }
    }
    m.finish()?;
    Ok(pairs)
}

fn hash_pairs(
    test: &PairTest<'_>,
    build_left: bool,
    gov: &Governor,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let lkeys: Vec<usize> = test.keys.iter().map(|&(lc, _)| lc).collect();
    let rkeys: Vec<usize> = test.keys.iter().map(|&(_, rc)| rc).collect();
    let (build, bkeys, probe, pkeys) = if build_left {
        (test.l, &lkeys, test.r, &rkeys)
    } else {
        (test.r, &rkeys, test.l, &lkeys)
    };
    {
        let mut m = BlockMeter::new(gov, "exec.join.build");
        m.work(build.len() as u64)?;
        m.finish()?;
    }
    let index = build.key_index(bkeys);
    // The index matches the keys; candidates are left to the filter.
    let test = PairTest { keys: &[], ..*test };
    let hits = |p: usize| {
        let rows = index.get(&probe.key_at(pkeys, p));
        rows.map_or(&[][..], Vec::as_slice).iter().copied()
    };
    probe_pairs(&test, build_left, hits, gov)
}

/// Probe the right side's sorted first column with each left row's key
/// on it: the candidates are the right rows in its leading range, each
/// then checked against every key and the filter.
fn lookup_pairs(test: &PairTest<'_>, gov: &Governor) -> Result<Vec<(u32, u32)>, ResourceError> {
    let &(lc, _) = (test.keys.iter())
        .find(|&&(_, rc)| rc == 0)
        .expect("a lookup join keys the right input's first column");
    let (probe, r) = (test.l.col(lc), test.r);
    let hits = |p: usize| {
        let rows = r.leading_range(probe[p]);
        rows.start as u32..rows.end as u32
    };
    probe_pairs(test, false, hits, gov)
}

/// Index the members of the set column on the side holding `conj`'s
/// set, then probe with the other side: an element (`∈`) looks up its
/// posting list; a set (`⊆`) takes the shortest posting list among its
/// members — any superset holds that member — and the empty set takes
/// every set-valued row. The candidates are exactly the pairs satisfying
/// `conj`, each then checked against the keys and the whole filter.
fn element_index_pairs(
    test: &PairTest<'_>,
    conj: SetConjunct,
    gov: &Governor,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let la = test.l.arity();
    let (probe_col, set_col) = match conj {
        SetConjunct::In { elem, set } => (elem, set),
        SetConjunct::Subset { sub, set } => (sub, set),
    };
    let build_left = set_col < la;
    let (build, probe) = if build_left {
        (test.l, test.r)
    } else {
        (test.r, test.l)
    };
    let local = |c: usize| if c < la { c } else { c - la };
    let (set_col, probe_col) = (local(set_col), local(probe_col));

    let int = test.int;
    let mut postings: HashMap<ValueId, Vec<u32>> = HashMap::new();
    let mut set_rows: Vec<u32> = Vec::new();
    {
        let mut m = BlockMeter::new(gov, "exec.join.build");
        for (b, &id) in build.col(set_col).iter().enumerate() {
            m.work(1)?;
            if let Some(elems) = int.set_elems(id) {
                m.work(elems.len() as u64)?;
                set_rows.push(b as u32);
                for &e in elems {
                    postings.entry(e).or_default().push(b as u32);
                }
            }
        }
        m.finish()?;
    }
    let posting = |e: &ValueId| postings.get(e).map_or(&[][..], Vec::as_slice);
    let hits = |p: usize| {
        let v = probe.col(probe_col)[p];
        let rows = match conj {
            SetConjunct::In { .. } => posting(&v),
            SetConjunct::Subset { .. } => match int.set_elems(v) {
                None => &[][..],
                Some([]) => set_rows.as_slice(),
                Some(elems) => elems
                    .iter()
                    .map(posting)
                    .min_by_key(|hits| hits.len())
                    .expect("a non-empty set"),
            },
        };
        rows.iter().copied()
    };
    probe_pairs(test, build_left, hits, gov)
}

/// Probe every row of the non-build side against an index: `hits(p)` is
/// the build rows probe row `p` may pair with, each kept when `test`
/// holds. One step per probe row and per candidate at
/// `exec.join.probe`.
fn probe_pairs<I: ExactSizeIterator<Item = u32>>(
    test: &PairTest<'_>,
    build_left: bool,
    hits: impl Fn(usize) -> I,
    gov: &Governor,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let probe_len = if build_left {
        test.r.len()
    } else {
        test.l.len()
    };
    let mut m = BlockMeter::new(gov, "exec.join.probe");
    let mut out = Vec::new();
    for p in 0..probe_len {
        let hits = hits(p);
        m.work(1 + hits.len() as u64)?;
        for b in hits {
            let (i, j) = if build_left {
                (b, p as u32)
            } else {
                (p as u32, b)
            };
            if test.holds(i, j) {
                out.push((i, j));
            }
        }
    }
    m.finish()?;
    Ok(out)
}

/// Materialize sorted `(left, right)` index pairs, charging one output
/// row each at `site` before anything is built. Because both inputs are
/// canonical and the pairs are strictly increasing, the output is
/// canonical without a sort.
fn materialize_pairs(
    l: &ColumnTable,
    r: &ColumnTable,
    pairs: impl Iterator<Item = (u32, u32)> + Clone,
    site: &'static str,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let mut m = BlockMeter::new(gov, site);
    m.rows(pairs.clone().count() as u64, l.arity() + r.arity())?;
    m.finish()?;
    Ok(ColumnTable::paired(l, r, pairs))
}
