//! Columnar physical operators.
//!
//! Every kernel consumes and produces *canonical* [`ColumnTable`]s (see
//! [`crate::table`]), so for one interner the output of an operator is a
//! unique bit pattern: hash join and nested loop produce the **identical**
//! table for the same inputs, regardless of thread count or hash-map
//! iteration order — the property the differential fuzzer asserts with
//! `==`.
//!
//! The join kernels both reduce to the same two steps: enumerate the set
//! of matching `(left row, right row)` index pairs — by exhaustive pairing
//! (nested loop) or by probing a key index built on one side (hash) —
//! then sort the pairs and materialize them column-wise. Since each input is sorted and
//! duplicate-free, pair order `(i, j)` *is* raw-id lexicographic row
//! order, so the materialized table is canonical by construction.
//!
//! Governor accounting is block-batched through [`BlockMeter`]: one step
//! per row scanned, probed, or pair considered, and the engines' standard
//! `8 × arity` bytes per materialized row, flushed per
//! [`crate::meter::BLOCK`].

use crate::meter::BlockMeter;
use crate::pred::RowPred;
use crate::table::ColumnTable;
use minipool::{split, ThreadPool};
use no_object::{Governor, Interner, ResourceError, ValueId};
use std::cmp::Ordering;

/// Probe sides at or above this row count fan out across the pool.
const PARALLEL_PROBE_MIN: usize = 4096;

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
        }
    }
}

/// σ — keep the rows satisfying `pred`.
pub fn select(
    t: &ColumnTable,
    pred: &RowPred,
    int: &Interner,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let compiled = pred.compile(int);
    let mut m = BlockMeter::new(gov, "exec.select");
    let mut keep: Vec<u32> = Vec::new();
    for i in 0..t.len() {
        m.work(1)?;
        if compiled.eval(t, i, int) {
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

/// × — Cartesian product, columns of `b` appended to `a`. The cell count
/// is pre-checked against the range budget (a product is a quantifier
/// range in disguise), then rows are materialized in `(i, j)` order —
/// canonical because both inputs are.
pub fn product(
    a: &ColumnTable,
    b: &ColumnTable,
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let cells = a.len() as u64 * b.len() as u64;
    gov.check_range("exec.product", cells)?;
    let arity = a.arity() + b.arity();
    let mut m = BlockMeter::new(gov, "exec.product");
    let mut out = ColumnTable::empty(arity);
    let mut row: Vec<ValueId> = Vec::with_capacity(arity);
    for i in 0..a.len() {
        for j in 0..b.len() {
            m.rows(1, arity)?;
            row.clear();
            row.extend(a.row(i));
            row.extend(b.row(j));
            out.push_row(&row);
        }
    }
    m.finish()?;
    Ok(out)
}

/// ⋈ — equi-join on `keys` (pairs of 0-based columns, left then right),
/// with the algorithm picked by the planner. Output columns are the
/// left's followed by the right's, duplicates of key columns included
/// (projection is a separate operator).
pub fn join(
    l: &ColumnTable,
    r: &ColumnTable,
    keys: &[(usize, usize)],
    algo: JoinAlgo,
    gov: &Governor,
    pool: &ThreadPool,
) -> Result<ColumnTable, ResourceError> {
    let mut pairs = match algo {
        JoinAlgo::NestedLoop => nested_loop_pairs(l, r, keys, gov)?,
        JoinAlgo::Hash { build_left } => hash_pairs(l, r, keys, build_left, gov, pool)?,
    };
    pairs.sort_unstable();
    materialize_pairs(l, r, &pairs, gov)
}

fn keys_match(
    l: &ColumnTable,
    i: usize,
    r: &ColumnTable,
    j: usize,
    keys: &[(usize, usize)],
) -> bool {
    keys.iter().all(|&(lc, rc)| l.col(lc)[i] == r.col(rc)[j])
}

fn nested_loop_pairs(
    l: &ColumnTable,
    r: &ColumnTable,
    keys: &[(usize, usize)],
    gov: &Governor,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let mut m = BlockMeter::new(gov, "exec.join");
    let mut pairs = Vec::new();
    for i in 0..l.len() {
        for j in 0..r.len() {
            m.work(1)?;
            if keys_match(l, i, r, j, keys) {
                pairs.push((i as u32, j as u32));
            }
        }
    }
    m.finish()?;
    Ok(pairs)
}

fn hash_pairs(
    l: &ColumnTable,
    r: &ColumnTable,
    keys: &[(usize, usize)],
    build_left: bool,
    gov: &Governor,
    pool: &ThreadPool,
) -> Result<Vec<(u32, u32)>, ResourceError> {
    let lkeys: Vec<usize> = keys.iter().map(|&(lc, _)| lc).collect();
    let rkeys: Vec<usize> = keys.iter().map(|&(_, rc)| rc).collect();
    let (build, bkeys, probe, pkeys) = if build_left {
        (l, &lkeys, r, &rkeys)
    } else {
        (r, &rkeys, l, &lkeys)
    };
    {
        let mut m = BlockMeter::new(gov, "exec.join.build");
        m.work(build.len() as u64)?;
        m.finish()?;
    }
    let index = build.key_index(bkeys);

    let probe_chunk = |range: std::ops::Range<usize>| -> Result<Vec<(u32, u32)>, ResourceError> {
        let mut m = BlockMeter::new(gov, "exec.join.probe");
        let mut out = Vec::new();
        for p in range {
            m.work(1)?;
            if let Some(hits) = index.get(&probe.key_at(pkeys, p)) {
                m.work(hits.len() as u64)?;
                for &b in hits {
                    let (i, j) = if build_left {
                        (b, p as u32)
                    } else {
                        (p as u32, b)
                    };
                    out.push((i, j));
                }
            }
        }
        m.finish()?;
        Ok(out)
    };

    let chunked: Vec<Vec<(u32, u32)>> = if pool.threads() > 1 && probe.len() >= PARALLEL_PROBE_MIN {
        pool.try_map(split(probe.len(), pool.threads()), probe_chunk)?
    } else {
        vec![probe_chunk(0..probe.len())?]
    };
    Ok(chunked.concat())
}

/// Materialize sorted `(left, right)` index pairs column-wise. Because
/// both inputs are canonical and the pairs are strictly increasing, the
/// output is canonical without a sort.
fn materialize_pairs(
    l: &ColumnTable,
    r: &ColumnTable,
    pairs: &[(u32, u32)],
    gov: &Governor,
) -> Result<ColumnTable, ResourceError> {
    let arity = l.arity() + r.arity();
    let mut m = BlockMeter::new(gov, "exec.join");
    m.rows(pairs.len() as u64, arity)?;
    m.finish()?;
    let mut out = ColumnTable::empty(arity);
    let mut row: Vec<ValueId> = Vec::with_capacity(arity);
    for &(i, j) in pairs {
        row.clear();
        row.extend(l.row(i as usize));
        row.extend(r.row(j as usize));
        out.push_row(&row);
    }
    Ok(out)
}
