//! Columnar relation storage over interned ids.
//!
//! A [`ColumnTable`] stores a relation as one `Vec<ValueId>` per column —
//! the layout implog-style engines use — kept in a *canonical* row order:
//! rows sorted lexicographically by raw id and deduplicated. Because id
//! equality coincides with value equality (the interner's hash-consing
//! invariant), the canonical form is unique for a fixed interner, so two
//! tables over the same interner are bit-for-bit equal iff they denote the
//! same relation. Every kernel in [`crate::kernels`] both consumes and
//! produces canonical tables, which is what lets the differential fuzzer
//! compare hash and nested-loop outputs with plain `==` and makes
//! results independent of thread count and hash-map iteration order.
//!
//! Note raw-id order is an *internal* device (admission order, not the
//! structural order on values — see `no_object::intern`); it never escapes
//! into results: replies rank rows by value before they render them.

use no_object::ValueId;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

/// A relation stored column-major over interned ids, in canonical
/// (raw-id-sorted, duplicate-free) row order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnTable {
    arity: usize,
    len: usize,
    cols: Vec<Vec<ValueId>>,
}

impl ColumnTable {
    /// The empty table of the given arity.
    pub fn empty(arity: usize) -> Self {
        ColumnTable {
            arity,
            len: 0,
            cols: vec![Vec::new(); arity],
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One column's ids, row-aligned.
    pub fn col(&self, c: usize) -> &[ValueId] {
        &self.cols[c]
    }

    /// The rows whose first column holds `id`: canonical order sorts by
    /// column 0 first, so they are one contiguous range, found by two
    /// binary searches.
    pub fn leading_range(&self, id: ValueId) -> Range<usize> {
        let col = &self.cols[0];
        let key = id.index();
        let start = col.partition_point(|x| x.index() < key);
        start..start + col[start..].partition_point(|x| x.index() == key)
    }

    /// Gather row `i` across columns.
    pub fn row(&self, i: usize) -> Vec<ValueId> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Append a row without restoring the canonical order; callers must
    /// finish with [`canonicalize`](ColumnTable::canonicalize).
    pub fn push_row(&mut self, row: &[ValueId]) {
        debug_assert_eq!(row.len(), self.arity);
        for (c, id) in row.iter().enumerate() {
            self.cols[c].push(*id);
        }
        self.len += 1;
    }

    /// Raw-id lexicographic comparison of rows `i` and `j`.
    fn cmp_idx(&self, i: usize, j: usize) -> Ordering {
        for col in &self.cols {
            match col[i].index().cmp(&col[j].index()) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Restore the canonical form: sort rows by raw-id lexicographic
    /// order and drop duplicates. Rows are sorted on two columns at a
    /// time, packed into one `u64` key, last pair first: each pass breaks
    /// its ties by the order the previous pass left, so the last pass
    /// leaves the rows in lexicographic order.
    pub fn canonicalize(&mut self) {
        let mut perm: Vec<u32> = (0..self.len as u32).collect();
        for pair in self.cols.rchunks(2) {
            let key =
                |i: u32| (pair.iter()).fold(0u64, |k, c| k << 32 | c[i as usize].index() as u64);
            let mut keyed: Vec<(u64, u32)> = (perm.iter().enumerate())
                .map(|(at, &i)| (key(i), at as u32))
                .collect();
            keyed.sort_unstable();
            perm = keyed.iter().map(|&(_, at)| perm[at as usize]).collect();
        }
        perm.dedup_by(|&mut a, &mut b| self.cmp_idx(a as usize, b as usize) == Ordering::Equal);
        self.gather(&perm);
    }

    /// Replace the rows by `perm`'s selection, in `perm` order.
    fn gather(&mut self, perm: &[u32]) {
        for col in &mut self.cols {
            let picked: Vec<ValueId> = perm.iter().map(|&i| col[i as usize]).collect();
            *col = picked;
        }
        self.len = perm.len();
    }

    /// A new table holding the rows selected by `keep`, in `keep` order.
    /// When `keep` is an ascending subsequence of row indices (a filter),
    /// the result is canonical without re-sorting.
    pub fn gathered(&self, keep: &[u32]) -> ColumnTable {
        ColumnTable {
            arity: self.arity,
            len: keep.len(),
            cols: self
                .cols
                .iter()
                .map(|col| keep.iter().map(|&i| col[i as usize]).collect())
                .collect(),
        }
    }

    /// The table of `(l row, r row)` index pairs, `r`'s columns appended
    /// to `l`'s, built column by column (the pairs are walked once per
    /// column). Strictly increasing pairs over two canonical tables give
    /// a canonical result without a sort.
    pub(crate) fn paired(
        l: &ColumnTable,
        r: &ColumnTable,
        pairs: impl Iterator<Item = (u32, u32)> + Clone,
    ) -> ColumnTable {
        let len = pairs.clone().count();
        let left = l.cols.iter().map(|col| {
            pairs
                .clone()
                .map(|(i, _)| col[i as usize])
                .collect::<Vec<_>>()
        });
        let right = r.cols.iter().map(|col| {
            pairs
                .clone()
                .map(|(_, j)| col[j as usize])
                .collect::<Vec<_>>()
        });
        ColumnTable {
            arity: l.arity + r.arity,
            len,
            cols: left.chain(right).collect(),
        }
    }

    /// Raw-id lexicographic comparison of `self`'s row `i` with `other`'s
    /// row `j` (both tables must share one interner).
    pub fn cmp_row_cross(&self, i: usize, other: &ColumnTable, j: usize) -> Ordering {
        debug_assert_eq!(self.arity, other.arity);
        for (a, b) in self.cols.iter().zip(&other.cols) {
            match a[i].index().cmp(&b[j].index()) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Build (canonically) from an iterator of rows.
    pub fn from_rows<'a>(arity: usize, rows: impl IntoIterator<Item = &'a [ValueId]>) -> Self {
        let mut t = ColumnTable::empty(arity);
        for row in rows {
            t.push_row(row);
        }
        t.canonicalize();
        t
    }

    /// Secondary hash index over a column combination: key ids → ascending
    /// row indices. This is the build side of a hash join.
    pub fn key_index(&self, key_cols: &[usize]) -> HashMap<Box<[ValueId]>, Vec<u32>> {
        let mut idx: HashMap<Box<[ValueId]>, Vec<u32>> = HashMap::new();
        for i in 0..self.len {
            idx.entry(self.key_at(key_cols, i))
                .or_default()
                .push(i as u32);
        }
        idx
    }

    /// The key of row `i` restricted to `key_cols`.
    pub fn key_at(&self, key_cols: &[usize], i: usize) -> Box<[ValueId]> {
        key_cols.iter().map(|&c| self.cols[c][i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{Interner, Universe, Value};

    fn ids(int: &Interner, names: &[&str]) -> Vec<ValueId> {
        let universe = Universe::with_names(names.iter().copied());
        names
            .iter()
            .map(|n| int.intern(&Value::atom(universe.get(n).unwrap())))
            .collect()
    }

    #[test]
    fn canonical_form_is_sorted_and_deduped() {
        let int = Interner::new();
        let v = ids(&int, &["a", "b", "c"]);
        let rows: Vec<Vec<ValueId>> = vec![
            vec![v[2], v[0]],
            vec![v[0], v[1]],
            vec![v[2], v[0]],
            vec![v[1], v[1]],
        ];
        let t = ColumnTable::from_rows(2, rows.iter().map(Vec::as_slice));
        assert_eq!(t.len(), 3);
        for i in 1..t.len() {
            assert_eq!(t.cmp_idx(i - 1, i), Ordering::Less);
        }
        // Same rows in any order build the identical table.
        let mut rev = rows.clone();
        rev.reverse();
        let t2 = ColumnTable::from_rows(2, rev.iter().map(Vec::as_slice));
        assert_eq!(t, t2);
    }

    #[test]
    fn leading_range_is_the_rows_with_that_first_column() {
        let int = Interner::new();
        let v = ids(&int, &["a", "b", "c", "d"]);
        let rows: Vec<Vec<ValueId>> = vec![
            vec![v[2], v[0]],
            vec![v[0], v[1]],
            vec![v[2], v[3]],
            vec![v[0], v[0]],
            vec![v[2], v[1]],
        ];
        let t = ColumnTable::from_rows(2, rows.iter().map(Vec::as_slice));
        for &id in &v {
            let range = t.leading_range(id);
            let brute: Vec<usize> = (0..t.len()).filter(|&i| t.col(0)[i] == id).collect();
            assert_eq!(range.clone().collect::<Vec<_>>(), brute);
        }
        assert!(t.leading_range(v[1]).is_empty(), "b leads no row");
    }

    #[test]
    fn zero_arity_tables_collapse_to_one_row() {
        let mut t = ColumnTable::empty(0);
        t.push_row(&[]);
        t.push_row(&[]);
        t.canonicalize();
        assert_eq!(t.len(), 1);
        assert_eq!(t.arity(), 0);
    }
}
