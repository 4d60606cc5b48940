//! Reply rendering: result relations go from the ids the engines computed
//! straight into a reply's rows, once.
//!
//! An answer arrives as a canonical [`ColumnTable`] over an [`Interner`]
//! ([`Answer`]). [`relation_out`] collects the table's distinct cells,
//! ranks them in value order (the structural order `Value`'s `Ord`
//! defines, which [`Interner::cmp`] agrees with), sorts the rows by those
//! ranks, renders each distinct cell's text and JSON form once, and
//! writes every row from them — no `Value` tree, no per-row re-render,
//! no JSON tree. Raw ids never order anything a client sees.
//!
//! Value-level results (materialized views, maintenance deltas) take the
//! same path: [`relations_out`] interns them into one arena per reply
//! first.

use no_exec::{Answer, ColumnTable};
use no_ivm::ViewDelta;
use no_object::intern::IdBuildHasher;
use no_object::{Interner, Relation, Universe, ValueId};
use no_proto::{CellWriter, DeltaOut, RelationOut, RowsWriter};
use std::collections::{BTreeMap, HashMap};

/// Render `answer` as the reply relation `name`: rows in value order,
/// each in the text format and, together, as one JSON array.
pub fn relation_out(universe: &Universe, name: &str, answer: &Answer) -> RelationOut {
    let (table, int) = (answer.table(), answer.interner());
    let arity = table.arity();
    let ranked = Ranked::of(table, int);
    // each distinct cell's text (into one buffer) and JSON, in rank order
    let mut texts = String::new();
    let mut text_at = vec![0];
    let mut cells = Vec::with_capacity(ranked.by_value.len());
    for &id in &ranked.by_value {
        write_text(&mut texts, universe, int, id);
        text_at.push(texts.len());
        let mut cell = CellWriter::default();
        write_json(&mut cell, universe, int, id);
        cells.push(cell.finish());
    }
    let text = |r: u32| &texts[text_at[r as usize]..text_at[r as usize + 1]];

    let per_cell = |bytes: usize| bytes / cells.len().max(1) + 2;
    let text_row = arity * per_cell(texts.len()) + 2;
    let json_bytes = cells.iter().map(|c| c.as_str().len()).sum();
    let mut rows = Vec::with_capacity(table.len());
    let mut rows_json = RowsWriter::with_capacity(table.len() * (arity * per_cell(json_bytes) + 3));
    for key in ranked.rows() {
        let mut row = String::with_capacity(text_row);
        row.push('(');
        for (c, &r) in key.iter().enumerate() {
            if c > 0 {
                row.push_str(", ");
            }
            row.push_str(text(r));
        }
        row.push(')');
        rows.push(row);
        rows_json.row(key.iter().map(|&r| &cells[r as usize]));
    }
    RelationOut {
        name: name.to_string(),
        rows,
        rows_json: rows_json.finish(),
    }
}

/// Render value-level relations (a view's rows, a maintenance delta) as
/// reply relations, interned into one arena for this reply.
pub fn relations_out<'a>(
    universe: &Universe,
    rels: impl IntoIterator<Item = (&'a str, &'a Relation)>,
) -> Vec<RelationOut> {
    let arena = Interner::new();
    rels.into_iter()
        .map(|(name, rel)| relation_out(universe, name, &Answer::intern(rel, &arena)))
        .collect()
}

/// Per-view maintenance deltas for the wire, skipping views and
/// relations the mutation did not touch.
pub fn delta_outs(universe: &Universe, deltas: &BTreeMap<String, ViewDelta>) -> Vec<DeltaOut> {
    fn changed(side: &BTreeMap<String, Relation>) -> impl Iterator<Item = (&str, &Relation)> {
        (side.iter())
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(rel, rows)| (rel.as_str(), rows))
    }
    deltas
        .iter()
        .filter(|(_, d)| !d.is_empty())
        .map(|(view, d)| DeltaOut {
            view: view.clone(),
            added: relations_out(universe, changed(&d.add)),
            removed: relations_out(universe, changed(&d.del)),
        })
        .collect()
}

/// A table's rows as ranks: each distinct cell's position in value
/// order, row-major.
struct Ranked {
    /// The distinct cells in value order (rank → id).
    by_value: Vec<ValueId>,
    /// Row `i`'s cells as ranks, at `keys[i * arity..][..arity]`, rows
    /// in table order.
    keys: Vec<u32>,
    /// Table row indices, sorted by their ranks.
    order: Vec<u32>,
    arity: usize,
}

impl Ranked {
    fn of(table: &ColumnTable, int: &Interner) -> Ranked {
        let (n, arity) = (table.len(), table.arity());
        // number the distinct cells as first met, row-major
        let mut slot: HashMap<ValueId, u32, IdBuildHasher> = HashMap::default();
        let mut distinct = Vec::new();
        let mut keys = vec![0u32; n * arity];
        for c in 0..arity {
            for (i, &id) in table.col(c).iter().enumerate() {
                keys[i * arity + c] = *slot.entry(id).or_insert_with(|| {
                    distinct.push(id);
                    distinct.len() as u32 - 1
                });
            }
        }
        // rank them by value, comparing order-preserving encodings, and
        // rewrite the keys as ranks
        let mut code = Vec::new();
        let mut code_at = vec![0];
        for &id in &distinct {
            encode(&mut code, int, id);
            code_at.push(code.len());
        }
        let code_of = |s: u32| &code[code_at[s as usize]..code_at[s as usize + 1]];
        let mut by_slot: Vec<u32> = (0..distinct.len() as u32).collect();
        by_slot.sort_unstable_by(|a, b| code_of(*a).cmp(code_of(*b)));
        let mut rank = vec![0u32; distinct.len()];
        for (r, &s) in by_slot.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        let by_value: Vec<ValueId> = by_slot.iter().map(|&s| distinct[s as usize]).collect();
        for k in &mut keys {
            *k = rank[*k as usize];
        }
        // rows in rank order: a stable counting sort per column, last first
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut sorted = vec![0u32; n];
        let mut start = vec![0u32; by_value.len() + 1];
        for c in (0..arity).rev() {
            start.fill(0);
            for &i in &order {
                start[keys[i as usize * arity + c] as usize + 1] += 1;
            }
            for r in 1..start.len() {
                start[r] += start[r - 1];
            }
            for &i in &order {
                let r = keys[i as usize * arity + c] as usize;
                sorted[start[r] as usize] = i;
                start[r] += 1;
            }
            std::mem::swap(&mut order, &mut sorted);
        }
        Ranked {
            by_value,
            keys,
            order,
            arity,
        }
    }

    /// Each row's ranks, rows in value order.
    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        (self.order.iter()).map(|&i| &self.keys[i as usize * self.arity..][..self.arity])
    }
}

/// Append an order-preserving encoding of cell `id` to `out`: comparing
/// two cells' encodings as slices compares their values the way
/// `Value`'s `Ord` (and [`Interner::cmp`]) does. An atom is `1, id`; a
/// tuple is `2`, a set `3`, then the encoded components and a closing
/// `0`, which sorts a prefix before its extensions.
fn encode(out: &mut Vec<u32>, int: &Interner, id: ValueId) {
    if let Some(a) = int.as_atom(id) {
        out.extend([1, a.0]);
        return;
    }
    out.push(if int.tuple_elems(id).is_some() { 2 } else { 3 });
    for x in components(int, id) {
        encode(out, int, *x);
    }
    out.push(0);
}

/// The text form of a cell, as the CALC printer writes a constant:
/// `'atom'`, `[component,…]`, `{element,…}`.
fn write_text(out: &mut String, universe: &Universe, int: &Interner, id: ValueId) {
    let (open, close, items) = if let Some(a) = int.as_atom(id) {
        out.push('\'');
        out.push_str(universe.name(a));
        out.push('\'');
        return;
    } else if let Some(xs) = int.tuple_elems(id) {
        ('[', ']', xs)
    } else {
        ('{', '}', components(int, id))
    };
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_text(out, universe, int, *x);
    }
    out.push(close);
}

/// The JSON form of a cell: atoms as strings, tuples and sets as arrays.
fn write_json(out: &mut CellWriter, universe: &Universe, int: &Interner, id: ValueId) {
    if let Some(a) = int.as_atom(id) {
        out.atom(universe.name(a));
        return;
    }
    out.open();
    for x in components(int, id) {
        write_json(out, universe, int, *x);
    }
    out.close();
}

/// The components of a tuple or the elements of a set.
fn components(int: &Interner, id: ValueId) -> &[ValueId] {
    (int.tuple_elems(id))
        .or_else(|| int.set_elems(id))
        .expect("a node is an atom, a tuple or a set")
}
