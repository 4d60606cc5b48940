//! The JSON encoding of result rows, valid by construction.
//!
//! A reply carries each result relation twice: as text rows and as one
//! JSON array ([`RowsJson`]). The array is spliced into the reply line
//! verbatim, so it must be exactly one valid JSON array with no raw
//! newline. The types here make anything else unrepresentable: a
//! [`RowsJson`] is either written by a [`RowsWriter`] out of [`CellJson`]
//! cells, which a [`CellWriter`] escapes and closes, or validated and
//! re-rendered by [`RowsJson::parse`].

use crate::json::{self, escape_into, Json, JsonError};

/// One cell of a result row as JSON: an atom is its name as a string, a
/// tuple or a set is the array of its components (set elements in their
/// canonical order). Written by a [`CellWriter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellJson(String);

impl CellJson {
    /// The encoded cell.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Writes one [`CellJson`]: atoms and arrays, with commas placed and
/// nesting checked, so a finished cell is always exactly one JSON value.
/// Misuse (a `close` with nothing open, a second top-level value, an
/// unfinished array) panics.
#[derive(Debug, Default)]
pub struct CellWriter {
    out: String,
    depth: usize,
    after_value: bool,
}

impl CellWriter {
    /// An atom, by name.
    pub fn atom(&mut self, name: &str) {
        self.separate();
        escape_into(&mut self.out, name);
        self.after_value = true;
    }

    /// Open a tuple or a set; its components follow.
    pub fn open(&mut self) {
        self.separate();
        if self.out.is_empty() {
            self.out.reserve(32);
        }
        self.out.push('[');
        self.depth += 1;
        self.after_value = false;
    }

    /// Close the innermost open tuple or set.
    pub fn close(&mut self) {
        assert!(self.depth > 0, "CellWriter::close with nothing open");
        self.out.push(']');
        self.depth -= 1;
        self.after_value = true;
    }

    fn separate(&mut self) {
        if self.after_value {
            assert!(self.depth > 0, "a cell is one value");
            self.out.push(',');
        }
    }

    /// The finished cell.
    pub fn finish(self) -> CellJson {
        assert!(
            self.depth == 0 && self.after_value,
            "a cell is one complete value"
        );
        CellJson(self.out)
    }
}

/// Builds a [`RowsJson`] one row at a time.
#[derive(Debug)]
pub struct RowsWriter {
    out: String,
}

impl RowsWriter {
    /// An empty array, with room for about `bytes` of output.
    pub fn with_capacity(bytes: usize) -> RowsWriter {
        let mut out = String::with_capacity(bytes.max(2));
        out.push('[');
        RowsWriter { out }
    }

    /// Append one row: the array of its cells.
    pub fn row<'a>(&mut self, cells: impl IntoIterator<Item = &'a CellJson>) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('[');
        for (i, cell) in cells.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&cell.0);
        }
        self.out.push(']');
    }

    /// Close the array.
    pub fn finish(mut self) -> RowsJson {
        self.out.push(']');
        RowsJson(self.out)
    }
}

/// A result relation's rows as one canonical, single-line JSON array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowsJson(String);

impl Default for RowsJson {
    /// No rows: `[]`.
    fn default() -> RowsJson {
        RowsJson("[]".to_string())
    }
}

impl RowsJson {
    /// Validate `src` as one JSON array and keep its canonical rendering
    /// (no insignificant whitespace). Anything else — empty input,
    /// malformed JSON, a non-array — is an error, never zero rows.
    pub fn parse(src: &str) -> Result<RowsJson, JsonError> {
        RowsJson::from_value(&json::parse(src)?)
    }

    /// The canonical rendering of an already-parsed array.
    pub(crate) fn from_value(v: &Json) -> Result<RowsJson, JsonError> {
        match v {
            Json::Arr(_) => Ok(RowsJson(v.render())),
            _ => Err(JsonError {
                message: "rows_json must be a JSON array".to_string(),
                at: 0,
            }),
        }
    }

    /// The encoded array.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for RowsJson {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(write: impl FnOnce(&mut CellWriter)) -> CellJson {
        let mut w = CellWriter::default();
        write(&mut w);
        w.finish()
    }

    #[test]
    fn cells_and_rows_escape_and_nest() {
        let odd = "a\"\\\n\tb\u{1}é";
        let a = cell(|w| w.atom(odd));
        assert_eq!(a.as_str(), r#""a\"\\\n\tb\u0001é""#);
        let set = cell(|w| {
            w.open();
            w.atom(odd);
            w.atom("c");
            w.close();
        });
        let empty = cell(|w| {
            w.open();
            w.close();
        });
        let mut w = RowsWriter::with_capacity(0);
        w.row([&a, &set]);
        w.row([&empty]);
        let rows = w.finish();
        assert_eq!(
            rows,
            r#"[["a\"\\\n\tb\u0001é",["a\"\\\n\tb\u0001é","c"]],[[]]]"#
        );
        assert_eq!(RowsJson::parse(rows.as_str()).unwrap(), rows);
        assert_eq!(RowsWriter::with_capacity(8).finish(), RowsJson::default());
    }

    #[test]
    #[should_panic(expected = "a cell is one value")]
    fn a_cell_holds_one_value() {
        cell(|w| {
            w.atom("a");
            w.atom("b");
        });
    }

    #[test]
    #[should_panic(expected = "one complete value")]
    fn a_cell_closes_what_it_opens() {
        cell(|w| w.open());
    }

    #[test]
    fn parse_canonicalizes_and_refuses_non_arrays() {
        let rows = RowsJson::parse("[\n  [\"a\", \"b\\nc\"]\n]").unwrap();
        assert_eq!(rows, r#"[["a","b\nc"]]"#);
        for bad in ["", "[[\"a\"]", "{\"a\":1}", "\"rows\"", "[1,]"] {
            assert!(RowsJson::parse(bad).is_err(), "{bad:?}");
        }
    }
}
