//! A human-readable text format for schemas and instances.
//!
//! ```text
//! % the paper's Figure 1 instance
//! schema P(U, {U}, [U, {U}]).
//! P('b', {'a','b'}, ['c', {'a','c'}]).
//! P('c', {'c'}, ['a', {'b','c'}]).
//! ```
//!
//! `schema R(T1, …, Tn).` declares a relation; every other clause is a
//! fact. Atom literals are quoted and interned into the caller's
//! [`Universe`]; sets and tuples use `{…}` / `[…]`. Comments run from `%`
//! to end of line. [`render_database`] produces text that parses back to
//! an equal instance.

use crate::atom::Universe;
use crate::instance::{Instance, RelationSchema, Schema};
use crate::types::Type;
use crate::value::Value;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// Byte offset in the source.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "database parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for TextError {}

struct P<'s, 'u> {
    src: &'s [u8],
    pos: usize,
    universe: &'u mut Universe,
}

impl P<'_, '_> {
    fn err(&self, m: impl Into<String>) -> TextError {
        TextError {
            at: self.pos,
            message: m.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self
                .src
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            if self.src.get(self.pos) == Some(&b'%') {
                while self.src.get(self.pos).is_some_and(|&b| b != b'\n') {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), TextError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn try_eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, TextError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii checked")
            .to_string())
    }

    fn ty(&mut self) -> Result<Type, TextError> {
        match self.peek() {
            Some(b'{') => {
                self.eat(b'{')?;
                let t = self.ty()?;
                self.eat(b'}')?;
                Ok(Type::set(t))
            }
            Some(b'[') => {
                self.eat(b'[')?;
                let mut comps = vec![self.ty()?];
                while self.try_eat(b',') {
                    comps.push(self.ty()?);
                }
                self.eat(b']')?;
                Ok(Type::tuple(comps))
            }
            _ => {
                let id = self.ident()?;
                if id == "U" {
                    Ok(Type::Atom)
                } else {
                    Err(self.err(format!("expected type, found {id}")))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, TextError> {
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                while self.src.get(self.pos).is_some_and(|&b| b != b'\'') {
                    self.pos += 1;
                }
                if self.src.get(self.pos) != Some(&b'\'') {
                    return Err(self.err("unterminated atom literal"));
                }
                let name = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("non-UTF8 atom"))?
                    .to_string();
                self.pos += 1;
                Ok(Value::Atom(self.universe.intern(&name)))
            }
            Some(b'{') => {
                self.eat(b'{')?;
                let mut elems = Vec::new();
                if self.peek() != Some(b'}') {
                    elems.push(self.value()?);
                    while self.try_eat(b',') {
                        elems.push(self.value()?);
                    }
                }
                self.eat(b'}')?;
                Ok(Value::set(elems))
            }
            Some(b'[') => {
                self.eat(b'[')?;
                let mut elems = vec![self.value()?];
                while self.try_eat(b',') {
                    elems.push(self.value()?);
                }
                self.eat(b']')?;
                Ok(Value::tuple(elems))
            }
            _ => Err(self.err("expected value")),
        }
    }

    fn database(&mut self) -> Result<(Schema, Instance), TextError> {
        let mut schema = Schema::new();
        let mut facts: Vec<(String, Vec<Value>)> = Vec::new();
        loop {
            if self.peek().is_none() {
                break;
            }
            let id = self.ident()?;
            if id == "schema" {
                let name = self.ident()?;
                self.eat(b'(')?;
                let mut types = vec![self.ty()?];
                while self.try_eat(b',') {
                    types.push(self.ty()?);
                }
                self.eat(b')')?;
                self.eat(b'.')?;
                if schema.get(&name).is_some() {
                    return Err(self.err(format!("relation {name} declared twice")));
                }
                schema.add(RelationSchema::new(name, types));
            } else {
                self.eat(b'(')?;
                let mut row = Vec::new();
                if self.peek() != Some(b')') {
                    row.push(self.value()?);
                    while self.try_eat(b',') {
                        row.push(self.value()?);
                    }
                }
                self.eat(b')')?;
                self.eat(b'.')?;
                facts.push((id, row));
            }
        }
        let mut instance = Instance::empty(schema.clone());
        for (name, row) in facts {
            schema.check_row(&name, &row).map_err(|e| self.err(e))?;
            instance.insert(&name, row);
        }
        Ok((schema, instance))
    }
}

/// Parse a database (schema + facts) from text.
pub fn parse_database(src: &str, universe: &mut Universe) -> Result<(Schema, Instance), TextError> {
    P {
        src: src.as_bytes(),
        pos: 0,
        universe,
    }
    .database()
}

/// The clauses that import a text database into an instance over `live`:
/// a declaration for each relation `live` lacks, in file order, then every
/// fact, relation by relation, rows sorted. A relation `live` already
/// declares keeps its declaration, and its facts are checked against it
/// when they are applied.
pub fn import_clauses(
    src: &str,
    universe: &mut Universe,
    live: &Schema,
) -> Result<Vec<Clause>, TextError> {
    let (schema, parsed) = parse_database(src, universe)?;
    let declarations = schema
        .relations()
        .filter(|r| live.get(&r.name).is_none())
        .map(|r| Clause::Schema(r.clone()));
    let facts = schema.relations().flat_map(|r| {
        let rows = parsed.relation(&r.name).sorted_rows();
        rows.into_iter()
            .map(|row| Clause::Fact(r.name.clone(), row.clone()))
    });
    Ok(declarations.chain(facts).collect())
}

/// One clause of the text format, parsed but not yet applied to any
/// instance. The storage layer's write-ahead log records exactly one
/// clause per frame, so replay is `parse_clause` + apply in log order.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `schema R(T1, …, Tn).` — declare a relation.
    Schema(RelationSchema),
    /// `R(v1, …, vn).` — a fact for relation `R`. Values are *not*
    /// validated against any schema here; the applier checks arity and
    /// types against its current schema.
    Fact(String, Vec<Value>),
    /// `delete R(v1, …, vn).` — retract a fact from relation `R`. Like
    /// [`Clause::Fact`], validation is the applier's job.
    Retract(String, Vec<Value>),
}

/// Parse exactly one clause (a `schema` declaration or a fact). Rejects
/// trailing input — a WAL frame holds one clause and nothing else.
pub fn parse_clause(src: &str, universe: &mut Universe) -> Result<Clause, TextError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        universe,
    };
    let clause = p.clause()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after clause"));
    }
    Ok(clause)
}

impl P<'_, '_> {
    fn clause(&mut self) -> Result<Clause, TextError> {
        let id = self.ident()?;
        if id == "schema" {
            let name = self.ident()?;
            self.eat(b'(')?;
            let mut types = vec![self.ty()?];
            while self.try_eat(b',') {
                types.push(self.ty()?);
            }
            self.eat(b')')?;
            self.eat(b'.')?;
            Ok(Clause::Schema(RelationSchema::new(name, types)))
        } else if id == "delete" {
            let name = self.ident()?;
            let row = self.fact_row()?;
            Ok(Clause::Retract(name, row))
        } else {
            let row = self.fact_row()?;
            Ok(Clause::Fact(id, row))
        }
    }

    fn fact_row(&mut self) -> Result<Vec<Value>, TextError> {
        self.eat(b'(')?;
        let mut row = Vec::new();
        if self.peek() != Some(b')') {
            row.push(self.value()?);
            while self.try_eat(b',') {
                row.push(self.value()?);
            }
        }
        self.eat(b')')?;
        self.eat(b'.')?;
        Ok(row)
    }
}

/// Render one fact clause `R(v1, …, vn).` — the inverse of
/// [`parse_clause`] for [`Clause::Fact`].
pub fn render_fact(universe: &Universe, name: &str, row: &[Value]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{name}(");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_value(universe, v, &mut out);
    }
    out.push_str(").");
    out
}

/// Render one schema declaration `schema R(T1, …, Tn).` — the inverse of
/// [`parse_clause`] for [`Clause::Schema`].
pub fn render_schema_decl(rel: &RelationSchema) -> String {
    let cols: Vec<String> = rel.column_types.iter().map(ToString::to_string).collect();
    format!("schema {}({}).", rel.name, cols.join(", "))
}

/// Render one clause — the inverse of [`parse_clause`].
pub fn render_clause(universe: &Universe, clause: &Clause) -> String {
    match clause {
        Clause::Schema(rel) => render_schema_decl(rel),
        Clause::Fact(name, row) => render_fact(universe, name, row),
        Clause::Retract(name, row) => format!("delete {}", render_fact(universe, name, row)),
    }
}

fn render_value(universe: &Universe, v: &Value, out: &mut String) {
    match v {
        Value::Atom(a) => {
            let _ = write!(out, "'{}'", universe.name(*a));
        }
        Value::Tuple(vs) => {
            out.push('[');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(universe, v, out);
            }
            out.push(']');
        }
        Value::Set(s) => {
            out.push('{');
            for (i, v) in s.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(universe, v, out);
            }
            out.push('}');
        }
    }
}

/// Render a database in the text format (deterministic row order).
pub fn render_database(universe: &Universe, instance: &Instance) -> String {
    let mut out = String::new();
    for rel in instance.schema().relations() {
        let _ = writeln!(out, "{}", render_schema_decl(rel));
    }
    for rel in instance.schema().relations() {
        for row in instance.relation(&rel.name).sorted_rows() {
            let _ = writeln!(out, "{}", render_fact(universe, &rel.name, row));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = "\
        % the paper's Figure 1 instance\n\
        schema P(U, {U}, [U, {U}]).\n\
        P('b', {'a','b'}, ['c', {'a','c'}]).\n\
        P('c', {'c'}, ['a', {'b','c'}]).\n";

    #[test]
    fn figure1_parses() {
        let mut u = Universe::new();
        let (schema, instance) = parse_database(FIGURE1, &mut u).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(instance.cardinality(), 2);
        assert_eq!(instance.atoms().len(), 3);
    }

    #[test]
    fn render_roundtrips() {
        let mut u = Universe::new();
        let (_, instance) = parse_database(FIGURE1, &mut u).unwrap();
        let text = render_database(&u, &instance);
        let mut u2 = Universe::new();
        let (_, back) = parse_database(&text, &mut u2).unwrap();
        // same structure; atom ids may differ, so compare rendered forms
        assert_eq!(render_database(&u2, &back), text);
        assert_eq!(back.cardinality(), instance.cardinality());
    }

    #[test]
    fn type_errors_reported() {
        let mut u = Universe::new();
        let bad = "schema P(U).\nP({'a'}).";
        let e = parse_database(bad, &mut u).unwrap_err();
        assert!(e.message.contains("not of type"), "{e}");
        let bad2 = "schema P(U).\nP('a', 'b').";
        assert!(parse_database(bad2, &mut u)
            .unwrap_err()
            .message
            .contains("arity"));
        let bad3 = "Q('a').";
        assert!(parse_database(bad3, &mut u)
            .unwrap_err()
            .message
            .contains("unknown relation"));
    }

    #[test]
    fn duplicate_schema_rejected() {
        let mut u = Universe::new();
        let bad = "schema P(U).\nschema P(U).";
        assert!(parse_database(bad, &mut u)
            .unwrap_err()
            .message
            .contains("twice"));
    }

    #[test]
    fn empty_sets_and_nullary_rows() {
        let mut u = Universe::new();
        let src = "schema E({U}).\nE({}).";
        let (_, i) = parse_database(src, &mut u).unwrap();
        assert_eq!(i.cardinality(), 1);
        assert!(i.relation("E").contains(&[Value::empty_set()]));
    }

    #[test]
    fn clause_roundtrips() {
        let mut u = Universe::new();
        let rel = RelationSchema::new("P", vec![Type::Atom, Type::set(Type::Atom)]);
        let decl = render_schema_decl(&rel);
        assert_eq!(decl, "schema P(U, {U}).");
        assert_eq!(parse_clause(&decl, &mut u).unwrap(), Clause::Schema(rel));
        let row = vec![
            Value::Atom(u.intern("a")),
            Value::set([Value::Atom(u.intern("b"))]),
        ];
        let fact = render_fact(&u, "P", &row);
        assert_eq!(fact, "P('a', {'b'}).");
        assert_eq!(
            parse_clause(&fact, &mut u).unwrap(),
            Clause::Fact("P".into(), row)
        );
    }

    #[test]
    fn retract_clause_roundtrips() {
        let mut u = Universe::new();
        let row = vec![Value::Atom(u.intern("a")), Value::Atom(u.intern("b"))];
        let clause = render_clause(&u, &Clause::Retract("G".into(), row.clone()));
        assert_eq!(clause, "delete G('a', 'b').");
        assert_eq!(
            parse_clause(&clause, &mut u).unwrap(),
            Clause::Retract("G".into(), row)
        );
    }

    #[test]
    fn clause_rejects_trailing_and_garbage() {
        let mut u = Universe::new();
        assert!(parse_clause("P('a'). P('b').", &mut u).is_err());
        assert!(parse_clause("", &mut u).is_err());
        assert!(parse_clause("schema P(U)", &mut u).is_err());
        assert!(parse_clause("P('a'", &mut u).is_err());
    }

    #[test]
    fn comments_everywhere() {
        let mut u = Universe::new();
        let src = "% header\nschema P(U). % inline\n% between\nP('a'). % end";
        let (_, i) = parse_database(src, &mut u).unwrap();
        assert_eq!(i.cardinality(), 1);
    }
}
