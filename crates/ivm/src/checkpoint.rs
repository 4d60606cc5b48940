//! View checkpoints: a text serialization of a [`ViewRegistry`] that
//! rides inside the storage layer's `views.bin` envelope
//! (`no_storage::Db::save_views` / `load_views`).
//!
//! The envelope stamps the body with the `(epoch, wal_frames)` position
//! it was taken at; this module only encodes the body. Facts are
//! rendered with the same text syntax as the WAL (`render_fact` /
//! `parse_clause`), so atom identity survives universe renumbering
//! across restarts. Counting strata persist their per-fact derivation
//! counts; DRed strata persist the bare sets.
//!
//! Format (line-oriented, versioned):
//!
//! ```text
//! ivm-views v1
//! view <name>
//! source <n-lines>
//! <the view's Datalog¬ source, verbatim>
//! rel <relname> <counting|set>
//! <count> <fact clause>
//! endrel
//! endview
//! ```

use crate::engine::{MaintainedView, ViewRegistry, ViewStats};
use crate::error::IvmError;
use no_datalog::parse_program;
use no_object::text::{parse_clause, render_fact, Clause};
use no_object::{Relation, Schema, Universe, Value};
use no_plan::plan_maintenance;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const MAGIC: &str = "ivm-views v1";

/// Serialize the registry body for [`no_storage::Db::save_views`].
pub fn encode_registry(reg: &ViewRegistry, universe: &Universe) -> Vec<u8> {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    for view in reg.views.values() {
        let _ = writeln!(out, "view {}", view.name);
        let src_lines: Vec<&str> = view.source.lines().collect();
        let _ = writeln!(out, "source {}", src_lines.len());
        for line in &src_lines {
            let _ = writeln!(out, "{line}");
        }
        for (rel, rows) in &view.state {
            let counting = view.counts.contains_key(rel);
            let _ = writeln!(
                out,
                "rel {rel} {}",
                if counting { "counting" } else { "set" }
            );
            for row in rows.sorted_rows() {
                let count = if counting {
                    view.counts[rel].get(row.as_slice()).copied().unwrap_or(0)
                } else {
                    0
                };
                let _ = writeln!(out, "{count} {}", render_fact(universe, rel, row));
            }
            let _ = writeln!(out, "endrel");
        }
        let _ = writeln!(out, "endview");
    }
    out.into_bytes()
}

/// Rebuild a registry from a checkpoint body. `schema` is the base
/// schema the views were defined against (programs re-validate and
/// re-plan against it); `universe` re-interns atom names.
pub fn decode_registry(
    bytes: &[u8],
    universe: &mut Universe,
    schema: &Schema,
) -> Result<ViewRegistry, IvmError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| IvmError::Checkpoint("body is not UTF-8".to_string()))?;
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(IvmError::Checkpoint(format!(
            "bad magic (expected {MAGIC:?})"
        )));
    }
    let mut reg = ViewRegistry::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let name = line
            .strip_prefix("view ")
            .ok_or_else(|| IvmError::Checkpoint(format!("expected `view`, got {line:?}")))?
            .to_string();
        let src_hdr = lines
            .next()
            .and_then(|l| l.strip_prefix("source "))
            .ok_or_else(|| IvmError::Checkpoint("missing `source` header".to_string()))?;
        let n: usize = src_hdr
            .parse()
            .map_err(|_| IvmError::Checkpoint(format!("bad source line count {src_hdr:?}")))?;
        let mut source = String::new();
        for _ in 0..n {
            let l = lines
                .next()
                .ok_or_else(|| IvmError::Checkpoint("truncated source".to_string()))?;
            source.push_str(l);
            source.push('\n');
        }
        let program = parse_program(&source, universe)
            .map_err(|e| IvmError::Checkpoint(format!("view {name}: {e}")))?;
        let plan = plan_maintenance(schema, &program).map_err(IvmError::Plan)?;
        let mut state: BTreeMap<String, Relation> = BTreeMap::new();
        let mut counts: BTreeMap<String, BTreeMap<Vec<Value>, u64>> = BTreeMap::new();
        loop {
            let line = lines
                .next()
                .ok_or_else(|| IvmError::Checkpoint("truncated view".to_string()))?;
            if line == "endview" {
                break;
            }
            let rest = line
                .strip_prefix("rel ")
                .ok_or_else(|| IvmError::Checkpoint(format!("expected `rel`, got {line:?}")))?;
            let (rel, kind) = rest
                .rsplit_once(' ')
                .ok_or_else(|| IvmError::Checkpoint(format!("bad rel header {rest:?}")))?;
            let counting = match kind {
                "counting" => true,
                "set" => false,
                other => return Err(IvmError::Checkpoint(format!("bad rel kind {other:?}"))),
            };
            let mut rows = Relation::new();
            let mut row_counts: BTreeMap<Vec<Value>, u64> = BTreeMap::new();
            loop {
                let line = lines
                    .next()
                    .ok_or_else(|| IvmError::Checkpoint("truncated relation".to_string()))?;
                if line == "endrel" {
                    break;
                }
                let (count_s, fact_s) = line
                    .split_once(' ')
                    .ok_or_else(|| IvmError::Checkpoint(format!("bad fact line {line:?}")))?;
                let count: u64 = count_s
                    .parse()
                    .map_err(|_| IvmError::Checkpoint(format!("bad count {count_s:?}")))?;
                let clause = parse_clause(fact_s, universe)
                    .map_err(|e| IvmError::Checkpoint(format!("{rel}: {e}")))?;
                let Clause::Fact(fname, row) = clause else {
                    return Err(IvmError::Checkpoint(format!(
                        "expected a fact clause in {rel}"
                    )));
                };
                if fname != rel {
                    return Err(IvmError::Checkpoint(format!(
                        "fact for {fname:?} inside relation {rel:?}"
                    )));
                }
                if counting {
                    row_counts.insert(row.clone(), count);
                }
                rows.insert(row);
            }
            state.insert(rel.to_string(), rows);
            if counting {
                counts.insert(rel.to_string(), row_counts);
            }
        }
        // relations the program declares but the checkpoint omitted
        // (empty at save time) come back empty
        for rel in program.idb.keys() {
            state.entry(rel.clone()).or_default();
        }
        let view = MaintainedView {
            name: name.clone(),
            source,
            program,
            plan,
            state,
            counts,
            stats: ViewStats::default(),
        };
        reg.views.insert(name, view);
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_object::{Governor, Instance, RelationSchema, Type, Value};

    fn setup() -> (Universe, Instance) {
        let mut u = Universe::new();
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut inst = Instance::empty(schema);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            let row = vec![Value::Atom(u.intern(a)), Value::Atom(u.intern(b))];
            inst.insert("G", row);
        }
        (u, inst)
    }

    const TC_SRC: &str = "rel tc(U, U).\n\
        tc(x, y) :- G(x, y).\n\
        tc(x, y) :- tc(x, z), G(z, y).\n";

    const HOP_SRC: &str = "rel hop(U, U).\nhop(x, z) :- G(x, y), G(y, z).\n";

    #[test]
    fn round_trips_sets_and_counts() {
        let (mut u, inst) = setup();
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("paths", TC_SRC, &mut u, &inst, &gov)
            .unwrap();
        reg.materialize("hops", HOP_SRC, &mut u, &inst, &gov)
            .unwrap();
        let body = encode_registry(&reg, &u);

        // decode into a FRESH universe: atom ids may differ, names decide
        let mut u2 = Universe::new();
        // rebuild the instance in the fresh universe so values compare
        let schema = inst.schema().clone();
        let mut inst2 = Instance::empty(schema.clone());
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            let row = vec![Value::Atom(u2.intern(a)), Value::Atom(u2.intern(b))];
            inst2.insert("G", row);
        }
        let reg2 = decode_registry(&body, &mut u2, &schema).unwrap();
        assert_eq!(reg2.len(), 2);
        // the restored states equal a fresh materialization
        let mut fresh = ViewRegistry::new();
        fresh
            .materialize("paths", TC_SRC, &mut u2, &inst2, &gov)
            .unwrap();
        fresh
            .materialize("hops", HOP_SRC, &mut u2, &inst2, &gov)
            .unwrap();
        for name in ["paths", "hops"] {
            let a = reg2.get(name).unwrap();
            let b = fresh.get(name).unwrap();
            for (rel, rows) in a.relations() {
                assert_eq!(Some(rows), b.relation(rel), "{name}.{rel}");
            }
            assert_eq!(a.counts, b.counts, "{name} counts");
        }
    }

    #[test]
    fn corrupt_bodies_are_rejected_not_misread() {
        let (mut u, inst) = setup();
        let gov = Governor::unlimited();
        let mut reg = ViewRegistry::new();
        reg.materialize("hops", HOP_SRC, &mut u, &inst, &gov)
            .unwrap();
        let body = encode_registry(&reg, &u);
        let schema = inst.schema().clone();

        // truncation anywhere inside the body fails cleanly
        let mut u2 = Universe::new();
        assert!(matches!(
            decode_registry(&body[..body.len() / 2], &mut u2, &schema),
            Err(IvmError::Checkpoint(_))
        ));
        // bad magic
        assert!(matches!(
            decode_registry(b"not a checkpoint", &mut u2, &schema),
            Err(IvmError::Checkpoint(_))
        ));
    }
}
