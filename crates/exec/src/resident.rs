//! What executions against one version of an instance share.
//!
//! A [`Resident`] holds one [`Interner`], the canonical [`ColumnTable`]
//! of every relation scanned so far, and the row set ([`IdRelation`]) of
//! every relation the Datalog round engine has read. It lives in the
//! instance's derived memo ([`Instance::derived`]), so every read of one
//! version finds the same arena and tables, and the next write drops all
//! of it: the first read after it interns the relation afresh.
//!
//! Ids are therefore admission order *within one version*: which relation
//! was scanned first, and which constants executions admitted. Answers
//! leave as ids over this arena (an [`crate::Answer`] keeps a handle on
//! it, so a write cannot free ids a reply still renders), but raw id
//! order never escapes: replies rank and render rows in value order.

use crate::table::ColumnTable;
use conc::Mutex;
use no_object::{IdRelation, Instance, Interner, RelationSchema};
use std::collections::HashMap;
use std::sync::Arc;

/// One arena, and the scan tables and row sets of one instance version.
pub struct Resident {
    int: Interner,
    scans: Mutex<HashMap<String, Arc<ColumnTable>>>,
    rows: Mutex<HashMap<String, Arc<IdRelation>>>,
}

impl Resident {
    /// The resident state of `instance`'s current version, created on
    /// the first call after a write.
    pub fn of(instance: &Instance) -> Arc<Resident> {
        instance.derived(|| Resident {
            int: Interner::new(),
            scans: Mutex::new_named("exec.scans", HashMap::new()),
            rows: Mutex::new_named("exec.rows", HashMap::new()),
        })
    }

    /// The arena every table of this version is interned in.
    pub fn interner(&self) -> &Interner {
        &self.int
    }

    /// The canonical table of relation `rel`, interned on the first call
    /// for this version. `instance` must be the one this state was taken
    /// from. Concurrent first calls build once: the table is built under
    /// the scan lock.
    pub fn scan(&self, instance: &Instance, rel: &str) -> Arc<ColumnTable> {
        memo(&self.scans, rel, || {
            let arity = instance.schema().get(rel).map_or(0, RelationSchema::arity);
            let mut t = ColumnTable::empty(arity);
            for row in instance.relation(rel).iter() {
                t.push_row(&self.int.intern_row(row));
            }
            t.canonicalize();
            t
        })
    }

    /// Relation `rel` as a row set, the form the Datalog round engine
    /// probes, interned on the first call for this version as
    /// [`Resident::scan`] interns its table (under the rows lock).
    pub fn rows(&self, instance: &Instance, rel: &str) -> Arc<IdRelation> {
        memo(&self.rows, rel, || {
            IdRelation::from_relation(&self.int, instance.relation(rel))
        })
    }
}

/// `rel`'s entry in `memo`, built under the memo's lock on the first call.
fn memo<T>(memo: &Mutex<HashMap<String, Arc<T>>>, rel: &str, build: impl FnOnce() -> T) -> Arc<T> {
    let mut memo = memo.lock();
    if let Some(t) = memo.get(rel) {
        return Arc::clone(t);
    }
    let t = Arc::new(build());
    memo.insert(rel.to_string(), Arc::clone(&t));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{execute, ExecOp, ExecPlan};
    use crate::pred::RowPred;
    use no_object::{Atom, Governor, Relation, Schema, Type, Value};

    fn atom(a: u32) -> Value {
        Value::Atom(Atom(a))
    }

    fn graph(edges: &[(u32, u32)]) -> Instance {
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        for &(a, b) in edges {
            i.insert("G", vec![atom(a), atom(b)]);
        }
        i
    }

    /// `σ[pred](G)`.
    fn select_g(pred: RowPred) -> ExecPlan {
        let mut p = ExecPlan::new();
        let g = p.push(ExecOp::Scan { rel: "G".into() });
        p.push(ExecOp::Select { input: g, pred });
        p
    }

    /// The relation a plan answers and the steps it spent.
    fn run(plan: &ExecPlan, i: &Instance) -> (Relation, u64) {
        let gov = Governor::unlimited();
        let rel = execute(plan, i, &gov).expect("unlimited");
        (rel.to_relation(), gov.steps_spent())
    }

    #[test]
    fn scans_are_built_once_per_version() {
        let mut i = graph(&[(0, 1), (1, 2)]);
        let plan = select_g(RowPred::EqConst(0, atom(0)));
        let cold = run(&plan, &i);
        let table = Resident::of(&i).scan(&i, "G");
        assert_eq!(run(&plan, &i), cold, "warm answers and spends as cold");
        assert!(Arc::ptr_eq(&table, &Resident::of(&i).scan(&i, "G")));
        // a write drops the version's tables; the next scan sees it
        i.insert("G", vec![atom(0), atom(2)]);
        assert!(!Arc::ptr_eq(&table, &Resident::of(&i).scan(&i, "G")));
        assert_eq!(run(&plan, &i).0.len(), 2);
    }

    #[test]
    fn an_absent_constant_admits_nothing_and_matches_no_row() {
        let i = graph(&[(0, 1), (1, 2)]);
        run(&select_g(RowPred::EqCols(0, 0)), &i);
        let int = Resident::of(&i).interner().clone();
        let arena = (int.len(), int.bytes());
        let absent = RowPred::EqConst(0, atom(99));
        assert!(run(&select_g(absent.clone()), &i).0.is_empty());
        let everything = select_g(RowPred::Not(Box::new(absent)));
        assert_eq!(run(&everything, &i).0.len(), 2);
        assert_eq!((int.len(), int.bytes()), arena);
    }

    #[test]
    fn const_rows_are_charged_their_arena_growth() {
        let i = graph(&[(0, 1)]);
        let mut plan = ExecPlan::new();
        plan.push(ExecOp::Const {
            arity: 2,
            rows: vec![
                vec![atom(0), atom(7)],
                vec![atom(8), Value::set([atom(1), atom(9)])],
            ],
        });
        let int = Resident::of(&i).interner().clone();
        let mem = || {
            let gov = Governor::unlimited();
            execute(&plan, &i, &gov).expect("unlimited");
            gov.mem_spent()
        };
        let before = int.bytes();
        let first = mem();
        let growth = int.bytes() - before;
        assert!(growth > 0, "the rows were new to the arena");
        assert_eq!(first - mem(), growth, "only the admitting run pays");
    }
}
