//! Golden snapshot of whole reply lines.
//!
//! The other goldens pin answers and plan renderings; this one pins the
//! bytes a client receives: every `Response::to_json` line for a fixed
//! corpus of requests against `data/graph.no`. It covers every
//! `data/queries.calc` query planned and unplanned, `data/tc.dl` under
//! both strategies, algebra scan, join, `nest` and `unnest`, one
//! `materialize`, and one `update` with its deltas.
//! `spend.elapsed_us` is the only wall-clock field and is zeroed; steps
//! and memory spend stay in the snapshot, except the update's steps,
//! which vary between runs (see below).
//!
//! Refresh after an intentional change to the reply format:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test reply_golden
//! ```

mod common;

use common::check_golden;
use nestdb::object::text::parse_database;
use nestdb::object::Universe;
use nestdb::{Session, Store};
use no_proto::{Lang, Op, Request, Strategy};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, RwLock};

fn data(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn graph_session() -> Session {
    let mut u = Universe::new();
    let (_schema, instance) = parse_database(&data("graph.no"), &mut u).unwrap();
    Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(u, instance))))
        .build()
}

/// Run `req`, zero its wall-clock spend (and its step spend too when
/// `steps_vary`), and append the reply line under a header naming the
/// request.
fn record_with(
    snapshot: &mut String,
    session: &Session,
    label: &str,
    req: &Request,
    steps_vary: bool,
) {
    let mut resp = session.run(req);
    assert!(resp.ok, "{label}: {:?}", resp.error);
    if let Some(spend) = resp.spend.as_mut() {
        spend.elapsed_us = 0;
        if steps_vary {
            spend.steps = 0;
        }
    }
    let _ = writeln!(snapshot, "== {label} ==\n{}", resp.to_json());
}

fn record(snapshot: &mut String, session: &Session, label: &str, req: &Request) {
    record_with(snapshot, session, label, req, false);
}

#[test]
fn reply_lines_match_the_snapshot() {
    let session = graph_session();
    let mut snapshot = String::new();

    for (lineno, line) in data("queries.calc").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        for planned in [true, false] {
            let req = Request {
                planned,
                ..Request::eval(Lang::Calc, line)
            };
            let label = format!("queries.calc:{} planned={planned}", lineno + 1);
            record(&mut snapshot, &session, &label, &req);
        }
    }

    let tc = data("tc.dl");
    for strategy in [Strategy::SemiNaive, Strategy::Stratified] {
        let req = Request {
            strategy,
            planned: true,
            ..Request::eval(Lang::Datalog, tc.as_str())
        };
        record(
            &mut snapshot,
            &session,
            &format!("tc.dl {strategy:?}"),
            &req,
        );
    }

    for expr in [
        "G",
        "select[eq(2,3)]((G x G))",
        "nest[2](G)",
        "unnest[2](nest[2](G))",
    ] {
        let req = Request {
            planned: true,
            ..Request::eval(Lang::Algebra, expr)
        };
        record(&mut snapshot, &session, &format!("algebra {expr}"), &req);
    }

    let materialize = Request {
        op: Op::Materialize,
        lang: Lang::Datalog,
        view: "paths".into(),
        text: tc.clone(),
        ..Request::default()
    };
    record(&mut snapshot, &session, "materialize paths", &materialize);
    let update = Request {
        op: Op::Update,
        text: "G('d', 'e').\ndelete G('d', 'a').".into(),
        ..Request::default()
    };
    // The retraction sends maintenance through DRed's re-derive phase,
    // which stops at an over-deleted fact's first derivation; which one
    // the matcher meets first depends on hash order, so this request's
    // steps vary between runs (202 or 204). Its rows and memory do not.
    record_with(&mut snapshot, &session, "update", &update, true);

    check_golden("replies.golden", &snapshot);
}
