//! Parallel-evaluation guarantees.
//!
//! Two families of tests. First, determinism: every engine, driven through
//! the [`Session`] API at parallelism 1 and 4, must produce *identical*
//! relations — the work-stealing pool changes wall-clock behaviour, never
//! answers. Second, the shared governor under concurrency: step fuel is
//! conserved across workers, an injected fault fires exactly once no
//! matter how many threads are hammering the governor, and cancellation is
//! observed by every worker.

mod common;

use common::*;
use nestdb::object::{BudgetKind, Governor, Instance, Limits, Universe};
use nestdb::proto::{Lang, Mode, Request, Strategy};
use nestdb::{Session, Store};
use std::sync::{Arc, RwLock};

const TC_CALC: &str =
    "{[u:U, v:U] | ifp(S; x:U, y:U | G(x, y) \\/ exists z:U (S(x, z) /\\ G(z, y)))(u, v)}";
const TC_DATALOG: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

/// Edge lists exercising distinct shapes (mirrors the differential suite).
fn graphs() -> Vec<Vec<(usize, usize)>> {
    vec![
        vec![(0, 1), (1, 2), (2, 3)],
        vec![(0, 1), (1, 2), (2, 0)],
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        vec![(0, 0), (1, 1), (0, 1)],
        vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 0)],
    ]
}

fn session(threads: usize, limits: Limits, u: &Universe, i: &Instance) -> Session {
    Session::builder()
        .parallelism(threads)
        .limits(limits)
        .store(Arc::new(RwLock::new(Store::with_data(
            u.clone(),
            i.clone(),
        ))))
        .build()
}

/// Every engine on both plans: CALC+IFP under both semantics, both
/// Datalog¬ strategies, and algebra texts covering the parallelised
/// operators and their neighbours.
fn requests() -> Vec<Request> {
    let algebra = [
        "G",
        "select[not(eq(1, 2))](G)",
        "project[2, 1](G)",
        "(project[1](G) x project[2](G))",
        "(G - project[2, 1](G))",
        "unnest[2](nest[2](G))",
        "powerset(project[1](G))",
    ];
    let mut reqs = Vec::new();
    for planned in [false, true] {
        let mut add = |req: Request| reqs.push(Request { planned, ..req });
        for mode in [Mode::Fast, Mode::Safe] {
            add(Request {
                mode,
                ..Request::eval(Lang::Calc, TC_CALC)
            });
        }
        for strategy in [Strategy::SemiNaive, Strategy::Stratified] {
            add(Request {
                strategy,
                ..Request::eval(Lang::Datalog, TC_DATALOG)
            });
        }
        for text in algebra {
            add(Request::eval(Lang::Algebra, text));
        }
    }
    reqs
}

/// The reply without its spend, which is all that may depend on timing.
fn answer(s: &Session, req: &Request) -> String {
    let mut resp = s.run(req);
    assert!(resp.ok, "{req:?}: {:?}", resp.error);
    resp.spend = None;
    resp.to_json()
}

#[test]
fn every_engine_agrees_across_parallelism_levels() {
    for edges in graphs() {
        let (u, _order, inst) = graph_instance(5, &edges);
        let base = session(1, Limits::unlimited(), &u, &inst);
        let want: Vec<String> = requests().iter().map(|r| answer(&base, r)).collect();
        for threads in [2, 4] {
            let s = session(threads, Limits::unlimited(), &u, &inst);
            for (req, want) in requests().iter().zip(&want) {
                assert_eq!(&answer(&s, req), want, "{req:?} @{threads}");
            }
        }
    }
}

#[test]
fn step_fuel_is_conserved_across_workers() {
    let g = Governor::new(Limits::unlimited());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let g = g.clone();
            scope.spawn(move || {
                for _ in 0..1000 {
                    g.tick("parallel.test").unwrap();
                }
            });
        }
    });
    assert_eq!(g.steps_spent(), 4000);
}

#[test]
fn injected_fault_fires_exactly_once_across_workers() {
    // Four workers hammer the same governor; the armed countdown must
    // produce exactly one structured error in total — the nth check
    // fails for exactly one observer, not once per thread.
    let g = Governor::new(Limits::unlimited());
    g.trip_after(500, BudgetKind::Memory);
    let mut trips = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..1000 {
                        if let Err(e) = g.tick("parallel.test") {
                            assert_eq!(e.budget, BudgetKind::Memory);
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            trips += h.join().unwrap();
        }
    });
    assert_eq!(trips, 1, "fault must fire exactly once");
}

#[test]
fn cancellation_is_observed_by_every_worker() {
    let g = Governor::new(Limits::unlimited());
    g.cancel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                scope.spawn(move || match g.tick("parallel.test") {
                    Err(e) => e.budget == BudgetKind::Cancelled,
                    Ok(()) => false,
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "worker missed the cancellation");
        }
    });
}

#[test]
fn resource_trips_are_structured_at_every_parallelism() {
    // A starvation budget trips at parallelism 1 and 4 alike — possibly at
    // a different site/row, but always as a structured resource error.
    let (u, _order, inst) = graph_instance(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let starved = Limits {
        max_steps: 25,
        ..Limits::unlimited()
    };
    for threads in [1, 4] {
        let s = session(threads, starved.clone(), &u, &inst);
        for planned in [false, true] {
            let r = s.run(&Request {
                strategy: Strategy::SemiNaive,
                planned,
                ..Request::eval(Lang::Datalog, TC_DATALOG)
            });
            let err = r.error.expect("a 25-step budget cannot close a 5-cycle");
            assert!(err.resource_trip, "@{threads}: {}", err.message);
            assert_eq!(err.kind, "resource");
            assert!(err.message.contains("step fuel"), "{}", err.message);
        }
    }
}

#[test]
fn session_reads_thread_count_from_environment() {
    // Builder default comes from NESTDB_THREADS; explicit parallelism wins.
    std::env::set_var(nestdb::session::THREADS_ENV, "3");
    assert_eq!(Session::builder().build().parallelism(), 3);
    assert_eq!(Session::builder().parallelism(2).build().parallelism(), 2);
    std::env::set_var(nestdb::session::THREADS_ENV, "not-a-number");
    assert_eq!(Session::builder().build().parallelism(), 1);
    std::env::remove_var(nestdb::session::THREADS_ENV);
    assert_eq!(Session::builder().build().parallelism(), 1);
}
