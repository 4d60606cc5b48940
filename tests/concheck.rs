//! The concurrency-sanitizer scenario corpus.
//!
//! Each test closes over one concurrent interaction of the runtime
//! substrate (the interner, the governor's fault/counter machinery, the
//! server's admission buckets, subscription fan-out and cancel tokens)
//! and drives it through `conc::sched::explore`: every
//! instrumented lock/atomic operation becomes a scheduling point, and
//! the invariants in the closure are asserted on *every* explored
//! interleaving. A failure prints a `CC00x` diagnostic plus a replay
//! line (`seed 0x…` or `script […]`) that reproduces the exact schedule.
//!
//! Run with:
//!
//! ```text
//! cargo test --features concheck --test concheck -- --test-threads=1
//! ```
//!
//! CI additionally sets `CONCHECK_EXTRA_SEEDS` (count) and
//! `CONCHECK_EXTRA_SEED_BASE` (derivation base, e.g. the run id) so
//! every build explores schedules nobody has seen before; see
//! DESIGN.md §16 for the replay workflow.

#![cfg(feature = "concheck")]

use conc::lockdep;
use conc::sched::{self, ExploreOpts, Replay};
use no_exec::Resident;
use no_object::atom::Atom;
use no_object::governor::{BudgetKind, Governor};
use no_object::intern::Interner;
use no_object::{Instance, RelationSchema, Schema, Type, Value};
use no_server::admission::TokenBuckets;
use no_server::concheck::{set_planted_abba, Fanout};
use no_server::CancelToken;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

/// Scenario state is global (one scheduler, one lockdep graph), so the
/// corpus must not interleave even when libtest runs threads in
/// parallel. Every test body runs under this guard; CI passes
/// `--test-threads=1` as well, which makes the order deterministic.
static SERIAL: StdMutex<()> = StdMutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Random seeds for a scenario: a fixed reviewed base (so the corpus is
/// reproducible) plus whatever fresh seeds CI requested via the
/// environment.
fn seeds(name: &'static str, n: usize, base: u64) -> ExploreOpts {
    let mut opts = ExploreOpts::random(name, n, base);
    opts.seeds.extend(sched::env_seeds());
    opts
}

// ---------------------------------------------------------------------------
// CancelToken: exactly-once hooks
// ---------------------------------------------------------------------------

/// One thread fires the token twice while another registers a hook: no
/// interleaving may run the hook zero times or twice. This is the
/// double-fire race the `fired`-flag rewrite closed — the old code ran
/// every registered hook on *every* `cancel()` call and re-ran
/// `hooks.last()` from `on_cancel`.
#[test]
fn cancel_token_hook_fires_exactly_once() {
    let _g = serial();
    let scenario = || {
        let token = CancelToken::new();
        let fired = std::sync::Arc::new(conc::AtomicUsize::new(0));
        conc::thread::scope(|s| {
            let t1 = token.clone();
            conc::thread::spawn_scoped(s, move || {
                t1.cancel();
                t1.cancel(); // idempotent: a second fire runs nothing
            });
            let t2 = token.clone();
            let fired = std::sync::Arc::clone(&fired);
            conc::thread::spawn_scoped(s, move || {
                t2.on_cancel(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                });
            });
            conc::thread::await_children();
        });
        assert!(token.is_cancelled());
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "hook must run exactly once on every schedule"
        );
    };
    let mut opts = ExploreOpts::exhaustive("cancel-token-exactly-once", 3);
    opts.max_schedules = 2000;
    sched::explore(opts, scenario).assert_ok();
    sched::explore(
        seeds("cancel-token-exactly-once", 24, 0xCA9C_E701),
        scenario,
    )
    .assert_ok();
}

// ---------------------------------------------------------------------------
// Interner: colliding concurrent interns
// ---------------------------------------------------------------------------

/// Two threads intern the *same* tuple concurrently: they must agree on
/// the id, and the arena must charge the growth exactly once (a
/// hash-consing hit reports 0 bytes) no matter how the shard-writer
/// lock and the segment/len publications interleave.
#[test]
fn colliding_interns_agree_and_charge_growth_once() {
    let _g = serial();
    // Reference growth, measured outside any exploration.
    let expected = {
        let it = Interner::new();
        let a = it.intern_atom(Atom(1));
        let b = it.intern_atom(Atom(2));
        it.intern_tuple_with_growth(vec![a, b]).1
    };
    assert!(expected > 0, "a fresh tuple must grow the arena");
    let scenario = move || {
        let it = Interner::new();
        let a = it.intern_atom(Atom(1));
        let b = it.intern_atom(Atom(2));
        let bytes_before = it.bytes();
        let out: conc::Mutex<Vec<(no_object::intern::ValueId, u64)>> = conc::Mutex::new(Vec::new());
        conc::thread::scope(|s| {
            for _ in 0..2 {
                let it = &it;
                let out = &out;
                conc::thread::spawn_scoped(s, move || {
                    let r = it.intern_tuple_with_growth(vec![a, b]);
                    out.lock().push(r);
                });
            }
            conc::thread::await_children();
        });
        let results = out.into_inner();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].0, results[1].0,
            "racing interns of one value must agree on the id"
        );
        assert_eq!(
            results[0].1 + results[1].1,
            expected,
            "growth must be charged exactly once across the race"
        );
        assert_eq!(it.bytes(), bytes_before + expected);
        assert_eq!(it.resolve(results[0].0), it.resolve(results[1].0));
    };
    let mut opts = ExploreOpts::exhaustive("intern-collision", 1);
    opts.max_schedules = 600;
    sched::explore(opts, scenario).assert_ok();
    sched::explore(seeds("intern-collision", 32, 0x1279_EA11), scenario).assert_ok();
}

// ---------------------------------------------------------------------------
// Resident reads: two readers race one relation's first scan or row set
// ---------------------------------------------------------------------------

/// Two readers race the first read of one relation on one instance
/// version: both get what one build made, each atom is admitted to the
/// version's arena once, and the memo (`instance.derived`), resident
/// (`exec.scans`, `exec.rows`) and interner-shard (`intern.shard_writer`)
/// classes form no lock-order cycle. A build holds its resident lock
/// while it interns; nothing takes a resident lock or `instance.derived`
/// under a shard lock. Run once for the executor's scan tables and once
/// for the round engine's row sets.
#[test]
fn racing_first_scans_share_one_build() {
    let _g = serial();
    race_first_read("resident-first-scan", 0x5CA7_0001, |r, i| {
        let t = r.scan(i, "G");
        (t.len(), Arc::as_ptr(&t) as usize)
    });
    race_first_read("resident-first-rows", 0x5CA7_0002, |r, i| {
        let t = r.rows(i, "G");
        (t.len(), Arc::as_ptr(&t) as usize)
    });
}

/// `read` returns the rows it saw and the address of the build it got
/// (which the version's memo keeps alive).
fn race_first_read(
    name: &'static str,
    seed: u64,
    read: fn(&Resident, &Instance) -> (usize, usize),
) {
    let scenario = || {
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut instance = Instance::empty(schema);
        for (a, b) in [(0, 1), (1, 2)] {
            instance.insert("G", vec![Value::Atom(Atom(a)), Value::Atom(Atom(b))]);
        }
        let builds: conc::Mutex<Vec<(usize, usize)>> = conc::Mutex::new(Vec::new());
        conc::thread::scope(|s| {
            for _ in 0..2 {
                let instance = &instance;
                let builds = &builds;
                conc::thread::spawn_scoped(s, move || {
                    let build = read(&Resident::of(instance), instance);
                    builds.lock().push(build);
                });
            }
            conc::thread::await_children();
        });
        let builds = builds.into_inner();
        assert_eq!(
            builds[0].1, builds[1].1,
            "both readers must get the one build"
        );
        assert_eq!(builds[0].0, 2);
        assert_eq!(
            Resident::of(&instance).interner().len(),
            3,
            "each atom is admitted once"
        );
    };
    let mut opts = ExploreOpts::exhaustive(name, 1);
    opts.max_schedules = 600;
    let exhaustive = sched::explore(opts, scenario);
    let cycles = lockdep::cycles_in(&exhaustive.new_edges);
    assert!(cycles.is_empty(), "{cycles:?}");
    exhaustive.assert_ok();
    sched::explore(seeds(name, 32, seed), scenario).assert_ok();
    let classes = [
        "instance.derived",
        "exec.scans",
        "exec.rows",
        "intern.shard_writer",
    ];
    let cycles = lockdep::cycles();
    assert!(
        !cycles
            .iter()
            .any(|d| classes.iter().any(|c| d.message.contains(c))),
        "{cycles:?}"
    );
}

// ---------------------------------------------------------------------------
// Governor: trip_after racing workers
// ---------------------------------------------------------------------------

/// `trip_after(3)` armed while four workers each spend one tick: on
/// every interleaving of the countdown's atomics exactly one worker
/// observes the fault, and the erroring tick adds no steps — fuel
/// conservation holds (3 successful ticks ⇒ 3 steps spent).
#[test]
fn governor_fault_trips_exactly_once_across_racing_workers() {
    let _g = serial();
    let scenario = || {
        let g = Governor::unlimited();
        g.trip_after(3, BudgetKind::Memory);
        let errs = conc::AtomicUsize::new(0);
        conc::thread::scope(|s| {
            for _ in 0..4 {
                let g = &g;
                let errs = &errs;
                conc::thread::spawn_scoped(s, move || {
                    if let Err(e) = g.tick("concheck.worker") {
                        assert_eq!(e.budget, BudgetKind::Memory);
                        errs.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            conc::thread::await_children();
        });
        assert_eq!(
            errs.load(Ordering::SeqCst),
            1,
            "the armed fault must fire for exactly one worker"
        );
        assert_eq!(g.steps_spent(), 3, "an erroring tick must not consume fuel");
    };
    let mut opts = ExploreOpts::exhaustive("governor-trip-race", 2);
    opts.max_schedules = 1500;
    sched::explore(opts, scenario).assert_ok();
    sched::explore(seeds("governor-trip-race", 32, 0x90BE_4704), scenario).assert_ok();
}

// ---------------------------------------------------------------------------
// The planted bug: an ABBA on the subscription table and a writer
// ---------------------------------------------------------------------------

/// Connection 1 publishes a delta of view `v` to connection 2 while
/// connection 2 subscribes to view `u`: on every schedule the push
/// reaches connection 2 exactly once, and both subscriptions stand.
fn fanout_scenario() {
    let fan = Fanout::default();
    let (w1, w2) = (Fanout::connection(), Fanout::connection());
    fan.subscribe("v", 1, &w1);
    fan.subscribe("v", 2, &w2);
    conc::thread::scope(|s| {
        let fan = &fan;
        let w2 = &w2;
        conc::thread::spawn_scoped(s, move || fan.publish("v", 1));
        conc::thread::spawn_scoped(s, move || fan.subscribe("u", 2, w2));
        conc::thread::await_children();
    });
    assert!(
        w1.lock().is_empty(),
        "the publisher gets no push of its own delta"
    );
    let pushed = String::from_utf8(w2.lock().clone()).expect("utf-8 lines");
    assert_eq!(pushed.lines().count(), 1, "one push line: {pushed:?}");
    assert!(pushed.contains("\"view\":\"v\""), "{pushed}");
}

/// Validation that the sanitizer actually catches what it claims to:
/// behind `set_planted_abba(true)` the server subscribes while holding
/// the subscriber's `server.conn_writer` and publishes while holding
/// `server.subscriptions` — an ABBA the shipped code avoids by never
/// holding the two at once. BOTH analyses must convict it: lockdep with
/// a `CC001` cycle through the two classes carrying both witnesses, and
/// the model checker with a `CC002` deadlocking schedule that replays
/// from its printed seed. With the switch off, the same exploration
/// must be clean and contribute no cycle.
#[test]
fn planted_abba_fanout_is_caught_by_both_analyses() {
    let _g = serial();
    let scenario = fanout_scenario;

    set_planted_abba(true);
    let mut opts = seeds("fanout-abba-planted", 64, 0xABBA_0001);
    opts.preemption_bound = Some(2);
    opts.max_schedules = 1500;
    let res = sched::explore(opts, scenario);
    set_planted_abba(false);

    // Analysis 1: the model checker found an actual deadlock.
    let deadlocks: Vec<_> = res
        .failures
        .iter()
        .filter(|f| f.diag.code == "CC002")
        .collect();
    assert!(
        !deadlocks.is_empty(),
        "planted ABBA must deadlock on some schedule; failures: {:?}",
        res.failures
    );

    // ... and the failure is reproducible from its printed seed.
    let seed = deadlocks
        .iter()
        .find_map(|f| match f.replay {
            Replay::Seed(seed) => Some(seed),
            _ => None,
        })
        .expect("random exploration reports seed replays");
    set_planted_abba(true);
    let replayed = sched::explore(ExploreOpts::replay("fanout-abba-replay", seed), scenario);
    set_planted_abba(false);
    assert!(
        replayed.failures.iter().any(|f| f.diag.code == "CC002"),
        "seed {seed:#x} must reproduce the deadlock"
    );

    // Analysis 2: lockdep convicts the ordering statically — a
    // server.subscriptions ⇄ server.conn_writer cycle with both
    // acquisitions on record — even on schedules that did not deadlock.
    let cycles = lockdep::cycles_in(&res.new_edges);
    let cc001 = cycles
        .iter()
        .find(|d| {
            d.code == "CC001"
                && d.message.contains("server.subscriptions")
                && d.message.contains("server.conn_writer")
        })
        .unwrap_or_else(|| panic!("expected a CC001 cycle on the fan-out locks, got {cycles:?}"));
    assert!(
        cc001.witnesses.len() >= 2,
        "the cycle must carry a witness for each direction: {:?}",
        cc001.witnesses
    );

    // Scrub the planted edges so later corpus tests (and the final graph
    // dump) see only the shipped code's ordering.
    lockdep::reset();

    // Shipped order: the identical exploration is clean and adds no cycle.
    let mut opts = seeds("fanout-abba-shipped", 64, 0xABBA_0002);
    opts.preemption_bound = Some(2);
    opts.max_schedules = 1500;
    let shipped = sched::explore(opts, scenario);
    shipped.assert_ok();
    assert!(
        lockdep::cycles_in(&shipped.new_edges).is_empty(),
        "the shipped fan-out must contribute zero cycles"
    );
}

// ---------------------------------------------------------------------------
// Server admission: two clients racing one tenant bucket
// ---------------------------------------------------------------------------

/// Two requests race one tenant's bucket (capacity 1, zero refill so
/// the table never reads the clock): admission never over-rejects, and
/// the per-tenant counters conserve — every request is counted exactly
/// once as admitted or rejected, and spend equals what the admitted
/// requests settled.
#[test]
fn token_bucket_race_conserves_counters() {
    let _g = serial();
    let both_admitted = StdAtomicUsize::new(0);
    let one_rejected = StdAtomicUsize::new(0);
    let scenario = || {
        let buckets = TokenBuckets::new(1, 0);
        let admitted = conc::AtomicUsize::new(0);
        let rejected = conc::AtomicUsize::new(0);
        conc::thread::scope(|s| {
            for _ in 0..2 {
                let buckets = &buckets;
                let admitted = &admitted;
                let rejected = &rejected;
                conc::thread::spawn_scoped(s, move || match buckets.admit("acme") {
                    Ok(()) => {
                        admitted.fetch_add(1, Ordering::SeqCst);
                        buckets.settle("acme", 2, false);
                    }
                    Err(retry_ms) => {
                        assert_eq!(retry_ms, 60_000, "zero-rate rejections use fixed backoff");
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            conc::thread::await_children();
        });
        let a = admitted.load(Ordering::SeqCst);
        let r = rejected.load(Ordering::SeqCst);
        assert_eq!(a + r, 2, "every request is admitted or rejected");
        assert!(
            r <= 1,
            "capacity 1 with deferred settlement rejects at most one"
        );
        let snap = buckets.snapshot();
        let t = snap
            .iter()
            .find(|t| t.tenant == "acme")
            .expect("tenant exists");
        assert_eq!(t.requests, a as u64);
        assert_eq!(t.rejected, r as u64);
        assert_eq!(
            t.spent_steps,
            2 * a as u64,
            "spend equals settled admissions"
        );
        match r {
            0 => both_admitted.fetch_add(1, Ordering::SeqCst),
            _ => one_rejected.fetch_add(1, Ordering::SeqCst),
        };
    };
    let mut opts = ExploreOpts::exhaustive("token-bucket-race", 2);
    opts.max_schedules = 1500;
    sched::explore(opts, scenario).assert_ok();
    sched::explore(seeds("token-bucket-race", 32, 0xB0C4_E701), scenario).assert_ok();
    // The exploration genuinely reached both outcomes — otherwise the
    // conservation checks above were vacuous for one branch.
    assert!(
        both_admitted.load(Ordering::SeqCst) > 0,
        "never saw both admitted"
    );
    assert!(
        one_rejected.load(Ordering::SeqCst) > 0,
        "never saw a rejection"
    );
}

// ---------------------------------------------------------------------------
// Final: the accumulated lock-order graph
// ---------------------------------------------------------------------------

/// Runs last (libtest orders by name): the lock-order graph accumulated
/// across the whole corpus must be acyclic, and is dumped as JSON for
/// the CI artifact (`target/concheck/lock-order-graph.json`, path
/// overridable via `CONCHECK_GRAPH_OUT`).
#[test]
fn zz_lock_order_graph_is_acyclic_and_dumped() {
    let _g = serial();
    let cycles = lockdep::cycles();
    assert!(
        cycles.is_empty(),
        "lock-order cycles in shipped code:\n{}",
        cycles
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let path = std::env::var("CONCHECK_GRAPH_OUT")
        .unwrap_or_else(|_| "target/concheck/lock-order-graph.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create artifact dir");
    }
    let json = lockdep::graph_json();
    std::fs::write(&path, &json).expect("write lock-order graph artifact");
    // The one nesting these scenarios reach in shipped code is a first
    // scan interning under `exec.scans` (`exec.scans →
    // intern.shard_writer`); the graph must stay acyclic, so just check
    // the artifact is well-formed.
    assert!(
        json.contains("\"edges\""),
        "artifact must carry the edge list"
    );
}
