//! Reads run under the store's *shared* lock, start to finish.
//!
//! Every query the paper defines is a read-only function of the instance,
//! so nothing but an implementation artefact — interning the atoms a query
//! text quotes — ever needed the store's exclusive lock on the read path.
//! These tests pin that down from outside `Session::run`:
//!
//! * **overlap** — with another thread holding `store().read()`, every
//!   flavour of `eval`, `explain` and `analyze` still answers, and answers
//!   what it answers on an idle store (a writer-preferring `RwLock` makes
//!   a single exclusive acquisition on the read path serialise all reads);
//! * **concurrent differential** — four threads sharing one `Session`
//!   reply, request for request, byte-identically to a single-threaded
//!   replay, and one thread tripping its own budgets disturbs nobody;
//! * **the new-atom path** — the rare read that names an atom the universe
//!   has never seen interns it permanently and store-wide, pays for it out
//!   of its own memory budget, and survives a hammer of racing readers and
//!   a writer with the universe still a bijection that round-trips through
//!   a checkpoint;
//! * **reads after writes** — what reads derive from the store (planner
//!   statistics, interned scan tables) is kept per version of the
//!   instance: every kind of write is seen by the next read, a cold and a
//!   warm execution spend alike, and a read never grows the resident
//!   arena for free.

mod common;

use common::ScratchDir;
use nestdb::exec::Resident;
use nestdb::object::text::parse_database;
use nestdb::object::Universe;
use nestdb::proto::{Lang, LimitsSpec, Mode, Op, Request, Strategy};
use nestdb::storage::{Db, DbOptions};
use nestdb::{Session, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::time::Duration;

const NODES: usize = 10;
const TEAMS: usize = 4;

/// `G`: a 10-cycle with chords; `Team`: four nested rows over its nodes.
fn database_text() -> String {
    let mut text = String::from("schema G(U, U).\nschema Team(U, {U}).\n");
    for k in 0..NODES {
        text.push_str(&format!("G('n{k}', 'n{}').\n", (k + 1) % NODES));
        if k % 3 == 0 {
            text.push_str(&format!("G('n{k}', 'n{}').\n", (k + 4) % NODES));
        }
    }
    for t in 0..TEAMS {
        text.push_str(&format!(
            "Team('t{t}', {{'n{t}', 'n{}', 'n{}'}}).\n",
            t + 2,
            t + 5
        ));
    }
    text
}

fn session() -> Session {
    let mut universe = Universe::new();
    let (_, instance) = parse_database(&database_text(), &mut universe).unwrap();
    Session::builder()
        .store(Arc::new(RwLock::new(Store::with_data(universe, instance))))
        .build()
}

const TC: &str = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";

fn calc(text: &str, mode: Mode, planned: bool) -> Request {
    Request {
        mode,
        planned,
        text: text.to_string(),
        ..Request::default()
    }
}

fn datalog(text: &str, strategy: Strategy, planned: bool) -> Request {
    Request {
        lang: Lang::Datalog,
        strategy,
        planned,
        text: text.to_string(),
        ..Request::default()
    }
}

fn algebra(text: &str, planned: bool) -> Request {
    Request {
        lang: Lang::Algebra,
        planned,
        text: text.to_string(),
        ..Request::default()
    }
}

fn with_op(op: Op, mut req: Request) -> Request {
    req.op = op;
    req
}

/// Run as the server does — a fresh governor per request, so `spend` is
/// this request's alone even while other threads share the session — and
/// render the reply with the one clock-dependent field zeroed.
fn reply(session: &Session, req: &Request) -> String {
    let mut resp = session.run_governed(req, session.governor_for(req));
    if let Some(spend) = resp.spend.as_mut() {
        spend.elapsed_us = 0;
    }
    resp.to_json()
}

fn universe_len(session: &Session) -> usize {
    session.store().read().unwrap().universe().len()
}

// ---------------------------------------------------------------------------
// overlap
// ---------------------------------------------------------------------------

/// Every read op in every flavour, quoting only atoms the store knows.
fn read_matrix() -> Vec<Request> {
    let point = "{[y:U] | G('n3', y)}";
    let team = "{[s:{U}] | Team('t1', s)}";
    let reach = "rel reach(U).\nreach(y) :- G('n0', y).\nreach(y) :- reach(x), G(x, y).";
    let select = "select[eqc(1,'n6')](G)";
    let mut reqs = Vec::new();
    for planned in [false, true] {
        reqs.push(calc(point, Mode::Fast, planned));
        reqs.push(calc(team, Mode::Safe, planned));
        reqs.push(calc(point, Mode::Checked, planned));
        reqs.push(datalog(reach, Strategy::SemiNaive, planned));
        reqs.push(datalog(TC, Strategy::Stratified, planned));
        reqs.push(algebra(select, planned));
        reqs.push(algebra("unnest[2](Team)", planned));
    }
    let mut checked_datalog = datalog(reach, Strategy::SemiNaive, true);
    checked_datalog.mode = Mode::Checked;
    reqs.push(checked_datalog);
    reqs.push(with_op(Op::Explain, calc(point, Mode::Safe, false)));
    reqs.push(with_op(
        Op::Explain,
        datalog(reach, Strategy::SemiNaive, false),
    ));
    reqs.push(with_op(Op::Explain, algebra(select, false)));
    reqs.push(with_op(Op::Analyze, calc(point, Mode::Fast, false)));
    reqs.push(with_op(
        Op::Analyze,
        datalog(reach, Strategy::SemiNaive, false),
    ));
    // refusals and parse errors are reads too
    reqs.push(calc("{[x:U] | H(x, 'n1')}", Mode::Checked, false));
    reqs.push(calc("{[x:U] | G('n1',, x)}", Mode::Fast, false));
    reqs
}

#[test]
fn reads_answer_while_another_thread_holds_the_store_shared() {
    let session = session();
    let matrix = read_matrix();
    let idle: Vec<String> = matrix.iter().map(|req| reply(&session, req)).collect();
    assert!(
        idle[0].contains("n4") && idle[0].contains("n7"),
        "{}",
        idle[0]
    );

    let store = session.store();
    let held = store.read().unwrap();
    let (tx, rx) = mpsc::channel();
    let runner = {
        let session = session.clone();
        std::thread::spawn(move || {
            for req in &matrix {
                if tx.send(reply(&session, req)).is_err() {
                    return;
                }
            }
        })
    };
    for (k, want) in idle.iter().enumerate() {
        // an exclusive acquisition anywhere on the read path waits for
        // `held` forever; the timeout only bounds how long that takes to
        // report
        let got = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| {
                panic!("read {k} blocked behind a shared holder of the store lock: {want}")
            });
        assert_eq!(&got, want, "read {k} answers differently under a held lock");
    }
    drop(held);
    runner.join().unwrap();
}

// ---------------------------------------------------------------------------
// concurrent differential
// ---------------------------------------------------------------------------

/// One request of the mix, drawn from a seeded (so exactly repeating)
/// stream.
fn mixed_request(rng: &mut StdRng) -> Request {
    let node = format!("n{}", rng.random_below(NODES as u64));
    let team = format!("t{}", rng.random_below(TEAMS as u64));
    let planned = rng.random_bool(0.5);
    let mode = [Mode::Fast, Mode::Safe, Mode::Checked][rng.random_below(3) as usize];
    let reach =
        format!("rel reach(U).\nreach(y) :- G('{node}', y).\nreach(y) :- reach(x), G(x, y).");
    match rng.random_below(12) {
        0 => calc(&format!("{{[y:U] | G('{node}', y)}}"), mode, planned),
        1 => calc(
            &format!("{{[z:U] | exists y:U (G('{node}', y) /\\ G(y, z))}}"),
            mode,
            planned,
        ),
        // not `Fast`: the active domain of `s:{U}` is a 16 384-set powerset
        2 => calc(
            &format!("{{[s:{{U}}] | Team('{team}', s)}}"),
            if mode == Mode::Fast { Mode::Safe } else { mode },
            planned,
        ),
        3 => algebra(&format!("select[eqc(1,'{node}')](G)"), planned),
        4 => algebra("nest[1](unnest[2](Team))", planned),
        5 => datalog(&reach, Strategy::SemiNaive, planned),
        6 => datalog(TC, Strategy::Stratified, planned),
        7 => with_op(
            Op::Explain,
            calc(&format!("{{[y:U] | G('{node}', y)}}"), mode, false),
        ),
        8 => with_op(Op::Explain, datalog(&reach, Strategy::SemiNaive, false)),
        9 => with_op(
            Op::Analyze,
            calc(
                &format!("{{[y:U] | G('{node}', y) /\\ ~G(y, '{node}')}}"),
                mode,
                false,
            ),
        ),
        10 => calc(&format!("{{[x:U] | H('{node}', x)}}"), mode, planned),
        _ => algebra(&format!("select[eqc(1,'{node}')](G"), planned),
    }
}

const THREADS: usize = 4;
const PER_THREAD: usize = 200;

/// Thread 0's requests all run under a budget most of them cannot meet.
/// They stay off the plan cache (unplanned evals only): a cached plan
/// carries the `governor-trips` warnings of whichever request compiled it,
/// so a budgeted request that got there first would show through a peer's
/// `explain` — an ordering effect of the cache, not of the store lock.
fn streams(seed: u64) -> Vec<Vec<Request>> {
    (0..THREADS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 32));
            (0..PER_THREAD)
                .map(|_| {
                    let mut req = mixed_request(&mut rng);
                    if t == 0 {
                        req.limits = Some(LimitsSpec {
                            max_steps: Some(1),
                            ..LimitsSpec::default()
                        });
                        req.planned = false;
                        if req.op == Op::Explain {
                            req.op = Op::Eval;
                        }
                    }
                    req
                })
                .collect()
        })
        .collect()
}

#[test]
fn four_threads_on_one_session_reply_as_a_single_threaded_replay() {
    for seed in [1, 2, 4] {
        let streams = streams(0x5EED + seed);
        let replay = session();
        let want: Vec<Vec<String>> = streams
            .iter()
            .map(|s| s.iter().map(|req| reply(&replay, req)).collect())
            .collect();

        let shared = session();
        let got: Vec<Vec<String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let shared = &shared;
                    scope.spawn(move || stream.iter().map(|req| reply(shared, req)).collect())
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        for t in 0..THREADS {
            for k in 0..PER_THREAD {
                assert_eq!(
                    got[t][k], want[t][k],
                    "seed {seed}, thread {t}, request {k}: {:?}",
                    streams[t][k]
                );
            }
        }
        // the tripping thread tripped, and nobody else did
        let trips = |replies: &[String]| {
            replies
                .iter()
                .filter(|r| r.contains("\"resource_trip\":true"))
                .count()
        };
        assert!(trips(&got[0]) > PER_THREAD / 4, "thread 0 runs out of fuel");
        assert_eq!(got[1..].iter().map(|r| trips(r)).sum::<usize>(), 0);
        // every atom these streams quote was known: no read wrote
        assert_eq!(universe_len(&shared), universe_len(&replay));
        assert_eq!(exclusive_reads(&shared), 0);
    }
}

fn exclusive_reads(session: &Session) -> u64 {
    let resp = session.run(&Request {
        op: Op::Stats,
        ..Request::default()
    });
    resp.stats
        .expect("stats carry counters")
        .store_exclusive_reads
}

// ---------------------------------------------------------------------------
// the new-atom path
// ---------------------------------------------------------------------------

/// What the commit before this one — parsing under the exclusive lock —
/// replied to `{[x:U] | x = 'zzz'}` on this store, `elapsed_us` zeroed.
const ZZZ_REPLY: &str = "{\"ok\":true,\"error\":null,\"relations\":[{\"name\":\"result\",\
    \"rows\":[\"('zzz')\"],\"rows_json\":[[\"zzz\"]]}],\"analysis\":null,\"explain\":null,\
    \"spend\":{\"steps\":45,\"mem_bytes\":488,\"elapsed_us\":0},\"stats\":null,\
    \"message\":null,\"rounds\":null,\"deltas\":[],\"event\":null}";

/// Likewise for `{[x:U] | x = 'qqq' /\ G(x,, x)}`: the parse fails after
/// `'qqq'` was read.
const QQQ_REPLY: &str = "{\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"parse error \
    at byte 26: expected term, found Comma\\nline 1, column 27:\\n\
    {[x:U] | x = 'qqq' /\\\\ G(x,, x)}\\n                          ^\",\
    \"resource_trip\":false,\"retry_after_ms\":null},\"relations\":[],\"analysis\":null,\
    \"explain\":null,\"spend\":{\"steps\":0,\"mem_bytes\":0,\"elapsed_us\":0},\"stats\":null,\
    \"message\":null,\"rounds\":null,\"deltas\":[],\"event\":null}";

#[test]
fn a_read_naming_an_unseen_atom_interns_it_once_and_for_all() {
    let session = session();
    let before = universe_len(&session);
    // active-domain answers contain the query's own constants, which
    // must render by name: the atom is the store's, not the request's
    let req = calc("{[x:U] | x = 'zzz'}", Mode::Fast, false);
    // the one difference from the old reply: the request that makes
    // the universe grow is billed the three bytes it grew by
    assert_eq!(
        reply(&session, &req),
        ZZZ_REPLY.replace("\"mem_bytes\":488", "\"mem_bytes\":491")
    );
    assert_eq!(universe_len(&session), before + 1);
    assert_eq!(exclusive_reads(&session), 1);
    // the second time round it is an ordinary shared-lock read
    assert_eq!(reply(&session, &req), ZZZ_REPLY);
    assert_eq!(universe_len(&session), before + 1);
    assert_eq!(exclusive_reads(&session), 1);

    // a parse that fails *after* quoting a new atom has interned it,
    // as a parse made directly against the store's universe would
    let bad = calc("{[x:U] | x = 'qqq' /\\ G(x,, x)}", Mode::Fast, false);
    assert_eq!(
        reply(&session, &bad),
        QQQ_REPLY.replace("\"mem_bytes\":0", "\"mem_bytes\":3")
    );
    assert_eq!(reply(&session, &bad), QQQ_REPLY);
    assert_eq!(universe_len(&session), before + 2);
    assert_eq!(exclusive_reads(&session), 2);
    let store = session.store();
    let store = store.read().unwrap();
    let u = store.universe();
    assert_eq!(u.get("zzz").map(|a| a.0 as usize), Some(before));
    assert_eq!(u.get("qqq").map(|a| a.0 as usize), Some(before + 1));
}

#[test]
fn atoms_interned_for_a_read_are_charged_to_that_read() {
    let session = session();
    let before = universe_len(&session);
    let big = "x".repeat(4096);
    let mut req = calc(&format!("{{[x:U] | x = '{big}'}}"), Mode::Fast, false);
    req.limits = Some(LimitsSpec {
        max_memory_bytes: Some(1024),
        ..LimitsSpec::default()
    });
    let resp = session.run(&req);
    let err = resp.error.as_ref().expect("the read is refused");
    assert_eq!(err.kind, "resource");
    assert!(err.resource_trip);
    assert!(err.message.contains("session.intern"), "{}", err.message);
    assert_eq!(universe_len(&session), before, "refused before any write");
    assert_eq!(exclusive_reads(&session), 0);

    // within budget the same text interns and is billed its name's bytes
    req.limits = Some(LimitsSpec {
        max_memory_bytes: Some(1 << 20),
        ..LimitsSpec::default()
    });
    let resp = session.run(&req);
    assert!(resp.ok, "{:?}", resp.error);
    assert!(resp.spend.unwrap().mem_bytes >= 4096);
    assert_eq!(universe_len(&session), before + 1);
}

#[test]
fn racing_new_atom_reads_and_a_writer_keep_the_universe_a_bijection() {
    const READERS: usize = 4;
    const ROUNDS: usize = 60;
    let scratch = ScratchDir::new("read_concurrency_hammer");
    let session = session();
    let open = session.run(&Request {
        op: Op::Open,
        text: scratch.path().display().to_string(),
        ..Request::default()
    });
    assert!(open.ok, "{:?}", open.error);
    let insert = |text: String| Request {
        op: Op::Insert,
        text,
        ..Request::default()
    };
    assert!(session.run(&insert("schema E(U, U).".into())).ok);

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let session = &session;
            scope.spawn(move || {
                for k in 0..ROUNDS {
                    // one atom of its own, one every reader races for, and
                    // one the writer is about to (or just did) insert
                    let text =
                        format!("{{[x:U] | x = 'r{r}_{k}' \\/ x = 'shared_{k}' \\/ x = 'w{k}'}}");
                    let resp = session.run(&calc(&text, Mode::Fast, k % 2 == 0));
                    assert!(resp.ok, "{:?}", resp.error);
                    let rows = &resp.relations[0].rows;
                    for name in [format!("r{r}_{k}"), format!("shared_{k}"), format!("w{k}")] {
                        assert!(rows.contains(&format!("('{name}')")), "{name}: {rows:?}");
                    }
                }
            });
        }
        let session = &session;
        scope.spawn(move || {
            for k in 0..ROUNDS {
                let resp = session.run(&insert(format!("E('w{k}', 'v{k}').")));
                assert!(resp.ok, "{:?}", resp.error);
            }
        });
    });

    let names: Vec<String> = {
        let store = session.store();
        let store = store.read().unwrap();
        let u = store.universe();
        for a in u.atoms() {
            assert_eq!(u.get(u.name(a)), Some(a), "{}", u.name(a));
        }
        u.atoms().map(|a| u.name(a).to_string()).collect()
    };
    let distinct: HashSet<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(distinct.len(), names.len(), "a name was interned twice");
    // 2 per writer round, 1 shared + 1 per reader per reader round
    assert_eq!(names.len(), ROUNDS * (2 + 1 + READERS));

    // atoms only reads ever named live in no logged clause: the snapshot
    // body is what carries them, in `Atom` order
    let saved = session.run(&Request {
        op: Op::Save,
        ..Request::default()
    });
    assert!(saved.ok, "{:?}", saved.error);
    drop(session);
    let db = Db::open(scratch.path(), DbOptions::default()).unwrap();
    let reopened: Vec<&str> = db
        .universe()
        .atoms()
        .map(|a| db.universe().name(a))
        .collect();
    assert_eq!(reopened, names);
    assert_eq!(db.instance().relation("E").len(), ROUNDS);
}

// ---------------------------------------------------------------------------
// reads after writes
// ---------------------------------------------------------------------------

fn write(session: &Session, op: Op, text: &str) {
    let resp = session.run(&Request {
        op,
        text: text.to_string(),
        ..Request::default()
    });
    assert!(resp.ok, "{text}: {:?}", resp.error);
}

/// The rows a served eval of `text` answers, sorted, after checking that
/// the `planned: false` oracle answers the same.
fn served_rows(session: &Session, text: &str) -> Vec<String> {
    let rows = |planned| {
        let resp = session.run(&calc(text, Mode::Fast, planned));
        assert!(resp.ok, "{text}: {:?}", resp.error);
        let mut rows = resp.relations[0].rows.clone();
        rows.sort();
        rows
    };
    let served = rows(true);
    assert_eq!(served, rows(false), "served and oracle disagree on {text}");
    served
}

/// Warm everything reads derive from the store, then change it every way
/// it can change. After each write, a served eval of a text compiled
/// before the write and of a text never seen equal the oracle and show
/// the write, and `explain` of a new text estimates the new row count.
fn reads_follow_writes(session: &Session) {
    let point = "{[y:U] | G('n3', y)}";
    let mut seen = 0;
    let mut new_text = |rel: &str| {
        seen += 1;
        format!("{{[a{seen}:U, b{seen}:U] | {rel}(a{seen}, b{seen})}}")
    };
    let edges = served_rows(session, &new_text("G")).len();
    assert_eq!(served_rows(session, point), ["('n4')", "('n7')"]);

    write(session, Op::Insert, "G('n3', 'n8').");
    assert_eq!(served_rows(session, point), ["('n4')", "('n7')", "('n8')"]);
    assert_eq!(served_rows(session, &new_text("G")).len(), edges + 1);
    let explained = session.run(&with_op(
        Op::Explain,
        calc(&new_text("G"), Mode::Fast, true),
    ));
    let plan = explained.explain.expect("explain renders the plan").text;
    assert!(
        plan.contains(&format!("scan G [est {}]", edges + 1)),
        "{plan}"
    );

    write(session, Op::Update, "delete G('n3', 'n4').\nG('n3', 'n9').");
    assert_eq!(served_rows(session, point), ["('n7')", "('n8')", "('n9')"]);
    assert_eq!(served_rows(session, &new_text("G")).len(), edges + 1);

    write(session, Op::Insert, "schema E(U, U).");
    assert_eq!(served_rows(session, point), ["('n7')", "('n8')", "('n9')"]);
    assert!(served_rows(session, &new_text("E")).is_empty());
    write(session, Op::Insert, "E('n3', 'n5').");
    assert_eq!(served_rows(session, "{[y:U] | E('n3', y)}"), ["('n5')"]);
    assert_eq!(served_rows(session, &new_text("E")).len(), 1);
}

#[test]
fn a_read_after_a_write_sees_the_write() {
    reads_follow_writes(&session());

    // the same on a durable store, whose writes go through the log, and
    // once more after reopening it
    let scratch = ScratchDir::new("read_after_write");
    let dir = scratch.path().display().to_string();
    let durable = Session::default();
    write(&durable, Op::Open, &dir);
    for clause in database_text().lines() {
        write(&durable, Op::Insert, clause);
    }
    reads_follow_writes(&durable);
    let everything = |session: &Session| -> Vec<Vec<String>> {
        ["G", "E"]
            .iter()
            .map(|rel| served_rows(session, &format!("{{[x:U, y:U] | {rel}(x, y)}}")))
            .collect()
    };
    let before = everything(&durable);
    drop(durable);
    let reopened = Session::default();
    write(&reopened, Op::Open, &dir);
    assert_eq!(everything(&reopened), before);
}

/// nestbench's `point-read` and `join-scan` texts, over this file's store.
fn exec_texts() -> Vec<Request> {
    vec![
        calc("{[y:U] | G('n3', y)}", Mode::Fast, true),
        calc(
            "{[z:U] | exists y:U (G('n3', y) /\\ G(y, z))}",
            Mode::Fast,
            true,
        ),
        calc("{[s:{U}] | Team('t1', s)}", Mode::Safe, true),
        algebra("select[eqc(1,'n3')](G)", true),
        calc("{[x:U, y:U] | G(x, y)}", Mode::Fast, true),
        calc(
            "{[x:U, z:U] | exists y:U (G(x, y) /\\ G(y, z))}",
            Mode::Fast,
            true,
        ),
        algebra("select[eq(2,3)]((G x G))", true),
        algebra("nest[2](G)", true),
        algebra("unnest[2](Team)", true),
        algebra("nest[1](unnest[2](Team))", true),
        algebra("project[1,3](select[sub(2,4)]((Team x Team)))", true),
    ]
}

/// A cold execution (the first against a version of the store) and a warm
/// one (after other texts filled that version's arena in another order)
/// reply, and spend, identically.
#[test]
fn cold_and_warm_executions_reply_and_spend_identically() {
    let texts = exec_texts();
    let cold: Vec<String> = texts.iter().map(|req| reply(&session(), req)).collect();
    let warm = session();
    for req in texts.iter().rev() {
        reply(&warm, req);
    }
    for (req, want) in texts.iter().zip(&cold) {
        assert_eq!(&reply(&warm, req), want, "{}", req.text);
    }
}

/// The resident arena outlives the request, so a read may not grow it for
/// free: a served lookup of an atom no relation holds answers no rows and
/// admits nothing.
#[test]
fn a_served_lookup_of_an_unseen_atom_admits_nothing_to_the_arena() {
    let session = session();
    let arena = || {
        let store = session.store();
        let store = store.read().unwrap();
        let resident = Resident::of(store.instance());
        (resident.interner().len(), resident.interner().bytes())
    };
    served_rows(&session, "{[y:U] | G('n3', y)}");
    let before = arena();
    assert!(before.0 > 0, "the warm-up scanned G");
    let resp = session.run(&calc("{[y:U] | G('never_seen', y)}", Mode::Fast, true));
    assert!(resp.ok, "{:?}", resp.error);
    assert!(resp.relations[0].rows.is_empty());
    assert_eq!(arena(), before);
}
