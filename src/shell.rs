//! The interactive shell behind the `nestdb` binary — in the library so
//! its command loop is unit-testable.
//!
//! ```text
//! $ cargo run --bin nestdb -- mydb.no
//! nestdb> {[x:U, y:U] | G(x, y)}
//! nestdb> :classify {[u:U, v:U] | ifp(S; x:U, y:U | G(x,y) \/ exists z:U (S(x,z) /\ G(z,y)))(u, v)}
//! nestdb> :datalog rules.dl
//! nestdb> :help
//! ```
//!
//! Databases use the text format of `no_object::text` (`schema R(U, {U}).`
//! followed by facts); queries use the CALC concrete syntax; Datalog files
//! use the `no_datalog::parser` syntax. Queries are evaluated with safe
//! (range-restricted) evaluation by default, falling back to active
//! domains per variable, under configurable budgets.
//!
//! Every evaluating command builds one [`Request`] and goes through
//! [`Session::run`] — the same dispatch point the TCP server and the CLI
//! subcommands use. The shell keeps only presentation (prompt text,
//! budget diagnostics, row truncation) on its side of that line.

use crate::session::{Session, Store};
use no_core::error::EvalConfig;
use no_core::parser::parse_query;
use no_core::report::{classify, InputAssumption};
use no_object::text::render_database;
use no_proto::{Lang, LimitsSpec, Mode, Op, Request, Response, Spend};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// The shell: a shared [`Store`] (universe + database + optional durable
/// store), a persistent [`Session`], budgets, and an evaluation mode.
/// With `:open` the database becomes durable — a `no_storage::Db` backed
/// by a snapshot + write-ahead log directory owns the state, and
/// mutations are logged before they apply.
pub struct Shell {
    store: Arc<RwLock<Store>>,
    session: Session,
    config: EvalConfig,
    active_domain: bool,
}

impl Shell {
    /// A fresh shell with an empty database.
    pub fn new() -> Self {
        let store = Arc::new(RwLock::new(Store::new()));
        let session = Session::builder().store(Arc::clone(&store)).build();
        Shell {
            store,
            session,
            config: EvalConfig::default(),
            active_domain: false,
        }
    }

    /// The store this shell reads and mutates (shared with its session,
    /// and shareable with further sessions — e.g. a server on the same
    /// database).
    pub fn store(&self) -> Arc<RwLock<Store>> {
        Arc::clone(&self.store)
    }

    /// The shell's budgets as a per-request limits override: every
    /// evaluating [`Request`] carries these, so each evaluation gets a
    /// fresh allowance (a tripped query never eats the next one's fuel).
    fn limits_spec(&self) -> LimitsSpec {
        LimitsSpec {
            max_steps: Some(self.config.max_steps),
            max_range: Some(self.config.max_range),
            max_fixpoint_iters: Some(self.config.max_fixpoint_iters),
            max_memory_bytes: Some(self.config.max_memory_bytes),
            // 0 is the wire encoding for "no deadline".
            deadline_ms: Some(match self.config.deadline {
                Some(d) => (d.as_millis() as u64).max(1),
                None => 0,
            }),
        }
    }

    /// Run one request and map failures to shell error strings: resource
    /// trips get the budget diagnostic, everything else shows its message.
    fn respond(&self, req: Request) -> Result<Response, String> {
        let resp = self.session.run(&req);
        if resp.ok {
            return Ok(resp);
        }
        let err = resp.error.as_ref().expect("failed responses carry errors");
        if err.resource_trip {
            Err(self.budget_diagnostic(resp.spend.as_ref(), &err.message))
        } else {
            Err(err.message.clone())
        }
    }

    fn eval_request(&self, op: Op, lang: Lang, text: &str) -> Request {
        Request {
            op,
            lang,
            mode: if self.active_domain {
                Mode::Fast
            } else {
                Mode::Safe
            },
            text: text.to_string(),
            limits: Some(self.limits_spec()),
            ..Request::default()
        }
    }

    /// Load a database file (text format) into the store: its new
    /// relations are declared and its new facts inserted, logged when a
    /// durable store is attached, and every live view catches up with
    /// them before this returns ([`Store::import`]).
    pub fn load(&mut self, path: &str) -> Result<String, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut store = self
            .store
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stats = store.import(&src, self.session.governor())?;
        Ok(match store.db() {
            Some(db) => format!(
                "imported {path} into {}: +{} relations, +{} tuples",
                db.dir().display(),
                stats.relations_added,
                stats.tuples_added
            ),
            None => {
                let instance = store.instance();
                format!(
                    "loaded {path}: {} relations, {} tuples, {} atoms",
                    instance.schema().len(),
                    instance.cardinality(),
                    instance.atoms().len()
                )
            }
        })
    }

    /// `nestdb save <file> <dir>`: import a text database file into a
    /// durable directory and checkpoint it, as `:open <dir>`, `:load
    /// <file>` and `:save` — so the directory's views are restored, catch
    /// up with the imported facts and are checkpointed with the snapshot.
    /// Returns the three commands' messages, one per line.
    pub fn save_file_into(&mut self, file: &str, dir: &str) -> Result<String, String> {
        let steps = [
            format!(":open {dir}"),
            format!(":load {file}"),
            ":save".to_string(),
        ];
        let mut out = Vec::new();
        for step in &steps {
            out.extend(self.command(step)?);
        }
        Ok(out.join("\n"))
    }

    /// Render a tripped budget: which budget, where, and how much of each
    /// allowance was consumed. The shell stays alive after showing this.
    fn budget_diagnostic(&self, spend: Option<&Spend>, err: &str) -> String {
        let show = |v: u64| {
            if v == u64::MAX {
                "unlimited".to_string()
            } else {
                v.to_string()
            }
        };
        let deadline = match self.config.deadline {
            Some(d) => format!("{} ms", d.as_millis()),
            None => "unlimited".to_string(),
        };
        let (steps, mem, elapsed_ms) = match spend {
            Some(s) => (s.steps, s.mem_bytes, s.elapsed_us as f64 / 1e3),
            None => (0, 0, 0.0),
        };
        format!(
            "{err}\nbudgets: steps {}/{}, memory {}/{} bytes, elapsed {:.1} ms (deadline {})\n\
             the database is unchanged; raise :budget, :mem or :deadline, or simplify the query",
            steps,
            show(self.config.max_steps),
            mem,
            show(self.config.max_memory_bytes),
            elapsed_ms,
            deadline,
        )
    }

    fn run_query(&mut self, src: &str) -> Result<String, String> {
        let t = Instant::now();
        let resp = self.respond(self.eval_request(Op::Eval, Lang::Calc, src))?;
        let rel = &resp.relations[0];
        let mut out = String::new();
        for row in &rel.rows {
            out.push_str(row);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} rows in {:.1} ms ({})",
            rel.rows.len(),
            t.elapsed().as_secs_f64() * 1e3,
            if self.active_domain {
                "active-domain"
            } else {
                "safe"
            },
        ));
        Ok(out)
    }

    fn classify_query(&mut self, src: &str) -> Result<String, String> {
        let query = {
            let mut store = self
                .store
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            parse_query(src, store.universe_mut()).map_err(|e| e.render(src))?
        };
        let store = self
            .store
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (label, assumption) in [
            ("no assumption", InputAssumption::Unknown),
            ("dense inputs ", InputAssumption::Dense),
        ] {
            let report = classify(store.instance().schema(), &query, assumption)
                .map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "{label}: {} → {} (by {})\n",
                report.language, report.bound.bound, report.bound.by
            ));
            if !report.unrestricted_vars.is_empty() {
                out.push_str(&format!(
                    "  unrestricted variables: {}\n",
                    report.unrestricted_vars.join(", ")
                ));
            }
        }
        Ok(out.trim_end().to_string())
    }

    fn explain_query(&mut self, src: &str) -> Result<String, String> {
        use no_core::nf;
        use no_core::ranges::compute_ranges;
        use no_core::typeck;
        let query = {
            let mut store = self
                .store
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            parse_query(src, store.universe_mut()).map_err(|e| e.render(src))?
        };
        let mut out = {
            let store = self
                .store
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let instance = store.instance();
            let checked = typeck::check(instance.schema(), &query.head, &query.body)
                .map_err(|e| e.to_string())?;
            let m = nf::metrics(&query.body);
            let mut out = format!(
                "CALC_{}^{} formula: {} nodes, quantifier rank {}, fixpoint depth {}\n",
                checked.set_height,
                checked.tuple_width,
                m.size,
                m.quantifier_rank,
                m.fixpoint_depth
            );
            match compute_ranges(instance, &checked.var_types, &query.body, &self.config) {
                Ok(ranges) => {
                    out.push_str("computed ranges (Theorem 5.1):\n");
                    let mut any = false;
                    for (path, vals) in ranges.iter() {
                        any = true;
                        out.push_str(&format!("  r({path}): {} candidates\n", vals.len()));
                    }
                    if !any {
                        out.push_str("  (none — evaluation falls back to active domains)\n");
                    }
                    for (v, ty) in checked.var_types.iter() {
                        if ranges.of_var(v).is_none() {
                            out.push_str(&format!("  {v}:{ty} unrestricted → active domain\n"));
                        }
                    }
                }
                Err(e) => out.push_str(&format!("range computation refused: {e}\n")),
            }
            out
        };
        // The compiled, optimized plan — through the same Request path the
        // server uses, so repeated :explain hits the session's plan cache.
        match self.respond(self.eval_request(Op::Explain, Lang::Calc, src)) {
            Ok(resp) => {
                out.push('\n');
                out.push_str(&resp.explain.expect("explain responses carry a plan").text);
            }
            Err(e) => out.push_str(&format!("planning refused: {e}\n")),
        }
        Ok(out.trim_end().to_string())
    }

    /// `:check` — static analysis only. The argument is a `.dl` file path
    /// (Datalog¬) or inline CALC query text. Never evaluates, so it works
    /// under any budget.
    fn check_input(&mut self, arg: &str) -> Result<String, String> {
        if arg.is_empty() {
            return Err(":check needs a query or a .dl file (try :help)".to_string());
        }
        let (lang, src) = if arg.ends_with(".dl") {
            let src =
                std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
            (Lang::Datalog, src)
        } else {
            (Lang::Calc, arg.to_string())
        };
        let resp = self.respond(Request {
            op: Op::Analyze,
            lang,
            text: src,
            ..Request::default()
        })?;
        Ok(resp
            .analysis
            .expect("analyze responses carry findings")
            .text)
    }

    fn run_datalog(&mut self, path: &str) -> Result<String, String> {
        let (path, stratified) = match path.strip_suffix(" stratified") {
            Some(p) => (p.trim(), true),
            None => (path, false),
        };
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let t = Instant::now();
        let mut req = self.eval_request(Op::Eval, Lang::Datalog, &src);
        req.strategy = if stratified {
            no_proto::Strategy::Stratified
        } else {
            no_proto::Strategy::SemiNaive
        };
        let resp = self.respond(req)?;
        let mut out = String::new();
        let mut facts = 0usize;
        for rel in &resp.relations {
            facts += rel.rows.len();
            out.push_str(&format!("{}: {} facts\n", rel.name, rel.rows.len()));
            for row in rel.rows.iter().take(20) {
                out.push_str(&format!("  {row}\n"));
            }
            if rel.rows.len() > 20 {
                out.push_str("  …\n");
            }
        }
        out.push_str(&format!(
            "{} rounds, {} facts, {:.1} ms",
            resp.rounds.unwrap_or(0),
            facts,
            t.elapsed().as_secs_f64() * 1e3
        ));
        Ok(out)
    }

    /// Execute one input line: a `:command` or a CALC query.
    ///
    /// `Ok(Some(text))` is output to show, `Ok(None)` a no-op (blank or
    /// comment), `Err("quit")` the quit signal, any other `Err` an error
    /// message to display.
    pub fn command(&mut self, line: &str) -> Result<Option<String>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            return Ok(None);
        }
        if let Some(rest) = line.strip_prefix(':') {
            let (cmd, arg) = rest.split_once(' ').unwrap_or((rest, ""));
            let arg = arg.trim();
            return match cmd {
                "help" | "h" => Ok(Some(HELP.to_string())),
                "quit" | "q" => Err("quit".to_string()),
                "load" => self.load(arg).map(Some),
                "open" => {
                    if arg.is_empty() {
                        return Err(":open needs a database directory (try :help)".to_string());
                    }
                    let resp = self.respond(Request {
                        op: Op::Open,
                        text: arg.to_string(),
                        limits: Some(self.limits_spec()),
                        ..Request::default()
                    })?;
                    Ok(resp.message)
                }
                "insert" => {
                    if arg.is_empty() {
                        return Err(
                            ":insert needs a clause like G('a', 'b'). (try :help)".to_string()
                        );
                    }
                    let resp = self.respond(Request {
                        op: Op::Insert,
                        text: arg.to_string(),
                        ..Request::default()
                    })?;
                    Ok(resp.message)
                }
                "sync" => {
                    let mut store = self
                        .store
                        .write()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    match store.db_mut() {
                        Some(db) => {
                            db.sync().map_err(|e| e.to_string())?;
                            Ok(Some(format!(
                                "write-ahead log fsynced ({} frames, epoch {})",
                                db.wal_frames(),
                                db.epoch()
                            )))
                        }
                        None => Err("no durable database attached (use :open <dir>)".to_string()),
                    }
                }
                "close" => {
                    let mut store = self
                        .store
                        .write()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    match store.detach() {
                        Some((db, views)) if views.is_empty() => {
                            Ok(Some(format!("detached {}", db.dir().display())))
                        }
                        Some((db, views)) => Ok(Some(format!(
                            "detached {}; its views closed with it: {}",
                            db.dir().display(),
                            views.names().collect::<Vec<_>>().join(", ")
                        ))),
                        None => Err("no durable database attached".to_string()),
                    }
                }
                "save" => {
                    let has_db = self
                        .store
                        .read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .db()
                        .is_some();
                    if arg.is_empty() && !has_db {
                        return Err(
                            ":save needs a file path (or :open a durable database)".to_string()
                        );
                    }
                    let resp = self.respond(Request {
                        op: Op::Save,
                        text: arg.to_string(),
                        ..Request::default()
                    })?;
                    Ok(resp.message)
                }
                "db" => {
                    let store = self
                        .store
                        .read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    Ok(Some(render_database(store.universe(), store.instance())))
                }
                "schema" => {
                    let store = self
                        .store
                        .read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let mut out = String::new();
                    for r in store.instance().schema().relations() {
                        let cols: Vec<String> =
                            r.column_types.iter().map(ToString::to_string).collect();
                        out.push_str(&format!("{}({})\n", r.name, cols.join(", ")));
                    }
                    let (i, k) = store.instance().schema().ik();
                    out.push_str(&format!("an <{i},{k}>-database schema"));
                    Ok(Some(out))
                }
                "classify" => self.classify_query(arg).map(Some),
                "explain" => self.explain_query(arg).map(Some),
                "check" => self.check_input(arg).map(Some),
                "datalog" => self.run_datalog(arg).map(Some),
                "budget" => match arg.parse::<u64>() {
                    Ok(n) => {
                        self.config.max_range = n;
                        Ok(Some(format!("max quantifier range set to {n}")))
                    }
                    Err(_) => Err(format!("not a number: {arg}")),
                },
                "deadline" => match arg.parse::<u64>() {
                    Ok(0) => {
                        self.config.deadline = None;
                        Ok(Some("deadline cleared (unlimited wall clock)".to_string()))
                    }
                    Ok(ms) => {
                        self.config.deadline = Some(Duration::from_millis(ms));
                        Ok(Some(format!("deadline set to {ms} ms per evaluation")))
                    }
                    Err(_) => Err(format!("not a number of milliseconds: {arg}")),
                },
                "mem" => match arg.parse::<u64>() {
                    Ok(0) => {
                        self.config.max_memory_bytes = u64::MAX;
                        Ok(Some("memory budget cleared (unlimited)".to_string()))
                    }
                    Ok(bytes) => {
                        self.config.max_memory_bytes = bytes;
                        Ok(Some(format!(
                            "memory budget set to {bytes} bytes of materialised values"
                        )))
                    }
                    Err(_) => Err(format!("not a number of bytes: {arg}")),
                },
                "active" => {
                    self.active_domain = !self.active_domain;
                    Ok(Some(format!(
                        "evaluation mode: {}",
                        if self.active_domain {
                            "active-domain"
                        } else {
                            "safe (range-restricted)"
                        }
                    )))
                }
                other => Err(format!("unknown command :{other} (try :help)")),
            };
        }
        self.run_query(line).map(Some)
    }
}

const HELP: &str = "\
queries:   {[x:U, y:{U}] | Friends(x, y) /\\ ...}   evaluate a CALC query
commands:
  :load <file>       import a database (text format: schema R(U). R('a').)
                     (with a store attached: logged; views catch up)
  :open <dir>        attach a durable database (snapshot + write-ahead log,
                     created if absent; crash recovery runs on open)
  :insert <clause>   apply one clause — schema R(U). or R('a'). — logged
                     to the write-ahead log when a store is attached
  :save              checkpoint the attached store (snapshot + log reset)
  :save <file>       write the database back out in the text format
  :sync              fsync the write-ahead log now
  :close             detach the durable database and its views (files stay on disk)
  :schema            show the schema and its <i,k> classification
  :db                dump the database
  :classify <query>  language fragment + complexity bound (paper theorems)
  :explain <query>   formula metrics, safe-evaluation ranges + the optimized
                     query plan (passes, estimates, early-trip warnings)
  :check <query|file.dl>   static analysis: spanned diagnostics with paper
                     citations + a <i,k> complexity certificate (no evaluation)
  :datalog <file> [stratified]   run a Datalog¬ program (default: inflationary)
  :active            toggle active-domain vs safe evaluation
  :budget <n>        set the quantifier-range budget
  :deadline <ms>     wall-clock limit per evaluation (0 = unlimited)
  :mem <bytes>       memory budget for materialised values (0 = unlimited)
  :help  :quit";

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_shell() -> Shell {
        let sh = Shell::new();
        // build the graph database inline rather than from a file
        sh.store()
            .write()
            .unwrap()
            .import(
                "schema G(U, U).\nG('a','b').\nG('b','c').\nG('c','a').",
                sh.session.governor(),
            )
            .unwrap();
        sh
    }

    #[test]
    fn queries_and_commands_flow() {
        let mut sh = loaded_shell();
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("3 rows"), "{out}");
        sh.command(":active").unwrap();
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("3 rows"), "{out}");
        sh.command(":active").unwrap();
        let schema = sh.command(":schema").unwrap().unwrap();
        assert!(schema.contains("G(U, U)"), "{schema}");
        assert!(schema.contains("<0,0>-database schema"), "{schema}");
        let dump = sh.command(":db").unwrap().unwrap();
        assert!(dump.contains("G('a', 'b')."), "{dump}");
    }

    #[test]
    fn classify_and_explain() {
        let mut sh = loaded_shell();
        let c = sh
            .command(":classify {[x:U, y:U] | G(x, y)}")
            .unwrap()
            .unwrap();
        assert!(c.contains("RR-(CALC_0^0)"), "{c}");
        let e = sh
            .command(":explain {[x:U, y:U] | G(x, y)}")
            .unwrap()
            .unwrap();
        assert!(e.contains("r(x): 3 candidates"), "{e}");
        // the optimized plan follows the ranges section; the flat
        // conjunctive query takes the columnar kernel path
        assert!(e.contains("plan: calc (safe)"), "{e}");
        assert!(e.contains("join-algorithms"), "{e}");
        assert!(e.contains("columnar join kernels"), "{e}");
        assert!(e.contains("scan G"), "{e}");
    }

    #[test]
    fn budget_and_mode_toggles() {
        let mut sh = loaded_shell();
        assert!(sh.command(":budget 4").unwrap().unwrap().contains('4'));
        // a set-typed head now exceeds the budget under active domains
        sh.command(":active").unwrap();
        let err = sh.command("{[X:{U}] | X = X}").unwrap_err();
        assert!(err.contains("cardinality"), "{err}");
        sh.command(":active").unwrap(); // back to safe
        assert!(sh.command(":budget notanumber").is_err());
    }

    #[test]
    fn tripped_budgets_report_diagnostics_and_shell_survives() {
        let mut sh = loaded_shell();
        // Memory budget: a handful of bytes cannot hold even one answer row.
        sh.command(":mem 8").unwrap();
        let err = sh.command("{[x:U, y:U] | G(x, y)}").unwrap_err();
        assert!(err.contains("memory"), "{err}");
        assert!(err.contains("budgets:"), "{err}");
        assert!(err.contains("8 bytes"), "{err}");
        sh.command(":mem 0").unwrap();

        // Zero step fuel trips immediately, in both evaluation modes.
        sh.config.max_steps = 0;
        let err = sh.command("{[x:U, y:U] | G(x, y)}").unwrap_err();
        assert!(err.contains("step"), "{err}");
        assert!(err.contains("budgets:"), "{err}");
        sh.command(":active").unwrap();
        let err = sh.command("{[x:U, y:U] | G(x, y)}").unwrap_err();
        assert!(err.contains("step"), "{err}");
        sh.command(":active").unwrap();
        sh.config.max_steps = u64::MAX;

        // The shell is still fully usable after every trip.
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("3 rows"), "{out}");
    }

    #[test]
    fn deadline_and_mem_commands() {
        let mut sh = loaded_shell();
        let out = sh.command(":deadline 250").unwrap().unwrap();
        assert!(out.contains("250 ms"), "{out}");
        assert_eq!(sh.config.deadline, Some(Duration::from_millis(250)));
        let out = sh.command(":deadline 0").unwrap().unwrap();
        assert!(out.contains("unlimited"), "{out}");
        assert_eq!(sh.config.deadline, None);

        let out = sh.command(":mem 4096").unwrap().unwrap();
        assert!(out.contains("4096 bytes"), "{out}");
        assert_eq!(sh.config.max_memory_bytes, 4096);
        let out = sh.command(":mem 0").unwrap().unwrap();
        assert!(out.contains("unlimited"), "{out}");
        assert_eq!(sh.config.max_memory_bytes, u64::MAX);

        assert!(sh.command(":deadline soon").is_err());
        assert!(sh.command(":mem lots").is_err());
    }

    #[test]
    fn datalog_resource_errors_survive() {
        let mut sh = loaded_shell();
        sh.config.max_steps = 1;
        let dir = std::env::temp_dir().join("nestdb_shell_dl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tc.dl");
        std::fs::write(
            &path,
            "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).",
        )
        .unwrap();
        let err = sh
            .command(&format!(":datalog {}", path.display()))
            .unwrap_err();
        assert!(err.contains("step"), "{err}");
        assert!(err.contains("budgets:"), "{err}");
        sh.config.max_steps = u64::MAX;
        let out = sh
            .command(&format!(":datalog {}", path.display()))
            .unwrap()
            .unwrap();
        assert!(out.contains("tc: 9 facts"), "{out}");
    }

    #[test]
    fn errors_and_noise_lines() {
        let mut sh = loaded_shell();
        assert_eq!(sh.command("").unwrap(), None);
        assert_eq!(sh.command("% comment").unwrap(), None);
        assert!(sh.command(":nope").is_err());
        assert!(sh.command("{[x:U] | Missing(x)}").is_err());
        assert_eq!(sh.command(":quit").unwrap_err(), "quit");
        assert!(sh.command(":load /no/such/file.no").is_err());
    }

    #[test]
    fn help_lists_commands() {
        let mut sh = Shell::new();
        let h = sh.command(":help").unwrap().unwrap();
        for cmd in [
            ":load",
            ":open",
            ":insert",
            ":sync",
            ":close",
            ":classify",
            ":explain",
            ":check",
            ":datalog",
            ":budget",
            ":deadline",
            ":mem",
        ] {
            assert!(h.contains(cmd), "{h}");
        }
    }

    #[test]
    fn check_renders_certificate_for_clean_query() {
        let mut sh = loaded_shell();
        let out = sh
            .command(":check {[x:U, y:U] | G(x, y)}")
            .unwrap()
            .unwrap();
        assert!(out.contains("certificate:"), "{out}");
        assert!(out.contains("RR-(CALC_0^0)"), "{out}");
        assert!(out.contains("LOGSPACE"), "{out}");
        assert!(
            out.contains("restricted by rule 1 (Definition 5.2)"),
            "{out}"
        );
    }

    #[test]
    fn check_renders_spanned_diagnostics_with_carets() {
        let mut sh = loaded_shell();
        let out = sh.command(":check {[x:U] | H(x)}").unwrap().unwrap();
        assert!(out.contains("error[TY001]"), "{out}");
        assert!(out.contains('^'), "{out}");
        assert!(out.contains("no certificate"), "{out}");
    }

    #[test]
    fn check_analyzes_datalog_files() {
        let mut sh = loaded_shell();
        let dir = std::env::temp_dir().join("nestdb_shell_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tc.dl");
        std::fs::write(
            &path,
            "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).",
        )
        .unwrap();
        let out = sh
            .command(&format!(":check {}", path.display()))
            .unwrap()
            .unwrap();
        assert!(out.contains("inf-Datalog¬_0^0"), "{out}");
        assert!(out.contains("PTIME"), "{out}");
        assert!(sh.command(":check").is_err());
    }

    #[test]
    fn check_is_pure_under_any_budget_and_thread_count() {
        let mut sh = loaded_shell();
        // zero fuel: evaluation would trip instantly, analysis must not
        sh.config.max_steps = 0;
        let out = sh
            .command(":check {[x:U, y:U] | G(x, y)}")
            .unwrap()
            .unwrap();
        assert!(out.contains("certificate:"), "{out}");
        // …while evaluation of the same query does trip
        assert!(sh.command("{[x:U, y:U] | G(x, y)}").is_err());
    }

    #[test]
    fn parse_errors_show_caret_excerpts() {
        let mut sh = loaded_shell();
        let err = sh.command("{[x:U] | G(x,, x)}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains('^'), "{err}");
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nestdb_shell_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_open_insert_query_reopen() {
        let dir = scratch("durable");
        let d = dir.display().to_string();
        let mut sh = Shell::new();
        let out = sh.command(&format!(":open {d}")).unwrap().unwrap();
        assert!(out.contains("created"), "{out}");
        sh.command(":insert schema G(U, U).").unwrap();
        sh.command(":insert G('a', 'b').").unwrap();
        sh.command(":insert G('b', 'c').").unwrap();
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("2 rows"), "{out}");
        let out = sh.command(":save").unwrap().unwrap();
        assert!(out.contains("epoch 1"), "{out}");
        sh.command(":insert G('c', 'd').").unwrap();
        // Duplicate inserts are reported and not logged.
        let out = sh.command(":insert G('c', 'd').").unwrap().unwrap();
        assert!(out.contains("already"), "{out}");
        // Invalid mutations surface as messages, never a panic.
        assert!(sh.command(":insert H('a').").is_err());
        assert!(sh.command(":insert G('a').").is_err());
        drop(sh);

        // A fresh shell recovers: 2 checkpointed tuples + 1 replayed frame.
        let mut sh = Shell::new();
        let out = sh.command(&format!(":open {d}")).unwrap().unwrap();
        assert!(out.contains("1 relations, 3 tuples"), "{out}");
        assert!(out.contains("1 frames replayed"), "{out}");
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("3 rows"), "{out}");
        let out = sh.command(":sync").unwrap().unwrap();
        assert!(out.contains("fsynced"), "{out}");
        let out = sh.command(":close").unwrap().unwrap();
        assert!(out.contains("detached"), "{out}");
        assert!(sh.command(":sync").is_err(), "no store attached any more");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_load_imports_into_the_store() {
        let dir = scratch("import");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("graph.no");
        std::fs::write(&file, "schema G(U, U).\nG('a','b').\nG('b','c').\n").unwrap();
        let store = dir.join("store");
        let mut sh = Shell::new();
        sh.command(&format!(":open {}", store.display())).unwrap();
        let out = sh
            .command(&format!(":load {}", file.display()))
            .unwrap()
            .unwrap();
        assert!(out.contains("+1 relations, +2 tuples"), "{out}");
        drop(sh);
        let mut sh = Shell::new();
        sh.command(&format!(":open {}", store.display())).unwrap();
        let out = sh.command("{[x:U, y:U] | G(x, y)}").unwrap().unwrap();
        assert!(out.contains("2 rows"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable store at `dir` holding `G(a, b)` and the checkpointed
    /// view `paths` (transitive closure of `G`), plus a text file adding
    /// `G(b, c)`.
    fn store_with_a_view(dir: &std::path::Path) -> (String, String) {
        std::fs::create_dir_all(dir).unwrap();
        let more = dir.join("more.no");
        std::fs::write(&more, "schema G(U, U).\nG('b', 'c').\n").unwrap();
        let store = dir.join("store").display().to_string();
        let s = Session::default();
        let run = |op, text: &str, view: &str| {
            let r = s.run(&Request {
                op,
                text: text.into(),
                view: view.into(),
                ..Request::default()
            });
            assert!(r.ok, "{text}: {:?}", r.error);
        };
        run(Op::Open, &store, "");
        run(Op::Insert, "schema G(U, U).", "");
        run(Op::Insert, "G('a', 'b').", "");
        let tc = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
        run(Op::Materialize, tc, "paths");
        run(Op::Save, "", "");
        (store, more.display().to_string())
    }

    /// Reopen `store` and insert `G(c, d)`: the views it restores, and
    /// the rows the insert adds to `paths`.
    fn reopen_and_extend(store: &str) -> (Vec<String>, usize) {
        let s = Session::default();
        let op = |op, text: &str| Request {
            op,
            text: text.into(),
            ..Request::default()
        };
        assert!(s.run(&op(Op::Open, store)).ok);
        let stats = s.run(&op(Op::Stats, "")).stats.unwrap();
        let views = stats.views.into_iter().map(|v| v.view).collect();
        let r = s.run(&op(Op::Update, "G('c', 'd')."));
        assert!(r.ok, "{:?}", r.error);
        let added = r.deltas.first().map_or(0, |d| d.added[0].rows.len());
        (views, added)
    }

    #[test]
    fn load_into_a_durable_store_keeps_its_views_current() {
        let dir = scratch("load_views");
        let (store, more) = store_with_a_view(&dir);
        let mut sh = Shell::new();
        sh.command(&format!(":open {store}")).unwrap();
        let out = sh.command(&format!(":load {more}")).unwrap().unwrap();
        assert!(out.contains("+0 relations, +1 tuples"), "{out}");
        let out = sh.command(":save").unwrap().unwrap();
        assert!(out.contains("1 views checkpointed"), "{out}");
        drop(sh);
        // the checkpointed view holds (b, c) and (a, c), so G(c, d) adds
        // (c, d), (b, d) and (a, d)
        assert_eq!(reopen_and_extend(&store), (vec!["paths".to_string()], 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_file_into_keeps_the_directorys_views() {
        let dir = scratch("save_views");
        let (store, more) = store_with_a_view(&dir);
        let out = Shell::new().save_file_into(&more, &store).unwrap();
        assert!(out.contains("views restored: 1"), "{out}");
        assert!(out.contains("1 views checkpointed"), "{out}");
        assert_eq!(reopen_and_extend(&store), (vec!["paths".to_string()], 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The views a session lists.
    fn view_names(s: &Session) -> Vec<String> {
        let r = s.run(&Request {
            op: Op::Stats,
            ..Request::default()
        });
        r.stats.unwrap().views.into_iter().map(|v| v.view).collect()
    }

    /// `:close` takes the directory's views with the database. They used
    /// to stay registered over the in-memory store, where their rows'
    /// atom ids name other atoms: `G('x', 'y')` got no delta, since the
    /// view already held `tc(a, b)` under `x`'s and `y`'s new ids.
    #[test]
    fn close_takes_the_views_with_the_database() {
        let dir = scratch("close_views");
        let (store, _) = store_with_a_view(&dir);
        let mut sh = Shell::new();
        sh.command(&format!(":open {store}")).unwrap();
        assert_eq!(view_names(&sh.session), ["paths"]);
        let out = sh.command(":close").unwrap().unwrap();
        assert!(out.contains("its views closed with it: paths"), "{out}");
        assert!(view_names(&sh.session).is_empty());
        // a view materialized over the in-memory store answers in its atoms
        sh.command(":insert schema G(U, U).").unwrap();
        let tc = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
        let r = sh.session.run(&Request {
            op: Op::Materialize,
            text: tc.into(),
            view: "paths".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let r = sh.session.run(&Request {
            op: Op::Update,
            text: "G('x', 'y').".into(),
            ..Request::default()
        });
        assert_eq!(r.deltas[0].added[0].rows, ["('x', 'y')"]);
        // the directory still holds its own
        let out = sh.command(&format!(":open {store}")).unwrap().unwrap();
        assert!(out.contains("views restored: 1"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each database keeps its own views: `:open` sets the in-memory
    /// store's views aside and `:close` brings them back, so an update
    /// after `:close` pushes their delta again.
    #[test]
    fn close_brings_back_the_in_memory_views() {
        let dir = scratch("memory_views");
        let store = dir.join("store").display().to_string();
        let mut sh = Shell::new();
        sh.command(":insert schema G(U, U).").unwrap();
        sh.command(":insert G('a', 'b').").unwrap();
        let tc = "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).";
        let r = sh.session.run(&Request {
            op: Op::Materialize,
            text: tc.into(),
            view: "paths".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        let out = sh.command(&format!(":open {store}")).unwrap().unwrap();
        assert!(
            out.contains("in-memory views set aside until close: paths"),
            "{out}"
        );
        assert!(view_names(&sh.session).is_empty());
        sh.command(":close").unwrap();
        assert_eq!(view_names(&sh.session), ["paths"]);
        let r = sh.session.run(&Request {
            op: Op::Update,
            text: "G('b', 'c').".into(),
            ..Request::default()
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.deltas[0].added[0].rows, ["('a', 'c')", "('b', 'c')"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `op: open` of a second directory swaps the first one's views out
    /// with its database: the second starts with none.
    #[test]
    fn a_second_directory_does_not_inherit_the_firsts_views() {
        let dir = scratch("second_dir");
        let (store, _) = store_with_a_view(&dir);
        let other = dir.join("other").display().to_string();
        let s = Session::default();
        let run = |op, text: &str| {
            let r = s.run(&Request {
                op,
                text: text.into(),
                ..Request::default()
            });
            assert!(r.ok, "{text}: {:?}", r.error);
            r
        };
        run(Op::Open, &store);
        assert_eq!(view_names(&s), ["paths"]);
        run(Op::Open, &other);
        assert!(view_names(&s).is_empty());
        run(Op::Insert, "schema G(U, U).");
        assert!(run(Op::Update, "G('a', 'b').").deltas.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_open_reports_corruption_without_panic() {
        let dir = scratch("corrupt");
        let d = dir.display().to_string();
        let mut sh = Shell::new();
        sh.command(&format!(":open {d}")).unwrap();
        sh.command(":insert schema G(U, U).").unwrap();
        sh.command(":insert G('a', 'b').").unwrap();
        sh.command(":insert G('b', 'c').").unwrap();
        sh.command(":close").unwrap();
        // Flip a payload byte of the first frame — live frames follow, so
        // this is mid-log corruption and :open must refuse, structurally.
        let wal = dir.join(no_storage::WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        let at =
            no_storage::wal::WAL_HEADER_LEN as usize + no_storage::wal::FRAME_OVERHEAD as usize + 2;
        bytes[at] ^= 0x20;
        std::fs::write(&wal, &bytes).unwrap();
        let err = sh.command(&format!(":open {d}")).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        assert!(err.contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
