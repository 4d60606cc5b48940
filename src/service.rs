//! Glue between [`Session`] and the TCP server in [`no_server`]: a
//! [`Handler`] implementation over a shared [`Store`], plus the
//! [`serve`] entry point behind `nestdb serve`.
//!
//! Every request runs under a *fresh* governor (session limits overlaid
//! with the request's own `limits`), whose cancel switch is registered on
//! the server's [`CancelToken`] — when a client disconnects mid-query,
//! the governor trips at its next checkpoint and the evaluation unwinds
//! as an ordinary resource error instead of burning fuel for nobody.

use crate::session::{Session, Store};
use no_proto::{Request, Response};
use no_server::{CancelToken, Handler, Server, ServerConfig};
use std::sync::{Arc, RwLock};

/// The [`Handler`] the nestdb server runs: one shared [`Session`] (store,
/// plan cache) answering every connection's requests.
#[derive(Debug, Clone)]
pub struct SessionHandler {
    session: Session,
}

impl SessionHandler {
    /// Wrap a session. All connections share its store and plan cache;
    /// each request gets a fresh governor derived from its limits.
    pub fn new(session: Session) -> SessionHandler {
        SessionHandler { session }
    }

    /// The underlying session (e.g. for tests to inspect the store).
    pub fn session(&self) -> &Session {
        &self.session
    }
}

impl Handler for SessionHandler {
    fn handle(&self, req: &Request, cancel: &CancelToken) -> Response {
        let governor = self.session.governor_for(req);
        let switch = governor.clone();
        cancel.on_cancel(move || switch.cancel());
        self.session.run_governed(req, governor)
    }
}

/// Bind `addr` and serve the store behind `session` until the process
/// exits. Returns the bound server handle; call
/// [`Server::join`](no_server::Server::join) to block the foreground
/// process on it.
pub fn serve(addr: &str, session: Session, config: ServerConfig) -> std::io::Result<Server> {
    let handler: Arc<dyn Handler> = Arc::new(SessionHandler::new(session));
    Server::bind(addr, handler, config)
}

/// A server over an empty in-memory store — the `nestdb serve` default
/// when no `--db` is given.
pub fn serve_in_memory(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
    let store = Arc::new(RwLock::new(Store::new()));
    let session = Session::builder().store(store).build();
    serve(addr, session, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_proto::{Lang, LimitsSpec, Op};
    use no_server::Client;

    fn graph_server() -> Server {
        let server = serve_in_memory("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for clause in ["schema G(U, U).", "G('a', 'b').", "G('b', 'c')."] {
            let req = Request {
                op: Op::Insert,
                text: clause.to_string(),
                ..Request::default()
            };
            let resp = client.roundtrip(&req).unwrap();
            assert!(resp.ok, "{:?}", resp.error);
        }
        server
    }

    #[test]
    fn a_served_session_answers_calc_over_tcp() {
        let server = graph_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client
            .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
            .unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.relations.len(), 1);
        assert_eq!(resp.relations[0].rows_json, r#"[["a","b"],["b","c"]]"#);
        assert!(resp.spend.is_some());
        server.shutdown();
    }

    #[test]
    fn mutations_from_one_connection_are_visible_to_another() {
        let server = graph_server();
        // graph_server inserted on its own connection, now closed; a
        // fresh connection must see the same store
        let mut other = Client::connect(server.local_addr()).unwrap();
        let resp = other
            .roundtrip(&Request::eval(Lang::Calc, "{[x:U, y:U] | G(x, y)}"))
            .unwrap();
        assert!(resp.ok);
        assert_eq!(resp.relations[0].rows.len(), 2);
        server.shutdown();
    }

    #[test]
    fn per_request_limits_trip_as_resource_errors_over_the_wire() {
        let server = graph_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = Request::eval(
            Lang::Datalog,
            "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).",
        );
        req.limits = Some(LimitsSpec {
            max_steps: Some(1),
            ..LimitsSpec::default()
        });
        let resp = client.roundtrip(&req).unwrap();
        assert!(!resp.ok);
        let err = resp.error.as_ref().unwrap();
        assert_eq!(err.kind, "resource");
        assert!(err.resource_trip);
        server.shutdown();
    }

    #[test]
    fn a_prefired_cancel_token_aborts_before_evaluation() {
        let store = Arc::new(RwLock::new(Store::new()));
        let mut guard = store.write().unwrap();
        for clause in ["schema G(U, U).", "G('a', 'b').", "G('b', 'c')."] {
            let parsed = crate::object::text::parse_clause(clause, guard.universe_mut()).unwrap();
            guard.apply_clause(parsed).unwrap();
        }
        drop(guard);
        let session = Session::builder().store(store).build();
        let handler = SessionHandler::new(session);
        let token = CancelToken::new();
        token.cancel();
        let req = Request::eval(
            Lang::Datalog,
            "rel tc(U, U).\ntc(x, y) :- G(x, y).\ntc(x, y) :- tc(x, z), G(z, y).",
        );
        let resp = handler.handle(&req, &token);
        assert!(!resp.ok);
        assert!(
            resp.error.as_ref().unwrap().resource_trip,
            "{:?}",
            resp.error
        );
    }
}
