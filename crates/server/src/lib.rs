//! # `no-server` — the nestdb TCP query service
//!
//! A std-only server speaking the `no-proto` wire protocol: one
//! newline-delimited canonical-JSON [`Request`] per line in, one
//! [`Response`] line out, over plain TCP. The crate is engine-agnostic —
//! it drives any [`Handler`] (the `nestdb` crate provides the
//! `Session`-backed one in its `service` module) and owns everything
//! *around* evaluation:
//!
//! - **Concurrency**: thread-per-connection, with pipelining (a client may
//!   send several requests before reading responses; they execute in
//!   order, responses come back in order).
//! - **Admission control**: per-tenant token buckets denominated in
//!   governor *steps* — the same fuel the evaluation engines spend. A
//!   tenant whose bucket is empty gets `kind: "rejected"` with
//!   `retry_after_ms` instead of a thread; admitted requests settle their
//!   actual [`Spend`](no_proto::Spend) against the bucket afterwards, so
//!   expensive queries genuinely cost more than cheap ones.
//! - **Cancellation**: each connection has a reader thread that notices
//!   EOF the moment the client disconnects and fires the in-flight
//!   request's [`CancelToken`]; a [`Handler`] wires that token to its
//!   governor, so abandoned queries stop burning fuel mid-fixpoint.
//! - **Metrics**: request/rejection/trip counters, a fixed-bucket latency
//!   histogram (p50/p99 without unbounded memory), a live connection
//!   gauge, and per-tenant accounting — all served back through
//!   `op: "stats"`.
//! - **Live view subscriptions**: `op: "subscribe"` registers the
//!   connection for a maintained view; whenever any connection's
//!   mutation changes that view, subscribers receive an unsolicited
//!   push line (`event: "delta"`) carrying the view's net change. The
//!   handler validates the view; the server owns the fan-out table, so
//!   subscriptions are connection-scoped and die with the socket.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use conc::{AtomicBool, AtomicU64, Mutex};
use no_proto::{DeltaOut, Op, Request, Response};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

pub mod admission;
use admission::TokenBuckets;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

struct HookState {
    fired: bool,
    hooks: Vec<Box<dyn Fn() + Send + Sync>>,
}

struct CancelInner {
    cancelled: AtomicBool,
    state: Mutex<HookState>,
}

impl Default for CancelInner {
    fn default() -> CancelInner {
        CancelInner {
            cancelled: AtomicBool::new(false),
            state: Mutex::new_named(
                "server.cancel_hooks",
                HookState {
                    fired: false,
                    hooks: Vec::new(),
                },
            ),
        }
    }
}

/// A cooperative cancellation token: the server fires it when the client
/// behind an in-flight request disconnects; handlers register hooks (e.g.
/// tripping a governor) so evaluation stops at its next checkpoint.
///
/// Every hook runs **exactly once** no matter how the races fall: the
/// `fired` flag lives under the hooks lock, [`CancelToken::cancel`]
/// drains the registered hooks while flipping it (so a second or
/// concurrent `cancel()` finds nothing left to run), and a hook
/// registered after the fact is run by the registering thread itself.
/// Hooks always run *outside* the lock, so a hook may freely touch the
/// token again.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire the token: set the flag and run every registered hook.
    /// Idempotent — only the first `cancel()` runs hooks.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::SeqCst);
        let to_run = {
            let mut st = self.0.state.lock();
            if st.fired {
                Vec::new()
            } else {
                st.fired = true;
                std::mem::take(&mut st.hooks)
            }
        };
        for hook in &to_run {
            hook();
        }
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::SeqCst)
    }

    /// Register a hook to run when the token fires. A hook registered
    /// after the fact runs immediately on this thread — there is no
    /// lost-wakeup window, and no schedule in which it runs twice.
    pub fn on_cancel(&self, hook: impl Fn() + Send + Sync + 'static) {
        let mut st = self.0.state.lock();
        if st.fired {
            drop(st);
            hook();
        } else {
            st.hooks.push(Box::new(hook));
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// What the server drives: anything that can answer one [`Request`].
/// `handle` runs concurrently from many connection threads; it must not
/// panic on any input (failures are error [`Response`]s) and should wire
/// `cancel` to its evaluation budget so a fired token aborts promptly.
pub trait Handler: Send + Sync + 'static {
    /// Execute one request.
    fn handle(&self, req: &Request, cancel: &CancelToken) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request, &CancelToken) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request, cancel: &CancelToken) -> Response {
        self(req, cancel)
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Admission-control knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Token-bucket capacity per tenant, in governor steps. A fresh
    /// tenant starts with a full bucket.
    pub tenant_capacity_steps: u64,
    /// Bucket refill rate, in steps per second.
    pub tenant_refill_steps_per_sec: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // generous enough that interactive use never sees a rejection
            // unless the operator asks for a tighter budget
            tenant_capacity_steps: 50_000_000,
            tenant_refill_steps_per_sec: 5_000_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Upper bounds (µs) of the fixed latency-histogram buckets; the last
/// bucket is open-ended. Percentiles are reported as bucket upper bounds,
/// which is the precision `StatsOut` documents.
const LAT_BOUNDS_US: [u64; 18] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    u64::MAX,
];

#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    rejected: u64,
    trips: u64,
    latency: [u64; LAT_BOUNDS_US.len()],
}

/// Shared server metrics: global counters behind one named mutex
/// (requests are milliseconds-scale, contention is negligible), the
/// per-tenant [`TokenBuckets`] table behind its own, plus an atomic
/// live-connection gauge. The two locks are never held together, so the
/// lock-order graph stays edge-free here by construction.
#[derive(Debug)]
struct Metrics {
    counters: Mutex<Counters>,
    buckets: TokenBuckets,
    connections: AtomicU64,
}

impl Metrics {
    fn new(cfg: &ServerConfig) -> Metrics {
        Metrics {
            counters: Mutex::new_named("server.counters", Counters::default()),
            buckets: TokenBuckets::new(cfg.tenant_capacity_steps, cfg.tenant_refill_steps_per_sec),
            connections: AtomicU64::new(0),
        }
    }

    /// Admit or reject a request for `tenant`; `Err(retry_after_ms)` is a
    /// rejection.
    fn admit(&self, tenant: &str) -> Result<(), u64> {
        self.counters.lock().requests += 1;
        self.buckets.admit(tenant).inspect_err(|_| {
            self.counters.lock().rejected += 1;
        })
    }

    /// Settle an admitted request: deduct its spend from the tenant's
    /// bucket, record trips and latency.
    fn settle(&self, tenant: &str, resp: &Response, elapsed: Duration) {
        let tripped = resp.error.as_ref().is_some_and(|e| e.resource_trip);
        let steps = resp.spend.as_ref().map_or(0, |s| s.steps);
        {
            let mut c = self.counters.lock();
            if tripped {
                c.trips += 1;
            }
            let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            let slot = LAT_BOUNDS_US
                .iter()
                .position(|&bound| us <= bound)
                .unwrap_or(LAT_BOUNDS_US.len() - 1);
            c.latency[slot] += 1;
        }
        self.buckets.settle(tenant, steps, tripped);
    }

    fn percentile(latency: &[u64; LAT_BOUNDS_US.len()], p: f64) -> u64 {
        let total: u64 = latency.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in latency.iter().enumerate() {
            seen += n;
            if seen >= target {
                return LAT_BOUNDS_US[i];
            }
        }
        LAT_BOUNDS_US[LAT_BOUNDS_US.len() - 1]
    }

    /// Overlay server-side counters onto a handler `op: Stats` response
    /// (which already carries the plan-cache hit/miss counters).
    fn overlay(&self, resp: &mut Response) {
        let mut stats = resp.stats.take().unwrap_or_default();
        {
            let c = self.counters.lock();
            stats.requests = c.requests;
            stats.rejected = c.rejected;
            stats.trips = c.trips;
            stats.p50_us = Self::percentile(&c.latency, 0.50);
            stats.p99_us = Self::percentile(&c.latency, 0.99);
        }
        stats.connections = self.connections.load(Ordering::SeqCst);
        stats.tenants = self.buckets.snapshot();
        resp.stats = Some(stats);
        resp.ok = true;
        resp.error = None;
    }
}

// ---------------------------------------------------------------------------
// Subscriptions
// ---------------------------------------------------------------------------

/// A connection's write half, shared between its executor thread (reply
/// lines) and publishers on other connections (push lines). Every line
/// is written and flushed under the lock, so replies and pushes
/// interleave only at line granularity. The server's connections write
/// to their sockets; the concheck corpus's write to memory.
type SharedWriter<W = BufWriter<TcpStream>> = Arc<Mutex<W>>;

/// A connection's [`SharedWriter`], in the lock class lockdep knows it by.
fn conn_writer<W>(w: W) -> SharedWriter<W> {
    Arc::new(Mutex::new_named("server.conn_writer", w))
}

/// The server-wide fan-out table: view name → subscribed connections.
/// The handler decides whether a subscribe is valid (the view must
/// exist); this table only routes deltas. The shipped code never holds
/// `server.subscriptions` and a `server.conn_writer` at once: publishers
/// snapshot the target writers and write outside the table lock.
struct Subscriptions<W = BufWriter<TcpStream>> {
    table: Mutex<BTreeMap<String, Subscribers<W>>>,
}

/// One view's subscribed connections: id and write half.
type Subscribers<W> = Vec<(u64, SharedWriter<W>)>;

impl<W: Write> Subscriptions<W> {
    fn new() -> Subscriptions<W> {
        Subscriptions {
            table: Mutex::new_named("server.subscriptions", BTreeMap::new()),
        }
    }

    fn subscribe(&self, view: &str, conn: u64, writer: SharedWriter<W>) {
        // The planted bug: register while holding the connection's
        // writer (`server.conn_writer` → `server.subscriptions`).
        #[cfg(feature = "concheck")]
        let acking = concheck::planted().then(|| Arc::clone(&writer));
        #[cfg(feature = "concheck")]
        let _ack = acking.as_ref().map(|w| w.lock());
        let mut t = self.table.lock();
        let subs = t.entry(view.to_string()).or_default();
        if !subs.iter().any(|(id, _)| *id == conn) {
            subs.push((conn, writer));
        }
    }

    fn unsubscribe(&self, view: &str, conn: u64) {
        let mut t = self.table.lock();
        if let Some(subs) = t.get_mut(view) {
            subs.retain(|(id, _)| *id != conn);
            if subs.is_empty() {
                t.remove(view);
            }
        }
    }

    /// Remove every subscription a closed connection held.
    fn drop_conn(&self, conn: u64) {
        let mut t = self.table.lock();
        t.retain(|_, subs| {
            subs.retain(|(id, _)| *id != conn);
            !subs.is_empty()
        });
    }

    /// Push each view's delta to its subscribers, except the connection
    /// that caused it (its own reply already carries the deltas). A
    /// subscriber whose socket is dead is dropped from the table.
    fn publish(&self, deltas: &[DeltaOut], from_conn: u64) {
        for delta in deltas {
            let targets: Subscribers<W> = {
                let t = self.table.lock();
                match t.get(&delta.view) {
                    Some(subs) => subs
                        .iter()
                        .filter(|(id, _)| *id != from_conn)
                        .cloned()
                        .collect(),
                    None => continue,
                }
            };
            if targets.is_empty() {
                continue;
            }
            let push = Response {
                ok: true,
                event: Some("delta".to_string()),
                deltas: vec![delta.clone()],
                ..Response::default()
            };
            let mut line = push.to_json();
            line.push('\n');
            let mut dead = Vec::new();
            {
                // The planted bug's other half: write under the table
                // lock (`server.subscriptions` → `server.conn_writer`).
                #[cfg(feature = "concheck")]
                let _table = concheck::planted().then(|| self.table.lock());
                for (id, writer) in &targets {
                    let mut w = writer.lock();
                    if w.write_all(line.as_bytes())
                        .and_then(|()| w.flush())
                        .is_err()
                    {
                        dead.push(*id);
                    }
                }
            }
            for id in dead {
                self.unsubscribe(&delta.view, id);
            }
        }
    }
}

/// The concurrency sanitizer's hold on the fan-out table (DESIGN.md
/// §16), compiled only with `--features concheck`: connections that
/// write to memory, and a planted ABBA on the table and writer locks
/// that lockdep and the model checker must both convict.
#[cfg(feature = "concheck")]
pub mod concheck {
    use super::{conn_writer, SharedWriter, Subscriptions};
    use conc::AtomicBool;
    use no_proto::DeltaOut;
    use std::sync::atomic::Ordering;

    static PLANTED: AtomicBool = AtomicBool::new(false);

    /// Plant (or remove) the inverted lock order: `subscribe` registers
    /// while holding the subscriber's writer, and `publish` writes while
    /// holding the table.
    pub fn set_planted_abba(on: bool) {
        PLANTED.store(on, Ordering::SeqCst);
    }

    pub(crate) fn planted() -> bool {
        PLANTED.load(Ordering::SeqCst)
    }

    /// A connection's write half, writing to memory.
    pub type Writer = SharedWriter<Vec<u8>>;

    /// The server's subscription table over in-memory connections.
    pub struct Fanout(Subscriptions<Vec<u8>>);

    impl Default for Fanout {
        fn default() -> Self {
            Fanout(Subscriptions::new())
        }
    }

    impl Fanout {
        /// A new connection's writer.
        pub fn connection() -> Writer {
            conn_writer(Vec::new())
        }

        /// Connection `conn` subscribes to `view`.
        pub fn subscribe(&self, view: &str, conn: u64, writer: &Writer) {
            self.0.subscribe(view, conn, Writer::clone(writer));
        }

        /// Connection `from_conn` changes `view`: push an empty delta to
        /// its other subscribers.
        pub fn publish(&self, view: &str, from_conn: u64) {
            let delta = DeltaOut {
                view: view.to_string(),
                ..DeltaOut::default()
            };
            self.0.publish(&[delta], from_conn);
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running nestdb server: an accept loop plus one reader/executor
/// thread pair per live connection. Dropping the handle (or calling
/// [`Server::shutdown`]) stops accepting; established connections drain
/// on their own when their clients disconnect.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral test port) and
    /// start serving `handler` on background threads.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::new(&config));
        let subs = Arc::new(Subscriptions::new());
        let accept = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || accept_loop(listener, handler, metrics, subs, stop))
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept loop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block forever serving requests (the accept loop never exits on its
    /// own); for the `nestdb serve` foreground process.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    metrics: Arc<Metrics>,
    subs: Arc<Subscriptions>,
    stop: Arc<AtomicBool>,
) {
    let mut next_conn_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(&handler);
                let metrics = Arc::clone(&metrics);
                let subs = Arc::clone(&subs);
                let conn_id = next_conn_id;
                next_conn_id += 1;
                thread::spawn(move || {
                    metrics.connections.fetch_add(1, Ordering::SeqCst);
                    let _ = serve_connection(stream, handler, &metrics, &subs, conn_id);
                    subs.drop_conn(conn_id);
                    metrics.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // nonblocking accept so the loop can observe `stop`
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One connection: a dedicated reader thread feeds request lines through
/// a channel (and fires the in-flight [`CancelToken`] the instant the
/// socket hits EOF), while this thread executes requests in order and
/// writes response lines back.
fn serve_connection(
    stream: TcpStream,
    handler: Arc<dyn Handler>,
    metrics: &Metrics,
    subs: &Subscriptions,
    conn_id: u64,
) -> io::Result<()> {
    let read_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<String>();
    let in_flight: Arc<Mutex<Option<CancelToken>>> =
        Arc::new(Mutex::new_named("server.in_flight", None));
    let reader = {
        let in_flight = Arc::clone(&in_flight);
        thread::spawn(move || {
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // disconnect
                    Ok(_) => {
                        if tx.send(std::mem::take(&mut line)).is_err() {
                            break; // executor is gone
                        }
                    }
                }
            }
            // the client is gone: abort whatever is running for it
            let current = in_flight.lock().take();
            if let Some(token) = current {
                token.cancel();
            }
        })
    };
    let out: SharedWriter = conn_writer(BufWriter::new(stream));
    while let Ok(line) = rx.recv() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let resp = process_line(
            line,
            handler.as_ref(),
            metrics,
            &in_flight,
            subs,
            conn_id,
            &out,
        );
        let mut encoded = resp.to_json();
        encoded.push('\n');
        let written = {
            let mut w = out.lock();
            w.write_all(encoded.as_bytes()).and_then(|()| w.flush())
        };
        if written.is_err() {
            break;
        }
    }
    drop(rx);
    let _ = reader.join();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn process_line(
    line: &str,
    handler: &dyn Handler,
    metrics: &Metrics,
    in_flight: &Mutex<Option<CancelToken>>,
    subs: &Subscriptions,
    conn_id: u64,
    writer: &SharedWriter,
) -> Response {
    let req = match Request::from_json(line) {
        Ok(r) => r,
        Err(e) => return Response::error("protocol", format!("bad request: {e}")),
    };
    if req.op == Op::Stats {
        // introspection is never admission-controlled and never counted
        let mut resp = handler.handle(&req, &CancelToken::new());
        metrics.overlay(&mut resp);
        return resp;
    }
    // every other op — including Materialize/Update maintenance work —
    // pays admission in governor steps like any query
    if let Err(retry_ms) = metrics.admit(&req.tenant) {
        let mut resp = Response::error(
            "rejected",
            format!(
                "tenant {:?} is out of budget; retry in {retry_ms} ms",
                req.tenant
            ),
        );
        if let Some(err) = resp.error.as_mut() {
            err.retry_after_ms = Some(retry_ms);
        }
        return resp;
    }
    let token = CancelToken::new();
    *in_flight.lock() = Some(token.clone());
    let start = Instant::now();
    let resp = handler.handle(&req, &token);
    in_flight.lock().take();
    metrics.settle(&req.tenant, &resp, start.elapsed());
    if resp.ok {
        // the handler validated; the server owns connection-scoped state
        match req.op {
            Op::Subscribe => subs.subscribe(&req.view, conn_id, Arc::clone(writer)),
            Op::Unsubscribe => subs.unsubscribe(&req.view, conn_id),
            _ => {}
        }
        if !resp.deltas.is_empty() {
            // fan out BEFORE the originator's reply is written: once the
            // mutating client sees its response, every subscriber's push
            // is already on the wire
            subs.publish(&resp.deltas, conn_id);
        }
    }
    resp
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A minimal blocking protocol client, shared by the load generator and
/// the integration tests: one request line out, one response line back.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one request line without waiting for the response
    /// (pipelining).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        let mut line = req.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Send one raw line, newline appended (for protocol-error tests).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Read one response line.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::from_json(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Send one request and wait for its response.
    pub fn roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conc::AtomicUsize;
    use no_proto::{Lang, Spend};

    /// Echoes the request text back and reports a fixed spend.
    struct Echo {
        steps_per_request: u64,
        calls: AtomicUsize,
    }

    impl Handler for Echo {
        fn handle(&self, req: &Request, _cancel: &CancelToken) -> Response {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut resp = Response::message(format!("echo: {}", req.text));
            resp.spend = Some(Spend {
                steps: self.steps_per_request,
                mem_bytes: 0,
                elapsed_us: 1,
            });
            resp
        }
    }

    fn echo_server(steps: u64, config: ServerConfig) -> (Server, Arc<Echo>) {
        let handler = Arc::new(Echo {
            steps_per_request: steps,
            calls: AtomicUsize::new(0),
        });
        let server = Server::bind("127.0.0.1:0", handler.clone(), config).unwrap();
        (server, handler)
    }

    #[test]
    fn round_trip_and_pipelining() {
        let (server, _h) = echo_server(1, ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client
            .roundtrip(&Request::eval(Lang::Calc, "hello"))
            .unwrap();
        assert!(resp.ok);
        assert_eq!(resp.message.as_deref(), Some("echo: hello"));
        // pipelining: send three, then read three, in order
        for i in 0..3 {
            client
                .send(&Request::eval(Lang::Calc, format!("q{i}")))
                .unwrap();
        }
        for i in 0..3 {
            let resp = client.recv().unwrap();
            assert_eq!(
                resp.message.as_deref(),
                Some(format!("echo: q{i}").as_str())
            );
        }
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_protocol_errors_and_the_connection_survives() {
        let (server, _h) = echo_server(1, ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send_raw("this is not json").unwrap();
        let resp = client.recv().unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error.as_ref().unwrap().kind, "protocol");
        // still serving
        let resp = client.roundtrip(&Request::eval(Lang::Calc, "ok")).unwrap();
        assert!(resp.ok);
        server.shutdown();
    }

    #[test]
    fn admission_control_rejects_with_retry_after() {
        // capacity 10 steps, each request spends 10: the second request
        // inside the refill window must be rejected
        let cfg = ServerConfig {
            tenant_capacity_steps: 10,
            tenant_refill_steps_per_sec: 1,
        };
        let (server, _h) = echo_server(10, cfg);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = Request::eval(Lang::Calc, "q");
        req.tenant = "acme".to_string();
        assert!(client.roundtrip(&req).unwrap().ok);
        let resp = client.roundtrip(&req).unwrap();
        assert!(!resp.ok);
        let err = resp.error.as_ref().unwrap();
        assert_eq!(err.kind, "rejected");
        assert!(err.retry_after_ms.unwrap() >= 1);
        // another tenant has its own bucket and is unaffected
        let mut other = Request::eval(Lang::Calc, "q");
        other.tenant = "zen".to_string();
        assert!(client.roundtrip(&other).unwrap().ok);
        server.shutdown();
    }

    #[test]
    fn stats_reports_counters_and_tenants() {
        let cfg = ServerConfig {
            tenant_capacity_steps: 10,
            tenant_refill_steps_per_sec: 1,
        };
        let (server, _h) = echo_server(10, cfg);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = Request::eval(Lang::Calc, "q");
        req.tenant = "acme".to_string();
        client.roundtrip(&req).unwrap();
        client.roundtrip(&req).unwrap(); // rejected
        let stats_req = Request {
            op: Op::Stats,
            ..Request::default()
        };
        let resp = client.roundtrip(&stats_req).unwrap();
        assert!(resp.ok);
        let stats = resp.stats.as_ref().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.connections, 1);
        assert!(stats.p50_us > 0);
        assert!(stats.p99_us >= stats.p50_us);
        let acme = stats.tenants.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(acme.requests, 1);
        assert_eq!(acme.rejected, 1);
        assert_eq!(acme.spent_steps, 10);
        server.shutdown();
    }

    #[test]
    fn disconnect_fires_the_inflight_cancel_token() {
        struct Blocker {
            cancelled: Arc<AtomicBool>,
        }
        impl Handler for Blocker {
            fn handle(&self, _req: &Request, cancel: &CancelToken) -> Response {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !cancel.is_cancelled() {
                    if Instant::now() > deadline {
                        return Response::error("eval", "never cancelled");
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                self.cancelled.store(true, Ordering::SeqCst);
                Response::error("resource", "cancelled")
            }
        }
        let cancelled = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(Blocker {
            cancelled: Arc::clone(&cancelled),
        });
        let server = Server::bind("127.0.0.1:0", handler, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send(&Request::eval(Lang::Calc, "block")).unwrap();
        thread::sleep(Duration::from_millis(50)); // let the request start
        drop(client); // disconnect mid-request
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cancelled.load(Ordering::SeqCst) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(cancelled.load(Ordering::SeqCst), "token never fired");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_their_own_answers() {
        let (server, h) = echo_server(1, ServerConfig::default());
        let addr = server.local_addr();
        let threads: Vec<_> = (0..16)
            .map(|i| {
                thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for j in 0..10 {
                        let text = format!("client{i}-req{j}");
                        let resp = client.roundtrip(&Request::eval(Lang::Calc, &text)).unwrap();
                        assert_eq!(
                            resp.message.as_deref(),
                            Some(format!("echo: {text}").as_str())
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.calls.load(Ordering::SeqCst), 160);
        server.shutdown();
    }

    #[test]
    fn cancel_token_runs_hooks_registered_before_and_after_firing() {
        let token = CancelToken::new();
        let a = Arc::new(AtomicBool::new(false));
        let a2 = Arc::clone(&a);
        token.on_cancel(move || a2.store(true, Ordering::SeqCst));
        token.cancel();
        assert!(a.load(Ordering::SeqCst));
        let b = Arc::new(AtomicBool::new(false));
        let b2 = Arc::clone(&b);
        token.on_cancel(move || b2.store(true, Ordering::SeqCst));
        assert!(b.load(Ordering::SeqCst), "late hooks fire immediately");
    }

    /// Accepts every subscribe; answers `Update` with a one-view delta.
    struct Viewy;

    impl Handler for Viewy {
        fn handle(&self, req: &Request, _cancel: &CancelToken) -> Response {
            match req.op {
                Op::Subscribe => Response::message(format!("subscribed to view {}", req.view)),
                Op::Unsubscribe => {
                    Response::message(format!("unsubscribed from view {}", req.view))
                }
                Op::Update => {
                    let mut resp = Response::message("applied 1 mutations");
                    resp.deltas = vec![DeltaOut {
                        view: "paths".to_string(),
                        added: vec![no_proto::RelationOut {
                            name: "tc".to_string(),
                            rows: vec![format!("('a', {})", req.text)],
                            rows_json: no_proto::RowsJson::parse(&format!(
                                "[[\"a\",{}]]",
                                no_proto::escape(&req.text)
                            ))
                            .expect("one row, escaped"),
                        }],
                        removed: Vec::new(),
                    }];
                    resp
                }
                _ => Response::message("ok"),
            }
        }
    }

    fn sub_request(view: &str) -> Request {
        Request {
            op: Op::Subscribe,
            view: view.to_string(),
            ..Request::default()
        }
    }

    #[test]
    fn subscribers_get_pushed_deltas_from_other_connections() {
        let server = Server::bind("127.0.0.1:0", Arc::new(Viewy), ServerConfig::default()).unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        let mut mutator = Client::connect(server.local_addr()).unwrap();
        assert!(watcher.roundtrip(&sub_request("paths")).unwrap().ok);

        let update = Request {
            op: Op::Update,
            text: "'b'".to_string(),
            ..Request::default()
        };
        let reply = mutator.roundtrip(&update).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.deltas.len(), 1);
        assert!(reply.event.is_none(), "a direct reply is not an event");

        // the mutator's reply arriving means the push is already sent
        let push = watcher.recv().unwrap();
        assert_eq!(push.event.as_deref(), Some("delta"));
        assert_eq!(push.deltas.len(), 1);
        assert_eq!(push.deltas[0].view, "paths");
        assert_eq!(push.deltas[0].added[0].rows, vec!["('a', 'b')".to_string()]);

        // unsubscribing stops the stream: the next thing the watcher
        // reads after another update must be its own stats reply
        assert!(
            watcher
                .roundtrip(&Request {
                    op: Op::Unsubscribe,
                    view: "paths".to_string(),
                    ..Request::default()
                })
                .unwrap()
                .ok
        );
        assert!(mutator.roundtrip(&update).unwrap().ok);
        let resp = watcher
            .roundtrip(&Request {
                op: Op::Stats,
                ..Request::default()
            })
            .unwrap();
        assert!(resp.event.is_none(), "push arrived after unsubscribe");
        assert!(resp.stats.is_some());
        server.shutdown();
    }

    #[test]
    fn mutators_do_not_get_their_own_deltas_pushed_back() {
        let server = Server::bind("127.0.0.1:0", Arc::new(Viewy), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(client.roundtrip(&sub_request("paths")).unwrap().ok);
        // the reply carries the delta; no separate push line follows
        let reply = client
            .roundtrip(&Request {
                op: Op::Update,
                text: "'x'".to_string(),
                ..Request::default()
            })
            .unwrap();
        assert_eq!(reply.deltas.len(), 1);
        let resp = client
            .roundtrip(&Request {
                op: Op::Stats,
                ..Request::default()
            })
            .unwrap();
        assert!(resp.event.is_none(), "self-push would arrive before stats");
        assert!(resp.stats.is_some());
        server.shutdown();
    }

    #[test]
    fn disconnecting_a_subscriber_cleans_up_its_registration() {
        let server = Server::bind("127.0.0.1:0", Arc::new(Viewy), ServerConfig::default()).unwrap();
        let mut watcher = Client::connect(server.local_addr()).unwrap();
        assert!(watcher.roundtrip(&sub_request("paths")).unwrap().ok);
        drop(watcher); // disconnect with the subscription live
        let mut mutator = Client::connect(server.local_addr()).unwrap();
        // publishing into the dead subscription must not wedge anything
        for _ in 0..3 {
            assert!(
                mutator
                    .roundtrip(&Request {
                        op: Op::Update,
                        text: "'y'".to_string(),
                        ..Request::default()
                    })
                    .unwrap()
                    .ok
            );
        }
        server.shutdown();
    }

    #[test]
    fn percentiles_come_from_bucket_bounds() {
        let mut lat = [0u64; LAT_BOUNDS_US.len()];
        lat[2] = 98; // ≤ 200 µs
        lat[9] = 2; // ≤ 50 ms
        assert_eq!(Metrics::percentile(&lat, 0.50), 200);
        assert_eq!(Metrics::percentile(&lat, 0.99), 50_000);
        let empty = [0u64; LAT_BOUNDS_US.len()];
        assert_eq!(Metrics::percentile(&empty, 0.99), 0);
    }

    #[test]
    fn empty_tenant_is_the_anonymous_bucket() {
        let cfg = ServerConfig {
            tenant_capacity_steps: 10,
            tenant_refill_steps_per_sec: 1,
        };
        let (server, _h) = echo_server(10, cfg);
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(
            client
                .roundtrip(&Request::eval(Lang::Calc, "q"))
                .unwrap()
                .ok
        );
        let resp = client.roundtrip(&Request::eval(Lang::Calc, "q")).unwrap();
        assert_eq!(resp.error.as_ref().unwrap().kind, "rejected");
        let stats = client
            .roundtrip(&Request {
                op: Op::Stats,
                ..Request::default()
            })
            .unwrap();
        let anon = stats
            .stats
            .as_ref()
            .unwrap()
            .tenants
            .iter()
            .find(|t| t.tenant.is_empty())
            .unwrap();
        assert_eq!(anon.rejected, 1);
        server.shutdown();
    }
}
