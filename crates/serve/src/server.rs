//! The results server: accept loop, request routing, worker pool, and
//! crash recovery.
//!
//! Every durable fact lives on disk under the state directory
//! (`jobs/<id>/{spec.json,journal.jsonl,report.json,snapshots/}`), all
//! of it written with the sweep subsystem's atomic replace — so a
//! SIGKILL at any instant leaves only complete files. Boot replays the
//! directory into the in-memory [`Registry`]: jobs without a report
//! re-enter the queue and resume from their journal (and mid-member
//! checkpoints); jobs with one are counted and stay on disk. A done job
//! is answered from bytes rendered once, when its report is written or
//! first read back, and kept while it is among the most recently
//! answered ([`crate::registry::MAX_RESIDENT_DONE`]); any other done
//! job is answered from its files, byte-identically.
//!
//! Connections are served one exchange each, by handler threads that
//! outlive their connection: a handler that finishes parks for the next
//! one (up to `MAX_PARKED` park; the rest exit), so a burst of short
//! requests costs a condition-variable handoff instead of a thread
//! spawn each. A slow client, or an `/events` stream that lasts a whole
//! job, holds only its own handler; the next connection gets another.
//!
//! A job is a sweep: the worker opens the sweep's own journaled state
//! ([`sweep::Sweep`]), drives [`sweep::run_one_member`] in slot order
//! and concludes each member through it, so the journal and report are
//! the bytes `nomc sweep` writes for the same members. Simulation stays
//! deterministic end to end: observers are write-only, and the only
//! wall-clock reads in the crate are at the socket edge
//! ([`crate::deadline`]).

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use nomc_experiments::sweep::{self, journal, AttemptOutcome, MemberReport, Sweep, SweepError};
use nomc_json::{Json, ToJson};
use nomc_sim::events::Event;
use nomc_sim::{SimObserver, SimResult};
use nomc_units::SimTime;

use crate::deadline::DeadlineStream;
use crate::http::{self, Body, Method, Parsed, Request, Response};
use crate::jobs::{self, JobEvent, JobSpec};
use crate::registry::{Admission, Lookup, Registry, Unready};

/// Emit a progress event line every this many simulation events.
const PROGRESS_EVERY: u64 = 100_000;
/// Concurrent connection cap; excess connections get a best-effort 503.
const MAX_CONNS: usize = 64;
/// Connection handlers kept parked for reuse once their connection
/// ends; any more exit. Small, so the idle thread count and RSS stay
/// near those of a thread per connection.
const MAX_PARKED: usize = 2;
/// Pause after a failed `accept` (EMFILE and the like), so an fd
/// shortage cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// How often the signal watcher looks at the drain flag; bounds how
/// long SIGTERM/SIGINT take to reach a listener blocked in `accept`.
const SIGNAL_WATCH: Duration = Duration::from_millis(25);
/// Upper bound on the drain wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Drain waits at most this long for in-flight connections.
const DRAIN_GRACE: Duration = Duration::from_secs(15);

/// SIGTERM/SIGINT → drain flag, kept `std`-only.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Whether a termination signal has asked for a graceful drain.
    pub fn drain_requested() -> bool {
        DRAIN_REQUESTED.load(Ordering::Relaxed)
    }

    /// Installs SIGTERM/SIGINT handlers that flip the drain flag (each
    /// server's signal watcher thread sees it and wakes its blocked
    /// accept loop). Async-signal-safe: the handler is one atomic
    /// store.
    #[cfg(unix)]
    pub fn install_drain_handler() {
        extern "C" fn on_signal(_signum: i32) {
            DRAIN_REQUESTED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// No signals to hook on non-Unix targets; `drain()` still works.
    #[cfg(not(unix))]
    pub fn install_drain_handler() {}
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; the chosen
    /// address is published to `<state_dir>/serve.addr`).
    pub addr: String,
    /// Durable state root. Reusing a previous run's directory resumes
    /// its jobs.
    pub state_dir: PathBuf,
    /// Queued-job cap; submissions beyond it are shed with 429.
    pub max_queue: usize,
    /// Worker threads sweeping jobs.
    pub workers: usize,
    /// Per-connection I/O deadline (the only wall-clock budget in the
    /// system).
    pub io_budget: Duration,
}

impl ServeConfig {
    /// A config with the documented defaults (queue 16, 2 workers,
    /// 10 s I/O budget).
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            max_queue: 16,
            workers: 2,
            io_budget: Duration::from_secs(10),
        }
    }
}

/// Why the server could not start or persist.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure outside the sweep subsystem.
    Io {
        /// What the server was doing.
        context: String,
        /// The OS error text.
        message: String,
    },
    /// A journal/report persistence failure (typed by the sweep
    /// subsystem).
    State(SweepError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, message } => write!(f, "{context}: {message}"),
            ServeError::State(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SweepError> for ServeError {
    fn from(e: SweepError) -> ServeError {
        ServeError::State(e)
    }
}

/// Everything a connection or worker thread needs.
struct Ctx {
    registry: Registry,
    state_dir: PathBuf,
    io_budget: Duration,
}

/// A running server; drop-in handle for tests, the CLI, and benches.
pub struct Server {
    addr: SocketAddr,
    drain: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    watcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots a server: recovers jobs from `state_dir`, binds, publishes
    /// the bound address to `<state_dir>/serve.addr`, and spawns the
    /// accept loop, the signal watcher and the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the state directory or socket cannot be set
    /// up.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let io_err = |context: &str, e: &std::io::Error| ServeError::Io {
            context: context.to_string(),
            message: e.to_string(),
        };
        fs::create_dir_all(cfg.state_dir.join("jobs"))
            .map_err(|e| io_err("creating state directory", &e))?;

        let registry = Registry::new(cfg.max_queue, &cfg.state_dir);
        recover(&cfg.state_dir, &registry);

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| io_err("binding listen socket", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("reading bound address", &e))?;
        // Publish the bound address so `--addr 127.0.0.1:0` runs are
        // discoverable (atomic replace: readers never see a torn file).
        journal::write_atomic(&cfg.state_dir.join("serve.addr"), &format!("{addr}\n"))?;

        let ctx = Arc::new(Ctx {
            registry,
            state_dir: cfg.state_dir.clone(),
            io_budget: cfg.io_budget,
        });
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || worker_loop(&ctx))
            })
            .collect();
        let drain = Arc::new(AtomicBool::new(false));
        let accept = {
            let ctx = Arc::clone(&ctx);
            let drain = Arc::clone(&drain);
            thread::spawn(move || accept_loop(listener, &ctx, &drain))
        };
        let watcher = {
            let drain = Arc::clone(&drain);
            thread::spawn(move || watch_signals(addr, &drain))
        };
        Ok(Server {
            addr,
            drain,
            accept,
            watcher,
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish or requeue
    /// in-flight work, end event streams.
    pub fn drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        wake(self.addr);
    }

    /// Waits for the accept loop, the signal watcher and every worker
    /// to exit (they do once a drain is requested via
    /// [`Server::drain`] or a signal).
    pub fn join(self) {
        let Server {
            accept,
            watcher,
            workers,
            ..
        } = self;
        for handle in [accept, watcher].into_iter().chain(workers) {
            let _ = handle.join();
        }
    }
}

/// Replays the state directory into a fresh registry: jobs with a
/// report are counted (and read when asked for), spec-only jobs
/// re-enter the queue (in id order, so recovery is deterministic).
/// Unreadable entries are warned about and skipped — recovery never
/// takes the server down.
fn recover(state_dir: &Path, registry: &Registry) {
    let jobs_dir = state_dir.join("jobs");
    let entries = match fs::read_dir(&jobs_dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(jobs::parse_id))
        .collect();
    ids.sort_unstable();
    for id in ids {
        let paths = jobs::paths(state_dir, id);
        if paths.report.exists() {
            registry.restore_done();
            continue;
        }
        let parsed = fs::read_to_string(&paths.spec)
            .map_err(|e| e.to_string())
            .and_then(|text| nomc_json::from_str::<JobSpec>(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(spec) => registry.restore_pending(id, spec),
            Err(e) => {
                eprintln!(
                    "nomc-serve: skipping unrecoverable job {}: {e}",
                    jobs::id_hex(id)
                );
            }
        }
    }
}

/// Accepts connections until a drain is requested (via the handle or a
/// signal), then runs the drain protocol: stop accepting, drain the
/// registry (workers exit, event streams end), give in-flight
/// connections a bounded window to finish, and release the parked
/// handlers.
///
/// The listener blocks in `accept`, so a connection is taken the moment
/// it arrives. Each accepted connection, with its slot, goes to a
/// parked handler thread ([`Handlers`]); a thread is spawned only when
/// none is free. A drain request wakes the loop with a connection of
/// its own ([`wake`]); the flag is re-checked after every `accept`
/// returns, and the wake-up connection is dropped unanswered.
fn accept_loop(listener: TcpListener, ctx: &Arc<Ctx>, drain: &AtomicBool) {
    let active = Arc::new(Active::default());
    let handlers = Arc::new(Handlers::default());
    loop {
        let accepted = listener.accept();
        if drain.load(Ordering::SeqCst) || signals::drain_requested() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let Some(slot) = Active::enter(&active) else {
                    // Best-effort shed; if the peer is gone, so be it.
                    let _ = overloaded(stream, ctx.io_budget);
                    continue;
                };
                if let Some(conn) = handlers.hand_off((stream, slot)) {
                    let ctx = Arc::clone(ctx);
                    let handlers = Arc::clone(&handlers);
                    thread::spawn(move || handler(&ctx, &handlers, conn));
                }
            }
            // The peer gave up before we took it: nothing to back off
            // from.
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Closing the listener refuses new connections for the rest of
    // the drain.
    drop(listener);
    ctx.registry.drain();
    active.wait_idle(DRAIN_GRACE);
    handlers.close();
}

/// One accepted connection and the slot it holds.
type Conn = (TcpStream, Slot);

/// A connection handler thread: serves its first connection, then
/// parks for the next one until [`Handlers::park`] sends it away.
fn handler(ctx: &Ctx, handlers: &Handlers, mut conn: Conn) {
    loop {
        let (stream, slot) = conn;
        handle_conn(ctx, stream);
        // Release the slot before parking: a parked thread is not an
        // in-flight connection, so it never holds up a drain.
        drop(slot);
        match handlers.park() {
            Some(next) => conn = next,
            None => return,
        }
    }
}

/// The parked connection handlers and the connections handed to them.
/// Every queued connection has a parked handler waiting for it:
/// `queued.len() <= parked` always holds.
#[derive(Default)]
struct Handlers {
    state: Mutex<HandlerState>,
    ready: Condvar,
}

#[derive(Default)]
struct HandlerState {
    queued: VecDeque<Conn>,
    /// Handler threads waiting in [`Handlers::park`].
    parked: usize,
    /// Set once the drain is over: parked handlers exit.
    closed: bool,
}

impl Handlers {
    fn state(&self) -> MutexGuard<'_, HandlerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `conn` for a parked handler, or gives it back when none
    /// is free (the caller spawns one).
    fn hand_off(&self, conn: Conn) -> Option<Conn> {
        let mut state = self.state();
        if state.parked <= state.queued.len() {
            return Some(conn);
        }
        state.queued.push_back(conn);
        self.ready.notify_one();
        None
    }

    /// Parks the calling handler until a connection is handed to it.
    /// `None` sends it away: [`MAX_PARKED`] are already parked, or the
    /// drain is over and nothing is left queued.
    fn park(&self) -> Option<Conn> {
        let mut state = self.state();
        if state.closed || state.parked >= MAX_PARKED {
            return None;
        }
        state.parked += 1;
        loop {
            if let Some(conn) = state.queued.pop_front() {
                state.parked -= 1;
                return Some(conn);
            }
            if state.closed {
                state.parked -= 1;
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every parked handler to exit once the queue is empty.
    fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }
}

/// Turns SIGTERM/SIGINT into a drain. The handler may only flip an
/// atomic, so this thread watches it, off the request path, and wakes
/// the blocked accept loop the way [`Server::drain`] does. It exits
/// once the server drains by either route.
fn watch_signals(addr: SocketAddr, drain: &AtomicBool) {
    while !drain.load(Ordering::SeqCst) {
        if signals::drain_requested() {
            drain.store(true, Ordering::SeqCst);
            wake(addr);
            return;
        }
        thread::sleep(SIGNAL_WATCH);
    }
}

/// Unblocks an accept loop parked in `accept` by connecting to it.
/// Best effort: if the listener is already closed, there is nothing to
/// wake.
fn wake(addr: SocketAddr) {
    let mut target = addr;
    // A wildcard bind is reached through the loopback of its family.
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, WAKE_TIMEOUT);
}

/// The in-flight connection count, capped at [`MAX_CONNS`]; the drain
/// waits on it reaching zero.
#[derive(Default)]
struct Active {
    count: Mutex<usize>,
    idle: Condvar,
}

/// One claimed connection slot, released on drop (a panicking handler
/// included).
struct Slot(Arc<Active>);

impl Active {
    fn count(&self) -> MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims a slot, or `None` when [`MAX_CONNS`] are in flight.
    fn enter(active: &Arc<Active>) -> Option<Slot> {
        let mut count = active.count();
        if *count >= MAX_CONNS {
            return None;
        }
        *count += 1;
        Some(Slot(Arc::clone(active)))
    }

    /// Blocks until no connection is in flight, or `grace` runs out.
    fn wait_idle(&self, grace: Duration) {
        let _ = self
            .idle
            .wait_timeout_while(self.count(), grace, |count| *count > 0)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut count = self.0.count();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Sheds a connection accepted over the cap with a best-effort 503.
fn overloaded(stream: TcpStream, budget: Duration) -> std::io::Result<()> {
    let body = Json::object([("error", Json::Str("connection limit reached".into()))]);
    DeadlineStream::new(stream, budget)?.write_all(&Response::json(503, &body).render())
}

/// Serves one connection: read a request under the deadline, route it,
/// write the response. Exactly one exchange per connection
/// (`Connection: close`), each with its own deadline, so resource
/// lifetimes are trivially bounded; the handler thread that runs it is
/// reused for later connections ([`handler`]).
fn handle_conn(ctx: &Ctx, stream: TcpStream) {
    let Ok(mut conn) = DeadlineStream::new(stream, ctx.io_budget) else {
        return;
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match http::parse_request(&buf) {
            Ok(Parsed::Complete { value, .. }) => {
                respond(ctx, &value, &mut conn);
                return;
            }
            Ok(Parsed::Partial) => match conn.read_some(&mut chunk) {
                // EOF before a complete request: nothing to answer.
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    let body = Json::object([("error", Json::Str(e.to_string()))]);
                    let _ = conn.write_all(&Response::json(408, &body).render());
                    return;
                }
                Err(_) => return,
            },
            Err(e) => {
                let _ = conn.write_all(&Response::for_parse_error(&e).render());
                return;
            }
        }
    }
}

/// Routes a parsed request. The event stream writes the connection
/// directly; everything else renders a single [`Response`].
fn respond(ctx: &Ctx, req: &Request, conn: &mut DeadlineStream) {
    if let Some(rest) = req.target.strip_prefix("/jobs/") {
        if let Some(id_text) = rest.strip_suffix("/events") {
            if matches!(req.method, Method::Get) {
                stream_events(ctx, id_text, conn);
                return;
            }
        }
    }
    let response = route(ctx, req);
    let _ = conn.write_all(&response.render());
}

/// The non-streaming routes.
fn route(ctx: &Ctx, req: &Request) -> Response {
    match (&req.method, req.target.as_str()) {
        (Method::Post, "/jobs") => submit(ctx, &req.body),
        (Method::Get, "/jobs") => method_not_allowed("POST"),
        (Method::Get, "/healthz") => healthz(ctx),
        (method, target) => {
            if let Some(rest) = target.strip_prefix("/jobs/") {
                if !matches!(method, Method::Get) {
                    return method_not_allowed("GET");
                }
                if let Some(id_text) = rest.strip_suffix("/report") {
                    return job_report(ctx, id_text);
                }
                return job_status(ctx, rest);
            }
            not_found()
        }
    }
}

fn not_found() -> Response {
    Response::json(
        404,
        &Json::object([("error", Json::Str("no such resource".into()))]),
    )
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::json(
        405,
        &Json::object([("error", Json::Str("method not allowed".into()))]),
    )
    .with_header("Allow", allow.to_string())
}

/// `GET /healthz`: liveness plus queue statistics.
fn healthz(ctx: &Ctx) -> Response {
    let stats = ctx.registry.stats();
    Response::json(
        200,
        &Json::object([
            ("status", Json::Str("ok".into())),
            ("queued", (stats.queued as u64).to_json()),
            ("running", (stats.running as u64).to_json()),
            ("done", (stats.done as u64).to_json()),
            ("failed", (stats.failed as u64).to_json()),
            ("draining", Json::Bool(stats.draining)),
        ]),
    )
}

/// `POST /jobs`: admit the body. A body byte-equal to the canonical
/// spec text of a job admitted as new in this process is looked up
/// directly;
/// any other is decoded, validated and content-addressed
/// ([`jobs::decode`]) first. Both reach the same admission decision,
/// so both answer the same bytes; the spec text is rendered and
/// persisted only for new work.
fn submit(ctx: &Ctx, body: &[u8]) -> Response {
    let (id, admission) = match ctx.registry.admit(body, jobs::decode) {
        Ok(admitted) => admitted,
        Err(reason) => {
            return Response::json(400, &Json::object([("error", Json::Str(reason))]));
        }
    };
    let hex = jobs::id_hex(id);
    match admission {
        Admission::Cached { state } => Response::json(
            200,
            &Json::object([
                ("job", Json::Str(hex)),
                ("state", Json::Str(state.name().into())),
                ("cached", Json::Bool(true)),
            ]),
        ),
        Admission::Shed { retry_after_secs } => Response::json(
            429,
            &Json::object([
                ("error", Json::Str("queue full".into())),
                ("retry_after_secs", retry_after_secs.to_json()),
            ]),
        )
        .with_header("Retry-After", retry_after_secs.to_string()),
        Admission::Draining => Response::json(
            503,
            &Json::object([("error", Json::Str("server is draining".into()))]),
        ),
        Admission::New { spec_text } => {
            // The job is only acknowledged once its spec is durable:
            // an ack followed by a crash must still produce the report
            // on the next boot.
            let paths = jobs::paths(&ctx.state_dir, id);
            let persisted = fs::create_dir_all(&paths.snapshots)
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    journal::write_atomic(&paths.spec, &spec_text).map_err(|e| e.to_string())
                });
            if let Err(e) = persisted {
                let message = format!("persisting spec: {e}");
                ctx.registry.fail(id, message.clone());
                return Response::json(500, &Json::object([("error", Json::Str(message))]));
            }
            Response::json(
                202,
                &Json::object([
                    ("job", Json::Str(hex)),
                    ("state", Json::Str("queued".into())),
                    ("cached", Json::Bool(false)),
                ]),
            )
        }
    }
}

/// `GET /jobs/<id>`: lifecycle status; embeds the report once done.
fn job_status(ctx: &Ctx, id_text: &str) -> Response {
    let Some(id) = jobs::parse_id(id_text) else {
        return not_found();
    };
    // A done job's answer is its ready bytes; only a report that cannot
    // be read back is rendered here.
    let (state, error, report_error) = match ctx.registry.lookup(id) {
        Some(Lookup::Done(ready)) => {
            return Response::raw_json(200, Body::Shared(Arc::clone(&ready.status)))
        }
        Some(Lookup::Unready(unready)) => (jobs::JobState::Done, None, Some(unready.reason)),
        Some(Lookup::Live { state, error }) => (state, error, None),
        None => return not_found(),
    };
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("job", Json::Str(jobs::id_hex(id))),
        ("state", Json::Str(state.name().into())),
    ];
    if let jobs::JobState::Running { done, total } = state {
        fields.push(("members_done", (done as u64).to_json()));
        fields.push(("members_total", (total as u64).to_json()));
    }
    if let Some(message) = error {
        fields.push(("error", Json::Str(message)));
    }
    if let Some(message) = report_error {
        fields.push(("report_error", Json::Str(message)));
    }
    Response::json(200, &Json::object(fields))
}

/// `GET /jobs/<id>/report`: the report file's exact bytes (the cache
/// contract is byte identity, so the file is never re-serialized).
fn job_report(ctx: &Ctx, id_text: &str) -> Response {
    let Some(id) = jobs::parse_id(id_text) else {
        return not_found();
    };
    match ctx.registry.lookup(id) {
        Some(Lookup::Done(ready)) => {
            Response::raw_json(200, Body::Shared(Arc::clone(&ready.report)))
        }
        // Served as it is: the route never re-serializes a report.
        Some(Lookup::Unready(Unready {
            bytes: Some(bytes), ..
        })) => Response::raw_json(200, Body::Owned(bytes)),
        Some(Lookup::Unready(Unready { reason, .. })) => Response::json(
            500,
            &Json::object([("error", Json::Str(format!("reading report: {reason}")))]),
        ),
        Some(Lookup::Live { state, .. }) => Response::json(
            409,
            &Json::object([("state", Json::Str(state.name().into()))]),
        ),
        None => not_found(),
    }
}

/// `GET /jobs/<id>/events`: streams the job's progress log as JSONL,
/// ending when the job's story is over. The response has no
/// `Content-Length`; the `Connection: close` framing delimits it. The
/// deadline is renewed per write, so the stream is bounded by
/// per-write progress, not total duration.
fn stream_events(ctx: &Ctx, id_text: &str, conn: &mut DeadlineStream) {
    let log = jobs::parse_id(id_text).and_then(|id| ctx.registry.events(id));
    let Some(log) = log else {
        let _ = conn.write_all(&not_found().render());
        return;
    };
    let head =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if conn.write_all(head).is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (lines, next, closed) = log.wait_from(cursor, Duration::from_millis(250));
        cursor = next;
        if !lines.is_empty() {
            let mut chunk = String::new();
            for line in &lines {
                chunk.push_str(line);
                chunk.push('\n');
            }
            conn.renew();
            if conn.write_all(chunk.as_bytes()).is_err() {
                return;
            }
        }
        if closed {
            return;
        }
    }
}

/// Worker: pull queued jobs until the registry drains.
fn worker_loop(ctx: &Ctx) {
    while let Some((id, spec)) = ctx.registry.next_job() {
        run_job(ctx, id, &spec);
    }
}

/// Streams coarse progress out of the engine. A write-only observer
/// over an `mpsc` sender: it cannot perturb the run (the engine's
/// observer contract) and it keeps no shared state, so attaching it
/// changes no report byte.
struct Progress {
    sender: mpsc::Sender<String>,
    member: usize,
    seen: u64,
}

impl SimObserver for Progress {
    fn on_event(&mut self, _now: SimTime, _event: &Event) {
        self.seen += 1;
        if self.seen.is_multiple_of(PROGRESS_EVERY) {
            let _ = self.sender.send(format!(
                "{{\"event\":\"progress\",\"member\":{},\"events\":{}}}",
                self.member, self.seen
            ));
        }
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        let _ = self.sender.send(format!(
            "{{\"event\":\"attempt_end\",\"member\":{},\"events\":{}}}",
            self.member, self.seen
        ));
        self.seen = 0;
    }
}

/// The wire tag of a member's concluding attempt.
fn outcome_tag(report: &MemberReport) -> &'static str {
    match report.attempts.last().map(|a| &a.outcome) {
        Some(AttemptOutcome::Ok(_)) => "ok",
        Some(AttemptOutcome::Failed(_)) => "failed",
        Some(AttemptOutcome::TimedOut { .. }) => "timed_out",
        None => "empty",
    }
}

/// Runs one job end to end through the sweep's journaled state
/// ([`sweep::Sweep`]): resume its journal, run the unfinished members
/// in slot order (checkpoint-supervised), conclude each durably, then
/// persist the report and close the story. Checks the drain flag
/// between members; a drained job requeues and resumes on the next
/// boot.
fn run_job(ctx: &Ctx, id: u64, spec: &JobSpec) {
    let paths = jobs::paths(&ctx.state_dir, id);
    // Idempotent: `submit` also creates this (before acking), but a
    // worker can pick the job up before that write lands, and restored
    // jobs arrive without passing through `submit` at all.
    if let Err(e) = fs::create_dir_all(&paths.snapshots) {
        ctx.registry
            .fail(id, format!("creating job directory: {e}"));
        return;
    }
    let members = spec.members();
    let total = members.len();

    ctx.registry.apply(id, &JobEvent::Start { total });
    let log = ctx
        .registry
        .events(id)
        .expect("running jobs are registered");

    // All progress lines flow through one channel so their order is
    // total; a forwarder thread owns the log end.
    let (tx, rx) = mpsc::channel::<String>();
    let forwarder = {
        let log = Arc::clone(&log);
        thread::spawn(move || {
            for line in rx {
                log.push(line);
            }
        })
    };
    let finish = |tx: mpsc::Sender<String>, forwarder: JoinHandle<()>| {
        drop(tx);
        let _ = forwarder.join();
    };
    let _ = tx.send(format!(
        "{{\"event\":\"started\",\"job\":\"{}\",\"members\":{total}}}",
        jobs::id_hex(id)
    ));

    let cfg = sweep::SweepConfig {
        retries: spec.retries,
        base_budget: spec.budget,
        threads: Some(1),
        shards: spec.shards,
        checkpoint_every: spec.checkpoint_every,
        snapshot_dir: spec.checkpoint_every.map(|_| paths.snapshots.clone()),
    };
    // Recover concluded members from the journal, if one survives. A
    // stale or unreadable journal reruns the job from scratch;
    // determinism makes that merely slower, not different.
    let opened = Sweep::open(&members, &cfg, Some(&paths.journal), true).or_else(|e| {
        eprintln!(
            "nomc-serve: job {}: discarding journal: {e}",
            jobs::id_hex(id)
        );
        Sweep::open(&members, &cfg, Some(&paths.journal), false)
    });
    let mut sweep = match opened {
        Ok(sweep) => sweep,
        Err(e) => {
            ctx.registry.fail(id, format!("persisting journal: {e}"));
            finish(tx, forwarder);
            return;
        }
    };
    for quarantined in sweep.quarantined() {
        if matches!(quarantined, SweepError::TrailingGarbage { .. }) {
            let _ = tx.send(format!(
                "{{\"event\":\"journal_note\",\"note\":\"{quarantined} (expected after a crash)\"}}"
            ));
        } else {
            eprintln!("nomc-serve: job {}: {quarantined}", jobs::id_hex(id));
        }
    }

    for (index, scenario) in members.iter().enumerate() {
        if sweep.is_concluded(index) {
            ctx.registry.apply(id, &JobEvent::MemberDone);
            let _ = tx.send(format!(
                "{{\"event\":\"member\",\"member\":{index},\"outcome\":\"recovered\"}}"
            ));
            continue;
        }
        if ctx.registry.draining() {
            // Mid-drain: step off between members. The journal already
            // holds everything concluded, so the next boot resumes
            // exactly here.
            ctx.registry.apply(id, &JobEvent::Requeue);
            let _ = tx.send("{\"event\":\"requeued\"}".to_string());
            finish(tx, forwarder);
            log.close();
            return;
        }
        let mut progress = Progress {
            sender: tx.clone(),
            member: index,
            seen: 0,
        };
        let report = sweep::run_one_member(scenario, index, &cfg, &mut [&mut progress]);
        let tag = outcome_tag(&report);
        let attempts = report.attempts.len();
        if let Err(e) = sweep.conclude(index, report) {
            ctx.registry.fail(id, format!("persisting journal: {e}"));
            finish(tx, forwarder);
            return;
        }
        ctx.registry.apply(id, &JobEvent::MemberDone);
        let _ = tx.send(format!(
            "{{\"event\":\"member\",\"member\":{index},\"outcome\":\"{tag}\",\"attempts\":{attempts}}}"
        ));
    }

    let report = sweep.into_report().to_json_string();
    if let Err(e) = journal::write_atomic(&paths.report, &report) {
        ctx.registry.fail(id, format!("persisting report: {e}"));
        finish(tx, forwarder);
        return;
    }
    // The done answers are rendered once, from the bytes just written.
    ctx.registry.finish(id, report.into_bytes());
    let _ = tx.send("{\"event\":\"done\"}".to_string());
    finish(tx, forwarder);
    log.close();
}
