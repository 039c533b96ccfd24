//! The daemon: listeners, connection threads, dispatch, drain.
//!
//! A [`Server`] binds any mix of Unix-domain and TCP endpoints, runs a
//! thread per connection, and pushes every characterize request through
//! admission control ([`crate::admission`]) into one [`CellService`]
//! under a panic catch. The lifecycle contract (DESIGN.md §13):
//!
//! - **Admission before work**: a request that cannot be served — queue
//!   full, quota hit, draining — is answered with a structured error
//!   frame in constant time; the connection is never silently dropped
//!   and the process never panics on client input.
//! - **Graceful drain**: [`Server::drain`] (a `SIGTERM` or a `Drain`
//!   request) stops admissions; in-flight requests finish, journal, and
//!   are answered; [`Server::shutdown`] then compacts the store. A
//!   `SIGKILL` at any point instead leaves a journal the next start
//!   recovers byte-identically — the same torn-tail machinery every
//!   batch session trusts.
//! - **Bounded everything**: connections, queue depth, execution slots
//!   and frame sizes all have explicit caps; overload sheds at the
//!   cheapest layer that can answer.

use crate::admission::{Admission, AdmissionConfig, Denial};
use crate::protocol::{
    self, ErrorKind, ModelSource, ProtocolError, Request, Response, Target, Timing,
};
use ca_core::{panic_message, CellService, CellVerdict, CoreError, FailurePhase, StoredVerdict};
use ca_defects::GenerateOptions;
use ca_netlist::library::Library;
use ca_netlist::{spice, Cell};
use ca_obs::clock::Deadline;
use ca_obs::trace::{self, TraceContext};
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an accept loop sleeps when idle, and how often blocked
/// reads re-check the drain flag.
const POLL: Duration = Duration::from_millis(25);

/// Concurrent connections before accepts shed with `Overloaded`.
const MAX_CONNECTIONS: usize = 64;

/// Everything a server needs to start; every knob has a serving-safe
/// default from [`ServeConfig::new`]. Models are characterized under
/// the default options and an unlimited budget, which is also the
/// budget results are journaled under; request deadlines only ever
/// tighten a *copy* of it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Journal path (created on first start, resumed afterwards).
    pub store: PathBuf,
    /// The cell library served by name.
    pub library: Library,
    /// Queue/slot/quota sizing.
    pub admission: AdmissionConfig,
    /// Deadline applied to requests that carry none; `None` = no limit.
    pub default_deadline: Option<Duration>,
    /// Test hook: artificial service time before each characterization,
    /// so overload tests get deterministic contention without depending
    /// on cell complexity.
    pub service_delay: Duration,
}

impl ServeConfig {
    pub fn new(store: impl Into<PathBuf>, library: Library) -> ServeConfig {
        ServeConfig {
            store: store.into(),
            library,
            admission: AdmissionConfig::default(),
            default_deadline: None,
            service_delay: Duration::ZERO,
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// Unix-domain socket path (any stale file is replaced).
    Uds(PathBuf),
    /// TCP bind address, e.g. `127.0.0.1:7543` (`:0` for ephemeral).
    Tcp(String),
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Opening the session store / library failed.
    Core(CoreError),
    /// Binding an endpoint failed.
    Io(io::Error),
    /// No endpoints were given, or an endpoint kind is unsupported on
    /// this platform.
    BadEndpoint(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "service: {e}"),
            ServeError::Io(e) => write!(f, "bind: {e}"),
            ServeError::BadEndpoint(detail) => write!(f, "endpoint: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> ServeError {
        ServeError::Core(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

struct Shared {
    service: CellService,
    admission: Admission,
    /// Library netlists, resolved for `Target::Name`.
    cells: BTreeMap<String, Cell>,
    default_deadline: Option<Duration>,
    service_delay: Duration,
    connections: AtomicUsize,
}

/// A running daemon; dropping it does *not* stop the listeners — call
/// [`Server::shutdown`] for the graceful path (a killed process is the
/// crash path, and the journal covers it).
pub struct Server {
    shared: Arc<Shared>,
    accepters: Vec<JoinHandle<()>>,
    uds_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Opens the session store, binds every endpoint and starts
    /// accepting.
    pub fn start(config: ServeConfig, endpoints: &[Endpoint]) -> Result<Server, ServeError> {
        if endpoints.is_empty() {
            return Err(ServeError::BadEndpoint(
                "at least one --uds or --tcp endpoint is required".into(),
            ));
        }
        let service = CellService::open(
            &config.store,
            &config.library,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )?;
        let cells = config
            .library
            .cells
            .iter()
            .map(|lc| (lc.cell.name().to_string(), lc.cell.clone()))
            .collect();
        let shared = Arc::new(Shared {
            service,
            admission: Admission::new(config.admission.clone()),
            cells,
            default_deadline: config.default_deadline,
            service_delay: config.service_delay,
            connections: AtomicUsize::new(0),
        });
        let mut accepters = Vec::new();
        let mut uds_path = None;
        let mut tcp_addr = None;
        for endpoint in endpoints {
            match endpoint {
                Endpoint::Uds(path) => {
                    #[cfg(unix)]
                    {
                        let _ = std::fs::remove_file(path);
                        let listener = std::os::unix::net::UnixListener::bind(path)?;
                        listener.set_nonblocking(true)?;
                        uds_path = Some(path.clone());
                        let shared = Arc::clone(&shared);
                        let path = path.clone();
                        accepters.push(std::thread::spawn(move || {
                            accept_loop(&shared, || match listener.accept() {
                                Ok((stream, _)) => Ok(stream),
                                Err(e) => Err(e),
                            });
                            drop(listener);
                            let _ = std::fs::remove_file(&path);
                        }));
                    }
                    #[cfg(not(unix))]
                    {
                        let _ = path;
                        return Err(ServeError::BadEndpoint(
                            "unix-domain sockets are unsupported on this platform".into(),
                        ));
                    }
                }
                Endpoint::Tcp(addr) => {
                    let listener = TcpListener::bind(addr.as_str())?;
                    listener.set_nonblocking(true)?;
                    tcp_addr = Some(listener.local_addr()?);
                    let shared = Arc::clone(&shared);
                    accepters.push(std::thread::spawn(move || {
                        accept_loop(&shared, || match listener.accept() {
                            Ok((stream, _)) => Ok(stream),
                            Err(e) => Err(e),
                        });
                    }));
                }
            }
        }
        Ok(Server {
            shared,
            accepters,
            uds_path,
            tcp_addr,
        })
    }

    /// The bound UDS path, when a UDS endpoint was requested.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// The bound TCP address (with the real port for `:0` binds).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Stops admissions; already-admitted work proceeds to completion.
    pub fn drain(&self) {
        self.shared.admission.begin_drain();
    }

    pub fn draining(&self) -> bool {
        self.shared.admission.draining()
    }

    /// Admitted requests currently queued or executing.
    pub fn in_flight(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// The served [`CellService`] (reports, snapshot lookups).
    pub fn service(&self) -> &CellService {
        &self.shared.service
    }

    /// Graceful exit: drain, wait for in-flight work and connections,
    /// join the listeners, compact the journal.
    pub fn shutdown(self) {
        self.drain();
        self.shared.admission.await_idle();
        for accepter in self.accepters {
            let _ = accepter.join();
        }
        // Connection threads exit on their next drain-aware read poll;
        // give stragglers a bounded grace.
        let patience = Deadline::after(Duration::from_secs(10));
        while self.shared.connections.load(Ordering::SeqCst) > 0 && !patience.expired() {
            std::thread::sleep(POLL);
        }
        self.shared.service.compact();
        ca_obs::info_status(
            "ca_serve.server",
            "drained",
            &[(
                "journaled",
                &self.shared.service.report().journaled.to_string(),
            )],
        );
    }
}

/// Accepts until drain; sheds connections beyond the cap with a
/// structured `Overloaded` frame instead of an unexplained hangup.
fn accept_loop<S: Conn + 'static>(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<S>) {
    loop {
        if shared.admission.draining() {
            return;
        }
        match accept() {
            Ok(mut stream) => {
                if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    ca_obs::counter!("ca_serve.shed.connections").inc();
                    let _ = protocol::write_response(
                        &mut stream,
                        &Response::Error {
                            kind: ErrorKind::Overloaded,
                            detail: "connection limit reached".into(),
                        },
                    );
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::SeqCst);
                ca_obs::counter!("ca_serve.connections").inc();
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let decrement = ConnGuard(&shared);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        serve_conn(&shared, stream);
                    }));
                    if outcome.is_err() {
                        ca_obs::counter!("ca_serve.conn_panics").inc();
                    }
                    drop(decrement);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                ca_obs::warn(
                    "ca_serve.server",
                    "accept failed",
                    &[("error", &e.to_string())],
                );
                std::thread::sleep(POLL);
            }
        }
    }
}

struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Both stream kinds behind one face: blocking reads with a timeout so
/// idle connections observe the drain flag.
trait Conn: Read + Write + Send {
    fn arm_read_timeout(&self);
}

impl Conn for TcpStream {
    fn arm_read_timeout(&self) {
        let _ = self.set_nonblocking(false);
        let _ = self.set_read_timeout(Some(POLL));
    }
}

#[cfg(unix)]
impl Conn for std::os::unix::net::UnixStream {
    fn arm_read_timeout(&self) {
        let _ = self.set_nonblocking(false);
        let _ = self.set_read_timeout(Some(POLL));
    }
}

/// Adapter that turns read timeouts into "keep waiting" — except for an
/// idle connection on a draining server, which reads clean EOF, and a
/// mid-frame stall during drain, which errors out after a bounded
/// grace.
struct PatientRead<'a, S: Conn> {
    stream: &'a mut S,
    shared: &'a Shared,
    consumed: usize,
    stalled_polls: u32,
}

impl<S: Conn> Read for PatientRead<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.consumed += n;
                    self.stalled_polls = 0;
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shared.admission.draining() {
                        if self.consumed == 0 {
                            // Between frames: close as if the client
                            // hung up, so drain completes.
                            return Ok(0);
                        }
                        self.stalled_polls += 1;
                        if self.stalled_polls > 200 {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "mid-frame stall during drain",
                            ));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One connection's request/response loop.
fn serve_conn<S: Conn>(shared: &Shared, mut stream: S) {
    stream.arm_read_timeout();
    loop {
        let request = {
            let mut patient = PatientRead {
                stream: &mut stream,
                shared,
                consumed: 0,
                stalled_polls: 0,
            };
            protocol::read_request(&mut patient)
        };
        let response = match request {
            Ok(None) => return, // clean hangup (or drain-idle close)
            Ok(Some(request)) => dispatch(shared, request),
            Err(ProtocolError::Frame(ca_store::frame::FrameError::Io(_))) => return,
            Err(e) => {
                // Malformed input gets a structured answer, then the
                // connection closes: a desynced stream is not worth
                // guessing at.
                ca_obs::counter!("ca_serve.bad_frames").inc();
                let _ = protocol::write_response(
                    &mut stream,
                    &Response::Error {
                        kind: ErrorKind::BadRequest,
                        detail: e.to_string(),
                    },
                );
                return;
            }
        };
        if protocol::write_response(&mut stream, &response).is_err() || stream.flush().is_err() {
            return;
        }
    }
}

fn dispatch(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Ping { token } => Response::Pong { token },
        Request::Stats => Response::Stats {
            body: render_stats(shared),
        },
        Request::Drain => {
            ca_obs::info_status("ca_serve.server", "drain requested over the wire", &[]);
            shared.admission.begin_drain();
            Response::Draining
        }
        Request::MetricsSnapshot => Response::MetricsSnapshot {
            json: ca_obs::global().snapshot().to_json(),
        },
        Request::Lookup { name } => match shared.service.lookup(&name) {
            Some(StoredVerdict::Complete(cam)) => Response::Model {
                cell: name,
                degraded: false,
                source: ModelSource::Store,
                cam,
                timing: Timing::default(),
            },
            Some(StoredVerdict::Degraded(cam)) => Response::Model {
                cell: name,
                degraded: true,
                source: ModelSource::Store,
                cam,
                timing: Timing::default(),
            },
            Some(StoredVerdict::Quarantined { reason, .. }) => Response::Error {
                kind: ErrorKind::Quarantined,
                detail: reason,
            },
            None => Response::Error {
                kind: ErrorKind::UnknownCell,
                detail: name,
            },
        },
        Request::Characterize {
            client,
            deadline_ms,
            target,
            trace,
        } => characterize(shared, &client, deadline_ms, target, trace),
    }
}

fn characterize(
    shared: &Shared,
    client: &str,
    deadline_ms: u64,
    target: Target,
    wire_trace: Option<TraceContext>,
) -> Response {
    // Parent server-side spans under the caller's wire context when one
    // arrived; otherwise open a server-local root so an untraced client
    // still yields a self-contained request tree. The sequence counter
    // only disambiguates roots within one process — it never feeds
    // canonical output (rule D3 covers model bytes, not trace ids).
    let _adopt = wire_trace.map(trace::adopt);
    let _request_span = if wire_trace.is_some() {
        ca_obs::span!("ca_serve.request")
    } else {
        static REQ_SEQ: AtomicU64 = AtomicU64::new(0);
        ca_obs::root!(
            "ca_serve.request",
            REQ_SEQ.fetch_add(1, Ordering::Relaxed),
            "serve"
        )
    };
    if client.is_empty() {
        return Response::Error {
            kind: ErrorKind::BadRequest,
            detail: "client must be non-empty".into(),
        };
    }
    let cell = match target {
        Target::Name(name) => match shared.cells.get(&name) {
            Some(cell) => cell.clone(),
            None => {
                return Response::Error {
                    kind: ErrorKind::UnknownCell,
                    detail: name,
                }
            }
        },
        Target::Spice(src) => match spice::parse_cell(&src) {
            Ok(cell) => cell,
            Err(e) => {
                return Response::Error {
                    kind: ErrorKind::BadRequest,
                    detail: e.to_string(),
                }
            }
        },
    };
    let deadline = if deadline_ms > 0 {
        Deadline::after(Duration::from_millis(deadline_ms))
    } else {
        shared
            .default_deadline
            .map_or(Deadline::never(), Deadline::after)
    };
    let queue_span = ca_obs::span!("ca_serve.queue");
    let mut ticket = match shared.admission.try_admit(client) {
        Ok(ticket) => ticket,
        Err(denial) => {
            let (kind, detail) = match denial {
                Denial::Overloaded => (ErrorKind::Overloaded, "request queue full".to_string()),
                Denial::QuotaExceeded => (
                    ErrorKind::QuotaExceeded,
                    format!("client {client} is over quota"),
                ),
                Denial::Draining => (ErrorKind::Draining, "server is draining".to_string()),
            };
            return Response::Error { kind, detail };
        }
    };
    if ticket.acquire_slot(deadline).is_err() {
        return Response::Error {
            kind: ErrorKind::DeadlineExceeded,
            detail: "deadline expired waiting for an execution slot".into(),
        };
    }
    let queue_us = micros(queue_span.finish());
    ca_obs::histogram!("ca_serve.latency.queue_us").observe(queue_us);
    // Journal time is attributed per request via a thread-local the
    // session bumps on append; each request journals on its own
    // connection thread, so draining before the call isolates this
    // request's share (zero when it appended nothing).
    let _ = ca_core::take_journal_ns();
    let service_span = ca_obs::span!("ca_serve.service");
    let verdict = characterize_caught(shared, &cell, deadline);
    let service_us = micros(service_span.finish());
    let timing = Timing {
        queue_us,
        service_us,
        journal_us: ca_core::take_journal_ns() / 1_000,
    };
    ca_obs::histogram!("ca_serve.latency.service_us").observe(service_us);
    ca_obs::histogram!("ca_serve.latency.total_us").observe(queue_us + service_us);
    drop(ticket);
    match verdict {
        CellVerdict::Model(p) => {
            ca_obs::counter!("ca_serve.served.models").inc();
            match p.model.as_ref() {
                Some(model) => Response::Model {
                    cell: cell.name().to_string(),
                    degraded: model.degraded,
                    source: ModelSource::Fresh,
                    cam: ca_defects::to_cam(model),
                    timing,
                },
                None => Response::Error {
                    kind: ErrorKind::Internal,
                    detail: "characterization produced no model".into(),
                },
            }
        }
        CellVerdict::Quarantined { phase, reason, .. } => {
            ca_obs::counter!("ca_serve.served.quarantined").inc();
            Response::Error {
                kind: ErrorKind::Quarantined,
                detail: format!("{phase}: {reason}"),
            }
        }
        CellVerdict::DeadlineExceeded => {
            ca_obs::counter!("ca_serve.served.deadline_exceeded").inc();
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                detail: "deadline was the binding constraint".into(),
            }
        }
    }
}

/// Runs the guarded pipeline once, after the `service_delay` test hook.
/// The pipeline already isolates panics in characterization and retries
/// a budget-starved cell under a reduced budget, so a panic that still
/// escapes it is answered as a `Quarantined` verdict and the connection
/// stays open. Running the same call again would see the same cell,
/// deadline and store, so there is no retry loop.
fn characterize_caught(shared: &Shared, cell: &Cell, deadline: Deadline) -> CellVerdict {
    if !shared.service_delay.is_zero() {
        std::thread::sleep(shared.service_delay);
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.service.characterize_cell(cell, deadline)
    }))
    .unwrap_or_else(|panic| {
        ca_obs::counter!("ca_serve.retry.worker_failures").inc();
        let reason = panic_message(&panic);
        ca_obs::warn(
            "ca_serve.server",
            "request worker failed",
            &[("cell", cell.name()), ("reason", &reason)],
        );
        CellVerdict::Quarantined {
            phase: FailurePhase::Characterize,
            reason: format!("worker failed: {reason}"),
            retries: 0,
        }
    })
}

/// Whole microseconds of `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn render_stats(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let snapshot = ca_obs::global().snapshot();
    let mut out = String::new();
    for (name, (_, value)) in &snapshot.counters {
        if name.starts_with("ca_serve.") {
            let _ = writeln!(out, "{name} {value}");
        }
    }
    for (name, value) in &snapshot.gauges {
        if name.starts_with("ca_serve.") {
            let _ = writeln!(out, "{name} {value}");
        }
    }
    let report = shared.service.report();
    let _ = writeln!(out, "session.journaled {}", report.journaled);
    let _ = writeln!(out, "session.reused_complete {}", report.reused_complete);
    let _ = writeln!(
        out,
        "conns.open {}",
        shared.connections.load(Ordering::SeqCst)
    );
    out
}
