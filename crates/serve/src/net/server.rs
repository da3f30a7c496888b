//! The network server: a bounded accept loop over std `TcpListener`
//! and per-connection threads, each serving its own requests through
//! [`QueryService::submit_batch_for`] (untagged requests route to the
//! default tenant; unknown tenants are refused with a typed
//! `unknown_tenant` error before the service).
//!
//! # Architecture
//!
//! ```text
//!   accept loop ──▶ connection threads ──▶ QueryService::submit_batch_for
//!   (bounded:       (frame read/write,     (one wire request = one batch:
//!    refuses over    idle ticks, typed      admission, cache, five
//!    the limit)      error responses)       phases on this same thread)
//! ```
//!
//! A wire request is exactly one service batch: admission
//! (`queue_depth`, tenant quotas) applies to it whole, and its results
//! come back in question order. A connection serves one request at a
//! time, start to finish on its own thread, so
//! [`ServerConfig::max_connections`] bounds both the requests in flight
//! and the threads serving them: the server's parallelism is its
//! connections.
//!
//! # Graceful drain
//!
//! One lock holds the drain flag and the count of live connections;
//! the accept loop admits each connection under it, and a connection
//! gives its slot back when its thread ends, by return or by panic.
//! A drain (the `shutdown` op, or [`ServerHandle::trigger_drain`])
//! sets the flag:
//!
//! 1. new connections are *refused with a typed `draining` error*, not
//!    dropped;
//! 2. a request already being served runs to completion on its
//!    connection thread with correct answers — [`ServerHandle::join`]
//!    waits until every connection has given its slot back;
//! 3. idle keep-alive connections close at their next read tick; a
//!    `query` arriving on a live connection after the drain gets the
//!    typed `draining` error;
//! 4. [`ServerHandle::join`] then stops the accept loop, whose thread
//!    scope joins the connection threads, and returns a
//!    [`ServerReport`] with the flushed metrics JSON (full and
//!    deterministic views).
//!
//! A request whose model panics ends its connection: the client sees
//! the connection close, and the slot is free again before it does.
//!
//! # Logging
//!
//! With [`ServerConfig::log`] set, every request emits one structured
//! [`LogEvent`] line on stderr — logical sequence number, connection
//! id, op, outcome — with question text passed through
//! [`dbpal_util::log::redact_text`], so constants (names, ages,
//! diseases) never reach the log. There are no wall-clock timestamps:
//! the sequence number orders events and keeps lines deterministic.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use dbpal_core::TranslationModel;
use dbpal_util::frame::{self, FrameError};
use dbpal_util::metrics::{Counter, Histogram};
use dbpal_util::LogEvent;

use crate::net::protocol::{ErrorKind, QueryOutcome, Request, Response};
use crate::QueryService;

/// A connection's one read timeout: how often an idle connection's
/// read loop wakes to check for drain.
pub const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long a peer may stall inside a frame (header started) before it
/// is treated as broken, which also bounds slow-loris style
/// half-frames. Counted in [`IDLE_TICK`]s, so the socket keeps its one
/// timeout.
pub const FRAME_GRACE: Duration = Duration::from_secs(2);

/// [`FRAME_GRACE`] in idle ticks: read timeouts in a row, with no byte
/// arriving, that end a started frame.
const GRACE_TICKS: u32 = (FRAME_GRACE.as_millis() / IDLE_TICK.as_millis()) as u32;

/// Network server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Concurrent-connection bound: connects beyond it are refused with
    /// a typed `busy` error, never left hanging. Each connection serves
    /// one request at a time, so this also bounds requests in flight.
    pub max_connections: usize,
    /// Per-frame payload cap; oversized frames get a typed refusal and
    /// the connection closes (the stream is desynced past its header).
    pub max_frame_len: usize,
    /// Emit structured request logs on stderr.
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            max_frame_len: frame::DEFAULT_MAX_FRAME_LEN,
            log: false,
        }
    }
}

/// The drain summary returned by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The address the server listened on.
    pub addr: SocketAddr,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections refused (`busy` or `draining`).
    pub refused: u64,
    /// `query` requests served.
    pub requests: u64,
    /// Frames that failed to parse into a request.
    pub protocol_errors: u64,
    /// Full metrics export (timings included), pretty-printed JSON.
    pub metrics_json: String,
    /// Deterministic metrics export (counters + observation counts).
    pub metrics_deterministic_json: String,
}

struct ServerMetrics {
    connections: Arc<Counter>,
    refused: Arc<Counter>,
    requests: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    request_latency: Arc<Histogram>,
}

/// What admission, release and drain share, under one lock.
#[derive(Default)]
struct Conns {
    /// A drain was triggered: admit no one.
    drained: bool,
    /// Connections admitted whose threads have not yet ended.
    active: usize,
}

struct Inner<M: TranslationModel + Send + Sync> {
    service: QueryService<M>,
    config: ServerConfig,
    addr: SocketAddr,
    accept_stop: AtomicBool,
    log_seq: AtomicU64,
    conns: Mutex<Conns>,
    /// Notified when a drain starts and when a slot is given back.
    conns_changed: Condvar,
    m: ServerMetrics,
}

impl<M: TranslationModel + Send + Sync> Inner<M> {
    fn log(&self, ev: LogEvent) {
        if self.config.log {
            let seq = self.log_seq.fetch_add(1, Ordering::Relaxed);
            eprintln!("{}", ev.num("seq", seq as f64));
        }
    }

    fn conns(&self) -> MutexGuard<'_, Conns> {
        // Every update writes one field, so a poisoned lock still holds
        // consistent state.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.conns().drained
    }

    fn trigger_drain(&self) {
        let was_drained = std::mem::replace(&mut self.conns().drained, true);
        if was_drained {
            return;
        }
        self.log(LogEvent::new("drain").flag("accepting", false));
        self.conns_changed.notify_all();
    }

    /// Take a connection slot, or name the typed refusal.
    fn admit(&self) -> Result<(), (ErrorKind, &'static str)> {
        let mut conns = self.conns();
        if conns.drained {
            Err((ErrorKind::Draining, "server is draining"))
        } else if conns.active >= self.config.max_connections {
            Err((ErrorKind::Busy, "connection limit reached"))
        } else {
            conns.active += 1;
            Ok(())
        }
    }
}

/// An admitted connection's slot, given back when its thread ends,
/// whether the thread returns or panics.
struct Slot<'a, M: TranslationModel + Send + Sync>(&'a Inner<M>);

impl<M: TranslationModel + Send + Sync> Drop for Slot<'_, M> {
    fn drop(&mut self) {
        self.0.conns().active -= 1;
        self.0.conns_changed.notify_all();
    }
}

/// A running server: address, drain trigger, and join.
pub struct ServerHandle<M: TranslationModel + Send + Sync + 'static> {
    inner: Arc<Inner<M>>,
    accept: Option<JoinHandle<()>>,
}

/// Bind and start serving `service` per `config`. Returns immediately;
/// the accept loop and connection threads run in the background until
/// a drain is triggered and [`ServerHandle::join`]ed.
pub fn serve<M: TranslationModel + Send + Sync + 'static>(
    service: QueryService<M>,
    config: ServerConfig,
) -> io::Result<ServerHandle<M>> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let m = ServerMetrics {
        connections: service.metrics().counter("server.connections"),
        refused: service.metrics().counter("server.refused"),
        requests: service.metrics().counter("server.requests"),
        protocol_errors: service.metrics().counter("server.protocol_errors"),
        request_latency: service.metrics().histogram("server.request"),
    };
    let inner = Arc::new(Inner {
        service,
        config,
        addr,
        accept_stop: AtomicBool::new(false),
        log_seq: AtomicU64::new(0),
        conns: Mutex::default(),
        conns_changed: Condvar::new(),
        m,
    });
    inner.log(
        LogEvent::new("listening")
            .field("addr", addr.to_string())
            .num("max_connections", inner.config.max_connections as f64),
    );
    let accept_inner = Arc::clone(&inner);
    let accept = std::thread::spawn(move || run_accept(&accept_inner, listener));
    Ok(ServerHandle {
        inner,
        accept: Some(accept),
    })
}

impl<M: TranslationModel + Send + Sync + 'static> ServerHandle<M> {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The wrapped service (metrics access in tests and gates).
    pub fn service(&self) -> &QueryService<M> {
        &self.inner.service
    }

    /// Start a graceful drain: stop admitting work, let in-flight
    /// requests finish. Idempotent; also triggered by the wire
    /// `shutdown` op.
    pub fn trigger_drain(&self) {
        self.inner.trigger_drain();
    }

    /// Block until a drain has been triggered and everything has wound
    /// down, then flush metrics into the returned [`ServerReport`].
    pub fn join(mut self) -> ServerReport {
        let inner = &self.inner;
        // 1. Wait for the drain trigger (ours or the wire's) and for
        // every slot to come back. Once drained, the accept loop admits
        // no one, so the count only falls.
        drop(
            inner
                .conns_changed
                .wait_while(inner.conns(), |c| !c.drained || c.active > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
        // 2. Unblock and join the accept loop; its scope joins the
        // connection threads. A connection's panic resurfaces there and
        // is ignored like the rest of that thread's result.
        inner.accept_stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(inner.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // 3. Flush.
        let report = ServerReport {
            addr: inner.addr,
            connections: inner.m.connections.get(),
            refused: inner.m.refused.get(),
            requests: inner.m.requests.get(),
            protocol_errors: inner.m.protocol_errors.get(),
            metrics_json: inner.service.metrics().to_json().pretty(),
            metrics_deterministic_json: inner.service.metrics().to_json_deterministic().pretty(),
        };
        inner.log(
            LogEvent::new("drained")
                .num("connections", report.connections as f64)
                .num("requests", report.requests as f64),
        );
        report
    }

    /// [`trigger_drain`](Self::trigger_drain) + [`join`](Self::join).
    pub fn shutdown(self) -> ServerReport {
        self.trigger_drain();
        self.join()
    }
}

// ----- accept loop ------------------------------------------------------

fn refuse(stream: &mut TcpStream, kind: ErrorKind, message: &str) {
    let _ = stream.set_nodelay(true);
    let resp = Response::Error {
        kind,
        message: message.to_string(),
    };
    let _ = frame::write_frame(stream, &resp.to_bytes());
}

/// Accept until [`ServerHandle::join`] stops the loop. Each connection
/// runs on a thread of this scope whose handle is dropped, so an ended
/// thread frees its stack at once; the scope joins the rest on exit.
fn run_accept<M: TranslationModel + Send + Sync>(inner: &Inner<M>, listener: TcpListener) {
    std::thread::scope(|scope| {
        let mut next_conn_id = 0u64;
        for stream in listener.incoming() {
            if inner.accept_stop.load(Ordering::Acquire) {
                break;
            }
            let mut stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if let Err((kind, message)) = inner.admit() {
                inner.m.refused.inc();
                inner.log(LogEvent::new("refused").field("reason", kind.as_str()));
                refuse(&mut stream, kind, message);
                continue;
            }
            inner.m.connections.inc();
            next_conn_id += 1;
            let conn_id = next_conn_id;
            inner.log(LogEvent::new("accepted").num("conn", conn_id as f64));
            scope.spawn(move || run_conn(inner, stream, conn_id));
        }
    });
}

// ----- connection threads -----------------------------------------------

enum ReadOutcome {
    Frame(Vec<u8>),
    Eof,
    DrainingIdle,
    Oversized { declared: usize },
    Broken,
}

/// Whether a read error is the socket's [`IDLE_TICK`] timeout.
fn is_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The rest of a started frame, read on the connection's [`IDLE_TICK`]
/// timeout: each read waits out up to [`GRACE_TICKS`] timeouts in a
/// row, so bytes already read are kept and only a peer that sends
/// nothing for [`FRAME_GRACE`] fails the read.
struct WithinGrace<'a>(&'a mut TcpStream);

impl Read for WithinGrace<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut ticks = 1;
        loop {
            match self.0.read(buf) {
                Err(e) if is_tick(&e) && ticks < GRACE_TICKS => ticks += 1,
                other => return other,
            }
        }
    }
}

/// Read one frame, waking every [`IDLE_TICK`] while idle so a drain can
/// close the connection. The header is asked for with one read; once a
/// frame's first bytes arrive, the rest is read [`WithinGrace`].
fn read_request<M: TranslationModel + Send + Sync>(
    inner: &Inner<M>,
    stream: &mut TcpStream,
) -> ReadOutcome {
    let mut header = [0u8; frame::HEADER_LEN];
    let got = loop {
        match stream.read(&mut header) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => break n,
            Err(e) if is_tick(&e) => {
                if inner.draining() {
                    return ReadOutcome::DrainingIdle;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Broken,
        }
    };
    let mut rest = WithinGrace(stream);
    if rest
        .read_exact(header.get_mut(got..).unwrap_or_default())
        .is_err()
    {
        return ReadOutcome::Broken;
    }
    let declared = frame::decode_len(header);
    match frame::read_payload(&mut rest, declared, inner.config.max_frame_len) {
        Ok(payload) => ReadOutcome::Frame(payload),
        Err(FrameError::TooLarge { declared, .. }) => ReadOutcome::Oversized { declared },
        Err(_) => ReadOutcome::Broken,
    }
}

/// Discard up to `declared` unread payload bytes after an oversized
/// refusal. Bounded by [`FRAME_GRACE`]: a peer that stalls mid-payload
/// is abandoned (and gets the RST it earned).
fn drain_payload(stream: &mut TcpStream, declared: usize) {
    let _ = stream.set_read_timeout(Some(FRAME_GRACE));
    let mut remaining = declared;
    let mut sink = [0u8; 4096];
    while remaining > 0 {
        let want = remaining.min(sink.len());
        let Some(buf) = sink.get_mut(..want) else {
            break;
        };
        match stream.read(buf) {
            Ok(0) => break,
            Ok(n) => remaining -= n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn run_conn<M: TranslationModel + Send + Sync>(
    inner: &Inner<M>,
    mut stream: TcpStream,
    conn_id: u64,
) {
    // Locals drop before parameters, so the slot is free before the
    // peer sees `stream` close, also when a request panics.
    let _slot = Slot(inner);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    loop {
        match read_request(inner, &mut stream) {
            ReadOutcome::Frame(payload) => {
                if !handle_frame(inner, &mut stream, conn_id, &payload) {
                    break;
                }
            }
            ReadOutcome::Eof => break,
            ReadOutcome::DrainingIdle => {
                inner.log(
                    LogEvent::new("conn_closed")
                        .num("conn", conn_id as f64)
                        .field("reason", "draining"),
                );
                break;
            }
            ReadOutcome::Oversized { declared } => {
                inner.m.protocol_errors.inc();
                inner.log(
                    LogEvent::new("protocol_error")
                        .num("conn", conn_id as f64)
                        .field("kind", ErrorKind::OversizedFrame.as_str())
                        .num("declared", declared as f64),
                );
                let resp = Response::Error {
                    kind: ErrorKind::OversizedFrame,
                    message: format!(
                        "frame of {declared} bytes exceeds cap {}",
                        inner.config.max_frame_len
                    ),
                };
                let _ = frame::write_frame(&mut stream, &resp.to_bytes());
                // The unread payload desyncs the stream: drain what the
                // peer already sent (so closing flushes as FIN, not RST,
                // and the refusal reliably reaches them), then close.
                drain_payload(&mut stream, declared);
                break;
            }
            ReadOutcome::Broken => {
                inner.log(
                    LogEvent::new("conn_closed")
                        .num("conn", conn_id as f64)
                        .field("reason", "broken"),
                );
                break;
            }
        }
    }
}

/// Serve one parsed frame; returns whether to keep the connection.
fn handle_frame<M: TranslationModel + Send + Sync>(
    inner: &Inner<M>,
    stream: &mut TcpStream,
    conn_id: u64,
    payload: &[u8],
) -> bool {
    let draining = inner.draining();
    let (response, keep) = match Request::from_bytes(payload) {
        Err((kind, message)) => {
            inner.m.protocol_errors.inc();
            inner.log(
                LogEvent::new("protocol_error")
                    .num("conn", conn_id as f64)
                    .field("kind", kind.as_str())
                    .text("detail", &message),
            );
            (Response::Error { kind, message }, true)
        }
        Ok(Request::Health) => (
            Response::Probe {
                op: "health".to_string(),
                ready: !draining,
                draining,
            },
            true,
        ),
        Ok(Request::Ready) => (
            Response::Probe {
                op: "ready".to_string(),
                ready: !draining,
                draining,
            },
            true,
        ),
        Ok(Request::Shutdown) => {
            inner.trigger_drain();
            (Response::ShuttingDown, false)
        }
        Ok(Request::Query { tenant, questions }) => {
            if draining {
                (
                    Response::Error {
                        kind: ErrorKind::Draining,
                        message: "server is draining".to_string(),
                    },
                    false,
                )
            } else {
                // Resolve the tenant up front: untagged requests route
                // to the default tenant; an unknown tenant is a typed
                // frame-level refusal that never reaches the service
                // (the connection stays usable).
                let tenant =
                    tenant.unwrap_or_else(|| inner.service.default_tenant_id().to_string());
                if !inner.service.has_tenant(&tenant) {
                    inner.m.protocol_errors.inc();
                    inner.log(
                        LogEvent::new("protocol_error")
                            .num("conn", conn_id as f64)
                            .field("kind", ErrorKind::UnknownTenant.as_str())
                            .field("tenant", tenant.clone()),
                    );
                    (
                        Response::Error {
                            kind: ErrorKind::UnknownTenant,
                            message: format!("unknown tenant `{tenant}`"),
                        },
                        true,
                    )
                } else {
                    inner.m.requests.inc();
                    let outcomes: Vec<QueryOutcome> = inner.m.request_latency.time(|| {
                        inner
                            .service
                            .submit_batch_for(&tenant, &questions)
                            .iter()
                            .map(QueryOutcome::from_result)
                            .collect()
                    });
                    let answered = outcomes
                        .iter()
                        .filter(|o| matches!(o, QueryOutcome::Answer { .. }))
                        .count();
                    inner.log(
                        LogEvent::new("request")
                            .num("conn", conn_id as f64)
                            .field("op", "query")
                            .field("tenant", tenant.clone())
                            .num("questions", questions.len() as f64)
                            .text("q0", questions.first().map_or("", String::as_str))
                            .num("answered", answered as f64),
                    );
                    (Response::Results(outcomes), true)
                }
            }
        }
    };
    frame::write_frame(stream, &response.to_bytes()).is_ok() && keep
}
