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
//! A drain (the `shutdown` op, or [`ServerHandle::trigger_drain`])
//! flips one atomic:
//!
//! 1. new connections are *refused with a typed `draining` error*, not
//!    dropped;
//! 2. a request already being served runs to completion on its
//!    connection thread with correct answers — [`ServerHandle::join`]
//!    waits for every connection thread;
//! 3. idle keep-alive connections close at their next read tick; a
//!    `query` arriving on a live connection after the drain gets the
//!    typed `draining` error;
//! 4. [`ServerHandle::join`] then returns a [`ServerReport`] with the
//!    flushed metrics JSON (full and deterministic views).
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use dbpal_core::TranslationModel;
use dbpal_util::frame::{self, FrameError};
use dbpal_util::metrics::{Counter, Histogram};
use dbpal_util::LogEvent;

use crate::net::protocol::{ErrorKind, QueryOutcome, Request, Response};
use crate::QueryService;

/// How often an idle connection's read loop wakes to check for drain.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Read timeout while inside a frame (header started): a peer that
/// stalls longer mid-frame is treated as broken, which also bounds
/// slow-loris style half-frames.
const FRAME_GRACE: Duration = Duration::from_secs(2);

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

struct Inner<M: TranslationModel + Send + Sync> {
    service: QueryService<M>,
    config: ServerConfig,
    addr: SocketAddr,
    draining: AtomicBool,
    accept_stop: AtomicBool,
    log_seq: AtomicU64,
    active_conns: AtomicUsize,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    m: ServerMetrics,
}

impl<M: TranslationModel + Send + Sync> Inner<M> {
    fn log(&self, ev: LogEvent) {
        if self.config.log {
            let seq = self.log_seq.fetch_add(1, Ordering::Relaxed);
            eprintln!("{}", ev.num("seq", seq as f64));
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn trigger_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.log(LogEvent::new("drain").flag("accepting", false));
        // The drain flag mutex guards a single bool; poisoning cannot
        // leave it inconsistent, so a panicked holder is survivable.
        *self.drained.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.drained_cv.notify_all();
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
        draining: AtomicBool::new(false),
        accept_stop: AtomicBool::new(false),
        log_seq: AtomicU64::new(0),
        active_conns: AtomicUsize::new(0),
        conn_handles: Mutex::new(Vec::new()),
        drained: Mutex::new(false),
        drained_cv: Condvar::new(),
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
        // 1. Wait for the drain trigger (ours or the wire's).
        {
            let mut d = inner.drained.lock().unwrap_or_else(PoisonError::into_inner);
            while !*d {
                d = inner
                    .drained_cv
                    .wait(d)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // 2. Let every connection thread finish. Handles are registered
        // just after spawn, so briefly-untracked threads show up in
        // `active_conns` and another pass picks them up.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut hs = inner
                    .conn_handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                hs.drain(..).collect()
            };
            if handles.is_empty() {
                if inner.active_conns.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // 3. Unblock and join the accept loop.
        inner.accept_stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(inner.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // 4. Flush.
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

fn run_accept<M: TranslationModel + Send + Sync + 'static>(
    inner: &Arc<Inner<M>>,
    listener: TcpListener,
) {
    let mut next_conn_id = 0u64;
    for stream in listener.incoming() {
        if inner.accept_stop.load(Ordering::Acquire) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if inner.draining() {
            inner.m.refused.inc();
            inner.log(LogEvent::new("refused").field("reason", "draining"));
            refuse(&mut stream, ErrorKind::Draining, "server is draining");
            continue;
        }
        if inner.active_conns.load(Ordering::Acquire) >= inner.config.max_connections {
            inner.m.refused.inc();
            inner.log(LogEvent::new("refused").field("reason", "busy"));
            refuse(&mut stream, ErrorKind::Busy, "connection limit reached");
            continue;
        }
        inner.active_conns.fetch_add(1, Ordering::AcqRel);
        inner.m.connections.inc();
        next_conn_id += 1;
        let conn_id = next_conn_id;
        inner.log(LogEvent::new("accepted").num("conn", conn_id as f64));
        let conn_inner = Arc::clone(inner);
        let handle = std::thread::spawn(move || {
            run_conn(&conn_inner, stream, conn_id);
            conn_inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        });
        inner
            .conn_handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
}

// ----- connection threads -----------------------------------------------

enum ReadOutcome {
    Frame(Vec<u8>),
    Eof,
    DrainingIdle,
    Oversized { declared: usize },
    Broken,
}

/// Read one frame, waking every [`IDLE_TICK`] while idle so a drain can
/// close the connection. The header is asked for with one read; once a
/// frame's first bytes arrive, the rest is read under [`FRAME_GRACE`].
fn read_request<M: TranslationModel + Send + Sync>(
    inner: &Inner<M>,
    stream: &mut TcpStream,
) -> ReadOutcome {
    let mut header = [0u8; frame::HEADER_LEN];
    let got = loop {
        match stream.read(&mut header) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => break n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if inner.draining() {
                    return ReadOutcome::DrainingIdle;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Broken,
        }
    };
    let _ = stream.set_read_timeout(Some(FRAME_GRACE));
    if stream
        .read_exact(header.get_mut(got..).unwrap_or_default())
        .is_err()
    {
        return ReadOutcome::Broken;
    }
    let declared = frame::decode_len(header);
    let outcome = match frame::read_payload(stream, declared, inner.config.max_frame_len) {
        Ok(payload) => ReadOutcome::Frame(payload),
        Err(FrameError::TooLarge { declared, .. }) => ReadOutcome::Oversized { declared },
        Err(_) => ReadOutcome::Broken,
    };
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    outcome
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

fn run_conn<M: TranslationModel + Send + Sync + 'static>(
    inner: &Arc<Inner<M>>,
    mut stream: TcpStream,
    conn_id: u64,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    loop {
        match read_request(inner.as_ref(), &mut stream) {
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
fn handle_frame<M: TranslationModel + Send + Sync + 'static>(
    inner: &Arc<Inner<M>>,
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
