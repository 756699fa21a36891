//! The TCP front-end: listener, pipelined connection handlers, admission
//! control, graceful shutdown.
//!
//! One [`NetServer`] owns a listener thread plus two threads per live
//! connection:
//!
//! * the **reader** decodes frames off the socket and dispatches them. A
//!   RELEASE is pushed into the shared [`ReleaseService`] via
//!   `try_submit_into` — never the blocking path — so when the bounded
//!   admission queue refuses, the client gets a typed [`Frame::Busy`]
//!   immediately instead of stalling every other request on the
//!   connection. The submission carries a sink: the worker that serves
//!   the release sends the response straight into the connection's channel;
//! * the **writer** blocks on that one channel, writes every response it
//!   holds, and flushes once per batch. Releases therefore return **out of
//!   order**, in completion order, matched by sequence number — that is
//!   what lets one connection keep `max_pipeline` requests in flight.
//!
//! Back-pressure has three layers, all surfaced as typed frames rather
//! than silence: per-connection pipeline depth ([`Frame::Busy`]), the
//! service admission queue ([`Frame::Busy`] again — the budget spend is
//! rolled back by the service), and the listener's connection cap
//! ([`ErrorCode::TooManyConnections`]).
//!
//! Shutdown is graceful: the accept loop stops, readers notice the flag at
//! their next read-timeout tick and stop decoding, and each writer *drains
//! its in-flight requests* — every admitted release still gets its response
//! frame before the socket closes. The drain has one deadline per
//! connection (`drain_timeout`); whatever is still in flight then is
//! abandoned with one typed notice.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pufferfish_core::NoisyRelease;
use pufferfish_markov::MarkovChainClass;
use pufferfish_query::{QueryError, QueryResult, QueryService, Table};
use pufferfish_service::{
    ProgressiveRelease, RefinementSchedule, RefinementStep, ReleaseRequest, ReleaseService,
    ServiceError, ServiceTelemetry, StreamBackend,
};
use pufferfish_telemetry::{
    Counter, FlightRecorder, MetricSample, Registry, RequestTrace, Stage, StageHistograms,
};

use crate::frame::{
    decode, encode, Envelope, ErrorCode, Frame, FrameError, WireCell, WireQueryResult, WireWindow,
    DEFAULT_MAX_FRAME_LEN,
};

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Connections accepted concurrently; further clients get a typed
    /// [`ErrorCode::TooManyConnections`] frame and are dropped.
    pub max_connections: usize,
    /// In-flight requests allowed per connection before the server answers
    /// [`Frame::Busy`] without touching the service.
    pub max_pipeline: usize,
    /// Socket read timeout — the tick at which idle readers re-check the
    /// shutdown flag, so it bounds shutdown latency, not client patience.
    pub read_timeout: Duration,
    /// A connection silent this long is closed.
    pub idle_timeout: Duration,
    /// Largest frame read or written.
    pub max_frame_len: u32,
    /// Back-off hint carried by every [`Frame::Busy`], in milliseconds.
    pub busy_retry_hint_ms: u32,
    /// Once a connection's reader stops, how long its writer keeps
    /// answering the requests still in flight — one deadline for the whole
    /// connection, however many are in flight. At the deadline the writer
    /// sends one seq-0 [`ErrorCode::Internal`] notice counting the abandoned
    /// requests and closes the socket.
    pub drain_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            max_pipeline: 128,
            read_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_secs(60),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            busy_retry_hint_ms: 1,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The declarative-query surface of a server: a [`QueryService`] plus the
/// tables it serves, looked up by name from QUERY frames.
pub struct QueryEndpoint {
    service: QueryService,
    tables: HashMap<String, Table>,
}

impl QueryEndpoint {
    /// Wraps a query service with an empty table registry.
    pub fn new(service: QueryService) -> Self {
        QueryEndpoint {
            service,
            tables: HashMap::new(),
        }
    }

    /// Registers `table` under its own name, replacing any previous table
    /// with that name.
    pub fn register_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// The underlying query service.
    pub fn service(&self) -> &QueryService {
        &self.service
    }
}

/// The anytime-release surface of a server: the restriction class and the
/// stream mechanism PROGRESSIVE frames are answered with. Per-step budget is
/// charged to the shared [`ReleaseService`]'s accountant under the same
/// `tenant#user` identity RELEASE frames use.
pub struct ProgressiveEndpoint {
    class: MarkovChainClass,
    backend: StreamBackend,
}

impl ProgressiveEndpoint {
    /// An endpoint answering progressive releases for `class` via `backend`.
    pub fn new(class: MarkovChainClass, backend: StreamBackend) -> Self {
        ProgressiveEndpoint { class, backend }
    }
}

/// How a server is instrumented: the registry its metrics land in (the
/// caller may keep it to render or audit in process) and an optional flight
/// recorder for slow-request breakdowns. [`NetServer::bind`] uses
/// [`TelemetryOptions::new`].
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// The registry every layer registers against. Passing the same
    /// registry to multiple servers merges their metrics.
    pub registry: Arc<Registry>,
    /// Captures the stage breakdown of slow requests (see
    /// [`FlightRecorder`]); `None` keeps histograms only, and then no
    /// per-request trace is built.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl TelemetryOptions {
    /// Options with a fresh registry and no recorder.
    pub fn new() -> Self {
        TelemetryOptions {
            registry: Arc::new(Registry::new()),
            recorder: None,
        }
    }
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// The net layer's resolved metric handles: wire byte counters plus the
/// decode/encode slices of the shared `stage_*_ns` family (the service
/// records admission and the worker stages into the same histograms).
struct NetTelemetry {
    registry: Arc<Registry>,
    rx_bytes: Counter,
    tx_bytes: Counter,
    stages: StageHistograms,
    recorder: Option<Arc<FlightRecorder>>,
}

struct Inner {
    release: Arc<ReleaseService>,
    query: Option<QueryEndpoint>,
    progressive: Option<ProgressiveEndpoint>,
    config: NetServerConfig,
    telemetry: NetTelemetry,
    shutdown: AtomicBool,
    active: AtomicUsize,
    total: AtomicU64,
    refused: AtomicU64,
}

impl Inner {
    /// The METRICS answer: the registry snapshot plus the release service's
    /// stats (`service_…`) and, when a query endpoint is attached, the query
    /// front-end's (`query_…`), rendered now and sorted by name.
    fn metrics(&self) -> Vec<MetricSample> {
        let mut samples = self.telemetry.registry.snapshot();
        samples.extend(self.release.stats().metric_samples("service"));
        if let Some(endpoint) = &self.query {
            samples.extend(endpoint.service.stats().metric_samples("query"));
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        samples
    }
}

/// A running TCP front-end over a shared [`ReleaseService`] (and optionally
/// a [`QueryEndpoint`]).
///
/// Dropping the server shuts it down gracefully; [`NetServer::shutdown`]
/// does the same explicitly. The server never owns the release service —
/// callers keep their `Arc` and decide its lifetime separately.
pub struct NetServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds a release-only server on `addr` (port 0 picks an ephemeral
    /// port; see [`NetServer::local_addr`]), instrumented with
    /// [`TelemetryOptions::new`]: a fresh registry and no flight recorder.
    ///
    /// # Errors
    /// [`std::io::Error`] when the bind fails.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        release: Arc<ReleaseService>,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        Self::bind_full(addr, release, None, None, config, TelemetryOptions::new())
    }

    /// Binds a server with every surface the caller provides: RELEASE and
    /// METRICS always, QUERY and PROGRESSIVE when their endpoints are given.
    /// A PROGRESSIVE request streams one [`Frame::RefineOk`] per schedule
    /// step, all echoing its sequence number, interleaved with the
    /// connection's other pipelined responses.
    ///
    /// Every server is instrumented against `telemetry.registry`: wire byte
    /// counters and the decode/encode stages, in one `stage_*_ns` family
    /// with the release service's worker stages. The shared `release`
    /// service (and the engine behind it) has its telemetry enabled against
    /// the same registry, replacing any telemetry attached to it before.
    /// METRICS answers with that registry plus the serving stats.
    ///
    /// # Errors
    /// [`std::io::Error`] when the bind fails.
    pub fn bind_full<A: ToSocketAddrs>(
        addr: A,
        release: Arc<ReleaseService>,
        query: Option<QueryEndpoint>,
        progressive: Option<ProgressiveEndpoint>,
        config: NetServerConfig,
        telemetry: TelemetryOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let TelemetryOptions { registry, recorder } = telemetry;
        let service_telemetry = match &recorder {
            Some(recorder) => {
                ServiceTelemetry::with_recorder(Arc::clone(&registry), Arc::clone(recorder))
            }
            None => ServiceTelemetry::new(Arc::clone(&registry)),
        };
        release.enable_telemetry(Arc::new(service_telemetry));
        let telemetry = NetTelemetry {
            rx_bytes: registry.counter("net_rx_bytes_total"),
            tx_bytes: registry.counter("net_tx_bytes_total"),
            stages: StageHistograms::register(&registry, "stage"),
            recorder,
            registry,
        };
        let inner = Arc::new(Inner {
            release,
            query,
            progressive,
            config,
            telemetry,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            total: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name("pufferfish-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawning the accept thread failed");
        Ok(NetServer {
            inner,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub fn total_connections(&self) -> u64 {
        self.inner.total.load(Ordering::SeqCst)
    }

    /// Connections refused at the [`NetServerConfig::max_connections`] cap.
    pub fn refused_connections(&self) -> u64 {
        self.inner.refused.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let every reader stop at its next
    /// timeout tick, drain all in-flight responses, close every socket, and
    /// join every thread. The shared [`ReleaseService`] keeps running.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(handle) = self.accept_handle.take() else {
            return;
        };
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if even that
        // fails the listener is already dead and join returns anyway.
        let _ = TcpStream::connect(self.local_addr);
        let _ = handle.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handles.retain(|h| !h.is_finished());
        if inner.active.load(Ordering::SeqCst) >= inner.config.max_connections {
            inner.refused.fetch_add(1, Ordering::SeqCst);
            refuse_connection(stream, inner.config.max_frame_len);
            continue;
        }
        inner.active.fetch_add(1, Ordering::SeqCst);
        inner.total.fetch_add(1, Ordering::SeqCst);
        let conn_inner = Arc::clone(&inner);
        match std::thread::Builder::new()
            .name("pufferfish-net-conn".to_string())
            .spawn(move || {
                handle_connection(&conn_inner, stream);
                conn_inner.active.fetch_sub(1, Ordering::SeqCst);
            }) {
            Ok(handle) => handles.push(handle),
            Err(_) => {
                inner.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Tells an over-the-cap client *why* it was dropped with one best-effort
/// typed frame before closing.
fn refuse_connection(mut stream: TcpStream, max_frame_len: u32) {
    let envelope = Envelope {
        seq: 0,
        frame: Frame::Error {
            code: ErrorCode::TooManyConnections,
            message: "connection limit reached".to_string(),
        },
    };
    if let Ok(bytes) = encode(&envelope, max_frame_len) {
        let _ = stream.write_all(&bytes);
        let _ = stream.flush();
    }
}

/// What the connection's threads hand the writer.
enum Outgoing {
    /// A reply ready now.
    Now(u64, Frame),
    /// A release's response, sent by the worker that served it (with the
    /// request trace, so the writer can record the encode stage and finish
    /// it). Frees the request's pipeline slot.
    Released(
        u64,
        Result<NoisyRelease, ServiceError>,
        Option<Arc<RequestTrace>>,
    ),
    /// A progressive stream sent its last frame. Frees its pipeline slot.
    StreamEnded,
    /// The reader has stopped: exit once nothing is in flight.
    Drain,
    /// The drain deadline passed: give up on whatever is still in flight.
    Abandon,
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let config = &inner.config;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = std::sync::mpsc::channel::<Outgoing>();
    let inflight = Arc::new(AtomicUsize::new(0));
    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let inner = Arc::clone(inner);
        let inflight = Arc::clone(&inflight);
        let done = Arc::clone(&writer_done);
        let reader = std::thread::current();
        std::thread::Builder::new()
            .name("pufferfish-net-write".to_string())
            .spawn(move || {
                writer_loop(write_stream, rx, &inflight, &inner);
                done.store(true, Ordering::Release);
                reader.unpark();
            })
    };
    let Ok(writer) = writer else { return };

    read_loop(inner, stream, &tx, &inflight);

    // The drain: one deadline for the whole connection, however many
    // requests are still in flight.
    let deadline = Instant::now() + config.drain_timeout;
    let _ = tx.send(Outgoing::Drain);
    while !writer_done.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            let _ = tx.send(Outgoing::Abandon);
            break;
        }
        std::thread::park_timeout(deadline - now);
    }
    drop(tx);
    let _ = writer.join();
}

/// Decodes and dispatches frames until EOF, Goodbye, shutdown, idle
/// timeout, or a protocol error.
fn read_loop(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    tx: &Sender<Outgoing>,
    inflight: &Arc<AtomicUsize>,
) {
    let config = &inner.config;
    let mut buffer: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut scratch = [0u8; 16 * 1024];
    let mut tenant: Option<String> = None;
    let mut last_activity = Instant::now();

    loop {
        // Drain every complete frame currently buffered.
        loop {
            if buffer.is_empty() {
                break;
            }
            let decode_started = Instant::now();
            match decode(&buffer, config.max_frame_len) {
                Ok((envelope, consumed)) => {
                    let decode_ns = nanos_since(decode_started);
                    inner.telemetry.stages.record(Stage::Decode, decode_ns);
                    buffer.drain(..consumed);
                    if !dispatch(inner, envelope, &mut tenant, tx, inflight, decode_ns) {
                        return;
                    }
                }
                Err(FrameError::Truncated { .. }) => break,
                Err(error) => {
                    // The stream cannot be resynchronised after a framing
                    // error; answer once, typed, and close.
                    let _ = tx.send(Outgoing::Now(
                        0,
                        Frame::Error {
                            code: ErrorCode::Malformed,
                            message: error.to_string(),
                        },
                    ));
                    return;
                }
            }
        }

        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => {
                inner.telemetry.rx_bytes.add(n as u64);
                buffer.extend_from_slice(&scratch[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The periodic tick: notice shutdown and idleness.
                if inner.shutdown.load(Ordering::SeqCst) {
                    let _ = tx.send(Outgoing::Now(
                        0,
                        Frame::Error {
                            code: ErrorCode::Shutdown,
                            message: "server shutting down".to_string(),
                        },
                    ));
                    return;
                }
                if last_activity.elapsed() >= config.idle_timeout {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one decoded envelope. Returns `false` when the connection should
/// close.
fn dispatch(
    inner: &Arc<Inner>,
    envelope: Envelope,
    tenant: &mut Option<String>,
    tx: &Sender<Outgoing>,
    inflight: &Arc<AtomicUsize>,
    decode_ns: u64,
) -> bool {
    let config = &inner.config;
    let seq = envelope.seq;
    let send_now = |frame: Frame| tx.send(Outgoing::Now(seq, frame)).is_ok();

    let Some(tenant_name) = tenant.as_deref() else {
        // First frame must authenticate the tenant.
        return match envelope.frame {
            Frame::Hello { tenant: name } => {
                *tenant = Some(name);
                send_now(Frame::HelloOk {
                    max_pipeline: config.max_pipeline as u32,
                    max_frame_len: config.max_frame_len,
                })
            }
            _ => {
                send_now(Frame::Error {
                    code: ErrorCode::NotHello,
                    message: "first frame must be HELLO".to_string(),
                });
                false
            }
        };
    };

    match envelope.frame {
        Frame::Hello { .. } => {
            send_now(Frame::Error {
                code: ErrorCode::Malformed,
                message: "duplicate HELLO".to_string(),
            });
            false
        }
        Frame::Release {
            user,
            query,
            epsilon,
            seed,
            database,
        } => {
            if inflight.load(Ordering::SeqCst) >= config.max_pipeline {
                return send_now(Frame::Busy {
                    retry_hint_ms: config.busy_retry_hint_ms,
                });
            }
            let built = match query.build() {
                Ok(built) => built,
                Err(error) => {
                    return send_now(Frame::Error {
                        code: ErrorCode::Malformed,
                        message: error.to_string(),
                    });
                }
            };
            let request = ReleaseRequest {
                // The budget identity is the *authenticated* tenant plus the
                // per-frame user id: clients multiplex millions of users per
                // connection, but can never spend another tenant's budget.
                user: scoped_user(tenant_name, user),
                query: built,
                database: database.into_iter().map(usize::from).collect(),
                epsilon,
                seed,
            };
            // With a flight recorder attached, the request carries a trace
            // keyed by its wire seq: the decode time recorded here,
            // admission and the worker stages by the service, encode by the
            // writer.
            let trace = new_trace(inner, seq, decode_ns);
            // The slot is taken before submitting: the worker can complete
            // the release, and the writer free the slot, before the submit
            // call returns.
            inflight.fetch_add(1, Ordering::SeqCst);
            let (sink_tx, sink_trace) = (tx.clone(), trace.clone());
            let sink = move |result| {
                let _ = sink_tx.send(Outgoing::Released(seq, result, sink_trace));
            };
            let Err(refusal) = inner.release.try_submit_into(request, trace, sink) else {
                return true;
            };
            inflight.fetch_sub(1, Ordering::SeqCst);
            match refusal {
                ServiceError::QueueFull { .. } => send_now(Frame::Busy {
                    retry_hint_ms: config.busy_retry_hint_ms,
                }),
                ServiceError::BudgetExhausted {
                    requested,
                    remaining,
                    ..
                } => send_now(Frame::BudgetExhausted {
                    requested,
                    remaining,
                }),
                ServiceError::ServiceClosed => {
                    send_now(Frame::Error {
                        code: ErrorCode::Shutdown,
                        message: "release service is closed".to_string(),
                    });
                    false
                }
                ServiceError::Mechanism(error) => send_now(Frame::Error {
                    code: ErrorCode::Mechanism,
                    message: error.to_string(),
                }),
                error => send_now(Frame::Error {
                    code: ErrorCode::Internal,
                    message: error.to_string(),
                }),
            }
        }
        Frame::Query {
            user,
            table,
            statement,
            seed,
        } => {
            let Some(endpoint) = &inner.query else {
                return send_now(Frame::Error {
                    code: ErrorCode::Unsupported,
                    message: "this server has no query endpoint".to_string(),
                });
            };
            let Some(table) = endpoint.tables.get(&table) else {
                return send_now(Frame::Error {
                    code: ErrorCode::TableNotFound,
                    message: format!("no table named {table:?}"),
                });
            };
            let user = scoped_user(tenant_name, user);
            match endpoint.service.query(&user, &statement, table, seed) {
                Ok(result) => send_now(Frame::QueryOk(wire_result(&result))),
                Err(error) => send_now(query_error_frame(error)),
            }
        }
        Frame::Progressive {
            user,
            confidence,
            seed,
            steps,
            database,
        } => {
            if inner.progressive.is_none() {
                return send_now(Frame::Error {
                    code: ErrorCode::Unsupported,
                    message: "this server has no progressive endpoint".to_string(),
                });
            }
            if inflight.load(Ordering::SeqCst) >= config.max_pipeline {
                return send_now(Frame::Busy {
                    retry_hint_ms: config.busy_retry_hint_ms,
                });
            }
            // Re-validate the schedule server-side: the wire carries claims,
            // the schedule invariants are what admission trusts.
            let steps = steps
                .into_iter()
                .map(|step| RefinementStep {
                    prefix: step.prefix as usize,
                    epsilon: step.epsilon,
                    error_bound: step.error_bound,
                })
                .collect();
            let schedule = match RefinementSchedule::new(steps, confidence) {
                Ok(schedule) => schedule,
                Err(error) => {
                    return send_now(Frame::Error {
                        code: ErrorCode::Malformed,
                        message: error.to_string(),
                    });
                }
            };
            if database.len() != schedule.window() {
                return send_now(Frame::Error {
                    code: ErrorCode::Malformed,
                    message: format!(
                        "progressive database has {} events but the schedule's window is {}",
                        database.len(),
                        schedule.window()
                    ),
                });
            }
            let user = scoped_user(tenant_name, user);
            let database: Vec<usize> = database.into_iter().map(usize::from).collect();
            let trace = new_trace(inner, seq, decode_ns);
            // Each PROGRESSIVE request gets its own driver thread so its
            // refinement stream interleaves with the connection's other
            // pipelined traffic; the stream holds a pipeline slot until its
            // end marker reaches the writer, so the drain waits for it.
            inflight.fetch_add(1, Ordering::SeqCst);
            let worker_inner = Arc::clone(inner);
            let worker_tx = tx.clone();
            let spawned = std::thread::Builder::new()
                .name("pufferfish-net-progressive".to_string())
                .spawn(move || {
                    run_progressive(
                        &worker_inner,
                        &worker_tx,
                        seq,
                        user,
                        schedule,
                        seed,
                        &database,
                        trace,
                    );
                    let _ = worker_tx.send(Outgoing::StreamEnded);
                });
            match spawned {
                Ok(_) => true,
                Err(_) => {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    send_now(Frame::Error {
                        code: ErrorCode::Internal,
                        message: "spawning the progressive driver failed".to_string(),
                    })
                }
            }
        }
        Frame::Metrics => send_now(Frame::MetricsOk(inner.metrics())),
        Frame::Goodbye => false,
        // Response kinds arriving at the server are a protocol violation.
        _ => {
            send_now(Frame::Error {
                code: ErrorCode::Malformed,
                message: "response frame sent to server".to_string(),
            });
            false
        }
    }
}

/// The budget identity a frame is charged to: `tenant#user-id-in-hex`.
fn scoped_user(tenant: &str, user: u64) -> String {
    format!("{tenant}#{user:x}")
}

/// A request trace holding its decode stage, built only when a flight
/// recorder will read it.
fn new_trace(inner: &Inner, seq: u64, decode_ns: u64) -> Option<Arc<RequestTrace>> {
    inner.telemetry.recorder.as_ref().map(|_| {
        let trace = Arc::new(RequestTrace::new(seq));
        trace.record(Stage::Decode, decode_ns);
        trace
    })
}

/// Nanoseconds since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drives one PROGRESSIVE request to completion on its own thread: admits
/// the whole schedule against the shared accountant, replays the window
/// through the driver, and ships each refinement as a seq-correlated
/// [`Frame::RefineOk`] the moment it is ready. Every early return (budget
/// refusal, mechanism failure, dead writer) drops the driver, whose guard
/// refunds the unconsumed steps.
#[allow(clippy::too_many_arguments)]
fn run_progressive(
    inner: &Arc<Inner>,
    tx: &Sender<Outgoing>,
    seq: u64,
    user: String,
    schedule: RefinementSchedule,
    seed: u64,
    database: &[usize],
    trace: Option<Arc<RequestTrace>>,
) {
    let endpoint = inner
        .progressive
        .as_ref()
        .expect("dispatch checked the endpoint exists");
    let send_now = |frame: Frame| tx.send(Outgoing::Now(seq, frame)).is_ok();
    let error_frame = |error: ServiceError| match error {
        ServiceError::BudgetExhausted {
            requested,
            remaining,
            ..
        } => Frame::BudgetExhausted {
            requested,
            remaining,
        },
        ServiceError::InvalidConfig(_) => Frame::Error {
            code: ErrorCode::Malformed,
            message: error.to_string(),
        },
        ServiceError::Mechanism(_) => Frame::Error {
            code: ErrorCode::Mechanism,
            message: error.to_string(),
        },
        other => Frame::Error {
            code: ErrorCode::Internal,
            message: other.to_string(),
        },
    };

    let started = Instant::now();
    let mut driver = match ProgressiveRelease::begin(
        "net-progressive",
        &endpoint.class,
        schedule,
        endpoint.backend,
        inner.release.budget(),
        &user,
        seed,
    ) {
        Ok(driver) => driver,
        Err(error) => {
            send_now(error_frame(error));
            return;
        }
    };
    for &event in database {
        match driver.push(event) {
            Ok(None) => {}
            Ok(Some(update)) => {
                let delivered = send_now(Frame::RefineOk {
                    step: update.step as u32,
                    total_steps: update.total_steps as u32,
                    prefix: update.prefix as u32,
                    scale: update.release.scale,
                    epsilon: update.epsilon,
                    certified_error: update.certified_error,
                    spent_epsilon: update.spent_epsilon,
                    values: update.release.values,
                });
                if !delivered {
                    // The connection is gone; the driver's drop guard
                    // refunds whatever the schedule had not yet consumed.
                    return;
                }
            }
            Err(error) => {
                send_now(error_frame(error));
                return;
            }
        }
    }
    let watch = &inner.telemetry;
    let ns = nanos_since(started);
    watch.stages.record(Stage::Progressive, ns);
    if let (Some(trace), Some(recorder)) = (&trace, &watch.recorder) {
        trace.record(Stage::Progressive, ns);
        recorder.observe(trace);
    }
}

fn wire_result(result: &QueryResult) -> WireQueryResult {
    WireQueryResult {
        mechanism: result.mechanism().to_string(),
        noise_scale: result.noise_scale(),
        total_epsilon: result.total_epsilon(),
        cells: result
            .cells()
            .iter()
            .map(|cell| WireCell {
                key: cell.key().to_string(),
                windows: cell
                    .window_ends()
                    .iter()
                    .zip(cell.releases())
                    .map(|(&end, release)| WireWindow {
                        end: u32::try_from(end).unwrap_or(u32::MAX),
                        // The wire is the trust boundary: only the noisy
                        // values ever leave the process.
                        values: release.values.clone(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn query_error_frame(error: QueryError) -> Frame {
    match error {
        QueryError::Budget(ServiceError::BudgetExhausted {
            requested,
            remaining,
            ..
        }) => Frame::BudgetExhausted {
            requested,
            remaining,
        },
        QueryError::Parse { .. } => Frame::Error {
            code: ErrorCode::Parse,
            message: error.to_string(),
        },
        QueryError::Mechanism(_) => Frame::Error {
            code: ErrorCode::Mechanism,
            message: error.to_string(),
        },
        QueryError::Budget(_) => Frame::Error {
            code: ErrorCode::Internal,
            message: error.to_string(),
        },
        // Plan, NoEligibleMechanism, UnknownMechanism: the statement is
        // valid but this server cannot serve it.
        _ => Frame::Error {
            code: ErrorCode::Unsupported,
            message: error.to_string(),
        },
    }
}

/// Writes replies in the order they reach the channel — for releases,
/// completion order. It blocks on the channel, writes every item the channel
/// holds, then flushes once. After [`Outgoing::Drain`] it exits as soon as
/// nothing is in flight; [`Outgoing::Abandon`] makes it give up on the rest
/// with one seq-0 notice that counts them.
fn writer_loop(stream: TcpStream, rx: Receiver<Outgoing>, inflight: &AtomicUsize, inner: &Inner) {
    let (config, watch) = (&inner.config, &inner.telemetry);
    let mut out = std::io::BufWriter::with_capacity(64 * 1024, stream);
    let mut draining = false;
    while let Ok(first) = rx.recv() {
        for outgoing in std::iter::once(first).chain(rx.try_iter()) {
            match outgoing {
                Outgoing::Now(seq, frame) => {
                    let Some(written) = write_frame(&mut out, seq, frame, config) else {
                        return;
                    };
                    watch.tx_bytes.add(written as u64);
                }
                Outgoing::Released(seq, result, trace) => {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    // Encode + buffered write is the trace's final stage;
                    // the finished trace then goes to the flight recorder.
                    let encode_started = Instant::now();
                    let Some(written) = write_frame(&mut out, seq, release_frame(result), config)
                    else {
                        return;
                    };
                    let ns = nanos_since(encode_started);
                    watch.stages.record(Stage::Encode, ns);
                    watch.tx_bytes.add(written as u64);
                    if let (Some(trace), Some(recorder)) = (&trace, &watch.recorder) {
                        trace.record(Stage::Encode, ns);
                        recorder.observe(trace);
                    }
                }
                Outgoing::StreamEnded => {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                }
                Outgoing::Drain => draining = true,
                Outgoing::Abandon => {
                    let abandoned = inflight.load(Ordering::SeqCst);
                    let notice = Frame::Error {
                        code: ErrorCode::Internal,
                        message: format!(
                            "drain timeout: {abandoned} in-flight requests abandoned at close"
                        ),
                    };
                    let _ = write_frame(&mut out, 0, notice, config);
                    let _ = out.flush();
                    return;
                }
            }
        }
        if out.flush().is_err() || (draining && inflight.load(Ordering::SeqCst) == 0) {
            return;
        }
    }
}

/// The response frame for a release's outcome.
fn release_frame(result: Result<NoisyRelease, ServiceError>) -> Frame {
    match result {
        Ok(release) => Frame::ReleaseOk {
            scale: release.scale,
            values: release.values,
        },
        Err(ServiceError::ServiceClosed) => Frame::Error {
            code: ErrorCode::Shutdown,
            message: "release service closed mid-flight".to_string(),
        },
        Err(ServiceError::Mechanism(error)) => Frame::Error {
            code: ErrorCode::Mechanism,
            message: error.to_string(),
        },
        Err(error) => Frame::Error {
            code: ErrorCode::Internal,
            message: error.to_string(),
        },
    }
}

/// Encodes and writes one response frame, returning the bytes written
/// (`None` when the socket is dead and the connection should close).
fn write_frame(
    out: &mut std::io::BufWriter<TcpStream>,
    seq: u64,
    frame: Frame,
    config: &NetServerConfig,
) -> Option<usize> {
    let envelope = Envelope { seq, frame };
    match encode(&envelope, config.max_frame_len) {
        Ok(bytes) => out.write_all(&bytes).ok().map(|()| bytes.len()),
        // An unencodable response (a release larger than max_frame_len)
        // still must answer the sequence number, or the client hangs.
        Err(error) => {
            let fallback = Envelope {
                seq,
                frame: Frame::Error {
                    code: ErrorCode::Internal,
                    message: format!("response unencodable: {error}"),
                },
            };
            match encode(&fallback, config.max_frame_len) {
                Ok(bytes) => out.write_all(&bytes).ok().map(|()| bytes.len()),
                Err(_) => None,
            }
        }
    }
}
