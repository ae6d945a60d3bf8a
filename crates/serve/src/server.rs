//! The overload-safe, deadline-bounded HTTP server.
//!
//! # Admission control
//!
//! Every connection passes one admission decision on the accept thread:
//!
//! 1. **Overload shed** — when the in-flight count has reached
//!    `handlers + queue_limit`, *or* more than `queue_limit` of this
//!    server's scoring jobs wait for a handler, the connection is
//!    answered `503 + Retry-After` and closed without touching a
//!    handler. The server sheds instead of queueing
//!    unboundedly — latency for admitted requests stays bounded.
//! 2. **Admit** — the connection gets a reader thread of its own and a
//!    freshly-armed per-request [`CancelToken`]. A reader that cannot be
//!    started sheds the connection like an overload.
//!
//! # Reading and scoring
//!
//! The reader takes the request off the socket and answers everything
//! that needs no scoring itself: `/healthz`, `/metrics`, `404`/`405` and
//! every transport error. A complete `/check` body becomes a job on the
//! handler pool ([`WorkerPool`]); the reader waits for its outcome and
//! writes the response, so no handler ever blocks on a `/check` socket
//! and an idle handler stays free to score a peer's lent spatial branch.
//! `/scan` streams: after the head, its connection goes to a handler,
//! which reads each frame as it scores.
//!
//! # Deadlines
//!
//! The token's deadline bounds every socket read of the request — each
//! read re-arms the socket timeout from the time left and fails once the
//! deadline has passed, so a client that trickles bytes cannot outlast
//! it — and drives the cooperative between-stage checks in the pipeline
//! (`decode → score → vote`, and between stream chunks on `/scan`).
//! Expiry answers `504`; a peer whose read times out before the
//! deadline gets `408`. Either way the admission slot is released
//! promptly — quarantined, never leaked.
//!
//! # Drain
//!
//! On SIGTERM (or [`ServerHandle::shutdown`]): `/healthz` flips to
//! not-ready **first**, new work is shed with a typed `503 draining`
//! while a short lame-duck window keeps the socket observable, then the
//! listener closes and in-flight requests get up to the drain deadline
//! to finish. [`Server::run`] returns a [`DrainReport`] saying whether
//! the drain completed. While serving, the accept thread blocks in
//! `accept`; a watcher thread polls the two triggers and wakes it with
//! a loopback connection.

use crate::http::{
    parse_head, read_head, read_sized_body, BodyPlan, ChunkedReader, HttpError, RequestHead,
    Response,
};
use crate::metrics::ServiceMetrics;
use crate::service::{CheckOutcome, DetectionService};
use crate::shutdown_signal;
use decamouflage_core::parallel::WorkerPool;
use decamouflage_core::stream::{ImageDecoder, Pulled, SourceItem};
use decamouflage_core::{CancelToken, ImageSource};
use decamouflage_imaging::codec::SampleAlloc;
use decamouflage_telemetry::escape_json;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Handler threads on the worker pool. Handlers only score: each
    /// connection is read and answered on a reader thread of its own.
    pub handlers: usize,
    /// Admission bound past the handlers: the maximum accepted-but-
    /// unfinished connections is `handlers + queue_limit`, and a backlog
    /// of scoring jobs (complete requests no handler has started) past
    /// `queue_limit` also sheds.
    pub queue_limit: usize,
    /// Per-request deadline (every socket read + between-stage checks).
    pub deadline: Duration,
    /// Maximum time in-flight requests get to finish after a drain
    /// starts. Should comfortably exceed `deadline`.
    pub drain_deadline: Duration,
    /// Lame-duck window after a drain starts during which the listener
    /// stays open (serving not-ready `/healthz`, shedding work with
    /// `503 draining`) so orchestrators observe the flip.
    pub lame_duck: Duration,
    /// Request-body cap (`413` past it), cumulative across `/scan`
    /// chunks.
    pub max_body_bytes: usize,
    /// Request-head cap (`431` past it).
    pub max_header_bytes: usize,
}

/// Frames (encoded images) read ahead at once while streaming `/scan`
/// bodies; each decodes only when it is scored.
const SCAN_CHUNK_SIZE: usize = 8;

/// How long a failed `accept` backs off, and how often the drain polls
/// its listener and the in-flight count.
const POLL: Duration = Duration::from_millis(2);

/// How often the shutdown watcher looks at the drain triggers: it bounds
/// how late a drain starts, and no request waits on it.
const WATCH_INTERVAL: Duration = Duration::from_millis(10);

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            handlers: 4,
            queue_limit: 16,
            deadline: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(10),
            lame_duck: Duration::from_millis(200),
            max_body_bytes: 8 * 1024 * 1024,
            max_header_bytes: 16 * 1024,
        }
    }
}

/// Shared mutable server state (accept thread + readers + handlers +
/// handle).
#[derive(Debug, Default)]
struct ServerState {
    in_flight: AtomicUsize,
    /// Scoring jobs on this server's pool that no handler has started.
    queued: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

impl ServerState {
    /// Whether a drain was asked for, by [`ServerHandle::shutdown`] or
    /// SIGTERM.
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || shutdown_signal::seen()
    }
}

/// How a drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight request finished before the deadline.
    pub drained: bool,
    /// Requests still in flight when the server gave up waiting.
    pub in_flight_at_exit: usize,
}

/// A clonable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests a graceful drain, exactly as SIGTERM would.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Admitted-but-unfinished connections right now.
    pub fn in_flight(&self) -> usize {
        self.state.in_flight.load(Ordering::SeqCst)
    }

    /// Whether the server has started draining.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }
}

/// Everything one request needs, cloned per admission.
struct ConnContext {
    service: Arc<DetectionService>,
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
    config: ServerConfig,
    token: CancelToken,
    accepted_at: Instant,
}

impl ConnContext {
    /// Ends the request's read phase, which runs from accept.
    fn read_done(&self, route: &str) {
        self.metrics.phase(route, "read", self.accepted_at.elapsed().as_secs_f64());
    }
}

/// Releases the admission slot when the connection is done — including
/// by panic (this guard's `Drop` still runs during unwind, so a crashed
/// reader or handler never leaks its slot).
struct InFlightGuard {
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.state.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.metrics.in_flight.dec();
    }
}

/// One admitted connection: its socket, its request's context, and the
/// admission slot it holds until it is dropped.
struct Connection {
    stream: Arc<TcpStream>,
    ctx: ConnContext,
    _slot: InFlightGuard,
}

impl Connection {
    /// Writes `response` (`None`: the peer is gone), closes the socket
    /// and accounts the request under `route`.
    fn finish(self, route: &'static str, response: Option<Response>) {
        let mut stream = &*self.stream;
        let status = match response {
            Some(response) => {
                // Even past the deadline the response must flush: the 504
                // itself needs a write window.
                let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                match response.write_to(&mut stream) {
                    Ok(()) => response.status.to_string(),
                    Err(_) => "closed".to_string(),
                }
            }
            None => "closed".to_string(),
        };
        let _ = stream.shutdown(Shutdown::Both);
        let metrics = &self.ctx.metrics;
        if status == "504" {
            metrics.deadline_expired.inc();
        }
        metrics.request(route, &status);
        metrics.latency(route, self.ctx.accepted_at.elapsed().as_secs_f64());
    }

    /// [`Connection::finish`] for a request answered where it was read,
    /// whose read phase ends here.
    fn answer(self, route: &'static str, response: Option<Response>) {
        self.ctx.read_done(route);
        self.finish(route, response);
    }
}

/// The socket as a request's reads see it: each read re-arms the socket
/// timeout from the time the request has left, and fails once its
/// deadline has passed, so a peer that trickles bytes cannot keep a
/// read going past the deadline.
struct DeadlineReader {
    stream: Arc<TcpStream>,
    token: CancelToken,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(left) = self.token.remaining() {
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        (&*self.stream).read(buf)
    }
}

/// The bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<DetectionService>,
    config: ServerConfig,
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
    /// The handlers: readers submit scoring jobs here.
    pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds the listener and spawns the handler pool.
    ///
    /// Telemetry: the server records into the process-global handle; a
    /// caller that wants `/metrics` to be live must have installed an
    /// enabled handle (the `serve` subcommand always does).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(config: ServerConfig, service: DetectionService) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let telemetry = decamouflage_telemetry::global();
        Ok(Self {
            listener,
            service: Arc::new(service),
            pool: Arc::new(WorkerPool::new(config.handlers.max(1))),
            config,
            state: Arc::new(ServerState::default()),
            metrics: Arc::new(ServiceMetrics::new(&telemetry)),
        })
    }

    /// The bound address (read this for the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A clonable handle for shutdown/observation from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    fn max_in_flight(&self) -> usize {
        self.config.handlers + self.config.queue_limit
    }

    /// Serves until SIGTERM or [`ServerHandle::shutdown`], then drains.
    ///
    /// # Errors
    ///
    /// A failure to start the shutdown watcher or to switch the listener
    /// to the drain's polling; accept errors back off and retry.
    pub fn run(self) -> io::Result<DrainReport> {
        let watcher = self.watch_for_shutdown()?;
        let woken = loop {
            match self.listener.accept() {
                Ok((stream, _)) if self.state.shutdown_requested() => break Some(stream),
                Ok((stream, _)) => self.admit(stream),
                Err(_) if self.state.shutdown_requested() => break None,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (e.g. EMFILE under a
                // connection storm): back off instead of spinning.
                Err(_) => std::thread::sleep(POLL),
            }
        };

        // Drain sequence. Readiness flips before anything else so load
        // balancers stop routing here while we are still observable.
        self.state.draining.store(true, Ordering::SeqCst);
        let drain_started = Instant::now();
        // The connection that ended the serving loop (the watcher's, or a
        // client's that beat it) is served like any other in the drain.
        if let Some(stream) = woken {
            self.admit(stream);
        }
        self.listener.set_nonblocking(true)?;
        loop {
            let elapsed = drain_started.elapsed();
            if elapsed >= self.config.drain_deadline {
                break;
            }
            let idle = self.state.in_flight.load(Ordering::SeqCst) == 0;
            if idle && elapsed >= self.config.lame_duck {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(POLL),
            }
        }
        // Stop accepting; give stragglers the rest of the deadline.
        drop(self.listener);
        while self.state.in_flight.load(Ordering::SeqCst) > 0
            && drain_started.elapsed() < self.config.drain_deadline
        {
            std::thread::sleep(POLL);
        }
        // With `draining` set, the watcher has returned or returns within
        // one interval.
        let _ = watcher.join();
        let in_flight_at_exit = self.state.in_flight.load(Ordering::SeqCst);
        Ok(DrainReport { drained: in_flight_at_exit == 0, in_flight_at_exit })
    }

    /// Starts the thread that ends the serving loop: it polls the drain
    /// triggers and, once one fires, wakes the blocking `accept` with a
    /// connection of its own.
    fn watch_for_shutdown(&self) -> io::Result<JoinHandle<()>> {
        let state = Arc::clone(&self.state);
        let mut wake = self.listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        std::thread::Builder::new().name("decam-serve-watch".into()).spawn(move || {
            while !state.draining.load(Ordering::SeqCst) {
                if state.shutdown_requested()
                    && TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok()
                {
                    return;
                }
                std::thread::sleep(WATCH_INTERVAL);
            }
        })
    }

    /// The per-connection admission decision (accept thread).
    fn admit(&self, stream: TcpStream) {
        let accepted_at = Instant::now();
        let in_flight = self.state.in_flight.load(Ordering::SeqCst);
        let backlog = self.state.queued.load(Ordering::SeqCst);
        if in_flight >= self.max_in_flight() || backlog > self.config.queue_limit {
            self.metrics.shed("overload");
            reject(&stream, overloaded_response());
            return;
        }
        self.state.in_flight.fetch_add(1, Ordering::SeqCst);
        self.metrics.in_flight.inc();
        let stream = Arc::new(stream);
        let conn = Connection {
            stream: Arc::clone(&stream),
            ctx: ConnContext {
                service: Arc::clone(&self.service),
                state: Arc::clone(&self.state),
                metrics: Arc::clone(&self.metrics),
                config: self.config.clone(),
                token: CancelToken::expiring_in(self.config.deadline),
                accepted_at,
            },
            _slot: InFlightGuard {
                state: Arc::clone(&self.state),
                metrics: Arc::clone(&self.metrics),
            },
        };
        let pool = Arc::clone(&self.pool);
        // Readers are detached: the drain waits on their admission slots,
        // which a connection releases when it drops, on unwind too.
        let reader = std::thread::Builder::new()
            .name("decam-reader".into())
            .spawn(move || read_request(conn, &pool));
        if reader.is_err() {
            // The failed spawn dropped the connection, and its slot with it.
            self.metrics.shed("overload");
            reject(&stream, overloaded_response());
        }
    }
}

/// The typed overload response.
fn overloaded_response() -> Response {
    Response::json(503, "{\"error\":\"overloaded\"}".into()).with_retry_after(1)
}

/// The typed draining response.
fn draining_response() -> Response {
    Response::json(503, "{\"error\":\"draining\"}".into()).with_retry_after(1)
}

/// Best-effort response on the accept thread; a tiny body fits the
/// fresh socket buffer, so this cannot stall the accept loop.
fn reject(mut stream: &TcpStream, response: Response) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// A reader thread: reads one request under its deadline and answers it,
/// handing only scoring to a handler.
fn read_request(conn: Connection, pool: &WorkerPool) {
    let _ = conn.stream.set_nodelay(true);
    let mut reader = BufReader::new(DeadlineReader {
        stream: Arc::clone(&conn.stream),
        token: conn.ctx.token.clone(),
    });
    let head = match read_head(&mut reader, conn.ctx.config.max_header_bytes) {
        Ok(Some(bytes)) => parse_head(&bytes),
        Ok(None) => return conn.answer("none", None),
        Err(err) => Err(err),
    };
    let head = match head {
        Ok(head) => head,
        Err(err) => {
            let response = error_response(err, &conn.ctx.token);
            return conn.answer("unknown", response);
        }
    };
    match (head.method.as_str(), head.path()) {
        ("GET", "/healthz") => {
            let response = healthz(&conn.ctx);
            conn.answer("/healthz", Some(response));
        }
        ("GET", "/metrics") => conn.answer("/metrics", Some(metrics_exposition())),
        ("POST", "/check") => check(&head, &mut reader, conn, pool),
        ("POST", "/scan") => scan_on_handler(head, reader, conn, pool),
        (_, "/healthz" | "/metrics" | "/check" | "/scan") => conn.answer(
            "method-not-allowed",
            Some(Response::json(405, "{\"error\":\"method-not-allowed\"}".into())),
        ),
        _ => {
            conn.answer("not-found", Some(Response::json(404, "{\"error\":\"not-found\"}".into())))
        }
    }
}

/// Queues `job` on a handler. `queued` counts it until a handler starts
/// it; that wait is the request's queue phase.
fn submit(
    pool: &WorkerPool,
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
    route: &'static str,
    job: impl FnOnce() + Send + 'static,
) {
    let ready = Instant::now();
    state.queued.fetch_add(1, Ordering::SeqCst);
    pool.spawn(move || {
        state.queued.fetch_sub(1, Ordering::SeqCst);
        metrics.phase(route, "queue", ready.elapsed().as_secs_f64());
        job();
    });
}

/// Readiness: `200 ok` while serving, `503 draining` once a drain has
/// started (the first externally-visible step of the drain sequence).
fn healthz(ctx: &ConnContext) -> Response {
    if ctx.state.draining.load(Ordering::SeqCst) {
        Response::json(503, "{\"status\":\"draining\"}".into()).with_retry_after(1)
    } else {
        Response::json(200, "{\"status\":\"ok\"}".into())
    }
}

/// The Prometheus text exposition of the process-global registry.
fn metrics_exposition() -> Response {
    match decamouflage_telemetry::global().prometheus_text() {
        Some(text) => Response::text(200, text),
        None => Response::json(503, "{\"error\":\"telemetry-disabled\"}".into()),
    }
}

/// Sheds work routes during a drain.
fn shed_if_draining(ctx: &ConnContext) -> Option<Response> {
    if ctx.state.draining.load(Ordering::SeqCst) {
        ctx.metrics.shed("draining");
        Some(draining_response())
    } else {
        None
    }
}

/// Maps a transport/parse error onto its response; `None` when the
/// peer is unreachable. A [`HttpError::Timeout`] is the peer's fault
/// (`408`) until the request deadline itself has expired (`504`).
fn error_response(err: HttpError, token: &CancelToken) -> Option<Response> {
    match err {
        HttpError::BadRequest(detail) => Some(Response::json(
            400,
            format!("{{\"error\":\"bad-request\",\"detail\":\"{}\"}}", escape_json(&detail)),
        )),
        HttpError::HeadersTooLarge => {
            Some(Response::json(431, "{\"error\":\"headers-too-large\"}".into()))
        }
        HttpError::BodyTooLarge => {
            Some(Response::json(413, "{\"error\":\"body-too-large\"}".into()))
        }
        HttpError::Timeout => {
            if token.is_expired() {
                Some(Response::json(504, "{\"error\":\"deadline-expired\"}".into()))
            } else {
                Some(Response::json(408, "{\"error\":\"request-timeout\"}".into()))
            }
        }
        HttpError::Closed | HttpError::Io(_) => None,
    }
}

/// `POST /check`: the reader reads the body, a handler scores it, and
/// the reader writes the verdict.
fn check<R: BufRead>(head: &RequestHead, reader: &mut R, conn: Connection, pool: &WorkerPool) {
    if let Some(response) = shed_if_draining(&conn.ctx) {
        return conn.answer("/check", Some(response));
    }
    let body = match read_check_body(head, reader, &conn.ctx) {
        Ok(body) => body,
        Err(err) => {
            let response = error_response(err, &conn.ctx.token);
            return conn.answer("/check", response);
        }
    };
    conn.ctx.read_done("/check");
    let (service, token) = (Arc::clone(&conn.ctx.service), conn.ctx.token.clone());
    let (sender, outcome) = mpsc::sync_channel(1);
    submit(pool, Arc::clone(&conn.ctx.state), Arc::clone(&conn.ctx.metrics), "/check", move || {
        let _ = sender.send(service.check_bytes(&body, &token));
    });
    // Scoring isolates the engine's own panics; a job that still ends
    // without an outcome panicked around it.
    let outcome = outcome.recv().unwrap_or_else(|_| CheckOutcome::Panicked {
        detail: "the scoring job ended without an outcome".into(),
    });
    conn.finish("/check", Some(Response::json(outcome.status(), outcome.to_json())));
}

/// Reads a `/check` body under the size cap; chunked frames concatenate
/// (standard chunked semantics — the boundaries are transport framing).
fn read_check_body<R: BufRead>(
    head: &RequestHead,
    reader: &mut R,
    ctx: &ConnContext,
) -> Result<Vec<u8>, HttpError> {
    match head.body_plan()? {
        BodyPlan::Sized(length) => read_sized_body(reader, length, ctx.config.max_body_bytes),
        BodyPlan::Chunked => {
            let mut frames = ChunkedReader::new(reader, ctx.config.max_body_bytes);
            let mut body = Vec::new();
            while let Some(frame) = frames.next_frame()? {
                body.extend_from_slice(&frame);
            }
            Ok(body)
        }
    }
}

/// An [`ImageSource`] over the request body. With chunked framing each
/// HTTP chunk is one complete image file; with `Content-Length` the
/// whole body is a single image. A pull only reads a frame: the engine
/// worker that scores it decodes it through the service's
/// [`ImageDecoder`]. Transport errors park in `transport_error` and end
/// the stream — the server inspects the slot afterwards to pick the
/// status.
struct BodyImageSource<'a, R: BufRead> {
    reader: &'a mut R,
    mode: BodyMode,
    budget: usize,
    transport_error: Option<HttpError>,
    decoder: Arc<ImageDecoder>,
}

enum BodyMode {
    Single(Option<usize>),
    Chunked,
}

impl<'a, R: BufRead> BodyImageSource<'a, R> {
    fn new(
        reader: &'a mut R,
        plan: BodyPlan,
        max_body_bytes: usize,
        decoder: Arc<ImageDecoder>,
    ) -> Self {
        let mode = match plan {
            BodyPlan::Sized(length) => BodyMode::Single(Some(length)),
            BodyPlan::Chunked => BodyMode::Chunked,
        };
        Self { reader, mode, budget: max_body_bytes, transport_error: None, decoder }
    }

    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        match &mut self.mode {
            BodyMode::Single(length) => match length.take() {
                Some(length) => read_sized_body(self.reader, length, self.budget).map(Some),
                None => Ok(None),
            },
            BodyMode::Chunked => {
                // Budget is enforced inside the chunked reader; recreate
                // it lazily per frame to keep one borrow site.
                let mut frames = ChunkedReader::new(self.reader, self.budget);
                let frame = frames.next_frame()?;
                if let Some(frame) = &frame {
                    self.budget -= frame.len();
                }
                Ok(frame)
            }
        }
    }
}

impl<R: BufRead> ImageSource for BodyImageSource<'_, R> {
    fn next_image(&mut self, _alloc: SampleAlloc<'_>) -> Option<SourceItem> {
        if self.transport_error.is_some() {
            return None;
        }
        match self.next_frame() {
            Ok(Some(bytes)) => Some(Ok(Pulled::Encoded {
                bytes,
                origin: None,
                decoder: Arc::clone(&self.decoder),
            })),
            Ok(None) => None,
            Err(err) => {
                self.transport_error = Some(err);
                None
            }
        }
    }
}

/// `POST /scan` after its head: the connection goes to a handler, which
/// streams the body through the engine and writes the response. The
/// frames are read as they are scored, so the read phase ends with the
/// head.
fn scan_on_handler(
    head: RequestHead,
    mut reader: BufReader<DeadlineReader>,
    conn: Connection,
    pool: &WorkerPool,
) {
    if let Some(response) = shed_if_draining(&conn.ctx) {
        return conn.answer("/scan", Some(response));
    }
    conn.ctx.read_done("/scan");
    submit(pool, Arc::clone(&conn.ctx.state), Arc::clone(&conn.ctx.metrics), "/scan", move || {
        let response = scan(&head, &mut reader, &conn.ctx);
        conn.finish("/scan", response);
    });
}

/// Streams a `/scan` body through the engine with bounded memory; each
/// chunked frame is one image.
fn scan<R: BufRead>(head: &RequestHead, reader: &mut R, ctx: &ConnContext) -> Option<Response> {
    let plan = match head.body_plan() {
        Ok(plan) => plan,
        Err(err) => return error_response(err, &ctx.token),
    };
    let mut source = BodyImageSource::new(
        reader,
        plan,
        ctx.config.max_body_bytes,
        Arc::clone(ctx.service.decoder()),
    );
    let outcome = ctx.service.scan_source(&mut source, &ctx.token, SCAN_CHUNK_SIZE);
    if let Some(err) = source.transport_error {
        // The stream died on transport, not on scoring: the transport
        // error picks the status (a mid-scan deadline maps to 504 via
        // the timeout arm).
        return error_response(err, &ctx.token);
    }
    Some(Response::json(outcome.status(), outcome.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_core::persist::ThresholdSet;
    use decamouflage_core::{DegradePolicy, Direction, MethodId, Threshold};
    use decamouflage_imaging::codec::encode_pgm;
    use decamouflage_imaging::{Image, Size};
    use decamouflage_telemetry::Telemetry;

    #[test]
    fn chunked_scan_times_and_counts_every_frame_decode() {
        let telemetry = Telemetry::enabled();
        let thresholds: ThresholdSet = [
            (MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack)),
            (MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack)),
            (MethodId::Csp, Threshold::new(10.0, Direction::AboveIsAttack)),
        ]
        .into_iter()
        .collect();
        let service = DetectionService::new(Size::square(16), &thresholds, DegradePolicy::Strict)
            .unwrap()
            .with_decode_telemetry(&telemetry);
        let ctx = ConnContext {
            service: Arc::new(service),
            state: Arc::new(ServerState::default()),
            metrics: Arc::new(ServiceMetrics::new(&Telemetry::disabled())),
            config: ServerConfig::default(),
            token: CancelToken::new(),
            accepted_at: Instant::now(),
        };
        // Three chunked frames: two images and one body no codec claims.
        let image = encode_pgm(&Image::from_fn_gray(48, 48, |x, y| ((x * 3 + y * 5) % 61) as f64));
        let mut body = Vec::new();
        for frame in [&image[..], b"not an image", &image[..]] {
            body.extend_from_slice(format!("{:x}\r\n", frame.len()).as_bytes());
            body.extend_from_slice(frame);
            body.extend_from_slice(b"\r\n");
        }
        body.extend_from_slice(b"0\r\n\r\n");
        let head =
            parse_head(b"POST /scan HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap();
        let response = scan(&head, &mut io::Cursor::new(body), &ctx).expect("a response");
        assert_eq!(response.status, 200);
        let json = String::from_utf8(response.body).unwrap();
        assert!(json.contains("\"images\":3"), "{json}");
        assert!(json.contains("\"quarantined\":\"unsupported-format\""), "{json}");

        let decode = telemetry.histogram("decam_engine_stage_seconds", &[("stage", "decode")]);
        assert_eq!(decode.snapshot().unwrap().count(), 3, "every frame's decode is timed");
        let count = |format: &str, outcome: &str| {
            telemetry
                .counter("decam_codec_decode_total", &[("format", format), ("outcome", outcome)])
                .value()
        };
        assert_eq!((count("pnm", "ok"), count("unknown", "error")), (2, 1));
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = ServerConfig::default();
        assert!(config.drain_deadline > config.deadline);
        assert!(config.lame_duck < config.drain_deadline);
        assert!(config.handlers >= 1);
    }

    #[test]
    fn handle_observes_drain_state() {
        let state = Arc::new(ServerState::default());
        let handle = ServerHandle { state: Arc::clone(&state) };
        assert!(!handle.is_draining());
        assert_eq!(handle.in_flight(), 0);
        handle.shutdown();
        assert!(state.shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn timeout_maps_to_408_before_the_deadline_and_504_after() {
        let live = CancelToken::expiring_in(Duration::from_secs(60));
        let response = error_response(HttpError::Timeout, &live).unwrap();
        assert_eq!(response.status, 408);
        let expired = CancelToken::new();
        expired.cancel();
        let response = error_response(HttpError::Timeout, &expired).unwrap();
        assert_eq!(response.status, 504);
    }

    #[test]
    fn unanswerable_errors_produce_no_response() {
        let token = CancelToken::new();
        assert!(error_response(HttpError::Closed, &token).is_none());
        assert!(error_response(HttpError::Io("reset".into()), &token).is_none());
    }
}
