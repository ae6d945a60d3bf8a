//! The overload-safe, deadline-bounded HTTP server.
//!
//! # Admission control
//!
//! Every connection passes one admission decision on the accept thread:
//!
//! 1. **Overload shed** — when the in-flight count has reached
//!    `handlers + queue_limit`, *or* more than `queue_limit` of this
//!    server's handler jobs wait for a pool worker, the connection is
//!    answered `503 + Retry-After` and closed without touching a
//!    handler. The server sheds instead of queueing
//!    unboundedly — latency for admitted requests stays bounded.
//! 2. **Admit** — the connection is handed to a handler on the shared
//!    [`WorkerPool`] with a freshly-armed per-request [`CancelToken`].
//!
//! # Deadlines
//!
//! The token's deadline drives both socket timeouts (a stalled peer
//! cannot hold a handler past it) and the cooperative between-stage
//! checks in the pipeline (`decode → score → vote`, and between stream
//! chunks on `/scan`). Expiry after the request was read answers `504`;
//! a peer that never finishes sending gets `408`. Either way the
//! handler slot is released promptly — quarantined, never leaked.
//!
//! # Drain
//!
//! On SIGTERM (or [`ServerHandle::shutdown`]): `/healthz` flips to
//! not-ready **first**, new work is shed with a typed `503 draining`
//! while a short lame-duck window keeps the socket observable, then the
//! listener closes and in-flight requests get up to the drain deadline
//! to finish. [`Server::run`] returns a [`DrainReport`] saying whether
//! the drain completed.

use crate::http::{
    parse_head, read_head, read_sized_body, BodyPlan, ChunkedReader, HttpError, RequestHead,
    Response,
};
use crate::metrics::ServiceMetrics;
use crate::service::DetectionService;
use crate::shutdown_signal;
use decamouflage_core::parallel::WorkerPool;
use decamouflage_core::stream::{ImageDecoder, Pulled, SourceItem};
use decamouflage_core::{CancelToken, ImageSource};
use decamouflage_imaging::codec::SampleAlloc;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Handler threads on the worker pool.
    pub handlers: usize,
    /// Admission bound past the handlers: the maximum accepted-but-
    /// unfinished connections is `handlers + queue_limit`, and a handler
    /// backlog (admitted jobs no worker has started) past `queue_limit`
    /// also sheds.
    pub queue_limit: usize,
    /// Per-request deadline (socket timeouts + between-stage checks).
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

/// Shared mutable server state (accept thread + handlers + handle).
#[derive(Debug, Default)]
struct ServerState {
    in_flight: AtomicUsize,
    /// Handler jobs on this server's pool that no worker has started.
    queued: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
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

/// Everything one connection handler needs, cloned per admission.
struct ConnContext {
    service: Arc<DetectionService>,
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
    config: ServerConfig,
    token: CancelToken,
    accepted_at: Instant,
}

/// Releases the admission slot when the handler finishes — including
/// by panic (the pool recovers the panic; this guard's `Drop` still
/// runs during unwind, so a crashed handler never leaks its slot).
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

/// The bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<DetectionService>,
    config: ServerConfig,
    state: Arc<ServerState>,
    metrics: Arc<ServiceMetrics>,
    pool: WorkerPool,
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
        listener.set_nonblocking(true)?;
        let telemetry = decamouflage_telemetry::global();
        Ok(Self {
            listener,
            service: Arc::new(service),
            pool: WorkerPool::new(config.handlers.max(1)),
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
    /// Currently infallible at runtime (accept errors back off and
    /// retry); the `Result` reserves the right to surface fatal
    /// listener failures.
    pub fn run(self) -> io::Result<DrainReport> {
        let poll = Duration::from_millis(2);
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) || shutdown_signal::seen() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (e.g. EMFILE under a
                // connection storm): back off instead of spinning.
                Err(_) => std::thread::sleep(poll),
            }
        }

        // Drain sequence. Readiness flips before anything else so load
        // balancers stop routing here while we are still observable.
        self.state.draining.store(true, Ordering::SeqCst);
        let drain_started = Instant::now();
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
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(poll),
            }
        }
        // Stop accepting; give stragglers the rest of the deadline.
        drop(self.listener);
        while self.state.in_flight.load(Ordering::SeqCst) > 0
            && drain_started.elapsed() < self.config.drain_deadline
        {
            std::thread::sleep(poll);
        }
        let in_flight_at_exit = self.state.in_flight.load(Ordering::SeqCst);
        Ok(DrainReport { drained: in_flight_at_exit == 0, in_flight_at_exit })
    }

    /// The per-connection admission decision (accept thread).
    fn admit(&self, stream: TcpStream) {
        let accepted_at = Instant::now();
        let in_flight = self.state.in_flight.load(Ordering::SeqCst);
        let backlog = self.state.queued.load(Ordering::SeqCst);
        if in_flight >= self.max_in_flight() || backlog > self.config.queue_limit {
            self.metrics.shed("overload");
            reject(stream, overloaded_response());
            return;
        }
        self.state.in_flight.fetch_add(1, Ordering::SeqCst);
        self.metrics.in_flight.inc();
        let ctx = ConnContext {
            service: Arc::clone(&self.service),
            state: Arc::clone(&self.state),
            metrics: Arc::clone(&self.metrics),
            config: self.config.clone(),
            token: CancelToken::expiring_in(self.config.deadline),
            accepted_at,
        };
        let guard =
            InFlightGuard { state: Arc::clone(&self.state), metrics: Arc::clone(&self.metrics) };
        self.state.queued.fetch_add(1, Ordering::SeqCst);
        self.pool.spawn(move || {
            ctx.state.queued.fetch_sub(1, Ordering::SeqCst);
            let _guard = guard;
            handle_connection(stream, &ctx);
        });
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
fn reject(mut stream: TcpStream, response: Response) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Applies the request deadline to the socket, flooring at 10ms so an
/// already-expired token still yields a fast error instead of panicking
/// `set_read_timeout(Some(0))`.
fn apply_socket_deadline(stream: &TcpStream, token: &CancelToken) {
    if let Some(remaining) = token.remaining() {
        let timeout = remaining.max(Duration::from_millis(10));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
    }
}

/// One connection, end to end: read → route → respond → account.
fn handle_connection(stream: TcpStream, ctx: &ConnContext) {
    let _ = stream.set_nodelay(true);
    apply_socket_deadline(&stream, &ctx.token);
    let Ok(read_half) = stream.try_clone() else {
        ctx.metrics.request("unknown", "closed");
        return;
    };
    let mut reader = BufReader::new(read_half);
    let (route, response) = route_request(&mut reader, ctx);
    let mut stream = stream;
    let status = match response {
        Some(response) => {
            // Even past the deadline the response must flush: the 504
            // itself needs a write window.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let status = response.status;
            match response.write_to(&mut stream) {
                Ok(()) => status.to_string(),
                Err(_) => "closed".to_string(),
            }
        }
        None => "closed".to_string(),
    };
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
    if status == "504" {
        ctx.metrics.deadline_expired.inc();
    }
    ctx.metrics.request(route, &status);
    ctx.metrics.latency(route, ctx.accepted_at.elapsed().as_secs_f64());
}

/// Reads and dispatches one request; `None` means the peer is gone and
/// there is nothing to write.
fn route_request<R: BufRead>(
    reader: &mut R,
    ctx: &ConnContext,
) -> (&'static str, Option<Response>) {
    let head_bytes = match read_head(reader, ctx.config.max_header_bytes) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return ("none", None),
        Err(err) => return ("unknown", error_response(err, &ctx.token)),
    };
    let head = match parse_head(&head_bytes) {
        Ok(head) => head,
        Err(err) => return ("unknown", error_response(err, &ctx.token)),
    };
    match (head.method.as_str(), head.path()) {
        ("GET", "/healthz") => ("/healthz", Some(healthz(ctx))),
        ("GET", "/metrics") => ("/metrics", Some(metrics_exposition())),
        ("POST", "/check") => ("/check", check(&head, reader, ctx)),
        ("POST", "/scan") => ("/scan", scan(&head, reader, ctx)),
        (_, "/healthz" | "/metrics" | "/check" | "/scan") => (
            "method-not-allowed",
            Some(Response::json(405, "{\"error\":\"method-not-allowed\"}".into())),
        ),
        _ => ("not-found", Some(Response::json(404, "{\"error\":\"not-found\"}".into()))),
    }
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
            format!(
                "{{\"error\":\"bad-request\",\"detail\":\"{}\"}}",
                crate::json::escape(&detail)
            ),
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

/// `POST /check`: one image body → one verdict.
fn check<R: BufRead>(head: &RequestHead, reader: &mut R, ctx: &ConnContext) -> Option<Response> {
    if let Some(response) = shed_if_draining(ctx) {
        return Some(response);
    }
    let body = match read_check_body(head, reader, ctx) {
        Ok(body) => body,
        Err(err) => return error_response(err, &ctx.token),
    };
    let outcome = ctx.service.check_bytes(&body, &ctx.token);
    Some(Response::json(outcome.status(), outcome.to_json()))
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

/// `POST /scan`: stream the body through the engine with bounded
/// memory; each chunked frame is one image.
fn scan<R: BufRead>(head: &RequestHead, reader: &mut R, ctx: &ConnContext) -> Option<Response> {
    if let Some(response) = shed_if_draining(ctx) {
        return Some(response);
    }
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
