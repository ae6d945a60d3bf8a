//! In-process end-to-end tests: a real [`Server`] bound to an
//! ephemeral loopback port, driven over real `TcpStream`s.
//!
//! Telemetry caveat: the server records into the process-global
//! registry, which accumulates across tests in one binary, so these
//! tests assert *deltas and presence*, never exact global totals.

use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{CancelToken, DegradePolicy, Direction, MethodId, Threshold};
use decamouflage_imaging::codec::encode_pgm;
use decamouflage_imaging::{Image, Size};
use decamouflage_serve::{DetectionService, Server, ServerConfig, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn thresholds() -> ThresholdSet {
    let mut set = ThresholdSet::new();
    set.insert(MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack));
    set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
    set.insert(MethodId::Csp, Threshold::new(10.0, Direction::AboveIsAttack));
    set
}

fn service() -> DetectionService {
    DetectionService::new(Size::square(16), &thresholds(), DegradePolicy::MajorityOfAvailable)
        .expect("full threshold set")
}

/// Starts a server on an ephemeral port and runs it on a background
/// thread; the join handle resolves when the server drains.
fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<bool>) {
    // The server records into the process-global registry; /metrics
    // needs it live. First install wins, so every test may call this.
    decamouflage_telemetry::install_global(decamouflage_telemetry::Telemetry::enabled());
    let server = Server::bind(config, service()).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run").drained);
    (addr, handle, join)
}

fn benign_pgm() -> Vec<u8> {
    let image = Image::from_fn_gray(48, 48, |x, y| ((x * 3 + y * 5) % 61) as f64);
    encode_pgm(&image)
}

/// One blocking request/response exchange; returns the raw response.
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    String::from_utf8_lossy(&response).into_owned()
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut request =
        format!("POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    request.extend_from_slice(body);
    request
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").into_bytes()
}

fn status_of(response: &str) -> &str {
    response.split_whitespace().nth(1).unwrap_or("<no status>")
}

#[test]
fn serves_the_full_route_surface_and_drains_clean() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });

    // Readiness and metrics.
    let health = exchange(addr, &get("/healthz"));
    assert_eq!(status_of(&health), "200", "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let metrics = exchange(addr, &get("/metrics"));
    assert_eq!(status_of(&metrics), "200", "{metrics}");
    assert!(metrics.contains("decam_http_in_flight"), "{metrics}");

    // A valid check verdict.
    let check = exchange(addr, &post("/check", &benign_pgm()));
    assert_eq!(status_of(&check), "200", "{check}");
    assert!(check.contains("\"verdict\":"), "{check}");
    assert!(check.contains("\"scores\":"), "{check}");

    // Unknown magic → typed 422 quarantine with the unsupported-format
    // fault kind; a claimed-but-broken PNG quarantines as unreadable.
    let garbage = exchange(addr, &post("/check", b"not an image at all"));
    assert_eq!(status_of(&garbage), "422", "{garbage}");
    assert!(garbage.contains("\"fault\":\"unsupported-format\""), "{garbage}");
    let mut broken_png = vec![137u8, 80, 78, 71, 13, 10, 26, 10];
    broken_png.extend_from_slice(b"truncated chunk soup");
    let broken = exchange(addr, &post("/check", &broken_png));
    assert_eq!(status_of(&broken), "422", "{broken}");
    assert!(broken.contains("\"fault\":\"unreadable\""), "{broken}");

    // The decode counter surfaces per-format labels on /metrics.
    let metrics = exchange(addr, &get("/metrics"));
    assert!(
        metrics.contains("decam_codec_decode_total{format=\"unknown\",outcome=\"error\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("decam_codec_decode_total{format=\"png\",outcome=\"error\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("decam_codec_decode_total{format=\"pnm\",outcome=\"ok\"}"),
        "{metrics}"
    );

    // Malformed request line → 400; unknown route → 404; wrong method → 405.
    let bad = exchange(addr, b"BOGUS\r\n\r\n");
    assert_eq!(status_of(&bad), "400", "{bad}");
    let missing = exchange(addr, &get("/nope"));
    assert_eq!(status_of(&missing), "404", "{missing}");
    let wrong = exchange(addr, &get("/check"));
    assert_eq!(status_of(&wrong), "405", "{wrong}");

    // Drain: request shutdown, then confirm the server exits drained.
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed");
    assert_eq!(handle.in_flight(), 0);
}

/// The body of a raw HTTP response.
fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

/// `decam_engine_single_pass_total{outcome="forked"}` on `/metrics`.
fn forked_passes(addr: SocketAddr) -> f64 {
    let metrics = exchange(addr, &get("/metrics"));
    decamouflage_telemetry::parse_prometheus_text(body_of(&metrics))
        .expect("a parseable exposition")
        .sample_value("decam_engine_single_pass_total", &[("outcome", "forked")])
        .unwrap_or(0.0)
}

/// A `/check` on an idle two-handler server lends its spatial branch to
/// the other handler: the response body is byte-identical to the
/// in-process verdict, and `/metrics` counts the forked pass. A request
/// can find the other handler still finishing the last exchange (and
/// score inline), so it is retried a few times.
#[test]
fn an_idle_handler_scores_the_spatial_branch_of_a_peers_check() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 2,
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let image = encode_pgm(&Image::from_fn_gray(160, 160, |x, y| ((x * 7 + y * 3) % 97) as f64));
    let expected = service().check_bytes(&image, &CancelToken::new()).to_json();
    let before = forked_passes(addr);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let check = exchange(addr, &post("/check", &image));
        assert_eq!(status_of(&check), "200", "{check}");
        assert_eq!(body_of(&check), expected, "a lent pass changed the verdict body");
        if forked_passes(addr) > before {
            break;
        }
        assert!(attempts < 20, "no /check forked in {attempts} attempts");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed");
}

#[test]
fn oversized_and_overlong_requests_get_typed_rejections() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_body_bytes: 1024,
        max_header_bytes: 512,
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });

    // Declared length past the cap → 413 without reading the body.
    let request = format!(
        "POST /check HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let response = exchange(addr, request.as_bytes());
    assert_eq!(status_of(&response), "413", "{response}");

    // A huge header block → 431.
    let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
    request.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "p".repeat(2048)).as_bytes());
    let response = exchange(addr, &request);
    assert_eq!(status_of(&response), "431", "{response}");

    handle.shutdown();
    assert!(join.join().expect("server thread"));
}

#[test]
fn scan_streams_chunked_bodies_one_image_per_chunk() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });

    let image = benign_pgm();
    let mut request =
        b"POST /scan HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for body in [image.as_slice(), image.as_slice(), b"broken bytes"] {
        request.extend_from_slice(format!("{:x}\r\n", body.len()).as_bytes());
        request.extend_from_slice(body);
        request.extend_from_slice(b"\r\n");
    }
    request.extend_from_slice(b"0\r\n\r\n");

    let response = exchange(addr, &request);
    assert_eq!(status_of(&response), "200", "{response}");
    assert!(response.contains("\"images\":3"), "{response}");
    assert!(response.contains("\"quarantined\":1"), "{response}");

    handle.shutdown();
    assert!(join.join().expect("server thread"));
}

#[test]
fn overload_sheds_with_retry_after_while_a_slow_request_holds_the_only_handler() {
    // One handler, zero queue: a slow-loris connection occupying the
    // handler forces the very next connection onto the shed path.
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 1,
        queue_limit: 0,
        deadline: Duration::from_secs(4),
        drain_deadline: Duration::from_secs(8),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });

    // Hold the handler: connect, send a partial request, stay silent.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"POST /check HTTP/1.1\r\n").expect("partial head");
    // Wait (bounded) until the accept loop has admitted the loris into
    // the only handler slot.
    let waited = Instant::now();
    while handle.in_flight() != 1 {
        assert!(waited.elapsed() < Duration::from_secs(5), "loris never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let shed = exchange(addr, &get("/healthz"));
    assert_eq!(status_of(&shed), "503", "{shed}");
    assert!(shed.contains("Retry-After:"), "{shed}");
    assert!(shed.contains("\"error\":\"overloaded\""), "{shed}");

    // The loris connection cannot outlive the deadline: the socket
    // timeout fires and the server answers 408 (peer stalled) or 504
    // (the request deadline itself expired — the two race at the
    // boundary), or at worst closes the socket. Either way the handler
    // slot comes back.
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut response = Vec::new();
    loris.read_to_end(&mut response).expect("loris response");
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 408")
            || response.starts_with("HTTP/1.1 504")
            || response.is_empty(),
        "expected timeout rejection or close, got: {response}"
    );

    // With the loris reaped the server serves again (the admission
    // slot frees when the handler fully unwinds, so poll briefly).
    let mut recovered = String::new();
    for _ in 0..50 {
        recovered = exchange(addr, &get("/healthz"));
        if status_of(&recovered) == "200" {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(status_of(&recovered), "200", "{recovered}");
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed after overload");
    assert_eq!(handle.in_flight(), 0, "no leaked admission slots");
}

#[test]
fn draining_server_flips_healthz_and_sheds_work_before_closing() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(800),
        ..ServerConfig::default()
    });
    // Confirm liveness, then start the drain and probe inside the
    // lame-duck window.
    let health = exchange(addr, &get("/healthz"));
    assert_eq!(status_of(&health), "200", "{health}");
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(150));

    let not_ready = exchange(addr, &get("/healthz"));
    assert_eq!(status_of(&not_ready), "503", "{not_ready}");
    assert!(not_ready.contains("\"status\":\"draining\""), "{not_ready}");

    let shed = exchange(addr, &post("/check", &benign_pgm()));
    assert_eq!(status_of(&shed), "503", "{shed}");
    assert!(shed.contains("\"error\":\"draining\""), "{shed}");

    assert!(join.join().expect("server thread"), "drain completed");
}

/// Opens a slow-loris connection (a partial head, then silence) and
/// waits until the server has admitted it as its only connection.
fn open_loris(addr: SocketAddr, handle: &ServerHandle) -> TcpStream {
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"POST /check HTTP/1.1\r\n").expect("partial head");
    let waited = Instant::now();
    while handle.in_flight() != 1 {
        assert!(waited.elapsed() < Duration::from_secs(5), "loris never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    loris
}

/// A slow client holds a reader thread and an admission slot, never a
/// handler: on a one-handler server, a `/check` sent while a silent
/// slow-loris connection is open scores at once instead of waiting for
/// the loris to time out, and its read and queue phases reach `/metrics`.
#[test]
fn a_check_scores_on_the_only_handler_while_a_slow_loris_is_open() {
    let deadline = Duration::from_secs(4);
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 1,
        deadline,
        drain_deadline: Duration::from_secs(8),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let loris = open_loris(addr, &handle);

    let started = Instant::now();
    let check = exchange(addr, &post("/check", &benign_pgm()));
    let waited = started.elapsed();
    assert_eq!(status_of(&check), "200", "{check}");
    assert!(waited < deadline / 4, "the /check waited {waited:?} behind the loris");

    let metrics = exchange(addr, &get("/metrics"));
    for phase in ["read", "queue"] {
        let series =
            format!("decam_http_phase_seconds_count{{phase=\"{phase}\",route=\"/check\"}}");
        assert!(metrics.contains(&series), "no {series} in {metrics}");
    }
    drop(loris);
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed");
}

/// With a silent slow-loris connection open on a two-handler server,
/// both handlers stay free to score, so a `/check` lends its spatial
/// branch to the other one; the verdict body is byte-identical to the
/// in-process one. The fork counter is process-global and the other
/// tests here fork at most twice between them, so six forks in twelve
/// requests are this test's own.
#[test]
fn a_check_forks_onto_the_other_handler_while_a_slow_loris_is_open() {
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 2,
        deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(15),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let loris = open_loris(addr, &handle);
    let image = encode_pgm(&Image::from_fn_gray(160, 160, |x, y| ((x * 7 + y * 3) % 97) as f64));
    let expected = service().check_bytes(&image, &CancelToken::new()).to_json();
    let before = forked_passes(addr);
    for _ in 0..12 {
        // Let the last request's handlers get back to waiting for a job.
        std::thread::sleep(Duration::from_millis(20));
        let check = exchange(addr, &post("/check", &image));
        assert_eq!(status_of(&check), "200", "{check}");
        assert_eq!(body_of(&check), expected, "a lent pass changed the verdict body");
    }
    let forked = forked_passes(addr) - before;
    assert!(forked >= 6.0, "{forked} of 12 /check passes forked beside the loris");
    drop(loris);
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed");
}

/// The deadline bounds a client that keeps sending, not only one that
/// goes silent: a head trickled one byte every 100 ms is cut off at the
/// 500 ms deadline with a 408/504 or a close.
#[test]
fn a_client_trickling_its_head_is_cut_off_at_the_deadline() {
    let deadline = Duration::from_millis(500);
    let (addr, handle, join) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 1,
        deadline,
        drain_deadline: Duration::from_secs(5),
        lame_duck: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().expect("clone the socket");
    let started = Instant::now();
    // A head that never ends, one byte at a time, for up to 4 s.
    let trickle = std::thread::spawn(move || {
        let head = b"POST /check HTTP/1.1\r\nX-Trickle: ".iter().chain(std::iter::repeat(&b'a'));
        for &byte in head.take(40) {
            if writer.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    let mut response = Vec::new();
    let read = (&stream).read_to_end(&mut response);
    let waited = started.elapsed();
    let response = String::from_utf8_lossy(&response);
    match read {
        Ok(_) => assert!(
            response.starts_with("HTTP/1.1 408")
                || response.starts_with("HTTP/1.1 504")
                || response.is_empty(),
            "expected a timeout rejection or a close, got: {response}"
        ),
        // The server closed with trickled bytes unread: a close too.
        Err(err) => assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}"),
    }
    assert!(
        waited < deadline + Duration::from_secs(1),
        "the trickling client kept its request open for {waited:?}"
    );
    trickle.join().expect("trickle thread");
    handle.shutdown();
    assert!(join.join().expect("server thread"), "drain completed");
}
