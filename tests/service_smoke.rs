//! End-to-end service smoke test: the real `decamouflage serve` binary
//! on an ephemeral port, concurrent traffic (valid, malformed,
//! oversized), shed/4xx/5xx accounting in `/metrics`, then SIGTERM and
//! a clean drained exit — the same sequence `ci.sh` runs.

#![cfg(unix)]

use decamouflage::imaging::codec::encode_pgm;
use decamouflage::imaging::Image;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn benign_pgm() -> Vec<u8> {
    let image = Image::from_fn_gray(48, 48, |x, y| ((x * 3 + y * 5) % 61) as f64);
    encode_pgm(&image)
}

/// Spawns `decamouflage serve` on an ephemeral port and parses the
/// `listening on ADDR` line from its stdout.
fn spawn_server() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_decamouflage"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--target",
            "16x16",
            "--handlers",
            "2",
            "--deadline-ms",
            "4000",
            "--drain-ms",
            "8000",
            "--degrade",
            "majority",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines.next().expect("a stdout line").expect("readable stdout");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parseable address");
    (child, addr)
}

fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    // The server boots before we connect, but give the accept loop a
    // moment under load.
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(err) if Instant::now() < deadline => {
                let _ = err;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(err) => panic!("cannot connect to {addr}: {err}"),
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request).expect("request written");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    String::from_utf8_lossy(&response).into_owned()
}

fn post_check(addr: SocketAddr, body: &[u8]) -> String {
    let mut request =
        format!("POST /check HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    request.extend_from_slice(body);
    exchange(addr, &request)
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").as_bytes())
}

fn status_of(response: &str) -> &str {
    response.split_whitespace().nth(1).unwrap_or("<none>")
}

#[test]
fn serve_binary_survives_mixed_traffic_and_drains_on_sigterm() {
    let (mut child, addr) = spawn_server();

    // Readiness first.
    let health = get(addr, "/healthz");
    assert_eq!(status_of(&health), "200", "{health}");

    // Concurrent mixed traffic: valid, malformed, oversized.
    let mut threads = Vec::new();
    for i in 0..6usize {
        threads.push(std::thread::spawn(move || match i % 3 {
            0 => ("valid", post_check(addr, &benign_pgm())),
            1 => ("malformed", post_check(addr, b"definitely not an image")),
            _ => (
                "oversized",
                exchange(
                    addr,
                    format!(
                        "POST /check HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n",
                        1u64 << 33
                    )
                    .as_bytes(),
                ),
            ),
        }));
    }
    for thread in threads {
        let (kind, response) = thread.join().expect("traffic thread");
        let status = status_of(&response);
        let allowed: &[&str] = match kind {
            "valid" => &["200", "503"],
            "malformed" => &["422", "503"],
            _ => &["413", "503"],
        };
        assert!(allowed.contains(&status), "{kind} got {status}: {response}");
    }

    // The server runs `--degrade majority`: an image validation refuses
    // (1x1 is below every analysis window) is flagged, with no member
    // able to vote — the verdict `check` and `scan` give it.
    let tiny = encode_pgm(&Image::from_fn_gray(1, 1, |_, _| 1.0));
    let refused = post_check(addr, &tiny);
    assert_eq!(status_of(&refused), "200", "{refused}");
    assert!(refused.contains("\"verdict\":\"attack\",\"degraded\":true"), "{refused}");

    // The ledger: every finished request shows up in /metrics under its
    // route and status, the fault classes are accounted, and so is every
    // verdict.
    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), "200", "{metrics}");
    assert!(
        metrics.contains("decam_http_requests_total{route=\"/check\",status=\"200\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("decam_http_requests_total{route=\"/check\",status=\"422\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("decam_http_requests_total{route=\"/check\",status=\"413\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("decam_http_in_flight"), "{metrics}");
    assert!(metrics.contains("decam_ensemble_decisions_total{verdict=\"attack\"}"), "{metrics}");
    assert!(metrics.contains("decam_http_request_seconds"), "{metrics}");

    // SIGTERM → graceful drain → exit 0 within the drain deadline.
    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    assert!(killed.success(), "kill -TERM failed");
    let waited = Instant::now();
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if waited.elapsed() > Duration::from_secs(30) => {
                let _ = child.kill();
                panic!("serve did not exit within the drain deadline");
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    assert!(status.success(), "serve exited {status:?} instead of a clean drain");
    let mut stderr = String::new();
    child.stderr.take().expect("stderr piped").read_to_string(&mut stderr).expect("stderr read");
    assert!(stderr.contains("drained clean"), "stderr: {stderr}");
}

#[test]
fn serve_rejects_degenerate_flags_with_named_messages() {
    for (flags, needle) in [
        (vec!["serve", "--target", "16x16", "--handlers", "0"], "--handlers"),
        (vec!["serve", "--target", "16x16", "--deadline-ms", "-5"], "--deadline-ms"),
        (vec!["serve", "--target", "16x16", "--queue-limit", "abc"], "--queue-limit"),
        (vec!["serve", "--target", "16x16", "--max-body-bytes", "12"], "--max-body-bytes"),
        (
            vec!["serve", "--target", "16x16", "--deadline-ms", "5000", "--drain-ms", "100"],
            "--drain-ms",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_decamouflage"))
            .args(&flags)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flags:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flags:?} error does not name {needle}: {stderr}");
    }
}
