//! `loadgen` — the service robustness benchmark.
//!
//! Spawns an in-process detection server deliberately undersized for
//! the offered load, then storms it with a closed- or open-loop fleet
//! mixing valid requests with malformed bodies, oversized declarations
//! and slow-loris connections. The run verifies the ISSUE's overload
//! contract and writes `BENCH_service.json`:
//!
//! * every request **completes, sheds (`503`) or times out
//!   (`408`/`504`)** — zero requests stall past the deadline plus a
//!   scheduling grace,
//! * after a graceful drain the in-flight gauge returns to `0`,
//! * client-observed latency quantiles (p50/p99/p999) come from the
//!   telemetry histogram, not an ad-hoc percentile sort.
//!
//! The exit code is the verdict: `0` when every robustness assertion
//! held, `1` otherwise — wire it straight into CI.
//!
//! ```text
//! loadgen [--workers N] [--requests N] [--deadline-ms N] [--mode closed|open]
//!         [--interval-ms N] [-o FILE]
//! ```

use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{DegradePolicy, Direction, MethodId, Threshold};
use decamouflage_imaging::codec::encode_pgm;
use decamouflage_imaging::{Image, Size};
use decamouflage_serve::flags::{parse_bounded_ms, parse_bounded_usize};
use decamouflage_serve::{DetectionService, Server, ServerConfig};
use decamouflage_telemetry::{escape_json, json_number, Histogram};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Wall-clock slack allowed past the request deadline before a request
/// counts as stalled: covers connect/accept queueing and scheduler
/// jitter on small machines, not server-side processing.
const STALL_GRACE: Duration = Duration::from_millis(1500);

struct LoadConfig {
    workers: usize,
    requests_per_worker: usize,
    deadline: Duration,
    open_loop: bool,
    interval: Duration,
    out: String,
}

fn parse_cli() -> Result<LoadConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadConfig {
        workers: 8,
        requests_per_worker: 4,
        deadline: Duration::from_millis(1000),
        open_loop: false,
        interval: Duration::from_millis(25),
        out: "BENCH_service.json".to_string(),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value =
            || iter.next().map(String::as_str).ok_or_else(|| format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--workers" => config.workers = parse_bounded_usize(flag, value()?, 1, 256)?,
            "--requests" => {
                config.requests_per_worker = parse_bounded_usize(flag, value()?, 1, 10_000)?;
            }
            "--deadline-ms" => config.deadline = parse_bounded_ms(flag, value()?, 50, 60_000)?,
            "--interval-ms" => config.interval = parse_bounded_ms(flag, value()?, 1, 10_000)?,
            "--mode" => {
                config.open_loop = match value()? {
                    "open" => true,
                    "closed" => false,
                    other => return Err(format!("--mode: expected open|closed, got {other:?}")),
                }
            }
            "-o" | "--out" => config.out = value()?.to_string(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(config)
}

fn thresholds() -> ThresholdSet {
    let mut set = ThresholdSet::new();
    set.insert(MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack));
    set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
    set.insert(MethodId::Csp, Threshold::new(10.0, Direction::AboveIsAttack));
    set
}

/// The request mix. Request `i` of worker `w` is
/// `MIX[(w + i) % MIX.len()]`, so every run offers the same mix however
/// the workers are scheduled, and each round of 8 workers offers all of
/// `MIX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Valid,
    Malformed,
    Oversized,
    SlowLoris,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Self::Valid => "valid",
            Self::Malformed => "malformed",
            Self::Oversized => "oversized",
            Self::SlowLoris => "slow-loris",
        }
    }
}

const MIX: [Kind; 8] = [
    Kind::Valid,
    Kind::Valid,
    Kind::Malformed,
    Kind::Valid,
    Kind::Oversized,
    Kind::Valid,
    Kind::SlowLoris,
    Kind::Valid,
];

struct Sample {
    kind: Kind,
    status: String,
    latency: Duration,
}

/// One request/response exchange; `status` is the numeric code or
/// `"closed"` when the server hung up without a response.
fn exchange(addr: SocketAddr, request: &[u8], read_timeout: Duration) -> String {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return "connect-failed".to_string();
    };
    let _ = stream.set_read_timeout(Some(read_timeout));
    if stream.write_all(request).is_err() {
        return "closed".to_string();
    }
    let mut response = Vec::new();
    match stream.read_to_end(&mut response) {
        Ok(_) if response.is_empty() => "closed".to_string(),
        Ok(_) => String::from_utf8_lossy(&response)
            .split_whitespace()
            .nth(1)
            .unwrap_or("closed")
            .to_string(),
        Err(_) => "client-timeout".to_string(),
    }
}

fn run_one(addr: SocketAddr, kind: Kind, body: &[u8], deadline: Duration) -> Sample {
    let started = Instant::now();
    // Client patience: past the deadline the server owes us *something*
    // (a 504 or a close); double-plus-grace means a stall shows up as a
    // client-timeout sample instead of hanging the worker forever.
    let patience = deadline * 2 + STALL_GRACE;
    let status = match kind {
        Kind::Valid => {
            let mut request = format!(
                "POST /check HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(body);
            exchange(addr, &request, patience)
        }
        Kind::Malformed => {
            let garbage = b"this is not any image format";
            let mut request = format!(
                "POST /check HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
                garbage.len()
            )
            .into_bytes();
            request.extend_from_slice(garbage);
            exchange(addr, &request, patience)
        }
        Kind::Oversized => {
            // Declared far past the body cap: the server must answer
            // 413 without waiting for bytes that will never come.
            let request = format!(
                "POST /check HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
                1usize << 33
            );
            exchange(addr, request.as_bytes(), patience)
        }
        Kind::SlowLoris => {
            // A partial head, then silence: the server's socket
            // deadline must reap the connection (408/504/close).
            exchange(addr, b"POST /check HTTP/1.1\r\nHost: loa", patience)
        }
    };
    Sample { kind, status, latency: started.elapsed() }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let load = parse_cli()?;
    let _ = decamouflage_telemetry::install_global(decamouflage_telemetry::Telemetry::enabled());
    let telemetry = decamouflage_telemetry::global();

    // An undersized server: 2 handlers + a queue of 2 means the storm
    // below offers well over 2x the worker-pool capacity.
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 2,
        queue_limit: 2,
        deadline: load.deadline,
        drain_deadline: load.deadline * 4 + Duration::from_secs(2),
        lame_duck: Duration::from_millis(100),
        max_body_bytes: 4 * 1024 * 1024,
        ..ServerConfig::default()
    };
    let service =
        DetectionService::new(Size::square(16), &thresholds(), DegradePolicy::MajorityOfAvailable)?;
    let server = Server::bind(server_config.clone(), service).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let body =
        Arc::new(encode_pgm(&Image::from_fn_gray(48, 48, |x, y| ((x * 3 + y * 5) % 61) as f64)));
    let total_requests = load.workers * load.requests_per_worker;
    eprintln!(
        "storm: {} workers x {} requests ({} mode) against {addr} \
         (2 handlers + queue 2, deadline {:?})",
        load.workers,
        load.requests_per_worker,
        if load.open_loop { "open" } else { "closed" },
        load.deadline
    );

    // Storm phase.
    let storm_started = Instant::now();
    let (tx, rx) = mpsc::channel::<Sample>();
    let mut storm_threads = Vec::new();
    for worker in 0..load.workers {
        let tx = tx.clone();
        let body = Arc::clone(&body);
        let deadline = load.deadline;
        let open_loop = load.open_loop;
        let interval = load.interval;
        let per_worker = load.requests_per_worker;
        storm_threads.push(std::thread::spawn(move || {
            for i in 0..per_worker {
                if open_loop {
                    // Open loop: fire on the global cadence regardless
                    // of how long the previous request took.
                    std::thread::sleep(interval * worker.min(4) as u32);
                }
                let kind = MIX[(worker + i) % MIX.len()];
                let sample = run_one(addr, kind, &body, deadline);
                let _ = tx.send(sample);
            }
        }));
    }
    drop(tx);
    let latency = Histogram::latency_seconds();
    let mut status_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut kind_status_counts: BTreeMap<&'static str, BTreeMap<String, u64>> = BTreeMap::new();
    let mut stalled = 0u64;
    let mut worst = Duration::ZERO;
    for sample in rx {
        latency.record(sample.latency.as_secs_f64());
        *status_counts.entry(sample.status.clone()).or_default() += 1;
        let kind = sample.kind.name();
        *kind_status_counts.entry(kind).or_default().entry(sample.status.clone()).or_default() += 1;
        worst = worst.max(sample.latency);
        // The robustness contract: the server resolves every request —
        // verdict, typed rejection, shed or timeout — within the
        // deadline plus grace. A client-timeout is an automatic stall.
        let budget = match sample.kind {
            // A loris deliberately idles until the server reaps it at
            // the deadline, so its budget starts there.
            Kind::SlowLoris => load.deadline + STALL_GRACE,
            _ => load.deadline + STALL_GRACE,
        };
        if sample.latency > budget || sample.status == "client-timeout" {
            stalled += 1;
            eprintln!("STALL: {kind} request took {:?} (status {})", sample.latency, sample.status);
        }
    }
    for thread in storm_threads {
        thread.join().map_err(|_| "storm worker panicked".to_string())?;
    }
    let storm_elapsed = storm_started.elapsed();
    let snapshot = latency.snapshot();

    // Post-storm calm phase: the server must serve normally again once
    // the burst subsides (brief 503s while the backlog unwinds are
    // fine, so poll).
    let mut post_storm_ok = 0usize;
    let post_storm_probes = 5usize;
    for _ in 0..post_storm_probes {
        for _ in 0..40 {
            let mut request = format!(
                "POST /check HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(&body);
            if exchange(addr, &request, load.deadline * 2) == "200" {
                post_storm_ok += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // Drain.
    handle.shutdown();
    let report = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server run: {e}"))?;
    let in_flight_after = telemetry.gauge("decam_http_in_flight", &[]).value();
    let shed_overload =
        telemetry.counter("decam_http_shed_total", &[("reason", "overload")]).value();
    let deadline_expired = telemetry.counter("decam_http_deadline_expired_total", &[]).value();

    // Render BENCH_service.json.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"workers\": {}, \"requests_per_worker\": {}, \"mode\": \"{}\", \
         \"handlers\": {}, \"queue_limit\": {}, \"deadline_ms\": {}, \"stall_grace_ms\": {}}},\n",
        load.workers,
        load.requests_per_worker,
        if load.open_loop { "open" } else { "closed" },
        server_config.handlers,
        server_config.queue_limit,
        load.deadline.as_millis(),
        STALL_GRACE.as_millis(),
    ));
    out.push_str(&format!(
        "  \"storm\": {{\"requests\": {total_requests}, \"elapsed_seconds\": {}, ",
        json_number(storm_elapsed.as_secs_f64())
    ));
    out.push_str("\"status_counts\": {");
    let rendered: Vec<String> = status_counts
        .iter()
        .map(|(status, count)| format!("\"{}\": {count}", escape_json(status)))
        .collect();
    out.push_str(&rendered.join(", "));
    out.push_str("}, \"kind_status_counts\": {");
    let rendered: Vec<String> = kind_status_counts
        .iter()
        .map(|(kind, counts)| {
            let counts: Vec<String> = counts
                .iter()
                .map(|(status, count)| format!("\"{}\": {count}", escape_json(status)))
                .collect();
            format!("\"{kind}\": {{{}}}", counts.join(", "))
        })
        .collect();
    out.push_str(&rendered.join(", "));
    out.push_str(&format!(
        "}}, \"stalled_past_deadline\": {stalled}, \"worst_latency_seconds\": {}, ",
        json_number(worst.as_secs_f64())
    ));
    out.push_str(&format!(
        "\"latency_seconds\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}}},\n",
        snapshot.count(),
        json_number(snapshot.p50().unwrap_or(f64::NAN)),
        json_number(snapshot.p99().unwrap_or(f64::NAN)),
        json_number(snapshot.p999().unwrap_or(f64::NAN)),
    ));
    out.push_str(&format!(
        "  \"post_storm\": {{\"probes\": {post_storm_probes}, \"ok\": {post_storm_ok}}},\n"
    ));
    out.push_str(&format!(
        "  \"drain\": {{\"drained\": {}, \"in_flight_at_exit\": {}, \
         \"in_flight_gauge_after_drain\": {}}},\n",
        report.drained,
        report.in_flight_at_exit,
        json_number(in_flight_after)
    ));
    out.push_str(&format!(
        "  \"server\": {{\"shed_overload\": {shed_overload}, \
         \"deadline_expired_504\": {deadline_expired}}}\n}}\n"
    ));
    std::fs::write(&load.out, &out).map_err(|e| format!("cannot write {}: {e}", load.out))?;
    eprintln!(
        "storm done in {storm_elapsed:?}: {total_requests} requests, {stalled} stalled, \
         {shed_overload} shed, drained={} — wrote {}",
        report.drained, load.out
    );

    // The verdict.
    let healthy = stalled == 0
        && report.drained
        && in_flight_after == 0.0
        && post_storm_ok == post_storm_probes;
    if !healthy {
        eprintln!(
            "FAIL: stalled={stalled} drained={} gauge={} post_storm={post_storm_ok}/{post_storm_probes}",
            report.drained, in_flight_after
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
