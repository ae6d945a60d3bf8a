//! The HTTP client side: one-request exchanges and the open- and
//! closed-loop generators, on at most two threads.
//!
//! An open loop sends request `i` when it is due (`i / rate` after the
//! start) whether or not earlier ones finished, and times it from that
//! due moment — so a stall also counts against the requests it delays.
//! A closed loop sends each worker's next request when its previous
//! one completes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A time source for the generators; tests inject a fake one.
pub trait Clock: Sync {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= at`.
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, with its origin at construction.
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// One request's timeline and outcome.
#[derive(Debug, Clone)]
pub struct Sample<T> {
    /// Stream index of the request.
    pub index: usize,
    /// When it was due (open loop) or ready to go (closed loop).
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub outcome: T,
}

impl<T> Sample<T> {
    /// Latency from the due moment, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }

    /// Time from send to reply, in ms.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// Sends `count` requests at `rate` per second from `workers` threads;
/// `send(i)` performs request `i`. Samples come back in index order.
pub fn open_loop<T: Send>(
    clock: &dyn Clock,
    rate: f64,
    count: usize,
    workers: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<Sample<T>> {
    let start = clock.now();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= count {
                    break;
                }
                let due = start + Duration::from_secs_f64(index as f64 / rate);
                clock.sleep_until(due);
                let sent = clock.now();
                let outcome = send(index);
                let done = clock.now();
                let sample = Sample { index, due, sent, done, outcome };
                samples.lock().expect("no sampler panicked").push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("no sampler panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Runs `workers` closed-loop clients until `duration` has passed since
/// the start; requests are numbered in send order.
pub fn closed_loop<T: Send>(
    clock: &dyn Clock,
    duration: Duration,
    workers: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<Sample<T>> {
    let end = clock.now() + duration;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let due = clock.now();
                if due >= end {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                let outcome = send(index);
                let done = clock.now();
                let sample = Sample { index, due, sent: due, done, outcome };
                samples.lock().expect("no sampler panicked").push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("no sampler panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// A reply: the status (`0` when the server closed without answering)
/// and the body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One request on a fresh connection (the server answers one request per
/// connection), read to the server's close. A read timeout yields
/// status `0` too.
pub fn exchange(addr: SocketAddr, request: &[u8], timeout: Duration) -> Reply {
    let closed = Reply { status: 0, body: String::new() };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else { return closed };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    if stream.write_all(request).is_err() {
        return closed;
    }
    let mut raw = Vec::new();
    if stream.read_to_end(&mut raw).is_err() && raw.is_empty() {
        return closed;
    }
    parse_reply(&raw).unwrap_or(closed)
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some(Reply { status, body: String::from_utf8_lossy(&raw[split + 4..]).into_owned() })
}

/// A `POST /check` request carrying `body`.
pub fn check_request(body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST /check HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// A `GET` request for `path`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: benchmark\r\n\r\n").into_bytes()
}

/// The hostile connection's requests, looped in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostile {
    /// A partial head, then silence until the server gives up.
    SlowLoris,
    /// A complete request whose body is no image.
    Malformed,
    /// A `Content-Length` far past the body cap, with no body.
    Oversized,
}

impl Hostile {
    pub const CYCLE: [Hostile; 3] = [Self::SlowLoris, Self::Malformed, Self::Oversized];

    pub fn request(self) -> Vec<u8> {
        match self {
            Self::SlowLoris => b"POST /check HTTP/1.1\r\nHost: bench".to_vec(),
            Self::Malformed => check_request(b"this is not any image format"),
            Self::Oversized => format!(
                "POST /check HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
                1u64 << 33
            )
            .into_bytes(),
        }
    }

    /// Whether `status` is the typed answer this request must get:
    /// `422` for a body no codec claims, `413` for the oversized
    /// declaration, and `408`/`504` or a close for the slow loris.
    pub fn expected(self, status: u16) -> bool {
        match self {
            Self::SlowLoris => matches!(status, 408 | 504 | 0),
            Self::Malformed => status == 422,
            Self::Oversized => status == 413,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: sleeping jumps to the
    /// wake-up time, and each simulated request advances it by a fixed
    /// service time.
    struct FakeClock(Mutex<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            *self.0.lock().unwrap() += by;
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            *self.0.lock().unwrap()
        }

        fn sleep_until(&self, at: Duration) {
            let mut now = self.0.lock().unwrap();
            *now = (*now).max(at);
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        // 10 requests/s (due every 100 ms) against a 250 ms service time
        // on one worker: every send after the first is late.
        let samples = open_loop(&clock, 10.0, 4, 1, |_| clock.advance(Duration::from_millis(250)));
        let due: Vec<f64> = samples.iter().map(|s| s.due.as_secs_f64() * 1e3).collect();
        let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
        let round = |v: Vec<f64>| v.into_iter().map(f64::round).collect::<Vec<_>>();
        assert_eq!(round(due), [0.0, 100.0, 200.0, 300.0]);
        // Measured from the send, every request would read 250 ms.
        assert!(samples.iter().all(|s| (s.service_ms() - 250.0).abs() < 1e-6));
        assert_eq!(round(latency), [250.0, 400.0, 550.0, 700.0]);
        assert_eq!(round(lag.clone()), [0.0, 150.0, 300.0, 450.0]);
        // Late sends show in the generator's lag percentile.
        assert_eq!(crate::stats::percentile(&lag, 95.0).round(), 450.0);
    }

    #[test]
    fn an_on_time_open_loop_has_no_lag() {
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let samples = open_loop(&clock, 10.0, 5, 1, |_| clock.advance(Duration::from_millis(30)));
        assert!(samples.iter().all(|s| s.lag_ms().abs() < 1e-6));
        assert!(samples.iter().all(|s| (s.latency_ms() - 30.0).abs() < 1e-6));
        assert_eq!(samples.iter().map(|s| s.index).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_end() {
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let samples = closed_loop(&clock, Duration::from_millis(100), 1, |_| {
            clock.advance(Duration::from_millis(30));
        });
        // Sends at 0, 30, 60 and 90 ms; the one due at 120 ms is past the end.
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|s| (s.latency_ms() - 30.0).abs() < 1e-6));
    }

    #[test]
    fn replies_parse_status_and_body() {
        let reply = parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(reply, Reply { status: 200, body: "{}".into() });
        assert!(parse_reply(b"garbage").is_none());
        assert!(Hostile::SlowLoris.expected(0) && Hostile::SlowLoris.expected(504));
        assert!(Hostile::Oversized.expected(413) && !Hostile::Oversized.expected(400));
        assert!(Hostile::Malformed.expected(422) && !Hostile::Malformed.expected(200));
    }
}
