//! Running the real `decamouflage` binary: timed `scan` passes with peak
//! memory, and a `serve` process that is always stopped and reaped.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often peak memory is sampled while a child runs.
const RSS_POLL: Duration = Duration::from_millis(20);

/// Worker threads every child uses: the machine's two cores.
const THREADS: &str = "2";

/// The child's peak resident set (`VmHWM`) in MiB, while it is alive.
fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command(cli: &Path, args: &[String]) -> Command {
    let mut command = Command::new(cli);
    command.args(args).env("DECAM_THREADS", THREADS).stdin(Stdio::null());
    command
}

/// One finished `scan` process.
#[derive(Debug)]
pub struct ScanRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to the first line on standard output: the first verdict.
    pub first_line: Duration,
    pub peak_rss_mib: f64,
    pub stdout: String,
}

/// Runs `decamouflage scan <args>` to completion, timing spawn to the
/// first output line and to exit, and sampling its peak memory every
/// 20 ms. A thread drains standard output as it comes (`scan` writes one
/// line per image), so a full pipe can never stall the child.
///
/// # Errors
///
/// Spawn and file-system errors, a scan that prints nothing, and exit
/// codes other than `scan`'s 0 (all benign) and 2 (something flagged).
pub fn run_scan(cli: &Path, args: &[String], work: &Path) -> Result<ScanRun, String> {
    let err_path = work.join("child.stderr");
    let err_file = std::fs::File::create(&err_path)
        .map_err(|e| format!("cannot create {}: {e}", err_path.display()))?;
    let started = Instant::now();
    let mut child = command(cli, args)
        .stdout(Stdio::piped())
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let mut peak = 0.0f64;
    let (status, ended, (first_line, text)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_timed(stdout, started));
        let waiter = scope.spawn(|| {
            let status = child.wait();
            let ended = Instant::now();
            exited.store(true, Ordering::SeqCst);
            (status, ended)
        });
        while !exited.load(Ordering::SeqCst) {
            if let Some(mib) = peak_rss_mib(pid) {
                peak = peak.max(mib);
            }
            std::thread::sleep(RSS_POLL);
        }
        let (status, ended) = waiter.join().expect("the wait thread does not panic");
        (status, ended, reader.join().expect("the reader thread does not panic"))
    });
    let status = status.map_err(|e| format!("waiting for {}: {e}", cli.display()))?;
    let failure = |what: String| {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        format!("{} {} {what}: {stderr}", cli.display(), args[0])
    };
    if !status.success() && status.code() != Some(2) {
        return Err(failure(format!("failed ({status})")));
    }
    let first_line = first_line.ok_or_else(|| failure("printed nothing".into()))?;
    Ok(ScanRun { wall: ended - started, first_line, peak_rss_mib: peak, stdout: text })
}

/// Reads `out` to its end; returns when its first line arrived (measured
/// from `started`) and the whole text.
fn read_timed(mut out: impl BufRead, started: Instant) -> (Option<Duration>, String) {
    let mut text = String::new();
    let mut first_line = None;
    while out.read_line(&mut text).is_ok_and(|read| read > 0) {
        first_line.get_or_insert_with(|| started.elapsed());
    }
    // After a line that is not UTF-8, keep draining so the child can finish.
    let _ = std::io::copy(&mut out, &mut std::io::sink());
    (first_line, text)
}

/// A running `decamouflage serve`. Dropping it kills and reaps the
/// process; [`Server::stop`] drains it gracefully instead.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    stderr: PathBuf,
}

impl Server {
    /// Spawns `decamouflage serve <args> --addr 127.0.0.1:0` and waits
    /// for its `listening on ADDR` line.
    ///
    /// # Errors
    ///
    /// Spawn errors, or a child that exits before listening.
    pub fn start(cli: &Path, args: &[String], work: &Path) -> Result<Self, String> {
        let stderr = work.join("serve.stderr");
        let err_file = std::fs::File::create(&stderr)
            .map_err(|e| format!("cannot create {}: {e}", stderr.display()))?;
        let mut full: Vec<String> = vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
        full.extend_from_slice(args);
        let mut child = command(cli, &full)
            .stdout(Stdio::piped())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let listening = stdout.read_line(&mut banner).ok().and_then(|_| {
            banner.trim().strip_prefix("listening on ").and_then(|addr| addr.parse().ok())
        });
        let mut server =
            Self { child: Some(child), _stdout: stdout, addr: ([0, 0, 0, 0], 0).into(), stderr };
        match listening {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!(
                "serve did not start ({banner:?}): {}",
                std::fs::read_to_string(&server.stderr).unwrap_or_default()
            )),
        }
    }

    /// The server's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        self.child.as_ref().and_then(|child| peak_rss_mib(child.id()))
    }

    /// SIGTERM, then waits for the drain. Returns whether the server
    /// reported a clean drain (exit 0) in time.
    pub fn stop(mut self) -> bool {
        let Some(mut child) = self.child.take() else { return false };
        let pid = child.id().to_string();
        let signalled =
            Command::new("kill").args(["-TERM", &pid]).status().is_ok_and(|s| s.success());
        let deadline = Instant::now() + Duration::from_secs(15);
        while signalled && Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
