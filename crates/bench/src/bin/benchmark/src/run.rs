//! The end-to-end run: drives the `decamouflage` binary on a workload's
//! inputs with tracing off, checks every output against the reference
//! verdicts, and reports the end-to-end metrics. Every timing is
//! normalised by the host-speed probe marked around it (see `host.rs`).

use crate::host::HostSpeed;
use crate::load::{self, Clock, Hostile, Reply, Sample, SystemClock};
use crate::procs::{self, ScanRun, Server};
use crate::report::{Report, END_TO_END};
use crate::stats::{self, median, quartiles};
use crate::workload::{Corpus, Drive, Workload};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything a workload run needs to know about its environment.
#[derive(Debug)]
pub struct Context {
    /// The `decamouflage` binary under test.
    pub cli: PathBuf,
    /// Working directory of this run (inputs, thresholds, child output).
    pub work: PathBuf,
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Tiny corpora and single repetitions.
    pub smoke: bool,
}

impl Context {
    /// The fewest cold starts a `setup_s` median rests on.
    fn cold_starts(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Server flags of every check workload.
pub fn serve_args(corpus: &Corpus, thresholds: &Path) -> Vec<String> {
    let target = format!("{}x{}", corpus.target.width, corpus.target.height);
    [
        "--target",
        &target,
        "--thresholds",
        &thresholds.display().to_string(),
        "--handlers",
        "2",
        "--queue-limit",
        "4",
        "--deadline-ms",
        "2000",
        "--drain-ms",
        "4000",
    ]
    .map(String::from)
    .to_vec()
}

/// How long a client waits for any reply: past the server's deadline, so
/// a stalled server shows as a status-0 failure rather than a hang.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs one workload end to end.
///
/// # Errors
///
/// Failures to run the program at all; wrong outputs are problems in
/// the report instead.
pub fn run(
    ctx: &Context,
    workload: &Workload,
    corpus: &Corpus,
    thresholds: &Path,
) -> Result<Report, String> {
    match workload.drive {
        Drive::Scan { chunk_size, checkpoint } => {
            let mut flags = Vec::new();
            if let Some(chunk) = chunk_size {
                flags.extend(["--chunk-size".into(), chunk.to_string()]);
            }
            if checkpoint {
                flags.extend([
                    "--checkpoint".into(),
                    ctx.work.join("scan.ckpt").display().to_string(),
                ]);
            }
            run_scans(ctx, corpus, thresholds, &flags)
        }
        Drive::Check { hostile } => run_checks(ctx, corpus, thresholds, hostile),
    }
}

/// `scan DIR --target WxH --thresholds FILE` plus the workload's flags.
fn scan_args(dir: &Path, corpus: &Corpus, thresholds: &Path, flags: &[String]) -> Vec<String> {
    let mut args = vec![
        "scan".into(),
        dir.display().to_string(),
        "--target".into(),
        format!("{}x{}", corpus.target.width, corpus.target.height),
        "--thresholds".into(),
        thresholds.display().to_string(),
    ];
    args.extend_from_slice(flags);
    args
}

/// What one `scan` pass printed, checked against the references.
#[derive(Debug, Default)]
struct PassCheck {
    files: usize,
    scored: usize,
    /// Scored with the reference verdict.
    correct: usize,
    problems: Vec<String>,
}

/// Checks a scan's stdout: one verdict line per expected file matching
/// its reference, and a summary with nothing quarantined or unreadable.
fn check_scan_output(stdout: &str, corpus: &Corpus, expected: &[usize]) -> PassCheck {
    let mut check = PassCheck { files: expected.len(), ..PassCheck::default() };
    let mut seen = vec![false; corpus.inputs.len()];
    let mut summary = None;
    for line in stdout.lines() {
        let verdict = if let Some(rest) = line.strip_prefix("ATTACK") {
            Some((true, rest))
        } else {
            line.strip_prefix("benign").map(|rest| (false, rest))
        };
        if let Some((attack, rest)) = verdict {
            let name = Path::new(rest.trim()).file_name().map(|n| n.to_string_lossy().into_owned());
            match name.as_deref().and_then(|name| corpus.index_of(name)) {
                Some(index) if expected.contains(&index) && !seen[index] => {
                    seen[index] = true;
                    check.scored += 1;
                    let input = &corpus.inputs[index];
                    if attack == input.reference {
                        check.correct += 1;
                    } else {
                        check.problems.push(format!(
                            "scan says {} for {} but the reference verdict is {}",
                            if attack { "ATTACK" } else { "benign" },
                            input.file_name,
                            if input.reference { "ATTACK" } else { "benign" }
                        ));
                    }
                }
                _ => check.problems.push(format!("unexpected scan line {line:?}")),
            }
        } else if let Some(rest) = line.strip_prefix("scanned ") {
            summary = Some(rest.to_string());
        } else {
            check.problems.push(format!("scan did not score a file: {line:?}"));
        }
    }
    let wanted = format!("{} images: ", expected.len());
    match summary {
        Some(text)
            if text.starts_with(&wanted) && text.contains(" 0 quarantined, 0 unreadable") => {}
        other => check.problems.push(format!("unexpected scan summary {other:?}")),
    }
    check
}

fn quartile_note(values: &[f64], unit: &str, what: &str) -> String {
    let [q1, _, q3] = quartiles(values);
    format!("q1 {q1:.4} q3 {q3:.4} {unit} over {} {what}", values.len())
}

/// Samples of one timing, normalised by the host's slowdown and as
/// measured.
#[derive(Debug, Default)]
struct Timing {
    normalised: Vec<f64>,
    measured: Vec<f64>,
}

impl Timing {
    fn new() -> Self {
        Self::default()
    }

    fn len(&self) -> usize {
        self.measured.len()
    }

    /// A time, measured while the host ran `slowdown` times slower than
    /// the probe's reference.
    fn time(&mut self, value: f64, slowdown: f64) {
        self.measured.push(value);
        self.normalised.push(value / slowdown);
    }

    /// A rate, measured likewise.
    fn rate(&mut self, value: f64, slowdown: f64) {
        self.measured.push(value);
        self.normalised.push(value * slowdown);
    }

    /// The normalised median: the metric.
    fn median(&self) -> f64 {
        median(&self.normalised)
    }

    fn note(&self, unit: &str, what: &str) -> String {
        format!(
            "normalised {}; measured median {:.4} {unit}",
            quartile_note(&self.normalised, unit, what),
            median(&self.measured)
        )
    }
}

fn run_scans(
    ctx: &Context,
    corpus: &Corpus,
    thresholds: &Path,
    flags: &[String],
) -> Result<Report, String> {
    let mut report = Report::new(END_TO_END);

    // Set-up is measured as cold starts on a directory with one file per
    // size and format.
    let cold_dir = ctx.work.join("cold");
    std::fs::create_dir_all(&cold_dir)
        .map_err(|e| format!("cannot create {}: {e}", cold_dir.display()))?;
    let cold = corpus.one_per_kind();
    for &index in &cold {
        let input = &corpus.inputs[index];
        std::fs::write(cold_dir.join(&input.file_name), &input.bytes).map_err(|e| e.to_string())?;
    }
    let cold_args = scan_args(&cold_dir, corpus, thresholds, flags);
    let args = scan_args(&corpus.dir, corpus, thresholds, flags);

    // Rounds of one cold start and one pass over the whole corpus, so
    // set-up and passes sample the same stretch of machine time; a round
    // starts only while one more fits in the measured time. The probe
    // marks the host's speed between every two runs of the program.
    let all: Vec<usize> = (0..corpus.inputs.len()).collect();
    let min_passes = if ctx.smoke { 1 } else { 3 };
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut round = Duration::ZERO;
    let mut host = HostSpeed::new();
    let mut last = host.mark();
    // Runs one scan and marks the host after it; returns the run and the
    // host's slowdown around it.
    let mut scan = |args: &[String]| -> Result<(ScanRun, f64), String> {
        let pass = procs::run_scan(&ctx.cli, args, &ctx.work)?;
        let now = host.mark();
        let slowdown = host.slowdown(last, now);
        last = now;
        Ok((pass, slowdown))
    };
    let (mut setups, mut rates, mut firsts) = (Timing::new(), Timing::new(), Timing::new());
    let mut rss = Vec::new();
    let (mut files, mut scored) = (0usize, 0usize);
    while rates.len() < min_passes || started.elapsed() + round <= budget {
        let round_started = Instant::now();
        let (cold_pass, slowdown) = scan(&cold_args)?;
        report.problems.extend(check_scan_output(&cold_pass.stdout, corpus, &cold).problems);
        setups.time(cold_pass.wall.as_secs_f64(), slowdown);
        let (pass, slowdown) = scan(&args)?;
        let check = check_scan_output(&pass.stdout, corpus, &all);
        files += check.files;
        scored += check.scored;
        report.failed += (check.files - check.correct) as u64;
        report.problems.extend(check.problems);
        rates.rate(all.len() as f64 / pass.wall.as_secs_f64(), slowdown);
        firsts.time(pass.first_line.as_secs_f64() * 1e3, slowdown);
        rss.push(pass.peak_rss_mib);
        round = round_started.elapsed();
    }
    while setups.len() < ctx.cold_starts() {
        let (cold_pass, slowdown) = scan(&cold_args)?;
        report.problems.extend(check_scan_output(&cold_pass.stdout, corpus, &cold).problems);
        setups.time(cold_pass.wall.as_secs_f64(), slowdown);
    }
    report.attempted = files as u64;

    report.set("setup_s", setups.median(), setups.note("s", "cold starts"));
    report.set("throughput_per_s", rates.median(), rates.note("images/s", "passes"));
    report.set(
        "latency_p50_ms",
        firsts.median(),
        format!(
            "spawn to the first verdict of a {}-file scan; {}",
            all.len(),
            firsts.note("ms", "passes")
        ),
    );
    report.set("peak_rss_mib", median(&rss), quartile_note(&rss, "MiB", "passes"));
    report.set("success_ratio", ratio(scored, files), format!("{scored} of {files} files scored"));
    Ok(report)
}

/// `part / whole`, and `0` for an empty whole.
pub fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The outcome of one valid `/check`.
#[derive(Debug, Clone)]
pub struct Checked {
    /// A `200` whose verdict matches the reference.
    pub ok: bool,
    pub problem: Option<String>,
}

/// Sends input `index` (cycled) and checks the verdict in the reply.
pub fn check_one(addr: SocketAddr, corpus: &Corpus, requests: &[Vec<u8>], index: usize) -> Checked {
    let input = index % requests.len();
    judge(corpus, input, &load::exchange(addr, &requests[input], CLIENT_TIMEOUT))
}

/// Judges one `/check` reply against input `input`'s reference verdict.
fn judge(corpus: &Corpus, input: usize, reply: &Reply) -> Checked {
    let expected = &corpus.inputs[input];
    let verdict = (reply.status == 200)
        .then(|| crate::json::parse(&reply.body).ok())
        .flatten()
        .and_then(|body| body.get("verdict").and_then(|v| v.as_str()).map(|v| v == "attack"));
    match verdict {
        Some(attack) if attack == expected.reference => Checked { ok: true, problem: None },
        _ => Checked {
            ok: false,
            problem: Some(format!(
                "/check of {} answered {} {:?}; the reference verdict is {}",
                expected.file_name,
                reply.status,
                reply.body.chars().take(160).collect::<String>(),
                if expected.reference { "attack" } else { "benign" }
            )),
        },
    }
}

/// One hostile request's outcome.
#[derive(Debug, Clone)]
pub struct HostileSample {
    pub kind: Hostile,
    pub status: u16,
    pub held: Duration,
}

/// Loops the hostile requests on one connection at a time until `stop`.
pub fn hostile_loop(addr: SocketAddr, stop: &AtomicBool) -> Vec<HostileSample> {
    let mut samples = Vec::new();
    for kind in Hostile::CYCLE.iter().cycle() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let started = Instant::now();
        let reply = load::exchange(addr, &kind.request(), CLIENT_TIMEOUT);
        samples.push(HostileSample { kind: *kind, status: reply.status, held: started.elapsed() });
    }
    samples
}

/// Folds hostile samples into the report: each must have its typed status.
pub fn judge_hostile(report: &mut Report, samples: &[HostileSample]) {
    report.attempted += samples.len() as u64;
    for sample in samples {
        if !sample.kind.expected(sample.status) {
            report.failed += 1;
            report.problem(format!("hostile {:?} request answered {}", sample.kind, sample.status));
        }
    }
}

/// Rounds of two concurrent requests before timing: both handlers
/// have built their plans and grown their allocator arenas, so neither
/// latency nor peak memory depends on which handler the timed traffic
/// happens to reach first.
pub fn warm_up(addr: SocketAddr, corpus: &Corpus, requests: &[Vec<u8>]) {
    for round in 0..4 {
        std::thread::scope(|scope| {
            for k in 0..2 {
                scope.spawn(move || check_one(addr, corpus, requests, 2 * round + k));
            }
        });
    }
}

/// Spawns a server and times spawn to the first `200` on `/check`.
fn cold_start(ctx: &Context, args: &[String], request: &[u8]) -> Result<f64, String> {
    let started = Instant::now();
    let server = Server::start(&ctx.cli, args, &ctx.work)?;
    let reply = load::exchange(server.addr, request, CLIENT_TIMEOUT);
    let elapsed = started.elapsed().as_secs_f64();
    if reply.status != 200 {
        return Err(format!("cold /check answered {}: {}", reply.status, reply.body));
    }
    if !server.stop() {
        return Err("serve did not drain cleanly after a cold start".into());
    }
    Ok(elapsed)
}

/// The load phases of a check run. Each phase's share of the run is cut
/// into slices, and the slices of all phases take turns, so every phase
/// samples the whole run and a few seconds of machine noise cannot land
/// on one phase alone.
pub struct Phases {
    /// Open-loop rates (req/s) and the share of the run each gets.
    pub open: &'static [(f64, f64)],
    /// Share of the run for the closed loop (none when zero).
    pub closed: f64,
    /// Client threads sending valid requests.
    pub workers: usize,
    /// Whether a second connection loops hostile requests meanwhile.
    pub hostile: bool,
}

pub const PAPER_PHASES: Phases =
    Phases { open: &[(15.0, 0.4), (25.0, 0.3)], closed: 0.3, workers: 2, hostile: false };
/// With one clean connection and one handler held by the slow loris, a
/// request that runs past the send interval delays every later one.
/// 6 req/s keeps the handler under half busy even when the machine runs
/// at half speed, so the latency measures service, not a backlog.
pub const HOSTILE_PHASES: Phases =
    Phases { open: &[(6.0, 0.6)], closed: 0.4, workers: 1, hostile: true };
const SLICES: usize = 8;

/// One turn of one phase.
#[derive(Debug)]
pub struct Turn {
    /// The open-loop rate's index in [`Phases::open`]; `None` for the
    /// closed loop.
    pub open: Option<usize>,
    pub samples: Vec<Sample<Checked>>,
    /// Start of the turn to its last reply.
    pub wall: Duration,
}

/// Every sample of one check run.
#[derive(Debug, Default)]
pub struct CheckRun {
    /// Every turn, in the order they ran.
    pub turns: Vec<Turn>,
    pub hostile: Vec<HostileSample>,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// Sends the valid traffic of `phases` for `seconds` in `slices` turns
/// each, with the hostile connection alongside when asked for.
/// `between(slice_start)` runs before every turn and once after the last,
/// while no valid traffic is in flight; `slice_start` is true before the
/// first turn of each slice.
pub fn drive_checks(
    addr: SocketAddr,
    corpus: &Corpus,
    requests: &[Vec<u8>],
    phases: &Phases,
    seconds: f64,
    slices: usize,
    between: &mut dyn FnMut(bool),
) -> CheckRun {
    let slice = seconds / slices as f64;
    let clock = SystemClock::new();
    let stop = AtomicBool::new(false);
    let mut run = CheckRun::default();
    let kinds: Vec<Option<usize>> =
        (0..phases.open.len()).map(Some).chain((phases.closed > 0.0).then_some(None)).collect();
    run.hostile = std::thread::scope(|scope| {
        let hostile = phases.hostile.then(|| scope.spawn(|| hostile_loop(addr, &stop)));
        // Requests number on across turns, so the bodies keep cycling.
        let mut sent = 0;
        for _ in 0..slices {
            for (k, &open) in kinds.iter().enumerate() {
                between(k == 0);
                let send = |i| check_one(addr, corpus, requests, sent + i);
                let start = clock.now();
                let samples = match open {
                    Some(rate_index) => {
                        let (rate, share) = phases.open[rate_index];
                        let count = ((rate * share * slice).round() as usize).max(1);
                        load::open_loop(&clock, rate, count, phases.workers, send)
                    }
                    None => {
                        let length = Duration::from_secs_f64(phases.closed * slice);
                        load::closed_loop(&clock, length, phases.workers, send)
                    }
                };
                sent += samples.len();
                let wall = samples.iter().map(|s| s.done).max().unwrap_or(start) - start;
                run.turns.push(Turn { open, samples, wall });
            }
        }
        between(false);
        stop.store(true, Ordering::SeqCst);
        hostile.map(|thread| thread.join().expect("the hostile client does not panic"))
    })
    .unwrap_or_default();
    run.wall = clock.now();
    run
}

fn run_checks(
    ctx: &Context,
    corpus: &Corpus,
    thresholds: &Path,
    hostile: bool,
) -> Result<Report, String> {
    let mut report = Report::new(END_TO_END);
    let args = serve_args(corpus, thresholds);
    let requests: Vec<Vec<u8>> =
        corpus.inputs.iter().map(|i| load::check_request(&i.bytes)).collect();

    let server = Server::start(&ctx.cli, &args, &ctx.work)?;
    warm_up(server.addr, corpus, &requests);
    let phases = if hostile { HOSTILE_PHASES } else { PAPER_PHASES };
    let slices = if ctx.smoke { 1 } else { SLICES };
    // The probe marks the host's speed between every two turns, and a
    // second server is cold-started before every slice, so set-up and
    // load sample the same stretch of machine time. Turn `i` runs between
    // marks `starts[i]` and `ends[i + 1]`.
    let mut host = HostSpeed::new();
    let (mut starts, mut ends, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    // A cold start after mark `before`; returns the mark after it.
    let mut timed_cold_start = |host: &mut HostSpeed, before: usize| {
        let setup = cold_start(ctx, &args, &requests[0]);
        let after = host.mark();
        cold.push((setup, before, after));
        after
    };
    let run = drive_checks(
        server.addr,
        corpus,
        &requests,
        &phases,
        ctx.seconds,
        slices,
        &mut |slice_start| {
            let end = host.mark();
            ends.push(end);
            starts.push(if slice_start { timed_cold_start(&mut host, end) } else { end });
        },
    );
    let rss = server.peak_rss_mib();
    if !server.stop() {
        report.problem("serve did not drain cleanly");
    }
    if slices < ctx.cold_starts() {
        let mut last = host.mark();
        for _ in slices..ctx.cold_starts() {
            last = timed_cold_start(&mut host, last);
        }
    }
    let mut setups = Timing::new();
    for (setup, before, after) in cold {
        setups.time(setup?, host.slowdown(before, after));
    }
    let slowdowns: Vec<f64> =
        (0..run.turns.len()).map(|i| host.slowdown(starts[i], ends[i + 1])).collect();

    let valid: Vec<&Sample<Checked>> = run.turns.iter().flat_map(|t| &t.samples).collect();
    let ok = valid.iter().filter(|s| s.outcome.ok).count();
    report.attempted = valid.len() as u64;
    report.failed = (valid.len() - ok) as u64;
    for problem in valid.iter().filter_map(|s| s.outcome.problem.clone()).take(20) {
        report.problem(problem);
    }
    judge_hostile(&mut report, &run.hostile);

    // Latencies of open-loop rate `k` from the due time; a failed request
    // counts as missing every latency limit.
    let latencies = |k: usize| {
        let mut timing = Timing::new();
        for (turn, &slowdown) in run.turns.iter().zip(&slowdowns).filter(|(t, _)| t.open == Some(k))
        {
            for s in &turn.samples {
                timing.time(if s.outcome.ok { s.latency_ms() } else { f64::INFINITY }, slowdown);
            }
        }
        timing
    };
    let mut notes = Vec::new();
    for (k, &(rate, _)) in phases.open.iter().enumerate() {
        let lat = latencies(k);
        let lag: Vec<f64> = run
            .turns
            .iter()
            .filter(|t| t.open == Some(k))
            .flat_map(|t| t.samples.iter().map(Sample::lag_ms))
            .collect();
        let tail = stats::tail(&lat.normalised).expect("every phase sends");
        notes.push(format!(
            "{rate} req/s: normalised p50 {:.3} ms, {} {:.3} ms, measured p50 {:.3} ms, \
             generator lag p95 {:.3} ms",
            lat.median(),
            tail.describe(),
            tail.value,
            median(&lat.measured),
            stats::percentile(&lag, 95.0)
        ));
    }

    report.set(
        "setup_s",
        setups.median(),
        format!("spawn to first 200; {}", setups.note("s", "cold starts")),
    );
    // Closed-loop capacity: valid replies over the turns' wall time, each
    // turn's time normalised by its slowdown.
    let closed: Vec<(&Turn, f64)> =
        run.turns.iter().zip(slowdowns.iter().copied()).filter(|(t, _)| t.open.is_none()).collect();
    let replies: f64 =
        closed.iter().map(|(t, _)| t.samples.iter().filter(|s| s.outcome.ok).count() as f64).sum();
    let normalised_wall: f64 = closed.iter().map(|(t, s)| t.wall.as_secs_f64() / s).sum();
    let measured_wall: f64 = closed.iter().map(|(t, _)| t.wall.as_secs_f64()).sum();
    report.set(
        "throughput_per_s",
        replies / normalised_wall,
        format!(
            "normalised valid 200s/s over {} closed-loop turns on {} connection(s){}; \
             measured {:.4}",
            closed.len(),
            phases.workers,
            if hostile { " beside the hostile one" } else { "" },
            replies / measured_wall
        ),
    );
    report.set(
        "latency_p50_ms",
        latencies(0).median(),
        format!("open loop from due time; {}", notes.join("; ")),
    );
    report.set("peak_rss_mib", rss.unwrap_or(0.0), "serve VmHWM at the end of the run");
    let mut success_note = format!("{ok} of {} valid requests answered correctly", valid.len());
    if hostile {
        let held: f64 = run
            .hostile
            .iter()
            .filter(|s| s.kind == Hostile::SlowLoris)
            .map(|s| s.held.as_secs_f64())
            .sum();
        success_note += &format!(
            "; {} hostile requests, slow loris held a handler {held:.1} s",
            run.hostile.len()
        );
    }
    report.set("success_ratio", ratio(ok, valid.len()), success_note);
    Ok(report)
}
