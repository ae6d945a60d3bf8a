//! The traced run: replays a workload's inputs through each layer's
//! public functions with in-memory spans, and scrapes the server's own
//! `/metrics` around a serving phase, to report the per-layer metrics.
//!
//! Spans nest per input — `image` → `decode`, `validate`, `round_trip`,
//! `rank`, `mse`, `ssim_ref`, `ssim_score`, `luma`, `dft`, `csp`, `vote`,
//! plus `engine_score`, the same pass through `DetectionEngine::score` —
//! and per request — `request` → `parse`, `check_bytes`, `write`. They
//! are timed from here, around each call; nothing inside the program is
//! instrumented. A span's self time is its duration minus its children's
//! (children run one after another, so their durations never overlap).
//! The spans are written out as TSV when the run ends.

use crate::host::{HostSpeed, REFERENCE_MS};
use crate::load::{self, Sample};
use crate::procs::Server;
use crate::report::{Report, PER_LAYER};
use crate::run::{
    self, drive_checks, judge_hostile, ratio, serve_args, warm_up, Context, Phases, HOSTILE_PHASES,
    PAPER_PHASES,
};
use crate::stats::{self, mean, median};
use crate::workload::{self, Corpus, Drive, Workload};
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::stream::BufferPool;
use decamouflage_core::{
    scan_shard, CancelToken, CorpusFingerprint, DegradePolicy, DetectionEngine, DirectorySource,
    MethodId, ScanCheckpoint, ScoreVector, ShardSpec, SteganalysisDetector, StreamConfig,
};
use decamouflage_datasets::SampleGenerator;
use decamouflage_imaging::codec::{decode_auto, decode_auto_into, ImageFormat};
use decamouflage_imaging::filter::{rank_filter, RankKind};
use decamouflage_imaging::scale::{ScaleAlgorithm, ScalerCache};
use decamouflage_imaging::{Channels, Image, Size};
use decamouflage_metrics::{mse, SsimConfig, SsimReference};
use decamouflage_serve::http::{parse_head, read_head, read_sized_body, BodyPlan, Response};
use decamouflage_serve::{CheckOutcome, DetectionService};
use decamouflage_spectral::csp::{count_csp_in_spectrum_with_mags, CspConfig};
use decamouflage_spectral::dft2d::dft2_planned;
use decamouflage_telemetry::Telemetry;
use std::borrow::Cow;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Shared by every span of one input or request.
    pub trace_id: usize,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Starts a span; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace_id: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, parent, trace_id, start: now, end: now });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent), self.spans[parent].trace_id);
        let result = f();
        self.close(id);
        result
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration();
            }
        }
        self.spans.iter().zip(children).map(|(s, c)| s.duration().saturating_sub(c)).collect()
    }

    /// Mean self time of the spans called `name`, in µs.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let times = self.self_times();
        let picked: Vec<f64> = self
            .spans
            .iter()
            .zip(&times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t.as_secs_f64() * 1e6)
            .collect();
        mean(&picked)
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Writes every span as a TSV row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace_id\tspan_id\tparent\tname\tstart_us\tend_us\tself_us")?;
        for (id, (span, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
                span.trace_id,
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                self_time.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// The spans that make up one engine pass (everything between
/// validation and the vote).
const ENGINE_LAYERS: [&str; 8] =
    ["round_trip", "rank", "mse", "ssim_ref", "ssim_score", "luma", "dft", "csp"];

/// The service engine's pass, one layer call at a time: the same
/// functions, configuration and order as `DetectionEngine::score` with
/// the three service methods.
#[derive(Debug)]
pub struct Replay {
    target: Size,
    ssim: SsimConfig,
    csp: CspConfig,
}

impl Replay {
    pub fn new(target: Size) -> Self {
        Self {
            target,
            ssim: SsimConfig::default(),
            csp: SteganalysisDetector::for_target(target).config().clone(),
        }
    }

    /// Scores `image` layer by layer, one child span of `parent` each.
    ///
    /// # Errors
    ///
    /// The first layer error, as text.
    pub fn scores(
        &self,
        image: &Image,
        trace: &mut Trace,
        parent: usize,
    ) -> Result<ScoreVector, String> {
        let (src, target) = (image.size(), self.target);
        let cache = ScalerCache::global();
        let round = trace
            .time(parent, "round_trip", || {
                let down = cache.get(src, target, ScaleAlgorithm::Bilinear)?.apply(image)?;
                cache.get(target, src, ScaleAlgorithm::Bilinear)?.apply(&down)
            })
            .map_err(|e| e.to_string())?;
        let filtered = trace
            .time(parent, "rank", || rank_filter(image, 2, RankKind::Minimum))
            .map_err(|e| e.to_string())?;
        let scaling_mse =
            trace.time(parent, "mse", || mse(image, &round)).map_err(|e| e.to_string())?;
        let reference = trace
            .time(parent, "ssim_ref", || SsimReference::new(image, &self.ssim))
            .map_err(|e| e.to_string())?;
        let filtering_ssim = trace
            .time(parent, "ssim_score", || reference.score_against(&filtered))
            .map_err(|e| e.to_string())?;
        let gray = trace.time(parent, "luma", || gray_view(image));
        let (spectrum, mags) = trace.time(parent, "dft", || {
            let spectrum = dft2_planned(&gray);
            let mags = spectrum.log_magnitudes();
            (spectrum, mags)
        });
        let csp = trace.time(parent, "csp", || {
            count_csp_in_spectrum_with_mags(&spectrum, &mags, &self.csp).count as f64
        });
        let mut scores = ScoreVector::splat(f64::NAN);
        scores.set(MethodId::ScalingMse, scaling_mse);
        scores.set(MethodId::FilteringSsim, filtering_ssim);
        scores.set(MethodId::Csp, csp);
        Ok(scores)
    }
}

/// The gray plane the spectral layers read: Gray images as they are,
/// RGB through one luma pass.
fn gray_view(image: &Image) -> Cow<'_, Image> {
    if image.channel_count() == 1 {
        Cow::Borrowed(image)
    } else {
        Cow::Owned(
            Image::from_gray_plane(image.width(), image.height(), image.luma().into_owned())
                .expect("a luma plane is width * height samples"),
        )
    }
}

/// Whether two score vectors agree bit for bit in every method slot.
pub fn bit_identical(a: &ScoreVector, b: &ScoreVector) -> bool {
    MethodId::ALL.iter().all(|&id| a.get(id).to_bits() == b.get(id).to_bits())
}

/// How much of the run each traced phase may take.
const REPLAY_SHARE: f64 = 0.3;
const REQUEST_SHARE: f64 = 0.1;
const PROBE_SHARE: f64 = 0.35;
/// Ladder sizes, with the target each is scored against.
const LADDER: [(usize, usize); 4] = [(128, 32), (336, 112), (448, 112), (560, 112)];

/// Runs the traced replay of one workload.
///
/// # Errors
///
/// Failures to run the program or to write the spans.
pub fn trace(
    ctx: &Context,
    workload: &Workload,
    corpus: &Corpus,
    thresholds_path: &Path,
    spans_out: &Path,
) -> Result<Report, String> {
    let mut report = Report::new(PER_LAYER);
    let mut host = HostSpeed::new();
    host.mark();
    let thresholds = workload::thresholds();
    let reps = if ctx.smoke { 1 } else { 5 };
    ladder(&mut report, ctx.seed, reps);
    codec_formats(&mut report, corpus, reps)?;

    let mut trace = Trace::new();
    let engine = workload::engine(corpus.target);
    let replay = Replay::new(corpus.target);
    let budget = Duration::from_secs_f64(REPLAY_SHARE * ctx.seconds);
    let started = Instant::now();
    let mut pool = BufferPool::new(8);
    let (mut score_times, mut replay_times) = (Vec::new(), Vec::new());
    // At least every size and format once, whatever the budget.
    let min_images = corpus.inputs.len().min(corpus.one_per_kind().len().max(4));
    let mut seq = 0;
    while seq < min_images || started.elapsed() < budget {
        let input = &corpus.inputs[seq % corpus.inputs.len()];
        let image_span = trace.open("image", None, seq);
        let decoded = trace
            .time(image_span, "decode", || decode_auto_into(&input.bytes, &mut |n| pool.take(n)));
        let (_, image) = decoded.map_err(|e| format!("{}: {e}", input.file_name))?;
        trace
            .time(image_span, "validate", || engine.validate_image(&image))
            .map_err(|e| format!("{}: {e}", input.file_name))?;
        // The untraced engine pass on the same image is the base of the
        // attribution and the guard that the replay is the engine. It runs
        // before the replay on even inputs and after it on odd ones, so
        // neither side always finds the caches warm.
        let mut engine_pass = |trace: &mut Trace| {
            let started = Instant::now();
            let scores = trace.time(image_span, "engine_score", || engine.score(&image));
            score_times.push(started.elapsed());
            scores.map_err(|e| format!("{}: {e}", input.file_name))
        };
        let engine_first = if seq % 2 == 0 { Some(engine_pass(&mut trace)?) } else { None };
        let replay_started = Instant::now();
        let scores = replay.scores(&image, &mut trace, image_span)?;
        replay_times.push(replay_started.elapsed());
        let engine_scores = match engine_first {
            Some(scores) => scores,
            None => engine_pass(&mut trace)?,
        };
        let verdict = trace.time(image_span, "vote", || workload::vote(&scores, &thresholds));
        trace.close(image_span);

        report.attempted += 1;
        if !bit_identical(&scores, &engine_scores) {
            report.failed += 1;
            report.problem(format!(
                "replayed scores of {} differ from DetectionEngine::score: {scores:?} vs {engine_scores:?}",
                input.file_name
            ));
        } else if verdict != input.reference {
            report.failed += 1;
            report.problem(format!(
                "replayed verdict of {} differs from its reference",
                input.file_name
            ));
        }
        pool.recycle(image);
        seq += 1;
    }
    let engine_total: Duration = score_times.iter().sum();
    let layers_total: Duration = ENGINE_LAYERS.iter().map(|name| trace.total(name)).sum();
    let replay_total: Duration = replay_times.iter().sum();
    let decode_total = trace.total("decode");
    let images = format!("{seq} replayed images");
    for (metric, span) in [
        ("codec.decode_us", "decode"),
        ("engine.validate_us", "validate"),
        ("engine.luma_us", "luma"),
        ("engine.vote_us", "vote"),
        ("scale.round_trip_us", "round_trip"),
        ("filter.rank_us", "rank"),
        ("metrics.ssim_reference_us", "ssim_ref"),
        ("metrics.ssim_score_us", "ssim_score"),
        ("metrics.mse_us", "mse"),
        ("spectral.dft_us", "dft"),
        ("spectral.csp_us", "csp"),
    ] {
        report.set(metric, trace.mean_self_us(span), format!("mean self time over {images}"));
    }
    let score_us: Vec<f64> = score_times.iter().map(|t| t.as_secs_f64() * 1e6).collect();
    report.set(
        "engine.score_us",
        mean(&score_us),
        format!("untraced DetectionEngine::score, {images}"),
    );
    report.set(
        "engine.unattributed_share",
        1.0 - layers_total.as_secs_f64() / engine_total.as_secs_f64(),
        "1 - sum of engine layer spans / untraced engine.score time",
    );
    report.set(
        "trace.overhead_ratio",
        replay_total.as_secs_f64() / engine_total.as_secs_f64(),
        "traced layer-by-layer pass / untraced engine.score",
    );
    report.set(
        "stream.decode_blocking_share",
        decode_total.as_secs_f64() / (decode_total + engine_total / 2).as_secs_f64(),
        "decode / (decode + score / 2 threads): a 2-thread scan's share spent in serial decode",
    );
    let bytes: Vec<f64> = corpus.inputs.iter().map(|i| i.bytes.len() as f64).collect();
    report.set("codec.bytes_per_image", mean(&bytes), format!("mean over {} inputs", bytes.len()));
    // Every verdict the program gives equals the reference (the run and
    // the replay check that), so the references' accuracy is the program's.
    let agree = corpus.inputs.iter().filter(|i| i.reference == i.attack).count();
    report.set(
        "engine.verdict_accuracy",
        ratio(agree, corpus.inputs.len()),
        format!("{agree} of {} reference verdicts equal the generated label", corpus.inputs.len()),
    );

    requests(&mut report, &mut trace, ctx, corpus, &thresholds, seq)?;
    parallel_efficiency(&mut report, corpus, &engine, mean(&score_us), reps)?;
    stream_and_persist(&mut report, ctx, workload, corpus)?;
    probe(&mut report, ctx, workload, corpus, thresholds_path)?;
    host.mark();
    report.set(
        "host.probe_ms",
        median(host.marks()),
        format!("median of the host-speed probe at the start and end; reference {REFERENCE_MS} ms"),
    );

    trace.write_tsv(spans_out).map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;
    eprintln!("{}: {} spans written to {}", workload.name, trace.spans.len(), spans_out.display());
    Ok(report)
}

/// Engine and DFT time per size on one generated Gray image each — the
/// same in every workload — with DFT GFLOP/s computed as
/// `2.5 * N * log2(N) / t` for `N = side²` samples.
fn ladder(report: &mut Report, seed: u64, reps: usize) {
    for (side, target) in LADDER {
        let profile = workload::profile(seed, &[side], target, Channels::Gray);
        let image = SampleGenerator::new(profile, ScaleAlgorithm::Bilinear).benign(0);
        let engine = workload::engine(Size::square(target));
        let time = |f: &dyn Fn()| {
            f();
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    let started = Instant::now();
                    f();
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&times)
        };
        let score_us = time(&|| {
            std::hint::black_box(engine.score(&image).expect("generated images score"));
        });
        let dft_us = time(&|| {
            std::hint::black_box(dft2_planned(&image).log_magnitudes());
        });
        let n = (side * side) as f64;
        let note = format!("Gray {side}px probe, median of {reps}");
        report.set(
            &format!("engine.score_us.s{side}"),
            score_us,
            format!("{note}, target {target}px"),
        );
        report.set(
            &format!("spectral.dft_us.s{side}"),
            dft_us,
            format!("{note}, DFT + log magnitudes"),
        );
        report.set(
            &format!("spectral.dft_gflops.s{side}"),
            2.5 * n * n.log2() / (dft_us * 1e3),
            "nominal: 2.5 * N * log2(N) flops per real 2-D DFT",
        );
    }
}

/// Decode time per format: up to eight of the workload's images, each
/// re-encoded in every format.
fn codec_formats(report: &mut Report, corpus: &Corpus, reps: usize) -> Result<(), String> {
    let images = corpus
        .inputs
        .iter()
        .take(8)
        .map(|input| decode_auto(&input.bytes).map(|(_, image)| image))
        .collect::<Result<Vec<Image>, _>>()
        .map_err(|e| e.to_string())?;
    for format in ImageFormat::ALL {
        let encoded: Vec<Vec<u8>> =
            images.iter().map(|image| workload::encode(image, format)).collect();
        let mut times = Vec::new();
        for _ in 0..reps {
            for bytes in &encoded {
                let started = Instant::now();
                std::hint::black_box(decode_auto(bytes).map_err(|e| e.to_string())?);
                times.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        report.set(
            &format!("codec.decode_us.{}", format.name()),
            mean(&times),
            format!(
                "{} workload images re-encoded as {}, {reps} reps",
                images.len(),
                format.name()
            ),
        );
    }
    Ok(())
}

/// Parses a complete in-memory request the way the server does.
fn parse_request(raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut cursor = std::io::Cursor::new(raw);
    let head =
        read_head(&mut cursor, 16 * 1024).map_err(|e| e.to_string())?.ok_or("empty request")?;
    let head = parse_head(&head).map_err(|e| e.to_string())?;
    match head.body_plan().map_err(|e| e.to_string())? {
        BodyPlan::Sized(length) => {
            read_sized_body(&mut cursor, length, 8 << 20).map_err(|e| e.to_string())
        }
        BodyPlan::Chunked => Err("unexpected chunked body".into()),
    }
}

/// The serving layers in-process: parse, `check_bytes` and write of each
/// input as a `/check` request.
fn requests(
    report: &mut Report,
    trace: &mut Trace,
    ctx: &Context,
    corpus: &Corpus,
    thresholds: &ThresholdSet,
    first_id: usize,
) -> Result<(), String> {
    let service = DetectionService::new(corpus.target, thresholds, DegradePolicy::Strict)?;
    let budget = Duration::from_secs_f64(REQUEST_SHARE * ctx.seconds);
    let started = Instant::now();
    let mut sent = 0;
    while sent < corpus.inputs.len().min(4) || started.elapsed() < budget {
        let input = &corpus.inputs[sent % corpus.inputs.len()];
        let raw = load::check_request(&input.bytes);
        let request = trace.open("request", None, first_id + sent);
        let body = trace.time(request, "parse", || parse_request(&raw))?;
        let outcome =
            trace.time(request, "check_bytes", || service.check_bytes(&body, &CancelToken::new()));
        let mut wire = Vec::new();
        trace
            .time(request, "write", || {
                Response::json(outcome.status(), outcome.to_json()).write_to(&mut wire)
            })
            .map_err(|e| e.to_string())?;
        trace.close(request);
        report.attempted += 1;
        let verdict = match &outcome {
            CheckOutcome::Verdict { verdict, .. } => Some(verdict.is_attack),
            _ => None,
        };
        if verdict != Some(input.reference) {
            report.failed += 1;
            report.problem(format!("check_bytes of {} gave {outcome:?}", input.file_name));
        }
        sent += 1;
    }
    let note = format!("mean self time over {sent} in-memory requests");
    report.set("http.parse_us", trace.mean_self_us("parse"), note.clone());
    report.set("service.check_bytes_us", trace.mean_self_us("check_bytes"), note.clone());
    report.set("http.write_us", trace.mean_self_us("write"), note);
    Ok(())
}

/// `score_images` on one thread against two: medians of `reps`
/// alternating timings after a warm-up, over as many inputs as score in
/// about 0.3 s on one thread (at least four).
fn parallel_efficiency(
    report: &mut Report,
    corpus: &Corpus,
    engine: &DetectionEngine,
    score_us: f64,
    reps: usize,
) -> Result<(), String> {
    let count = ((0.3e6 / score_us) as usize).clamp(4, corpus.inputs.len().max(4));
    let images = corpus
        .inputs
        .iter()
        .take(count)
        .map(|input| decode_auto(&input.bytes).map(|(_, image)| image))
        .collect::<Result<Vec<Image>, _>>()
        .map_err(|e| e.to_string())?;
    let timed = |threads: usize| {
        let started = Instant::now();
        std::hint::black_box(engine.score_images(&images, threads));
        started.elapsed().as_secs_f64()
    };
    timed(2);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        one.push(timed(1));
        two.push(timed(2));
    }
    let (one, two) = (median(&one), median(&two));
    report.set(
        "parallel.efficiency_2t",
        one / (2.0 * two),
        format!(
            "{} images: {one:.4} s on 1 thread, {two:.4} s on 2 (medians of {reps})",
            images.len()
        ),
    );
    Ok(())
}

/// A checkpointed `scan_shard` pass over the corpus directory at the
/// workload's chunk size, as `scan --checkpoint` runs it: buffer-pool
/// reuse and checkpoint cost.
fn stream_and_persist(
    report: &mut Report,
    ctx: &Context,
    workload: &Workload,
    corpus: &Corpus,
) -> Result<(), String> {
    let chunk = match workload.drive {
        Drive::Scan { chunk_size: Some(chunk), .. } => chunk,
        _ => 64,
    };
    let telemetry = Telemetry::enabled();
    let engine = workload::engine(corpus.target).with_telemetry(telemetry.clone());
    let mut source =
        DirectorySource::with_telemetry(&corpus.dir, &telemetry).map_err(|e| e.to_string())?;
    let kept: Vec<usize> = (0..source.len()).collect();
    let fingerprint = CorpusFingerprint::of_keys(source.shard_keys());
    let checkpoint = ScanCheckpoint::new(ShardSpec::full(), fingerprint, engine.methods());
    let config = StreamConfig::default().with_chunk_size(chunk).with_threads(2);
    let path = ctx.work.join("trace.ckpt");
    let mut saves = Vec::new();
    scan_shard(
        &engine,
        &mut source,
        &kept,
        &config,
        checkpoint,
        |ckpt| {
            let started = Instant::now();
            let saved = ckpt.save(&path);
            saves.push(started.elapsed().as_secs_f64() * 1e6);
            saved
        },
        |_, _| {},
    )
    .map_err(|e| e.to_string())?;
    let hits = telemetry.counter("decam_stream_buffer_pool_hits_total", &[]).value();
    let misses = telemetry.counter("decam_stream_buffer_pool_misses_total", &[]).value();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let note = format!("{} files, chunk size {chunk}, 2 threads", kept.len());
    report.set(
        "stream.buffer_pool_hit_ratio",
        ratio(hits as usize, (hits + misses) as usize),
        format!("{hits} hits, {misses} misses; {note}"),
    );
    report.set("persist.checkpoint_save_us", mean(&saves), note.clone());
    report.set("persist.saves_per_pass", saves.len() as f64, note.clone());
    report.set("persist.checkpoint_bytes", bytes as f64, format!("final checkpoint; {note}"));
    Ok(())
}

/// Sums the `/metrics` series named `name` whose labels include every
/// `key="value"` pair in `labels` (and none of `exclude`).
fn series_sum(text: &str, name: &str, labels: &[&str], exclude: &[&str]) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(series, _)| {
            let (series_name, series_labels) = series.split_once('{').unwrap_or((series, ""));
            series_name == name
                && labels.iter().all(|l| series_labels.contains(l))
                && !exclude.iter().any(|l| series_labels.contains(l))
        })
        .filter_map(|(_, value)| value.parse::<f64>().ok())
        .sum()
}

fn scrape(addr: std::net::SocketAddr) -> Result<String, String> {
    let reply = load::exchange(addr, &load::get_request("/metrics"), run::CLIENT_TIMEOUT);
    if reply.status == 200 {
        Ok(reply.body)
    } else {
        Err(format!("GET /metrics answered {}", reply.status))
    }
}

/// A serving phase against the real server — the first open-loop phase
/// of the matching check workload, with the hostile connection on
/// `check-hostile` — read from both sides: the client's timeline and the
/// server's `/metrics` deltas.
fn probe(
    report: &mut Report,
    ctx: &Context,
    workload: &Workload,
    corpus: &Corpus,
    thresholds: &Path,
) -> Result<(), String> {
    let hostile = matches!(workload.drive, Drive::Check { hostile: true });
    let server = Server::start(&ctx.cli, &serve_args(corpus, thresholds), &ctx.work)?;
    let addr = server.addr;
    let requests: Vec<Vec<u8>> =
        corpus.inputs.iter().map(|i| load::check_request(&i.bytes)).collect();
    warm_up(addr, corpus, &requests);
    let before = scrape(addr)?;
    // The first open-loop phase of the matching check workload.
    let phases = if hostile { &HOSTILE_PHASES } else { &PAPER_PHASES };
    let first = Phases { open: &phases.open[..1], closed: 0.0, ..*phases };
    let share = phases.open[0].1;
    let seconds = PROBE_SHARE * ctx.seconds / share;
    let run = drive_checks(addr, corpus, &requests, &first, seconds, 1, &mut |_| {});
    let after = scrape(addr)?;
    if !server.stop() {
        report.problem("serve did not drain cleanly");
    }
    judge_hostile(report, &run.hostile);
    let rate = first.open[0].0;
    let samples: Vec<&Sample<run::Checked>> = run.turns.iter().flat_map(|t| &t.samples).collect();
    report.attempted += samples.len() as u64;
    for sample in samples.iter().filter(|s| !s.outcome.ok) {
        report.failed += 1;
        report.problem(sample.outcome.problem.clone().unwrap_or_default());
    }
    let phase_wall = run.wall.as_secs_f64();

    let delta = |name: &str, labels: &[&str], exclude: &[&str]| {
        series_sum(&after, name, labels, exclude) - series_sum(&before, name, labels, exclude)
    };
    let check_route = ["route=\"/check\""];
    let request_ms = 1e3 * delta("decam_http_request_seconds_sum", &check_route, &[])
        / delta("decam_http_request_seconds_count", &check_route, &[]);
    let answered = delta("decam_http_requests_total", &[], &["route=\"/metrics\""]);
    let shed = delta("decam_http_shed_total", &[], &[]);
    let timeouts = delta("decam_http_requests_total", &["status=\"408\""], &[])
        + delta("decam_http_requests_total", &["status=\"504\""], &[]);
    let in_process_ms = (report_value(report, "service.check_bytes_us")
        + report_value(report, "http.parse_us")
        + report_value(report, "http.write_us"))
        / 1e3;
    let held = run
        .hostile
        .iter()
        .filter(|s| s.kind == load::Hostile::SlowLoris)
        .fold(0.0, |total, s| total + s.held.as_secs_f64());
    let latency: Vec<f64> =
        samples.iter().map(|s| if s.outcome.ok { s.latency_ms() } else { f64::INFINITY }).collect();
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms()).collect();
    let service: Vec<f64> =
        samples.iter().filter(|s| s.outcome.ok).map(|s| s.service_ms()).collect();
    let tail = stats::tail(&latency).expect("the probe sends");
    let phase = format!("{rate} req/s open loop, {} requests", samples.len());

    report.set(
        "server.request_ms_mean",
        request_ms,
        format!("/metrics delta over every /check answered; {phase}"),
    );
    report.set(
        "server.queue_wait_ms",
        request_ms - in_process_ms,
        "request_ms_mean - (check_bytes + parse + write)",
    );
    report.set(
        "server.shed_ratio",
        ratio(shed as usize, (answered + shed) as usize),
        format!("{shed} shed of {}", answered + shed),
    );
    report.set(
        "server.timeout_ratio",
        ratio(timeouts as usize, (answered + shed) as usize),
        format!("{timeouts} answered 408/504"),
    );
    report.set(
        "server.loris_handler_share",
        held / (2.0 * phase_wall),
        format!("slow loris held a handler {held:.2} s of 2 handlers x {phase_wall:.2} s"),
    );
    report.set(
        "client.tail_latency_ms",
        tail.value,
        format!("{} from due time; {phase}", tail.describe()),
    );
    report.set("client.lag_ms_p95", stats::percentile(&lag, 95.0), phase.clone());
    report.set(
        "client.connect_wait_ms",
        mean(&service) - request_ms,
        "client send-to-reply mean - server request_ms_mean",
    );
    Ok(())
}

fn report_value(report: &Report, name: &str) -> f64 {
    report.value(name).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard(side: usize, target: usize, channels: Channels) {
        let profile = workload::profile(2021, &[side], target, channels);
        let generator = SampleGenerator::new(profile, ScaleAlgorithm::Bilinear);
        let engine = workload::engine(Size::square(target));
        let replay = Replay::new(Size::square(target));
        for image in [generator.benign(1), generator.attack_image(1).unwrap()] {
            let mut trace = Trace::new();
            let root = trace.open("image", None, 0);
            let replayed = replay.scores(&image, &mut trace, root).unwrap();
            trace.close(root);
            let scored = engine.score(&image).unwrap();
            assert!(bit_identical(&replayed, &scored), "{replayed:?} vs {scored:?}");
            let names: Vec<&str> = trace.spans[1..].iter().map(|s| s.name).collect();
            assert_eq!(names, ENGINE_LAYERS);
        }
    }

    #[test]
    fn replay_is_bit_identical_to_the_engine_on_a_gray_paper_size_image() {
        guard(336, 112, Channels::Gray);
    }

    #[test]
    fn replay_is_bit_identical_to_the_engine_on_an_rgb_128px_image() {
        guard(128, 32, Channels::Rgb);
    }

    #[test]
    fn the_guard_sees_a_one_ulp_difference() {
        let a = ScoreVector::splat(1.0);
        let mut b = a.clone();
        assert!(bit_identical(&a, &b));
        b.set(MethodId::Csp, f64::from_bits(1.0f64.to_bits() + 1));
        assert!(!bit_identical(&a, &b));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new();
        let root = trace.open("request", None, 7);
        trace.time(root, "parse", || std::thread::sleep(Duration::from_millis(2)));
        std::thread::sleep(Duration::from_millis(3));
        trace.close(root);
        let self_times = trace.self_times();
        assert!(self_times[0] >= Duration::from_millis(3));
        assert!(self_times[0] < trace.spans[0].duration());
        assert_eq!(self_times[1], trace.spans[1].duration());
        assert_eq!(trace.spans[1].trace_id, 7, "children share the trace id");
    }

    #[test]
    fn series_sums_filter_by_name_and_labels() {
        let text = "# HELP x\n\
                    decam_http_requests_total{route=\"/check\",status=\"200\"} 5\n\
                    decam_http_requests_total{route=\"/metrics\",status=\"200\"} 2\n\
                    decam_http_requests_total{route=\"unknown\",status=\"408\"} 1\n\
                    decam_http_request_seconds_sum{route=\"/check\"} 0.25\n";
        assert_eq!(series_sum(text, "decam_http_requests_total", &[], &[]), 8.0);
        assert_eq!(
            series_sum(text, "decam_http_requests_total", &[], &["route=\"/metrics\""]),
            6.0
        );
        assert_eq!(series_sum(text, "decam_http_requests_total", &["status=\"408\""], &[]), 1.0);
        assert_eq!(
            series_sum(text, "decam_http_request_seconds_sum", &["route=\"/check\""], &[]),
            0.25
        );
        assert_eq!(series_sum(text, "decam_http_request_seconds", &[], &[]), 0.0);
    }
}
