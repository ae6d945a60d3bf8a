//! `stage_profile` — the workspace's perf ledger and the home of every perf
//! gate in `ci.sh`.
//!
//! Writes `BENCH_stages.json` at the repository root. Its `decode` rows give
//! µs/image per container format over 48 RGB 128² images × 3 passes, each
//! file pulled through [`DirectorySource`] and decoded with
//! [`Pulled::into_image`], as a scoring worker does. Its `engine` rows give
//! µs/image, mean of [`PASSES`] passes, for every series the engine's
//! telemetry records — the pass, each stage, each per-method increment — for
//! Gray and RGB at 128² (a 64-image corpus) and at the paper's Table 7 sizes
//! 336², 448² and 560², plus Gray 512², the DFT gate's radix-2 reference.
//! Those engines run every method (`"methods": "all"`); the `"paper"` rows
//! give the pass, the `dft` stage and the CSP increment of the paper's
//! method set ([`PAPER_METHODS`], what `check`, `scan` and `serve` run) at
//! the Table 7 sizes, Gray. Images score through
//! [`DetectionEngine::score_resilient`], which validates and then scores, as
//! every production caller does.
//!
//! Its `gates` rows are the perf gates; the program exits non-zero if one
//! fails, and panics if a correctness check does:
//!
//! 1. engine scores are bit-identical to
//!    [`DetectionEngine::reference_score`] on the 64-image corpus (checked);
//! 2. a `score` pass over that corpus, µs/image, stays under
//!    [`ENGINE_PROBE_LIMIT`] times one run of [`Probe`], µs;
//! 3. `score_images(_, 1)` stays under [`BATCH_LIMIT`] times that pass;
//! 4. chunked `score_stream` stays under [`STREAM_LIMIT`] times the eager
//!    one-chunk `score_stream`, with bit-identical scores (checked);
//! 5. the instrumented engine stays under [`TELEMETRY_LIMIT`] times the
//!    silent one, with bit-identical scores and an exposition the strict
//!    parser accepts (checked);
//! 6. the SSIM pipeline stays under [`SSIM_SHARE_LIMIT`] of the 128² Gray
//!    engine pass;
//! 7. `dft(448²) / dft(512²)` stays under [`DFT_RATIO_LIMIT`];
//! 8. PNG and JPEG decode stay under [`DECODE_BUDGET_US`] µs/image, and
//!    every file decodes and is counted once (checked);
//! 9. a 448² Gray paper-set [`DetectionEngine::score_resilient`] pass on a
//!    worker of a private 2-worker pool whose other worker is idle — which
//!    lends it the spatial branch — stays under [`TWO_CORE_LIMIT`] times
//!    the same pass inline on this thread, with bit-identical scores
//!    (checked). Its `single_image` engine rows give both timings.
//!
//! Gates 2, 3, 5 and 9 time their jobs interleaved and read the median of
//! per-pass ratios, so the host's speed cancels out of them; gates 2, 3
//! and 5 run on one thread, gate 9 on two. Gate 4 runs on every core and
//! keeps its best-of-5 ratio (see [`stream_gate`]).
//!
//! Usage: `stage_profile` (no arguments).

use decamouflage_bench::corpus::MixedAttackGenerator;
use decamouflage_core::ensemble::PAPER_METHODS;
use decamouflage_core::parallel::{default_threads, WorkerPool};
use decamouflage_core::stream::{BufferPool, DirectorySource, ImageSource, Pulled};
use decamouflage_core::{
    DetectionEngine, FnSource, MethodId, MethodSet, ScoreVector, SliceSource, StreamConfig,
};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::codec::{encode_bmp, encode_jpeg, encode_png, encode_ppm};
use decamouflage_imaging::{Image, Size};
use decamouflage_serve::json;
use decamouflage_telemetry::Telemetry;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::Instant;

// Gate limits, numbered as in the list above. A gate holds when its value
// is strictly below its limit.
//
// On a 2-core x86-64 VM (Sapphire Rapids) the 128² engine pass reads
// 0.34–0.40 of a probe run while its raw µs/image swing by ±20%; an engine
// about 30% slower reads 0.46–0.51. The ratio depends on the CPU type, so
// recalibrate the limit on other hardware.
const ENGINE_PROBE_LIMIT: f64 = 0.45;
const BATCH_LIMIT: f64 = 1.05;
const STREAM_LIMIT: f64 = 1.02;
const TELEMETRY_LIMIT: f64 = 1.02;
const SSIM_SHARE_LIMIT: f64 = 0.50;
const DFT_RATIO_LIMIT: f64 = 1.5;
const DECODE_BUDGET_US: f64 = 1500.0;
// Gate 9 was tuned on the same 2-core VM, when the spatial branch took
// about 8.8 ms at 448² Gray and the spectral one about 11.4 ms: with them
// on two cores a pass should take about max(8.8, 11.4) / 20.2 ≈ 0.57 of
// the inline one, and it read 0.57–0.58, handoffs included. Since the
// batched FFT columns and the ln-free CSP count the spectral branch is the
// shorter one (about 3.9 ms against 6 ms), so the gate reads 0.66–0.74. A
// host with no second core free reads near 1.
const TWO_CORE_LIMIT: f64 = 0.80;

/// Images in the 128² corpus, benign and attack alternating.
const CORPUS_IMAGES: usize = 64;

/// Scored passes per engine configuration.
const PASSES: usize = 5;

/// The corpus side, then the paper's Table 7 sizes; each Gray and RGB.
const SIDES: [usize; 4] = [128, 336, 448, 560];

/// The radix-2 reference side of the DFT gate, profiled Gray only.
const REFERENCE_SIDE: usize = 512;

/// The paper's Table 7 sizes, profiled Gray with the paper's method set.
const PAPER_SIDES: [usize; 3] = [336, 448, 560];

/// Leading corpus images written in every format, and passes over them.
const DECODE_IMAGES: usize = 48;
const DECODE_PASSES: usize = 3;
const FORMATS: [&str; 4] = ["bmp", "pnm", "png", "jpeg"];

/// Gates 2, 3 and 5 add [`GATE_PASSES`] interleaved passes per attempt,
/// for at most [`GATE_ATTEMPTS`] attempts, and read the median over every
/// pass so far: a noisy attempt is outvoted, not forgiven.
const GATE_PASSES: usize = 20;
const GATE_ATTEMPTS: usize = 5;

fn main() -> ExitCode {
    let corpus = generate(128, CORPUS_IMAGES);
    let decode = decode_rows(&corpus[..DECODE_IMAGES]);
    let mut engine = engine_rows(&corpus);
    assert_reference_identity(&corpus);
    let mut gates = engine_gates(&corpus);
    gates.push(stream_gate(&corpus));
    gates.push(telemetry_gate(&corpus));
    let gray = |side, kind, name| gray_us(&engine, side, kind, name);
    let ssim = gray(128, "stage", "ssim_reference")
        + gray(128, "method", MethodId::ScalingSsim.name())
        + gray(128, "method", MethodId::FilteringSsim.name());
    gates.push(Gate::once("ssim_share", ssim / gray(128, "engine", "engine"), SSIM_SHARE_LIMIT));
    let dft = gray(448, "stage", "dft") / gray(REFERENCE_SIDE, "stage", "dft");
    gates.push(Gate::once("dft_448_over_512", dft, DFT_RATIO_LIMIT));
    for (name, format) in [("png_decode_us", "png"), ("jpeg_decode_us", "jpeg")] {
        let row = decode.iter().find(|row| row.format == format).expect("every format decodes");
        gates.push(Gate::once(name, row.us_per_image, DECODE_BUDGET_US));
    }
    let (single_image, gate) = two_core_gate();
    engine.extend(single_image);
    gates.push(gate);

    println!("-- gates --");
    for gate in &gates {
        println!(
            "  {:<18} {:10.4} < {:<6} {} attempt(s), {} thread(s): {}",
            gate.name,
            gate.value,
            gate.limit,
            gate.attempts,
            gate.threads,
            if gate.ok() { "ok" } else { "FAIL" }
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stages.json");
    if let Err(err) = std::fs::write(&path, ledger(&decode, &engine, &gates)) {
        eprintln!("cannot write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if gates.iter().all(Gate::ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `count` Gray images of `side`²: benign and attack in turn, so image `k`
/// is sample `k / 2`. The 128² corpus scales to the 32² CNN input; the
/// paper sizes to 112², as in Table 7.
fn generate(side: usize, count: usize) -> Vec<Image> {
    let mut profile = DatasetProfile::tiny();
    profile.name = "stage-profile";
    profile.source_sizes = vec![Size::square(side)];
    profile.target_size = target_for(side);
    let generator = MixedAttackGenerator::new(profile);
    (0..count as u64)
        .map(|k| if k % 2 == 0 { generator.benign(k / 2) } else { generator.attack(k / 2) })
        .collect()
}

fn target_for(side: usize) -> Size {
    Size::square(if side == 128 { 32 } else { 112 })
}

fn seconds(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64()
}

fn score_all(engine: &DetectionEngine, images: &[Image]) {
    for image in images {
        engine.score(image).expect("generated images score cleanly");
    }
}

/// One gate's outcome, as printed and recorded in the ledger.
struct Gate {
    name: &'static str,
    value: f64,
    limit: f64,
    attempts: usize,
    threads: usize,
}

impl Gate {
    /// A gate read once, from single-threaded timings.
    fn once(name: &'static str, value: f64, limit: f64) -> Self {
        Self { name, value, limit, attempts: 1, threads: 1 }
    }

    fn ok(&self) -> bool {
        self.value < self.limit
    }
}

struct DecodeRow {
    format: &'static str,
    us_per_image: f64,
    corpus_bytes: usize,
}

fn encode(format: &str, image: &Image) -> Vec<u8> {
    match format {
        "bmp" => encode_bmp(image),
        "pnm" => encode_ppm(image),
        "png" => encode_png(image),
        "jpeg" => encode_jpeg(image, 90),
        other => unreachable!("unknown format {other}"),
    }
}

/// Writes `images` as RGB files in every format, then pulls each directory
/// [`DECODE_PASSES`] times and decodes every file. Panics unless every
/// file decodes and `decam_codec_decode_total` counts each decode once.
fn decode_rows(images: &[Image]) -> Vec<DecodeRow> {
    let root = std::env::temp_dir().join(format!("decamouflage-stages-{}", std::process::id()));
    let rows = FORMATS
        .into_iter()
        .map(|format| {
            let dir = root.join(format);
            std::fs::create_dir_all(&dir).expect("create the decode corpus directory");
            let mut corpus_bytes = 0;
            for (i, image) in images.iter().enumerate() {
                let bytes = encode(format, &image.to_rgb());
                corpus_bytes += bytes.len();
                std::fs::write(dir.join(format!("{i:04}.{format}")), bytes)
                    .expect("write a decode corpus file");
            }
            let telemetry = Telemetry::enabled();
            let mut pool = BufferPool::with_telemetry(4, &telemetry);
            let mut decoded = 0;
            for _ in 0..DECODE_PASSES {
                let mut source =
                    DirectorySource::with_telemetry(&dir, &telemetry).expect("open the corpus");
                while let Some(item) = source.next_image(&mut |n| pool.take(n)) {
                    let image = item
                        .and_then(|pulled: Pulled| pulled.into_image(&mut |n| pool.take(n)))
                        .unwrap_or_else(|err| panic!("{format}: decode failed mid-corpus: {err}"));
                    decoded += 1;
                    pool.recycle(image);
                }
            }
            assert_eq!(decoded, images.len() * DECODE_PASSES, "{format}: files went missing");
            let ok = telemetry
                .counter("decam_codec_decode_total", &[("format", format), ("outcome", "ok")])
                .value();
            assert_eq!(ok, decoded as u64, "{format}: the decode counter disagrees");
            let seconds = telemetry
                .histogram("decam_engine_stage_seconds", &[("stage", "decode")])
                .snapshot()
                .expect("telemetry enabled")
                .sum();
            let us_per_image = seconds / decoded as f64 * 1e6;
            println!("decode {format:<5} {us_per_image:10.1} µs/image, {corpus_bytes} B corpus");
            DecodeRow { format, us_per_image, corpus_bytes }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    rows
}

/// One engine timing series in a telemetry registry: `kind` is `engine`
/// (the pass), `stage` or `method` (a per-method increment), and `name` its
/// label value.
struct Series {
    kind: &'static str,
    name: String,
    samples: u64,
    seconds: f64,
}

impl Series {
    /// Every series records one sample per scored image.
    fn us_per_image(&self) -> f64 {
        self.seconds / self.samples as f64 * 1e6
    }
}

/// Every engine timing series `telemetry` holds, in registry order.
fn engine_series(telemetry: &Telemetry) -> Vec<Series> {
    let snapshot = telemetry.snapshot().expect("profiled engines record into enabled telemetry");
    snapshot
        .histograms
        .into_iter()
        .filter_map(|(family, labels, histogram)| {
            let kind = match family.as_str() {
                "decam_engine_score_seconds" => "engine",
                "decam_engine_stage_seconds" => "stage",
                "decam_method_score_seconds" => "method",
                _ => return None,
            };
            let name = labels.into_iter().next().map_or_else(|| kind.to_string(), |(_, v)| v);
            Some(Series { kind, name, samples: histogram.count(), seconds: histogram.sum() })
        })
        .collect()
}

/// Scores `images` `passes` times through
/// [`DetectionEngine::score_resilient`] after one silent warm-up, and
/// returns every series of the engine's telemetry that recorded samples.
fn profile(engine: &DetectionEngine, images: &[Image], passes: usize) -> Vec<Series> {
    // FFT plans and scaler caches are built on first use.
    engine.clone().with_telemetry(Telemetry::disabled()).score_resilient(&images[0]).ok();
    for _ in 0..passes {
        for image in images {
            engine.score_resilient(image).expect("generated images score cleanly");
        }
    }
    let mut series = engine_series(engine.telemetry());
    series.retain(|s| s.samples > 0);
    series
}

/// One engine ledger row: a series of one configuration.
struct Row {
    side: usize,
    layout: &'static str,
    /// `all` for an engine running every method, `paper` for
    /// [`PAPER_METHODS`].
    methods: &'static str,
    series: Series,
}

impl Row {
    fn new(side: usize, layout: &'static str, methods: &'static str, series: Series) -> Self {
        let (kind, name, us) = (series.kind, &series.name, series.us_per_image());
        println!("{side:>3}² {layout:<4} {methods:<5} {kind:<6} {name:<24} {us:10.1} µs/image");
        Self { side, layout, methods, series }
    }
}

/// Profiles Gray and RGB at every [`SIDES`] size — the 128² corpus, one
/// benign image at each paper size — and Gray at [`REFERENCE_SIDE`], every
/// method enabled; then the paper set's pass, `dft` stage and CSP
/// increment, Gray, at each of [`PAPER_SIDES`].
fn engine_rows(corpus: &[Image]) -> Vec<Row> {
    let configs = SIDES
        .into_iter()
        .flat_map(|side| [(side, "gray"), (side, "rgb")])
        .chain([(REFERENCE_SIDE, "gray")]);
    let mut rows = Vec::new();
    for (side, layout) in configs {
        let gray = if side == 128 { corpus.to_vec() } else { generate(side, 1) };
        let images: Vec<Image> =
            if layout == "rgb" { gray.iter().map(Image::to_rgb).collect() } else { gray };
        let engine = DetectionEngine::new(target_for(side)).with_telemetry(Telemetry::enabled());
        for series in profile(&engine, &images, PASSES) {
            rows.push(Row::new(side, layout, "all", series));
        }
    }
    for side in PAPER_SIDES {
        let engine = DetectionEngine::new(target_for(side))
            .with_methods(MethodSet::of(PAPER_METHODS))
            .with_telemetry(Telemetry::enabled());
        for series in profile(&engine, &generate(side, 1), PASSES) {
            let kept = match series.kind {
                "engine" => true,
                "stage" => series.name == "dft",
                _ => series.name == MethodId::Csp.name(),
            };
            if kept {
                rows.push(Row::new(side, "gray", "paper", series));
            }
        }
    }
    rows
}

/// A Gray all-methods row's µs/image.
fn gray_us(rows: &[Row], side: usize, kind: &str, name: &str) -> f64 {
    rows.iter()
        .find(|row| {
            (row.side, row.layout, row.methods, row.series.kind) == (side, "gray", "all", kind)
                && row.series.name == name
        })
        .unwrap_or_else(|| panic!("no {side}² gray {kind} {name} row"))
        .series
        .us_per_image()
}

/// Gate 1: panics if an engine score differs from its method's reference.
fn assert_reference_identity(corpus: &[Image]) {
    let engine = DetectionEngine::new(target_for(128));
    for (i, image) in corpus.iter().enumerate() {
        let mut reference = ScoreVector::splat(f64::NAN);
        for &id in MethodId::ALL {
            reference.set(id, engine.reference_score(id, image).expect("reference scores"));
        }
        assert_eq!(
            engine.score(image).expect("engine scores"),
            reference,
            "image {i}: the engine diverged from the per-method references"
        );
    }
}

fn assert_bit_identical(a: &ScoreVector, b: &ScoreVector, what: &str) {
    for &id in MethodId::ALL {
        assert_eq!(a.get(id).to_bits(), b.get(id).to_bits(), "{what} perturbed {id}");
    }
}

/// The engine budget's yardstick: a fixed computation that shares no code
/// with the engine, so a change to the engine cannot move it but the host's
/// speed does. A run makes [`Probe::SWEEPS`] 3×3 box-filter sweeps over a
/// 256² grid and writes each result back transposed, streaming and striding
/// through memory as scoring does.
struct Probe {
    grid: Vec<f64>,
    blurred: Vec<f64>,
}

impl Probe {
    const SIDE: usize = 256;
    const SWEEPS: usize = 8;

    fn new() -> Self {
        let cells = Self::SIDE * Self::SIDE;
        Self { grid: (0..cells).map(|i| (i % 241) as f64).collect(), blurred: vec![0.0; cells] }
    }

    /// Out of line, so the code timed cannot change with its callers.
    #[inline(never)]
    fn run(&mut self) {
        let n = Self::SIDE;
        let (grid, blurred) = (&mut self.grid, &mut self.blurred);
        for _ in 0..Self::SWEEPS {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let rows = [(y - 1) * n + x, y * n + x, (y + 1) * n + x];
                    let sum: f64 = rows.iter().map(|&i| grid[i - 1] + grid[i] + grid[i + 1]).sum();
                    blurred[y * n + x] = sum / 9.0;
                }
            }
            for y in 0..n {
                for x in 0..n {
                    grid[x * n + y] = blurred[y * n + x] + 1.0;
                }
            }
        }
        black_box(grid);
    }
}

/// A gate over per-pass timings: its name, the ratio it reads from one
/// pass's timings (indexed like the jobs), and its limit.
type Ratio<'a> = (&'static str, &'a dyn Fn(&[f64]) -> f64, f64);

/// Times single-threaded `jobs` in passes, one run of each per pass and
/// each pass starting at the next job, and reads each gate as the median of
/// its per-pass ratios. Timings from one pass share the host's speed, which
/// drifts over seconds, so their ratio cancels it. Stops at the first
/// attempt on which every gate holds.
fn interleaved(jobs: &mut [&mut dyn FnMut()], ratios: &[Ratio]) -> Vec<Gate> {
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut gates = Vec::new();
    for attempts in 1..=GATE_ATTEMPTS {
        for _ in 0..GATE_PASSES {
            let mut times = vec![0.0; jobs.len()];
            for k in 0..jobs.len() {
                let job = (passes.len() + k) % jobs.len();
                times[job] = seconds(&mut jobs[job]);
            }
            passes.push(times);
        }
        gates = ratios
            .iter()
            .map(|&(name, ratio, limit)| {
                let mut values: Vec<f64> = passes.iter().map(|times| ratio(times)).collect();
                values.sort_by(f64::total_cmp);
                Gate { name, value: values[values.len() / 2], limit, attempts, threads: 1 }
            })
            .collect();
        if gates.iter().all(Gate::ok) {
            break;
        }
    }
    gates
}

/// Gates 2 and 3, on one thread over the corpus.
fn engine_gates(corpus: &[Image]) -> Vec<Gate> {
    let engine = DetectionEngine::new(target_for(128));
    let mut probe = Probe::new();
    let images = corpus.len() as f64;
    interleaved(
        &mut [
            &mut || score_all(&engine, corpus),
            &mut || {
                for result in engine.score_images(corpus, 1) {
                    result.expect("generated images score cleanly");
                }
            },
            &mut || probe.run(),
        ],
        &[
            ("engine_vs_probe", &|t| t[0] / images / t[2], ENGINE_PROBE_LIMIT),
            ("batch_overhead", &|t| t[1] / t[0], BATCH_LIMIT),
        ],
    )
}

/// Gate 4: streaming in chunks of half the corpus, so the stream pays a
/// real chunk boundary, against the eager batch — the whole corpus
/// generated into one chunk — on every core.
fn stream_gate(corpus: &[Image]) -> Gate {
    let threads = default_threads();
    let engine = DetectionEngine::new(target_for(128));
    let total = corpus.len();
    let config = StreamConfig::default().with_chunk_size(total / 2).with_threads(threads);
    let eager_config =
        StreamConfig::default().with_chunk_size(total).with_threads(threads).with_pool_capacity(0);
    let eager = || {
        let mut results = Vec::with_capacity(total);
        let mut source = FnSource::new(total, |i| corpus[i as usize].clone());
        engine.score_stream(&mut source, &eager_config, |_, r| {
            results.push(r);
            ControlFlow::Continue(())
        });
        results
    };
    let stream = || {
        let mut results = Vec::with_capacity(total);
        engine.score_stream(&mut SliceSource::new(corpus), &config, |_, r| {
            results.push(r);
            ControlFlow::Continue(())
        });
        results
    };

    let outcome = eager();
    let streamed = stream();
    assert_eq!(streamed.len(), total, "the stream lost slots");
    for (s, e) in streamed.iter().zip(&outcome) {
        let (s, e) = (s.as_ref().expect("streamed slot scores"), e.as_ref().expect("eager slot"));
        assert_bit_identical(s, e, "streaming");
    }
    // On two threads a pass's time carries the host's load on the second
    // core. On a 2-core VM the best of 5 passes of one path moves by up to
    // 40% between attempts. The stream pulls nothing of its second chunk
    // until the first is consumed, so one participant idles while the
    // first chunk's last slot finishes: about 1% here, and the median of
    // interleaved per-pass ratios read 1.005 and 1.024 in two runs — too
    // close to the limit for a median. So this gate keeps the statistic it
    // has always had: the ratio of each path's best of 5 passes, lowest
    // over the attempts.
    let best_of_5 = |job: &dyn Fn()| (0..5).map(|_| seconds(job)).fold(f64::INFINITY, f64::min);
    let mut gate = Gate {
        name: "stream_overhead",
        value: f64::INFINITY,
        limit: STREAM_LIMIT,
        attempts: 0,
        threads,
    };
    while gate.attempts < GATE_ATTEMPTS && !gate.ok() {
        gate.attempts += 1;
        let eager_s = best_of_5(&|| drop(eager()));
        gate.value = gate.value.min(best_of_5(&|| drop(stream())) / eager_s);
    }
    gate
}

/// Gate 5: the fully instrumented engine against the silent one.
fn telemetry_gate(corpus: &[Image]) -> Gate {
    let silent = DetectionEngine::new(target_for(128));
    let telemetry = Telemetry::enabled();
    let observed = silent.clone().with_telemetry(telemetry.clone());
    for image in corpus {
        let (a, b) = (silent.score(image), observed.score(image));
        assert_bit_identical(&a.expect("silent scores"), &b.expect("observed scores"), "telemetry");
    }
    let gate = interleaved(
        &mut [&mut || score_all(&silent, corpus), &mut || score_all(&observed, corpus)],
        &[("telemetry_overhead", &|t| t[1] / t[0], TELEMETRY_LIMIT)],
    )
    .remove(0);
    let exposition = telemetry.prometheus_text().expect("telemetry enabled");
    decamouflage_telemetry::parse_prometheus_text(&exposition)
        .expect("the exposition must pass the strict parser");
    gate
}

/// Gate 9: one 448² Gray paper-set image through
/// [`DetectionEngine::score_resilient`], inline on this thread and as a job
/// on a worker of a private 2-worker pool. The job starts once both
/// workers wait for work, so its worker has an idle peer to lend the
/// spatial branch to; the timing is this thread's, handoffs included.
/// Panics if a lent pass scores differently or none forked. Returns the
/// `single_image` rows (`inline`, `two_core`) with the gate.
fn two_core_gate() -> (Vec<Row>, Gate) {
    const SIDE: usize = 448;
    let telemetry = Telemetry::enabled();
    let engine = Arc::new(
        DetectionEngine::new(target_for(SIDE))
            .with_methods(MethodSet::of(PAPER_METHODS))
            .with_telemetry(telemetry.clone()),
    );
    let image = Arc::new(generate(SIDE, 1).remove(0));
    let expected = engine.score(&image).expect("the paper-size image scores");
    let pool = WorkerPool::new(2);
    let lent = || {
        while pool.idle_workers() < pool.workers() {
            std::thread::yield_now();
        }
        let (engine, image) = (Arc::clone(&engine), Arc::clone(&image));
        let (done, finished) = mpsc::channel();
        pool.spawn(move || {
            let _ = done.send(engine.score_resilient(&image));
        });
        let scores = finished.recv().expect("the pool ran the pass").expect("the pass scores");
        assert_bit_identical(&scores, &expected, "a lent pass");
    };
    let (mut inline_s, mut two_core_s) = (Vec::new(), Vec::new());
    let mut gate = interleaved(
        &mut [
            &mut || {
                inline_s.push(seconds(|| drop(engine.score_resilient(&image))));
            },
            &mut || two_core_s.push(seconds(lent)),
        ],
        &[("single_image_two_core", &|t| t[1] / t[0], TWO_CORE_LIMIT)],
    )
    .remove(0);
    gate.threads = 2;
    let forked =
        telemetry.counter("decam_engine_single_pass_total", &[("outcome", "forked")]).value();
    assert!(forked > 0, "no two-core pass forked");
    println!("448² gray single_image: {forked} of {} two-core passes forked", two_core_s.len());
    let rows = [("inline", inline_s), ("two_core", two_core_s)]
        .into_iter()
        .map(|(name, times)| {
            let series = Series {
                kind: "single_image",
                name: name.to_string(),
                samples: times.len() as u64,
                seconds: times.iter().sum(),
            };
            Row::new(SIDE, "gray", "paper", series)
        })
        .collect();
    (rows, gate)
}

/// One JSON object on one line, from `(key, rendered value)` pairs.
fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> =
        fields.iter().map(|(key, value)| format!("\"{key}\": {value}")).collect();
    format!("    {{{}}}", fields.join(", "))
}

/// Renders `BENCH_stages.json`.
fn ledger(decode: &[DecodeRow], engine: &[Row], gates: &[Gate]) -> String {
    let text = |value: &str| format!("\"{}\"", json::escape(value));
    let number = |value: f64| json::number((value * 1e4).round() / 1e4);
    let decode: Vec<String> = decode
        .iter()
        .map(|row| {
            object(&[
                ("format", text(row.format)),
                ("images", DECODE_IMAGES.to_string()),
                ("passes", DECODE_PASSES.to_string()),
                ("us_per_image", number(row.us_per_image)),
                ("corpus_bytes", row.corpus_bytes.to_string()),
            ])
        })
        .collect();
    let engine: Vec<String> = engine
        .iter()
        .map(|row| {
            object(&[
                ("side", row.side.to_string()),
                ("layout", text(row.layout)),
                ("methods", text(row.methods)),
                ("kind", text(row.series.kind)),
                ("name", text(&row.series.name)),
                ("samples", row.series.samples.to_string()),
                ("us_per_image", number(row.series.us_per_image())),
            ])
        })
        .collect();
    let gates: Vec<String> = gates
        .iter()
        .map(|gate| {
            object(&[
                ("gate", text(gate.name)),
                ("value", number(gate.value)),
                ("limit", number(gate.limit)),
                ("attempts", gate.attempts.to_string()),
                ("threads", gate.threads.to_string()),
                ("ok", gate.ok().to_string()),
            ])
        })
        .collect();
    let [decode, engine, gates] = [decode, engine, gates].map(|rows| rows.join(",\n"));
    format!(
        "{{\n  \"decode\": [\n{decode}\n  ],\n  \"engine\": [\n{engine}\n  ],\n  \
         \"gates\": [\n{gates}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ledger row has samples behind it: profiling N images for P
    /// passes records exactly N × P samples on the engine pass, on every
    /// stage the engine registers (validation included; luma for RGB
    /// only, as Gray inputs skip that pass) and on every enabled method,
    /// and the ledger names each of them with its count.
    #[test]
    fn every_engine_series_records_one_sample_per_image_and_pass() {
        const IMAGES: usize = 3;
        const PASSES: usize = 2;
        let generator = MixedAttackGenerator::new(DatasetProfile::tiny());
        let gray: Vec<Image> = (0..IMAGES as u64).map(|i| generator.benign(i)).collect();
        let rgb: Vec<Image> = gray.iter().map(Image::to_rgb).collect();
        for (layout, images) in [("gray", gray), ("rgb", rgb)] {
            let telemetry = Telemetry::enabled();
            let engine = DetectionEngine::new(Size::square(16)).with_telemetry(telemetry.clone());
            let rows = profile(&engine, &images, PASSES);
            let series = engine_series(&telemetry);
            let named = |kind: &str| -> Vec<&str> {
                series.iter().filter(|s| s.kind == kind).map(|s| s.name.as_str()).collect()
            };
            assert_eq!(named("engine"), ["engine"]);
            assert!(named("stage").contains(&"validate"), "stages: {:?}", named("stage"));
            let mut methods: Vec<&str> = MethodId::ALL.iter().map(|id| id.name()).collect();
            methods.sort_unstable();
            assert_eq!(named("method"), methods, "every method is enabled");
            let expected = |s: &Series| match (s.name.as_str(), layout) {
                ("luma", "gray") => 0,
                _ => (IMAGES * PASSES) as u64,
            };
            assert!(named("stage").contains(&"luma"), "stages: {:?}", named("stage"));
            for s in &series {
                assert_eq!(s.samples, expected(s), "{layout} {} {} samples", s.kind, s.name);
            }
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|series| Row { side: 64, layout, methods: "all", series })
                .collect();
            let text = ledger(&[], &rows, &[]);
            for s in series.iter().filter(|s| expected(s) > 0) {
                let entry = format!(
                    "\"kind\": \"{}\", \"name\": \"{}\", \"samples\": {},",
                    s.kind,
                    s.name,
                    expected(s)
                );
                assert!(text.contains(&entry), "the ledger lacks {entry}");
            }
        }
    }
}
