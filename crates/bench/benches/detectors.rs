//! Criterion benchmarks for the paper's run-time overhead table (Table 7):
//! per-image latency of each detection method and metric, the full
//! majority-vote ensemble, and the shared-intermediate [`DetectionEngine`].
//!
//! Unlike the other benches this one has a hand-written `main`: after the
//! Criterion groups it runs a throughput comparison — cold per-detector
//! scoring ([`DetectionEngine::reference_score`]) versus one engine pass
//! versus the batch `score_images` API over a 64-image synthetic corpus —
//! verifies the engine scores are bit-identical to the naive references,
//! and writes the numbers to `BENCH_detectors.json` at the repository root.

use criterion::{criterion_group, BenchmarkId, Criterion};
use decamouflage_bench::corpus::{DetectorSet, MixedAttackGenerator};
use decamouflage_core::ensemble::{DegradePolicy, Ensemble};
use decamouflage_core::parallel::default_threads;
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{
    DetectionEngine, Direction, EngineScores, MethodId, SliceSource, SteganalysisDetector,
    StreamConfig, Threshold,
};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;
use std::time::Instant;

/// `scaling/mse` → `scaling_mse`: registry names as JSON/Criterion labels.
fn bench_label(id: MethodId) -> String {
    id.name().replace(['/', '-'], "_")
}

fn bench_detection_methods(c: &mut Criterion) {
    let profile = DatasetProfile::neurips_like();
    let generator = MixedAttackGenerator::new(profile.clone());
    let detectors = DetectorSet::new(&profile);
    // One representative image per source size in the profile.
    let images: Vec<_> = (0..3u64).map(|i| generator.benign(i)).collect();

    let mut group = c.benchmark_group("table7");
    group.sample_size(10);
    for image in &images {
        let label = format!("{}x{}", image.width(), image.height());
        for &id in MethodId::ALL {
            group.bench_with_input(BenchmarkId::new(bench_label(id), &label), image, |b, img| {
                b.iter(|| detectors.engine().reference_score(id, img).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("engine_all_methods", &label), image, |b, img| {
            b.iter(|| detectors.engine().score(img).unwrap())
        });
    }
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let profile = DatasetProfile::neurips_like();
    let generator = MixedAttackGenerator::new(profile.clone());
    let image = generator.benign(0);

    let thresholds: ThresholdSet = [
        (MethodId::ScalingMse, Threshold::new(100.0, Direction::AboveIsAttack)),
        (MethodId::FilteringSsim, Threshold::new(0.6, Direction::BelowIsAttack)),
        (MethodId::Csp, SteganalysisDetector::universal_threshold()),
    ]
    .into_iter()
    .collect();
    let ensemble = Ensemble::paper(profile.target_size, &thresholds, DegradePolicy::Strict)
        .expect("every paper member has a threshold");

    let mut group = c.benchmark_group("ensemble");
    group.sample_size(10);
    group.bench_function("majority_vote_full_system", |b| {
        b.iter(|| ensemble.decide(&image).unwrap().is_attack)
    });
    group.finish();
}

criterion_group!(benches, bench_detection_methods, bench_ensemble);

/// Images per class in the throughput corpus (64 images total).
const CORPUS_PER_CLASS: usize = 32;

/// The profile behind the throughput corpus: 128×128 sources scaled to the
/// 32×32 CNN input, i.e. a mid-size workload between `tiny` and the paper
/// profiles.
fn throughput_profile() -> DatasetProfile {
    let mut profile = DatasetProfile::tiny();
    profile.name = "bench-throughput";
    profile.source_sizes = vec![Size::square(128)];
    profile.target_size = Size::square(32);
    profile
}

/// Wall time of one full pass of `score` over `images`, best of `repeats`.
fn time_pass(images: &[Image], repeats: usize, mut score: impl FnMut(&[Image])) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        score(images);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Scores one image the pre-engine way: each method's naive reference
/// from scratch.
fn cold_scores(engine: &DetectionEngine, image: &Image) -> EngineScores {
    let mut scores = EngineScores::splat(f64::NAN);
    for &id in MethodId::ALL {
        scores.set(id, engine.reference_score(id, image).unwrap());
    }
    scores
}

struct Throughput {
    corpus_images: usize,
    per_detector_s: Vec<(String, f64)>,
    cold_s: f64,
    engine_s: f64,
    batch_s: f64,
    threads: usize,
}

/// Times cold per-detector scoring against the engine over a 64-image
/// corpus, asserting bit-identical scores along the way.
fn run_throughput() -> Throughput {
    let profile = throughput_profile();
    let generator = MixedAttackGenerator::new(profile.clone());
    let detectors = DetectorSet::new(&profile);
    let engine = detectors.engine();

    let images: Vec<Image> = (0..CORPUS_PER_CLASS as u64)
        .flat_map(|i| [generator.benign(i), generator.attack(i)])
        .collect();

    // Correctness gate: the engine's shared-intermediate path must match
    // the naive references exactly on every corpus image — including the
    // peak-excess score, which the engine derives from the spectrum it
    // already planned for CSP.
    for image in &images {
        assert_eq!(
            engine.score(image).unwrap(),
            cold_scores(engine, image),
            "engine diverged from the naive references"
        );
    }

    let repeats = 5;
    // Per-detector cold latency, one detector at a time, straight off the
    // method registry.
    let per_detector_s: Vec<(String, f64)> = MethodId::ALL
        .iter()
        .map(|&id| {
            let secs = time_pass(&images, repeats, |imgs| {
                for img in imgs {
                    let _ = engine.reference_score(id, img).unwrap();
                }
            });
            (bench_label(id), secs)
        })
        .collect();

    // Every registry score per image: cold (naive references) vs one
    // engine pass.
    let cold_s = time_pass(&images, repeats, |imgs| {
        for img in imgs {
            let _ = cold_scores(engine, img);
        }
    });
    let engine_s = time_pass(&images, repeats, |imgs| {
        for img in imgs {
            let _ = engine.score(img).unwrap();
        }
    });

    // Batch fan-out bookkeeping over the same resident corpus: the
    // zero-copy slice API scores `images` in place, so the series differs
    // from the engine loop only by the per-slot quarantine (validation +
    // unwind guard) and the fan-out plumbing — exactly what the
    // `BATCH_OVERHEAD_LIMIT` gate is meant to bound. (Timing the
    // closure-based `score_corpus` here instead would charge the API for
    // one 128 KiB image clone per slot — memcpy, not bookkeeping — which
    // at sub-1.5 ms scoring costs several percent on its own.)
    let threads = default_threads();
    let batch_s = time_pass(&images, repeats, |imgs| {
        for result in engine.score_images(imgs, threads) {
            let _ = result.unwrap();
        }
    });

    Throughput { corpus_images: images.len(), per_detector_s, cold_s, engine_s, batch_s, threads }
}

/// Ceiling on the streaming engine's overhead versus the eager batch
/// path: chunked `score_stream` must stay within 2% of
/// `score_corpus_resilient` on the same corpus.
const STREAMING_OVERHEAD_LIMIT: f64 = 1.02;

/// Chunk size for the streaming comparison — half the corpus, so the
/// stream pays at least one real chunk boundary.
const STREAMING_CHUNK_SIZE: usize = 32;

/// Result of the streaming-vs-eager guardrail.
struct StreamingOverhead {
    /// Streaming-over-eager wall-time ratio (best of several attempts).
    ratio: f64,
    /// Streaming wall time of one corpus pass, seconds (best observed).
    stream_s: f64,
}

/// The streaming tentpole's two hard guarantees, asserted on every bench
/// run: chunked scoring is bit-identical to the eager batch (in stream
/// order), and costs less than [`STREAMING_OVERHEAD_LIMIT`] over it.
fn run_streaming_overhead() -> StreamingOverhead {
    let profile = throughput_profile();
    let generator = MixedAttackGenerator::new(profile.clone());
    let detectors = DetectorSet::new(&profile);
    let engine = detectors.engine();
    let threads = default_threads();

    let benign: Vec<Image> = (0..CORPUS_PER_CLASS as u64).map(|i| generator.benign(i)).collect();
    let attack: Vec<Image> = (0..CORPUS_PER_CLASS as u64).map(|i| generator.attack(i)).collect();
    let all: Vec<Image> = benign.iter().chain(attack.iter()).cloned().collect();
    let config =
        StreamConfig::default().with_chunk_size(STREAMING_CHUNK_SIZE).with_threads(threads);

    // Bit-identity gate: the chunked stream must reproduce the eager
    // batch exactly, slot by slot in stream order.
    let outcome = engine.score_corpus_resilient(
        |i| benign[i as usize].clone(),
        |i| attack[i as usize].clone(),
        CORPUS_PER_CLASS,
        threads,
    );
    let eager: Vec<_> = outcome.benign.iter().chain(outcome.attack.iter()).collect();
    let mut streamed = Vec::with_capacity(all.len());
    engine.score_stream(&mut SliceSource::new(&all), &config, |_, result| streamed.push(result));
    assert_eq!(streamed.len(), eager.len());
    for (i, (s, e)) in streamed.iter().zip(eager.iter()).enumerate() {
        let (s, e) = match (s, e) {
            (Ok(s), Ok(e)) => (s, e),
            other => panic!("slot {i} outcome diverged: {other:?}"),
        };
        for &id in MethodId::ALL {
            assert_eq!(
                s.get(id).to_bits(),
                e.get(id).to_bits(),
                "streaming perturbed {id} at slot {i}"
            );
        }
    }

    let repeats = 5;
    let mut best_ratio = f64::INFINITY;
    let mut best_stream_s = f64::INFINITY;
    for _ in 0..TELEMETRY_OVERHEAD_ATTEMPTS {
        let eager_s = time_pass(&all, repeats, |_| {
            let _ = engine.score_corpus_resilient(
                |i| benign[i as usize].clone(),
                |i| attack[i as usize].clone(),
                CORPUS_PER_CLASS,
                threads,
            );
        });
        let stream_s = time_pass(&all, repeats, |imgs| {
            engine.score_stream(&mut SliceSource::new(imgs), &config, |_, result| {
                let _ = result;
            });
        });
        best_stream_s = best_stream_s.min(stream_s);
        best_ratio = best_ratio.min(stream_s / eager_s);
        if best_ratio < STREAMING_OVERHEAD_LIMIT {
            break;
        }
    }
    assert!(
        best_ratio < STREAMING_OVERHEAD_LIMIT,
        "streaming overhead {best_ratio:.4}x exceeds the {STREAMING_OVERHEAD_LIMIT}x budget"
    );
    StreamingOverhead { ratio: best_ratio, stream_s: best_stream_s }
}

/// Result of the telemetry overhead guardrail.
struct TelemetryOverhead {
    /// Enabled-over-disabled wall-time ratio (best of several attempts).
    ratio: f64,
    /// Prometheus exposition captured from the instrumented run.
    prometheus_text: String,
}

/// Ceiling on the fully-enabled telemetry overhead: the instrumented
/// engine must stay within 2% of the silent one.
const TELEMETRY_OVERHEAD_LIMIT: f64 = 1.02;

/// Timing attempts before the overhead assertion gives up: wall-clock
/// ratios on a shared machine are noisy, so the guardrail requires the
/// budget to hold on *some* attempt, not on every one.
const TELEMETRY_OVERHEAD_ATTEMPTS: usize = 5;

/// The tentpole's two hard guarantees, asserted on every bench run:
/// fully-enabled telemetry leaves each score bit-identical, and costs
/// less than [`TELEMETRY_OVERHEAD_LIMIT`] over the silent engine.
fn run_telemetry_overhead() -> TelemetryOverhead {
    let profile = throughput_profile();
    let generator = MixedAttackGenerator::new(profile.clone());
    let detectors = DetectorSet::new(&profile);
    let silent = detectors.engine();
    let telemetry = Telemetry::enabled();
    let observed = detectors.engine().clone().with_telemetry(telemetry.clone());

    let images: Vec<Image> = (0..CORPUS_PER_CLASS as u64)
        .flat_map(|i| [generator.benign(i), generator.attack(i)])
        .collect();

    // Bit-identity gate: recording must never perturb a score.
    for image in &images {
        let baseline = silent.score(image).unwrap();
        let recorded = observed.score(image).unwrap();
        for &id in MethodId::ALL {
            assert_eq!(
                baseline.get(id).to_bits(),
                recorded.get(id).to_bits(),
                "telemetry perturbed {id}"
            );
        }
    }

    let repeats = 5;
    let mut best_ratio = f64::INFINITY;
    for _ in 0..TELEMETRY_OVERHEAD_ATTEMPTS {
        let silent_s = time_pass(&images, repeats, |imgs| {
            for img in imgs {
                let _ = silent.score(img).unwrap();
            }
        });
        let observed_s = time_pass(&images, repeats, |imgs| {
            for img in imgs {
                let _ = observed.score(img).unwrap();
            }
        });
        best_ratio = best_ratio.min(observed_s / silent_s);
        if best_ratio < TELEMETRY_OVERHEAD_LIMIT {
            break;
        }
    }
    assert!(
        best_ratio < TELEMETRY_OVERHEAD_LIMIT,
        "telemetry overhead {best_ratio:.4}x exceeds the {TELEMETRY_OVERHEAD_LIMIT}x budget"
    );

    let prometheus_text = telemetry.prometheus_text().expect("telemetry enabled");
    decamouflage_telemetry::parse_prometheus_text(&prometheus_text)
        .expect("bench exposition must round-trip through the strict parser");
    TelemetryOverhead { ratio: best_ratio, prometheus_text }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_report(
    c: &Criterion,
    t: &Throughput,
    overhead: &TelemetryOverhead,
    stream: &StreamingOverhead,
) {
    let n = t.corpus_images as f64;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"detectors\",\n");
    out.push_str(&format!(
        "  \"corpus\": {{\"images\": {}, \"source_size\": \"128x128\", \"target_size\": \"32x32\"}},\n",
        t.corpus_images
    ));
    out.push_str(&format!("  \"threads\": {},\n", t.threads));

    out.push_str("  \"per_detector\": {\n");
    for (i, (name, secs)) in t.per_detector_s.iter().enumerate() {
        let comma = if i + 1 < t.per_detector_s.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{name}\": {{\"us_per_image\": {:.2}, \"images_per_sec\": {:.2}}}{comma}\n",
            secs / n * 1e6,
            n / secs
        ));
    }
    out.push_str("  },\n");

    out.push_str(&format!(
        "  \"all_methods_cold\": {{\"us_per_image\": {:.2}, \"images_per_sec\": {:.2}}},\n",
        t.cold_s / n * 1e6,
        n / t.cold_s
    ));
    out.push_str(&format!(
        "  \"engine\": {{\"us_per_image\": {:.2}, \"images_per_sec\": {:.2}, \
         \"latency_gate_us\": {ENGINE_LATENCY_GATE_US}}},\n",
        t.engine_s / n * 1e6,
        n / t.engine_s
    ));
    out.push_str(&format!(
        "  \"engine_batch\": {{\"us_per_image\": {:.2}, \"images_per_sec\": {:.2}, \
         \"overhead_vs_engine_ratio\": {:.4}, \"budget_ratio\": {BATCH_OVERHEAD_LIMIT}}},\n",
        t.batch_s / n * 1e6,
        n / t.batch_s,
        t.batch_s / t.engine_s
    ));
    out.push_str(&format!(
        "  \"engine_stream\": {{\"chunk_size\": {STREAMING_CHUNK_SIZE}, \
         \"us_per_image\": {:.2}, \"images_per_sec\": {:.2}, \
         \"overhead_vs_eager_ratio\": {:.4}, \"budget_ratio\": {STREAMING_OVERHEAD_LIMIT}, \
         \"scores_bit_identical\": true}},\n",
        stream.stream_s / n * 1e6,
        n / stream.stream_s,
        stream.ratio
    ));
    out.push_str(&format!("  \"speedup_engine_vs_cold\": {:.2},\n", t.cold_s / t.engine_s));
    out.push_str("  \"scores_bit_identical_to_naive_detectors\": true,\n");
    out.push_str(&format!(
        "  \"telemetry\": {{\"overhead_ratio\": {:.4}, \"budget_ratio\": {TELEMETRY_OVERHEAD_LIMIT}, \
         \"scores_bit_identical\": true, \"exposition\": \"BENCH_telemetry.prom\"}},\n",
        overhead.ratio
    ));

    out.push_str("  \"criterion\": [\n");
    for (i, r) in c.results.iter().enumerate() {
        let comma = if i + 1 < c.results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"label\": \"{}\", \"mean_us\": {:.3}, \"std_us\": {:.3}}}{comma}\n",
            json_escape(&r.group),
            json_escape(&r.label),
            r.mean_ns / 1e3,
            r.std_ns / 1e3
        ));
    }
    out.push_str("  ]\n}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_detectors.json");
    std::fs::write(&path, &out).expect("failed to write BENCH_detectors.json");
    println!("wrote {}", path.display());

    let prom = root.join("BENCH_telemetry.prom");
    std::fs::write(&prom, &overhead.prometheus_text).expect("failed to write BENCH_telemetry.prom");
    println!("wrote {}", prom.display());
}

/// Per-image engine latency ceiling (µs) asserted on every bench run: the
/// vectorized-kernel tentpole's "< 1.5 ms/image single-thread" gate.
const ENGINE_LATENCY_GATE_US: f64 = 1500.0;

/// Ceiling on `engine_batch` relative to the plain `engine` loop: the
/// fan-out bookkeeping must cost at most 5% on a single thread.
const BATCH_OVERHEAD_LIMIT: f64 = 1.05;

/// Attempts for the wall-clock perf gates; like the telemetry budget, the
/// gates must hold on *some* attempt (shared-machine noise).
const PERF_GATE_ATTEMPTS: usize = 5;

fn main() {
    // BENCH_SMOKE=1 runs only the throughput/overhead gates (the perf
    // smoke used by ci.sh) and leaves the recorded BENCH_detectors.json —
    // which includes the full Criterion table — untouched.
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let mut c = Criterion::default();
    if !smoke {
        benches(&mut c);
    }

    println!("-- throughput (64-image corpus, cold detectors vs engine) --");
    let mut t = run_throughput();
    let per_image_us = |secs: f64| secs / t.corpus_images as f64 * 1e6;
    for attempt in 1.. {
        let engine_us = per_image_us(t.engine_s);
        let batch_ratio = t.batch_s / t.engine_s;
        if engine_us < ENGINE_LATENCY_GATE_US && batch_ratio <= BATCH_OVERHEAD_LIMIT {
            break;
        }
        assert!(
            attempt < PERF_GATE_ATTEMPTS,
            "perf gate failed after {attempt} attempts: engine {engine_us:.2} µs/image \
             (gate {ENGINE_LATENCY_GATE_US}), batch ratio {batch_ratio:.4} \
             (gate {BATCH_OVERHEAD_LIMIT})"
        );
        let again = run_throughput();
        // Keep the best observation of each series across attempts.
        t.cold_s = t.cold_s.min(again.cold_s);
        t.engine_s = t.engine_s.min(again.engine_s);
        t.batch_s = t.batch_s.min(again.batch_s);
        for (ours, theirs) in t.per_detector_s.iter_mut().zip(again.per_detector_s) {
            ours.1 = ours.1.min(theirs.1);
        }
    }
    let n = t.corpus_images as f64;
    println!(
        "cold detectors: {:.1} images/s | engine: {:.1} images/s | batch (threads={}): {:.1} images/s | speedup {:.2}x",
        n / t.cold_s,
        n / t.engine_s,
        t.threads,
        n / t.batch_s,
        t.cold_s / t.engine_s
    );
    println!(
        "engine {:.2} µs/image (gate {ENGINE_LATENCY_GATE_US} µs) | batch ratio {:.4} \
         (gate {BATCH_OVERHEAD_LIMIT}x)",
        per_image_us(t.engine_s),
        t.batch_s / t.engine_s
    );

    println!("-- streaming overhead (chunked score_stream vs eager batch) --");
    let stream = run_streaming_overhead();
    println!(
        "streaming overhead {:.4}x at chunk size {STREAMING_CHUNK_SIZE} \
         (budget {STREAMING_OVERHEAD_LIMIT}x), scores bit-identical",
        stream.ratio
    );

    println!("-- telemetry overhead (fully instrumented engine vs silent) --");
    let overhead = run_telemetry_overhead();
    println!(
        "telemetry overhead {:.4}x (budget {TELEMETRY_OVERHEAD_LIMIT}x), scores bit-identical",
        overhead.ratio
    );
    if smoke {
        println!("BENCH_SMOKE set: gates passed, report left untouched");
    } else {
        write_report(&c, &t, &overhead, &stream);
    }
}
