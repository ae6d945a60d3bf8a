//! Container-independence of the detection pipeline: the same pixels
//! must produce bit-identical engine scores whether they arrive as BMP
//! or PNG, and a mixed-format directory must stream end to end with
//! per-file quarantine instead of a crash.

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::detection::engine::DetectionEngine;
use decamouflage::detection::stream::{BufferPool, DirectorySource, ImageSource, StreamConfig};
use decamouflage::detection::{MethodId, MethodSet};
use decamouflage::imaging::codec::{
    decode_auto, encode_bmp, encode_jpeg, encode_pgm, encode_png, encode_ppm,
};
use decamouflage::imaging::scale::ScaleAlgorithm;
use std::ops::ControlFlow;
use std::path::PathBuf;

const METHODS: [MethodId; 3] = [MethodId::ScalingMse, MethodId::FilteringSsim, MethodId::Csp];

fn engine() -> DetectionEngine {
    let profile = DatasetProfile::tiny();
    DetectionEngine::new(profile.target_size).with_methods(MethodSet::of(&METHODS))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decamouflage-codec-equiv-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bmp_and_png_containers_yield_bit_identical_scores() {
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    let engine = engine();
    for i in 0..4u64 {
        // Attack images are the adversarial case: their pixels carry the
        // embedded payload, so any container-induced perturbation would
        // move the scores.
        // BMP is always 24-bit, so compare in RGB: a gray source would
        // round-trip as RGB through BMP but stay gray through PNG.
        let image =
            if i % 2 == 0 { generator.benign(i) } else { generator.attack_image(i).unwrap() }
                .to_rgb();
        let (_, from_bmp) = decode_auto(&encode_bmp(&image)).unwrap();
        let (_, from_png) = decode_auto(&encode_png(&image)).unwrap();
        assert_eq!(from_bmp.planes(), from_png.planes(), "sample {i}: decoded pixels differ");
        let scores_bmp = engine.score_resilient(&from_bmp).unwrap();
        let scores_png = engine.score_resilient(&from_png).unwrap();
        for method in METHODS {
            assert_eq!(
                scores_bmp.get(method).to_bits(),
                scores_png.get(method).to_bits(),
                "sample {i}, {method:?}: BMP vs PNG score diverged"
            );
        }
    }
}

#[test]
fn mixed_format_directory_streams_with_per_file_quarantine() {
    let dir = temp_dir("mixed");
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    // Four healthy files, one per container.
    std::fs::write(dir.join("a.bmp"), encode_bmp(&generator.benign(0))).unwrap();
    std::fs::write(dir.join("b.png"), encode_png(&generator.benign(1))).unwrap();
    std::fs::write(dir.join("c.ppm"), encode_ppm(&generator.benign(2))).unwrap();
    std::fs::write(dir.join("d.pgm"), encode_pgm(&generator.benign(3))).unwrap();
    std::fs::write(dir.join("e.jpg"), encode_jpeg(&generator.benign(4), 95)).unwrap();
    // Two hostile files: a claimed-then-broken PNG, and a file whose
    // extension lies about bytes no codec claims.
    let mut broken = vec![137u8, 80, 78, 71, 13, 10, 26, 10];
    broken.extend_from_slice(b"chunk soup, no CRC in sight");
    std::fs::write(dir.join("f_broken.png"), &broken).unwrap();
    std::fs::write(dir.join("g_lying.jpeg"), b"GIF89a pretending").unwrap();

    let engine = engine();
    let mut source = DirectorySource::open(&dir).unwrap();
    assert_eq!(source.len_hint(), Some(7), "all seven files admitted by extension");
    let config = StreamConfig::default().with_chunk_size(2).with_pool_capacity(2);
    let mut ok = 0usize;
    let mut faults: Vec<&'static str> = Vec::new();
    engine.score_stream(&mut source, &config, |_, result| {
        match result {
            Ok(scores) => {
                for method in METHODS {
                    assert!(scores.get(method).is_finite());
                }
                ok += 1;
            }
            Err(err) => faults.push(err.cause.kind()),
        }
        ControlFlow::Continue(())
    });
    assert_eq!(ok, 5, "every healthy container scores");
    faults.sort_unstable();
    assert_eq!(faults, ["unreadable", "unsupported-format"], "hostile files quarantine, typed");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jpeg_path_scores_like_a_lossless_reencode_of_its_decode() {
    // JPEG is lossy, so its scores differ from the source image's — but
    // the engine must see exactly the decoder's output: re-encoding the
    // decoded pixels losslessly and scoring again must be bit-identical.
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    let engine = engine();
    let (_, from_jpeg) = decode_auto(&encode_jpeg(&generator.benign(5), 90)).unwrap();
    let (_, relossless) = decode_auto(&encode_png(&from_jpeg)).unwrap();
    let a = engine.score_resilient(&from_jpeg).unwrap();
    let b = engine.score_resilient(&relossless).unwrap();
    for method in METHODS {
        assert_eq!(a.get(method).to_bits(), b.get(method).to_bits(), "{method:?}");
    }
}

#[test]
fn pooled_decode_reuses_buffers_across_formats() {
    // The decode_into path must actually pull from the pool: stream a
    // small mixed directory twice through one source/pool pair and
    // verify the second pass completes with the recycled buffers.
    let dir = temp_dir("pooled");
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    std::fs::write(dir.join("a.png"), encode_png(&generator.benign(0))).unwrap();
    std::fs::write(dir.join("b.bmp"), encode_bmp(&generator.benign(1))).unwrap();
    std::fs::write(dir.join("c.jpg"), encode_jpeg(&generator.benign(2), 90)).unwrap();

    let mut pool = BufferPool::new(4);
    for pass in 0..2 {
        let mut source = DirectorySource::open(&dir).unwrap();
        let mut seen = 0;
        while let Some(item) = source.next_image(&mut |n| pool.take(n)) {
            let image = item
                .and_then(|pulled| pulled.into_image(&mut |n| pool.take(n)))
                .unwrap_or_else(|e| panic!("pass {pass}: {e}"));
            pool.recycle(image);
            seen += 1;
        }
        assert_eq!(seen, 3, "pass {pass}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
