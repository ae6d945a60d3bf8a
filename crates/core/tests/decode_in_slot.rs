//! Decoding in the scoring slot: a directory streamed through
//! `score_stream` must score exactly like decoding and scoring each file
//! on its own, and the workers that decode must keep at most `threads`
//! decoded images alive.

use decamouflage_core::{DetectionEngine, DirectorySource, ScoreError, ScoreVector, StreamConfig};
use decamouflage_imaging::codec::{crc32, decode_auto, encode_bmp, encode_jpeg, encode_png};
use decamouflage_imaging::{Image, ImagingError, Size};
use decamouflage_telemetry::Telemetry;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decam-slot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gray(side: usize, seed: usize) -> Image {
    Image::from_fn_gray(side, side, |x, y| ((x * (3 + seed) + y * 7 + seed * 11) % 251) as f64)
}

/// A valid grayscale PNG whose IHDR is patched to declare 16-bit depth
/// (CRC fixed up), which the decoder types as unsupported.
fn sixteen_bit_png() -> Vec<u8> {
    let mut png = encode_png(&gray(24, 5));
    let ihdr_data = 8 + 8;
    png[ihdr_data + 8] = 16;
    let mut covered = b"IHDR".to_vec();
    covered.extend_from_slice(&png[ihdr_data..ihdr_data + 13]);
    png[ihdr_data + 13..ihdr_data + 17].copy_from_slice(&crc32(&covered).to_be_bytes());
    png
}

/// The comparable part of one slot: bit patterns of the scores, or the
/// fault kind and the full error text.
#[derive(Debug, PartialEq)]
enum Slot {
    Scored(Vec<u64>),
    Quarantined(&'static str, String),
}

fn slot(result: Result<ScoreVector, ScoreError>) -> Slot {
    match result {
        Ok(scores) => Slot::Scored(scores.iter().map(|(_, score)| score.to_bits()).collect()),
        Err(err) => Slot::Quarantined(err.cause.kind(), err.cause.to_string()),
    }
}

/// One file decoded with `decode_auto` and scored with `score_resilient`,
/// the fault named the way the directory source names it.
fn reference(engine: &DetectionEngine, path: &Path) -> Slot {
    let bytes = std::fs::read(path).unwrap();
    match decode_auto(&bytes) {
        Ok((_, image)) => slot(engine.score_resilient(&image)),
        Err(err) => {
            let message = format!("cannot read {}: {err}", path.display());
            match err {
                ImagingError::Unsupported { .. } => Slot::Quarantined(
                    "unsupported-format",
                    format!("unsupported source format: {message}"),
                ),
                _ => Slot::Quarantined("unreadable", format!("unreadable source item: {message}")),
            }
        }
    }
}

#[test]
fn streamed_directory_matches_per_file_decode_and_score() {
    let dir = temp_dir("mixed");
    let rgb = gray(40, 2).to_rgb();
    std::fs::write(dir.join("a.png"), encode_png(&gray(40, 1))).unwrap();
    std::fs::write(dir.join("b.jpg"), encode_jpeg(&rgb, 90)).unwrap();
    std::fs::write(dir.join("c.bmp"), encode_bmp(&rgb)).unwrap();
    let truncated = encode_png(&gray(36, 3));
    std::fs::write(dir.join("d_truncated.png"), &truncated[..truncated.len() / 2]).unwrap();
    // A PNG behind a .jpg extension decodes by its magic bytes; bytes no
    // codec claims behind a .bmp extension quarantine as unsupported.
    std::fs::write(dir.join("e_png_named.jpg"), encode_png(&gray(32, 4))).unwrap();
    std::fs::write(dir.join("f_lying.bmp"), b"GIF89a pretending").unwrap();
    std::fs::write(dir.join("g_deep.png"), sixteen_bit_png()).unwrap();
    std::fs::write(dir.join("h.jpg"), encode_jpeg(&gray(44, 6), 85)).unwrap();

    let engine = DetectionEngine::new(Size::square(16));
    let paths = DirectorySource::open(&dir).unwrap().paths().to_vec();
    let expected: Vec<(usize, Slot)> =
        paths.iter().enumerate().map(|(i, path)| (i, reference(&engine, path))).collect();
    let kinds: Vec<&str> = expected
        .iter()
        .filter_map(|(_, s)| match s {
            Slot::Quarantined(kind, _) => Some(*kind),
            Slot::Scored(_) => None,
        })
        .collect();
    assert_eq!(kinds, ["unreadable", "unsupported-format", "unsupported-format"]);

    let n = paths.len();
    for threads in [1, 2] {
        for chunk in [1, 3, n, n + 7] {
            let mut source = DirectorySource::open(&dir).unwrap();
            let config = StreamConfig::default().with_threads(threads).with_chunk_size(chunk);
            let mut streamed = Vec::new();
            let summary = engine.score_stream(&mut source, &config, |index, result| {
                if let Err(err) = &result {
                    assert_eq!(err.index, index, "faults carry their stream index");
                }
                streamed.push((index, slot(result)));
                ControlFlow::Continue(())
            });
            assert_eq!(summary.items, n);
            assert_eq!(streamed, expected, "threads {threads}, chunk size {chunk}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workers_keep_at_most_threads_decoded_images() {
    let dir = temp_dir("memory");
    for i in 0..32 {
        std::fs::write(dir.join(format!("{i:02}.png")), encode_png(&gray(48, i))).unwrap();
    }
    let telemetry = Telemetry::enabled();
    let engine = DetectionEngine::new(Size::square(16)).with_telemetry(telemetry.clone());
    let mut source = DirectorySource::with_telemetry(&dir, &telemetry).unwrap();
    let config = StreamConfig::default().with_threads(2).with_chunk_size(16).with_pool_capacity(8);
    let mut scored = 0;
    engine.score_stream(&mut source, &config, |_, result| {
        result.expect("every file scores");
        scored += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(scored, 32);
    // A Gray decode takes one plane. A worker takes a plane only after
    // recycling its previous one, so a miss means every plane made so far
    // is held by a worker: two workers, at most two misses.
    let misses = telemetry.counter("decam_stream_buffer_pool_misses_total", &[]).value();
    let hits = telemetry.counter("decam_stream_buffer_pool_hits_total", &[]).value();
    assert!(misses <= 2, "{misses} pool misses: more than `threads` decoded images were live");
    assert_eq!(hits + misses, 32, "one pooled plane per decode");
    std::fs::remove_dir_all(&dir).ok();
}
