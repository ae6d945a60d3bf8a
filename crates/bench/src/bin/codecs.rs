//! `codecs` — decode-stage latency per container format.
//!
//! Writes a synthetic corpus to disk once per format (BMP, PNM, PNG,
//! JPEG), then pulls each directory through [`DirectorySource`] and
//! decodes every pulled file with [`Pulled::into_image`] — the source's
//! [`ImageDecoder`](decamouflage_core::stream::ImageDecoder), the same
//! call a scoring worker makes — so the numbers come from the production
//! decode path: magic-byte sniff, `decode_into` a pooled buffer, and the
//! `decam_engine_stage_seconds{stage="decode"}` timer that production
//! telemetry already records. Results land in `BENCH_codecs.json` as
//! µs/image per format, alongside the per-format byte sizes (the
//! compression each container buys on this corpus).
//!
//! Exits non-zero if any format fails to decode its own corpus or the
//! decode counter shows an error — the bench doubles as a smoke test
//! that every encoder's output survives its decoder at corpus scale.
//!
//! Usage: `codecs [images] [repeats] [-o FILE]` (default 48 images,
//! 3 passes, `BENCH_codecs.json`).

use decamouflage_bench::corpus::MixedAttackGenerator;
use decamouflage_core::stream::{BufferPool, DirectorySource, ImageSource, Pulled};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::codec::{encode_bmp, encode_jpeg, encode_png, encode_ppm};
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;

const FORMATS: [&str; 4] = ["bmp", "pnm", "png", "jpeg"];

fn encode(format: &str, image: &Image) -> Vec<u8> {
    match format {
        "bmp" => encode_bmp(image),
        "pnm" => encode_ppm(image),
        "png" => encode_png(image),
        "jpeg" => encode_jpeg(image, 90),
        other => unreachable!("unknown format {other}"),
    }
}

fn extension(format: &str) -> &'static str {
    match format {
        "bmp" => "bmp",
        "pnm" => "ppm",
        "png" => "png",
        _ => "jpg",
    }
}

struct FormatResult {
    format: &'static str,
    decode_us_per_image: f64,
    corpus_bytes: u64,
    images: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positionals = Vec::new();
    let mut out = String::from("BENCH_codecs.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "-o" {
            match iter.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("-o needs a file path");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            positionals.push(arg.clone());
        }
    }
    let images: usize = positionals.first().and_then(|a| a.parse().ok()).unwrap_or(48);
    let repeats: usize = positionals.get(1).and_then(|a| a.parse().ok()).unwrap_or(3);

    // The corpus mirrors the detector bench: half benign, half attack,
    // at a realistic source size so decode cost is not noise.
    let mut profile = DatasetProfile::tiny();
    profile.name = "codec-bench";
    profile.source_sizes = vec![Size::square(128)];
    profile.target_size = Size::square(32);
    let generator = MixedAttackGenerator::new(profile);
    let corpus: Vec<Image> = (0..images.div_ceil(2) as u64)
        .flat_map(|i| [generator.benign(i).to_rgb(), generator.attack(i).to_rgb()])
        .take(images)
        .collect();

    let root =
        std::env::temp_dir().join(format!("decamouflage-codec-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut results = Vec::new();
    for format in FORMATS {
        let dir: PathBuf = root.join(format);
        std::fs::create_dir_all(&dir).expect("create bench dir");
        let mut corpus_bytes = 0u64;
        for (i, image) in corpus.iter().enumerate() {
            let bytes = encode(format, image);
            corpus_bytes += bytes.len() as u64;
            std::fs::write(dir.join(format!("{i:04}.{}", extension(format))), bytes)
                .expect("write bench file");
        }

        let telemetry = Telemetry::enabled();
        let mut pool = BufferPool::with_telemetry(4, &telemetry);
        let mut decoded = 0usize;
        for _ in 0..repeats {
            let mut source =
                DirectorySource::with_telemetry(&dir, &telemetry).expect("open bench dir");
            while let Some(item) = source.next_image(&mut pool) {
                match item.and_then(|pulled: Pulled| pulled.into_image(&mut |n| pool.take(n))) {
                    Ok(image) => {
                        decoded += 1;
                        pool.recycle(image);
                    }
                    Err(err) => {
                        eprintln!("{format}: decode failed mid-corpus: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        if decoded != images * repeats {
            eprintln!("{format}: decoded {decoded}, expected {}", images * repeats);
            return ExitCode::FAILURE;
        }
        let ok = telemetry
            .counter("decam_codec_decode_total", &[("format", format), ("outcome", "ok")])
            .value();
        if ok as usize != decoded {
            eprintln!("{format}: decode counter {ok} disagrees with {decoded} decodes");
            return ExitCode::FAILURE;
        }

        let snapshot = telemetry
            .histogram("decam_engine_stage_seconds", &[("stage", "decode")])
            .snapshot()
            .expect("telemetry enabled");
        let decode_us_per_image = snapshot.sum() / decoded as f64 * 1e6;
        println!(
            "{format:<5} {decode_us_per_image:8.1} µs/image decode   \
             {:7.1} KiB corpus ({images} images)",
            corpus_bytes as f64 / 1024.0
        );
        results.push(FormatResult { format, decode_us_per_image, corpus_bytes, images });
    }
    let _ = std::fs::remove_dir_all(&root);

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"decode_us_per_image\": {:.3}, \"corpus_bytes\": {}, \
                 \"images\": {}}}",
                r.format, r.decode_us_per_image, r.corpus_bytes, r.images
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"images\": {images}, \"repeats\": {repeats}, \
         \"source_size\": 128}},\n  \"formats\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}
