//! The four workloads, their generated inputs and reference verdicts.
//!
//! Every input is generated from the run's seed (mixed into the dataset
//! profile seed), encoded to bytes and written to the work directory;
//! the measured program only ever sees those bytes.

use decamouflage_core::parallel::parallel_map_indices;
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{
    DetectionEngine, Direction, MethodId, MethodSet, ScoreVector, SteganalysisDetector, Threshold,
};
use decamouflage_datasets::{DatasetProfile, SampleGenerator};
use decamouflage_imaging::codec::{
    decode_auto, encode_bmp, encode_jpeg, encode_pgm, encode_png, encode_ppm, ImageFormat,
};
use decamouflage_imaging::scale::ScaleAlgorithm;
use decamouflage_imaging::{Channels, Image, Size};
use decamouflage_serve::service::SERVICE_METHODS;
use std::path::{Path, PathBuf};

/// JPEG quality of every encoded JPEG input (the CLI's own choice).
const JPEG_QUALITY: u8 = 90;

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Repeated `decamouflage scan` passes over the corpus directory,
    /// with an optional `--chunk-size` and a `--checkpoint` file.
    Scan { chunk_size: Option<usize>, checkpoint: bool },
    /// `POST /check` traffic against `decamouflage serve`; `hostile`
    /// adds a second connection looping slow-loris, malformed and
    /// oversized requests.
    Check { hostile: bool },
}

/// What the inputs of a workload look like.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub count: usize,
    pub smoke_count: usize,
    pub sides: &'static [usize],
    pub channels: Channels,
    pub formats: &'static [ImageFormat],
    pub target: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    pub inputs: InputSpec,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan-paper",
        why: "Table 7 sizes (336/448/560 Gray, PNG/JPEG): mixed-radix FFT and serial decode dominate",
        drive: Drive::Scan { chunk_size: Some(16), checkpoint: false },
        inputs: InputSpec {
            count: 48,
            smoke_count: 6,
            sides: &[336, 448, 560],
            channels: Channels::Gray,
            formats: &[ImageFormat::Png, ImageFormat::Jpeg],
            target: 112,
        },
    },
    Workload {
        name: "scan-small-rgb",
        why: "128px RGB in four formats with checkpoints: decode, luma and per-channel kernels, radix-2 FFT",
        drive: Drive::Scan { chunk_size: Some(16), checkpoint: true },
        inputs: InputSpec {
            count: 256,
            smoke_count: 16,
            sides: &[128],
            channels: Channels::Rgb,
            formats: &[ImageFormat::Bmp, ImageFormat::Pnm, ImageFormat::Png, ImageFormat::Jpeg],
            target: 32,
        },
    },
    Workload {
        name: "check-paper",
        why: "one 448px image per /check request at fixed rates and closed loop: latency callers wait for",
        drive: Drive::Check { hostile: false },
        inputs: InputSpec {
            count: 48,
            smoke_count: 4,
            sides: &[448],
            channels: Channels::Gray,
            formats: &[ImageFormat::Png, ImageFormat::Jpeg],
            target: 112,
        },
    },
    Workload {
        name: "check-hostile",
        why: "check-paper traffic while a second connection loops slow-loris, malformed and oversized requests",
        drive: Drive::Check { hostile: true },
        inputs: InputSpec {
            count: 48,
            smoke_count: 4,
            sides: &[448],
            channels: Channels::Gray,
            formats: &[ImageFormat::Png, ImageFormat::Jpeg],
            target: 112,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The thresholds every run uses: the CLI defaults.
pub fn thresholds() -> ThresholdSet {
    let mut set = ThresholdSet::new();
    set.insert(MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack));
    set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
    set.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    set
}

/// The service's engine: the three voting methods only.
pub fn engine(target: Size) -> DetectionEngine {
    DetectionEngine::new(target).with_methods(MethodSet::of(SERVICE_METHODS))
}

/// The majority vote of the three service methods under `thresholds`.
pub fn vote(scores: &ScoreVector, thresholds: &ThresholdSet) -> bool {
    let votes = SERVICE_METHODS
        .iter()
        .filter(|&&id| thresholds.get(id).is_some_and(|t| t.is_attack(scores.get(id))))
        .count();
    2 * votes > SERVICE_METHODS.len()
}

/// One generated input file.
#[derive(Debug, Clone)]
pub struct Input {
    pub file_name: String,
    pub bytes: Vec<u8>,
    pub format: ImageFormat,
    pub side: usize,
    /// The generated label: whether this is a crafted attack image.
    pub attack: bool,
    /// The verdict the library gives the decoded bytes in-process.
    pub reference: bool,
}

/// A workload's inputs, written to `dir` as one file each.
#[derive(Debug)]
pub struct Corpus {
    pub inputs: Vec<Input>,
    pub target: Size,
    pub dir: PathBuf,
}

impl Corpus {
    pub fn index_of(&self, file_name: &str) -> Option<usize> {
        self.inputs.iter().position(|input| input.file_name == file_name)
    }

    /// Input indices with one of each distinct (size, format) pair.
    pub fn one_per_kind(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        let mut picked = Vec::new();
        for (index, input) in self.inputs.iter().enumerate() {
            if !seen.contains(&(input.side, input.format)) {
                seen.push((input.side, input.format));
                picked.push(index);
            }
        }
        picked
    }
}

/// A 64-bit mix of the run seed, so neighbouring seeds give unrelated
/// profile seeds.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dataset profile inputs are drawn from: the training profile's
/// content statistics, the given sizes, target and channels, and a
/// profile seed mixed with the run seed.
pub fn profile(seed: u64, sides: &[usize], target: usize, channels: Channels) -> DatasetProfile {
    let mut profile = DatasetProfile::neurips_like();
    profile.seed ^= splitmix(seed);
    profile.source_sizes = sides.iter().map(|&side| Size::square(side)).collect();
    profile.target_size = Size::square(target);
    profile.channels = channels;
    profile
}

fn extension(format: ImageFormat) -> &'static str {
    match format {
        ImageFormat::Bmp => "bmp",
        ImageFormat::Pnm => "pnm",
        ImageFormat::Png => "png",
        ImageFormat::Jpeg => "jpg",
    }
}

pub fn encode(image: &Image, format: ImageFormat) -> Vec<u8> {
    match format {
        ImageFormat::Bmp => encode_bmp(image),
        ImageFormat::Pnm if image.channel_count() == 1 => encode_pgm(image),
        ImageFormat::Pnm => encode_ppm(image),
        ImageFormat::Png => encode_png(image),
        ImageFormat::Jpeg => encode_jpeg(image, JPEG_QUALITY),
    }
}

/// Generates, encodes and writes a workload's inputs and scores each one
/// in-process for its reference verdict. With `k = sides * formats`,
/// input `i` has size `sides[i % sides]`, format
/// `formats[(i / sides) % formats]`, is an attack when
/// `(i / k) % 2 == 1`, crafted against nearest or bilinear scaling by
/// `(i / 2k) % 2`; every run of `4k` inputs holds each combination once.
///
/// # Errors
///
/// File-system errors and inputs the in-process decoder rejects.
pub fn generate(
    spec: &InputSpec,
    count: usize,
    seed: u64,
    dir: &Path,
    thresholds: &ThresholdSet,
) -> Result<Corpus, String> {
    let profile = profile(seed, spec.sides, spec.target, spec.channels);
    let generators = [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear]
        .map(|algorithm| SampleGenerator::new(profile.clone(), algorithm));
    let engine = engine(Size::square(spec.target));
    let (sides, formats) = (spec.sides.len(), spec.formats.len());
    let kinds = sides * formats;

    let made = parallel_map_indices(count, 2, |i| -> Result<Input, String> {
        let format = spec.formats[(i / sides) % formats];
        let attack = (i / kinds) % 2 == 1;
        let generator = &generators[(i / (2 * kinds)) % 2];
        let image = if attack {
            generator.attack_image(i as u64).map_err(|e| format!("input {i}: {e}"))?
        } else {
            generator.benign(i as u64)
        };
        let bytes = encode(&image, format);
        let (_, decoded) = decode_auto(&bytes).map_err(|e| format!("input {i}: {e}"))?;
        let scores = engine.score(&decoded).map_err(|e| format!("input {i}: {e}"))?;
        Ok(Input {
            file_name: format!("{i:05}.{}", extension(format)),
            bytes,
            format,
            side: spec.sides[i % sides],
            attack,
            reference: vote(&scores, thresholds),
        })
    });
    let inputs = made.into_iter().collect::<Result<Vec<_>, _>>()?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for input in &inputs {
        let path = dir.join(&input.file_name);
        std::fs::write(&path, &input.bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Corpus { inputs, target: Size::square(spec.target), dir: dir.to_path_buf() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_cover_every_size_format_and_label_and_follow_the_seed() {
        let spec = InputSpec {
            count: 8,
            smoke_count: 8,
            sides: &[64, 96],
            channels: Channels::Gray,
            formats: &[ImageFormat::Png, ImageFormat::Pnm],
            target: 16,
        };
        let root = std::env::temp_dir().join(format!("benchmark-gen-{}", std::process::id()));
        let th = thresholds();
        let a = generate(&spec, 8, 7, &root.join("a"), &th).unwrap();
        let b = generate(&spec, 8, 7, &root.join("b"), &th).unwrap();
        let c = generate(&spec, 8, 8, &root.join("c"), &th).unwrap();
        let _ = std::fs::remove_dir_all(&root);

        let kinds: Vec<(usize, ImageFormat, bool)> =
            a.inputs.iter().map(|i| (i.side, i.format, i.attack)).collect();
        for side in [64, 96] {
            for format in [ImageFormat::Png, ImageFormat::Pnm] {
                for attack in [false, true] {
                    assert!(kinds.contains(&(side, format, attack)), "{side} {format:?} {attack}");
                }
            }
        }
        assert!(a.inputs.iter().zip(&b.inputs).all(|(x, y)| x.bytes == y.bytes), "same seed");
        assert!(a.inputs.iter().zip(&c.inputs).any(|(x, y)| x.bytes != y.bytes), "other seed");
        assert_eq!(a.one_per_kind().len(), 4);
        assert_eq!(a.index_of("00003.pnm"), Some(3));
    }
}
