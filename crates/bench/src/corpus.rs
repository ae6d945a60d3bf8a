//! Corpus construction and one-pass multi-detector scoring.

use decamouflage_core::parallel::{default_threads, parallel_map_indices};
use decamouflage_core::{DetectError, DetectionEngine, MethodId, ScoreError, ScoreVector};
use decamouflage_datasets::{DatasetProfile, SampleGenerator};
use decamouflage_imaging::scale::{round_trip, ScaleAlgorithm};
use decamouflage_imaging::Image;
use decamouflage_metrics::{histogram_intersection, psnr_from_mse, SampleSummary};

/// Attack images drawn from a round-robin mix of vulnerable scaling
/// algorithms — the realistic "attacks in the wild" mix the defender faces.
#[derive(Debug, Clone)]
pub struct MixedAttackGenerator {
    generators: Vec<SampleGenerator>,
}

impl MixedAttackGenerator {
    /// Builds the default mix (nearest + bilinear attacks) over a profile.
    pub fn new(profile: DatasetProfile) -> Self {
        let algorithms = [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear];
        Self {
            generators: algorithms
                .iter()
                .map(|&a| SampleGenerator::new(profile.clone(), a))
                .collect(),
        }
    }

    /// The generator responsible for sample `index`.
    pub fn generator_for(&self, index: u64) -> &SampleGenerator {
        &self.generators[(index as usize) % self.generators.len()]
    }

    /// The benign original of sample `index` (same across algorithms).
    pub fn benign(&self, index: u64) -> Image {
        self.generators[0].benign(index)
    }

    /// The attack image of sample `index`.
    ///
    /// # Panics
    ///
    /// Panics if crafting fails, which the built-in profiles never trigger.
    pub fn attack(&self, index: u64) -> Image {
        self.generator_for(index)
            .attack_image(index)
            .expect("attack crafting on built-in profiles cannot fail")
    }
}

/// Every registered engine method ([`MethodId::ALL`], in registry order)
/// plus the three negative-result scorers the paper rejects:
/// `scaling/psnr` (Appendix A), `filtering/psnr` (Appendix A) and
/// `scaling/colorhist` (§3.1).
#[derive(Debug)]
pub struct DetectorSet {
    engine: DetectionEngine,
}

/// Index of `scaling/mse` in a [`ScoreSet`].
pub const IDX_SCALING_MSE: usize = MethodId::ScalingMse as usize;
/// Index of `scaling/ssim` in a [`ScoreSet`].
pub const IDX_SCALING_SSIM: usize = MethodId::ScalingSsim as usize;
/// Index of `filtering/mse` in a [`ScoreSet`].
pub const IDX_FILTERING_MSE: usize = MethodId::FilteringMse as usize;
/// Index of `filtering/ssim` in a [`ScoreSet`].
pub const IDX_FILTERING_SSIM: usize = MethodId::FilteringSsim as usize;
/// Index of `steganalysis/csp` in a [`ScoreSet`].
pub const IDX_STEGANALYSIS: usize = MethodId::Csp as usize;
/// Index of `steganalysis/peak-excess` in a [`ScoreSet`].
pub const IDX_PEAK_EXCESS: usize = MethodId::PeakExcess as usize;
/// Index of `scaling/psnr` (negative result, Appendix A).
pub const IDX_SCALING_PSNR: usize = MethodId::COUNT;
/// Index of `filtering/psnr` (negative result, Appendix A).
pub const IDX_FILTERING_PSNR: usize = MethodId::COUNT + 1;
/// Index of `scaling/colorhist` (negative result, §3.1).
pub const IDX_COLORHIST: usize = MethodId::COUNT + 2;
/// Number of scorers in a [`ScoreSet`]: the whole method registry plus
/// the three negative-result scorers.
pub const SCORER_COUNT: usize = MethodId::COUNT + 3;

/// Human-readable scorer names, aligned with the `IDX_*` constants. The
/// registry slots come straight from [`MethodId::name`], so a newly
/// registered method is named here automatically.
pub const SCORER_NAMES: [&str; SCORER_COUNT] = {
    let mut names = [""; SCORER_COUNT];
    let mut i = 0;
    while i < MethodId::COUNT {
        names[i] = MethodId::ALL[i].name();
        i += 1;
    }
    names[IDX_SCALING_PSNR] = "scaling/psnr";
    names[IDX_FILTERING_PSNR] = "filtering/psnr";
    names[IDX_COLORHIST] = "scaling/colorhist";
    names
};

impl DetectorSet {
    /// Builds the detector set for a profile's CNN input size. The
    /// defender's round trip uses bilinear scaling (a deployment choice,
    /// independent of the attacker's algorithm).
    pub fn new(profile: &DatasetProfile) -> Self {
        Self { engine: DetectionEngine::new(profile.target_size) }
    }

    /// The shared-intermediate engine behind [`DetectorSet::score_all`].
    pub fn engine(&self) -> &DetectionEngine {
        &self.engine
    }

    /// Scores one image with all scorers in `IDX_*` order. Every registry
    /// method comes from one [`DetectionEngine::score_resilient`] pass
    /// (bit-identical to [`DetectionEngine::reference_score`]). The two
    /// PSNR negative results are the pass's `scaling/mse` and
    /// `filtering/mse` through [`psnr_from_mse`], the bits [`psnr`] gives
    /// for the same pairs; the colour histogram compares the image with
    /// its round trip (the engine's cached plans, through [`round_trip`]).
    ///
    /// [`psnr`]: decamouflage_metrics::psnr
    ///
    /// # Panics
    ///
    /// Panics on a scoring failure, which generated images never trigger;
    /// for untrusted inputs use [`DetectorSet::try_score_all`].
    pub fn score_all(&self, image: &Image) -> [f64; SCORER_COUNT] {
        self.try_score_all(image).expect("engine scoring on generated images cannot fail")
    }

    /// The fault-isolating variant of [`DetectorSet::score_all`]: validates
    /// the image through the engine's quarantine layer first and returns a
    /// typed [`ScoreError`] instead of panicking on anything unusable.
    ///
    /// # Errors
    ///
    /// Returns the quarantine [`ScoreError`] for invalid inputs and any
    /// scoring failure (index `0`; batch callers re-address it).
    pub fn try_score_all(&self, image: &Image) -> Result<[f64; SCORER_COUNT], ScoreError> {
        let scores = self.engine.score_resilient(image)?;
        let detect = |err: DetectError| ScoreError::detect(0, err);
        let (_, round) = round_trip(image, self.engine.target(), self.engine.algorithm())
            .map_err(|err| detect(err.into()))?;
        let mut row = [f64::NAN; SCORER_COUNT];
        for (id, score) in scores.iter() {
            row[id as usize] = score;
        }
        row[IDX_SCALING_PSNR] = psnr_from_mse(row[IDX_SCALING_MSE]);
        row[IDX_FILTERING_PSNR] = psnr_from_mse(row[IDX_FILTERING_MSE]);
        row[IDX_COLORHIST] =
            histogram_intersection(image, &round, 64).map_err(|err| detect(err.into()))?;
        Ok(row)
    }
}

/// Detection scores of one corpus under one scorer: parallel benign and
/// attack score vectors, aligned by sample index.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCorpus {
    /// Scores of benign images, by index.
    pub benign: Vec<f64>,
    /// Scores of attack images, by index.
    pub attack: Vec<f64>,
}

impl ScoredCorpus {
    /// Summary statistics of the benign scores (mean/std columns of the
    /// paper's black-box tables).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidCalibration`] for an empty benign set.
    pub fn benign_summary(&self) -> Result<SampleSummary, DetectError> {
        SampleSummary::from_samples(&self.benign)
            .map_err(|e| DetectError::InvalidCalibration { message: e.to_string() })
    }
}

/// Per-scorer scored corpora for one dataset profile.
#[derive(Debug, Clone)]
pub struct ScoreSet {
    /// `corpora[idx]` is the scored corpus for scorer `IDX_*`.
    pub corpora: Vec<ScoredCorpus>,
    /// Images dropped by the quarantine layer while scoring the profile
    /// (zero for the built-in generated profiles). Quarantined images are
    /// absent from every corpus.
    pub quarantined: usize,
}

impl ScoreSet {
    /// The scored corpus of one scorer.
    pub fn of(&self, idx: usize) -> &ScoredCorpus {
        &self.corpora[idx]
    }

    /// The registry scores of one surviving image as a [`ScoreVector`],
    /// the input of [`Ensemble::vote`](decamouflage_core::Ensemble::vote):
    /// `index` within the attack half when `attack`, else the benign half.
    pub fn score_vector(&self, attack: bool, index: usize) -> ScoreVector {
        let mut scores = ScoreVector::splat(f64::NAN);
        for &id in MethodId::ALL {
            let corpus = self.of(id as usize);
            scores.set(id, if attack { corpus.attack[index] } else { corpus.benign[index] });
        }
        scores
    }
}

/// Harness configuration: corpus size and parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Benign (and attack) images per corpus. The paper uses 1000.
    pub count: usize,
    /// Worker threads for scoring.
    pub threads: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self { count: 1000, threads: default_threads() }
    }
}

impl HarnessConfig {
    /// A reduced configuration for fast smoke runs and tests.
    pub fn smoke(count: usize) -> Self {
        Self { count, threads: default_threads() }
    }
}

/// Lazily scored corpora for the training and evaluation profiles —
/// computed once, shared by every experiment.
pub struct ExperimentContext {
    /// Harness configuration.
    pub config: HarnessConfig,
    /// Training profile (threshold selection).
    pub train_profile: DatasetProfile,
    /// Evaluation profile (unseen dataset).
    pub eval_profile: DatasetProfile,
    train_scores: std::sync::OnceLock<ScoreSet>,
    eval_scores: std::sync::OnceLock<ScoreSet>,
}

impl ExperimentContext {
    /// Creates the paper's default context: calibrate on
    /// [`DatasetProfile::neurips_like`], evaluate on
    /// [`DatasetProfile::caltech_like`].
    pub fn new(config: HarnessConfig) -> Self {
        Self {
            config,
            train_profile: DatasetProfile::neurips_like(),
            eval_profile: DatasetProfile::caltech_like(),
            train_scores: std::sync::OnceLock::new(),
            eval_scores: std::sync::OnceLock::new(),
        }
    }

    /// Creates a context over custom profiles (used by tests with
    /// [`DatasetProfile::tiny`]).
    pub fn with_profiles(
        config: HarnessConfig,
        train_profile: DatasetProfile,
        eval_profile: DatasetProfile,
    ) -> Self {
        Self {
            config,
            train_profile,
            eval_profile,
            train_scores: std::sync::OnceLock::new(),
            eval_scores: std::sync::OnceLock::new(),
        }
    }

    /// Scores (or returns cached scores for) the training profile.
    pub fn train(&self) -> &ScoreSet {
        self.train_scores.get_or_init(|| score_profile(&self.train_profile, self.config))
    }

    /// Scores (or returns cached scores for) the evaluation profile.
    pub fn eval(&self) -> &ScoreSet {
        self.eval_scores.get_or_init(|| score_profile(&self.eval_profile, self.config))
    }
}

/// Scores a whole profile with every scorer in one pass per image: one
/// fan-out over the worker pool across all `2 * count` indices (benign
/// first, then attacks), each worker generating and scoring its own
/// image. Generation is seeded per index, so the columns do not depend on
/// the thread count.
///
/// Each image is fault-isolated: a slot whose generation or scoring fails
/// (or panics) is quarantined and dropped from every corpus, counted in
/// [`ScoreSet::quarantined`], instead of aborting the whole profile.
pub fn score_profile(profile: &DatasetProfile, config: HarnessConfig) -> ScoreSet {
    let detectors = DetectorSet::new(profile);
    let generator = MixedAttackGenerator::new(profile.clone());

    let count = config.count;
    let mut rows = parallel_map_indices(2 * count, config.threads, |index| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let image = if index < count {
                generator.benign(index as u64)
            } else {
                generator.attack((index - count) as u64)
            };
            detectors.try_score_all(&image)
        }))
        .unwrap_or_else(|payload| Err(ScoreError::panicked(index, payload)))
        .map_err(|err| err.at_index(index))
    });
    let attack_rows: Vec<Result<[f64; SCORER_COUNT], ScoreError>> = rows.split_off(count);
    let benign_rows: Vec<Result<[f64; SCORER_COUNT], ScoreError>> = rows;

    let quarantined = benign_rows.iter().chain(&attack_rows).filter(|r| r.is_err()).count();
    let column = |rows: &[Result<[f64; SCORER_COUNT], ScoreError>], idx: usize| -> Vec<f64> {
        rows.iter().filter_map(|r| r.as_ref().ok()).map(|row| row[idx]).collect()
    };
    let corpora = (0..SCORER_COUNT)
        .map(|idx| ScoredCorpus {
            benign: column(&benign_rows, idx),
            attack: column(&attack_rows, idx),
        })
        .collect();
    ScoreSet { corpora, quarantined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::filter::minimum_filter;
    use decamouflage_metrics::psnr;

    fn tiny_context(count: usize) -> ExperimentContext {
        ExperimentContext::with_profiles(
            HarnessConfig::smoke(count),
            DatasetProfile::tiny(),
            DatasetProfile::tiny(),
        )
    }

    #[test]
    fn mixed_generator_alternates_algorithms() {
        let g = MixedAttackGenerator::new(DatasetProfile::tiny());
        assert_eq!(g.generator_for(0).algorithm(), ScaleAlgorithm::Nearest);
        assert_eq!(g.generator_for(1).algorithm(), ScaleAlgorithm::Bilinear);
        assert_eq!(g.generator_for(2).algorithm(), ScaleAlgorithm::Nearest);
    }

    #[test]
    fn score_all_returns_finite_scores() {
        let profile = DatasetProfile::tiny();
        let detectors = DetectorSet::new(&profile);
        let g = MixedAttackGenerator::new(profile);
        for image in [g.benign(0), g.attack(1)] {
            let scores = detectors.score_all(&image);
            for (i, s) in scores.iter().enumerate() {
                assert!(s.is_finite(), "{} produced {s}", SCORER_NAMES[i]);
            }
            // The PSNR columns derived from the pass's MSE scores are the
            // bits of PSNR over the round trip and the 2×2 minimum filter.
            let engine = detectors.engine();
            let (_, round) = round_trip(&image, engine.target(), engine.algorithm()).unwrap();
            let filtered = minimum_filter(&image, 2).unwrap();
            let want_scaling = psnr(&image, &round).unwrap();
            let want_filtering = psnr(&image, &filtered).unwrap();
            assert_eq!(scores[IDX_SCALING_PSNR].to_bits(), want_scaling.to_bits());
            assert_eq!(scores[IDX_FILTERING_PSNR].to_bits(), want_filtering.to_bits());
        }
    }

    #[test]
    fn attack_scores_separate_from_benign_on_tiny_profile() {
        let ctx = tiny_context(6);
        let scores = ctx.train();
        let mse = scores.of(IDX_SCALING_MSE);
        let worst_benign = mse.benign.iter().cloned().fold(f64::MIN, f64::max);
        let best_attack = mse.attack.iter().cloned().fold(f64::MAX, f64::min);
        assert!(best_attack > worst_benign, "benign max {worst_benign}, attack min {best_attack}");
    }

    #[test]
    fn context_caches_scores() {
        let ctx = tiny_context(2);
        let first = ctx.train() as *const ScoreSet;
        let second = ctx.train() as *const ScoreSet;
        assert_eq!(first, second);
    }

    #[test]
    fn scorer_names_align_with_count() {
        assert_eq!(SCORER_NAMES.len(), SCORER_COUNT);
        assert_eq!(SCORER_NAMES[IDX_STEGANALYSIS], "steganalysis/csp");
        assert_eq!(SCORER_NAMES[IDX_PEAK_EXCESS], "steganalysis/peak-excess");
        assert_eq!(SCORER_NAMES[IDX_COLORHIST], "scaling/colorhist");
        // Registry slots come first and carry registry names.
        for (i, &id) in MethodId::ALL.iter().enumerate() {
            assert_eq!(SCORER_NAMES[i], id.name());
        }
    }

    #[test]
    fn try_score_all_quarantines_poisoned_images() {
        let profile = DatasetProfile::tiny();
        let detectors = DetectorSet::new(&profile);
        let g = MixedAttackGenerator::new(profile);
        let mut poisoned = g.benign(0);
        poisoned.set(1, 1, 0, f64::NAN);
        let err = detectors.try_score_all(&poisoned).unwrap_err();
        assert!(err.to_string().contains("non-finite pixel"), "{err}");
        // Clean images agree with the panicking facade.
        let clean = g.benign(0);
        assert_eq!(detectors.try_score_all(&clean).unwrap(), detectors.score_all(&clean));
    }

    #[test]
    fn generated_profiles_score_without_quarantine() {
        let ctx = tiny_context(3);
        let scores = ctx.train();
        assert_eq!(scores.quarantined, 0);
        assert_eq!(scores.of(IDX_SCALING_MSE).benign.len(), 3);
        assert_eq!(scores.of(IDX_SCALING_MSE).attack.len(), 3);
    }

    #[test]
    fn score_profile_does_not_depend_on_the_thread_count() {
        let profile = DatasetProfile::tiny();
        let serial = score_profile(&profile, HarnessConfig { count: 4, threads: 1 });
        let parallel = score_profile(&profile, HarnessConfig { count: 4, threads: 2 });
        assert_eq!(serial.quarantined, parallel.quarantined);
        let bits = |set: &ScoreSet| -> Vec<u64> {
            set.corpora
                .iter()
                .flat_map(|corpus| corpus.benign.iter().chain(&corpus.attack))
                .map(|score| score.to_bits())
                .collect()
        };
        assert_eq!(bits(&serial).len(), 2 * 4 * SCORER_COUNT);
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn score_vector_reads_one_image_across_the_registry_columns() {
        let ctx = tiny_context(2);
        let scores = ctx.train();
        let attack = scores.score_vector(true, 1);
        let benign = scores.score_vector(false, 0);
        for &id in MethodId::ALL {
            assert_eq!(attack.get(id), scores.of(id as usize).attack[1], "{id}");
            assert_eq!(benign.get(id), scores.of(id as usize).benign[0], "{id}");
        }
    }

    #[test]
    fn benign_summary_reports_mean_and_std() {
        let corpus = ScoredCorpus { benign: vec![1.0, 2.0, 3.0], attack: vec![] };
        let summary = corpus.benign_summary().unwrap();
        assert_eq!(summary.mean, 2.0);
        assert_eq!(summary.count, 3);
        let empty = ScoredCorpus { benign: vec![], attack: vec![1.0] };
        assert!(empty.benign_summary().is_err());
    }

    #[test]
    fn score_all_matches_standalone_peak_excess() {
        let profile = DatasetProfile::tiny();
        let detectors = DetectorSet::new(&profile);
        let g = MixedAttackGenerator::new(profile);
        let image = g.benign(1);
        let row = detectors.score_all(&image);
        let standalone = detectors.engine().reference_score(MethodId::PeakExcess, &image).unwrap();
        assert_eq!(row[IDX_PEAK_EXCESS], standalone);
    }
}
